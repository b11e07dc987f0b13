from itertools import product
from math import gcd

import pytest

from germcalc.cyclic_quot import (
    CycQuot,
    HJChain,
    chain_to_quot,
    classify_T,
    du_val_A,
    quot_to_chain,
)


def all_quots(max_n):
    for n in range(2, max_n + 1):
        for q in range(1, n):
            if gcd(n, q) == 1:
                yield CycQuot(n, q)


class TestChainQuot:
    def test_minimal_chain(self):
        assert chain_to_quot(HJChain((2,))) == CycQuot(2, 1)

    def test_two_entry_chain(self):
        # 2 - 1/5 = 9/5
        assert chain_to_quot(HJChain((2, 5))) == CycQuot(9, 5)

    def test_family_chain(self):
        assert chain_to_quot(HJChain((3, 2, 5, 4, 2))) == CycQuot(144, 59)

    def test_inverse_expansion(self):
        assert quot_to_chain(CycQuot(2, 1)) == HJChain((2,))
        assert quot_to_chain(CycQuot(9, 5)) == HJChain((2, 5))
        assert quot_to_chain(CycQuot(144, 59)) == HJChain((3, 2, 5, 4, 2))

    def test_round_trip_chains_exhaustive(self):
        for r in range(1, 7):
            for entries in product(range(2, 8), repeat=r):
                c = HJChain(entries)
                assert quot_to_chain(chain_to_quot(c)) == c

    def test_round_trip_quots_to_200(self):
        for s in all_quots(200):
            assert chain_to_quot(quot_to_chain(s)) == s

    def test_reversed_chain_gives_inverse_residue(self):
        for s in all_quots(60):
            rev = chain_to_quot(HJChain(quot_to_chain(s).entries[::-1]))
            assert rev.n == s.n
            assert (rev.q * s.q) % s.n == 1

    def test_entries_below_two_rejected(self):
        with pytest.raises(ValueError):
            HJChain((1, 3))
        with pytest.raises(ValueError):
            HJChain(())


class TestDuVal:
    def test_all_two_chain(self):
        assert du_val_A(HJChain((2, 2, 2))) == 3

    def test_mixed_chain(self):
        assert du_val_A(HJChain((2, 5))) is None

    def test_single(self):
        assert du_val_A(HJChain((2,))) == 1


def generate_t_chains(max_n):
    """Closure of the two growth moves over the base chains, pruned by the
    quotient order (both moves strictly increase it); independent of the
    recogniser's backward search."""
    bases = [(4,)] + [(3,) + (2,) * k + (3,) for k in range(0, max_n // 4)]
    seen = set()
    frontier = list(bases)
    while frontier:
        item = frontier.pop()
        if item in seen or chain_to_quot(HJChain(item)).n > max_n:
            continue
        seen.add(item)
        frontier.append((2,) + item[:-1] + (item[-1] + 1,))
        frontier.append((item[0] + 1,) + item[1:] + (2,))
    return seen


class TestClassT:
    def test_base_case(self):
        cert = classify_T(CycQuot(4, 1))
        assert cert.verdict and (cert.d, cert.m, cert.a) == (1, 2, 1)
        assert cert.base == (4,) and cert.steps == ()
        assert cert.m == 2

    def test_one_step_case(self):
        cert = classify_T(CycQuot(9, 5))
        assert cert.verdict
        assert cert.base == (4,)
        assert cert.replay() == (2, 5)
        assert cert.m == 3

    def test_family_case(self):
        cert = classify_T(CycQuot(144, 59))
        assert cert.verdict
        assert cert.m == 12

    def test_negative_case(self):
        # chain [3,2,2,2]; order 9 would force a = (q+1)/3 with q in {2, 5}
        cert = classify_T(CycQuot(9, 4))
        assert not cert.verdict and cert.m is None

    def test_du_val_chains_are_not_class_t(self):
        for r in range(1, 9):
            s = CycQuot(r + 1, r)
            assert quot_to_chain(s).entries == (2,) * r
            assert not classify_T(s).verdict

    def test_witnesses_agree_exhaustively_to_400(self):
        arithmetic_hits = set()
        for s in all_quots(400):
            cert = classify_T(s)  # raises if the two witnesses disagree
            if cert.verdict:
                assert cert.replay() == cert.chain.entries
                assert cert.d * cert.m**2 == s.n
                assert cert.d * cert.m * cert.a - 1 == s.q
                assert gcd(cert.a, cert.m) == 1
                arithmetic_hits.add(cert.chain.entries)
        # third, fully independent enumeration: forward closure of the moves
        forward = generate_t_chains(400)
        assert forward == arithmetic_hits

    def test_one_parameter_family(self):
        for m in range(3, 31):
            entries = (2,) * (m - 2) + (m + 2,)
            s = chain_to_quot(HJChain(entries))
            assert s == CycQuot(m * m, m * (m - 1) - 1)
            cert = classify_T(s)
            assert cert.verdict
            assert cert.m == m

    @pytest.mark.parametrize("length", [1500, 3000, 10_000])
    def test_long_wahl_chain(self, length):
        # deep enough to exhaust the interpreter stack under a recursive search
        m = length + 1
        entries = (2,) * (m - 2) + (m + 2,)
        cert = classify_T(chain_to_quot(HJChain(entries)))
        assert cert.verdict and cert.chain.entries == entries
        assert (cert.d, cert.m, cert.a) == (1, m, m - 1)
        assert cert.base == (4,) and cert.steps == ("L",) * (m - 2)
        assert cert.replay() == entries

    def test_chain_with_a_two_at_both_ends_is_never_class_t(self):
        for r in range(2, 8):
            for middle in product(range(2, 6), repeat=r - 2):
                entries = (2, *middle, 2)
                assert not classify_T(chain_to_quot(HJChain(entries))).verdict, entries
