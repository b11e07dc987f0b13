import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc.ell_calc import (
    EllDivisor,
    MarkedPoint,
    dual,
    ell_deg,
    glued_h0,
    node_invariant_dim,
    normalize,
    tensor,
    thm812_check,
)
from germcalc.ell_calc import _carry, _Component, _h0, _h1

P5 = MarkedPoint("P", 5)
P7 = MarkedPoint("P", 7)
R2 = MarkedPoint("R", 2)
R3 = MarkedPoint("R", 3)
R5 = MarkedPoint("R", 5)


class TestNormalForm:
    def test_single_carry(self):
        assert normalize(0, {P5: 7}) == EllDivisor(1, {P5: 2})

    def test_double_carry(self):
        got = normalize(-1, {P7: 12, R2: 2})
        assert got == EllDivisor(1, {P7: 5, R2: 0})
        assert got == EllDivisor(1, {P7: 5})  # zero weights are immaterial

    def test_odd_index_square(self):
        for m in range(3, 20, 2):
            p = MarkedPoint("P", m)
            a2 = EllDivisor(0, {p: (m - 1) // 2, R2: 1})
            assert tensor(a2, a2) == EllDivisor(1, {p: m - 1})

    def test_constructor_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EllDivisor(0, {P5: 5})
        with pytest.raises(ValueError):
            EllDivisor(0, {P5: -1})

    def test_non_integer_weight_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            normalize(0, {P5: F(1, 2)})

    @pytest.mark.parametrize("build, value", [
        (lambda: EllDivisor(1.7, {P5: 1}), "1.7"),
        (lambda: normalize(2.5, {P5: 7}), "2.5"),
        (lambda: EllDivisor(F(3, 2)), "Fraction(3, 2)"),
        (lambda: EllDivisor(0, {P5: True}), "True"),
        (lambda: MarkedPoint("P", 2.5), "2.5"),
    ], ids=["float-c", "normalize-float-c", "fraction-c", "bool-weight", "float-index"])
    def test_inexact_input_rejected(self, build, value):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {value}")):
            build()


def _floor_carry(c, raw, indices):
    """The normal form of c + sum raw_i P_i by exact division: c + sum floor(w/n)
    and each w mod n."""
    floors = [math.floor(F(w, n)) for w, n in zip(raw, indices)]
    return (c + sum(floors), *[w - n * q for w, n, q in zip(raw, indices, floors)])


class TestStraightLinePath:
    """_carry, tensor, dual and degree on components of two points, which take
    the straight-line path, and of one and three, which take the loop."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_against_floor_division(self, data):
        indices = tuple(data.draw(st.lists(st.integers(2, 60), min_size=1, max_size=3)))
        comp = _Component(tuple("PQR"[:len(indices)]), indices)

        def draw_raw():
            return tuple([data.draw(st.integers(-10 * n, 10 * n)) for n in indices])

        c, raw = data.draw(st.integers(-100, 100)), draw_raw()
        a = _floor_carry(c, raw, indices)
        assert _carry(c, raw, indices) == a
        b = _floor_carry(data.draw(st.integers(-100, 100)), draw_raw(), indices)
        assert comp.tensor(a, b) == _floor_carry(
            a[0] + b[0], [x + y for x, y in zip(a[1:], b[1:])], indices)
        assert comp.dual(a) == _floor_carry(-a[0], [-w for w in a[1:]], indices)
        den = math.lcm(*indices) * data.draw(st.integers(1, 3))
        assert comp.degree(a, den) == den * (a[0] + sum(F(w, n) for w, n in zip(a[1:], indices)))


class TestOver:
    """over(a, b), the one-carry a * dual(b) that the scripts' split checks use."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_over_is_tensor_with_dual(self, data):
        indices = tuple(data.draw(st.lists(st.integers(2, 12), min_size=1, max_size=3)))
        comp = _Component(tuple("PQR"[:len(indices)]), indices)

        def draw_nf():
            return (data.draw(st.integers(-20, 20)),
                    *[data.draw(st.integers(0, n - 1)) for n in indices])

        a, b = draw_nf(), draw_nf()
        assert comp.over(a, b) == comp.tensor(a, comp.dual(b))
        assert comp.over(a, a) == (0,) * (len(indices) + 1)


class TestTensorDual:
    def test_square_to_constant(self):
        b2 = EllDivisor(-1, {R2: 1})
        assert tensor(b2, b2) == EllDivisor(-1)

    def test_dual_example(self):
        assert dual(EllDivisor(-1, {P7: 6, R5: 1})) == EllDivisor(-1, {P7: 1, R5: 4})

    def test_dual_of_trivial(self):
        assert dual(EllDivisor(0)) == EllDivisor(0)

    def test_combined_display_decomposition(self):
        # with (m, m') = (7, 5): dual(A1) + 2 B1 lands on (-1 + 2P + 3R)
        m, mp, ap = 7, 5, 3
        p, r = MarkedPoint("P", m), MarkedPoint("R", mp)
        a1 = EllDivisor(-1, {p: m - 1, r: 1})
        b1 = EllDivisor(-1, {p: (m + 1) // 2, r: mp - ap})
        got = tensor(dual(a1), tensor(b1, b1))
        assert got == EllDivisor(-1, {p: 2, r: mp - 2})

    def test_points_are_merged_in_label_order(self):
        got = tensor(EllDivisor(1, {R2: 1, P5: 4}), EllDivisor(0, {P5: 3}))
        assert got == EllDivisor(2, {P5: 2, R2: 1})
        assert repr(tensor(EllDivisor(0, {R2: 1}), EllDivisor(0, {P5: 3}))) == (
            "(0 + 3*P[5] + 1*R[2])")

    def test_view_over_script_normal_form(self):
        comp = _Component(("P", "R"), (5, 3))
        nf = (-1, 3, 1)
        d = comp.divisor(nf)
        assert d.nf is nf and d.component is comp
        assert d == EllDivisor(-1, {R3: 1, P5: 3})
        assert hash(d) == hash(EllDivisor(-1, {P5: 3, R3: 1}))
        assert repr(d) == "(-1 + 3*P[5] + 1*R[3])"
        assert tensor(d, d).nf == comp.tensor(nf, nf)
        assert dual(d).nf == comp.dual(nf)
        assert ell_deg(d) * 15 == comp.degree(nf, 15)

    def test_index_mismatch_rejected(self):
        with pytest.raises(ValueError, match="index mismatch"):
            tensor(EllDivisor(0, {P5: 1}), EllDivisor(0, {P7: 1}))


def random_divisor(rng, points):
    return EllDivisor(
        rng.randint(-5, 5), {p: rng.randrange(p.index) for p in points}
    )


class TestDegreeAlgebra:
    def test_trivial(self):
        assert ell_deg(EllDivisor(0)) == 0

    def test_global_sum(self):
        # the degree of a two-component divisor is the sum over its parts
        p, r = MarkedPoint("P", 5), MarkedPoint("R", 3)
        b = (EllDivisor(-1, {p: 3, r: 1}), EllDivisor(-1, {p: 4}))
        assert sum(map(ell_deg, b)) == F(-4, 15)
        a = (EllDivisor(-1, {p: 4, r: 1}), EllDivisor(0, {p: 2}))
        assert sum(map(ell_deg, a)) == F(8, 15)
        assert sum(map(ell_deg, a)) + 2 * sum(map(ell_deg, b)) == 0

    def test_thousand_random_identities(self):
        rng = random.Random(97)
        labels = "PQRST"
        for _ in range(1000):
            points = [
                MarkedPoint(lbl, rng.randint(2, 11))
                for lbl in rng.sample(labels, rng.randint(0, 3))
            ]
            x = random_divisor(rng, points)
            y = random_divisor(rng, points)
            assert ell_deg(tensor(x, y)) == ell_deg(x) + ell_deg(y)
            assert ell_deg(dual(x)) == -ell_deg(x)
            assert dual(dual(x)) == x
            assert _h0(x.c) - _h1(x.c) == x.c + 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**62))
    def test_tensor_associative_commutative(self, seed):
        rng = random.Random(seed)
        points = [MarkedPoint(lbl, rng.randint(2, 9)) for lbl in "PQR"]
        x, y, z = (random_divisor(rng, points) for _ in range(3))
        assert tensor(x, y) == tensor(y, x)
        assert tensor(tensor(x, y), z) == tensor(x, tensor(y, z))


class TestCohomology:
    def test_h1_of_deep_negative(self):
        p3 = MarkedPoint("P", 3)
        assert _h1(EllDivisor(-2, {p3: 2, R2: 1}).c) == 1

    def test_h0_of_degree_zero(self):
        for m in range(3, 12, 2):
            p = MarkedPoint("P", m)
            assert _h0(EllDivisor(0, {p: (m - 1) // 2, R2: 1}).c) == 1

    def test_minus_one_has_no_cohomology(self):
        assert _h0(EllDivisor(-1, {P5: 4}).c) == 0
        assert _h1(EllDivisor(-1, {P5: 4}).c) == 0

    def test_euler_characteristic(self):
        for c in range(-6, 6):
            d = EllDivisor(c, {P5: 3})
            assert _h0(d.c) - _h1(d.c) == c + 1


class TestNodeInvariants:
    def test_zero_weight_generator(self):
        assert node_invariant_dim(1, 0, 2, 5) == 0

    def test_identity_coordinate(self):
        assert node_invariant_dim(0, 1, 2, 5) == 1

    def test_obstruction_residues_vanish(self):
        for m in range(5, 50, 2):
            assert node_invariant_dim((4 - m) % m, (m - 2) % m, 2, m) == 0

    def test_both_slots(self):
        assert node_invariant_dim(0, 0, 2, 3) == 2


class TestGluedCohomology:
    def test_section_on_far_side_survives(self):
        m = 5
        p = MarkedPoint("P", m)
        c1 = EllDivisor(-1, {p: 3, MarkedPoint("Q", 3): 1})
        c2 = EllDivisor(0, {p: 2, R2: 1})
        assert glued_h0(c1, c2, p) == 1

    def test_matching_condition_kills_lone_section(self):
        m = 5
        q = MarkedPoint("Q", 3)
        d = (EllDivisor(0, {q: 1}), EllDivisor(-1, {R2: 1}), MarkedPoint("P", m))
        assert glued_h0(*d) == 0

    def test_non_complementary_weights_refused(self):
        p = MarkedPoint("P", 5)
        with pytest.raises(ValueError, match="complementary"):
            glued_h0(EllDivisor(0, {p: 2}), EllDivisor(0, {p: 2}), p)

    @pytest.mark.parametrize("glued", [glued_h0])
    @pytest.mark.parametrize("side", [0, 1])
    def test_node_index_mismatch_refused(self, glued, side):
        sides = [EllDivisor(0, {P5: 2}), EllDivisor(0, {P5: 3})]
        sides[side] = EllDivisor(0, {P7: 2})
        with pytest.raises(ValueError, match="node 'P' with index 7, expected 5"):
            glued(*sides, P5)

    def test_euler_characteristic_additivity(self):
        # chi(glued) = chi(C1) + chi(C2) - invariant node dimension, where h1
        # of the glued divisor is each side's h1, plus the invariant node
        # fiber unless a side's section matches it
        rng = random.Random(5)
        for _ in range(200):
            m = rng.choice([3, 5, 7])
            p = MarkedPoint("P", m)
            w = rng.randrange(m)
            c1, c2 = rng.randint(-4, 4), rng.randint(-4, 4)
            d = (EllDivisor(c1, {p: w}), EllDivisor(c2, {p: (m - w) % m}), p)
            nu = 1 if w % m == 0 else 0
            matched = nu and (_h0(c1) > 0 or _h0(c2) > 0)
            glued_h1 = _h1(c1) + _h1(c2) + nu - matched
            assert glued_h0(*d) - glued_h1 == (c1 + 1) + (c2 + 1) - nu

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 29), st.integers(-6, 6), st.integers(-6, 6))
    def test_glued_counts_by_sides(self, m, w, c1, c2):
        # h0 of each side, less one matching condition when the node fiber
        # carries invariant sections and a side has sections
        w %= m
        p = MarkedPoint("P", m)
        d = (EllDivisor(c1, {p: w}), EllDivisor(c2, {p: -w % m}), p)
        sides = (EllDivisor(c1), EllDivisor(c2))
        matched = w == 0 and any(_h0(s.c) for s in sides)
        assert glued_h0(*d) == sum(_h0(s.c) for s in sides) - matched


class TestWidthInequality:
    def section_data(self):
        p, r = MarkedPoint("P", 5), MarkedPoint("R", 3)
        a = (EllDivisor(-1, {p: 4, r: 1}), EllDivisor(0, {p: 2}))
        b = (EllDivisor(-1, {p: 3, r: 1}), EllDivisor(-1, {p: 4}))
        return a, b

    def test_zero_value_forces_fiber_case(self):
        a, b = self.section_data()
        res = thm812_check(a, b, 2, kind="unknown")
        assert res.value == 0 and res.verdict == "qcb_forced"

    def test_zero_value_contradicts_birational(self):
        a, b = self.section_data()
        assert thm812_check(a, b, 2, kind="birational").verdict == "contradiction"

    def test_negative_width_three(self):
        a, b = self.section_data()
        res = thm812_check(a, b, 3, kind="cb")
        assert res.verdict == "contradiction"
        assert 3 * res.value == F(-4, 15)  # deg(A) + 3 deg(B), of the same sign
        assert res.value == F(-4, 45)

    def test_positive_value_holds(self):
        p = MarkedPoint("P", 5)
        one = (EllDivisor(1, {p: 0}), EllDivisor(0, {p: 0}))
        zero = (EllDivisor(0, {p: 0}), EllDivisor(0, {p: 0}))
        res = thm812_check(one, zero, 2, kind="birational")
        assert res.value == F(1, 2) and res.verdict == "holds"
