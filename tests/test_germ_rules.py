from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc import germ_rules
from germcalc.class_group import NonGorPoint
from germcalc.germ_rules import (
    ComponentType as T,
    DescriptorError,
    FlipGermData,
    GermDescriptor,
    GermKind,
    check_table2,
    flip_transfer,
    parse_descriptor,
    parse_quotient_tag,
    validate_against_table,
)

CAX4 = NonGorPoint(4, "cAx/4")


def descr(components, kind, points=()):
    return GermDescriptor(tuple(components), kind, tuple(points))


class TestTable:
    def test_homogeneous_quarter_index_bounds(self):
        seven = descr([T.IIA] * 7, GermKind.CB, [CAX4])
        assert validate_against_table(seven).row == 4
        assert validate_against_table(seven).accepted

        five_flipping = descr([T.IIA] * 5, GermKind.FLIPPING, [CAX4])
        verdict = validate_against_table(five_flipping)
        assert not verdict.accepted
        assert "bound 4" in verdict.reason

        four_flipping = descr([T.IIA] * 4, GermKind.FLIPPING, [CAX4])
        assert validate_against_table(four_flipping).accepted

        eight = descr([T.IIA] * 8, GermKind.CB, [CAX4])
        assert not validate_against_table(eight).accepted

    def test_rigid_row_with_quotient_point(self):
        got = validate_against_table(
            descr([T.IC, T.k1A], GermKind.FLIPPING, [NonGorPoint(5, "1/5(2,3,1)")])
        )
        assert got.accepted and got.row == 8

    def test_rigid_row_rejects_even_order(self):
        got = validate_against_table(
            descr([T.IC, T.k1A], GermKind.FLIPPING, [NonGorPoint(4, "1/4(2,2,1)")])
        )
        assert not got.accepted

    def test_forbidden_pairs_rejected_with_citations(self):
        cases = [
            ([T.IC, T.k2A], "Theorem 3.2"),
            ([T.k2A, T.kAD], "Theorem 4.3"),
            ([T.k2A, T.k3A], "Theorem 4.3"),
            ([T.IIdual, T.IIB], "Lemma 5.4"),
        ]
        # each pair in both orders, and once beside a third component
        cases += [(components[::-1], citation) for components, citation in cases]
        cases += [([T.k1A] + components, citation) for components, citation in cases[:4]]
        for components, citation in cases:
            got = validate_against_table(descr(components, GermKind.DIVISORIAL))
            assert not got.accepted
            assert got.citation == citation

    def test_open_row_notes_existence(self):
        got = validate_against_table(
            descr(
                [T.k3A, T.k1A],
                GermKind.DIVISORIAL,
                [NonGorPoint(5, "1/5(1,-1,3)"), NonGorPoint(2, "1/2(1,1,1)")],
            )
        )
        assert got.accepted and got.row == 10
        assert any("existence open" in n for n in got.notes)

    def test_mixed_chain_row_accepts_tame_companions(self):
        got = validate_against_table(
            descr(
                [T.kAD, T.cD2, T.k1A],
                GermKind.CB,
                [NonGorPoint(7, "1/7(1,6,4)"), NonGorPoint(2, "cD/2")],
            )
        )
        assert got.accepted and got.row == 11

    def test_unbounded_row_has_note(self):
        got = validate_against_table(
            descr([T.k2A, T.k2A, T.k1A] * 4, GermKind.CB,
                  [NonGorPoint(3, "cA/3"), NonGorPoint(5, "cA/5")])
        )
        assert got.accepted and got.row == 12
        assert any("not bounded" in n for n in got.notes)


def P(index, tag):
    return NonGorPoint(index, tag)


HALF = P(2, "1/2(1,1,1)")
SHIFTED = P(5, "1/5(1,-1,3)")
NO_POINTS = "a germ with no non-Gorenstein points must be a conic bundle with two components"
ONE_POINT = "expected exactly one non-Gorenstein point"
TWO_POINTS = "expected exactly two non-Gorenstein points"
ROW10_POINTS = "points must be 1/(2k-1)(1,-1,k) and 1/2(1,1,1)"
ROW11_POINTS = "points must be 1/(2k-1)(1,-1,k) and one of cA/2, cAx/2, cD/2"
FLIP, DIV, CB = GermKind.FLIPPING, GermKind.DIVISORIAL, GermKind.CB

# (components, kind, points) -> (accepted, row, reason, citation): for each row,
# one accepted descriptor and every rejection the row can give
REASONS = [
    ([T.k1A], FLIP, [P(3, "cA/3")],
     (False, None, "the table covers reducible central curves (N >= 2)", "Theorem 1")),
    ([T.IIB, T.IIdual, T.IIA], DIV, [CAX4],
     (False, None, "components IIB and IIdual cannot meet", "Lemma 5.4")),
    ([T.IC, T.IIA], CB, [CAX4], (False, None, "component multiset matches no table row",
                                 "Theorem 1")),
    ([T.IIdual, T.IIdual, T.IIA], CB, [CAX4],
     (False, None, "component multiset matches no table row", "Theorem 1")),
    # row 1: no non-Gorenstein points
    ([T.IC, T.cD3], CB, [], (True, 1, "", "Theorem 1, row 1")),
    ([T.k1A, T.k1A], FLIP, [], (False, 1, NO_POINTS, "Theorem 1, row 1")),
    ([T.k1A] * 3, CB, [], (False, 1, NO_POINTS, "Theorem 1, row 1")),
    # row 2: one entry per homogeneous type
    ([T.cAx2] * 2, CB, [P(2, "cAx/2")], (True, 2, "", "Theorem 1, row 2")),
    ([T.cD2] * 2, CB, [P(2, "cD/2")], (True, 2, "", "Theorem 1, row 2")),
    ([T.cE2] * 2, CB, [P(2, "cE/2")], (True, 2, "", "Theorem 1, row 2")),
    ([T.cAx2] * 2, FLIP, [P(2, "cAx/2")],
     (False, 2, "kind 'f' not allowed in row 2", "Theorem 1, row 2")),
    ([T.cD2] * 3, CB, [P(2, "cD/2")],
     (False, 2, "row 2 with kind 'cb' needs exactly 2 components, got 3", "Theorem 1, row 2")),
    ([T.cE2] * 2, CB, [P(2, "cE/2"), P(2, "cE/2")], (False, 2, ONE_POINT, "Theorem 1, row 2")),
    ([T.cD2] * 2, CB, [P(2, "cAx/2")],
     (False, 2, "tag 'cAx/2' not among ('cD/2',)", "Theorem 1, row 2")),
    ([T.cE2] * 2, CB, [P(3, "cE/2")],
     (False, 2, "tag 'cE/2' disagrees with index 3", "Theorem 1, row 2")),
    # row 3
    ([T.cD3] * 2, FLIP, [P(3, "cD/3")], (True, 3, "", "Theorem 1, row 3")),
    ([T.cD3] * 3, FLIP, [P(3, "cD/3")],
     (False, 3, "row 3 with kind 'f' needs exactly 2 components, got 3", "Theorem 1, row 3")),
    ([T.cD3] * 5, DIV, [P(3, "cD/3")], (False, 3, "row 3 d bound 4 exceeded (N = 5)",
                                      "Theorem 1, row 3")),
    ([T.cD3] * 5, CB, [P(3, "cD/3")], (True, 3, "", "Theorem 1, row 3")),
    ([T.cD3] * 2, FLIP, [P(3, "cD/3"), P(3, "cD/3")], (False, 3, ONE_POINT, "Theorem 1, row 3")),
    ([T.cD3] * 2, FLIP, [P(3, "cA/3")],
     (False, 3, "tag 'cA/3' not among ('cD/3',)", "Theorem 1, row 3")),
    # row 4
    ([T.IIA] * 7, DIV, [CAX4], (True, 4, "", "Theorem 1, row 4")),
    ([T.IIA] * 5, FLIP, [CAX4], (False, 4, "row 4 f bound 4 exceeded (N = 5)", "Theorem 1, row 4")),
    ([T.IIA] * 8, CB, [CAX4], (False, 4, "row 4 cb bound 7 exceeded (N = 8)",
                               "Theorem 1, row 4")),
    ([T.IIA] * 2, CB, [CAX4, CAX4], (False, 4, ONE_POINT, "Theorem 1, row 4")),
    ([T.IIA] * 2, CB, [P(2, "cAx/4")],
     (False, 4, "tag 'cAx/4' disagrees with index 2", "Theorem 1, row 4")),
    # row 5
    ([T.IIdual] * 2, CB, [CAX4], (True, 5, "", "Theorem 1, row 5")),
    ([T.IIdual] * 2, DIV, [CAX4], (False, 5, "kind 'd' not allowed in row 5", "Theorem 1, row 5")),
    ([T.IIdual] * 3, CB, [CAX4],
     (False, 5, "row 5 with kind 'cb' needs exactly 2 components, got 3", "Theorem 1, row 5")),
    ([T.IIdual] * 2, CB, [CAX4, CAX4], (False, 5, ONE_POINT, "Theorem 1, row 5")),
    ([T.IIdual] * 2, CB, [P(4, "cD/4")],
     (False, 5, "tag 'cD/4' not among ('cAx/4',)", "Theorem 1, row 5")),
    # row 6
    ([T.IIA, T.IIdual], FLIP, [CAX4], (True, 6, "", "Theorem 1, row 6")),
    ([T.IIdual, T.IIA, T.IIA], FLIP, [CAX4],
     (False, 6, "row 6 with kind 'f' needs exactly 2 components, got 3", "Theorem 1, row 6")),
    ([T.IIdual] + [T.IIA] * 5, CB, [CAX4],
     (False, 6, "row 6 cb bound 5 exceeded (N = 6)", "Theorem 1, row 6")),
    ([T.IIdual, T.IIA], FLIP, [CAX4, CAX4], (False, 6, ONE_POINT, "Theorem 1, row 6")),
    ([T.IIdual, T.IIA], FLIP, [P(4, "junk")],
     (False, 6, "tag 'junk' not among ('cAx/4',)", "Theorem 1, row 6")),
    # row 7
    ([T.IIB, T.IIA], DIV, [CAX4], (True, 7, "", "Theorem 1, row 7")),
    ([T.IIB, T.IIA], FLIP, [CAX4], (False, 7, "kind 'f' not allowed in row 7", "Theorem 1, row 7")),
    ([T.IIB, T.IIA, T.IIA], DIV, [CAX4],
     (False, 7, "row 7 with kind 'd' needs exactly 2 components, got 3", "Theorem 1, row 7")),
    ([T.IIB] + [T.IIA] * 3, CB, [CAX4],
     (False, 7, "row 7 cb bound 3 exceeded (N = 4)", "Theorem 1, row 7")),
    ([T.IIB, T.IIA], DIV, [CAX4, CAX4], (False, 7, ONE_POINT, "Theorem 1, row 7")),
    ([T.IIB, T.IIA], DIV, [P(3, "cAx/4")],
     (False, 7, "tag 'cAx/4' disagrees with index 3", "Theorem 1, row 7")),
    # row 8
    ([T.k1A, T.IC], FLIP, [P(7, "1/7(2, 5, 1)")], (True, 8, "", "Theorem 1, row 8")),
    ([T.IC, T.k1A, T.k1A], FLIP, [P(5, "1/5(2,3,1)")],
     (False, 8, "row 8 with kind 'f' needs exactly 2 components, got 3", "Theorem 1, row 8")),
    ([T.IC] + [T.k1A] * 4, DIV, [P(5, "1/5(2,3,1)")],
     (False, 8, "row 8 d bound 4 exceeded (N = 5)", "Theorem 1, row 8")),
    ([T.IC, T.k1A], FLIP, [P(5, "1/5(2,3,1)")] * 2, (False, 8, ONE_POINT, "Theorem 1, row 8")),
    ([T.IC, T.k1A], FLIP, [P(5, "cA/5")],
     (False, 8, "tag 'cA/5' is not a quotient tag", "Theorem 1, row 8")),
    ([T.IC, T.k1A], FLIP, [P(7, "1/5(2,3,1)")],
     (False, 8, "tag order 5 disagrees with index 7", "Theorem 1, row 8")),
    ([T.IC, T.k1A], FLIP, [P(4, "1/4(2,2,1)")],
     (False, 8, "order must be odd and >= 5", "Theorem 1, row 8")),
    ([T.IC, T.k1A], FLIP, [P(3, "1/3(2,1,1)")],
     (False, 8, "order must be odd and >= 5", "Theorem 1, row 8")),
    ([T.IC, T.k1A], FLIP, [P(7, "1/7(2,5,2)")],
     (False, 8, "weights (2, 5, 2) do not match (2, m-2, 1)", "Theorem 1, row 8")),
    ([T.IC, T.k1A], FLIP, [P(5, "1/5(2,3)")],
     (False, 8, "weights (2, 3) do not match (2, m-2, 1)", "Theorem 1, row 8")),
    # row 9: no kind is bounded
    ([T.k1A] * 9, FLIP, [P(3, "cA/3")], (True, 9, "", "Theorem 1, row 9")),
    ([T.k1A] * 2, CB, [P(3, "cA/3")] * 2, (False, 9, ONE_POINT, "Theorem 1, row 9")),
    ([T.k1A] * 2, DIV, [CAX4], (False, 9, "tag 'cAx/4' is not of the cA/m form",
                              "Theorem 1, row 9")),
    ([T.k1A] * 2, DIV, [P(3, "cA/5")], (False, 9, "tag 'cA/5' disagrees with index 3",
                                      "Theorem 1, row 9")),
    # row 10: the two points in either order
    ([T.k1A, T.k3A], DIV, [HALF, SHIFTED], (True, 10, "", "Theorem 1, row 10")),
    ([T.k3A, T.k1A], DIV, [SHIFTED, P(2, "1/2(3, 1, -1)")], (True, 10, "", "Theorem 1, row 10")),
    ([T.k3A, T.k1A], FLIP, [SHIFTED, HALF],
     (False, 10, "kind 'f' not allowed in row 10", "Theorem 1, row 10")),
    ([T.k3A, T.k1A, T.k1A], DIV, [SHIFTED, HALF],
     (False, 10, "row 10 with kind 'd' needs exactly 2 components, got 3", "Theorem 1, row 10")),
    ([T.k3A] + [T.k1A] * 3, CB, [SHIFTED, HALF],
     (False, 10, "row 10 cb bound 3 exceeded (N = 4)", "Theorem 1, row 10")),
    ([T.k3A, T.k1A], DIV, [SHIFTED], (False, 10, TWO_POINTS, "Theorem 1, row 10")),
    ([T.k3A, T.k1A], DIV, [SHIFTED, HALF, HALF], (False, 10, TWO_POINTS, "Theorem 1, row 10")),
    ([T.k3A, T.k1A], DIV, [SHIFTED, SHIFTED], (False, 10, ROW10_POINTS, "Theorem 1, row 10")),
    ([T.k3A, T.k1A], DIV, [HALF, HALF], (False, 10, ROW10_POINTS, "Theorem 1, row 10")),
    ([T.k3A, T.k1A], DIV, [SHIFTED, P(4, "1/4(1,1,1)")], (False, 10, ROW10_POINTS,
                                                       "Theorem 1, row 10")),
    ([T.k3A, T.k1A], DIV, [P(5, "1/5(1,4,2)"), HALF], (False, 10, ROW10_POINTS,
                                                    "Theorem 1, row 10")),
    # row 11
    ([T.cAx2, T.kAD, T.k1A, T.cD2], CB, [P(2, "cAx/2"), P(7, "1/7(1,6,4)")],
     (True, 11, "", "Theorem 1, row 11")),
    ([T.kAD, T.k1A, T.k1A], FLIP, [SHIFTED, P(2, "cA/2")],
     (False, 11, "row 11 with kind 'f' needs exactly 2 components, got 3", "Theorem 1, row 11")),
    ([T.kAD] + [T.cD2] * 4, DIV, [SHIFTED, P(2, "cA/2")],
     (False, 11, "row 11 d bound 4 exceeded (N = 5)", "Theorem 1, row 11")),
    ([T.kAD, T.k1A], FLIP, [P(2, "cA/2")], (False, 11, TWO_POINTS, "Theorem 1, row 11")),
    ([T.kAD, T.k1A], FLIP, [SHIFTED, HALF], (False, 11, ROW11_POINTS, "Theorem 1, row 11")),
    ([T.kAD, T.k1A], FLIP, [SHIFTED, P(2, "cE/2")], (False, 11, ROW11_POINTS, "Theorem 1, row 11")),
    # row 12: no kind is bounded and any points pass
    ([T.k2A, T.k1A, T.k2A], DIV, [P(7, "junk")], (True, 12, "", "Theorem 1, row 12")),
    ([T.k2A] * 2, FLIP, [HALF, SHIFTED, CAX4], (True, 12, "", "Theorem 1, row 12")),
    # row 1 again: the two components may have the same type
    ([T.k1A, T.k1A], CB, [], (True, 1, "", "Theorem 1, row 1")),
]


@pytest.mark.parametrize("components, kind, points, want", REASONS)
def test_reason_table(components, kind, points, want):
    got = validate_against_table(descr(components, kind, points))
    assert (got.accepted, got.row, got.reason, got.citation) == want


class TestQuotientTags:
    def test_parse(self):
        assert parse_quotient_tag("1/5(2,3,1)") == (5, (2, 3, 1))
        assert parse_quotient_tag("1/7(1, -1, 4)") == (7, (1, -1, 4))
        assert parse_quotient_tag("cAx/4") is None


class TestFlipTransfer:
    def test_two_point_target(self):
        assert flip_transfer(FlipGermData(4, (2, 3)), F(-1, 4)) == F(1, 6)

    def test_one_point_target(self):
        assert flip_transfer(FlipGermData(3, (2,)), F(-1, 3)) == F(1, 2)

    def test_smooth_target(self):
        assert flip_transfer(FlipGermData(5, ()), F(-1, 5)) == 1

    def test_rejects_nonnegative_degree(self):
        with pytest.raises(ValueError):
            flip_transfer(FlipGermData(5, ()), F(1, 5))

    def test_rejects_non_integral_pairing(self):
        with pytest.raises(ValueError):
            flip_transfer(FlipGermData(5, ()), F(-1, 4))

    def test_denominator_divides_target_index(self, rng):
        for _ in range(300):
            idx = rng.randint(1, 12)
            num = -rng.randint(1, 5)
            value = F(num, idx)
            plus = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 3)))
            data = FlipGermData(idx, plus)
            out = flip_transfer(data, value)
            assert data.index_plus % out.denominator == 0


class TestTable2:
    def test_all_rows_consistent(self):
        report = check_table2()
        assert report.all_consistent
        assert len(report.checks) == 7
        assert {c.transferred for c in report.checks} == {F(1, 2), F(1), F(1, 6)}

    def test_unit_pairing_in_every_row(self):
        for row in germ_rules.TABLE2_ROWS:
            assert row.index_x * abs(row.k_dot_c) == 1

    def test_symbolic_rows_hold_for_larger_orders(self):
        # the rigid (IC) and mixed (kAD) rows at every odd m; the table holds m = 5
        for m in range(5, 50, 2):
            for index, plus, k_plus in ((m, (2,), F(1, 2)), (m, (), F(1)), (2 * m, (2,), F(1, 2))):
                assert flip_transfer(FlipGermData(index, plus), F(-1, index)) == k_plus

    def test_mutated_row_flagged(self, monkeypatch):
        rows = list(germ_rules.TABLE2_ROWS)
        bad = rows[2].__class__(
            rows[2].germ_type, rows[2].source_label, rows[2].index_x,
            rows[2].k_dot_c, F(1, 5), rows[2].plus_indices,
        )
        monkeypatch.setattr(germ_rules, "TABLE2_ROWS", tuple(rows[:2] + [bad] + rows[3:]))
        report = check_table2()
        assert not report.all_consistent
        flagged = [c for c in report.checks if not c.consistent]
        assert len(flagged) == 1 and flagged[0].row.k_plus == F(1, 5)


class TestDescriptorFormat:
    def test_round_trip(self):
        text = (
            "component IIA\ncomponent IIdual\nkind cb\n"
            "point index=4 tag=cAx/4 ell=0\n"
        )
        d = parse_descriptor(text)
        assert d.components == (T.IIA, T.IIdual)
        assert d.kind is GermKind.CB
        assert d.points[0].ell == 0

    def test_unknown_type(self):
        with pytest.raises(DescriptorError, match="line 1"):
            parse_descriptor("component IIX\nkind cb\n")

    def test_missing_kind(self):
        with pytest.raises(DescriptorError, match="kind"):
            parse_descriptor("component IIA\n")

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_fuzzed_text_parses_or_raises_value_error(self, data):
        # a well-formed descriptor, then up to two lines drawn from a small alphabet
        types = st.sampled_from(["IIA", "k1A", "IC", "cD3"])
        lines = [f"component {t}" for t in data.draw(st.lists(types, max_size=3))]
        lines.append(f"kind {data.draw(st.sampled_from(['f', 'd', 'cb']))}")
        lines += [f"point index={m} tag=cA/{m}" for m in data.draw(st.lists(st.integers(2, 5),
                                                                           max_size=2))]
        keyword = st.sampled_from(["component", "kind", "point", "comp", "#", ""])
        tokens = st.sampled_from(["IIA", "IIX", "f", "x", "index=3", "index=1", "index=x",
                                  "tag=cA/3", "tag=", "ell=0", "ell=-1", "ell=x", "foo=1", "#"])
        for _ in range(data.draw(st.integers(0, 2))):
            lines.insert(data.draw(st.integers(0, len(lines))), " ".join(
                [data.draw(keyword), *data.draw(st.lists(tokens, max_size=4))]))
        try:
            got = parse_descriptor("\n".join(lines))
        except ValueError:  # DescriptorError included
            return
        assert isinstance(got, GermDescriptor)
