"""Rule engine for the classification table of reducible extremal germs.

The table is data, one entry per row: a component-multiset pattern, the
allowed contraction kinds with their component-count bounds, and the
constraints on the non-Gorenstein points that are expressible from type tags
and index arithmetic.  A descriptor belongs to the first row it matches.
Excluded combinations carry their source citations, as do the rows of the flip
table.

Descriptors are read from a small text format::

    component <type>
    kind f|d|cb
    point index=<m> tag=<string> [ell=<r>]

A line holds the fields shown and no others; only ell= may be left out.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .class_group import NonGorPoint
from .exactlinalg import digit_limit_problem, excerpt


class ComponentType(Enum):
    k1A = "k1A"
    k2A = "k2A"
    cD2 = "cD2"
    cAx2 = "cAx2"
    cE2 = "cE2"
    cD3 = "cD3"
    IIA = "IIA"
    IIdual = "IIdual"
    IEdual = "IEdual"
    IDdual = "IDdual"
    IC = "IC"
    IIB = "IIB"
    kAD = "kAD"
    k3A = "k3A"


class GermKind(Enum):
    FLIPPING = "f"
    DIVISORIAL = "d"
    CB = "cb"


@dataclass(frozen=True)
class GermDescriptor:
    components: tuple[ComponentType, ...]
    kind: GermKind
    points: tuple[NonGorPoint, ...] = ()

    def __post_init__(self):
        if not self.components:
            raise ValueError("descriptor needs at least one component")

    @property
    def n(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Validation:
    accepted: bool
    row: int | None = None
    reason: str = ""
    citation: str = ""
    notes: tuple[str, ...] = ()


# in the order of their sorted type names, which is the order of reporting
_FORBIDDEN: dict[frozenset[ComponentType], str] = {
    frozenset({ComponentType.IC, ComponentType.k2A}): "Theorem 3.2",
    frozenset({ComponentType.IIB, ComponentType.IIdual}): "Lemma 5.4",
    frozenset({ComponentType.k2A, ComponentType.k3A}): "Theorem 4.3",
    frozenset({ComponentType.k2A, ComponentType.kAD}): "Theorem 4.3",
}


_QUOT_TAG = re.compile(r"1/(\d+)\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)\Z")


def parse_quotient_tag(tag: str) -> tuple[int, tuple[int, ...]] | None:
    """Split a tag like ``1/5(2,3,1)`` into order and weights, or None."""
    m = _QUOT_TAG.match(tag.replace(" ", ""))
    if not m:
        return None
    n = int(m.group(1))
    weights = tuple(int(w) for w in m.group(2).split(","))
    return n, weights


PointCheck = Callable[[NonGorPoint], str | None]


def _index_tag(pattern: str, unmatched: str) -> PointCheck:
    """Check that a tag matches ``pattern`` and ends in ``/<the point's index>``;
    ``unmatched`` completes the message for a tag that does not match."""
    def check(pt: NonGorPoint) -> str | None:
        if not re.fullmatch(pattern, pt.type_tag):
            return f"tag {excerpt(pt.type_tag)} {unmatched}"
        if int(pt.type_tag.rsplit("/", 1)[1]) != pt.index:
            return f"tag {excerpt(pt.type_tag)} disagrees with index {pt.index}"
        return None
    return check


def _among(*tags: str) -> PointCheck:
    """Check that a tag is one of ``tags`` and ends in the point's index."""
    return _index_tag("|".join(map(re.escape, tags)), f"not among {tags}")


def _quotient(least: int, shape: str, weights: Callable[[int], tuple[int, ...]]) -> PointCheck:
    """Check that a tag is 1/m(w) with m the point's index and w = weights(m)
    mod m, where m is ``least`` or, for an odd ``least``, any odd order above
    it; ``shape`` names the weights in messages."""
    def check(pt: NonGorPoint) -> str | None:
        parsed = parse_quotient_tag(pt.type_tag)
        if not parsed:
            return f"tag {excerpt(pt.type_tag)} is not a quotient tag"
        m, w = parsed
        if m != pt.index:
            return f"tag order {m} disagrees with index {pt.index}"
        if m != least and not (m > least and m % 2 == least % 2 == 1):
            return f"order must be odd and >= {least}" if least % 2 else f"order must be {least}"
        if len(w) != 3 or tuple(x % m for x in w) != tuple(x % m for x in weights(m)):
            return f"weights {w} do not match {shape}"
        return None
    return check


_HOW_MANY = {1: "one non-Gorenstein point", 2: "two non-Gorenstein points"}


@dataclass(frozen=True)
class TableRow:
    """One row of the classification table.

    A component multiset matches when its types all lie in ``types`` and
    ``lead``, if any, occurs exactly once.  ``kinds`` maps each allowed kind
    to (bound, exact), a bound of None meaning that none is recorded.
    ``points`` holds one check per non-Gorenstein point, or is None when the
    row constrains no point; two checks may meet the two points in either
    order, and ``mismatch`` is the reason when neither order passes.
    """

    number: int
    label: str
    lead: ComponentType | None
    types: set[ComponentType]
    kinds: dict[GermKind, tuple[int | None, bool]]
    points: tuple[PointCheck, ...] | None
    mismatch: str = ""
    notes: tuple[str, ...] = ()

    def matches(self, g: GermDescriptor, present: set[ComponentType]) -> bool:
        """Whether ``g``, whose component types are ``present``, fits the pattern."""
        return present <= self.types and (self.lead is None or g.components.count(self.lead) == 1)

    def rejection(self, g: GermDescriptor) -> str | None:
        """Why ``g``, whose components match, is not in this row, or None."""
        if g.kind not in self.kinds:
            return f"kind {g.kind.value!r} not allowed in row {self.number}"
        bound, exact = self.kinds[g.kind]
        if bound is not None and exact and g.n != bound:
            return (f"row {self.number} with kind {g.kind.value!r} needs exactly "
                    f"{bound} components, got {g.n}")
        if bound is not None and not exact and g.n > bound:
            return f"row {self.number} {g.kind.value} bound {bound} exceeded (N = {g.n})"
        if self.points is None:
            return None
        pts = g.points
        if len(pts) != len(self.points):
            return f"expected exactly {_HOW_MANY[len(self.points)]}"
        if len(pts) == 1:
            return self.points[0](pts[0])
        for order in (pts, pts[::-1]):
            if all(check(pt) is None for check, pt in zip(self.points, order)):
                return None
        return self.mismatch


_T = ComponentType
_F, _D, _CB = GermKind.FLIPPING, GermKind.DIVISORIAL, GermKind.CB
_CB_PAIR = {_CB: (2, True)}
# The component counts of Lemma 5.1, as kind -> (bound, exact).  _BOUNDED:
# clause (4) gives exactly 2 components for a flipping germ, and clause (1) at
# most 4 for a divisorial germ and at most 5 for a conic bundle.  _NON_FLIPPING,
# for rows whose leading component contracts divisorially: clause (3) gives
# exactly 2 for a divisorial germ, and clause (2) at most 3 for a conic bundle.
_BOUNDED = {_F: (2, True), _D: (4, False), _CB: (5, False)}
_NON_FLIPPING = {_D: (2, True), _CB: (3, False)}
_UNBOUNDED = {_F: (None, False), _D: (None, False), _CB: (None, False)}
_CAX4 = _among("cAx/4")
_HALF_SHIFTED = _quotient(3, "(1, -1, (m+1)/2)", lambda m: (1, -1, (m + 1) // 2))

# The first row that matches a descriptor's components is its row, so row 12,
# which also matches a multiset of k1A alone, comes after row 9.  Row 1, the
# germs without non-Gorenstein points, is decided before the table is read.
_ROWS: tuple[TableRow, ...] = (
    TableRow(2, "2 x cAx2", None, {_T.cAx2}, _CB_PAIR, (_among("cAx/2"),)),
    TableRow(2, "2 x cD2", None, {_T.cD2}, _CB_PAIR, (_among("cD/2"),)),
    TableRow(2, "2 x cE2", None, {_T.cE2}, _CB_PAIR, (_among("cE/2"),)),
    TableRow(3, "N x cD3", None, {_T.cD3}, _BOUNDED, (_among("cD/3"),)),
    TableRow(4, "N x IIA", None, {_T.IIA},
             {_F: (4, False), _D: (7, False), _CB: (7, False)}, (_CAX4,)),
    TableRow(5, "2 x IIdual", None, {_T.IIdual}, _CB_PAIR, (_CAX4,)),
    TableRow(6, "IIdual + (N-1) x IIA", _T.IIdual, {_T.IIdual, _T.IIA}, _BOUNDED,
             (_CAX4,)),
    TableRow(7, "IIB + (N-1) x IIA", _T.IIB, {_T.IIB, _T.IIA}, _NON_FLIPPING, (_CAX4,)),
    TableRow(8, "IC + (N-1) x k1A", _T.IC, {_T.IC, _T.k1A}, _BOUNDED,
             (_quotient(5, "(2, m-2, 1)", lambda m: (2, m - 2, 1)),)),
    TableRow(9, "N x k1A", None, {_T.k1A}, _UNBOUNDED,
             (_index_tag(r"cA/\d+", "is not of the cA/m form"),)),
    TableRow(10, "k3A + (N-1) x k1A", _T.k3A, {_T.k3A, _T.k1A}, _NON_FLIPPING,
             (_HALF_SHIFTED, _quotient(2, "(1, 1, 1)", lambda m: (1, 1, 1))),
             "points must be 1/(2k-1)(1,-1,k) and 1/2(1,1,1)",
             notes=("consistent with the table; existence open",)),
    TableRow(11, "kAD + (N-1) x (k1A | cD2 | cAx2)", _T.kAD,
             {_T.kAD, _T.k1A, _T.cD2, _T.cAx2}, _BOUNDED,
             (_HALF_SHIFTED, _among("cA/2", "cAx/2", "cD/2")),
             "points must be 1/(2k-1)(1,-1,k) and one of cA/2, cAx/2, cD/2"),
    TableRow(12, "n x k2A + k x k1A", None, {_T.k2A, _T.k1A}, _UNBOUNDED, None,
             notes=("component count not bounded by the table",)),
)


def validate_against_table(g: GermDescriptor) -> Validation:
    """Match a descriptor against the classification table.

    Excluded pairs are reported first, with their citations; then the first
    table row that the component multiset matches enforces its kind bound and
    point constraints.
    """
    if g.n < 2:
        return Validation(False, None,
                          "the table covers reducible central curves (N >= 2)",
                          "Theorem 1")
    types = set(g.components)
    for pair, cite in _FORBIDDEN.items():
        if pair <= types:
            a, b = sorted(t.value for t in pair)
            return Validation(False, None, f"components {a} and {b} cannot meet", cite)
    if not g.points:
        if g.kind is GermKind.CB and g.n == 2:
            return Validation(
                True, 1, citation="Theorem 1, row 1",
                notes=("no non-Gorenstein points: component types are not "
                       "constrained by the table",),
            )
        return Validation(
            False, 1,
            "a germ with no non-Gorenstein points must be a conic bundle with "
            "two components", "Theorem 1, row 1",
        )
    row = next((r for r in _ROWS if r.matches(g, types)), None)
    if row is None:
        return Validation(False, None,
                          "component multiset matches no table row", "Theorem 1")
    citation = f"Theorem 1, row {row.number}"
    try:
        reason = row.rejection(g)
    except ValueError as err:  # int refuses a tag's run of digits past the digit limit
        problems = [digit_limit_problem("tag", pt.type_tag) for pt in g.points]
        raise ValueError(next(filter(None, problems), err)) from None
    if reason:
        return Validation(False, row.number, reason, citation)
    return Validation(True, row.number, citation=citation, notes=row.notes)


# ---------------------------------------------------------------------------
# flip arithmetic


@dataclass(frozen=True)
class FlipGermData:
    index_x: int
    plus_indices: tuple[int, ...] = ()

    def __post_init__(self):
        if self.index_x < 1:
            raise ValueError("index must be >= 1")
        if any(i < 1 for i in self.plus_indices):
            raise ValueError("indices must be >= 1")

    @property
    def index_plus(self) -> int:
        return lcm(*self.plus_indices) if self.plus_indices else 1


def flip_transfer(data: FlipGermData, k_dot_c: Fraction) -> Fraction:
    """Canonical degree of the flipped curve: index and degree trade places.

    index(X+) (K+ . C+) = -index(X) (K . C), with the flipped index the lcm of
    the point indices on the flipped side.
    """
    k_dot_c = Fraction(k_dot_c)
    if k_dot_c >= 0:
        raise ValueError("flipping needs a negative canonical degree")
    if (data.index_x * k_dot_c).denominator != 1:
        # no value in the message: the caller quotes its inputs, which may be long
        raise ValueError("index times degree must be an integer")
    return Fraction(-data.index_x * k_dot_c, data.index_plus)


@dataclass(frozen=True)
class Table2Row:
    germ_type: str
    source_label: str
    index_x: int
    k_dot_c: Fraction
    k_plus: Fraction
    plus_indices: tuple[int, ...]


# The flip table for germ types beyond the chain kinds.  The rigid (IC) and
# mixed (kAD) rows carry a free odd parameter m >= 5; these are their m = 5 rows.
TABLE2_ROWS = (
    Table2Row("cD3", "A.1.2.1, A.1.2.2", 3, Fraction(-1, 3), Fraction(1, 2), (2,)),
    Table2Row("cD3", "A.1.2.3", 3, Fraction(-1, 3), Fraction(1), ()),
    Table2Row("IIA", "A.2.2.1", 4, Fraction(-1, 4), Fraction(1, 6), (2, 3)),
    Table2Row("IIA", "A.2.2.2-A.2.2.5", 4, Fraction(-1, 4), Fraction(1, 2), (2,)),
    Table2Row("IC", "A.3.2.1", 5, Fraction(-1, 5), Fraction(1, 2), (2,)),
    Table2Row("IC", "A.3.2.2", 5, Fraction(-1, 5), Fraction(1), ()),
    Table2Row("kAD", "A.4.3.2", 10, Fraction(-1, 10), Fraction(1, 2), (2,)),
)


@dataclass(frozen=True)
class Table2Check:
    row: Table2Row
    transferred: Fraction
    unit_pairing: bool  # index * |K.C| = 1
    consistent: bool


@dataclass(frozen=True)
class Table2Report:
    checks: tuple[Table2Check, ...]

    @property
    def all_consistent(self) -> bool:
        return all(c.consistent and c.unit_pairing for c in self.checks)


def check_table2() -> Table2Report:
    """Recompute every flip-table row through flip_transfer and flag mismatches."""
    checks = []
    for row in TABLE2_ROWS:
        data = FlipGermData(row.index_x, row.plus_indices)
        got = flip_transfer(data, row.k_dot_c)
        checks.append(Table2Check(
            row, got,
            unit_pairing=(row.index_x * abs(row.k_dot_c) == 1),
            consistent=(got == row.k_plus),
        ))
    return Table2Report(tuple(checks))


# ---------------------------------------------------------------------------
# descriptor files


class DescriptorError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _int_field(fields: dict[str, str], key: str) -> int:
    try:
        return int(fields[key])
    except ValueError:
        raise ValueError(f"point {key} {excerpt(fields[key])} is not an integer") from None


def parse_descriptor(text: str) -> GermDescriptor:
    components: list[ComponentType] = []
    kind: GermKind | None = None
    points: list[NonGorPoint] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *args = line.split()
        if keyword == "component":
            if len(args) != 1:
                raise DescriptorError("component line needs: component <type>", lineno)
            try:
                components.append(ComponentType(args[0]))
            except ValueError:
                raise DescriptorError(f"unknown component type {excerpt(args[0])}",
                                      lineno) from None
        elif keyword == "kind":
            if len(args) != 1:
                raise DescriptorError("kind line needs: kind f|d|cb", lineno)
            try:
                kind = GermKind(args[0])
            except ValueError:
                raise DescriptorError(f"unknown kind {excerpt(args[0])}", lineno) from None
        elif keyword == "point":
            fields = dict(t.split("=", 1) for t in args if "=" in t)
            if len(fields) != len(args) or not (
                    {"index", "tag"} <= fields.keys() <= {"index", "tag", "ell"}):
                raise DescriptorError(
                    "point line needs: point index=<m> tag=<string> [ell=<r>]", lineno)
            try:
                ell = _int_field(fields, "ell") if "ell" in fields else None
                points.append(NonGorPoint(_int_field(fields, "index"), fields["tag"], ell))
            except ValueError as err:
                raise DescriptorError(digit_limit_problem("point", " ".join(args)) or str(err),
                                      lineno) from None
        else:
            raise DescriptorError(f"unknown keyword {excerpt(keyword)}", lineno)
    if kind is None:
        raise DescriptorError("descriptor needs a kind line")
    return GermDescriptor(tuple(components), kind, tuple(points))
