"""Exact arithmetic of orbifold line bundles on trees of rational curves.

A divisor here is a normal form (c + sum w_P P) on a single rational
component: an integer part c and one integer weight 0 <= w_P < m_P per marked
point of index m_P.  Tensor products add weights and carry overflow into c,
duals negate and renormalise.  The fractional degree is c + sum w_P / m_P;
on the underlying rational curve the sheaf has degree c, so section counts
are h0 = max(0, c + 1) and h1 = max(0, -c - 1).

A divisor on two components glued at one marked point is given by its two
sides, one EllDivisor per component.  Its cohomology is only computed for the
length-1 gluing pattern, through the restriction sequence to the node; the
length-2 pattern is handled by counting invariant node sections with
explicitly supplied residues, never inferred.

On top of the algebra sit two scripted impossibility runs.  Both follow the
width-d degree test: when a curve neighbourhood carries a filtration that is
monomializable of width d, the graded degrees must satisfy
deg(B) + deg(A)/d >= 0, strictly for birational contractions.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import count
from math import gcd, lcm
from operator import add, sub


def _exact_int(value, what: str) -> int:
    """``value`` if it is an int and not a bool, else a ValueError naming it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class MarkedPoint:
    label: str
    index: int

    def __post_init__(self):
        if _exact_int(self.index, "marked point index") < 2:
            raise ValueError("marked point index must be >= 2")


def _carry(c: int, raw, indices) -> tuple[int, ...]:
    """Normal form (c', w_1, ..., w_k) of c + sum raw_i P_i, where P_i has
    index indices[i]: each weight is reduced into [0, index) and the overflow
    is carried into the integer part.

    ``_Component.tensor`` and ``.over`` reduce a two-point form themselves.
    """
    weights = []
    for w, n in zip(raw, indices):
        q, r = divmod(w, n)
        c += q
        weights.append(r)
    return (c, *weights)


class _Component:
    """The marked points of one component, in label order.

    A divisor on it is the int tuple (c, w_1, ..., w_k) of its normal form,
    with the weights in the order of the points.  The scripts resolve their
    components once per run and compute on these tuples; an EllDivisor is a
    view of one tuple on its component.
    """

    __slots__ = ("labels", "indices")

    def __init__(self, labels: tuple[str, ...], indices: tuple[int, ...]):
        self.labels = labels
        self.indices = indices

    # the scripts compute on one- and two-point components: tensor, over and
    # degree spell out one and two points; other widths take _carry's loop and
    # the generic sum

    def tensor(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        if len(a) == 3:
            (c, w1, w2), (d, v1, v2), (n1, n2) = a, b, self.indices
            w1 += v1
            w2 += v2
            return (c + d + w1 // n1 + w2 // n2, w1 % n1, w2 % n2)
        if len(a) == 2:
            (c, w), (d, v), (n,) = a, b, self.indices
            w += v
            return (c + d + w // n, w % n)
        return _carry(a[0] + b[0], map(add, a[1:], b[1:]), self.indices)

    def dual(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return self.over((0,) * len(a), a)

    def over(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """a * dual(b) in one reduction: the normal form of a - b."""
        if len(a) == 3:
            (c, w1, w2), (d, v1, v2), (n1, n2) = a, b, self.indices
            w1 -= v1
            w2 -= v2
            return (c - d + w1 // n1 + w2 // n2, w1 % n1, w2 % n2)
        if len(a) == 2:
            (c, w), (d, v), (n,) = a, b, self.indices
            w -= v
            return (c - d + w // n, w % n)
        return _carry(a[0] - b[0], map(sub, a[1:], b[1:]), self.indices)

    def degree(self, a: tuple[int, ...], den: int) -> int:
        """den * ell_deg(a), for a den divisible by every index."""
        if len(a) == 3:
            (c, w1, w2), (n1, n2) = a, self.indices
            return c * den + w1 * (den // n1) + w2 * (den // n2)
        if len(a) == 2:
            return a[0] * den + a[1] * (den // self.indices[0])
        return a[0] * den + sum(w * (den // n) for w, n in zip(a[1:], self.indices))

    def union(self, other: _Component) -> _Component:
        """The component carrying the points of both, in label order."""
        points = dict(zip(self.labels, self.indices))
        for label, n in zip(other.labels, other.indices):
            if points.setdefault(label, n) != n:
                raise ValueError(f"index mismatch at point {label!r}: {points[label]} vs {n}")
        labels = tuple(sorted(points))
        return _Component(labels, tuple([points[label] for label in labels]))

    def divisor(self, a: tuple[int, ...]) -> EllDivisor:
        """The EllDivisor view of ``a``."""
        div = object.__new__(EllDivisor)
        object.__setattr__(div, "component", self)
        object.__setattr__(div, "nf", a)
        return div


def _on_component(weights: dict[MarkedPoint, int]) -> tuple[_Component, list]:
    """The component of the points of ``weights`` and their weights, in
    label order."""
    points = sorted(weights, key=lambda p: p.label)
    labels = tuple([p.label for p in points])
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate point labels on one component")
    return _Component(labels, tuple([p.index for p in points])), [weights[p] for p in points]


class EllDivisor:
    """Normal form c + sum w_P P on one component; immutable.

    A view of the int tuple ``nf`` = (c, w_1, ..., w_k) that the scripts
    compute on, over ``component``, whose points are in label order.
    """

    __slots__ = ("component", "nf")

    def __init__(self, c: int, weights: dict[MarkedPoint, int] | None = None):
        weights = dict(weights or {})
        comp, ws = _on_component(weights)
        c = _exact_int(c, "integer part c")
        for p, w in weights.items():
            if not 0 <= _exact_int(w, f"weight at {p.label}") < p.index:
                raise ValueError(f"weight {w} at {p.label} outside [0, {p.index})")
        object.__setattr__(self, "component", comp)
        object.__setattr__(self, "nf", (c, *ws))

    def __setattr__(self, *_):
        raise AttributeError("EllDivisor is immutable")

    @property
    def c(self) -> int:
        return self.nf[0]

    def weight(self, label: str) -> int:
        labels = self.component.labels
        return self.nf[1 + labels.index(label)] if label in labels else 0

    def _terms(self):
        return zip(self.component.labels, self.component.indices, self.nf[1:])

    def _live(self) -> tuple[tuple[str, int, int], ...]:
        return tuple([t for t in self._terms() if t[2]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EllDivisor):
            return NotImplemented
        return self.c == other.c and self._live() == other._live()

    def __hash__(self):
        return hash((self.c, self._live()))

    def __repr__(self):
        parts = [str(self.c)] + [f"{w}*{label}[{n}]" for label, n, w in self._terms()]
        return f"({' + '.join(parts)})"


def normalize(c: int, raw: dict[MarkedPoint, int]) -> EllDivisor:
    """Reduce raw integer weights mod the point indices, carrying into c."""
    c = _exact_int(c, "integer part c")
    for p, w in raw.items():
        _exact_int(w, f"weight at {p.label}")
    comp, weights = _on_component(raw)
    return comp.divisor(_carry(c, weights, comp.indices))


def tensor(a: EllDivisor, b: EllDivisor) -> EllDivisor:
    comp = a.component.union(b.component)
    a_nf, b_nf = ((d.c, *[d.weight(label) for label in comp.labels]) for d in (a, b))
    return comp.divisor(comp.tensor(a_nf, b_nf))


def dual(a: EllDivisor) -> EllDivisor:
    return a.component.divisor(a.component.dual(a.nf))


def ell_deg(div: EllDivisor) -> Fraction:
    den = lcm(*div.component.indices)
    return Fraction(div.component.degree(div.nf, den), den)


def _h0(c: int) -> int:
    return c + 1 if c >= 0 else 0


def _h1(c: int) -> int:
    return -c - 1 if c < -1 else 0


def node_invariant_dim(g: int, t: int, lam: int, m: int) -> int:
    """Invariant sections over a length-lam node scheme.

    Counts j in [0, lam) with g + j t = 0 mod m, where g is the residue of the
    local generator and t the residue of the node coordinate.
    """
    if m < 2 or lam < 1:
        raise ValueError("need m >= 2 and lam >= 1")
    return sum(1 for j in range(lam) if (g + j * t) % m == 0)


def glued_h0(d1: EllDivisor, d2: EllDivisor, node: MarkedPoint) -> int:
    """Sections of the divisor with sides d1 and d2, glued at a length-1 node."""
    return _sections(_node_side(d1, node), _node_side(d2, node), node.index)


def _sections(x: tuple, y: tuple, index: int) -> int:
    """h0 of the divisor with parts x = (c1, w1, ...) on C1 and y = (c2, w2, ...)
    on C2, glued at a length-1 node of ``index`` whose weights are w1 and w2.

    Each side alone has h0 = max(0, c + 1).  When the node fiber carries
    invariant sections, a nonzero section on either side evaluates nonzero
    there, imposing one matching condition.
    """
    invariant = _node_invariant(x[1], y[1], index)
    total = _h0(x[0]) + _h0(y[0])
    return total - 1 if invariant and total else total


def _node_invariant(w1: int, w2: int, index: int) -> bool:
    """Whether the node fiber carries invariant sections, from the node
    weights on the two sides, which must be complementary mod the index."""
    if (w1 + w2) % index:
        raise ValueError(f"node weights {w1} + {w2} are not complementary mod {index}")
    return w1 % index == 0


def _node_side(div: EllDivisor, node: MarkedPoint) -> tuple[int, int]:
    """(c, node weight) of one side of a divisor glued at ``node``."""
    index = dict(zip(div.component.labels, div.component.indices)).get(node.label)
    if index not in (None, node.index):
        raise ValueError(f"a side carries the node {node.label!r} with index {index}, "
                         f"expected {node.index}")
    return div.c, div.weight(node.label)


# ---------------------------------------------------------------------------
# width-d degree test


@dataclass(frozen=True)
class WidthTestResult:
    value: Fraction  # deg(B) + deg(A)/d
    verdict: str  # "holds" | "contradiction" | "qcb_forced"


def thm812_check(
    a: Sequence[EllDivisor],
    b: Sequence[EllDivisor],
    d: int,
    kind: str = "unknown",
) -> WidthTestResult:
    """Evaluate the width-d inequality deg(B) + deg(A)/d >= 0, where A and B
    are given by their parts, one per component.

    A negative value contradicts the existence of the contraction; a zero
    value contradicts a birational one and otherwise forces the fiber-over-
    surface case.  ``kind`` is "birational", "cb" or "unknown".
    """
    if d < 2:
        raise ValueError("width must be >= 2")
    if kind not in ("birational", "cb", "unknown"):
        raise ValueError(f"unknown contraction kind {kind!r}")
    value = sum(map(ell_deg, b), Fraction(0)) + sum(map(ell_deg, a), Fraction(0)) / d
    return WidthTestResult(value, _width_verdict(value, kind))


def _width_verdict(value, kind: str) -> str:
    """Verdict of the width test from its value, or from anything of the
    same sign."""
    if value < 0:
        return "contradiction"
    if value == 0:
        return "contradiction" if kind == "birational" else (
            "qcb_forced" if kind == "unknown" else "holds"
        )
    return "holds"


# ---------------------------------------------------------------------------
# scripted impossibility runs


@dataclass(frozen=True)
class TraceStep:
    name: str
    value: Fraction | None
    verdict: str  # "holds" | "forces_cb" | "contradiction"
    note: str = ""


@dataclass(frozen=True)
class DisproofTrace:
    """The outcome of a scripted run: its steps, or why it was rejected."""

    script: str
    inputs: tuple[int, ...]
    status: str  # "contradiction" | "rejected"
    steps: tuple[TraceStep, ...] = ()
    rejection: str = ""
    rejection_value: Fraction | None = None

    def render(self) -> list[str]:
        header = f"{self.script} inputs {self.inputs}: {self.status}"
        if self.status == "rejected":
            detail = self.rejection
            if self.rejection_value is not None:
                detail += f" (value {self.rejection_value})"
            return [header, f"  rejected: {detail}"]
        lines = [header]
        for s in self.steps:
            val = "" if s.value is None else f" = {s.value}"
            note = f"  [{s.note}]" if s.note else ""
            lines.append(f"  {s.name}{val} -> {s.verdict}{note}")
        return lines


class ScriptCheckError(AssertionError):
    """An internal consistency check of a scripted run failed at ``step``."""

    def __init__(self, step: str, message: str):
        super().__init__(message)
        self.step = step


def _check(ok: bool, step: str, message: str) -> None:
    if not ok:
        raise ScriptCheckError(step, message)


def _expect(step: str, label: str, comp: _Component, got: tuple, want: tuple) -> None:
    if got != want:
        raise ScriptCheckError(
            step, f"{label}: computed {comp.divisor(got)!r}, expected {comp.divisor(want)!r}"
        )


def _chain_point_rejection(m_prime: int, a_prime: int):
    if m_prime < 3:
        return "m' must be >= 3", None
    if not 0 < a_prime < m_prime:
        return "need 0 < a' < m'", None
    if gcd(a_prime, m_prime) != 1:
        return "need gcd(a', m') = 1", None
    return None


@dataclass(frozen=True)
class SweepSummary:
    script: str
    total: int
    survivors: int  # tuples whose trace reaches the script's final step
    all_contradicted: bool  # false as well when no tuple is admitted
    failures: int = 0
    failure: str = ""  # on failure: the count and the first failing tuple and step
    # step name -> the number of tuples whose records end at that step
    ends: dict[str, int] = field(default_factory=dict, hash=False)

    def verdict(self) -> str:
        return "all contradicted" if self.all_contradicted else f"FAILURE: {self.failure}"


def _raised(err: Exception) -> str:
    step = getattr(err, "step", None)
    return f"at {step}: {err}" if step else f"raised {type(err).__name__}: {err}"


@dataclass(frozen=True)
class Script:
    """A scripted run as data: its admissibility rule and its stages.

    The rule: ``index_rule(m)``, the chain-point rule on (m', a'), and a' at
    least ``min_a_prime(m, m')``, else ``a_prime_rejection``.  Each stage runs
    the checks that read its parameters and hands its forms down: ``m_stage(m)``
    returns (head, tail, forms), the records before and after the tuple's own;
    ``m_prime_stage(m')`` the forms of m', and ``point_stage(m', a', those
    forms)`` those of the chain point (m', a'); ``pair_stage(m, m', m forms)``
    those of (m, m'); and ``tuple_stage(m, m', a', pair forms + point forms)``
    the tuple's own records.  A record is (name, num, den, verdict, note),
    valued num/den or None, its note a string or a (format, component, normal
    form) that formats the EllDivisor view.

    ``cells(m, m', a_primes, start)`` splits the pair's a', ``a_primes[start:]``,
    into runs (lo, hi, end) of ``a_primes[lo:hi]``.  A declared run's end is the
    (step, verdict) at which its tuples end, a contradiction at a step other than
    ``final_step``, resting on checks of the stages above.  A run whose end is
    None leaves it to the records, head + own + tail, which must end in a
    contradiction at ``final_step``: on the m stage's tail when it has one, so
    a script with a tail keeps its tuple stage to joining records.
    """

    name: str
    index_rule: Callable[[int], bool]
    index_reason: str
    min_a_prime: Callable[[int, int], int]
    a_prime_rejection: Callable[[int, int, int], tuple]
    m_stage: Callable[[int], tuple]
    m_prime_stage: Callable[[int], tuple]
    point_stage: Callable[[int, int, tuple], tuple]
    pair_stage: Callable[[int, int, tuple], tuple]
    tuple_stage: Callable[[int, int, int, tuple], tuple]
    cells: Callable[[int, int, list, int], tuple]
    final_step: str

    def rejection(self, m: int, m_prime: int, a_prime: int):
        """Why the run rejects (m, m', a'); None for an admissible tuple."""
        if not self.index_rule(m):
            return self.index_reason, None
        rejection = _chain_point_rejection(m_prime, a_prime)
        if rejection is None and a_prime < self.min_a_prime(m, m_prime):
            return self.a_prime_rejection(m, m_prime, a_prime)
        return rejection

    def disproof(self, m: int, m_prime: int, a_prime: int) -> DisproofTrace:
        """The trace on one tuple: every stage in turn, or its rejection."""
        inputs = (m, m_prime, a_prime)
        rejection = self.rejection(*inputs)
        if rejection is not None:
            return DisproofTrace(self.name, inputs, "rejected", (), *rejection)
        head, tail, forms = self.m_stage(m)
        forms = self.pair_stage(m, m_prime, forms) + self.point_stage(
            m_prime, a_prime, self.m_prime_stage(m_prime))
        own = self.tuple_stage(m, m_prime, a_prime, forms)
        return DisproofTrace(self.name, inputs, "contradiction", tuple([
            TraceStep(name, None if num is None else Fraction(num, den), verdict,
                      note if isinstance(note, str) else note[0].format(note[1].divisor(note[2])))
            for name, num, den, verdict, note in (*head, *own, *tail)
        ]))

    def levels(self, sweep_max: int):
        """The admissible tuples with m, m' <= sweep_max as (m, [(m', a's, start),
        ...]), ascending, the a' of (m, m') being a's[start:], none empty: one a'
        list per m', judged once and shared by every m, bisected at each m's bound."""
        ms = [m for m in range(1, sweep_max + 1) if self.index_rule(m)]
        if not ms:
            return
        a_primes = [[a for a in range(min(self.min_a_prime(m, m_prime) for m in ms), m_prime)
                     if _chain_point_rejection(m_prime, a) is None]
                    for m_prime in range(1, sweep_max + 1)]
        for m in ms:
            pairs = [(m_prime, admitted, start) for m_prime, admitted in enumerate(a_primes, 1)
                     if (start := bisect_left(admitted, self.min_a_prime(m, m_prime)))
                     < len(admitted)]
            if pairs:
                yield m, pairs

    def _chain_points(self, m_prime: int, a_primes: list) -> tuple[list, dict]:
        """Each chain point's forms, by the m' stage and then the point stage, and
        {index: problem} of the chain points that raised."""
        points, raises = [], {}
        try:
            m_prime_forms = self.m_prime_stage(m_prime)
        except (AssertionError, ValueError) as err:
            return points, dict.fromkeys(range(len(a_primes)), _raised(err))
        for i, a_prime in enumerate(a_primes):
            try:
                points.append(self.point_stage(m_prime, a_prime, m_prime_forms))
            except (AssertionError, ValueError) as err:
                points.append(())
                raises[i] = _raised(err)
        return points, raises

    def sweep(self, sweep_max: int = 49) -> SweepSummary:
        """Every admissible tuple up to the cap, each stage run once per value of what
        it reads and the tuple stage only in cells whose end its records give.  A
        raise fails the tuples under its stage, a wrong end those that end there."""
        final, total, ends, failed, chains = self.final_step, 0, Counter(), [], {}

        def tally(tuples, first, step, verdict, on_records):
            ends[step] += tuples
            if verdict != "contradiction" or (step == final) != on_records:
                failed.append((tuples, first, f"ends {verdict} at {step}"))

        for m, pairs in self.levels(sweep_max):
            total += sum(len(admitted) - start for _, admitted, start in pairs)
            try:
                head, tail, m_forms = self.m_stage(m)
            except (AssertionError, ValueError) as err:  # failed: (tuples, first, problem)
                failed.extend((len(admitted) - start, (m, m_prime, admitted[start]), _raised(err))
                              for m_prime, admitted, start in pairs)
                continue
            tail_end = (tail[-1][0], tail[-1][3]) if tail else None
            for m_prime, admitted, start in pairs:
                points, raises = chains.get(m_prime) or chains.setdefault(  # for this sweep
                    m_prime, self._chain_points(m_prime, admitted))
                try:
                    forms = self.pair_stage(m, m_prime, m_forms)
                except (AssertionError, ValueError) as err:
                    failed.append((len(admitted) - start, (m, m_prime, admitted[start]),
                                   _raised(err)))
                    continue
                if raises:
                    failed.extend((1, (m, m_prime, admitted[i]), problem)
                                  for i, problem in raises.items() if i >= start)
                for lo, hi, end in self.cells(m, m_prime, admitted, start):
                    live = range(lo, hi)
                    live = [i for i in live if i not in raises] if raises else live
                    if end is None and tail_end is None:
                        for i in live:
                            first = (m, m_prime, admitted[i])
                            try:
                                records = self.tuple_stage(*first, forms + points[i]) or head
                            except (AssertionError, ValueError) as err:
                                failed.append((1, first, _raised(err)))
                                continue
                            if records:
                                tally(1, first, records[-1][0], records[-1][3], True)
                            else:
                                failed.append((1, first, "returned no records"))
                    elif live:
                        tally(len(live), (m, m_prime, admitted[live[0]]), *(end or tail_end),
                              end is None)
        failures = sum(tuples for tuples, _, _ in failed)
        failure = "no admissible tuples" if total == 0 else ""
        if failed:
            _, first, problem = min(failed, key=lambda f: f[1])
            failure = f"{failures} of {total} failed, first {first} {problem}"
        return SweepSummary(self.name, total, ends[final], not failure, failures, failure,
                            dict(sorted(ends.items())))


def _odd_from_5(m: int) -> bool:
    return m >= 5 and m % 2 == 1


def _ic_min_a_prime(m: int, m_prime: int) -> int:
    """The least a' that makes the k-negativity value (m+1)/(2m) - a'/m' < 0."""
    return (m + 1) * m_prime // (2 * m) + 1


def _ic_a_prime_rejection(m: int, m_prime: int, a_prime: int):
    return "K-negativity fails", Fraction(m + 1, 2 * m) - Fraction(a_prime, m_prime)


def _no_forms(*_) -> tuple:
    """A stage with no checks: ic reads nothing of m' or of (m', a') alone."""
    return ()


def _ic_m_stage(m: int) -> tuple:
    """No records; (C2, deg(A2) and deg(B2) as numerators over m, B2^2*dual(A2),
    C2's splitting obstruction, and the invariant node sections of the gluing)."""
    c2 = _Component(("P",), (m,))
    a2, b2 = (0, 2), (-1, m - 1)
    # node residues for the length-2 gluing, pinned from the weight tables:
    # the A-generator matches the node coordinate weight m-2, so the
    # obstruction generator sits at -(m-2) + 2*1 = 4 - m.
    nid = node_invariant_dim((4 - m) % m, (m - 2) % m, 2, m)
    return (), (), (c2, c2.degree(a2, m), c2.degree(b2, m), c2.over(c2.tensor(b2, b2), a2),
                    nid)


def _ic_pair_stage(m: int, m_prime: int, m_forms: tuple) -> tuple:
    """The forms that do not involve a': (C1, C2, A1, (m+1)/2, den, deg(A),
    C2's share of deg(B), the C2 obstruction, the node sections), the degrees
    as numerators over den = mm'.  Checks the width-2 degree of every a' of
    the pair."""
    c2, deg_a2, deg_b2, obstruction2, nid = m_forms
    # C1 carries the node P and R, C2 carries P; the gluing has length 2
    c1 = _Component(("P", "R"), (m, m_prime))
    a1 = (-1, m - 1, 1)
    den = m * m_prime
    # C2 carries P alone, so its degrees over den are m' times those over m
    forms = (c1, c2, a1, (m + 1) // 2, den, c1.degree(a1, den) + deg_a2 * m_prime,
             deg_b2 * m_prime, obstruction2, nid)
    # only B1's weight m'-a' at R reads a', and a degree is linear in each
    # weight, so both sides of the width-2 identity are affine in a': equal at
    # the pair's least and greatest a', they are equal at every a' between
    _ic_width2(m_prime, _ic_min_a_prime(m, m_prime), forms)
    _ic_width2(m_prime, m_prime - 1, forms)
    return forms


def _ic_width2(m_prime: int, a_prime: int, forms: tuple) -> tuple[int, int]:
    """deg(B) and the width-2 degree 2*deg(B) + deg(A) of a' on the pair of
    ``forms``, as numerators over den, the latter checked to be (m'+1-2a')/m'."""
    c1, _, _, up, den, deg_a, deg_b2, _, _ = forms
    deg_b = c1.degree((-1, up, m_prime - a_prime), den) + deg_b2
    width2 = 2 * deg_b + deg_a
    paper = m_prime + 1 - 2 * a_prime  # over m'
    if width2 * m_prime != paper * den:
        raise ScriptCheckError("width-2-degree", f"width-2 degree {Fraction(width2, den)} "
                               f"!= {Fraction(paper, m_prime)} at a' = {a_prime}")
    return deg_b, width2


def _ic_cells(m: int, m_prime: int, a_primes: list, start: int) -> tuple:
    """The forced a' = (m'+1)/2, a cell of its own on the records when m > m' and
    m' is odd, and then its pair's least a': K-negativity holds at (m'+1)/2
    exactly when m > m', and fails at (m'-1)/2.  Every other a' has 2a' > m'+1,
    so the width-2 degree (m'+1-2a')/m' that the pair stage checked is negative."""
    cut = start + (m > m_prime and m_prime % 2)
    return (start, cut, None), (cut, len(a_primes), ("width-2-degree", "contradiction"))


def _ic_steps(m: int, m_prime: int, a_prime: int, forms: tuple) -> tuple[tuple, ...]:
    """The records of ic on an admissible tuple, all of which are its own."""
    c1, c2, a1, up, den, deg_a, _, obstruction2, nid = forms
    # the width-d degree d*deg(B) + deg(A) has the sign of the width-d test
    deg_b, width2 = _ic_width2(m_prime, a_prime, forms)  # numerators over den
    k_negativity = ("k-negativity", (m + 1) * m_prime - 2 * m * a_prime, 2 * den, "holds", "")
    deg_a_record = ("deg-A", deg_a, den, "holds", "")
    deg_b_record = ("deg-B", deg_b, den, "holds", "")

    if _width_verdict(width2, "unknown") == "contradiction":
        return (k_negativity, deg_a_record, deg_b_record,
                ("width-2-degree", width2, den, "contradiction", "negative width-2 degree"))
    steps = [k_negativity, deg_a_record, deg_b_record,
             ("width-2-degree", width2, den, "forces_cb",
              "zero degree rules out the birational cases")]

    _check(2 * a_prime == m_prime + 1 and m > m_prime, "forced-equality",
           "forced parameter equality failed")
    steps.append(("forced-equality", None, 1, "holds", "2a' = m'+1 and m > m'"))

    step = "split-obstruction-h1"
    b1 = (-1, up, m_prime - a_prime)
    obstruction1 = c1.over(c1.tensor(b1, b1), a1)
    _expect(step, "obstruction on C1", c1, obstruction1, (-1, 2, m_prime - 2))
    _expect(step, "obstruction on C2", c2, obstruction2, (-1, m - 4))
    for name, obstruction in (("C1", obstruction1), ("C2", obstruction2)):
        if _h1(obstruction[0]):
            raise ScriptCheckError(step, f"splitting obstruction does not vanish on {name}")
    steps.append((step, 0, 1, "holds", "both component obstructions have h1 = 0"))

    _check(nid == 0, "node-invariants", "node invariants unexpectedly nonzero")
    steps.append(("node-invariants", nid, 1, "holds",
                  "no invariant node sections: the extension splits"))

    # width 3 must give -(m+m')/(2mm'), which over den = mm' is -(m+m')/2,
    # and equal deg(B)
    width3 = 3 * deg_b + deg_a
    _check(2 * width3 == -(m + m_prime) and width3 == deg_b, "width-3-degree",
           "width-3 degree mismatch")
    steps.append(("width-3-degree", width3, den, "contradiction", "width-3 inequality fails"))
    return tuple(steps)


def _kad_min_a_prime(m: int, m_prime: int) -> int:
    """The least a' with m' - a' < m'/2, whatever m."""
    return m_prime // 2 + 1


def _kad_a_prime_rejection(m: int, m_prime: int, a_prime: int):
    return f"m'-a' = {m_prime - a_prime} >= m'/2", Fraction(m_prime - a_prime)


# C1 carries the node P (index m) and the chain point Q (index m'); A1 = (-1,
# (m+1)/2, m'-a') and B1 = (0, 0, 1).  Each of its forms below has the integer
# part c0 + carry_P + carry_Q, where c0 is its entry here and each carry comes
# from one point alone, so the forms are computed and pinned one point at a time
_C1_FORMS = (("degree-table", "B1^2", 0), ("degree-table", "A1^2", -2),
             ("degree-table", "A1*B1", -1), ("split-check-c1", "B1^2/A1", 1),
             ("split-check-thickening", "E1*B1/D1", -1))
# the carries at P that the m stage pins, which the point stage's h1 values read
_C1_CARRIES_P = (0, 1, 0, -1, 0)


def _c1_side(comp: _Component, a1: tuple, b1: tuple, b1b1: tuple, split: bool) -> tuple:
    """One point's side of C1's forms: B1^2, given as ``b1b1``, A1^2 and A1*B1,
    and with ``split`` B1^2/A1 and E1*B1/D1 (E1 = A1, D1 = B1^2), on the
    one-point component of that point, from that point's weights of A1 and B1."""
    a1a1, a1b1 = comp.tensor(a1, a1), comp.tensor(a1, b1)
    if not split:
        return b1b1, a1a1, a1b1
    return b1b1, a1a1, a1b1, comp.over(b1b1, a1), comp.over(a1b1, b1b1)


def _c1_whole(i: int, p: tuple, q: tuple) -> tuple:
    """Form ``i`` of _C1_FORMS on C1, from its sides ``p`` and ``q``."""
    return (_C1_FORMS[i][2] + p[0] + q[0], p[1], q[1])


def _pin_side(comp: _Component, sides: tuple, want: tuple) -> None:
    """Pin the forms of _C1_FORMS, ``sides``, to ``want``."""
    for (step, name, _), got, nf in zip(_C1_FORMS, sides, want):
        _expect(step, name, comp, got, nf)


def _kad_m_stage(subcase: str, m: int) -> tuple:
    """The checks that read m and the subcase alone: C2's pinned forms, the P
    side of C1's, the canonical and vanishing checks, kad's key twist and
    every section count, which reads only (c, node weight) of each side, fixed
    on C1 by the build of A1 and the pins.  kad's records are split around the
    two split checks, which k3a lacks, so k3a's are all tail; kad's forms are
    the P side of B1^2/A1, which the split-check note joins."""
    c2 = _Component(("P", "R"), (m, 2))
    up, down = (m + 1) // 2, (m - 1) // 2
    # graded-sheaf normal forms; om2 is the canonical restriction
    a2 = (0 if subcase == "kad" else -1, down, 1)
    b2 = (-1, 0, 1)
    om2 = (-1, down, 1)
    a2a2, a2b2, b2b2 = c2.tensor(a2, a2), c2.tensor(a2, b2), c2.tensor(b2, b2)
    # (c, node weight) on C1 of A1, A1^2 and A1*B1, and of B1 and B1^2
    a1, a1a1, a1b1, b1 = (-1, up), (-1, 1), (-1, up), (0, 0)

    step = "degree-table"
    _expect(step, "B2^2", c2, b2b2, (-1, 0, 0))
    _expect(step, "A2^2", c2, a2a2, (1, m - 1, 0) if subcase == "kad" else (-1, 2, 0))
    _expect(step, "A2*B2", c2, a2b2, (0, down, 0) if subcase == "kad" else (-1, 1, 0))
    p1 = _Component(("P",), (m,))
    sides = _c1_side(p1, (0, up), (0, 0), p1.tensor((0, 0), (0, 0)), subcase == "kad")
    _pin_side(p1, sides, tuple(zip(_C1_CARRIES_P, (0, 1, up, down, up))))
    records = [(step, None, 1, "holds", "graded normal forms verified")]

    step = "canonical-restrictions"
    for label, om in (("C1", a1), ("C2", om2)):
        if _h0(om[0]) or _h1(om[0]):
            raise ScriptCheckError(step, f"canonical restriction to {label} has sections")
    records.append((step, 0, 1, "holds", "h0 = h1 = 0 on both components"))

    if subcase == "k3a":
        twist1, twist2 = c2.tensor(a2b2, om2), c2.tensor(b2b2, om2)
        _expect("h1-a2b2-omega", "A2*B2*om", c2, twist1, (-2, 2, 1))
        records.append(("h1-a2b2-omega", _h1(twist1[0]), 1, "holds", ""))
        _expect("h1-b2sq-omega", "B2^2*om", c2, twist2, (-2, 1, 1))
        records.append(("h1-b2sq-omega", _h1(twist2[0]), 1, "holds", ""))
        _check(_h1(twist1[0]) == 1 and _h1(twist2[0]) == 1, "forces-conic-bundle",
               "expected h1 = 1 twice")
        records.append(("forces-conic-bundle", None, 1, "forces_cb",
                        "h1 of the twisted square is >= 2"))
        h_gr1 = _sections(a1, a2, m) + _sections(b1, b2, m)
        records.append(("h0-gr1", h_gr1, 1, "holds", ""))
        h_sym = _sections(a1a1, a2a2, m) + _sections(a1b1, a2b2, m) + _sections(b1, b2b2, m)
        records.append(("h0-sym2", h_sym, 1, "holds", ""))
        _check(h_gr1 == 0 and h_sym == 0, "section-count-conflict",
               "expected no sections in weights 1 and 2")
        records.append(("section-count-conflict", None, 1, "contradiction",
                        "two independent width-2 sections cannot fit in "
                        "h0 <= h0(sym2) + 1 = 1"))
        return (), tuple(records), ()

    # kad, m >= 5; on C2 D2 = 0 and E2 = om2, on C1 om*B1 = A1*B1 and om*E1 = A1^2
    step = "gr1-omega-vanishing"
    om_b2 = c2.tensor(om2, b2)
    _expect(step, "om*B2", c2, om_b2, (-1, down, 0))
    # om*B2 is also E2*B2/D2, C2's share of the thickening check, which this
    # vanishing covers; C1's share reads a'
    if _h0(a1b1[0]) or _h1(a1b1[0]) or _h0(om_b2[0]) or _h1(om_b2[0]):
        raise ScriptCheckError(step, "twisted weight-1 piece has sections")
    records.append((step, 0, 1, "holds", ""))

    step = "omega-e-vanishing"
    oe2 = c2.tensor(om2, om2)
    _expect(step, "om*E2", c2, oe2, (-1, m - 1, 0))
    if _h0(a1a1[0]) or _h1(a1a1[0]) or _h0(oe2[0]) or _h1(oe2[0]):
        raise ScriptCheckError(step, "twisted splitting piece has sections")
    tail = [(step, 0, 1, "holds", "")]

    step = "h1-omega-e-b2"
    key = c2.tensor(oe2, b2)
    _expect(step, "om*E*B2", c2, key, (-2, m - 1, 1))
    hk = _h1(key[0])
    tail.append((step, hk, 1, "forces_cb", "nonvanishing h1 rules out the birational cases"))
    _check(hk == 1, step, "expected h1 = 1 on the key twist")

    h_a, h_b = _sections(a1, a2, m), _sections(b1, b2, m)
    tail.append(("h0-gr1", h_a + h_b, 1, "holds", "the unique weight-1 section lives on C2"))
    _check((h_a, h_b) == (1, 0), "h0-gr1", "weight-1 section count off")
    sq_a, sq_ab, sq_b = (_sections(a1a1, a2a2, m), _sections(a1b1, a2b2, m),
                         _sections(b1, b2b2, m))
    c1_side = _h0(a1a1[0]) + _h0(a1b1[0]) + sq_b
    tail.append(("h0-gr2", sq_a + sq_ab + sq_b, 1, "holds",
                 "all weight-2 sections restrict to zero on C1"))
    _check((sq_a, sq_ab, sq_b) == (2, 1, 0) and c1_side == 0, "h0-gr2",
           "weight-2 section count off")
    tail.append(("multiplicity-conflict", None, 1, "contradiction",
                 "a second base section must vanish to order 3 along "
                 "C1, against the length-4 budget"))
    return tuple(records), tuple(tail), (sides[3],)


def _kad_pair_stage(m: int, m_prime: int, m_forms: tuple) -> tuple:
    """kad and k3a read no form of (m, m') jointly: the m stage's forms pass on."""
    return m_forms


def _kad_m_prime_stage(m_prime: int) -> tuple:
    """The one form of C1 whose Q side reads m' alone, B1^2, pinned: (Q[m'], its
    Q side)."""
    q1 = _Component(("Q",), (m_prime,))
    b1b1 = q1.tensor((0, 1), (0, 1))
    _expect("degree-table", "B1^2", q1, b1b1, (0, 2))
    return q1, b1b1


def _kad_point_stage(subcase: str, m_prime: int, a_prime: int, m_prime_forms: tuple) -> tuple:
    """The checks that read (m', a') alone, through gap = m' - a': the Q sides
    of C1's other forms, from the m' stage's B1^2, pinned (A1^2 and A1*B1, and
    for kad the two split checks), and for kad the split checks' h1 values, each
    of a whole form whose P carry the m stage pins.  kad's forms are the Q side
    of B1^2/A1 and the two h1 values; k3a's are none."""
    gap = m_prime - a_prime
    q1, b1b1 = m_prime_forms
    sides = _c1_side(q1, (0, gap), (0, 1), b1b1, subcase == "kad")
    _expect("degree-table", "A1^2", q1, sides[1], (0, 2 * gap))
    _expect("degree-table", "A1*B1", q1, sides[2], (0, gap + 1))
    if subcase == "k3a":
        return ()
    # B1^2/A1 reduces 2 - gap at Q, which borrows from c once gap > 2
    _expect("split-check-c1", "B1^2/A1", q1, sides[3],
            (0, 2 - gap) if gap <= 2 else (-1, m_prime + 2 - gap))
    _expect("split-check-thickening", "E1*B1/D1", q1, sides[4], (0, gap - 1))
    # a whole form's integer part: its c0, the P carry that the m stage pins
    # and the Q carry; C2's share of the thickening check is 0 by _kad_m_stage
    obstruction1, obstruction2 = (_h1(_C1_FORMS[i][2] + _C1_CARRIES_P[i] + sides[i][0])
                                  for i in (3, 4))
    _check(not (obstruction1 or obstruction2), "split-check-thickening",
           "splitting obstruction does not vanish")
    return sides[3], obstruction1, obstruction2


def _kad_cells(m: int, m_prime: int, a_primes: list, start: int) -> tuple:
    """One cell on the records: every tuple of kad and k3a ends on its m's tail."""
    return ((start, len(a_primes), None),)


def _kad_steps(m: int, m_prime: int, a_prime: int, forms: tuple) -> tuple[tuple, ...]:
    """A kad tuple's own records, the two split checks, joined from the sides
    of its m and point stages; k3a's stages hand on no forms and it has none.
    The note rebuilds B1^2/A1 as a two-point form on C1."""
    if not forms:
        return ()
    split_p, split_q, obstruction1, obstruction2 = forms
    c1 = _Component(("P", "Q"), (m, m_prime))
    return (("split-check-c1", obstruction1, 1, "holds",
             ("splitting obstruction {!r}", c1, _c1_whole(3, split_p, split_q))),
            ("split-check-thickening", obstruction2, 1, "holds", ""))


# the scripts by the name the CLI gives them
SCRIPTS = {
    "ic": Script("ic", _odd_from_5, "m must be odd and >= 5", _ic_min_a_prime,
                 _ic_a_prime_rejection, _ic_m_stage, _no_forms, _no_forms, _ic_pair_stage,
                 _ic_steps, _ic_cells, "width-3-degree"),
    "k3a": Script("kad/k3a", lambda m: m == 3, "subcase k3a forces m = 3", _kad_min_a_prime,
                  _kad_a_prime_rejection, partial(_kad_m_stage, "k3a"), _kad_m_prime_stage,
                  partial(_kad_point_stage, "k3a"), _kad_pair_stage, _kad_steps, _kad_cells,
                  "section-count-conflict"),
    "kad": Script("kad/kad", _odd_from_5, "subcase kad needs odd m >= 5", _kad_min_a_prime,
                  _kad_a_prime_rejection, partial(_kad_m_stage, "kad"), _kad_m_prime_stage,
                  partial(_kad_point_stage, "kad"), _kad_pair_stage, _kad_steps, _kad_cells,
                  "multiplicity-conflict"),
}


def smallest_sweep_max(script: str) -> int:
    """The least cap at which the sweep of ``script``, a SCRIPTS key, admits a tuple."""
    return next(n for n in count(1) if next(SCRIPTS[script].levels(n), None) is not None)


def _kad(subcase: str) -> Script:
    if subcase.lower() not in ("k3a", "kad"):
        raise ValueError("subcase must be 'k3a' or 'kad'")
    return SCRIPTS[subcase.lower()]


def ic_disproof(m: int, m_prime: int, a_prime: int) -> DisproofTrace:
    """Degree-calculus run excluding a two-component germ with an index-m
    point of the rigid kind joined to a two-point chain component.

    The width-2 degree comes out as (m'+1-2a')/m'; a zero value forces the
    fiber-over-surface case and pins 2a' = m'+1 with m > m'.  The splitting
    obstruction then vanishes, the filtration extends to width 3, and the
    width-3 degree -(m+m')/(2mm') is strictly negative.
    """
    return SCRIPTS["ic"].disproof(m, m_prime, a_prime)


def kad_disproof(m: int, m_prime: int, a_prime: int, subcase: str) -> DisproofTrace:
    """Cohomology-count run excluding a two-component germ with a chain
    component joined to a component carrying an extra index-2 point.

    ``subcase`` is "k3a" (forces m = 3, counts sections of the first two
    graded pieces) or "kad" (odd m >= 5, pushes the filtration one step
    further and ends on a multiplicity conflict).
    """
    return _kad(subcase).disproof(m, m_prime, a_prime)


def ic_sweep(sweep_max: int = 49) -> SweepSummary:
    return SCRIPTS["ic"].sweep(sweep_max)


def kad_sweep(subcase: str, sweep_max: int = 49) -> SweepSummary:
    return _kad(subcase).sweep(sweep_max)
