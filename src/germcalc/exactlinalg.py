"""Exact rational linear algebra on sparse symmetric integer matrices.

Integers throughout, ``fractions.Fraction`` only at the edges (a right-hand side,
fill-in, a value ``fmt`` renders); no floating point is used anywhere in the package.
``excerpt`` and ``digit_limit_problem`` word what an error line quotes of input.

``eliminate`` is the one elimination behind both the definiteness verdict
and the linear solve.  It removes the row with the fewest remaining
neighbours first; on a tree that is always a leaf, which creates no fill-in,
so a tree costs O(n) (the continued-fraction reduction of plumbing graphs,
Neumann 1981).  By Sylvester's law of inertia the form is negative definite
iff every pivot is negative, whatever the order.  The dense routines
``det_bareiss`` and ``leading_principal_minors`` are the tests' reference.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm


class SingularMatrixError(ValueError):
    """Raised when a solve meets a matrix that is not negative definite.

    Singular matrices are among them: elimination stops at a zero pivot.
    """


@dataclass(frozen=True)
class SymmetricForm:
    """A symmetric integer matrix as its diagonal and, for each row ``i``, the
    pairs ``(j, M[i][j])`` with ``j != i`` and ``M[i][j] != 0``."""

    diag: tuple[int, ...]
    links: tuple[tuple[tuple[int, int], ...], ...]

    def __len__(self) -> int:
        return len(self.diag)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense matrix."""
        n = len(self.diag)
        out = []
        for i, links in enumerate(self.links):
            row = [0] * n
            row[i] = self.diag[i]
            for j, x in links:
                row[j] = x
            out.append(tuple(row))
        return tuple(out)


@dataclass(frozen=True)
class Elimination:
    """Result of ``eliminate``: row ``order[k]`` has pivot ``D / s`` for
    ``(D, s) = pivot_pairs[k]``, ``s > 0``; with a right-hand side, x = X / den.

    On a form that is not negative definite the lists end at the first pivot
    that is not negative, and ``numerators`` (X) and ``den`` are None.
    """

    order: tuple[int, ...]
    pivot_pairs: tuple[tuple[int, int], ...]
    negative_definite: bool
    numerators: tuple[int, ...] | None = None
    den: int | None = None


def eliminate(form: SymmetricForm, rhs=None) -> Elimination:
    """Symmetric Gaussian elimination, fewest remaining neighbours first.

    Rows of degree at most one wait in a leaf stack, the rest in a heap keyed
    by (degree, row) that is read only when no leaf is left, so a tree never
    reads it.  A row whose degree changes is noted, and the heap takes the
    notes only when it is read, so a tree never builds it.  Only a heap row
    can create fill-in, and it is taken only while no leaf exists, so a row
    in the leaf stack keeps degree at most one.
    With ``rhs``, back substitution solves ``M x = rhs`` when every pivot is
    negative, as integers ``X = den * x``, ``den = |det M| * lcm(rhs denominators)``:
    ``det(M) * M^-1`` is the adjugate, an integer matrix, so each row divides exactly.

    Row v of the remaining Schur complement has diagonal ``D[v] / s[v]`` and
    right-hand side ``B[v] / s[v]`` in integers, ``s[v] > 0``.  On a tree with
    an integer right-hand side, ``D[v]`` and ``s[v]`` are, up to sign, the
    determinants of the part eliminated into v with and without v, so no gcd
    is needed.  Off-diagonal entries stay ints until fill-in.
    """
    n = len(form.diag)
    if rhs is not None and len(rhs) != n:
        raise ValueError("expected one right-hand side entry per row")
    b = [0] * n if rhs is None else rhs
    s = [x.denominator for x in b]
    B = [x.numerator for x in b]
    D = [d * k for d, k in zip(form.diag, s)]
    nbrs: list = [dict(links) for links in form.links]
    # lowest row first, so the order is reproducible
    leaves = [v for v in range(n - 1, -1, -1) if len(nbrs[v]) <= 1]
    changed = [v for v in range(n) if len(nbrs[v]) > 1]  # rows the heap has yet to take
    heap: list[tuple[int, int]] = []
    order: list[int] = []
    pivots: list[tuple[int, int]] = []
    rows_at_pivot: list[dict] = []
    while len(order) < n:
        if leaves:
            v = leaves.pop()
        else:
            for u in changed:
                if nbrs[u] is not None:
                    heappush(heap, (len(nbrs[u]), u))
            changed.clear()
            degree, v = heappop(heap)
            if nbrs[v] is None or degree != len(nbrs[v]):
                continue  # stale entry
        Dv, sv, Bv = D[v], s[v], B[v]
        order.append(v)
        pivots.append((Dv, sv))
        if Dv >= 0:
            return Elimination(tuple(order), tuple(pivots), False)
        row = nbrs[v]
        nbrs[v] = None
        rows_at_pivot.append(row)
        q = Fraction(sv, Dv) if len(row) > 1 else None  # 1 / pivot, for fill-in
        for u, a in row.items():
            nu = nbrs[u]
            had = len(nu)
            del nu[v]
            # subtract a^2 / pivot from the diagonal and a * b[v] / pivot from b[u]
            an, ad = a.numerator, a.denominator
            su, m = s[u], ad * ad * Dv
            D[u] = an * an * sv * su - D[u] * m
            B[u] = an * ad * Bv * su - B[u] * m
            s[u] = -su * m
            if ad != 1:
                g = gcd(D[u], s[u], B[u])
                D[u], s[u], B[u] = D[u] // g, s[u] // g, B[u] // g
            for w, c in row.items():
                if w != u:
                    x = nu.get(w, 0) - a * c * q
                    if x:
                        nu[w] = x
                    else:
                        nu.pop(w, None)
            if len(nu) <= 1 < had:
                leaves.append(u)
            elif len(nu) > 1:
                changed.append(u)
    if rhs is None:
        return Elimination(tuple(order), tuple(pivots), True)
    det = 1  # the pivots so far multiply to an integer minor, so each step divides exactly
    for Dv, sv in pivots:
        det = det * Dv // sv
    den = abs(det) * lcm(*[x.denominator for x in rhs])
    X: list = [None] * n
    for v, row in zip(reversed(order), reversed(rows_at_pivot)):
        # X[v] = (den * b[v] - t) / pivot with t = sum of a * X[u], kept as tn / td
        tn, td = 0, 1
        for u, a in row.items():
            tn, td = tn * a.denominator + a.numerator * X[u] * td, td * a.denominator
        X[v], r = divmod(den * B[v] * td - s[v] * tn, D[v] * td)
        if r:
            raise AssertionError(f"inexact back substitution at row {v}")
    return Elimination(tuple(order), tuple(pivots), True, tuple(X), den)


def solve_exact(form: SymmetricForm, rhs) -> tuple[tuple[int, ...], int]:
    """Solve M x = rhs for a negative-definite form M, as ``(X, den)`` with x = X / den.

    Raises SingularMatrixError when M is not negative definite.
    """
    result = eliminate(form, rhs)
    if not result.negative_definite:
        raise SingularMatrixError("matrix is not negative definite")
    return result.numerators, result.den


def det_bareiss(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is guaranteed by the Bareiss identity
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_principal_minors(rows: list[list[int]]) -> list[int]:
    """Minors det(M[:k, :k]) for k = 1..n."""
    return [det_bareiss([r[:k] for r in rows[:k]]) for k in range(1, len(rows) + 1)]


def fmt(value: Fraction | int, den: int = 1) -> str:
    """Render ``value / den`` (``den > 0``) reduced, as ``p/q`` or ``p`` when integral."""
    if type(value) is not int:  # a Fraction
        value, den = value.numerator, value.denominator * den
    g = gcd(value, den)
    return str(value // g) if g == den else f"{value // g}/{den // g}"


def excerpt(text: str) -> str:
    """``repr(text)``, cut to 20 characters and "..." when longer: error lines stay short."""
    return repr(text if len(text) <= 20 else text[:20] + "...")


_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")


def digit_limit_problem(what: str, text: str) -> str | None:
    """Why ``int`` refuses ``text`` when a run of its digits is longer than the
    interpreter converts, quoting only a prefix of ``text``; None otherwise,
    when the caller's own message stands."""
    # the limit came in 3.10.7; before it, and at 0, there is none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = max((len(run) - run.count("_") for run in _DIGIT_RUN.findall(text)), default=0)
    if not limit or digits <= limit:
        return None
    return (f"{what} {excerpt(text)} holds a {digits}-digit integer, over this "
            f"interpreter's limit of {limit} digits for int conversion")
