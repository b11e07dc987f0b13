"""Codiscrepancies of exceptional clusters and adjunction on fiber components.

For a cluster with intersection matrix M and weights a_j = -self_int the
codiscrepancy coefficients d solve M d = (2 - a_j): the contracted canonical
class pulls back with an extra effective divisor sum(d_j E_j), and adjunction
on each smooth rational E_j gives the right-hand side.  A fiber component
(always a (-1)-curve here) then meets the contracted surface canonical class
in -1 + sum of the coefficients of its exceptional neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .dual_graph import Cluster, ConfigGraph, VertexKind, intersection_matrix
# re-exported beside codiscrepancy; perfbench/tests checks that tracing wraps this binding
from .dual_graph import is_negative_definite  # noqa: F401
from .exactlinalg import SingularMatrixError, solve_exact


class ContractibilityError(ValueError):
    """The cluster is not negative definite, so it does not contract."""


class SingClass(Enum):
    LOG_TERMINAL = "log_terminal"
    LOG_CANONICAL_STRICT = "log_canonical_strict"
    NOT_LOG_CANONICAL = "not_log_canonical"


@dataclass(frozen=True)
class Codiscrepancy:
    cluster: tuple[str, ...]
    numerators: dict[str, int]  # the coefficient at v is numerators[v] / den
    den: int  # |det M|

    @property
    def coeffs(self) -> dict[str, Fraction]:
        return {v: Fraction(x, self.den) for v, x in self.numerators.items()}


@dataclass(frozen=True)
class KEntry:
    component: str
    value: Fraction
    k_negative: bool


@dataclass(frozen=True)
class KReport:
    entries: tuple[KEntry, ...]
    germ_feasible: bool

    def value(self, component: str) -> Fraction:
        return next(e.value for e in self.entries if e.component == component)


def codiscrepancy(g: ConfigGraph, cluster: Cluster | tuple[str, ...] | list[str]) -> Codiscrepancy:
    """Solve for the unique effective codiscrepancy on one cluster.

    The solve is also the definiteness test: it raises ContractibilityError
    when the cluster is not negative definite.
    """
    ids = tuple(cluster.ids if isinstance(cluster, Cluster) else cluster)
    form = intersection_matrix(g, ids).form
    rhs = [2 + s for s in form.diag]  # 2 - a_j with a_j = -self_int
    try:
        numerators, den = solve_exact(form, rhs)
    except SingularMatrixError:
        raise ContractibilityError(
            f"cluster ({', '.join(ids)}) is not negative definite and cannot be contracted"
        ) from None
    # effectivity is forced for negative-definite clusters with all a_j >= 2
    bad = [v for v, x in zip(ids, numerators) if x < 0]
    if bad:
        raise AssertionError(f"negative codiscrepancy coefficient at {bad[0]}")
    return Codiscrepancy(ids, dict(zip(ids, numerators)), den)


def singularity_class(d: Codiscrepancy) -> SingClass:
    top = max(d.numerators.values())
    if top < d.den:
        return SingClass.LOG_TERMINAL
    if top == d.den:
        return SingClass.LOG_CANONICAL_STRICT
    return SingClass.NOT_LOG_CANONICAL


def k_dot_components(g: ConfigGraph, codiscrepancies: list[Codiscrepancy]) -> KReport:
    """Per-component canonical degrees -1 + sum of adjacent coefficients.

    The degree is negative exactly when the adjacent coefficients sum below 1;
    a zero value is reported as infeasible (the contraction needs strictly
    negative degrees).
    """
    den = lcm(*(d.den for d in codiscrepancies))  # every coefficient as coeff[v] / den
    coeff: dict[str, int] = {}
    for d in codiscrepancies:
        coeff.update({v: x * (den // d.den) for v, x in d.numerators.items()})
    for v in g.exceptional_ids():
        if v not in coeff:
            raise ValueError(f"no codiscrepancy supplied for exceptional vertex {v!r}")
    entries = []
    for v in g.vertices:
        if v.kind is not VertexKind.COMPONENT:
            continue
        total = sum(coeff[nb] for nb in g.adjacency[v.id] if nb in coeff) - den
        entries.append(KEntry(v.id, Fraction(total, den), total < 0))
    return KReport(tuple(entries), all(e.k_negative for e in entries))
