"""Codiscrepancies of exceptional clusters and adjunction on fiber components.

For a cluster with intersection matrix M and weights a_j = -self_int the
codiscrepancy coefficients d solve M d = (2 - a_j): the contracted canonical
class pulls back with an extra effective divisor sum(d_j E_j), and adjunction
on each smooth rational E_j gives the right-hand side.  A fiber component
(always a (-1)-curve here) then meets the contracted surface canonical class
in -1 + sum of the coefficients of its exceptional neighbours.  One scan of
each component's neighbours sums those coefficients cluster by cluster; the
degree adds the sums, and the primitivity lines read each one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm
from typing import NamedTuple

from .dual_graph import Cluster, ConfigGraph, intersection_matrix
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
    numerators: dict[str, int]  # the coefficient at v is numerators[v] / den
    den: int  # |det M|


class KEntry(NamedTuple):
    """K.C on one component, ``numerator / den``; ``by_cluster[i]`` is the sum
    of the numerators of codiscrepancy i at the component's neighbours, so
    its share of the value is ``by_cluster[i] / den_i``."""

    component: str
    numerator: int
    den: int  # the lcm of the codiscrepancy denominators
    k_negative: bool
    by_cluster: tuple[int, ...]


@dataclass(frozen=True)
class KReport:
    entries: tuple[KEntry, ...]
    germ_feasible: bool


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
    if numerators and min(numerators) < 0:
        bad = next(v for v, x in zip(ids, numerators) if x < 0)
        raise AssertionError(f"negative codiscrepancy coefficient at {bad}")
    return Codiscrepancy(dict(zip(ids, numerators)), den)


def singularity_class(d: Codiscrepancy) -> SingClass:
    top = max(d.numerators.values())
    if top < d.den:
        return SingClass.LOG_TERMINAL
    if top == d.den:
        return SingClass.LOG_CANONICAL_STRICT
    return SingClass.NOT_LOG_CANONICAL


def adjacent_numerators(g: ConfigGraph, codiscrepancies: list[Codiscrepancy]
                        ) -> dict[str, tuple[int, ...]]:
    """``KEntry.by_cluster`` of every component, in input order: the one scan
    of each component's neighbours.  The codiscrepancies need not cover the
    graph, as when some cluster does not contract."""
    at: dict[str, tuple[int, int]] = {}  # vertex -> (codiscrepancy number, numerator)
    for i, d in enumerate(codiscrepancies):
        for v, x in d.numerators.items():
            at[v] = (i, x)
    adjacency, count = g.adjacency, len(codiscrepancies)
    out = {}
    for comp in g.components:
        sums = [0] * count
        for nb in adjacency[comp]:
            hit = at.get(nb)
            if hit is not None:
                sums[hit[0]] += hit[1]
        out[comp] = tuple(sums)
    return out


def k_dot_components(g: ConfigGraph, codiscrepancies: list[Codiscrepancy]) -> KReport:
    """Per-component canonical degrees -1 + sum of adjacent coefficients.

    The degree is negative exactly when the adjacent coefficients sum below 1;
    a zero value is reported as infeasible (the contraction needs strictly
    negative degrees).
    """
    covered: set[str] = set()
    for d in codiscrepancies:
        covered.update(d.numerators)
    if not covered.issuperset(g.exceptional):
        v = next(v for v in g.exceptional if v not in covered)
        raise ValueError(f"no codiscrepancy supplied for exceptional vertex {v!r}")
    den = lcm(*[d.den for d in codiscrepancies])  # every coefficient as a numerator over den
    scale = [den // d.den for d in codiscrepancies]
    entries = []
    for comp, sums in adjacent_numerators(g, codiscrepancies).items():
        total = sum([x * k for x, k in zip(sums, scale)]) - den
        entries.append(KEntry(comp, total, den, total < 0, sums))
    return KReport(tuple(entries), all(e.k_negative for e in entries))
