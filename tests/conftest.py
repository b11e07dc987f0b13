"""Shared test helpers: independent oracles, random generators, a dense-form
builder, and Fraction views of the package's integer results."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from germcalc import ell_calc
from germcalc.dual_graph import ConfigGraph, Vertex, VertexKind
from germcalc.ell_calc import DisproofTrace, TraceStep
from germcalc.exactlinalg import SymmetricForm
from germcalc.resolution import Codiscrepancy, KReport


def char_poly_coeffs(rows: list[list[int]]) -> list[int]:
    """Coefficients c_1..c_n of det(tI - M) = t^n + c_1 t^(n-1) + ... + c_n.

    Faddeev-LeVerrier recursion; independent of the elimination route used by
    the package.  For an integer matrix every c_k and every work matrix is an
    integer, so the division by k is exact and the recursion stays in ints.
    """
    n = len(rows)
    m = [[int(x) for x in row] for row in rows]
    coeffs: list[int] = []
    work = [row[:] for row in m]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(work[i][i] for i in range(n)), k)
        assert rem == 0, "Faddeev-LeVerrier division must be exact"
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            work[i][i] += ck
        work = [[sum(x * y for x, y in zip(row, col)) for col in zip(*work)] for row in m]
    return coeffs


def neg_def_by_char_poly(rows: list[list[int]]) -> bool:
    """Symmetric matrix is negative definite iff every char-poly coefficient is > 0."""
    return all(c > 0 for c in char_poly_coeffs(rows))


def random_symmetric(rng: random.Random, n: int, lo: int = -6, hi: int = 1):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return rows


def from_rows(rows) -> SymmetricForm:
    """The sparse form of a dense square symmetric matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("expected a square matrix")
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise ValueError("expected a symmetric matrix")
    return SymmetricForm(
        tuple([int(r[i]) for i, r in enumerate(rows)]),
        tuple([tuple([(j, int(x)) for j, x in enumerate(r) if x and j != i])
               for i, r in enumerate(rows)]),
    )


def coeffs(d: Codiscrepancy) -> dict[str, Fraction]:
    """The coefficients of a codiscrepancy as Fractions."""
    return {v: Fraction(x, d.den) for v, x in d.numerators.items()}


def k_value(report: KReport, component: str) -> Fraction:
    """K.C on ``component`` as a Fraction."""
    return next(Fraction(e.numerator, e.den) for e in report.entries if e.component == component)


def step(trace: DisproofTrace, name: str) -> TraceStep:
    """The step of ``trace`` named ``name``."""
    return next(s for s in trace.steps if s.name == name)


def random_tree_graph(rng: random.Random, n_exc: int, n_comp: int = 0) -> ConfigGraph:
    """Random tree with n_exc exceptional vertices (weights -6..-2) and
    n_comp components hung off random exceptional vertices."""
    vertices = [
        Vertex(f"e{i}", VertexKind.EXCEPTIONAL, rng.randint(-6, -2))
        for i in range(n_exc)
    ]
    edges = [(f"e{rng.randrange(i)}", f"e{i}") for i in range(1, n_exc)]
    for j in range(n_comp):
        vertices.append(Vertex(f"c{j}", VertexKind.COMPONENT, -1))
        edges.append((f"e{rng.randrange(n_exc)}", f"c{j}"))
    return ConfigGraph(vertices, edges)


def patch_stage(monkeypatch, script: str, stage: str, wrap) -> None:
    """Until the test ends, run the ``stage`` field of ``ell_calc.SCRIPTS[script]``
    as ``wrap(real stage)`` in every entry point that reads the table."""
    real = ell_calc.SCRIPTS[script]
    monkeypatch.setitem(ell_calc.SCRIPTS, script,
                        dataclasses.replace(real, **{stage: wrap(getattr(real, stage))}))


def admissible(script: str, sweep_max: int = 49):
    """The admissible tuples of ``ell_calc.SCRIPTS[script]`` up to the cap, in
    the order m, m', a'."""
    return ((m, mp, ap) for m, pairs in ell_calc.SCRIPTS[script].levels(sweep_max)
            for mp, admitted, start in pairs for ap in admitted[start:])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
