"""The symmetric elimination kernel against independent oracles.

Each form is checked three ways: the product of the pivots against a dense
Bareiss determinant of the rows eliminated so far, the verdict against the
characteristic-polynomial test, and the solution by substituting it back into
M x = b in Fractions and its integer numerators X into M X = den b in integers.
"""

from __future__ import annotations

import heapq
import random
import time
from fractions import Fraction
from math import lcm, prod

import pytest

from conftest import (
    char_poly_coeffs,
    coeffs,
    from_rows,
    neg_def_by_char_poly,
    random_symmetric,
    random_tree_graph,
)
from germcalc.dual_graph import (
    ConfigGraph,
    Vertex,
    VertexKind,
    exceptional_clusters,
    intersection_matrix,
    is_negative_definite,
)
from germcalc.exactlinalg import (
    Elimination,
    SingularMatrixError,
    det_bareiss,
    eliminate,
    leading_principal_minors,
    solve_exact,
)
from germcalc.resolution import codiscrepancy


def pivots(result: Elimination) -> tuple[Fraction, ...]:
    return tuple([Fraction(d, s) for d, s in result.pivot_pairs])


def check_against_oracles(rows: list[list[int]], rhs: list) -> bool:
    """Assert every oracle on one form; return its verdict."""
    n = len(rows)
    form = from_rows(rows)
    result = eliminate(form, rhs)
    order, ps = list(result.order), pivots(result)
    assert len(set(order)) == len(order) == len(ps)
    assert prod(ps) == det_bareiss([[rows[i][j] for j in order] for i in order])
    assert all(p < 0 for p in ps[:-1])
    verdict = neg_def_by_char_poly(rows)
    assert result.negative_definite == verdict
    if verdict:
        assert sorted(order) == list(range(n))
        assert prod(ps) == det_bareiss(rows)
        numerators, den = result.numerators, result.den
        x = tuple(Fraction(v, den) for v in numerators)
        for i in range(n):
            assert sum(Fraction(rows[i][j]) * x[j] for j in range(n)) == rhs[i]
        assert den == abs(det_bareiss(rows)) * lcm(*(Fraction(b).denominator for b in rhs))
        assert all(type(v) is int for v in numerators)
        for i in range(n):
            assert sum(rows[i][j] * numerators[j] for j in range(n)) == den * rhs[i]
        assert solve_exact(form, rhs) == (numerators, den)
    else:
        assert ps[-1] >= 0
        assert result.numerators is None and result.den is None
        with pytest.raises(SingularMatrixError):
            solve_exact(form, rhs)
    return verdict


def cyclic_graph(rng: random.Random, n: int, extra: int) -> ConfigGraph:
    """Random tree on n exceptional vertices plus ``extra`` chords (capped at
    what the complete graph allows)."""
    extra = min(extra, (n - 1) * (n - 2) // 2)
    g = random_tree_graph(rng, n)
    edges = {tuple(sorted(e)) for e in g.edges}
    ids = [v.id for v in g.vertices]
    while len(edges) < n - 1 + extra:
        a, b = rng.sample(ids, 2)
        edges.add((min(a, b), max(a, b)))
    return ConfigGraph(list(g.vertices), sorted(edges))


def cluster_forms(g: ConfigGraph):
    for cluster in exceptional_clusters(g):
        yield intersection_matrix(g, cluster.ids)


def test_random_trees(rng):
    verdicts = set()
    for _ in range(300):
        g = random_tree_graph(rng, rng.randint(1, 12), rng.randint(0, 3))
        for m in cluster_forms(g):
            rows = m.as_lists()
            adjunction = [2 + d for d in m.form.diag]
            verdicts.add(check_against_oracles(rows, adjunction))
            check_against_oracles(rows, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                         for _ in rows])
    assert verdicts == {True, False}


def test_cyclic_clusters(rng):
    verdicts = set()
    for _ in range(300):
        n = rng.randint(3, 10)
        g = cyclic_graph(rng, n, rng.randint(1, n))
        for m in cluster_forms(g):
            verdicts.add(check_against_oracles(m.as_lists(), [2 + d for d in m.form.diag]))
    assert verdicts == {True, False}


def test_dense_forms_with_fill(rng):
    for _ in range(1000):
        n = rng.randint(1, 6)
        rows = random_symmetric(rng, n)
        check_against_oracles(rows, [rng.randint(-5, 5) for _ in range(n)])


def test_bareiss_reference_against_the_characteristic_polynomial(rng):
    # det M = (-1)^n c_n; entries in [-2, 2] make zero leading minors common,
    # and each one sends det_bareiss through its row swap
    def det(rows):
        return (-1) ** len(rows) * char_poly_coeffs(rows)[-1]

    swapped = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = random_symmetric(rng, n, -2, 2)
        assert det_bareiss(rows) == det(rows)
        minors = leading_principal_minors(rows)
        assert minors == [det([r[:k] for r in rows[:k]]) for k in range(1, n + 1)]
        swapped += 0 in minors[:-1]
    assert swapped > 0
    assert det_bareiss([[0, 1], [1, 0]]) == -1


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_cycle_of_minus_twos_ends_at_a_zero_pivot(n):
    vs = [Vertex(f"x{i}", VertexKind.EXCEPTIONAL, -2) for i in range(n)]
    g = ConfigGraph(vs, [(f"x{i}", f"x{(i + 1) % n}") for i in range(n)])
    m = intersection_matrix(g, [v.id for v in vs])
    result = eliminate(m.form)
    assert not result.negative_definite
    assert len(result.pivot_pairs) == n and pivots(result)[-1] == 0
    check_against_oracles(m.as_lists(), [0] * n)


def test_leaf_first_order_on_a_chain():
    vs = [Vertex(f"e{i}", VertexKind.EXCEPTIONAL, -2) for i in range(6)]
    g = ConfigGraph(vs, [(f"e{i}", f"e{i + 1}") for i in range(5)])
    result = eliminate(intersection_matrix(g, [v.id for v in vs]).form)
    # the chain is peeled from its first end; pivot k is -(k + 2)/(k + 1)
    assert result.order == (0, 1, 2, 3, 4, 5)
    assert pivots(result) == tuple(Fraction(-(k + 2), k + 1) for k in range(6))


def test_only_a_graph_with_a_cycle_builds_the_heap(rng, monkeypatch):
    from germcalc import exactlinalg

    pushed = []
    monkeypatch.setattr(exactlinalg, "heappush",
                        lambda heap, item: pushed.append(item) or heapq.heappush(heap, item))
    for n in (5, 40):
        g = big_tree(rng, n)
        result = eliminate(intersection_matrix(g, [v.id for v in g.vertices]).form)
        assert result.negative_definite and pushed == []
    g = cyclic_graph(rng, 8, 3)
    eliminate(intersection_matrix(g, [v.id for v in g.vertices]).form)
    assert pushed


def test_from_rows_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        from_rows([[1, 2]])
    with pytest.raises(ValueError, match="symmetric"):
        from_rows([[-2, 1], [0, -2]])
    with pytest.raises(ValueError, match="right-hand side"):
        solve_exact(from_rows([[-2]]), [1, 2])


def big_chain(rng: random.Random, n: int) -> ConfigGraph:
    vs = [Vertex(f"e{i}", VertexKind.EXCEPTIONAL, -rng.randint(2, 5)) for i in range(n)]
    return ConfigGraph(vs, [(f"e{i}", f"e{i + 1}") for i in range(n - 1)])


def big_tree(rng: random.Random, n: int) -> ConfigGraph:
    """Random tree with self-intersection at most minus the degree: diagonally
    dominant, strictly at the leaves, hence negative definite."""
    g = random_tree_graph(rng, n)
    vs = [Vertex(v.id, v.kind, min(v.self_int, -len(g.adjacency[v.id]))) for v in g.vertices]
    return ConfigGraph(vs, list(g.edges))


@pytest.mark.parametrize("build", [big_chain, big_tree])
def test_400_vertices_finish_fast(rng, build):
    # 1,600 vertices catch a determinant product that is not kept reduced
    for n in (400, 1600):
        g = build(rng, n)
        ids = [v.id for v in g.vertices]
        start = time.perf_counter()
        assert is_negative_definite(intersection_matrix(g, ids))
        d = codiscrepancy(g, ids)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # generous: at most about 0.04 s on a 2-CPU machine
        m = intersection_matrix(g, ids)
        c = coeffs(d)
        for i, v in enumerate(ids):
            lhs = m.form.diag[i] * c[v] + sum(a * c[ids[j]] for j, a in m.form.links[i])
            assert lhs == 2 + m.form.diag[i]
