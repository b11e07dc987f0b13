from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coeffs, k_value, random_tree_graph
from germcalc.cli_corpus.corpus import load_corpus, read_data
from germcalc.cyclic_quot import HJChain, chain_to_quot
from germcalc.dual_graph import (
    ConfigGraph,
    Vertex,
    VertexKind,
    exceptional_clusters,
    intersection_matrix,
    is_negative_definite,
    parse_graph,
)
from germcalc.resolution import (
    Codiscrepancy,
    ContractibilityError,
    SingClass,
    adjacent_numerators,
    codiscrepancy,
    k_dot_components,
    singularity_class,
)


def chain_graph(*weights):
    vs = [Vertex(f"e{i}", VertexKind.EXCEPTIONAL, -a) for i, a in enumerate(weights)]
    es = [(f"e{i}", f"e{i+1}") for i in range(len(weights) - 1)]
    return ConfigGraph(vs, es)


def solve_chain(*weights):
    g = chain_graph(*weights)
    return codiscrepancy(g, tuple(v.id for v in g.vertices))


class TestCodiscrepancy:
    def test_single_minus_four(self):
        d = solve_chain(4)
        assert coeffs(d) == {"e0": F(1, 2)}

    def test_star(self):
        g = parse_graph(read_data("iidual_cb5.graph"))
        c = coeffs(codiscrepancy(g, ("e0", "e1", "e2", "e3")))
        assert [c[v] for v in ("e0", "e1", "e2", "e3")] == [
            F(1), F(3, 4), F(3, 4), F(1, 2),
        ]

    def test_long_chain(self):
        c = coeffs(solve_chain(3, 2, 5, 4, 2))
        assert [c[f"e{i}"] for i in range(5)] == [
            F(7, 12), F(3, 4), F(11, 12), F(5, 6), F(5, 12),
        ]

    def test_not_contractible(self):
        vs = [Vertex(f"x{i}", VertexKind.EXCEPTIONAL, -2) for i in range(3)]
        g = ConfigGraph(vs, [("x0", "x1"), ("x1", "x2"), ("x2", "x0")])
        with pytest.raises(ContractibilityError):
            codiscrepancy(g, ("x0", "x1", "x2"))

    def test_residual_identity_exact(self):
        g = parse_graph(read_data("iib_cb3.graph"))
        cluster = exceptional_clusters(g)[0]
        c = coeffs(codiscrepancy(g, cluster))
        rows = intersection_matrix(g, cluster.ids).form.rows()
        for i, v in enumerate(cluster.ids):
            lhs = sum(rows[i][j] * c[w] for j, w in enumerate(cluster.ids))
            assert lhs == 2 + g.by_id[v].self_int

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_effective_on_random_trees(self, seed):
        import random

        rng = random.Random(seed)
        g = random_tree_graph(rng, rng.randint(1, 7))
        ids = tuple(v.id for v in g.vertices)
        m = intersection_matrix(g, ids)
        if not is_negative_definite(m):
            return
        c = coeffs(codiscrepancy(g, ids))
        assert all(val >= 0 for val in c.values())
        rows = m.form.rows()
        for i, v in enumerate(ids):
            lhs = sum(rows[i][j] * c[w] for j, w in enumerate(ids))
            assert lhs == 2 + g.by_id[v].self_int

    def test_reordering_vertices_preserves_values(self, rng):
        g = parse_graph(read_data("cd3_a.graph"))
        perm = list(g.vertices)
        rng.shuffle(perm)
        h = ConfigGraph(perm, list(g.edges))
        valued = {}
        for c in exceptional_clusters(g):
            valued.update(coeffs(codiscrepancy(g, c)))
        revalued = {}
        for c in exceptional_clusters(h):
            revalued.update(coeffs(codiscrepancy(h, c)))
        assert valued == revalued


class TestKReport:
    def test_star_case(self):
        g = parse_graph(read_data("iidual_cb5.graph"))
        ds = [codiscrepancy(g, c) for c in exceptional_clusters(g)]
        rep = k_dot_components(g, ds)
        assert k_value(rep, "c1") == F(-1, 4)
        assert k_value(rep, "c0") == F(-1, 2)
        assert rep.germ_feasible

    def test_fork_with_detached_cluster(self):
        g = parse_graph(read_data("cd3_a.graph"))
        ds = [codiscrepancy(g, c) for c in exceptional_clusters(g)]
        rep = k_dot_components(g, ds)
        # v2 touches the zero-coefficient detached curve and one 2/3 leaf
        assert k_value(rep, "v2") == F(-1, 3)
        assert k_value(rep, "v6") == F(-1, 3)
        assert k_value(rep, "v8") == F(-1, 3)
        assert rep.germ_feasible

    def test_by_cluster_is_each_clusters_share_of_the_degree(self):
        for case in load_corpus()["cases"]:
            if "graph" not in case:
                continue
            g = parse_graph(read_data(case["graph"]))
            ds = [codiscrepancy(g, c) for c in exceptional_clusters(g)]
            cs = [coeffs(d) for d in ds]
            rep = k_dot_components(g, ds)
            assert [e.component for e in rep.entries] == list(g.components)
            for e in rep.entries:
                shares = [F(x, d.den) for x, d in zip(e.by_cluster, ds)]
                assert shares == [sum((c[nb] for nb in g.adjacency[e.component] if nb in c),
                                      F(0)) for c in cs]
                assert F(e.numerator, e.den) == -1 + sum(shares)
            # the scan alone, as when a cluster does not contract
            assert adjacent_numerators(g, ds) == {e.component: e.by_cluster for e in rep.entries}
            assert adjacent_numerators(g, ds[1:]) == {
                e.component: e.by_cluster[1:] for e in rep.entries}

    def test_component_with_no_exceptional_neighbour(self):
        g = ConfigGraph(
            [
                Vertex("c", VertexKind.COMPONENT, -1),
                Vertex("c2", VertexKind.COMPONENT, -1),
            ],
            [("c", "c2")],
        )
        rep = k_dot_components(g, [])
        assert k_value(rep, "c") == F(-1)

    def test_zero_degree_is_infeasible(self):
        # fork whose centre has coefficient exactly 1; a component hanging
        # off the centre gets degree -1 + 1 = 0
        g = ConfigGraph(
            [
                Vertex("e0", VertexKind.EXCEPTIONAL, -2),
                Vertex("e1", VertexKind.EXCEPTIONAL, -3),
                Vertex("e2", VertexKind.EXCEPTIONAL, -3),
                Vertex("e3", VertexKind.EXCEPTIONAL, -3),
                Vertex("c", VertexKind.COMPONENT, -1),
            ],
            [("e0", "e1"), ("e0", "e2"), ("e0", "e3"), ("e0", "c")],
        )
        ds = [codiscrepancy(g, c) for c in exceptional_clusters(g)]
        rep = k_dot_components(g, ds)
        assert k_value(rep, "c") == 0
        assert not rep.germ_feasible


class TestSingClass:
    def test_log_terminal(self):
        assert singularity_class(solve_chain(4)) is SingClass.LOG_TERMINAL

    def test_strict_log_canonical(self):
        d = Codiscrepancy({"a": 3, "b": 2}, 3)  # 1 and 2/3
        assert singularity_class(d) is SingClass.LOG_CANONICAL_STRICT

    def test_beyond_log_canonical(self):
        d = Codiscrepancy({"a": 3}, 2)  # 3/2
        assert singularity_class(d) is SingClass.NOT_LOG_CANONICAL


class TestChainEndComparison:
    """Optional cross-check of the first coefficient against the quotient type.

    Nothing in the solver assumes a closed form here; this comparison is an
    oracle run over small chains.  Brute force shows 1 - d_first = (q+1)/n on
    every chain tried, while the bare reciprocal q/n never matches (it is off
    by exactly 1/n).
    """

    def all_chains(self, max_len=4, max_entry=5):
        from itertools import product

        for r in range(1, max_len + 1):
            yield from product(range(2, max_entry + 1), repeat=r)

    def test_shifted_reciprocal_matches_everywhere(self):
        for weights in self.all_chains():
            d_first = coeffs(solve_chain(*weights))["e0"]
            quot = chain_to_quot(HJChain(tuple(weights)))
            assert 1 - d_first == F(quot.q + 1, quot.n), weights
            assert 1 - d_first != F(quot.q, quot.n), weights
