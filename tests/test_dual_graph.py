import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_rows, neg_def_by_char_poly, random_symmetric, random_tree_graph
from germcalc.cli_corpus.corpus import load_corpus, read_data
from germcalc.dual_graph import (
    ClusterShape,
    ConfigGraph,
    GraphError,
    IntersectionMatrix,
    Vertex,
    VertexKind,
    exceptional_clusters,
    intersection_matrix,
    is_negative_definite,
    is_tree,
    parse_graph,
)
from germcalc.exactlinalg import leading_principal_minors


def graph_of(name):
    return parse_graph(read_data(name))


class TestParse:
    def test_single_vertex(self):
        g = parse_graph("vertex a kind=exc self=-4")
        assert len(g.vertices) == 1
        assert g.by_id["a"].self_int == -4
        assert g.by_id["a"].kind is VertexKind.EXCEPTIONAL

    def test_star_example_counts(self):
        g = graph_of("iidual_cb5.graph")
        assert len(g.vertices) == 9
        assert len(g.exceptional) == 4
        assert len(g.components) == 5

    def test_loop_rejected_with_line(self):
        text = "vertex a kind=exc self=-2\nedge a a"
        with pytest.raises(GraphError, match="line 2.*loop"):
            parse_graph(text)

    def test_duplicate_id(self):
        text = "vertex a kind=exc self=-2\nvertex a kind=comp self=-1"
        with pytest.raises(GraphError, match="line 2.*duplicate"):
            parse_graph(text)

    def test_multi_edge(self):
        text = (
            "vertex a kind=exc self=-2\nvertex b kind=exc self=-2\n"
            "edge a b\nedge b a"
        )
        with pytest.raises(GraphError, match="line 4.*multi-edge"):
            parse_graph(text)

    def test_component_self_int_fixed(self):
        with pytest.raises(GraphError, match="line 1.*-1"):
            parse_graph("vertex a kind=comp self=-2")

    def test_exceptional_minimal(self):
        with pytest.raises(GraphError, match="<= -2"):
            parse_graph("vertex a kind=exc self=-1")

    def test_unknown_keyword(self):
        with pytest.raises(GraphError, match="line 1.*unknown keyword"):
            parse_graph("vertexx a kind=exc self=-2")

    def test_disconnected(self):
        text = "vertex a kind=exc self=-2\nvertex b kind=exc self=-2"
        with pytest.raises(GraphError, match="disconnected"):
            parse_graph(text)

    @pytest.mark.parametrize("ids, listed", [
        ([f"e{i}" for i in range(5000)], "'e0', 'e1', 'e10' and 4997 more"),
        (["a" * 5000, "b" * 5000], "'aaaaaaaaaaaaaaaaaaaa...', 'bbbbbbbbbbbbbbbbbbbb...'"),
        ([f"e{i}" for i in range(9)], "e0, e1, e2, e3, e4, e5, e6, e7, e8"),
    ], ids=["5000-vertices", "long-ids", "short-list"])
    def test_disconnected_line_stays_short(self, ids, listed):
        # a short list of unreached ids is given whole; a long one is cut to
        # three ids, each quoted cut short, and a count of the rest
        text = "\n".join(["vertex c kind=comp self=-1"]
                         + [f"vertex {vid} kind=exc self=-2" for vid in ids])
        with pytest.raises(GraphError) as err:
            parse_graph(text)
        assert str(err.value) == f"graph is disconnected (unreached: {listed})"
        assert len(str(err.value).encode()) <= 200

    def test_edge_to_unknown_vertex(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            parse_graph("vertex a kind=exc self=-2\nedge a b")

    def test_empty_input(self):
        with pytest.raises(GraphError, match="no vertices"):
            parse_graph("# only a comment\n")

    @pytest.mark.parametrize("items", [
        [("a", "exc", -2), ("a", "comp", -1)],
        [("a", "exc", -1)],
        [("a", "exc", 0)],
        [("a", "comp", -2)],
        [("a", "comp", 0)],
        [("a", "exc", -2), ("a", "b")],
        [("a", "exc", -2), ("a", "a")],
        [("a", "exc", -2), ("b", "exc", -2), ("a", "b"), ("b", "a")],
    ])
    def test_parser_and_constructor_give_one_message(self, items):
        # the bad item comes last, so both report it first
        lines = [f"vertex {it[0]} kind={it[1]} self={it[2]}" if len(it) == 3
                 else f"edge {it[0]} {it[1]}" for it in items]
        with pytest.raises(GraphError) as parsed:
            parse_graph("\n".join(lines))
        vertices = [Vertex(it[0], VertexKind(it[1]), it[2]) for it in items if len(it) == 3]
        edges = [it for it in items if len(it) == 2]
        with pytest.raises(GraphError) as built:
            ConfigGraph(vertices, edges)
        assert parsed.value.line == len(items)
        assert str(parsed.value) == f"line {len(items)}: {built.value}"

    def test_comments_and_order_preserved(self):
        g = graph_of("cd3_a.graph")
        assert [v.id for v in g.vertices][:3] == ["v1", "v2", "v3"]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_fuzzed_text_parses_or_raises_graph_error(self, data):
        # a tree on v0..v(n-1), then up to two lines drawn from a small alphabet
        good = ["kind=exc self=-2", "kind=exc self=-3", "kind=comp self=-1", "self=-1 kind=comp"]
        n = data.draw(st.integers(1, 4))
        lines = [f"vertex v{i} {data.draw(st.sampled_from(good))}" for i in range(n)]
        lines += [f"edge v{data.draw(st.integers(0, i - 1))} v{i}" for i in range(1, n)]
        tokens = st.sampled_from(["vertex", "v0", "v1", "v4", "a-b", "kind=exc", "kind=x",
                                  "self=-2", "self=x", "self=", "=", "#"])
        soup = st.builds(lambda k, ts: " ".join([k, *ts]),
                         st.sampled_from(["vertex", "edge", "vertx", "#", ""]),
                         st.lists(tokens, max_size=4))
        extra = st.one_of(soup,
                          st.builds("vertex v{} {}".format, st.integers(0, 4), st.sampled_from(
                              good + ["kind=exc self=-1", "kind=comp self=0"])),
                          st.builds("edge v{} v{}".format, st.integers(0, 4), st.integers(0, 4)))
        for _ in range(data.draw(st.integers(0, 2))):
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(extra))
        text = "\n".join(lines)
        try:
            g = parse_graph(text)
        except GraphError:
            return
        h = ConfigGraph(list(g.vertices), list(g.edges))
        assert (h.vertices, h.edges, h.adjacency) == (g.vertices, g.edges, g.adjacency)
        # a finished graph keeps no builder state
        assert set(vars(g)) == {"vertices", "edges", "by_id", "adjacency", "exceptional",
                                "components"}
        assert all(type(x) is tuple for x in (g.vertices, g.edges, g.exceptional,
                                              g.components, *g.adjacency.values()))
        assert (h.exceptional, h.components) == (g.exceptional, g.components)


def cycle_graph():
    vs = [Vertex(f"x{i}", VertexKind.EXCEPTIONAL, -2) for i in range(3)]
    return ConfigGraph(vs, [("x0", "x1"), ("x1", "x2"), ("x2", "x0")])


class TestTree:
    def test_corpus_graphs_are_trees(self):
        for case in load_corpus()["cases"]:
            if "graph" in case:
                assert is_tree(graph_of(case["graph"])), case["name"]

    def test_cycle_is_not_a_tree(self):
        assert not is_tree(cycle_graph())

    def test_single_vertex_is_a_tree(self):
        assert is_tree(parse_graph("vertex a kind=exc self=-4"))


class TestClusters:
    def test_detached_plus_fork(self):
        clusters = exceptional_clusters(graph_of("cd3_a.graph"))
        assert [(set(c.ids), c.shape) for c in clusters] == [
            ({"v1"}, ClusterShape.CHAIN),
            ({"v3", "v4", "v5", "v7"}, ClusterShape.FORK),
        ]

    def test_chain_in_path_order(self):
        clusters = exceptional_clusters(graph_of("k1a_c_k2.graph"))
        assert len(clusters) == 1
        assert clusters[0].ids == ("e1", "e2", "e3", "e4", "e5")
        assert clusters[0].shape is ClusterShape.CHAIN

    def test_no_exceptional_vertices(self):
        g = parse_graph("vertex a kind=comp self=-1")
        assert exceptional_clusters(g) == []

    def test_degree_four_center_is_other(self):
        clusters = exceptional_clusters(graph_of("ic_cb4.graph"))
        assert clusters[0].shape is ClusterShape.OTHER

    def test_verdicts_stable_under_vertex_reordering(self, rng):
        for _ in range(25):
            g = random_tree_graph(rng, rng.randint(2, 6), rng.randint(0, 3))
            perm = list(g.vertices)
            rng.shuffle(perm)
            h = ConfigGraph(perm, list(g.edges))
            assert is_tree(g) == is_tree(h)
            mine = {frozenset(c.ids) for c in exceptional_clusters(g)}
            theirs = {frozenset(c.ids) for c in exceptional_clusters(h)}
            assert mine == theirs
            for c in exceptional_clusters(g):
                assert is_negative_definite(
                    intersection_matrix(g, c.ids)
                ) == is_negative_definite(intersection_matrix(h, c.ids))


class TestIntersectionMatrix:
    def test_single_vertex(self):
        g = parse_graph("vertex a kind=exc self=-4")
        assert intersection_matrix(g, ["a"]).form.rows() == ((-4,),)

    def test_star(self):
        g = graph_of("iidual_cb5.graph")
        m = intersection_matrix(g, ["e0", "e1", "e2", "e3"])
        assert m.form.rows() == (
            (-2, 1, 1, 1),
            (1, -4, 0, 0),
            (1, 0, -4, 0),
            (1, 0, 0, -2),
        )

    def test_chain(self):
        g = parse_graph(
            "vertex a kind=exc self=-2\nvertex b kind=exc self=-5\nedge a b"
        )
        assert intersection_matrix(g, ["a", "b"]).form.rows() == ((-2, 1), (1, -5))

    def test_unknown_id(self):
        g = parse_graph("vertex a kind=exc self=-4")
        with pytest.raises(GraphError, match="unknown"):
            intersection_matrix(g, ["zz"])

    def test_repeated_id(self):
        g = parse_graph("vertex a kind=exc self=-4")
        with pytest.raises(GraphError, match="listed twice"):
            intersection_matrix(g, ["a", "a"])

    def test_rows_are_built_from_the_form_on_first_read(self):
        g = graph_of("iidual_cb5.graph")
        ids = ("e3", "e0", "e2", "e1")
        m = intersection_matrix(g, ids)
        rows = m.form.rows()
        dense = IntersectionMatrix(ids, from_rows(rows))
        assert rows == dense.form.rows() == (
            (-2, 1, 0, 0),
            (1, -2, 1, 1),
            (0, 1, -4, 0),
            (0, 1, 0, -4),
        )
        assert dense == m and hash(dense) == hash(m) and repr(dense) == repr(m)
        assert m.as_lists() == [list(r) for r in rows]
        assert m != IntersectionMatrix(ids[::-1], from_rows(rows))
        assert m != IntersectionMatrix(ids, from_rows(((-3, 1, 0, 0),) + rows[1:]))
        with pytest.raises(AttributeError):
            m.form = dense.form


class TestNegativeDefinite:
    def test_single(self):
        g = parse_graph("vertex a kind=exc self=-4")
        assert is_negative_definite(intersection_matrix(g, ["a"]))

    def test_star_minors(self):
        g = graph_of("iidual_cb5.graph")
        m = intersection_matrix(g, ["e0", "e1", "e2", "e3"])
        assert leading_principal_minors(m.as_lists()) == [-2, 7, -24, 32]
        assert is_negative_definite(m)

    def test_cycle_of_minus_twos_is_not(self):
        m = intersection_matrix(cycle_graph(), ["x0", "x1", "x2"])
        assert not is_negative_definite(m)
        # the all-ones vector is null for this form
        rows = m.as_lists()
        assert sum(sum(row) for row in rows) == 0

    def test_every_corpus_cluster_is_negative_definite(self):
        for case in load_corpus()["cases"]:
            if "graph" not in case:
                continue
            g = graph_of(case["graph"])
            for c in exceptional_clusters(g):
                assert is_negative_definite(intersection_matrix(g, c.ids)), case["name"]

    def test_agrees_with_char_poly_oracle(self):
        rng = random.Random(1234)
        from germcalc.dual_graph import IntersectionMatrix

        for _ in range(10_000):
            n = rng.randint(1, 5)
            rows = random_symmetric(rng, n)
            m = IntersectionMatrix(
                tuple(str(i) for i in range(n)), from_rows(rows)
            )
            assert is_negative_definite(m) == neg_def_by_char_poly(rows)
