import copy
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import admissible, patch_stage
from germcalc import ell_calc
from germcalc.cli_corpus import corpus
from germcalc.cli_corpus.corpus import analyze_graph, load_corpus, verify_paper
from germcalc.dual_graph import parse_graph


class TestManifest:
    def test_every_leaf_carries_a_source_marker(self):
        markers = {"cited", "derived", "trivial"}

        def walk(node):
            if isinstance(node, list) and len(node) == 2 and isinstance(node[1], str) \
                    and node[1] in markers:
                return 1
            if isinstance(node, dict):
                return sum(walk(v) for k, v in node.items() if k not in ("name",))
            if isinstance(node, list):
                return sum(walk(v) for v in node)
            return 0

        data = load_corpus()
        for case in data["cases"]:
            tagged = sum(
                walk(v) for k, v in case.items()
                if k not in ("name", "graph", "point_index", "notes", "ids",
                             "global_split")
            )
            # descriptor-only entries still tag their expected rows
            assert tagged > 0, case["name"]

    def test_all_files_referenced_exist(self):
        data = load_corpus()
        for case in data["cases"]:
            if "graph" in case:
                assert corpus.read_data(case["graph"])
            for d in case.get("descriptors", []):
                assert corpus.read_data(d["file"])


class TestVerify:
    def test_full_default_run(self):
        report = verify_paper(sweep_max=25)
        assert report.ok
        assert all(c.ok for c in report.checks)

    def test_runs_are_byte_identical(self):
        a = verify_paper(sweep_max=9).render()
        b = verify_paper(sweep_max=9).render()
        assert a == b

    def test_two_runs_read_each_data_file_once(self, monkeypatch):
        reads = Counter()
        real = corpus._DATA

        class CountingData:
            def __truediv__(self, name):
                reads[name] += 1
                return real / name

        cases = load_corpus()["cases"]
        named = {"corpus.json", *[c["graph"] for c in cases if "graph" in c],
                 *[d["file"] for c in cases for d in c.get("descriptors", [])]}
        corpus.read_data.cache_clear()
        monkeypatch.setattr(corpus, "_DATA", CountingData())
        first, second = verify_paper(sweep_max=9), verify_paper(sweep_max=9)
        assert first.render() == second.render() and first.ok
        assert reads == Counter(named) and len(named) == 34
        assert load_corpus() is not load_corpus()  # each caller still gets its own dict

    def test_sweep_failure_is_a_fail_line(self, monkeypatch):
        # kad's point stage runs once per (m', a'): a raise there fails the
        # tuples (5, 5, 4), (7, 5, 4) and (9, 5, 4)
        def failing(real):
            def stage(mp, ap, forms):
                if (mp, ap) == (5, 4):
                    raise AssertionError("injected")
                return real(mp, ap, forms)
            return stage

        patch_stage(monkeypatch, "kad", "point_stage", failing)
        report = verify_paper(sweep_max=9)
        assert not report.ok
        assert len(report.checks) == 237
        bad = [c.line() for c in report.checks if not c.ok]
        assert bad == ["FAIL sweep: kad exclusion (expected all tuples contradicted, got "
                       "3 of 39 failed, first (5, 5, 4) raised AssertionError: injected)"]
        assert "sweep kad/kad (max 9): 39 tuples, FAILURE: 3 of 39 failed" in (
            "\n".join(report.render()))

    @pytest.mark.parametrize("body, inputs, check, last, problem", [
        ("_ic_steps", (9, 5, 3), "rigid-chain exclusion", 0,
         "got 1 of 33 failed, first (9, 5, 3) returned no records"),
        ("_ic_steps", (9, 5, 3), "rigid-chain exclusion", 4,
         "first (9, 5, 3) ends forces_cb at width-2-degree"),
    ])
    def test_body_without_a_contradiction_is_a_fail_line(
            self, monkeypatch, body, inputs, check, last, problem):
        # ic's tuple stage returns every record of its tuple
        assert ell_calc.SCRIPTS["ic"].tuple_stage is getattr(ell_calc, body)

        def cut(real):
            def stage(*args):
                records = real(*args)
                return records[:last] if args[:3] == inputs else records
            return stage

        patch_stage(monkeypatch, "ic", "tuple_stage", cut)
        report = verify_paper(sweep_max=9)
        bad = [c for c in report.checks if not c.ok]
        assert [(c.case, c.check) for c in bad] == [("sweep", check)]
        assert bad[0].line().endswith(f"{problem})")

    def test_kad_tail_without_a_contradiction_is_a_fail_line(self, monkeypatch):
        # kad's last records come from its m stage, so cutting them fails every
        # tuple of that m
        def cut(real):
            def stage(m):
                head, tail, forms = real(m)
                return (head, tail[:-1] if m == 7 else tail, forms)
            return stage

        patch_stage(monkeypatch, "kad", "m_stage", cut)
        report = verify_paper(sweep_max=9)
        bad = [c for c in report.checks if not c.ok]
        assert [(c.case, c.check) for c in bad] == [("sweep", "kad exclusion")]
        under_7 = sum(1 for t in admissible("kad", 9) if t[0] == 7)
        assert bad[0].line().endswith(
            f"{under_7} of 39 failed, first (7, 3, 2) ends holds at h0-gr2)")

    def test_mutated_expectation_fails_with_diff(self, monkeypatch):
        data = copy.deepcopy(load_corpus())
        case = next(c for c in data["cases"] if c["name"] == "iidual")
        case["clusters"][0]["codiscrepancy"]["e1"] = ["2/3", "cited"]
        monkeypatch.setattr(corpus, "load_corpus", lambda: data)
        report = verify_paper(sweep_max=9)
        assert not report.ok
        bad = [c for c in report.checks if not c.ok]
        assert len(bad) == 1
        assert bad[0].check == "coefficient e1"
        assert "2/3" in bad[0].expected and "3/4" in bad[0].got

    def test_smaller_sweep_still_passes(self):
        assert verify_paper(sweep_max=9).ok


class TestAnalyzeReport:
    def test_multi_cluster_component_primitivity_uses_local_sums(self):
        g = parse_graph(corpus.read_data("kad_cb4.graph"))
        report = analyze_graph(g, point_index=5)
        # c1 meets the detached [4] chain (class-T index 2, local value 1/2)
        # and the heavy cluster (assumed index 5, local value 2/5)
        mine = {
            (p["component"], p["index"]): (p["local_value"], p["splitting_degree"])
            for p in report["primitivity"]
        }
        assert mine[("c1", 2)] == ("1/2", 1)
        assert mine[("c1", 5)] == ("2/5", 1)

    @pytest.mark.parametrize("index", [1, 0, -3])
    def test_point_index_below_two_is_rejected_on_every_graph(self, index):
        # every cluster of k1a_a_m3 has a class-T index; cd3_a has a fork
        errors = []
        for name in ("k1a_a_m3.graph", "cd3_a.graph"):
            g = parse_graph(corpus.read_data(name))
            with pytest.raises(ValueError) as err:
                analyze_graph(g, point_index=index, assume_generator=True)
            errors.append(str(err.value))
        assert errors == [f"point index {index} is below 2, the smallest index "
                          "of a non-Gorenstein point"] * 2

    def test_degrees_match_direct_solve(self):
        g = parse_graph(corpus.read_data("kad_cb4.graph"))
        report = analyze_graph(g)
        got = {e["id"]: F(e["k"]) for e in report["k"]}
        assert got == {
            "c1": F(-1, 10), "c2": F(-1, 5), "c3": F(-1, 5), "c4": F(-1, 5)
        }

    def test_noncontractible_cluster_reported_and_degrees_skipped(self):
        # a (-2)-star with four arms is a tree but not negative definite
        text = "\n".join(
            [f"vertex e{i} kind=exc self=-2" for i in range(5)]
            + ["vertex f1 kind=exc self=-3", "vertex c kind=comp self=-1"]
            + [f"edge e0 e{i}" for i in range(1, 5)]
            + ["edge e0 c", "edge c f1"]
        )
        report = analyze_graph(parse_graph(text))
        by_first = {c["ids"][0]: c for c in report["clusters"]}
        assert by_first["e0"]["negative_definite"] is False
        assert "error" in by_first["e0"]
        assert by_first["f1"]["negative_definite"] is True
        assert report["k"] == [] and report["feasible"] is None
        assert any("not contractible" in n for n in report["notes"])
