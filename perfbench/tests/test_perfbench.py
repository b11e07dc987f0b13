"""Self-tests of the benchmark: oracles, generators, wrappers, statistics.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
They use small seeded inputs and take a few seconds.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

LAYERS = workloads.Layers(ROOT)


def cheap_chains(seed: int) -> list[dict]:
    items, _ = workloads.build_chains(seed)
    out = []
    for it in items:
        if it["kind"] == "chain":
            n, _ = oracles.chain_value(it["entries"])
            if n < 2 ** 24 and len(it["entries"]) <= 200:
                out.append(it)
        elif it["n"] < 2 ** 24:
            out.append(it)
    return out


def cheap_graphs(seed: int) -> list[dict]:
    items, _ = workloads.build_graphs(seed)
    return [it for it in items if it["category"] != "big"]


# -- oracles agree with the library ------------------------------------------


def test_chain_oracle_accepts_library_outputs():
    items = cheap_chains(3)
    assert {it["family"] for it in items} == {"random", "class_t", "deep"}
    for it in items:
        assert oracles.check_chain_op(it, workloads.chains_op(LAYERS, it)) == []


def test_graph_oracle_accepts_library_outputs():
    items = cheap_graphs(3)
    assert any(oracles.symmetric_pivots(it["graph"], ids) is None
               for it in items for ids in oracles.clusters_of(it["graph"]))
    for it in items:
        report, lines = workloads.graphs_op(LAYERS, it)
        assert oracles.check_graph_op(it, report, lines) == []


def test_symmetric_pivots_match_library_definiteness_and_det():
    from germcalc.dual_graph import intersection_matrix, is_negative_definite
    from germcalc.exactlinalg import det_bareiss

    for it in cheap_graphs(4)[:40]:
        g = LAYERS.dual_graph.parse_graph(it["text"])
        for ids in oracles.clusters_of(it["graph"]):
            m = intersection_matrix(g, ids)
            pivots = oracles.symmetric_pivots(it["graph"], ids)
            assert (pivots is not None) == is_negative_definite(m)
            if pivots is not None:
                assert oracles.abs_det(pivots) == abs(det_bareiss(m.as_lists()))


def test_sweep_totals_are_the_papers_and_match_the_library():
    assert oracles.sweep_totals(49) == oracles.PAPER_SWEEPS_AT_49
    for n in (9, 13):
        assert oracles.check_paper_op(workloads.paper_op(LAYERS, {"sweep_max": n}), n) == []


def test_cli_oracle_accepts_a_child_run():
    argv = ["quot", "3,2,5,4,2"]
    run = workloads.cli_child(ROOT, argv)
    assert oracles.check_cli_op(run, workloads.cli_in_process(LAYERS, argv)) == []


def test_class_t_closed_form_matches_library_on_small_n():
    cq = LAYERS.cyclic_quot
    from math import gcd
    for n in range(2, 120):
        for q in range(1, n):
            if gcd(n, q) == 1:
                cert = cq.classify_T(cq.CycQuot(n, q))
                data = oracles.class_t_data(n, q)
                assert cert.verdict == (data is not None)
                if data:
                    assert (cert.d, cert.m, cert.a) == data


# -- corrupted outputs are caught --------------------------------------------


def test_corrupted_chain_outputs_fail():
    it = next(i for i in cheap_chains(5) if i["family"] == "class_t")
    good = workloads.chains_op(LAYERS, it)
    for key, value in (("m", good["m"] + 1), ("t", False), ("steps", good["steps"] + ("L",)),
                       ("q", good["q"] + 1), ("chain", good["chain"] + (2,))):
        bad = dict(good, **{key: value})
        assert oracles.check_chain_op(it, bad), key


def test_corrupted_graph_outputs_fail():
    it = next(i for i in cheap_graphs(5) if i["category"] == "medium"
              and i["graph"]["edges"])
    report, lines = workloads.graphs_op(LAYERS, it)
    c0 = report["clusters"][0]
    v = c0["ids"][0]
    mutations = [
        lambda r: r["clusters"][0]["codiscrepancy"].__setitem__(
            v, str(Fraction(r["clusters"][0]["codiscrepancy"][v]) + Fraction(1, 7))),
        lambda r: r["clusters"][0].__setitem__("negative_definite",
                                               not r["clusters"][0]["negative_definite"]),
        lambda r: r.__setitem__("tree", not r["tree"]),
        lambda r: r["k"][0].__setitem__("k", "5") if r["k"] else r.__setitem__("feasible", True),
    ]
    for mutate in mutations:
        bad = copy.deepcopy(report)
        mutate(bad)
        assert oracles.check_graph_op(it, bad, lines)
    assert oracles.check_graph_op(it, report, ["graph: 0 vertices"] + lines[1:])


def test_corrupted_paper_and_cli_outputs_fail():
    good = {"ok": True, "checks": oracles.PAPER_CHECKS,  # as printed at cap 49
            "sweep_lines": ["sweep ic (max 49): 8227 tuples, 276 reach the final step",
                            "sweep kad/k3a (max 49): 376 tuples, all contradicted",
                            "sweep kad/kad (max 49): 8648 tuples, all contradicted"]}
    assert oracles.check_paper_op(good, 49) == []
    assert oracles.check_paper_op(dict(good, ok=False), 49)
    assert oracles.check_paper_op(dict(good, checks=236), 49)
    assert oracles.check_paper_op(dict(good, sweep_lines=good["sweep_lines"][:2]), 49)
    ref = {"code": 0, "stdout": "x\n", "stderr": ""}
    assert oracles.check_cli_op(dict(ref), ref) == []
    assert oracles.check_cli_op(dict(ref, code=3), dict(ref, code=3))
    assert oracles.check_cli_op(dict(ref, stderr="Traceback (most recent call last)"), ref)
    assert oracles.check_cli_op(dict(ref, stdout="y\n"), ref)


def test_corrupted_op_counts_as_failed():
    items = cheap_chains(6)[:10]

    def op(item):
        out = workloads.chains_op(LAYERS, item)
        return dict(out, q=out["q"] + 1) if item is items[3] else out

    def raising(item):
        if item is items[5]:
            raise RecursionError("deep")
        return workloads.chains_op(LAYERS, item)

    wl = workloads.Workload(items, {}, op, oracles.check_chain_op, LAYERS)
    run = worker.run_ops(wl, count=25)
    problems, failed = worker.check_run(wl, run)
    assert failed == 3 and problems  # item 3 ran at ops 3, 13, 23
    wl.op = raising
    problems, failed = worker.check_run(wl, worker.run_ops(wl, count=25))
    assert failed == 2 and any("RecursionError" in p for p in problems)


# -- generators ----------------------------------------------------------------


@pytest.mark.parametrize("build", [workloads.build_graphs, workloads.build_chains,
                                   lambda s: workloads.build_cli(s, LAYERS, ROOT)])
def test_generation_is_deterministic_per_seed(build):
    a, mix_a = build(7)
    b, mix_b = build(7)
    c, _ = build(8)
    assert a == b and mix_a == mix_b
    assert a != c
    assert len(a) == len(c)  # the seed changes inputs, not the size of a pass


def test_timed_chains_stay_below_the_recursion_limit():
    items, mix = workloads.build_chains(9)
    lengths = [len(it["entries"]) if it["kind"] == "chain" else
               len(oracles.expand(it["n"], it["q"])) for it in items]
    assert max(lengths) <= workloads.MAX_TIMED_LENGTH
    assert all(n >= 1500 for n in workloads.PROBE_LENGTHS)
    assert mix["deep_share"] == workloads.DEEP_CHAINS / len(items)


# -- tracing ------------------------------------------------------------------------


def test_wrappers_leave_results_unchanged_and_are_removed():
    from germcalc import resolution
    from germcalc.cli_corpus import corpus

    graphs = cheap_graphs(10)[:20]
    chains = cheap_chains(10)[:40]
    plain = ([workloads.graphs_op(LAYERS, it) for it in graphs],
             [workloads.chains_op(LAYERS, it) for it in chains])
    original = resolution.is_negative_definite
    tracer = tracing.Tracer()
    with tracer.install():
        assert resolution.is_negative_definite is not original
        assert corpus.parse_graph is LAYERS.dual_graph.parse_graph  # one wrapper, both sites
        assert hasattr(corpus.parse_graph, "__wrapped__")
        traced = ([workloads.graphs_op(LAYERS, it) for it in graphs],
                  [workloads.chains_op(LAYERS, it) for it in chains])
    assert resolution.is_negative_definite is original
    assert traced == plain
    metrics = tracer.metrics(1.0)
    assert metrics["dual_graph.parse_graph.calls"] == len(graphs)
    assert metrics["cyclic_quot.classify_T.calls"] >= len(chains)
    # nested spans: the solve runs inside codiscrepancy, inside analyze_graph
    names = tracer.names
    for idx, nid in enumerate(tracer.span_name):
        if names[nid] == "exactlinalg.solve_exact":
            parent = tracer.parent[idx]
            assert names[tracer.span_name[parent]] == "resolution.codiscrepancy"
            break
    else:
        pytest.fail("no solve_exact span")
    incl, own = tracer.self_times()
    assert all(s >= -1e-9 for s in own)
    top = sum(d for d, p in zip(incl, tracer.parent) if p < 0)
    assert sum(own) == pytest.approx(top)


def test_per_layer_names_match_the_benchmark_file():
    import json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_names()


def test_latencies_are_per_input_bests_and_tail_has_ten_beyond():
    lat = [i / 1000 for i in range(1, 31)]  # 30 inputs, 1..30 ms
    metrics, detail = worker.timing_metrics(lat + [x * 2 for x in lat], 30, 1.0)
    assert metrics["op_tail_ms"] == pytest.approx(20.0)
    assert metrics["op_p50_ms"] == pytest.approx(15.5)
    assert metrics["ops_per_s"] == pytest.approx(30 / sum(lat))
    assert detail["tail_inputs_beyond"] == 10 and detail["passes"] == 2
    metrics, detail = worker.timing_metrics([0.003, 0.001, 0.002, 0.0005], 3, 1.0)
    assert metrics["op_tail_ms"] == pytest.approx(2.0) and detail["tail_is_slowest_input"]
    assert metrics["op_p50_ms"] == pytest.approx(1.0)
