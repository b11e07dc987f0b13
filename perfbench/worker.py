"""One workload process: set up, run the ops, check them, report.

Started by ``run.py`` from the root of a checkout; prints one JSON object as
its last line.  ``--setup-only`` stops after set-up, so the parent can time
set-up in several fresh processes.  ``--trace 1`` runs an untraced pass, then
the same ops again with spans on, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

T0 = perf_counter()  # set-up is timed from here: imports, inputs, corpus load

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS_SHOWN = 20


def run_ops(wl: workloads.Workload, seconds: float | None = None,
            count: int | None = None, tracer: tracing.Tracer | None = None) -> dict:
    """Run ops over the pass cyclically, for ``seconds`` or for ``count`` ops.

    An op that raises is recorded and the run goes on.  Only the first
    output per input is kept; a later op on the same input must repeat it.
    """
    items, op = wl.items, wl.op
    latencies, errors, first = [], [], {}
    repeats_differ = 0
    start = perf_counter()
    deadline = start + seconds if seconds is not None else None
    i = 0
    while True:
        k = i % len(items)
        if tracer is not None:
            tracer.op_id = i
        t = perf_counter()
        try:
            out, err = op(items[k]), None
        except Exception as exc:  # one failing op must not end the run
            out, err = None, f"{type(exc).__name__}: {str(exc)[:200]}"
        t2 = perf_counter()
        latencies.append(t2 - t)
        errors.append(err)
        if err is None:
            if k not in first:
                first[k] = out
            elif first[k] != out:
                repeats_differ += 1
        i += 1
        if (deadline is not None and t2 >= deadline) or (count is not None and i >= count):
            break
    return {"wall_s": perf_counter() - start, "latencies": latencies, "errors": errors,
            "first": first, "repeats_differ": repeats_differ}


def check_run(wl: workloads.Workload, run: dict) -> tuple[list[str], int]:
    """(problems, failed op count) from the oracles, outside any timed region.

    An op fails when it raised or when its input's output failed its oracle.
    """
    problems = [f"op {i} raised {err}" for i, err in enumerate(run["errors"]) if err]
    bad = set()
    for k, out in run["first"].items():
        found = wl.check(wl.items[k], out)
        if found:
            bad.add(k)
            problems += [f"input {k}: {p}" for p in found]
    if run["repeats_differ"]:
        problems.append(f"{run['repeats_differ']} repeated ops gave a different output")
    n = len(wl.items)
    failed = sum(1 for i, err in enumerate(run["errors"]) if err or i % n in bad)
    return problems, failed


def timing_metrics(latencies: list[float], n_items: int, wall_s: float) -> tuple[dict, dict]:
    """(metrics, detail) from the latencies of a run over ``n_items`` inputs.

    Each input's latency is the fastest of the passes it ran in, because
    other tenants slow the machine for seconds at a time and a single pass
    carries that drift.  Over these per-input latencies: ``ops_per_s`` is
    inputs per second of summed latency, ``op_p50_ms`` the median, and
    ``op_tail_ms`` the highest percentile with at least ten inputs beyond it
    (the slowest input when there are fewer than eleven).  The detail keeps
    the plain whole-run figures beside them.
    """
    best: dict[int, float] = {}
    for i, lat in enumerate(latencies):
        k = i % n_items
        best[k] = min(lat, best.get(k, lat))
    per_input = sorted(best.values())
    n = len(per_input)
    idx = n - 11 if n >= 11 else n - 1
    metrics = {"ops_per_s": n / sum(per_input),
               "op_p50_ms": 1000 * statistics.median(per_input),
               "op_tail_ms": 1000 * per_input[idx]}
    detail = {"ops": len(latencies), "inputs": n, "passes": len(latencies) / n_items,
              "tail_percentile": 100.0 * (idx + 1) / n, "tail_inputs_beyond": n - idx - 1,
              "tail_is_slowest_input": n < 11,
              "run_ops_per_s": len(latencies) / wall_s,
              "run_op_p50_ms": 1000 * statistics.median(latencies)}
    return metrics, detail


def _child_ms(cmd: list[str], root: Path, env: dict) -> float:
    t = perf_counter()
    subprocess.run(cmd, cwd=root, env=env, check=True, capture_output=True, timeout=60)
    return 1000 * (perf_counter() - t)


def cli_start_costs(root: Path, reps: int = 5) -> dict[str, float]:
    """Median interpreter start, and CLI import on top of it, in fresh children."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    bare = statistics.median(
        _child_ms([sys.executable, "-c", "pass"], root, env) for _ in range(reps))
    imp = statistics.median(
        _child_ms([sys.executable, "-c", f"import {workloads.CLI_MODULE}"], root, env)
        for _ in range(reps))
    return {"cli_corpus.cli.interpreter_ms": bare, "cli_corpus.cli.import_ms": imp - bare}


def known_defects(name: str, root: Path, wl: workloads.Workload) -> dict[str, int]:
    """Inputs past the recursion limit, kept out of the timed workloads
    because the library fails on them today; counted here so the failure shows."""
    out = {"known.chains_deep_recursion": 0, "known.cli_tchain_traceback": 0}
    if name == "chains":
        for item in workloads.deep_probes():
            try:
                workloads.chains_op(wl.layers, item)
            except RecursionError:
                out["known.chains_deep_recursion"] += 1
    elif name == "cli":
        run = workloads.cli_child(root, workloads.deep_tchain_argv())
        if run["code"] not in (0, 2) or "Traceback" in run["stderr"]:
            out["known.cli_tchain_traceback"] += 1
    return out


def untraced(wl: workloads.Workload, seconds: float) -> dict:
    run = run_ops(wl, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
    metrics, detail = timing_metrics(run["latencies"], len(wl.items), run["wall_s"])
    metrics["peak_rss_mb"] = peak_mb
    problems, failed = check_run(wl, run)
    return {"metrics": metrics, "detail": detail, "attempted": len(run["latencies"]),
            "failed": failed, "problems": problems}


def traced(wl: workloads.Workload, workload: str, seconds: float, root: Path,
           spans: Path | None, seed: int) -> dict:
    plain = run_ops(wl, seconds / 2)
    tracer = tracing.Tracer()
    with tracer.install():
        run = run_ops(wl, count=len(plain["latencies"]), tracer=tracer)
    metrics = tracer.metrics(run["wall_s"])
    metrics["trace.overhead_ratio"] = (run["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    metrics.update(known_defects(workload, root, wl))
    metrics.update(cli_start_costs(root) if workload == "cli" else
                   {"cli_corpus.cli.interpreter_ms": 0.0, "cli_corpus.cli.import_ms": 0.0})
    problems, failed = check_run(wl, run)
    problems += [f"untraced op {i} raised {err}" for i, err in enumerate(plain["errors"]) if err]
    changed = sum(1 for k, out in plain["first"].items() if run["first"].get(k, out) != out)
    if changed:
        problems.append(f"{changed} inputs gave another output with tracing on")
    if spans is not None:
        tracer.write(spans, {"workload": workload, "seed": seed})
    return {"metrics": metrics, "attempted": len(run["latencies"]), "failed": failed,
            "problems": problems,
            "detail": {"untraced_wall_s": plain["wall_s"], "spans": len(tracer.start)}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", type=Path, help="file stem for the traced run's spans")
    args = p.parse_args(argv)
    root = Path.cwd()

    wl = workloads.build(args.workload, args.seed, root)
    result = {"setup_s": perf_counter() - T0, "mix": wl.mix}
    if not args.setup_only:
        if args.trace:
            result.update(traced(wl, args.workload, args.seconds, root, args.spans, args.seed))
        else:
            result.update(untraced(wl, args.seconds))
        result["n_problems"] = len(result["problems"])
        result["problems"] = result["problems"][:MAX_PROBLEMS_SHOWN]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
