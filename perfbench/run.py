"""germcalc benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graphs --seed 1 --seconds 20 --trace 0

The workloads and metrics are listed in ``BENCHMARK.json``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, measured
with tracing off; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  Every run checks its outputs with independent oracles and writes
a record (run metadata, the generated input mix, all figures) under
``.perfbench_out/``; a traced run also writes its spans there.

A run cycles through one seeded pass of inputs.  Latency figures use each
input's fastest time in the run (see ``worker.timing_metrics``): other
tenants of the machine slow it by 10-40% for seconds at a time, and that
drift would otherwise dominate run-to-run differences.

Each workload runs in a child process of its own (``worker.py``), so its
peak memory and set-up are its own.  Set-up is timed in that process and in
``SETUP_PROBES`` more set-up-only processes, and reported as the median.
Exit status 2 means the command line or the checkout is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
RUN_BUDGET_S = 170  # every worker this run starts must end within it
OUT_DIR = ".perfbench_out"


def source_facts(root: Path) -> dict:
    """Python version, commit, nproc, and the size and digest of the sources."""
    src = root / "src" / "germcalc"
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "commit": commit, "src_sha256": digest.hexdigest(), "src_py_lines": lines,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def worker(root: Path, args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="germcalc benchmark (see BENCHMARK.json)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "germcalc" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a germcalc checkout "
              "(src/germcalc and BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        result = worker(root, args, deadline, "--spans", str(out_dir / f"spans-{stem}"))
    else:
        setups = [worker(root, args, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = worker(root, args, deadline)
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples_s"] = setups

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: the run did not measure {', '.join(missing)}", file=sys.stderr)
        return 1
    line = {
        "correct": result["n_problems"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "source": source_facts(root), **result, "result": line}
    record_path = out_dir / f"{stem}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    failed_ratio = result["failed"] / result["attempted"]
    print(f"# {args.workload} seed {args.seed}: {result['attempted']} ops, "
          f"failed_ratio {failed_ratio:.6g}, {result['n_problems']} oracle problems; "
          f"record {record_path.relative_to(root)}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    print("# mix " + json.dumps(result["mix"]))
    print("# detail " + json.dumps(result["detail"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
