"""Seeded inputs, operations and checks for the four workloads.

Each workload is one pass of inputs, built from the seed alone; the timed run
cycles through the pass.  Counts per category are fixed and sizes are
stratified, so the seed changes which graphs, chains and arguments are used
but not how much work a pass holds; that keeps figures comparable across
seeds.

* ``paper``  - one ``verify_paper(sweep_max=N)`` per op, N from 9 to 29.
* ``graphs`` - parse, analyse and render one graph file per op.
* ``chains`` - chain <-> quotient conversion and class-T recognition per op.
* ``cli``    - one ``cli.main(argv)`` per op, in this process; the oracle
  reruns each argv as a ``python -m germcalc.cli_corpus.cli`` child.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("paper", "graphs", "chains", "cli")
# paper: the default cap 49 takes 3-5 s a call, too few calls in a run to
# see past the machine's drift.  Smaller caps run the same corpus checks, flip
# table and scripted sweeps (tuples grow as about N^3), and give a size curve.
PAPER_SWEEP_MAXES = (9, 13, 17, 21, 25, 29)
CLI_MODULE = "germcalc.cli_corpus.cli"
CLI_TIMEOUT_S = 60

# graphs: per-pass counts.  The big trees carry the O(n^4) minors.  Thirteen
# have 32 exceptional vertices and only three are larger, so op_tail_ms (the
# eleventh slowest input) always falls among inputs of one size; keeping the
# pass short gives each input several runs to take its fastest from.
MEDIUM_TREES = 98
CYCLIC_GRAPHS = 30
BIG_TREE_SIZES = (24, 32, 40, 48, 56) + (32,) * 12
CHAIN_CLUSTER_MAX_N = 2 ** 20  # keeps class-T recognition of chain clusters cheap

# chains: per-pass counts
RANDOM_CHAINS = 360
RANDOM_BITS = (3.0, 34.0)  # log2 n band covered by the random chains
CLASS_T = 180
CLASS_T_MAX_M = 5000
DEEP_CHAINS = 60
DEEP_LENGTHS = (20, 600)  # well below the interpreter's recursion limit
PROBE_LENGTHS = (1500, 2000, 3000)  # well above it: they fail at the parent
MAX_TIMED_LENGTH = 600


class Layers:
    """The germcalc modules an op calls, looked up at call time so that the
    traced run sees its wrappers."""

    def __init__(self, root: Path):
        src = str(root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        from germcalc import cyclic_quot, dual_graph
        from germcalc.cli_corpus import cli, corpus

        self.cyclic_quot, self.dual_graph, self.cli, self.corpus = (
            cyclic_quot, dual_graph, cli, corpus)


# ---------------------------------------------------------------------------
# graphs


def _tree_edges(rng: random.Random, ids: list[str], shape: str) -> list[tuple[str, str]]:
    """Edges of a tree on ``ids``: a path, a fork (one degree-3 vertex) or a
    tree with at least two branch points or a degree-4 vertex."""
    k = len(ids)
    if shape == "chain" or k < 4:
        return [(ids[i], ids[i + 1]) for i in range(k - 1)]
    if shape == "fork":
        cuts = sorted(rng.sample(range(1, k - 1), 2))
        arms = [ids[1:cuts[0] + 1], ids[cuts[0] + 1:cuts[1] + 1], ids[cuts[1] + 1:]]
        edges = []
        for arm in arms:
            edges.append((ids[0], arm[0]))
            edges += [(arm[i], arm[i + 1]) for i in range(len(arm) - 1)]
        return edges
    while True:
        deg = {ids[0]: 0}
        edges = []
        for v in ids[1:]:
            u = rng.choice([w for w in deg if deg[w] < 4])
            edges.append((u, v))
            deg[u] += 1
            deg[v] = 1
        top = sorted(deg.values(), reverse=True)
        if top[0] >= 4 or top[1] >= 3:
            return edges


def _cluster_weights(rng: random.Random, ids: list[str], shape: str) -> dict[str, int]:
    if shape == "chain":
        for _ in range(50):
            w = [-rng.choice((2, 2, 2, 3, 3, 4, 5)) for _ in ids]
            if oracles.chain_value([-x for x in w])[0] <= CHAIN_CLUSTER_MAX_N:
                return dict(zip(ids, w))
        return {v: -2 for v in ids}
    return {v: -rng.choice((2, 2, 2, 3, 3, 4, 5)) for v in ids}


def _graph_text(graph: dict, rng: random.Random) -> str:
    lines = [f"# generated graph, {len(graph['vertices'])} vertices"]
    for v, (kind, self_int) in graph["vertices"].items():
        lines.append(f"vertex {v} kind={kind} self={self_int}")
    for a, b in graph["edges"]:
        lines.append(f"edge {a} {b}" if rng.random() < 0.5 else f"edge {b} {a}")
    return "\n".join(lines) + "\n"


def _medium_graph(rng: random.Random, n_exc: int, cyclic: bool) -> dict:
    k = 1 if n_exc < 6 else rng.choice((1, 1, 2, 3))
    cuts = sorted(rng.sample(range(1, n_exc), k - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n_exc])]
    vertices: dict[str, tuple[str, int]] = {}
    edges: list[tuple[str, str]] = []
    clusters = []
    start = 0
    cycle_kind = rng.choice(("exc_cycle", "bridge")) if cyclic else None
    for ci, size in enumerate(sizes):
        ids = [f"e{start + i}" for i in range(size)]
        start += size
        if ci == 0 and cycle_kind == "exc_cycle" and size >= 3:
            cedges = [(ids[i], ids[(i + 1) % size]) for i in range(size)]
            # an all-(-2) cycle is semidefinite: a non-contractible cluster
            heavy = rng.random() < 0.5
            w = {v: -rng.choice((3, 4, 5)) if heavy else -2 for v in ids}
        else:
            shape = "chain" if size < 4 else rng.choice(
                ("chain", "fork", "fork", "other", "other") if size >= 6 else ("chain", "fork"))
            cedges = _tree_edges(rng, ids, shape)
            w = _cluster_weights(rng, ids, shape)
        clusters.append(ids)
        edges += cedges
        vertices.update((v, ("exc", w[v])) for v in ids)
    comps = []
    for ci in range(1, len(clusters)):  # join the clusters into one tree
        c = f"c{len(comps)}"
        comps.append(c)
        edges += [(c, rng.choice(clusters[rng.randrange(ci)])), (c, rng.choice(clusters[ci]))]
    for _ in range(rng.randint(1, 3)):
        c = f"c{len(comps)}"
        comps.append(c)
        edges.append((c, rng.choice(rng.choice(clusters))))
    if cyclic and not (cycle_kind == "exc_cycle" and sizes[0] >= 3):
        # a component meeting one cluster twice closes a cycle through it
        a, b = rng.sample(max(clusters, key=len), 2)
        c = f"c{len(comps)}"
        comps.append(c)
        edges += [(c, a), (c, b)]
    vertices.update((c, ("comp", -1)) for c in comps)
    return {"vertices": vertices, "edges": edges}


def _big_tree(rng: random.Random, n_exc: int) -> dict:
    """A branching tree whose weights make it diagonally dominant, hence
    negative definite: every op on it runs the minors and the solve in full."""
    ids = [f"e{i}" for i in range(n_exc)]
    edges = _tree_edges(rng, ids, "other")
    deg = dict.fromkeys(ids, 0)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    vertices = {v: ("exc", -max(2, deg[v] + rng.randint(0, 2))) for v in ids}
    for i in range(rng.randint(2, 4)):
        vertices[f"c{i}"] = ("comp", -1)
        edges.append((f"c{i}", rng.choice(ids)))
    return {"vertices": vertices, "edges": edges}


def _point_index(graph: dict) -> int:
    """|det M| over the contractible clusters: every primitivity line is then
    consistent, so ``class_group`` runs instead of raising."""
    det = 1
    for ids in oracles.clusters_of(graph):
        pivots = oracles.symmetric_pivots(graph, ids)
        if pivots is not None:
            det *= oracles.abs_det(pivots)
    return max(2, det)


def build_graphs(seed: int) -> tuple[list[dict], dict]:
    rng = random.Random(f"graphs:{seed}")
    plan = ([("medium", 3 + i % 14) for i in range(MEDIUM_TREES)]
            + [("cyclic", 3 + i % 14) for i in range(CYCLIC_GRAPHS)]
            + [("big", n) for n in BIG_TREE_SIZES])
    items = []
    for category, n_exc in plan:
        graph = (_big_tree(rng, n_exc) if category == "big"
                 else _medium_graph(rng, n_exc, category == "cyclic"))
        items.append({"category": category, "n_exc": n_exc, "graph": graph,
                      "text": _graph_text(graph, rng), "point_index": _point_index(graph)})
    items = _interleave(rng, items, "category")
    return items, _graph_mix(items)


def _interleave(rng: random.Random, items: list[dict], key: str) -> list[dict]:
    """Shuffle within each category, then spread each category evenly over
    the pass, so any stretch of a run sees about the same mix."""
    groups: dict[str, list[dict]] = {}
    for it in items:
        groups.setdefault(it[key], []).append(it)
    slots = []
    for group in groups.values():
        rng.shuffle(group)
        n = len(group)
        slots += [((i + rng.random()) / n, it) for i, it in enumerate(group)]
    slots.sort(key=lambda s: s[0])
    return [it for _, it in slots]


def _graph_mix(items: list[dict]) -> dict:
    n = len(items)
    clusters = nd = nd_graphs = 0
    sizes: dict[str, int] = {}
    for it in items:
        g = it["graph"]
        cl = oracles.clusters_of(g)
        verdicts = [oracles.symmetric_pivots(g, ids) is not None for ids in cl]
        clusters += len(cl)
        nd += sum(verdicts)
        nd_graphs += all(verdicts)
        k = it["n_exc"]
        label = ("3-8" if k <= 8 else "9-16" if k <= 16 else "24-32" if k <= 32
                 else "33-48" if k <= 48 else "49-56")
        sizes[label] = sizes.get(label, 0) + 1
    trees = sum(len(it["graph"]["edges"]) == len(it["graph"]["vertices"]) - 1 for it in items)
    return {"graphs": n, "tree_share": trees / n, "cyclic_share": 1 - trees / n,
            "clusters": clusters, "nd_cluster_share": nd / clusters,
            "nd_graph_share": nd_graphs / n, "exceptional_count_buckets": sizes}


def graphs_op(layers: Layers, item: dict):
    g = layers.dual_graph.parse_graph(item["text"])
    report = layers.corpus.analyze_graph(
        g, point_index=item["point_index"], assume_generator=True)
    return report, layers.corpus.render_analysis(report)


def check_graphs(item: dict, out) -> list[str]:
    report, lines = out
    return oracles.check_graph_op(item, report, lines)


# ---------------------------------------------------------------------------
# chains


def _chain_in_band(rng: random.Random, lo: float, hi: float) -> list[int]:
    """A chain of 2..22 entries in 2..6 whose n lies in [2**lo, 2**hi)."""
    low = math.ceil(2 ** lo)
    high = max(low + 1, math.ceil(2 ** hi))
    while True:
        entries = [rng.randint(2, 6)]
        n, q = entries[0], 1
        while n < low and len(entries) < 22:
            a = rng.randint(2, 6)
            entries.insert(0, a)  # prepending a: n/q -> a - q/n
            n, q = a * n - q, n
        if len(entries) >= 2 and low <= n < high:
            return entries


def wahl_chain(m: int) -> list[int]:
    """[2, ..., 2, m + 2]: class T with d = 1, index m, length m - 1."""
    return [2] * (m - 2) + [m + 2]


def build_chains(seed: int) -> tuple[list[dict], dict]:
    rng = random.Random(f"chains:{seed}")
    items = []
    lo, hi = RANDOM_BITS
    width = (hi - lo) / RANDOM_CHAINS
    for k in range(RANDOM_CHAINS):  # one narrow log2 n band per slot
        entries = _chain_in_band(rng, lo + k * width, lo + (k + 1) * width)
        items.append({"family": "random", "kind": "chain", "entries": entries, "data": None})
    log_lo, log_hi = math.log(2), math.log(CLASS_T_MAX_M)
    for k in range(CLASS_T):  # m log-uniform, stratified
        m = max(2, round(math.exp(log_lo + (log_hi - log_lo) * (k + rng.random()) / CLASS_T)))
        d = rng.randint(1, 4)
        while True:
            a = rng.randrange(1, m)
            if math.gcd(a, m) == 1:
                n, q = d * m * m, d * m * a - 1
                if len(oracles.expand(n, q)) <= MAX_TIMED_LENGTH:
                    break
        items.append({"family": "class_t", "kind": "quot", "n": n, "q": q, "data": (d, m, a)})
    d_lo, d_hi = DEEP_LENGTHS
    for k in range(DEEP_CHAINS):  # Wahl chains and a few growth moves on them
        length = d_lo + round((d_hi - d_lo) * (k + rng.random()) / DEEP_CHAINS)
        moves = rng.randint(0, 3)
        entries = oracles.replay(wahl_chain(length - moves + 1), rng.choices("LR", k=moves))
        m = length - moves + 1
        items.append({"family": "deep", "kind": "chain", "entries": entries,
                      "data": (1, m, m - 1) if moves == 0 else None})
    items = _interleave(rng, items, "family")
    return items, _chain_mix(items)


def deep_probes() -> list[dict]:
    """Wahl chains deeper than the recursion limit; run only by the traced
    run, to count the recursion failures they hit."""
    return [{"family": "probe", "kind": "chain", "entries": wahl_chain(n + 1),
             "data": (1, n + 1, n)} for n in PROBE_LENGTHS]


def _chain_mix(items: list[dict]) -> dict:
    lengths: dict[str, int] = {}
    t = 0
    families: dict[str, int] = {}
    for it in items:
        entries = it["entries"] if it["kind"] == "chain" else oracles.expand(it["n"], it["q"])
        n, q = oracles.chain_value(entries)
        t += oracles.class_t_data(n, q) is not None
        k = len(entries)
        label = ("2-8" if k <= 8 else "9-16" if k <= 16 else "17-22" if k <= 22
                 else "23-100" if k <= 100 else "101-600")
        lengths[label] = lengths.get(label, 0) + 1
        families[it["family"]] = families.get(it["family"], 0) + 1
    n = len(items)
    return {"ops": n, "length_buckets": lengths, "class_t_share": t / n,
            "family_shares": {f: c / n for f, c in families.items()},
            "deep_share": families.get("deep", 0) / n,
            "deep_probe_lengths": list(PROBE_LENGTHS)}


def chains_op(layers: Layers, item: dict) -> dict:
    cq = layers.cyclic_quot
    if item["kind"] == "chain":
        c = cq.HJChain(tuple(item["entries"]))
        quot = cq.chain_to_quot(c)
        du_val = cq.du_val_A(c)
    else:
        quot = cq.CycQuot(item["n"], item["q"])
        c = cq.quot_to_chain(quot)
        du_val = None
    cert = cq.classify_T(quot)
    return {"n": quot.n, "q": quot.q, "chain": c.entries, "du_val": du_val,
            "t": cert.verdict, "d": cert.d, "m": cert.m, "a": cert.a,
            "base": cert.base, "steps": cert.steps}


# ---------------------------------------------------------------------------
# paper


def build_paper(seed: int, layers: Layers) -> tuple[list[dict], dict]:
    """The same pass for every seed: the paper's run does not depend on one."""
    corpus = layers.corpus.load_corpus()
    items = [{"sweep_max": n} for n in PAPER_SWEEP_MAXES]
    return items, {"ops": len(items), "corpus_cases": len(corpus["cases"]),
                   "tuples": {n: oracles.sweep_totals(n) for n in PAPER_SWEEP_MAXES},
                   "seed_used": False}


def paper_op(layers: Layers, item: dict) -> dict:
    report = layers.corpus.verify_paper(sweep_max=item["sweep_max"])
    return {"ok": report.ok, "checks": len(report.checks), "sweep_lines": report.sweep_lines}


def check_paper(item: dict, out) -> list[str]:
    return oracles.check_paper_op(out, item["sweep_max"])


# ---------------------------------------------------------------------------
# cli

_FLIPS = (("4", "-1/4", "2,3"), ("5", "-1/5", "5"), ("3", "-1/3", "2"), ("6", "-1/2", ""),
          ("7", "-2/7", "7"))
# inputs the CLI must reject with exit 2: an entry below 2, a non-coprime pair
_CLI_INPUT_ERRORS = (["quot", "3,1,4"], ["tchain", "12", "8"])


def _script_tuple(rng: random.Random, m_choices, need_kneg: bool) -> tuple[int, int, int]:
    """An (m, m', a') that a disproof script accepts."""
    while True:
        m = rng.choice(m_choices)
        mp = rng.randint(3, 15)
        ap = rng.randint(1, mp - 1)
        if (math.gcd(ap, mp) == 1 and 2 * (mp - ap) < mp
                and (not need_kneg or (m + 1) * mp < 2 * m * ap)):
            return m, mp, ap


def _class_t_pair(rng: random.Random, deep: bool) -> list[str]:
    if deep:  # Wahl pairs with chains 300..600 long
        m = rng.randint(300, 600)
        return ["tchain", str(m * m), str(m * m - m - 1)]
    m, d = rng.randint(2, 60), rng.randint(1, 3)
    a = next(x for x in iter(lambda: rng.randrange(1, m), None) if math.gcd(x, m) == 1)
    return ["tchain", str(d * m * m), str(d * m * a - 1)]


def build_cli(seed: int, layers: Layers, root: Path) -> tuple[list[dict], dict]:
    rng = random.Random(f"cli:{seed}")
    layers.corpus.load_corpus()
    data = root / "src" / "germcalc" / "cli_corpus" / "data"
    rel = data.relative_to(root)
    graphs = sorted(p.name for p in data.glob("*.graph"))
    descrs = sorted(p.name for p in data.glob("*.descr"))
    argvs = []
    for name in graphs:
        flags = rng.choice(([], ["--json"], ["--point-index", str(rng.randint(2, 12)),
                                             "--assume-generator"]))
        json_flag, rest = (["--json"], []) if flags == ["--json"] else ([], flags)
        argvs.append(json_flag + ["analyze", str(rel / name)] + rest)
    argvs += [["classify", str(rel / name)] for name in rng.sample(descrs, 12)]
    argvs += [["quot", ",".join(map(str, _chain_in_band(rng, 3.0, 20.0)))] for _ in range(12)]
    argvs += [_class_t_pair(rng, deep=k < 2) for k in range(12)]
    for index, kc, plus in rng.sample(_FLIPS, 3):
        argvs.append(["flip", "--index", index, f"--kc={kc}", "--plus-indices", plus])
    for _ in range(2):
        m, mp, ap = _script_tuple(rng, range(5, 16, 2), need_kneg=True)
        argvs.append(["ic-disprove", "--m", str(m), "--mprime", str(mp), "--aprime", str(ap)])
    for sub, ms in (("k3a", (3,)), ("kad", range(5, 16, 2))):
        m, mp, ap = _script_tuple(rng, ms, need_kneg=False)
        argvs.append(["kad-disprove", "--m", str(m), "--mprime", str(mp), "--aprime", str(ap),
                      "--subcase", sub])
    argvs.append(["verify-paper", "--sweep-max", "9"])
    argvs += [list(a) for a in _CLI_INPUT_ERRORS]
    items = [{"argv": a, "command": a[1] if a[0] == "--json" else a[0]} for a in argvs]
    items = _interleave(rng, items, "command")
    counts: dict[str, int] = {}
    for it in items:
        counts[it["command"]] = counts.get(it["command"], 0) + 1
    return items, {"ops": len(items), "commands": counts,
                   "deep_tchain_ops": 2, "input_error_ops": len(_CLI_INPUT_ERRORS),
                   "deep_tchain_probe": deep_tchain_argv()}


def deep_tchain_argv() -> list[str]:
    """A class-T pair of index 1100, whose chain is deeper than the recursion
    limit; the traced run checks whether the CLI still ends in a traceback."""
    return ["tchain", "1210000", "1208899"]


def cli_child(root: Path, argv: list[str]) -> dict:
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", CLI_MODULE, *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def cli_in_process(layers: Layers, argv: list[str]) -> dict:
    """Run ``cli.main`` on the argv, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = layers.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    items: list          # one pass of inputs
    mix: dict            # what the seed generated, for the run record
    op: Callable         # item -> output; the timed operation
    check: Callable      # (item, output) -> list of problems; never timed
    layers: Layers


def build(name: str, seed: int, root: Path) -> Workload:
    """Set up one workload: import germcalc, generate the pass, load the corpus."""
    layers = Layers(root)
    if name == "paper":
        items, mix = build_paper(seed, layers)
        return Workload(items, mix, lambda it: paper_op(layers, it), check_paper, layers)
    if name == "graphs":
        items, mix = build_graphs(seed)
        return Workload(items, mix, lambda it: graphs_op(layers, it), check_graphs, layers)
    if name == "chains":
        items, mix = build_chains(seed)
        return Workload(items, mix, lambda it: chains_op(layers, it), oracles.check_chain_op,
                        layers)
    items, mix = build_cli(seed, layers, root)
    return Workload(items, mix, lambda it: cli_in_process(layers, it["argv"]),
                    lambda it, out: oracles.check_cli_op(cli_child(root, it["argv"]), out),
                    layers)
