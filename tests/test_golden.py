"""Byte-exact golden outputs of the command line and a digest of the scripts.

``tests/golden/manifest.json`` lists each pinned command with its exit code
and stderr; its stdout sits next to it in ``<name>.out``.  ``traces.sha256``
pins every ``ic_disproof``/``kad_disproof`` trace over a parameter box that
holds admissible and rejected tuples alike, ``classify.sha256`` every
verdict of the classification table over a box of descriptors, and
``analysis.sha256`` the ``analyze`` report and text of seeded random graphs
and the exact ``GraphError`` of seeded mutations of the corpus graph files.

Only a change that alters output on purpose may regenerate these files, with
``PYTHONPATH=src python tests/test_golden.py --write``, and it says so in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from germcalc import ell_calc
from germcalc.class_group import NonGorPoint
from germcalc.cli_corpus import corpus
from germcalc.cli_corpus.cli import main
from germcalc.dual_graph import GraphError, parse_graph
from germcalc.germ_rules import ComponentType, GermDescriptor, GermKind, validate_against_table

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(corpus.__file__).parent / "data"
DIGEST_CAP = 29

_TRACES = {
    "ic_full": ["--m", "5", "--mprime", "3", "--aprime", "2"],
    "ic_width2": ["--m", "7", "--mprime", "4", "--aprime", "3"],
    "ic_rejected": ["--m", "5", "--mprime", "3", "--aprime", "1"],
    "k3a": ["--m", "3", "--mprime", "5", "--aprime", "3", "--subcase", "k3a"],
    "k3a_rejected": ["--m", "3", "--mprime", "3", "--aprime", "1", "--subcase", "k3a"],
    "kad": ["--m", "7", "--mprime", "5", "--aprime", "4", "--subcase", "kad"],
}


def golden_cases() -> dict[str, list[str]]:
    """Name -> argv; ``{data}`` stands for the corpus data directory."""
    cases = {
        "verify_paper_49": ["verify-paper", "--sweep-max", "49"],
        "verify_paper_49_json": ["--json", "verify-paper", "--sweep-max", "49"],
    }
    for graph in sorted(p.name for p in DATA.glob("*.graph")):
        cases[f"analyze_{graph[:-len('.graph')]}"] = [
            "analyze", f"{{data}}/{graph}", "--point-index", "4", "--assume-generator"]
    for name, args in _TRACES.items():
        command = "ic-disprove" if name.startswith("ic") else "kad-disprove"
        cases[f"{command}_{name}"] = [command, *args]
        cases[f"{command}_{name}_json"] = ["--json", command, *args]
    return cases


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    argv = [a.replace("{data}", str(DATA)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def trace_digest(cap: int = DIGEST_CAP) -> str:
    """SHA-256 over the rendered lines and the steps of every trace with
    1 <= m <= cap, 0 <= m' <= cap and -1 <= a' <= m'+1, for ic, k3a and kad."""
    h = hashlib.sha256()
    runs = (
        lambda m, mp, ap: ell_calc.ic_disproof(m, mp, ap),
        lambda m, mp, ap: ell_calc.kad_disproof(m, mp, ap, "k3a"),
        lambda m, mp, ap: ell_calc.kad_disproof(m, mp, ap, "kad"),
    )
    for m in range(1, cap + 1):
        for mp in range(0, cap + 1):
            for ap in range(-1, mp + 2):
                for run in runs:
                    trace = run(m, mp, ap)
                    for line in trace.render():
                        h.update(line.encode() + b"\n")
                    for s in trace.steps:
                        h.update(repr((s.name, s.value, s.verdict, s.note)).encode() + b"\n")
    return h.hexdigest()


# every tag family of the table, with near misses: a wrong index, an even or
# too small order, wrong weights and a junk tag
CLASSIFY_POINTS = tuple(NonGorPoint(index, tag) for index, tag in (
    (2, "cAx/2"), (2, "cD/2"), (2, "cE/2"), (3, "cD/3"), (4, "cAx/4"), (2, "cAx/4"),
    (3, "cA/3"), (3, "cA/5"), (5, "1/5(2,3,1)"), (7, "1/5(2,3,1)"), (4, "1/4(2,2,1)"),
    (3, "1/3(2,1,1)"), (7, "1/7(2,5,2)"), (4, "junk"),
))
CLASSIFY_PAIRS = tuple(NonGorPoint(index, tag) for index, tag in (
    (5, "1/5(1,-1,3)"), (2, "1/2(1,1,1)"), (2, "cA/2"),
))


def classify_digest() -> str:
    """SHA-256 over (accepted, row, reason, citation, notes) of
    validate_against_table on every multiset of 2 to 4 component types, with
    each kind, and with no point, each point of CLASSIFY_POINTS or each
    ordered pair from CLASSIFY_PAIRS."""
    h = hashlib.sha256()
    configs = [(), *((p,) for p in CLASSIFY_POINTS), *product(CLASSIFY_PAIRS, repeat=2)]
    for size in (2, 3, 4):
        for components in combinations_with_replacement(ComponentType, size):
            for kind in GermKind:
                for points in configs:
                    v = validate_against_table(GermDescriptor(components, kind, points))
                    h.update(repr((v.accepted, v.row, v.reason, v.citation, v.notes)).encode()
                             + b"\n")
    return h.hexdigest()


ANALYSIS_SEED = 2303
# cluster kinds of the random graphs: chains of each verdict, forks, other
# trees, all-(-2) cycles (never contractible) and heavier cycles
CLUSTER_KINDS = ("t_chain", "du_val", "chain", "fork", "tree", "cycle_m2", "cycle")
POINT_INDICES = (2, 3, 4, 5, 6, 8, 12, 27720)
# a mutation deletes, doubles or swaps a token, copies one from elsewhere in
# the file, or puts one of these in its place
MUTANT_TOKENS = (
    "vertex", "edge", "kind=exc", "kind=comp", "kind=", "kind=EXC", "Kind=exc",
    "kind=exc=1", "self=-1", "self=-2", "self=-5", "self=0", "self=3", "self=x",
    "self=", "self=+3", "self=-2=3", "self=-\u0663", "self=1_0", "=", "a-b", "zz", "e1",
    "c1", "#", "vertex=1", "kind=comp self=-1",
)
# or keeps a field's key and puts one of these after its "="
MUTANT_VALUES = ("", "exc", "comp", "EXC", "x", "-2", "-1", "0", "+3", "1.5", "1_0",
                 "-\u0663", "exc=1", "-2=3")


def _t_chain(rng: random.Random) -> list[int]:
    """A class-T chain: [4] or [3, 2, ..., 2, 3], then random Wahl steps."""
    d = rng.randint(1, 4)
    chain = [4] if d == 1 else [3] + [2] * (d - 2) + [3]
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            chain = [2] + chain[:-1] + [chain[-1] + 1]
        else:
            chain = [chain[0] + 1] + chain[1:] + [2]
    return chain


def _cluster(rng: random.Random, kind: str, ids: list[str]) -> tuple[list[int], list]:
    """Weights (as -self) and edges of one cluster of ``kind`` on a prefix of ``ids``."""
    if kind == "t_chain":
        weights = _t_chain(rng)
    elif kind == "du_val":
        weights = [2] * rng.randint(1, 6)
    elif kind == "chain":
        weights = [rng.choice((2, 2, 3, 4, 5, 7)) for _ in range(rng.randint(1, 7))]
    elif kind == "cycle_m2":
        weights = [2] * rng.randint(3, 7)
    else:
        weights = [rng.choice((2, 2, 2, 3, 4, 6)) for _ in range(rng.randint(4, 12))]
    ids = ids[:len(weights)]
    k = len(ids)
    if kind in ("t_chain", "du_val", "chain"):
        edges = [(ids[i], ids[i + 1]) for i in range(k - 1)]
    elif kind in ("cycle_m2", "cycle"):
        edges = [(ids[i], ids[(i + 1) % k]) for i in range(k)]
    elif kind == "fork":
        cuts = sorted(rng.sample(range(2, k), 2))
        arms = (ids[1:cuts[0]], ids[cuts[0]:cuts[1]], ids[cuts[1]:])
        edges = [(ids[0], arm[0]) for arm in arms]
        edges += [(arm[i], arm[i + 1]) for arm in arms for i in range(len(arm) - 1)]
    else:
        edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, k)]
    return weights, edges


def random_graph_text(rng: random.Random, kinds: list[str]) -> str:
    """A connected graph with one cluster per entry of ``kinds``, joined by
    components; more components meet one or two exceptional vertices, which
    may close a cycle; vertex lines and edges come in a shuffled order."""
    vertices: list[tuple[str, str, int]] = []
    edges: list[tuple[str, str]] = []
    clusters: list[list[str]] = []
    prefix = rng.choice(("e", "x", "E", "v_"))
    for kind in kinds:
        pool = [f"{prefix}{len(vertices) + i}" for i in range(16)]
        weights, cedges = _cluster(rng, kind, pool)
        ids = pool[:len(weights)]
        vertices += [(v, "exc", -w) for v, w in zip(ids, weights)]
        edges += cedges
        clusters.append(ids)
    comps: list[str] = []
    for i in range(1, len(clusters)):
        c = f"c{len(comps)}"
        comps.append(c)
        edges += [(c, rng.choice(clusters[rng.randrange(i)])), (c, rng.choice(clusters[i]))]
    for _ in range(rng.randint(0 if clusters else 1, 3)):
        c = f"c{len(comps)}"
        exc = [v for ids in clusters for v in ids]
        meets = rng.sample(exc, min(len(exc), rng.choice((1, 1, 1, 2))))
        if comps and (not meets or rng.random() < 0.1):
            meets.append(rng.choice(comps))  # two components meeting
        comps.append(c)
        edges += [(c, v) for v in meets]
    vertices += [(c, "comp", -1) for c in comps]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    lines = [f"vertex {v} kind={kind} self={s}" for v, kind, s in vertices]
    if rng.random() < 0.3:
        lines.insert(rng.randrange(len(lines) + 1), "# a comment line")
    lines += [f"edge {a} {b}" if rng.random() < 0.5 else f"edge {b} {a}" for a, b in edges]
    return "\n".join(lines) + "\n"


def analysis_graphs(count: int = 320) -> list[str]:
    """Seeded graph texts: one cluster of each kind in turn, multi-cluster
    graphs of two or three, and a few with no exceptional vertex."""
    rng = random.Random(f"analysis:{ANALYSIS_SEED}")
    texts = []
    for i in range(count):
        if i % 40 == 39:
            kinds = []
        elif i % 3 == 2:
            kinds = [rng.choice(CLUSTER_KINDS) for _ in range(rng.randint(2, 3))]
        else:
            kinds = [CLUSTER_KINDS[i % len(CLUSTER_KINDS)]]
        texts.append(random_graph_text(rng, kinds))
    return texts


def graph_mutations(count: int = 420) -> list[str]:
    """Seeded one-token mutations of the corpus graph files; one in seven
    deletes or doubles a whole line instead."""
    rng = random.Random(f"mutations:{ANALYSIS_SEED}")
    files = [(DATA / name).read_text(encoding="utf-8")
             for name in sorted(p.name for p in DATA.glob("*.graph"))]
    texts = []
    for i in range(count):
        lines = rng.choice(files).splitlines()
        at = rng.choice([n for n, line in enumerate(lines) if line.split("#", 1)[0].strip()])
        if i % 7 == 6:
            if rng.random() < 0.5:
                del lines[at]
            else:
                lines.insert(rng.randrange(len(lines) + 1), lines[at])
            texts.append("\n".join(lines) + "\n")
            continue
        tokens = lines[at].split()
        # a vertex line's two fields are the tokens most checks read
        k = rng.randrange(len(tokens)) if rng.random() < 0.5 else len(tokens) - rng.choice((1, 2))
        op = rng.randrange(6)
        if op == 0:
            del tokens[k]
        elif op == 1:
            tokens.insert(k, tokens[k])
        elif op == 2 and len(tokens) > 1:
            j = (k + 1) % len(tokens)
            tokens[k], tokens[j] = tokens[j], tokens[k]
        elif op == 3:
            tokens[k] = rng.choice(" ".join(lines).split())
        elif op == 4 and "=" in tokens[k]:
            tokens[k] = tokens[k].split("=", 1)[0] + "=" + rng.choice(MUTANT_VALUES)
        else:
            tokens[k] = rng.choice(MUTANT_TOKENS)
        lines[at] = " ".join(tokens)
        texts.append("\n".join(lines) + "\n")
    return texts


def _analysis_record(text: str, point_index, assume_generator: bool) -> str:
    try:
        report = corpus.analyze_graph(parse_graph(text), point_index, assume_generator)
    except GraphError as err:
        return f"GraphError line={err.line}: {err}"
    except Exception as err:  # pinned too, should a case ever raise
        return f"{type(err).__name__}: {err}"
    return json.dumps(report) + "\n" + "\n".join(corpus.render_analysis(report))


def analysis_digest() -> str:
    """SHA-256 over the JSON report and the text of ``analyze_graph`` on every
    graph of ``analysis_graphs``, with no point index and a seeded one, each
    with and without ``assume_generator``, and over the parse of every
    ``graph_mutations`` text: its ``GraphError`` line and message, or its
    report when it still parses."""
    h = hashlib.sha256()
    rng = random.Random(f"indices:{ANALYSIS_SEED}")
    for text in analysis_graphs():
        index = rng.choice(POINT_INDICES)
        for point_index, assume in ((None, False), (None, True), (index, False), (index, True)):
            h.update(_analysis_record(text, point_index, assume).encode() + b"\n")
    for text in graph_mutations():
        h.update(_analysis_record(text, None, False).encode() + b"\n")
    return h.hexdigest()


def _manifest() -> dict:
    return json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def test_manifest_covers_every_case():
    assert {n: c["argv"] for n, c in _manifest().items()} == golden_cases()


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_cli_output_matches_golden(name):
    case = _manifest()[name]
    rc, out, err = run_cli(case["argv"])
    assert rc == case["exit"]
    assert err == case["stderr"]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_trace_digest_matches_golden():
    want = (GOLDEN / "traces.sha256").read_text(encoding="utf-8").split()[0]
    assert trace_digest() == want


def test_classify_digest_matches_golden():
    want = (GOLDEN / "classify.sha256").read_text(encoding="utf-8").split()[0]
    assert classify_digest() == want


def test_analysis_digest_matches_golden():
    want = (GOLDEN / "analysis.sha256").read_text(encoding="utf-8").split()[0]
    assert analysis_digest() == want


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    for name, argv in golden_cases().items():
        rc, out, err = run_cli(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        manifest[name] = {"argv": argv, "exit": rc, "stderr": err}
    (GOLDEN / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    (GOLDEN / "traces.sha256").write_text(
        f"{trace_digest()}  ic/k3a/kad traces, m and m' <= {DIGEST_CAP}\n", encoding="utf-8")
    (GOLDEN / "classify.sha256").write_text(
        f"{classify_digest()}  table verdicts, 2 to 4 components\n", encoding="utf-8")
    (GOLDEN / "analysis.sha256").write_text(
        f"{analysis_digest()}  analyze on random graphs and corpus mutations\n",
        encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_goldens()
