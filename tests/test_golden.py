"""Byte-exact golden outputs of the command line and a digest of the scripts.

``tests/golden/manifest.json`` lists each pinned command with its exit code
and stderr; its stdout sits next to it in ``<name>.out``.  ``traces.sha256``
pins every ``ic_disproof``/``kad_disproof`` trace over a parameter box that
holds admissible and rejected tuples alike, and ``classify.sha256`` every
verdict of the classification table over a box of descriptors.

Only a change that alters output on purpose may regenerate these files, with
``PYTHONPATH=src python tests/test_golden.py --write``, and it says so in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from germcalc import ell_calc
from germcalc.class_group import NonGorPoint
from germcalc.cli_corpus import corpus
from germcalc.cli_corpus.cli import main
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_goldens()
