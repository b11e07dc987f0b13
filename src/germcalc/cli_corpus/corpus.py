"""Built-in verification corpus and the end-to-end driver.

The corpus lives as data files next to this module: graphs and germ
descriptors in the same text formats the command line accepts, plus a JSON
manifest of expected values.  Every expected leaf in the manifest is a
``[value, source]`` pair whose source marks where the value comes from
("cited", "derived" or "trivial"); the driver only compares the values.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from importlib import resources
from math import gcd
from typing import NamedTuple

from .. import class_group, cyclic_quot, ell_calc, germ_rules, resolution
from ..dual_graph import (
    ClusterShape,
    ConfigGraph,
    exceptional_clusters,
    is_tree,
    parse_graph,
)
from ..exactlinalg import fmt


# the data directory, resolved once; read_data reads each file once per process
_DATA = resources.files("germcalc.cli_corpus") / "data"


@cache  # a str is immutable; load_corpus still parses a fresh dict
def read_data(name: str) -> str:
    return (_DATA / name).read_text(encoding="utf-8")


def load_corpus() -> dict:
    return json.loads(read_data("corpus.json"))


def _value(leaf):
    """Strip the source marker off a manifest leaf."""
    if isinstance(leaf, list) and len(leaf) == 2 and isinstance(leaf[1], str):
        return leaf[0]
    return leaf


# ---------------------------------------------------------------------------
# graph analysis shared by the CLI and the driver


def analyze_graph(
    g: ConfigGraph, point_index: int | None = None, assume_generator: bool = False
) -> dict:
    """Full analysis report for one configuration graph, as plain data.
    ``point_index``, assumed where a cluster has no index, must be at least 2."""
    if point_index is not None and point_index < 2:
        raise ValueError(f"point index {point_index} is below 2, the smallest index "
                         "of a non-Gorenstein point")
    report: dict = {
        "vertices": len(g.vertices),
        "exceptional": len(g.exceptional),
        "components": len(g.components),
        "tree": is_tree(g),
        "clusters": [],
        "k": [],
        "feasible": None,
        "primitivity": [],
        "notes": [],
    }
    clusters = exceptional_clusters(g)
    # (number, codiscrepancy, index) for each contractible cluster
    contractible: list[tuple] = []
    for number, cluster in enumerate(clusters, 1):
        entry: dict = {"ids": list(cluster.ids), "shape": cluster.shape.value,
                       "negative_definite": True}
        report["clusters"].append(entry)
        try:
            d = resolution.codiscrepancy(g, cluster)
        except resolution.ContractibilityError:
            entry["negative_definite"] = False
            entry["error"] = "cluster is not contractible"
            continue
        entry["codiscrepancy"] = {v: fmt(x, d.den) for v, x in d.numerators.items()}
        entry["class"] = resolution.singularity_class(d).value
        if cluster.shape is ClusterShape.CHAIN:
            # a list, not a generator: tuple(<genexpr>) leaks RSS per call on CPython 3.11
            chain = cyclic_quot.HJChain(tuple([-g.by_id[v].self_int for v in cluster.ids]))
            quot = cyclic_quot.chain_to_quot(chain)
            cert = cyclic_quot.classify_T(quot)
            entry["chain"] = list(chain.entries)
            entry["quot"] = str(quot)
            entry["du_val"] = cyclic_quot.du_val_A(chain)
            entry["t"] = cert.verdict
            entry["t_index"] = cert.m  # None on a negative certificate
        index = entry.get("t_index")
        if index is None and point_index is not None:
            index = entry["assumed_index"] = point_index
        contractible.append((number, d, index))

    codiscrepancies = [d for _, d, _ in contractible]
    by_cluster = None  # component -> its neighbours' numerators, per contractible cluster
    if len(contractible) == len(clusters):
        kreport = resolution.k_dot_components(g, codiscrepancies)
        by_cluster = {}
        for e in kreport.entries:
            line = {"id": e.component, "k": fmt(e.numerator, e.den), "k_negative": e.k_negative}
            if not e.numerator:
                line["note"] = "degree 0: infeasible"
            report["k"].append(line)
            by_cluster[e.component] = e.by_cluster
        report["feasible"] = kreport.germ_feasible
    else:
        report["notes"].append("skipping degree report: some cluster is not contractible")

    if len(report["clusters"]) > 1 and any(
        c.get("du_val") is not None for c in report["clusters"]
    ):
        report["notes"].append(
            "graph carries detached Du Val cluster(s) besides the main one"
        )

    if assume_generator or point_index is not None:
        report["primitivity_note"] = (
            "assumes the canonical divisor generates each local class group"
        )
        if any(index is None for *_, index in contractible):
            report["notes"].append(
                "some cluster has no recognised index; pass --point-index to "
                "enable its primitivity lines"
            )
        if by_cluster is None:
            by_cluster = resolution.adjacent_numerators(g, codiscrepancies)
        for i, (number, d, m) in enumerate(contractible):
            if m is None:
                continue
            den = d.den
            for comp, sums in by_cluster.items():
                local = sums[i]
                if not local:
                    continue
                value, order = fmt(local, den), den // gcd(local, den)
                if m % order:
                    report["notes"].append(
                        f"{comp} at cluster {number}: local class {value} has denominator "
                        f"{order}, which does not divide the index {m}; no primitivity line")
                    continue
                rep = class_group.local_primitivity(Fraction(local, den), m)
                report["primitivity"].append({
                    "component": comp,
                    "cluster": number,
                    "index": m,
                    "local_value": value,
                    "image_order": rep.image_order,
                    "splitting_degree": rep.splitting_degree,
                    "primitive": rep.primitive,
                })
    return report


def render_analysis(report: dict) -> list[str]:
    lines = [
        f"graph: {report['vertices']} vertices "
        f"({report['exceptional']} exceptional, {report['components']} components)",
        f"tree: {'yes' if report['tree'] else 'no'}",
    ]
    for i, c in enumerate(report["clusters"], 1):
        lines.append(
            f"cluster {i}: {' '.join(c['ids'])} ({c['shape']}), "
            f"negative definite: {'yes' if c['negative_definite'] else 'no'}"
        )
        if "error" in c:
            lines.append(f"  {c['error']}")
            continue
        coeffs = " ".join([f"{v}={x}" for v, x in c["codiscrepancy"].items()])
        lines.append(f"  codiscrepancy: {coeffs}")
        lines.append(f"  class: {c['class']}")
        if "chain" in c:
            chain = ",".join(map(str, c["chain"]))
            lines.append(f"  chain [{chain}] -> {c['quot']}")
            dv = c["du_val"]
            lines.append(f"  Du Val: {'A' + str(dv) if dv is not None else 'no'}")
            if c["t"]:
                lines.append(f"  class T: yes, index {c['t_index']}")
            else:
                lines.append("  class T: no")
        if "assumed_index" in c:
            lines.append(f"  assumed point index: {c['assumed_index']}")
    for entry in report["k"]:
        verdict = "K-negative" if entry["k_negative"] else "NOT K-negative"
        extra = f" ({entry['note']})" if "note" in entry else ""
        lines.append(f"K.C({entry['id']}) = {entry['k']}  [{verdict}]{extra}")
    if report["feasible"] is not None:
        lines.append(f"germ feasible: {'yes' if report['feasible'] else 'no'}")
    if report["primitivity"]:
        lines.append(f"primitivity ({report['primitivity_note']}):")
        for p in report["primitivity"]:
            verdict = "primitive" if p["primitive"] else (
                f"imprimitive, splitting degree {p['splitting_degree']}"
            )
            lines.append(
                f"  {p['component']} at cluster {p['cluster']} (index {p['index']}): "
                f"local class {p['local_value']}, image order {p['image_order']}, {verdict}"
            )
    for note in report["notes"]:
        lines.append(f"note: {note}")
    return lines


# ---------------------------------------------------------------------------
# the driver


class CheckResult(NamedTuple):
    """One check and the two values it compared, which ``expected`` and
    ``got`` render with ``show`` only when read: by a FAIL line or as JSON.
    A named tuple, since a run builds hundreds, which a frozen dataclass
    builds about three times slower."""

    case: str
    check: str
    ok: bool
    expected_value: object
    got_value: object
    show: Callable[[object], str] = repr  # the sweep and table checks compare text: str

    @property
    def expected(self) -> str:
        return self.show(self.expected_value)

    @property
    def got(self) -> str:
        return self.show(self.got_value)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        out = f"{status} {self.case}: {self.check}"
        if not self.ok:
            out += f" (expected {self.expected}, got {self.got})"
        return out


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)
    sweep_lines: list[str] = field(default_factory=list)

    def add(self, case: str, check: str, expected, got) -> None:
        self.checks.append(CheckResult(case, check, expected == got, expected, got))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> list[str]:
        lines = [c.line() for c in self.checks]
        lines += self.sweep_lines
        failed = sum(1 for c in self.checks if not c.ok)
        lines.append(
            f"{len(self.checks)} checks, {failed} failed"
            if failed else f"{len(self.checks)} checks, all passed"
        )
        return lines


# (label, key) of the per-cluster checks around the coefficients and class, in
# report order; the chain ones run on chain clusters, the index on class-T ones
_SHAPE_CHECKS = (("shape", "shape"), ("contractible", "negative_definite"))
_CHAIN_CHECKS = (("chain", "chain"), ("quotient", "quot"), ("class T", "t"),
                 ("index", "t_index"), ("Du Val", "du_val"))


def _check_case(case: dict, report: VerifyReport) -> None:
    name = case["name"]
    if "graph" in case:
        g = parse_graph(read_data(case["graph"]))
        analysis = analyze_graph(g, point_index=case.get("point_index"))
        report.add(name, "tree", _value(case["is_tree"]), analysis["tree"])
        expected_clusters = case.get("clusters", [])
        report.add(name, "cluster count", len(expected_clusters), len(analysis["clusters"]))
        for want, got in zip(expected_clusters, analysis["clusters"]):
            cid = want["ids"][0]
            # bare ids: _value reads any [str, str] as a (value, source) pair
            report.add(name, f"cluster {cid} members", want["ids"], got["ids"])
            for label, key in _SHAPE_CHECKS:
                report.add(name, f"cluster {cid} {label}", _value(want[key]), got[key])
            for v, leaf in want["codiscrepancy"].items():
                report.add(name, f"coefficient {v}", _value(leaf),
                           got.get("codiscrepancy", {}).get(v))
            report.add(name, f"cluster {cid} class", _value(want["class"]), got.get("class"))
            for label, key in _CHAIN_CHECKS if "chain" in want else ():
                if key != "t_index" or _value(want["t"]):
                    report.add(name, f"cluster {cid} {label}", _value(want[key]), got.get(key))
        got_k = {e["id"]: e["k"] for e in analysis["k"]}
        for comp, leaf in case.get("k_values", {}).items():
            report.add(name, f"degree {comp}", _value(leaf), got_k.get(comp))
        report.add(name, "feasible", _value(case["feasible"]), analysis["feasible"])
        for comp, leaf in case.get("splitting", {}).items():
            got_deg = next(
                (p["splitting_degree"] for p in analysis["primitivity"]
                 if p["component"] == comp), None
            )
            report.add(name, f"splitting degree {comp}", _value(leaf), got_deg)
    if "global_split" in case:
        spec = case["global_split"]
        got = class_group.global_imprimitivity([tuple(p) for p in spec["points"]])
        report.add(name, "global splitting degree", _value(spec["degree"]), got.degree)
        report.add(name, "base singularity", _value(spec["base"]), got.base_singularity)
    for d in case.get("descriptors", []):
        descriptor = germ_rules.parse_descriptor(read_data(d["file"]))
        verdict = germ_rules.validate_against_table(descriptor)
        label = d["file"].rsplit(".", 1)[0]
        report.add(name, f"descriptor {label} accepted", True, verdict.accepted)
        report.add(name, f"descriptor {label} row", _value(d["row"]), verdict.row)


def verify_paper(sweep_max: int = 49) -> VerifyReport:
    """Run every corpus case and the scripted sweeps; aggregate pass/fail."""
    report = VerifyReport()
    for case in sorted(load_corpus()["cases"], key=lambda c: c["name"]):
        _check_case(case, report)

    sweeps = (
        ("rigid-chain exclusion", ell_calc.ic_sweep(sweep_max)),
        ("k3a exclusion", ell_calc.kad_sweep("k3a", sweep_max)),
        ("kad exclusion", ell_calc.kad_sweep("kad", sweep_max)),
    )
    for check, summary in sweeps:
        ok = summary.all_contradicted
        report.checks.append(CheckResult(
            "sweep", check, ok, "all tuples contradicted", "ok" if ok else summary.failure, str))
        survivors = f"{summary.survivors} reach the final step, " if summary.script == "ic" else ""
        report.sweep_lines.append(
            f"sweep {summary.script} (max {sweep_max}): {summary.total} tuples, "
            f"{survivors}{summary.verdict()}"
        )

    table = germ_rules.check_table2()
    report.checks.append(CheckResult(
        "table2", "flip table consistency", table.all_consistent,
        "all rows consistent", "ok" if table.all_consistent else "failure", str))
    for check in table.checks:
        report.sweep_lines.append(
            f"table2 {check.row.germ_type} [{check.row.source_label}]: "
            f"{check.row.k_dot_c} -> {check.transferred} "
            f"{'ok' if check.consistent and check.unit_pairing else 'MISMATCH'}"
        )
    return report
