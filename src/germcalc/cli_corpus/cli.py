"""Command-line surface tying the analysis modules together.

Every subcommand prints plain text; ``--json`` emits the same content as a
machine-readable object.  Exit codes: 0 success, 1 verification mismatch or
contradiction-free failure of an expected check, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .. import cyclic_quot, ell_calc, germ_rules
from ..dual_graph import parse_graph
from ..exactlinalg import fmt
from . import corpus


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def _cmd_analyze(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    report = corpus.analyze_graph(
        g, point_index=args.point_index, assume_generator=args.assume_generator
    )
    _emit(args, report, corpus.render_analysis(report))
    return 0


def _check_sweep_max(sweep_max: int, scripts: tuple[str, ...]) -> None:
    """Reject a cap at which some script admits no tuple, an input error."""
    smallest = max(ell_calc.smallest_sweep_max(s) for s in scripts)
    if sweep_max < smallest:
        raise ValueError(f"--sweep-max {sweep_max} is below {smallest}, the smallest cap "
                         "at which every sweep admits a tuple")


def _cmd_verify(args) -> int:
    _check_sweep_max(args.sweep_max, ("ic", "k3a", "kad"))
    report = corpus.verify_paper(sweep_max=args.sweep_max)
    payload = {
        "checks": [dataclasses.asdict(c) for c in report.checks],
        "sweeps": report.sweep_lines,
        "ok": report.ok,
    }
    _emit(args, payload, report.render())
    return 0 if report.ok else 1


def _cmd_quot(args) -> int:
    entries = tuple(int(x) for x in args.chain.split(","))
    c = cyclic_quot.HJChain(entries)
    quot = cyclic_quot.chain_to_quot(c)
    cert = cyclic_quot.classify_T(quot)
    dv = cyclic_quot.du_val_A(c)
    payload = {
        "chain": list(entries),
        "quot": str(quot),
        "du_val": dv,
        "class_t": cert.verdict,
    }
    lines = [f"chain [{args.chain}] -> {quot}"]
    lines.append(f"Du Val: {'A' + str(dv) if dv is not None else 'no'}")
    if cert.verdict:
        payload["t_index"] = cert.m
        payload["t_data"] = {"d": cert.d, "m": cert.m, "a": cert.a}
        lines.append(f"class T: yes, index {cert.m} (d={cert.d}, m={cert.m}, a={cert.a})")
    else:
        lines.append("class T: no")
    _emit(args, payload, lines)
    return 0


def _cmd_tchain(args) -> int:
    quot = cyclic_quot.CycQuot(args.n, args.q)
    c = cyclic_quot.quot_to_chain(quot)
    cert = cyclic_quot.classify_T(quot)
    payload = {
        "quot": str(quot),
        "chain": list(c.entries),
        "class_t": cert.verdict,
    }
    lines = [f"{quot} -> chain [{','.join(str(a) for a in c.entries)}]"]
    if cert.verdict:
        payload["t_index"] = cert.m
        payload["base"] = list(cert.base or ())
        payload["steps"] = list(cert.steps or ())
        lines.append(
            f"class T: yes, index {cert.m} (d={cert.d}, m={cert.m}, a={cert.a})"
        )
        steps = ", ".join(cert.steps) if cert.steps else "none"
        lines.append(f"  derivation: base {list(cert.base)} steps [{steps}]")
    else:
        lines.append("class T: no")
    _emit(args, payload, lines)
    return 0


def _cmd_classify(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        descriptor = germ_rules.parse_descriptor(fh.read())
    verdict = germ_rules.validate_against_table(descriptor)
    payload = dataclasses.asdict(verdict)
    if verdict.accepted:
        lines = [f"accepted: row {verdict.row} [{verdict.citation}]"]
        lines += [f"note: {n}" for n in verdict.notes]
    else:
        lines = [f"rejected: {verdict.reason} [{verdict.citation}]"]
    _emit(args, payload, lines)
    return 0 if verdict.accepted else 1


def _cmd_flip(args) -> int:
    plus = tuple(int(x) for x in args.plus_indices.split(",")) if args.plus_indices else ()
    data = germ_rules.FlipGermData(args.index, plus)
    try:
        kc = Fraction(args.kc)
    except ZeroDivisionError as err:  # a zero denominator, as in "1/0"
        raise ValueError(err) from None
    value = germ_rules.flip_transfer(data, kc)
    payload = {
        "index": args.index,
        "kc": args.kc,
        "plus_indices": list(plus),
        "index_plus": data.index_plus,
        "kc_plus": fmt(value),
    }
    _emit(args, payload, [
        f"index {args.index}, degree {args.kc}, flipped index {data.index_plus}"
        f" -> flipped degree {fmt(value)}"
    ])
    return 0


def _run_disproof(args, runner, needs_subcase: bool) -> int:
    extra = (args.subcase,) if needs_subcase else ()
    if args.sweep_max is not None:
        _check_sweep_max(args.sweep_max, extra or ("ic",))
        if needs_subcase:
            summary = ell_calc.kad_sweep(args.subcase, args.sweep_max)
        else:
            summary = ell_calc.ic_sweep(args.sweep_max)
        payload = dataclasses.asdict(summary)
        line = (
            f"sweep {summary.script} (max {args.sweep_max}): {summary.total} tuples, "
            f"{summary.verdict()}"
        )
        _emit(args, payload, [line])
        return 0 if summary.all_contradicted else 1
    if None in (args.m, args.mprime, args.aprime):
        raise ValueError("provide --m/--mprime/--aprime or --sweep-max")
    trace = runner(args.m, args.mprime, args.aprime, *extra)
    payload = {
        "script": trace.script,
        "inputs": list(trace.inputs),
        "status": trace.status,
        "rejection": trace.rejection or None,
    }
    if trace.status == "rejected":
        value = trace.rejection_value
        payload["rejection_value"] = None if value is None else fmt(value)
    payload["steps"] = [
        {"name": s.name, "value": None if s.value is None else fmt(s.value),
         "verdict": s.verdict, "note": s.note}
        for s in trace.steps
    ]
    _emit(args, payload, trace.render())
    if trace.status == "contradiction":
        return 0
    return 2 if trace.status == "rejected" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germcalc",
        description="Exact analysis of curve-configuration graphs, quotient "
                    "singularities, and extremal-germ classification rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a configuration graph file")
    p.add_argument("file")
    p.add_argument("--point-index", type=int, default=None,
                   help="index to assume for clusters without a recognised one")
    p.add_argument("--assume-generator", action="store_true",
                   help="enable primitivity lines for clusters with a known index")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify-paper",
                       help="run the built-in corpus, sweeps, and flip table")
    p.add_argument("--sweep-max", type=int, default=49)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("quot", help="chain -> quotient type, with certificates")
    p.add_argument("chain", help="comma-separated entries, e.g. 3,2,5,4,2")
    p.set_defaults(func=_cmd_quot)

    p = sub.add_parser("tchain", help="quotient type -> chain, with certificates")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_tchain)

    p = sub.add_parser("classify", help="match a germ descriptor file against the table")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("flip", help="transfer a canonical degree through a flip")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--kc", required=True, help="canonical degree, e.g. -1/4")
    p.add_argument("--plus-indices", default="",
                   help="comma-separated indices on the flipped side")
    p.set_defaults(func=_cmd_flip)

    p = sub.add_parser("ic-disprove", help="run the rigid-chain exclusion script")
    p.add_argument("--m", type=int)
    p.add_argument("--mprime", type=int)
    p.add_argument("--aprime", type=int)
    p.add_argument("--sweep-max", type=int, default=None)
    p.set_defaults(func=lambda a: _run_disproof(a, ell_calc.ic_disproof, False))

    p = sub.add_parser("kad-disprove", help="run the chain-pair exclusion script")
    p.add_argument("--m", type=int)
    p.add_argument("--mprime", type=int)
    p.add_argument("--aprime", type=int)
    p.add_argument("--subcase", choices=["k3a", "kad"], required=True)
    p.add_argument("--sweep-max", type=int, default=None)
    p.set_defaults(func=lambda a: _run_disproof(a, ell_calc.kad_disproof, True))

    parser.add_argument("--json", action="store_true",
                        help="emit the same content as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:  # GraphError and DescriptorError included
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
