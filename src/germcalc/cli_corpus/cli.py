"""Command-line surface tying the analysis modules together.

Each subcommand handler returns ``(payload, lines, exit_code)``.  ``main``
prints it, the lines as text or the payload as JSON under ``--json``, and maps
input errors to one ``error:`` line.  ``verify-paper``, whose payload renders
every check's values, builds only the half that ``main`` prints and leaves
the other None.  Exit codes: 0 success, 1 verification mismatch or
contradiction-free failure of an expected check, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from fractions import Fraction

from .. import cyclic_quot, ell_calc, germ_rules
from ..dual_graph import parse_graph
from ..exactlinalg import digit_limit_problem, excerpt, fmt
from . import corpus


def _cmd_analyze(args) -> tuple[dict, list[str], int]:
    if args.point_index is not None and args.point_index < 2:
        raise ValueError(f"--point-index {args.point_index} is below 2, the smallest "
                         "index of a non-Gorenstein point")
    with open(args.file, encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    report = corpus.analyze_graph(
        g, point_index=args.point_index, assume_generator=args.assume_generator
    )
    return report, corpus.render_analysis(report), 0


def _check_sweep_max(sweep_max: int, scripts) -> None:
    """Reject a cap at which one of ``scripts`` admits no tuple, an input error."""
    smallest = max(ell_calc.smallest_sweep_max(s) for s in scripts)
    if sweep_max < smallest:
        raise ValueError(f"--sweep-max {sweep_max} is below {smallest}, the smallest cap "
                         "at which every sweep admits a tuple")


def _cmd_verify(args) -> tuple[dict | None, list[str] | None, int]:
    _check_sweep_max(args.sweep_max, ell_calc.SCRIPTS)
    report = corpus.verify_paper(sweep_max=args.sweep_max)
    code = 0 if report.ok else 1
    if not args.json:  # a passing check's line renders none of its values
        return None, report.render(), code
    payload = {
        "checks": [{"case": c.case, "check": c.check, "ok": c.ok, "expected": c.expected,
                    "got": c.got} for c in report.checks],
        "sweeps": report.sweep_lines,
        "ok": report.ok,
    }
    return payload, None, code


def _class_t_result(cert, payload: dict, lines: list[str], extra: dict, *detail: str):
    """Append the class-T verdict, with ``extra`` keys and ``detail`` lines if positive."""
    payload["class_t"] = cert.verdict
    if not cert.verdict:
        return payload, [*lines, "class T: no"], 0
    payload.update(t_index=cert.m, **extra)
    verdict = f"class T: yes, index {cert.m} (d={cert.d}, m={cert.m}, a={cert.a})"
    return payload, [*lines, verdict, *detail], 0


def _int_list(text: str, what: str) -> tuple[int, ...]:
    """The integers of the comma-separated ``text``, else a ValueError naming ``what``."""
    try:
        return tuple([int(x) for x in text.split(",")])
    except ValueError:
        raise ValueError(digit_limit_problem(what, text) or f"{what} {excerpt(text)} is not a "
                         "comma-separated list of integers") from None


def _int_arg(text: str) -> int:
    """An int-valued option's converter: argparse's own message for a bad int
    would echo the whole token, however long."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(digit_limit_problem("value", text)
                                         or f"invalid int value: {excerpt(text)}") from None


def _cmd_quot(args) -> tuple[dict, list[str], int]:
    entries = _int_list(args.chain, "chain")
    c = cyclic_quot.HJChain(entries)
    quot = cyclic_quot.chain_to_quot(c)
    cert = cyclic_quot.classify_T(quot)
    dv = cyclic_quot.du_val_A(c)
    return _class_t_result(
        cert,
        {"chain": list(entries), "quot": str(quot), "du_val": dv},
        [f"chain [{','.join(map(str, entries))}] -> {quot}",
         f"Du Val: {'A' + str(dv) if dv is not None else 'no'}"],
        {"t_data": {"d": cert.d, "m": cert.m, "a": cert.a}},
    )


def _cmd_tchain(args) -> tuple[dict, list[str], int]:
    quot = cyclic_quot.CycQuot(args.n, args.q)
    c = cyclic_quot.quot_to_chain(quot)
    cert = cyclic_quot.classify_T(quot)
    base, steps = list(cert.base or ()), list(cert.steps or ())
    return _class_t_result(
        cert,
        {"quot": str(quot), "chain": list(c.entries)},
        [f"{quot} -> chain [{','.join(str(a) for a in c.entries)}]"],
        {"base": base, "steps": steps},
        f"  derivation: base {base} steps [{', '.join(steps) or 'none'}]",
    )


def _cmd_classify(args) -> tuple[dict, list[str], int]:
    with open(args.file, encoding="utf-8") as fh:
        descriptor = germ_rules.parse_descriptor(fh.read())
    verdict = germ_rules.validate_against_table(descriptor)
    if verdict.accepted:
        lines = [f"accepted: row {verdict.row} [{verdict.citation}]"]
        lines += [f"note: {n}" for n in verdict.notes]
    else:
        lines = [f"rejected: {verdict.reason} [{verdict.citation}]"]
    return dataclasses.asdict(verdict), lines, 0 if verdict.accepted else 1


def _cmd_flip(args) -> tuple[dict, list[str], int]:
    plus = _int_list(args.plus_indices, "--plus-indices") if args.plus_indices else ()
    data = germ_rules.FlipGermData(args.index, plus)
    if re.search(r"[\d.][eE]", args.kc):  # Fraction would expand 1e<n> to n digits
        raise ValueError(f"--kc {excerpt(args.kc)} is in exponent notation; give p/q or a decimal")
    try:
        kc = Fraction(args.kc)
    except (ValueError, ZeroDivisionError) as err:  # "1/0" raises ZeroDivisionError
        raise ValueError(digit_limit_problem("--kc", args.kc)
                         or str(err).replace(repr(args.kc), excerpt(args.kc))) from None
    try:
        value = germ_rules.flip_transfer(data, kc)
    except ValueError as err:
        raise ValueError(f"--index {excerpt(str(args.index))} --kc {excerpt(args.kc)}: "
                         f"{err}") from None
    degree, value = fmt(kc), fmt(value)
    payload = {
        "index": args.index,
        "kc": degree,
        "plus_indices": list(plus),
        "index_plus": data.index_plus,
        "kc_plus": value,
    }
    return payload, [
        f"index {args.index}, degree {degree}, flipped index {data.index_plus}"
        f" -> flipped degree {value}"
    ], 0


def _cmd_disprove(args) -> tuple[dict, list[str], int]:
    """Run one exclusion script: kad's ``--subcase`` names it; without one it is ic."""
    inputs = (args.m, args.mprime, args.aprime)
    script = ell_calc.SCRIPTS[args.script]
    if args.sweep_max is not None:
        if inputs != (None, None, None):
            raise ValueError("provide --m/--mprime/--aprime or --sweep-max, not both")
        _check_sweep_max(args.sweep_max, (args.script,))
        summary = script.sweep(args.sweep_max)
        line = (f"sweep {summary.script} (max {args.sweep_max}): {summary.total} tuples, "
                f"{summary.verdict()}")
        return dataclasses.asdict(summary), [line], 0 if summary.all_contradicted else 1
    if None in inputs:
        raise ValueError("provide --m/--mprime/--aprime or --sweep-max")
    trace = script.disproof(*inputs)
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
    return payload, trace.render(), {"contradiction": 0, "rejected": 2}.get(trace.status, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germcalc",
        description="Exact analysis of curve-configuration graphs, quotient "
                    "singularities, and extremal-germ classification rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a configuration graph file")
    p.add_argument("file")
    p.add_argument("--point-index", type=_int_arg, default=None,
                   help="index to assume for clusters without a recognised one")
    p.add_argument("--assume-generator", action="store_true",
                   help="enable primitivity lines for clusters with a known index")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify-paper",
                       help="run the built-in corpus, sweeps, and flip table")
    p.add_argument("--sweep-max", type=_int_arg, default=49)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("quot", help="chain -> quotient type, with certificates")
    p.add_argument("chain", help="comma-separated entries, e.g. 3,2,5,4,2")
    p.set_defaults(func=_cmd_quot)

    p = sub.add_parser("tchain", help="quotient type -> chain, with certificates")
    p.add_argument("n", type=_int_arg)
    p.add_argument("q", type=_int_arg)
    p.set_defaults(func=_cmd_tchain)

    p = sub.add_parser("classify", help="match a germ descriptor file against the table")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("flip", help="transfer a canonical degree through a flip")
    p.add_argument("--index", type=_int_arg, required=True)
    p.add_argument("--kc", required=True, help="canonical degree, e.g. --kc=-1/4")
    p.add_argument("--plus-indices", default="",
                   help="comma-separated indices on the flipped side")
    p.set_defaults(func=_cmd_flip)

    for name, help_text, subcases in (
        ("ic-disprove", "run the rigid-chain exclusion script", None),
        ("kad-disprove", "run the chain-pair exclusion script", ["k3a", "kad"]),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--m", type=_int_arg)
        p.add_argument("--mprime", type=_int_arg)
        p.add_argument("--aprime", type=_int_arg)
        if subcases:
            p.add_argument("--subcase", dest="script", choices=subcases, required=True)
        p.add_argument("--sweep-max", type=_int_arg, default=None)
        p.set_defaults(func=_cmd_disprove, script="ic")

    parser.add_argument("--json", action="store_true",
                        help="emit the same content as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = args.func(args)
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
        sys.stdout.flush()  # a closed pipe fails here, inside the boundary
    except (OSError, ValueError) as err:  # GraphError and DescriptorError included
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
