"""Spans around the calls into germcalc's public functions.

``Tracer.install`` replaces each listed function at every module attribute
that holds it (``resolution`` keeps its own ``is_negative_definite``,
``corpus`` its own ``parse_graph``, and so on), so nested calls nest as
spans whichever binding the caller used.  Spans live in flat arrays until the
run ends; self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import isqrt
from pathlib import Path
from time import perf_counter

from oracles import expand

# module (relative to germcalc) -> public functions that get a span
LAYERS = {
    "exactlinalg": ("leading_principal_minors", "det_bareiss", "solve_exact"),
    "dual_graph": ("parse_graph", "exceptional_clusters", "intersection_matrix",
                   "is_negative_definite"),
    "resolution": ("codiscrepancy", "k_dot_components"),
    "cyclic_quot": ("classify_T", "chain_to_quot", "quot_to_chain"),
    "class_group": ("local_primitivity", "global_imprimitivity"),
    "ell_calc": ("ic_sweep", "kad_sweep", "ic_disproof", "kad_disproof", "tensor",
                 "dual", "normalize", "glued_h0", "thm812_check"),
    "germ_rules": ("parse_descriptor", "validate_against_table", "check_table2"),
    "cli_corpus.corpus": ("analyze_graph", "render_analysis", "verify_paper",
                          "load_corpus"),
    "cli_corpus.cli": ("main",),
}

# size curves: (upper bound, label) on matrix order and on chain length
ORDER_BUCKETS = ((4, "le4"), (8, "le8"), (16, "le16"), (32, "le32"), (64, "le64"),
                 (None, "gt64"))
LENGTH_BUCKETS = ((8, "le8"), (16, "le16"), (24, "le24"), (100, "le100"),
                  (600, "le600"), (None, "gt600"))
TRACE_ENDS = ("width-2-degree", "width-3-degree", "section-count-conflict",
              "multiplicity-conflict", "rejected", "other")
SWEEPS = ("ic", "k3a", "kad")


def bucket(value: int, buckets) -> str:
    return next(label for top, label in buckets if top is None or value <= top)


def _chain_length(quot) -> int:
    return len(expand(quot.n, quot.q))


class Tracer:
    """Span recorder: ``install`` it, set ``op_id`` before each op, then read
    ``metrics`` and ``write`` the spans."""

    def __init__(self):
        self.names: list[str] = []  # by name id
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_op = array("i")
        self.tags: dict[int, object] = {}  # span index -> matrix order, length, subcase
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()  # module -> exceptions that left it
        self._stack: list[int] = []
        self.op_id = -1

    # -- recording ---------------------------------------------------------

    def _wrap(self, module: str, fn_name: str, fn):
        name = f"{module}.{fn_name}"
        nid = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        stack, starts, ends = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            result = None
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                # count an exception once per module it leaves, however deep
                seen = exc.__dict__.setdefault("_traced_modules", set())
                if module not in seen:
                    seen.add(module)
                    self.failed[module] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(self, idx, args, kwargs, result)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def install(self):
        """Wrap every binding of the listed functions; restore them on exit."""
        originals = {}
        for module, fns in LAYERS.items():
            mod = sys.modules[f"germcalc.{module}"]
            for fn_name in fns:
                fn = getattr(mod, fn_name)
                originals[id(fn)] = (fn, self._wrap(module, fn_name, fn))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("germcalc"):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[float]]:
        """(inclusive, self) seconds for every span, by span index."""
        incl = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(incl)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += incl[idx]
        return incl, [i - c for i, c in zip(incl, child)]

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for a traced pass that took ``wall_s`` seconds."""
        incl, own = self.self_times()
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        incl_s: defaultdict = defaultdict(float)
        for idx, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += own[idx]
            incl_s[nid] += incl[idx]
        out: dict[str, float] = {}
        by_name = {name: nid for nid, name in enumerate(self.names)}
        for module, fns in LAYERS.items():
            for fn_name in fns:
                nid = by_name.get(f"{module}.{fn_name}")
                out[f"{module}.{fn_name}.calls"] = calls[nid] if nid is not None else 0
                out[f"{module}.{fn_name}.self_s"] = self_s[nid] if nid is not None else 0.0
            out[f"{module}.failed"] = self.failed[module]

        def named(name):
            return by_name.get(name, -1)

        order_self = dict.fromkeys((lbl for _, lbl in ORDER_BUCKETS), 0.0)
        length_self = dict.fromkeys((lbl for _, lbl in LENGTH_BUCKETS), 0.0)
        sweep_incl = dict.fromkeys(SWEEPS, 0.0)
        exact_ids = {named(f"exactlinalg.{f}") for f in LAYERS["exactlinalg"]}
        classify_id = named("cyclic_quot.classify_T")
        sweep_ids = {named("ell_calc.ic_sweep"), named("ell_calc.kad_sweep")}
        for idx, tag in self.tags.items():
            nid = self.span_name[idx]
            if nid in exact_ids:
                order_self[bucket(tag, ORDER_BUCKETS)] += own[idx]
            elif nid == classify_id:
                length_self[bucket(tag, LENGTH_BUCKETS)] += own[idx]
            elif nid in sweep_ids:
                sweep_incl[tag] += incl[idx]
        for lbl, value in order_self.items():
            out[f"exactlinalg.order_{lbl}.self_s"] = value
        for lbl, value in length_self.items():
            out[f"cyclic_quot.classify_T.len_{lbl}.self_s"] = value
        for lbl, value in sweep_incl.items():
            out[f"ell_calc.sweep_{lbl}.incl_s"] = value

        c = self.counts
        out["exactlinalg.bareiss_updates"] = c["bareiss_updates"]
        clusters = c["clusters"]
        nd_checks = out["dual_graph.is_negative_definite.calls"]
        out["dual_graph.nd_checks_per_cluster"] = nd_checks / clusters if clusters else 0.0
        out["cyclic_quot.witness_trials"] = c["witness_trials"]
        done = c["classified"]
        out["cyclic_quot.t_positive_ratio"] = c["t_positive"] / done if done else 0.0
        traces = c["traces"]
        trace_time = (incl_s[named("ell_calc.ic_disproof")]
                      + incl_s[named("ell_calc.kad_disproof")])
        out["ell_calc.traces_per_s"] = traces / trace_time if trace_time else 0.0
        out["ell_calc.contradiction_ratio"] = c["contradictions"] / traces if traces else 0.0
        for end in TRACE_ENDS:
            out[f"ell_calc.end.{end}"] = c[f"end.{end}"]
        out["trace.wall_s"] = wall_s
        out["trace.residual_s"] = wall_s - sum(own)
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans: a JSON index plus one binary array per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = {"name": self.span_name, "start": self.start, "end": self.end,
                  "parent": self.parent, "op": self.span_op}
        index = {"names": self.names, "spans": len(self.start),
                 "fields": {k: {"file": f"{path.name}.{k}.bin", "typecode": v.typecode,
                                "itemsize": v.itemsize, "byteorder": sys.byteorder}
                            for k, v in fields.items()},
                 "meta": meta}
        for key, arr in fields.items():
            with open(path.parent / f"{path.name}.{key}.bin", "wb") as fh:
                arr.tofile(fh)
        path.with_suffix(".json").write_text(json.dumps(index, indent=1))


# -- hooks: counts and size tags taken from call arguments and results -----


def _order_tag(tracer, idx, args, kwargs, result):
    tracer.tags[idx] = len(args[0])


def _det_hook(tracer, idx, args, kwargs, result):
    n = len(args[0])
    tracer.tags[idx] = n
    tracer.counts["bareiss_updates"] += (n - 1) * n * (2 * n - 1) // 6  # sum of (n-k-1)^2


def _clusters_hook(tracer, idx, args, kwargs, result):
    if result is not None:
        tracer.counts["clusters"] += len(result)


def _classify_hook(tracer, idx, args, kwargs, result):
    quot = args[0]
    tracer.counts["witness_trials"] += isqrt(quot.n) - 1
    if result is None:
        tracer.tags[idx] = _chain_length(quot)
        return
    tracer.tags[idx] = len(result.chain.entries)
    tracer.counts["classified"] += 1
    tracer.counts["t_positive"] += bool(result.verdict)


def _disproof_hook(tracer, idx, args, kwargs, result):
    if result is None:
        return
    tracer.counts["traces"] += 1
    if result.status == "contradiction":
        tracer.counts["contradictions"] += 1
    end = "rejected" if result.status == "rejected" else result.steps[-1].name
    tracer.counts[f"end.{end if end in TRACE_ENDS else 'other'}"] += 1


def _ic_sweep_hook(tracer, idx, args, kwargs, result):
    tracer.tags[idx] = "ic"


def _kad_sweep_hook(tracer, idx, args, kwargs, result):
    sub = args[0] if args else kwargs["subcase"]
    tracer.tags[idx] = sub if sub in SWEEPS else "kad"


_HOOKS = {
    "exactlinalg.leading_principal_minors": _order_tag,
    "exactlinalg.solve_exact": _order_tag,
    "exactlinalg.det_bareiss": _det_hook,
    "dual_graph.exceptional_clusters": _clusters_hook,
    "cyclic_quot.classify_T": _classify_hook,
    "ell_calc.ic_disproof": _disproof_hook,
    "ell_calc.kad_disproof": _disproof_hook,
    "ell_calc.ic_sweep": _ic_sweep_hook,
    "ell_calc.kad_sweep": _kad_sweep_hook,
}


def per_layer_names() -> list[str]:
    """Every per-layer metric name the traced run reports, in order."""
    return list(Tracer().metrics(1.0)) + ["trace.overhead_ratio",
                                          "known.chains_deep_recursion",
                                          "known.cli_tchain_traceback",
                                          "cli_corpus.cli.import_ms",
                                          "cli_corpus.cli.interpreter_ms"]
