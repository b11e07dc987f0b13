"""Independent checks of germcalc outputs.

Nothing here imports germcalc: every check recomputes its answer with its own
arithmetic, so a defect in a layer cannot hide itself by agreeing with a copy
of itself.  Each ``check_*`` function returns a list of problem strings; an
empty list means the output passed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

# ---------------------------------------------------------------------------
# chains and quotients


def chain_value(entries) -> tuple[int, int]:
    """(n, q) with n/q = a_1 - 1/(a_2 - 1/(...)), by the integer recurrence."""
    n, q = entries[-1], 1
    for a in reversed(entries[:-1]):
        n, q = a * n - q, n
    return n, q


def expand(n: int, q: int) -> list[int]:
    """Hirzebruch-Jung expansion of n/q (0 < q < n, coprime)."""
    out = []
    while q:
        a = (n + q - 1) // q
        out.append(a)
        n, q = q, a * q - n
    return out


def class_t_data(n: int, q: int) -> tuple[int, int, int] | None:
    """(d, m, a) with n = d m^2, q + 1 = d m a, gcd(a, m) = 1, or None.

    Closed form: for class-T data gcd(n, q + 1) = d m, so m is forced.
    """
    m = n // gcd(n, q + 1)
    if m < 2 or n % (m * m):
        return None
    d = n // (m * m)
    if (q + 1) % (d * m):
        return None
    a = (q + 1) // (d * m)
    if not 1 <= a < m or gcd(a, m) != 1:
        return None
    return d, m, a


def replay(base, steps) -> list[int]:
    """Apply the growth moves: "L" prepends 2 and bumps the last entry,
    "R" bumps the first entry and appends 2."""
    cur = list(base)
    for step in steps:
        if step == "L":
            cur = [2] + cur[:-1] + [cur[-1] + 1]
        elif step == "R":
            cur = [cur[0] + 1] + cur[1:] + [2]
        else:
            raise ValueError(f"unknown step {step!r}")
    return cur


def _is_t_base(entries) -> bool:
    entries = list(entries)
    return entries == [4] or (
        len(entries) >= 2 and entries[0] == entries[-1] == 3
        and all(a == 2 for a in entries[1:-1])
    )


def check_chain_op(item: dict, out: dict) -> list[str]:
    """Check one chains-workload output against the closed forms.

    ``item`` is the generated input (``kind`` "chain" or "quot", plus the
    generator's class-T data when it has some); ``out`` holds plain values:
    n, q, chain, du_val, t, d, m, a, base, steps.
    """
    problems = []
    n, q, entries = out["n"], out["q"], list(out["chain"])
    if item["kind"] == "chain":
        if entries != list(item["entries"]):
            problems.append("certificate chain differs from the input chain")
        if (n, q) != chain_value(item["entries"]):
            problems.append(f"quotient 1/{n}(1,{q}) is not the chain's value")
        want_dv = len(entries) if all(a == 2 for a in entries) else None
        if out["du_val"] != want_dv:
            problems.append(f"du_val {out['du_val']} != {want_dv}")
    else:
        if (n, q) != (item["n"], item["q"]):
            problems.append("quotient differs from the input")
    if expand(n, q) != entries:
        problems.append("chain does not round-trip through its quotient")
    if chain_value(entries) != (n, q):
        problems.append("quotient does not round-trip through its chain")
    data = class_t_data(n, q)
    if out["t"] != (data is not None):
        problems.append(f"class-T verdict {out['t']} != closed form {data is not None}")
    if data is not None:
        if (out["d"], out["m"], out["a"]) != data:
            problems.append(f"class-T data {(out['d'], out['m'], out['a'])} != {data}")
        if item.get("data") is not None and tuple(item["data"]) != data:
            problems.append(f"closed form {data} != generator data {tuple(item['data'])}")
        if not _is_t_base(out["base"] or ()):
            problems.append(f"derivation base {out['base']} is not a class-T base")
        elif replay(out["base"], out["steps"] or ()) != entries:
            problems.append("derivation does not replay to the chain")
    elif item.get("data") is not None:
        problems.append("generator built class-T data but the closed form rejects it")
    return problems


# ---------------------------------------------------------------------------
# graphs


def clusters_of(graph: dict) -> list[list[str]]:
    """Connected pieces of the exceptional-only subgraph, in input order."""
    exc = [v for v, (kind, _) in graph["vertices"].items() if kind == "exc"]
    excset = set(exc)
    adj = adjacency(graph)
    seen: set[str] = set()
    out = []
    for v in exc:
        if v in seen:
            continue
        comp, stack = [v], [v]
        seen.add(v)
        while stack:
            for nb in adj[stack.pop()]:
                if nb in excset and nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
                    stack.append(nb)
        out.append(comp)
    return out


def adjacency(graph: dict) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in graph["vertices"]}
    for a, b in graph["edges"]:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def shape_of(graph: dict, ids) -> str:
    ids = set(ids)
    adj = adjacency(graph)
    deg = sorted((len(adj[v] & ids) for v in ids), reverse=True)
    acyclic = sum(deg) // 2 == len(ids) - 1
    if acyclic and deg[0] <= 2:
        return "chain"
    if acyclic and deg[0] == 3 and (len(deg) == 1 or deg[1] <= 2):
        return "fork"
    return "other"


def symmetric_pivots(graph: dict, ids) -> list[Fraction] | None:
    """Pivots of a symmetric Fraction elimination of the cluster's form.

    Vertices are eliminated lowest current degree first (leaves first on a
    tree, so no fill-in).  The pivots are congruent to the form, so the form
    is negative definite iff every pivot is negative; elimination stops (and
    returns None) at the first pivot that is not.
    """
    ids = list(ids)
    idset = set(ids)
    order = {v: i for i, v in enumerate(ids)}
    rows: dict[str, dict[str, Fraction]] = {
        v: {v: Fraction(graph["vertices"][v][1])} for v in ids
    }
    for a, b in graph["edges"]:
        if a in idset and b in idset:
            rows[a][b] = Fraction(1)
            rows[b][a] = Fraction(1)
    pivots = []
    while rows:
        v = min(rows, key=lambda u: (len(rows[u]), order[u]))
        row = rows.pop(v)
        p = row.pop(v, Fraction(0))
        if p >= 0:
            return None
        pivots.append(p)
        nbs = list(row.items())
        for u, x in nbs:
            ru = rows[u]
            del ru[v]
            for w, y in nbs:
                val = ru.get(w, Fraction(0)) - x * y / p
                if val:
                    ru[w] = val
                else:
                    ru.pop(w, None)
    return pivots


def abs_det(pivots: list[Fraction]) -> int:
    det = Fraction(1)
    for p in pivots:
        det *= p
    if det.denominator != 1:
        raise ArithmeticError("integer matrix with a non-integral determinant")
    return abs(det.numerator)


def check_graph_op(item: dict, report: dict, lines: list[str]) -> list[str]:
    """Check ``analyze_graph``/``render_analysis`` output for one graph.

    ``item["graph"]`` is the generator's structure (vertex id -> (kind, self),
    edge list), never the parsed graph.
    """
    graph = item["graph"]
    verts = graph["vertices"]
    adj = adjacency(graph)
    problems: list[str] = []
    n_exc = sum(1 for k, _ in verts.values() if k == "exc")
    comps = [v for v, (k, _) in verts.items() if k == "comp"]
    if (report["vertices"], report["exceptional"], report["components"]) != (
        len(verts), n_exc, len(comps)
    ):
        problems.append("vertex counts differ")
    if report["tree"] != (len(graph["edges"]) == len(verts) - 1):
        problems.append("tree verdict differs")

    want = {frozenset(c): c for c in clusters_of(graph)}
    got_sets = [frozenset(c["ids"]) for c in report["clusters"]]
    if set(got_sets) != set(want) or len(got_sets) != len(want):
        return problems + ["cluster membership differs"]

    coeff: dict[str, Fraction] = {}
    all_nd = True
    index_of: dict[int, int] = {}
    for ci, c in enumerate(report["clusters"]):
        ids = c["ids"]
        if c["shape"] != shape_of(graph, ids):
            problems.append(f"cluster {ci + 1} shape {c['shape']}")
        pivots = symmetric_pivots(graph, ids)
        if c["negative_definite"] != (pivots is not None):
            problems.append(f"cluster {ci + 1} definiteness verdict differs")
            continue
        if pivots is None:
            all_nd = False
            continue
        d = {v: Fraction(c["codiscrepancy"][v]) for v in ids}
        for v in ids:
            lhs = verts[v][1] * d[v] + sum(d[u] for u in adj[v] if u in d)
            if lhs != 2 + verts[v][1]:
                problems.append(f"M.d != 2 - a at {v}")
                break
        if any(x < 0 for x in d.values()):
            problems.append(f"cluster {ci + 1} has a negative coefficient")
        top = max(d.values())
        klass = ("log_terminal" if top < 1 else
                 "log_canonical_strict" if top == 1 else "not_log_canonical")
        if c["class"] != klass:
            problems.append(f"cluster {ci + 1} class {c['class']} != {klass}")
        coeff.update(d)
        index = item["point_index"]
        if "chain" in c:
            entries = [-verts[v][1] for v in ids]
            if any(ids[i + 1] not in adj[ids[i]] for i in range(len(ids) - 1)):
                problems.append(f"cluster {ci + 1} chain is not a path")
            if c["chain"] != entries:
                problems.append(f"cluster {ci + 1} chain entries differ")
            n, q = chain_value(entries)
            if c["quot"] != f"1/{n}(1,{q})":
                problems.append(f"cluster {ci + 1} quotient {c['quot']} != 1/{n}(1,{q})")
            dv = len(entries) if all(a == 2 for a in entries) else None
            if c["du_val"] != dv:
                problems.append(f"cluster {ci + 1} Du Val verdict differs")
            data = class_t_data(n, q)
            if c["t"] != (data is not None) or c["t_index"] != (data[1] if data else None):
                problems.append(f"cluster {ci + 1} class-T verdict or index differs")
            if data:
                index = data[1]
        index_of[ci] = index

    if all_nd:
        want_k = []
        for v in comps:
            value = -1 + sum((coeff[u] for u in adj[v] if u in coeff), Fraction(0))
            want_k.append((v, str(value), value < 0))
        got_k = [(e["id"], e["k"], e["k_negative"]) for e in report["k"]]
        if got_k != want_k:
            problems.append("K.C degrees differ")
        if report["feasible"] != all(neg for _, _, neg in want_k):
            problems.append("feasibility verdict differs")
        for v, value, neg in want_k:
            verdict = "K-negative" if neg else "NOT K-negative"
            if not any(line.startswith(f"K.C({v}) = {value}  [{verdict}]") for line in lines):
                problems.append(f"rendered text lacks the K.C line for {v}")
    elif report["k"] or report["feasible"] is not None:
        problems.append("degrees reported although a cluster is not contractible")

    want_prim = set()
    for ci, c in enumerate(report["clusters"]):
        if ci not in index_of:
            continue
        members = set(c["ids"])
        for v in comps:
            local = sum((coeff[u] for u in adj[v] if u in members), Fraction(0))
            if local == 0:
                continue
            order = local.denominator
            deg = index_of[ci] // order
            want_prim.add((v, ci + 1, index_of[ci], str(local), order, deg, deg == 1))
    got_prim = {
        (p["component"], p["cluster"], p["index"], p["local_value"], p["image_order"],
         p["splitting_degree"], p["primitive"])
        for p in report["primitivity"]
    }
    if got_prim != want_prim or len(report["primitivity"]) != len(want_prim):
        problems.append("primitivity lines differ")

    header = (f"graph: {len(verts)} vertices ({n_exc} exceptional, "
              f"{len(comps)} components)")
    if not lines or lines[0] != header:
        problems.append("rendered header differs")
    return problems


# ---------------------------------------------------------------------------
# paper reproduction and command line

PAPER_CHECKS = 237  # corpus checks, three sweeps and the flip table, at any cap
PAPER_SWEEPS_AT_49 = {"ic": 8227, "kad/k3a": 376, "kad/kad": 8648}
_SWEEP_RE = re.compile(r"sweep (\S+) \(max (\d+)\): (\d+) tuples")


def sweep_totals(n: int) -> dict[str, int]:
    """Tuples each scripted run admits up to the cap ``n``, counted from the
    scripts' stated conditions: 0 < a' < m' coprime with 2(m' - a') < m';
    m = 3 for k3a, odd m >= 5 for kad, and for ic also (m + 1)/(2m) < a'/m'."""
    ic = k3a = kad = 0
    for mp in range(3, n + 1):
        for ap in range(1, mp):
            if gcd(ap, mp) != 1 or 2 * (mp - ap) >= mp:
                continue
            k3a += 1
            for m in range(5, n + 1, 2):
                kad += 1
                ic += (m + 1) * mp < 2 * m * ap
    return {"ic": ic, "kad/k3a": k3a, "kad/kad": kad}


def check_paper_op(out: dict, sweep_max: int) -> list[str]:
    """Check a ``verify_paper`` result: ok, the check count, the sweep totals."""
    problems = []
    if not out["ok"]:
        problems.append("report is not ok")
    if out["checks"] != PAPER_CHECKS:
        problems.append(f"{out['checks']} checks, expected {PAPER_CHECKS}")
    totals = {}
    for line in out["sweep_lines"]:
        m = _SWEEP_RE.match(line)
        if m and int(m.group(2)) == sweep_max:
            totals[m.group(1)] = int(m.group(3))
    want = sweep_totals(sweep_max)
    if totals != want:
        problems.append(f"sweep totals {totals} != {want}")
    return problems


def check_cli_op(run: dict, reference: dict) -> list[str]:
    """Check one CLI child run against an in-process run of the same argv."""
    problems = []
    if run["code"] not in (0, 1, 2):
        problems.append(f"exit code {run['code']}")
    if "Traceback" in run["stderr"]:
        problems.append("traceback on stderr")
    if run["code"] != reference["code"]:
        problems.append(f"exit code {run['code']} != in-process {reference['code']}")
    if run["stdout"] != reference["stdout"]:
        problems.append("stdout differs from the in-process run")
    return problems
