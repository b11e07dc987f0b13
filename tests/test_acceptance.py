"""Acceptance suite: the nine exit criteria, all checked with exact equality.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline;
they also appear in captured output on failure).
"""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from conftest import admissible, from_rows, neg_def_by_char_poly, random_symmetric, step
from germcalc import cyclic_quot, ell_calc, germ_rules
from germcalc.cli_corpus import corpus
from germcalc.dual_graph import IntersectionMatrix, is_negative_definite, parse_graph
from germcalc.germ_rules import ComponentType as T
from germcalc.germ_rules import GermKind
from germcalc.class_group import NonGorPoint


def report(number, ok, summary):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, summary


def analyze(name, **kw):
    return corpus.analyze_graph(parse_graph(corpus.read_data(name)), **kw)


def test_criterion_1_imprimitive_star_example():
    rep = analyze("iidual_cb5.graph", point_index=4)
    cluster = rep["clusters"][0]
    ok = cluster["codiscrepancy"] == {"e0": "1", "e1": "3/4", "e2": "3/4", "e3": "1/2"}
    degrees = {e["id"]: F(e["k"]) for e in rep["k"]}
    ok &= degrees == {
        "c1": F(-1, 4), "c2": F(-1, 4), "c3": F(-1, 4), "c4": F(-1, 4),
        "c0": F(-1, 2),
    }
    split = {p["component"]: (p["splitting_degree"], p["primitive"])
             for p in rep["primitivity"]}
    ok &= all(split[c] == (1, True) for c in ("c1", "c2", "c3", "c4"))
    ok &= split["c0"] == (2, False)
    report(1, ok, "star graph: coefficients (1,3/4,3/4,1/2), degrees -1/4 and "
                  "-1/2, four primitive components plus one of splitting degree 2")


def test_criterion_2_imprimitive_chain_example():
    rep = analyze("k1a_c_k2.graph", point_index=12)
    cluster = rep["clusters"][0]
    ok = cluster["chain"] == [3, 2, 5, 4, 2]
    ok &= cluster["quot"] == "1/144(1,59)"
    ok &= cluster["t"] and cluster["t_index"] == 12
    ok &= cluster["codiscrepancy"]["e2"] == "3/4"
    degrees = {e["id"]: F(e["k"]) for e in rep["k"]}
    ok &= degrees["c1"] == F(-1, 4)
    split = {p["component"]: p["splitting_degree"] for p in rep["primitivity"]}
    ok &= split["c1"] == 3 and split["c0"] == 1
    report(2, ok, "chain [3,2,5,4,2]: type 1/144(1,59), class T of index 12, "
                  "second coefficient 3/4, degree -1/4, splitting degree 3")


def test_criterion_3_chain_family_sweep():
    ok = True
    for m in range(3, 31):
        c = cyclic_quot.HJChain((2,) * (m - 2) + (m + 2,))
        s = cyclic_quot.chain_to_quot(c)
        ok &= s == cyclic_quot.CycQuot(m * m, m * (m - 1) - 1)
        ok &= cyclic_quot.quot_to_chain(s) == c
        cert = cyclic_quot.classify_T(s)
        ok &= cert.verdict and cert.m == m
    report(3, ok, "family sweep 3..30: chains hit 1/m^2(1, m(m-1)-1), class T, "
                  "round trips exact")


def test_criterion_4_fork_with_detached_cluster():
    rep = analyze("cd3_a.graph")
    clusters = rep["clusters"]
    ok = len(clusters) == 2
    detached = clusters[0]
    fork = clusters[1]
    ok &= detached["du_val"] == 1 and detached["chain"] == [2]
    ok &= fork["shape"] == "fork"
    ok &= fork["codiscrepancy"] == {"v3": "2/3", "v4": "1", "v5": "2/3", "v7": "2/3"}
    degrees = {e["id"]: F(e["k"]) for e in rep["k"]}
    ok &= degrees == {"v2": F(-1, 3), "v6": F(-1, 3), "v8": F(-1, 3)}
    flip_row = next(r for r in germ_rules.TABLE2_ROWS if r.germ_type == "cD3")
    ok &= flip_row.k_dot_c == F(-1, 3)
    ok &= any("detached Du Val" in n for n in rep["notes"])
    report(4, ok, "fork coefficients (1,2/3,2/3,2/3), three degrees -1/3 matching "
                  "the flip table, detached A1 cluster reported")


def test_criterion_5_width_degree_sweep():
    ok = True
    survivors = set()
    for m, mp, ap in admissible("ic"):
        trace = ell_calc.ic_disproof(m, mp, ap)
        ok &= trace.status == "contradiction"
        ok &= step(trace, "width-2-degree").value == F(mp + 1 - 2 * ap, mp)
        if any(s.name == "width-3-degree" for s in trace.steps):
            survivors.add((m, mp, ap))
            ok &= step(trace, "width-3-degree").value == -F(m + mp, 2 * m * mp)
            ok &= step(trace, "width-3-degree").value < 0
    expected = {
        t for t in admissible("ic")
        if 2 * t[2] == t[1] + 1 and t[0] > t[1]
    }
    ok &= survivors == expected and len(survivors) > 0
    report(5, ok, f"width-degree sweep to 49: {len(expected)} survivors, all and "
                  "only those with 2a' = m'+1 and m > m', every tuple contradicted")


def test_criterion_6_section_count_scripts():
    ok = True
    for m, mp, ap in admissible("k3a"):
        trace = ell_calc.kad_disproof(m, mp, ap, "k3a")
        ok &= trace.status == "contradiction"
        ok &= step(trace, "h1-a2b2-omega").value == 1
        ok &= step(trace, "h1-b2sq-omega").value == 1
        ok &= step(trace, "h0-gr1").value == 0
        ok &= step(trace, "h0-sym2").value == 0
    for m, mp, ap in admissible("kad"):
        trace = ell_calc.kad_disproof(m, mp, ap, "kad")
        ok &= trace.status == "contradiction"
        ok &= step(trace, "degree-table").verdict == "holds"
        ok &= step(trace, "h1-omega-e-b2").value == 1
    report(6, ok, "section-count scripts: m = 3 reproduces (1,1,0,0) and the "
                  "contradiction, m >= 5 reproduces the degree table and the "
                  "h1 = 1 step, across the full sweep")


def test_criterion_7_flip_table():
    table = germ_rules.check_table2()
    ok = table.all_consistent
    ok &= all(c.row.index_x * abs(c.row.k_dot_c) == 1 for c in table.checks)
    ok &= {c.transferred for c in table.checks} == {F(1, 2), F(1), F(1, 6)}
    report(7, ok, "flip table: every row consistent, unit pairing everywhere, "
                  "transferred degrees {1/2, 1, 1/6}")


def test_criterion_8_rule_engine():
    ok = True
    rows_hit = set()
    for case in corpus.load_corpus()["cases"]:
        for d in case.get("descriptors", []):
            descriptor = germ_rules.parse_descriptor(corpus.read_data(d["file"]))
            verdict = germ_rules.validate_against_table(descriptor)
            ok &= verdict.accepted and verdict.row == d["row"][0]
            rows_hit.add(verdict.row)
    gor = germ_rules.validate_against_table(
        germ_rules.GermDescriptor((T.k1A, T.k1A), GermKind.CB, ())
    )
    ok &= gor.accepted and gor.row == 1
    rows_hit.add(gor.row)
    ok &= rows_hit == {1, 2, 3, 4, 5, 6, 7, 8, 9, 11}

    rejected = [
        ((T.IC, T.k2A), "Theorem 3.2"),
        ((T.k2A, T.kAD), "Theorem 4.3"),
        ((T.k2A, T.k3A), "Theorem 4.3"),
        ((T.IIdual, T.IIB), "Lemma 5.4"),
    ]
    for components, citation in rejected:
        verdict = germ_rules.validate_against_table(
            germ_rules.GermDescriptor(components, GermKind.DIVISORIAL, ())
        )
        ok &= (not verdict.accepted) and verdict.citation == citation

    cax4 = (NonGorPoint(4, "cAx/4"),)
    five = germ_rules.validate_against_table(
        germ_rules.GermDescriptor((T.IIA,) * 5, GermKind.FLIPPING, cax4))
    four = germ_rules.validate_against_table(
        germ_rules.GermDescriptor((T.IIA,) * 4, GermKind.FLIPPING, cax4))
    ok &= (not five.accepted) and four.accepted
    report(8, ok, "rule engine: corpus descriptors land in rows 1-9 and 11, the "
                  "four excluded pairs are rejected with their citations, and "
                  "the flipping bound cuts at 4")


def test_criterion_9_property_suites():
    ok = True
    # divisor algebra, 1000 random instances
    rng = random.Random(424242)
    for _ in range(1000):
        points = [
            ell_calc.MarkedPoint(lbl, rng.randint(2, 11))
            for lbl in rng.sample("PQRST", rng.randint(0, 3))
        ]
        def rand():
            return ell_calc.EllDivisor(
                rng.randint(-5, 5), {p: rng.randrange(p.index) for p in points}
            )
        x, y = rand(), rand()
        ok &= ell_calc.ell_deg(ell_calc.tensor(x, y)) == (
            ell_calc.ell_deg(x) + ell_calc.ell_deg(y))
        ok &= ell_calc.ell_deg(ell_calc.dual(x)) == -ell_calc.ell_deg(x)
        ok &= ell_calc.dual(ell_calc.dual(x)) == x
        ok &= ell_calc._h0(x.c) - ell_calc._h1(x.c) == x.c + 1

    # chain round trips, exhaustive
    for n in range(2, 201):
        for q in range(1, n):
            if gcd(n, q) == 1:
                s = cyclic_quot.CycQuot(n, q)
                ok &= cyclic_quot.chain_to_quot(cyclic_quot.quot_to_chain(s)) == s

    # class-T double witnesses, exhaustive
    for n in range(2, 401):
        for q in range(1, n):
            if gcd(n, q) == 1:
                cert = cyclic_quot.classify_T(cyclic_quot.CycQuot(n, q))
                if cert.verdict:
                    ok &= cert.replay() == cert.chain.entries
                    ok &= cert.d * cert.m**2 == n and cert.d * cert.m * cert.a == q + 1

    # definiteness against the characteristic-polynomial oracle
    rng = random.Random(171717)
    for _ in range(10_000):
        n = rng.randint(1, 5)
        rows = random_symmetric(rng, n)
        m = IntersectionMatrix(tuple(map(str, range(n))), from_rows(rows))
        ok &= is_negative_definite(m) == neg_def_by_char_poly(rows)
    report(9, ok, "property suites: divisor algebra x1000, chain round trips to "
                  "200, double class-T witnesses to 400, definiteness oracle "
                  "x10000")


def test_corpus_driver_is_green():
    rep = corpus.verify_paper(sweep_max=49)
    report("driver", rep.ok, "full corpus driver with sweeps to 49")
