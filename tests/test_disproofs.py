import random
from collections import Counter
from fractions import Fraction as F
from functools import partial
from itertools import accumulate
from math import gcd

import pytest

from conftest import admissible, patch_stage, step
from germcalc import ell_calc
from germcalc.ell_calc import (
    SCRIPTS,
    _Component,
    ic_disproof,
    ic_sweep,
    kad_disproof,
    kad_sweep,
    smallest_sweep_max,
)


def ic_admissible(sweep_max):
    return admissible("ic", sweep_max)


def kad_admissible(subcase, sweep_max):
    return admissible(subcase, sweep_max)


def ic_rejection(m, mp, ap):
    return SCRIPTS["ic"].rejection(m, mp, ap)


def kad_rejection(m, mp, ap, subcase):
    return SCRIPTS[subcase].rejection(m, mp, ap)


class TestIcScript:
    def test_small_instance(self):
        trace = ic_disproof(5, 3, 2)
        assert trace.status == "contradiction"
        assert step(trace, "width-2-degree").value == 0
        assert step(trace, "width-2-degree").verdict == "forces_cb"
        assert step(trace, "width-3-degree").value == F(-4, 15)
        assert step(trace, "width-3-degree").verdict == "contradiction"

    def test_second_instance(self):
        trace = ic_disproof(7, 5, 3)
        assert trace.status == "contradiction"
        assert step(trace, "width-2-degree").value == 0
        assert step(trace, "width-3-degree").value == F(-6, 35)

    def test_k_negativity_rejection(self):
        trace = ic_disproof(5, 3, 1)
        assert trace.status == "rejected"
        assert "K-negativity" in trace.rejection
        assert trace.rejection_value == F(4, 15)

    def test_k_negativity_value_is_the_fraction_difference(self):
        for m, mp, ap in [(5, 3, 1), (7, 5, 2), (9, 4, 1), (11, 7, 3)]:
            reason, value = ic_rejection(m, mp, ap)
            assert reason == "K-negativity fails"
            assert value == F(m + 1, 2 * m) - F(ap, mp)
        # exactly zero is rejected: (m+1)/(2m) = a'/m' at (5, 5, 3)
        assert ic_rejection(5, 5, 3) == ("K-negativity fails", F(0))

    def test_even_m_rejected(self):
        assert ic_disproof(6, 3, 2).status == "rejected"

    def test_small_mprime_rejected(self):
        assert "m'" in ic_disproof(5, 2, 1).rejection

    def test_gcd_rejected(self):
        assert "gcd" in ic_disproof(7, 6, 4).rejection

    def test_early_contradiction_on_even_mprime(self):
        # admissible tuple with even m': the width-2 degree is already negative
        trace = ic_disproof(7, 4, 3)
        assert trace.status == "contradiction"
        assert step(trace, "width-2-degree").verdict == "contradiction"
        assert step(trace, "width-2-degree").value == F(4 + 1 - 6, 4)
        assert not any(s.name == "width-3-degree" for s in trace.steps)

    def test_replay_is_deterministic(self):
        first = ic_disproof(9, 5, 3)
        second = ic_disproof(9, 5, 3)
        assert first == second

    def test_sweep_to_49(self):
        summary = ic_sweep(49)
        assert summary.all_contradicted
        assert summary.total > 0
        # survivors are exactly the tuples pinned by the forced equality
        expected = {
            (m, mp, ap)
            for (m, mp, ap) in ic_admissible(49)
            if 2 * ap == mp + 1 and m > mp
        }
        assert summary.survivors == len(expected)

    def test_admissibility_matches_preconditions(self):
        check_admissibility("ic")

    def test_all_admissible_end_in_contradiction(self):
        for m, mp, ap in ic_admissible(25):
            trace = ic_disproof(m, mp, ap)
            assert trace.status == "contradiction", (m, mp, ap)
            assert step(trace, "width-2-degree").value == F(mp + 1 - 2 * ap, mp)


class TestKadScript:
    def test_k3a_instance(self):
        trace = kad_disproof(3, 5, 3, "k3a")
        assert trace.status == "contradiction"
        assert step(trace, "h1-a2b2-omega").value == 1
        assert step(trace, "h1-b2sq-omega").value == 1
        assert step(trace, "h0-gr1").value == 0
        assert step(trace, "h0-sym2").value == 0
        assert trace.steps[-1].verdict == "contradiction"

    def test_kad_instance(self):
        trace = kad_disproof(5, 3, 2, "kad")
        assert trace.status == "contradiction"
        assert step(trace, "degree-table").verdict == "holds"
        assert step(trace, "h1-omega-e-b2").value == 1
        assert step(trace, "h1-omega-e-b2").verdict == "forces_cb"
        assert step(trace, "h0-gr1").value == 1
        assert trace.steps[-1].verdict == "contradiction"

    def test_trivial_rejection(self):
        trace = kad_disproof(3, 3, 1, "k3a")
        assert trace.status == "rejected"
        assert "m'-a' = 2 >= m'/2" in trace.rejection

    def test_subcase_index_constraints(self):
        assert kad_disproof(5, 5, 3, "k3a").status == "rejected"
        assert kad_disproof(3, 5, 3, "kad").status == "rejected"
        assert kad_disproof(6, 5, 3, "kad").status == "rejected"

    def test_k3a_sweep_to_49(self):
        summary = kad_sweep("k3a", 49)
        assert summary.all_contradicted and summary.total > 0

    def test_kad_sweep_to_49(self):
        summary = kad_sweep("kad", 49)
        assert summary.all_contradicted and summary.total > 0

    def test_k3a_values_across_sweep(self):
        for m, mp, ap in kad_admissible("k3a", 49):
            trace = kad_disproof(m, mp, ap, "k3a")
            assert step(trace, "h1-a2b2-omega").value == 1
            assert step(trace, "h1-b2sq-omega").value == 1
            assert step(trace, "h0-gr1").value == 0
            assert step(trace, "h0-sym2").value == 0

    def test_kad_split_checks_hold_across_sweep(self):
        for m, mp, ap in kad_admissible("kad", 35):
            trace = kad_disproof(m, mp, ap, "kad")
            assert step(trace, "split-check-c1").value == 0, (m, mp, ap)
            assert step(trace, "split-check-thickening").value == 0
            assert step(trace, "h1-omega-e-b2").value == 1

    def test_admissibility_matches_preconditions(self):
        check_admissibility("k3a")
        check_admissibility("kad")

    def test_upper_case_subcase_is_labelled_lower_case(self):
        trace = kad_disproof(5, 3, 2, "KAD")
        assert trace.script == "kad/kad"
        assert trace == kad_disproof(5, 3, 2, "kad")
        assert kad_disproof(3, 5, 3, "K3A").script == "kad/k3a"
        assert kad_sweep("KAD", 9) == kad_sweep("kad", 9)


def _ic_conditions(m, mp, ap):
    return (m >= 5 and m % 2 == 1 and mp >= 3 and 0 < ap < mp and gcd(ap, mp) == 1
            and F(m + 1, 2 * m) - F(ap, mp) < 0 and 2 * (mp - ap) < mp)


def _kad_conditions(subcase, m, mp, ap):
    m_ok = m == 3 if subcase == "k3a" else m >= 5 and m % 2 == 1
    return m_ok and mp >= 3 and 0 < ap < mp and gcd(ap, mp) == 1 and 2 * (mp - ap) < mp


def check_admissibility(script):
    """The enumerator, the runner and the stated conditions agree on every
    tuple of a box that reaches past the cap and outside the parameter ranges."""
    cap = 15
    if script == "ic":
        listed = set(ic_admissible(cap))
        run, rejection = ic_disproof, ic_rejection
        conditions = _ic_conditions
    else:
        listed = set(kad_admissible(script, cap))
        def run(m, mp, ap):
            return kad_disproof(m, mp, ap, script)
        def rejection(m, mp, ap):
            return kad_rejection(m, mp, ap, script)
        def conditions(m, mp, ap):
            return _kad_conditions(script, m, mp, ap)
    for m in range(-1, cap + 3):
        for mp in range(-1, cap + 3):
            for ap in range(-2, mp + 3):
                ok = conditions(m, mp, ap)
                assert ((m, mp, ap) in listed) == (ok and m <= cap and mp <= cap)
                assert (rejection(m, mp, ap) is None) == ok
                trace = run(m, mp, ap)
                assert (trace.status != "rejected") == ok, (m, mp, ap)
                if not ok:
                    reason, value = rejection(m, mp, ap)
                    assert trace.rejection == reason
                    assert trace.rejection_value == value


class TestSweepVerdicts:
    def test_smallest_caps(self):
        assert [smallest_sweep_max(s) for s in ("ic", "k3a", "kad")] == [5, 3, 5]

    @pytest.mark.parametrize("script, cap", [("ic", 4), ("ic", -5), ("k3a", 2), ("kad", 0)])
    def test_empty_sweep_fails(self, script, cap):
        summary = ic_sweep(cap) if script == "ic" else kad_sweep(script, cap)
        assert summary.total == 0
        assert not summary.all_contradicted
        assert summary.verdict() == "FAILURE: no admissible tuples"

    def test_smallest_cap_passes(self):
        for summary in (ic_sweep(5), kad_sweep("k3a", 3), kad_sweep("kad", 5)):
            assert summary.total > 0 and summary.all_contradicted
            assert summary.failures == 0 and summary.failure == ""

    def test_failing_check_is_counted_with_tuple_and_step(self, monkeypatch):
        real = ell_calc.node_invariant_dim

        def broken(g, t, lam, m):
            return 1 if m == 7 else real(g, t, lam, m)

        monkeypatch.setattr(ell_calc, "node_invariant_dim", broken)
        summary = ic_sweep(15)
        survivors_at_7 = [t for t in ic_admissible(15)
                          if t[0] == 7 and 2 * t[2] == t[1] + 1 and t[0] > t[1]]
        assert not summary.all_contradicted
        assert summary.failures == len(survivors_at_7) > 0
        assert summary.failure == (
            f"{summary.failures} of {summary.total} failed, first {survivors_at_7[0]} "
            "at node-invariants: node invariants unexpectedly nonzero")

    def test_trace_that_does_not_contradict_is_a_failure(self, monkeypatch):
        # k3a records nothing of its own: its records are its one m's tail, and a
        # tail that ends on a step that holds fails every tuple of that m
        def holding(real):
            def stage(m):
                head, tail, forms = real(m)
                return head, (*tail, ("h0-sym2", 0, 1, "holds", "")), forms
            return stage

        patch_stage(monkeypatch, "k3a", "m_stage", holding)
        summary = kad_sweep("k3a", 9)
        assert summary.failures == summary.total == 13
        assert summary.failure.endswith("first (3, 3, 2) ends holds at h0-sym2")


def _conditions(script):
    return _ic_conditions if script == "ic" else partial(_kad_conditions, script)


class TestOneRulePerLevel:
    @pytest.mark.parametrize("script", ["ic", "k3a", "kad"])
    def test_enumerator_matches_the_conditions_to_60(self, script):
        cap, conditions = 60, _conditions(script)
        expected = [(m, mp, ap) for m in range(1, cap + 1) for mp in range(1, cap + 1)
                    for ap in range(1, mp) if conditions(m, mp, ap)]
        assert list(admissible(script, cap)) == expected

    def test_rule_boundaries(self):
        trace = ic_disproof(5, 5, 3)
        assert (trace.rejection, trace.rejection_value) == ("K-negativity fails", 0)
        assert ic_rejection(5, 5, 4) is None and (5, 5, 4) in set(ic_admissible(5))
        trace = kad_disproof(5, 5, 2, "kad")
        assert (trace.rejection, trace.rejection_value) == ("m'-a' = 3 >= m'/2", 3)
        assert kad_rejection(5, 5, 3, "kad") is None
        assert (5, 5, 3) in set(kad_admissible("kad", 5))

    def test_work_per_sweep(self, monkeypatch):
        # These count work, not time: at cap 15 a sweep judges the index rule once
        # per m and the chain-point rule once per (m', a') from the least a' bound
        # of any m up, runs each stage once per value of the parameters it reads,
        # and builds no trace: the m' stage once per m' that some m meets, 13 of
        # them, the point stage once per admitted (m', a'), 34 for ic and 35 for
        # kad and k3a, whatever the number of m, and the pair stage and the cells
        # once per (m, m'), 78 for ic and kad and 13 for k3a.  kad and k3a run
        # each check once per parameter it reads: per m the 5 section counts,
        # C2's 6 pins (5 for k3a) and the P sides of C1's 5 forms (3 for k3a);
        # per m', B1^2's Q side; per (m', a'), the other Q sides: 6*(6 + 5) + 13
        # + 35*4 = 219 pins for kad, 5 + 3 + 13 + 35*2 = 91 for k3a.  Their
        # tuples end on their m's tail: their tuple stage only joins a trace's
        # records, so a sweep does not run it.  Run on every tuple, they were
        # 1050 and 175 section counts and 2730 and 280 pins.  ic checks its
        # width-2 line once per (m, m') and runs its tuple stage on the 21 forced
        # tuples alone, the cells that leave their end to the records; run on
        # every tuple, it ran 188 times.
        calls = Counter()

        def counting(name):
            def wrap(real):
                def counted(*args, **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)
                return counted
            return wrap

        for name in ("_chain_point_rejection", "ic_disproof", "kad_disproof", "DisproofTrace",
                     "_sections", "_expect"):
            monkeypatch.setattr(ell_calc, name, counting(name)(getattr(ell_calc, name)))
        for name in ("rejection", "disproof"):
            monkeypatch.setattr(ell_calc.Script, name,
                                counting(name)(getattr(ell_calc.Script, name)))
        for script in SCRIPTS:
            for stage in ("index_rule", "m_stage", "m_prime_stage", "point_stage", "pair_stage",
                          "tuple_stage", "cells"):
                patch_stage(monkeypatch, script, stage, counting(stage))
        counts = {}
        for script in ("ic", "k3a", "kad"):
            calls.clear()
            summary = _run_sweep(script, 15)
            assert summary.all_contradicted
            counts[script] = (summary.total, dict(calls))
        assert counts == {
            "ic": (188, {"index_rule": 15, "_chain_point_rejection": 48, "m_stage": 6,
                         "m_prime_stage": 13, "point_stage": 34, "pair_stage": 78,
                         "cells": 78, "tuple_stage": 21, "_expect": 42}),
            "k3a": (35, {"index_rule": 15, "_chain_point_rejection": 49, "m_stage": 1,
                         "m_prime_stage": 13, "point_stage": 35, "pair_stage": 13,
                         "cells": 13, "_sections": 5, "_expect": 5 + 3 + 13 + 35 * 2}),
            "kad": (210, {"index_rule": 15, "_chain_point_rejection": 49, "m_stage": 6,
                          "m_prime_stage": 13, "point_stage": 35, "pair_stage": 78,
                          "cells": 78, "_sections": 6 * 5,
                          "_expect": 6 * (6 + 5) + 13 + 35 * 4}),
        }

    def test_kad_sweep_builds_no_divisor_view(self, monkeypatch):
        # the split-check-c1 note keeps its normal form bare: only a trace
        # formats it, through the EllDivisor view
        calls = Counter()
        real = ell_calc._Component.divisor

        def counted(self, a):
            calls["divisor"] += 1
            return real(self, a)
        monkeypatch.setattr(ell_calc._Component, "divisor", counted)
        summary = kad_sweep("kad", 15)
        assert summary.total == 210 and summary.all_contradicted
        assert calls["divisor"] == 0
        note = step(kad_disproof(7, 5, 3, "kad"), "split-check-c1").note
        assert note == "splitting obstruction (0 + 3*P[7] + 0*Q[5])"
        assert calls["divisor"] == 1

    @pytest.mark.parametrize("script, final, ends", [
        ("ic", "width-3-degree", {"width-2-degree": 7951, "width-3-degree": 276}),
        ("k3a", "section-count-conflict", {"section-count-conflict": 376}),
        ("kad", "multiplicity-conflict", {"multiplicity-conflict": 8648}),
    ])
    def test_ends_at_49(self, script, final, ends):
        summary = _run_sweep(script, 49)
        assert summary.all_contradicted
        assert summary.ends == ends
        assert summary.total == sum(ends.values())
        assert summary.survivors == ends[final]


def _on_reductions(monkeypatch, seen):
    """Pass every normal form the scripts reduce, through ``_Component.tensor``
    and ``.over``, to ``seen(component, nf)``, which returns the form that
    stands."""
    for name in ("tensor", "over"):
        def reduce(self, a, b, real=getattr(ell_calc._Component, name)):
            return seen(self, real(self, a, b))
        monkeypatch.setattr(ell_calc._Component, name, reduce)


def _corrupt_carry(monkeypatch, point_indices, good, bad, labels=None):
    """Make every reduction on the component of ``point_indices``, and of the
    point ``labels`` if given, that yields ``good`` yield ``bad``."""
    _on_reductions(monkeypatch, lambda comp, nf: (
        bad if comp.indices == point_indices and labels in (None, comp.labels)
        and nf == good else nf))


# One corrupted normal form per case; the counts and messages are those the
# scripts gave while they recomputed every form on every tuple.
CORRUPTED_FORMS = [
    ("kad", 7, (-1, 6, 0), (-1, 5, 0),
     "35 of 210 failed, first (7, 3, 2) at omega-e-vanishing: om*E2: computed "
     "(-1 + 5*P[7] + 0*R[2]), expected (-1 + 6*P[7] + 0*R[2])"),
    ("kad", 5, (0, 2, 0), (0, 1, 0),
     "35 of 210 failed, first (5, 3, 2) at degree-table: A2*B2: computed "
     "(0 + 1*P[5] + 0*R[2]), expected (0 + 2*P[5] + 0*R[2])"),
    ("k3a", 3, (-2, 2, 1), (-2, 2, 0),
     "35 of 35 failed, first (3, 3, 2) at h1-a2b2-omega: A2*B2*om: computed "
     "(-2 + 2*P[3] + 0*R[2]), expected (-2 + 2*P[3] + 1*R[2])"),
]


class TestPerMFormsAndLazyTraces:
    @pytest.mark.parametrize("subcase, m, good, bad, message", CORRUPTED_FORMS)
    def test_corrupt_m_only_form_fails_every_tuple_of_its_m(
            self, monkeypatch, subcase, m, good, bad, message):
        _corrupt_carry(monkeypatch, (m, 2), good, bad)
        summary = kad_sweep(subcase, 15)
        assert summary.failures == sum(1 for t in kad_admissible(subcase, 15) if t[0] == m)
        assert summary.failure == message
        assert summary.survivors == summary.total - summary.failures

    def test_sweep_never_reads_forms_computed_before_it(self, monkeypatch):
        subcase, m, good, bad, message = CORRUPTED_FORMS[1]
        kad_disproof(m, 3, 2, subcase)  # clean forms for m = 5
        _corrupt_carry(monkeypatch, (m, 2), good, bad)
        assert kad_sweep(subcase, 15).failure == message
        monkeypatch.undo()  # the corrupted forms must not outlive that sweep
        assert kad_sweep(subcase, 15).failures == 0

    def test_repeated_runs_give_equal_traces(self):
        runs = (ic_disproof, partial(kad_disproof, subcase="k3a"),
                partial(kad_disproof, subcase="kad"))
        for m in range(1, 12):
            for mp in range(0, 12):
                for ap in range(-1, mp + 2):
                    for run in runs:
                        first = run(m, mp, ap)
                        steps = first.steps
                        again = run(m, mp, ap)
                        for field in ("script", "inputs", "status", "rejection",
                                      "rejection_value"):
                            assert getattr(again, field) == getattr(first, field)
                        assert again.render() == first.render()
                        assert again.steps == steps
                        for a, b in zip(again.steps, steps):
                            assert type(a.value) is type(b.value)
                            assert b.value is None or type(b.value) is F
                            assert type(a.note) is type(b.note) is str
                        assert again == first and hash(again) == hash(first)
                        assert repr(again) == repr(first)


class TestStagedSweeps:
    # cap 29 is the largest cap that perfbench's paper workload sweeps, cap 49
    # the default
    @pytest.mark.parametrize("script, cap", [
        pytest.param(script, cap, id=script if cap == 15 else f"{script}-{cap}")
        for cap in (15, 29, 49) for script in ("ic", "k3a", "kad")])
    def test_sweep_counts_match_single_tuple_traces(self, script, cap):
        # the sweep reads each tuple's end off its stages' records without
        # joining them, or off the cell that declares it; the single-tuple run
        # joins the records into a trace.  Every tuple ends where its cell says:
        # at the declared (step, verdict), or at the final step when the cell
        # leaves its end to the records
        run = ic_disproof if script == "ic" else partial(kad_disproof, subcase=script)
        traces = [run(*t) for t in admissible(script, cap)]
        assert all(t.status == "contradiction" for t in traces)
        summary = _run_sweep(script, cap)
        ends = Counter(t.steps[-1].name for t in traces)
        assert summary.total == len(traces)
        assert summary.ends == dict(sorted(ends.items()))
        final = SCRIPTS[script].final_step
        assert summary.survivors == ends[final]
        cell_ends = [end or (final, "contradiction")
                     for m, pairs in SCRIPTS[script].levels(cap) for mp, a_primes, start in pairs
                     for lo, hi, end in SCRIPTS[script].cells(m, mp, a_primes, start)
                     for _ in range(lo, hi)]
        assert cell_ends == [(t.steps[-1].name, t.steps[-1].verdict) for t in traces]

    @pytest.mark.parametrize("raising, first", [
        ((5, 4), "(5, 3, 2) ends holds at h0-gr2"),
        ((3, 2), "(5, 3, 2) raised AssertionError: injected"),
    ])
    def test_tail_tally_keeps_each_raise_and_the_least_first(self, monkeypatch, raising,
                                                             first):
        # kad's tuples end on their m's tail, tallied once per (m, m') over the
        # tuples whose chain point did not raise; a point stage that raises fails
        # its tuple under every m (5, 7 and 9), the one under m = 5 with them
        def cut(real):
            def stage(m):
                head, tail, forms = real(m)
                return (head, tail[:-1] if m == 5 else tail, forms)
            return stage

        def failing(real):
            def stage(mp, ap, forms):
                if (mp, ap) == raising:
                    raise AssertionError("injected")
                return real(mp, ap, forms)
            return stage

        patch_stage(monkeypatch, "kad", "m_stage", cut)
        patch_stage(monkeypatch, "kad", "point_stage", failing)
        summary = kad_sweep("kad", 9)
        under_5 = sum(1 for t in kad_admissible("kad", 9) if t[0] == 5)
        assert summary.failure == f"{under_5 + 2} of 39 failed, first {first}"
        assert summary.ends == {"h0-gr2": under_5 - 1,
                                "multiplicity-conflict": 39 - under_5 - 2}

    def test_chain_script_without_a_tail_fails_its_m(self, monkeypatch):
        # a sweep reads a kad tuple's end off its m's tail when there is one: an m
        # stage that returns none leaves the end to the tuple stage's records,
        # which end on a split check that holds, and so fails every tuple of its m
        def untailed(real):
            def stage(m):
                head, tail, forms = real(m)
                return ((*head, *tail), (), forms) if m == 7 else (head, tail, forms)
            return stage

        patch_stage(monkeypatch, "kad", "m_stage", untailed)
        summary = kad_sweep("kad", 9)
        under_7 = sum(1 for t in kad_admissible("kad", 9) if t[0] == 7)
        assert summary.failure == (f"{under_7} of 39 failed, first (7, 3, 2) ends holds at "
                                   "split-check-thickening")

    def test_tail_tally_reads_the_final_step_predicate_per_tuple(self, monkeypatch):
        # a cell that declares its end may not declare the final step: the
        # records must show it
        patch_stage(monkeypatch, "kad", "cells",
                    _flipped_cells({(7, 5, 4), (9, 7, 5)}, "multiplicity-conflict"))
        summary = kad_sweep("kad", 9)
        assert summary.failures == 2
        assert summary.failure == ("2 of 39 failed, first (7, 5, 4) ends contradiction "
                                   "at multiplicity-conflict")

    def test_ic_tally_reads_the_final_step_predicate_per_tuple(self, monkeypatch):
        # ic declares each pair's tuples from its least negative width-2 degree
        # on: (7, 4, 3) heads its pair's cell, (9, 5, 4) follows the forced
        # (9, 5, 3), whose own records end it at the final step.  Left to their
        # records, the first two end before it; declared at it, the third fails
        flipped = {(7, 4, 3), (9, 5, 4), (9, 5, 3)}
        patch_stage(monkeypatch, "ic", "cells", _flipped_cells(flipped, "width-3-degree"))
        summary = ic_sweep(9)
        assert summary.failures == 3
        assert summary.failure == ("3 of 33 failed, first (7, 4, 3) ends contradiction "
                                   "at width-2-degree")

    def test_ic_runs_its_tuple_stage_on_forced_tuples_alone(self, monkeypatch):
        # every other tuple ends on its negative width-2 degree, tallied per pair
        seen = []

        def recording(real):
            def stage(m, mp, ap, forms):
                seen.append((m, mp, ap))
                return real(m, mp, ap, forms)
            return stage

        patch_stage(monkeypatch, "ic", "tuple_stage", recording)
        summary = ic_sweep(49)
        assert summary.all_contradicted and summary.total == 8227
        assert seen == [t for t in ic_admissible(49) if 2 * t[2] == t[1] + 1 and t[0] > t[1]]
        assert len(seen) == summary.survivors == 276

    def test_ell_calc_holds_no_cache(self):
        assert [name for name, value in vars(ell_calc).items()
                if hasattr(value, "cache_clear")] == []


def _run_sweep(script, cap):
    return ic_sweep(cap) if script == "ic" else kad_sweep(script, cap)


def _flipped_cells(flipped, declared):
    """A stand-in for a script's cells, given the real ones: each tuple of
    ``flipped`` in a cell of its own of the other kind, declared to end in a
    contradiction at ``declared`` if its real cell leaves its end to the
    records, and left to the records if its real cell declares its end."""
    def wrap(real):
        def cells(m, mp, a_primes, start):
            runs = []
            for lo, hi, end in real(m, mp, a_primes, start):
                flip = (declared, "contradiction") if end is None else None
                runs += [(i, i + 1, flip if (m, mp, a_primes[i]) in flipped else end)
                         for i in range(lo, hi)]
            return runs
        return cells
    return wrap


# One corrupted form per case on the component of the given point indices: the
# Q side of B1^2 depends on m' alone, and the m' stage reduces it once for every
# chain point (m', a') of that m'; ic's obstruction on C2 depends on m alone.
# An even m' keeps kad's Q sides off the components of its P sides, which have
# odd indices.
CORRUPTED_PAIR_FORMS = [
    ("kad", (8,), (0, 2), (0, 1),
     "12 of 210 failed, first (5, 8, 5) at degree-table: B1^2: computed "
     "(0 + 1*Q[8]), expected (0 + 2*Q[8])"),
    ("k3a", (7,), (0, 2), (1, 2),
     "3 of 35 failed, first (3, 7, 4) at degree-table: B1^2: computed "
     "(1 + 2*Q[7]), expected (0 + 2*Q[7])"),
    ("ic", (9,), (-1, 5), (-1, 4),
     "3 of 188 failed, first (9, 3, 2) at split-obstruction-h1: obstruction on C2: "
     "computed (-1 + 4*P[9]), expected (-1 + 5*P[9])"),
]

# Corrupted forms that the first tuple of a sweep reads: the first covers
# kad's m' stage, the second ic's m stage.
CORRUPTED_FIRST_FORMS = [
    ("kad", (3,), (0, 2), (0, 1),
     "6 of 210 failed, first (5, 3, 2) at degree-table: B1^2: computed "
     "(0 + 1*Q[3]), expected (0 + 2*Q[3])"),
    ("ic", (5,), (-1, 1), (-1, 2),
     "1 of 188 failed, first (5, 3, 2) at split-obstruction-h1: obstruction on C2: "
     "computed (-1 + 2*P[5]), expected (-1 + 1*P[5])"),
]


# Corrupted Q sides on C1 that one chain point reads: A1*B1 and E1*B1/D1 depend
# on a'.  At (m', a') = (12, 7), gap 5, no other form on the component of Q[12]
# is (0, 6) or (0, 4), and the six tuples under it are (m, 12, 7), m = 5..15.
CORRUPTED_CHAIN_FORMS = [
    ("A1*B1", (0, 6), (0, 7),
     "6 of 210 failed, first (5, 12, 7) at degree-table: A1*B1: computed "
     "(0 + 7*Q[12]), expected (0 + 6*Q[12])"),
    ("E1*B1/D1", (0, 4), (0, 5),
     "6 of 210 failed, first (5, 12, 7) at split-check-thickening: E1*B1/D1: computed "
     "(0 + 5*Q[12]), expected (0 + 4*Q[12])"),
]

# Corrupted Q sides on C1 that one tuple reads: up to cap 6, kad's one m is 5,
# so each chain point (m', a') has one tuple under it.  A1*B1 is (0, 3) on Q[5]
# at (5, 3) alone, and on P[5] too, hence the labels; E1*B1/D1 is (0, 0) on
# Q[6], which (6, 5) alone reduces.
CORRUPTED_TUPLE_FORMS = [
    ("A1*B1", (5,), (0, 3), (0, 4),
     "1 of 5 failed, first (5, 5, 3) at degree-table: A1*B1: computed "
     "(0 + 4*Q[5]), expected (0 + 3*Q[5])"),
    ("E1*B1/D1", (6,), (0, 0), (0, 1),
     "1 of 5 failed, first (5, 6, 5) at split-check-thickening: E1*B1/D1: computed "
     "(0 + 1*Q[6]), expected (0 + 0*Q[6])"),
]

# Corrupted P sides on C1, which every tuple of their m reads.  No Q side on the
# component of P[7] (m' = 7) has carry 1 or is (-1, 3).
CORRUPTED_P_SIDES = [
    ("A1^2", (1, 1), (1, 2),
     "35 of 210 failed, first (7, 3, 2) at degree-table: A1^2: computed "
     "(1 + 2*P[7]), expected (1 + 1*P[7])"),
    ("B1^2/A1", (-1, 3), (0, 3),
     "35 of 210 failed, first (7, 3, 2) at split-check-c1: B1^2/A1: computed "
     "(0 + 3*P[7]), expected (-1 + 3*P[7])"),
]


class TestPerPairForms:
    @pytest.mark.parametrize("form, indices, good, bad, message", CORRUPTED_TUPLE_FORMS,
                             ids=[case[0] for case in CORRUPTED_TUPLE_FORMS])
    def test_corrupt_tuple_form_fails_only_its_tuple(self, monkeypatch, form, indices,
                                                     good, bad, message):
        _corrupt_carry(monkeypatch, indices, good, bad, labels=("Q",))
        summary = kad_sweep("kad", 6)
        assert summary.failure == message
        assert summary.survivors == summary.total - 1

    @pytest.mark.parametrize("form, good, bad, message", CORRUPTED_CHAIN_FORMS,
                             ids=[case[0] for case in CORRUPTED_CHAIN_FORMS])
    def test_corrupt_chain_form_fails_every_tuple_of_its_chain_point(
            self, monkeypatch, form, good, bad, message):
        _corrupt_carry(monkeypatch, (12,), good, bad)
        summary = kad_sweep("kad", 15)
        assert summary.failure == message
        assert summary.survivors == summary.total - 6

    @pytest.mark.parametrize("form, good, bad, message", CORRUPTED_P_SIDES,
                             ids=[case[0] for case in CORRUPTED_P_SIDES])
    def test_corrupt_p_side_fails_every_tuple_of_its_m(self, monkeypatch, form, good, bad,
                                                       message):
        _corrupt_carry(monkeypatch, (7,), good, bad)
        summary = kad_sweep("kad", 15)
        assert summary.failure == message
        assert summary.survivors == summary.total - 35

    @pytest.mark.parametrize("script, indices, good, bad, message", CORRUPTED_PAIR_FORMS,
                             ids=[case[0] for case in CORRUPTED_PAIR_FORMS])
    def test_corrupt_pair_form_fails_every_tuple_that_reads_it(
            self, monkeypatch, script, indices, good, bad, message):
        _corrupt_carry(monkeypatch, indices, good, bad)
        assert _run_sweep(script, 15).failure == message

    @pytest.mark.parametrize("script, indices, good, bad, message", CORRUPTED_FIRST_FORMS,
                             ids=[case[0] for case in CORRUPTED_FIRST_FORMS])
    def test_sweep_never_reads_pair_forms_computed_before_it(
            self, monkeypatch, script, indices, good, bad, message):
        if script == "ic":
            ic_disproof(*next(ic_admissible(15)))  # clean forms for the first tuple
        else:
            kad_disproof(*next(kad_admissible(script, 15)), script)
        _corrupt_carry(monkeypatch, indices, good, bad)
        assert _run_sweep(script, 15).failure == message
        monkeypatch.undo()  # the corrupted forms must not outlive that sweep
        assert _run_sweep(script, 15).failures == 0

    def test_carries_per_sweep(self, monkeypatch):
        # These count work, not time: the reductions, one per normal form computed,
        # of each sweep at cap 15.  kad makes 6 on C2 and the 5 P sides of C1's
        # forms (B1^2, A1^2, A1*B1 and the two split checks, each an `over`) per
        # m, B1^2's Q side once per m', 13 of them, and the other 4 Q sides once
        # per admitted (m', a'), 35 of them, whatever the number of m: 6*(6 + 5)
        # + 13 + 35*4 = 219, where reducing every form on every tuple made 954.
        # k3a makes 5 on C2 and 3 P sides for its one m, B1^2's Q side per m'
        # and 2 Q sides per (m', a'): 5 + 3 + 13 + 35*2 = 91, where it made 88
        # (B1^2 once per (m, m') and 2 per tuple).  ic makes 2 per m (B2^2 and
        # its `over`) and 2 per tuple that reaches the width-3 step (B1^2 and
        # its `over`): 2*6 + 2*21 = 54.
        calls = []

        def counting(comp, nf):
            calls.append(comp.indices)
            return nf

        _on_reductions(monkeypatch, counting)
        counts = {}
        for script in ("kad", "k3a", "ic"):
            calls.clear()
            assert _run_sweep(script, 15).all_contradicted
            counts[script] = len(calls)
        assert counts == {"kad": 219, "k3a": 91, "ic": 54}


class TestSidesOfC1:
    def test_sides_recombine_to_the_two_point_forms(self):
        # kad and k3a reduce C1's forms one point at a time: the P side from m,
        # the Q side from m' (B1^2) and (m', a') (the rest).  Recombined, the
        # sides are the forms that C1's own tensor and over give, for admissible
        # tuples up to 10^6, with gaps m' - a' on both sides of 2, where
        # B1^2/A1's Q side starts to borrow
        rng = random.Random(28)
        for _ in range(500):
            subcase = rng.choice(("k3a", "kad"))
            m = 3 if subcase == "k3a" else rng.randrange(5, 10**6, 2)
            while True:
                mp = rng.randrange(3, 10**6 + 1)
                ap = mp - rng.choice((1, 2, 3)) if rng.random() < 0.3 else rng.randrange(1, mp)
                if _kad_conditions(subcase, m, mp, ap):
                    break
            up, gap = (m + 1) // 2, mp - ap
            p1 = _Component(("P",), (m,))
            p = ell_calc._c1_side(p1, (0, up), (0, 0), p1.tensor((0, 0), (0, 0)), True)
            q1, b1b1_q = ell_calc._kad_m_prime_stage(mp)
            q = ell_calc._c1_side(q1, (0, gap), (0, 1), b1b1_q, True)
            c1 = _Component(("P", "Q"), (m, mp))
            a1, b1 = (-1, up, gap), (0, 0, 1)
            b1b1, a1b1 = c1.tensor(b1, b1), c1.tensor(a1, b1)
            whole = (b1b1, c1.tensor(a1, a1), a1b1, c1.over(b1b1, a1), c1.over(a1b1, b1b1))
            assert tuple(ell_calc._c1_whole(i, *sides)
                         for i, sides in enumerate(zip(p, q))) == whole, (m, mp, ap)
            # the stages pin these sides and join the split-check note from them
            trace = SCRIPTS[subcase].disproof(m, mp, ap)
            assert trace.status == "contradiction"
            if subcase == "kad":
                assert step(trace, "split-check-c1").note == (
                    f"splitting obstruction {c1.divisor(whole[3])!r}")


# One perturbed degree on C1 of a pair.  The a' of (9, 7) are 4 (forced), 5 and
# 6: deg(A1) moves the width-2 degree at every a', B1's at a' = 6 alone.  The
# a' of (5, 7) are 5 and 6, from index 1 of m' = 7's list [4, 5, 6]
CORRUPTED_WIDTH_TWO_LINES = [
    ("deg(A1)", (9, 7), (-1, 8, 1),
     "3 of 188 failed, first (9, 7, 4) at width-2-degree: width-2 degree 1/63 != 0 at a' = 4"),
    ("deg(B1) at a' = 6", (9, 7), (-1, 5, 1),
     "3 of 188 failed, first (9, 7, 4) at width-2-degree: width-2 degree -34/63 != -4/7 "
     "at a' = 6"),
    ("deg(A1) past m' = 7's first a'", (5, 7), (-1, 4, 1),
     "2 of 188 failed, first (5, 7, 5) at width-2-degree: width-2 degree -9/35 != -2/7 "
     "at a' = 5"),
]


class TestIcWidthTwoLine:
    @pytest.mark.parametrize("form, pair, nf, message", CORRUPTED_WIDTH_TWO_LINES,
                             ids=[case[0] for case in CORRUPTED_WIDTH_TWO_LINES])
    def test_corrupt_width_two_line_fails_every_tuple_of_its_pair(self, monkeypatch, form,
                                                                   pair, nf, message):
        # ic checks its width-2 degree once per (m, m'), on the line through its
        # least and greatest a': a pair off that line fails all its tuples
        real = ell_calc._Component.degree

        def degree(self, a, den):
            value = real(self, a, den)
            return value + 1 if self.indices == pair and a == nf else value

        monkeypatch.setattr(ell_calc._Component, "degree", degree)
        summary = ic_sweep(15)
        under = [t for t in ic_admissible(15) if t[:2] == pair]
        forced = sum(1 for m, mp, ap in under if 2 * ap == mp + 1 and m > mp)
        assert summary.failure == message
        assert summary.failures == len(under)
        assert summary.survivors == 21 - forced
        assert summary.ends == {"width-2-degree": 188 - 21 - (len(under) - forced),
                                "width-3-degree": 21 - forced}

    def test_line_gives_every_tuple_its_width_two_degree(self):
        # Both sides of the width-2 identity are affine in a', so the pair
        # stage checks it at the pair's least and greatest a' alone.  Per tuple,
        # C1's and C2's degrees lie on that line and give (m'+1-2a')/m', for
        # pairs up to 10^6; ic's cells declare the tuples where they are negative,
        # which is every a' but the forced one, its pair's least
        rng = random.Random(29)
        script = SCRIPTS["ic"]
        for _ in range(500):
            m, mp = rng.randrange(5, 10**6, 2), rng.randrange(3, 10**6 + 1)
            lo, hi = script.min_a_prime(m, mp), mp - 1
            forms = script.pair_stage(m, mp, script.m_stage(m)[2])
            c1, c2 = _Component(("P", "R"), (m, mp)), _Component(("P",), (m,))
            den = m * mp

            def width2(ap):
                deg_a = c1.degree((-1, m - 1, 1), den) + c2.degree((0, 2), den)
                deg_b = (c1.degree((-1, (m + 1) // 2, mp - ap), den)
                         + c2.degree((-1, m - 1), den))
                return 2 * deg_b + deg_a

            forced = (mp + 1) // 2 if mp % 2 and m > mp else lo
            a_primes = sorted({lo, hi, forced, rng.randrange(lo, hi + 1)})
            cell_ends = {a_primes[i]: end for i_lo, i_hi, end in script.cells(m, mp, a_primes, 0)
                         for i in range(i_lo, i_hi)}
            for ap in a_primes:
                assert width2(ap) * (hi - lo) == width2(lo) * (hi - ap) + width2(hi) * (ap - lo)
                assert F(width2(ap), den) == F(mp + 1 - 2 * ap, mp), (m, mp, ap)
                assert ell_calc._ic_width2(mp, ap, forms)[1] == width2(ap)
                shared = ("width-2-degree", "contradiction") if width2(ap) < 0 else None
                assert cell_ends[ap] == shared
                if gcd(ap, mp) == 1:
                    trace = script.disproof(m, mp, ap)
                    assert step(trace, "width-2-degree").value == F(width2(ap), den)


def _domain_counts(script, cap):
    """For each cap from 1 to ``cap``, the (total, ends) that a sweep of
    ``script`` must report, counted from the paper's inequalities alone: the
    index rule on m; m' >= 3, 0 < a' < m' and gcd(a', m') = 1; and a' above
    K-negativity's bound (m+1)m'/(2m) for ic, m' - a' < m'/2 for kad and k3a.
    Each (m, m') counts its a' from prefix counts of the a' coprime to m'.  ic's
    forced tuple, the one that reaches the width-3 step, has 2a' = m'+1 and
    m > m', so each (m, m') with m' odd and 3 <= m' < m has exactly one."""
    final = {"ic": "width-3-degree", "k3a": "section-count-conflict",
             "kad": "multiplicity-conflict"}[script]
    # coprime[m'][k]: the a' with 0 <= a' < k and gcd(a', m') = 1
    coprime = [list(accumulate((gcd(a, mp) == 1 for a in range(mp)), initial=0))
               for mp in range(cap + 1)]
    ends, counts = Counter(), []
    for n in range(1, cap + 1):
        # the pairs that cap n adds to cap n - 1
        for m, mp in [(n, mp) for mp in range(3, n + 1)] + [(m, n) for m in range(1, n)]:
            if mp < 3 or not (m == 3 if script == "k3a" else m >= 5 and m % 2 == 1):
                continue
            if script == "ic":  # 2ma' > (m+1)m'
                tuples = coprime[mp][mp] - coprime[mp][min((m + 1) * mp // (2 * m) + 1, mp)]
                forced = int(mp % 2 == 1 and mp < m)
                ends[final] += forced
                ends["width-2-degree"] += tuples - forced
            else:  # 2(m' - a') < m'
                ends[final] += coprime[mp][mp] - coprime[mp][mp // 2 + 1]
        counts.append((sum(ends.values()), {k: v for k, v in sorted(ends.items()) if v}))
    return counts


class TestSweptDomain:
    @pytest.mark.parametrize("script", ["ic", "k3a", "kad"])
    def test_sweep_counts_the_paper_domain_at_every_cap_to_99(self, script):
        for cap, (total, ends) in enumerate(_domain_counts(script, 99), 1):
            summary = _run_sweep(script, cap)
            assert (summary.total, summary.ends) == (total, ends), cap
            assert summary.all_contradicted == (total > 0), cap

    def test_domain_counts_at_15_and_49(self):
        counts = {script: _domain_counts(script, 49) for script in ("ic", "k3a", "kad")}
        assert [counts[script][cap - 1] for script in counts for cap in (15, 49)] == [
            (188, {"width-2-degree": 167, "width-3-degree": 21}),
            (8227, {"width-2-degree": 7951, "width-3-degree": 276}),
            (35, {"section-count-conflict": 35}), (376, {"section-count-conflict": 376}),
            (210, {"multiplicity-conflict": 210}), (8648, {"multiplicity-conflict": 8648}),
        ]

    def test_a_wrong_declared_end_is_left_to_the_domain_count(self, monkeypatch):
        # declared at the width-2 step, the forced (9, 5, 3) runs no stage that
        # could object, so the sweep passes; its end histogram does not
        patch_stage(monkeypatch, "ic", "cells", _flipped_cells({(9, 5, 3)}, "width-2-degree"))
        summary = ic_sweep(9)
        assert summary.all_contradicted
        assert _domain_counts("ic", 9)[-1] == (33, {"width-2-degree": 27, "width-3-degree": 6})
        assert summary.ends == {"width-2-degree": 27 + 1, "width-3-degree": 6 - 1}
