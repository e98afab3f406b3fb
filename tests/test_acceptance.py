"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
All equality assertions are exact rational comparisons; the only tolerance
appears where a criterion itself states one (Monte Carlo standard errors,
the log-log slope bound).
"""

import time
from fractions import Fraction

import pytest

from treestop import (BudgetVector, Ext, POS_INF, check_membership, cumulative_functionals,
                      dp_value, generator_gap_decay, load_instance, measure_to_rule,
                      monte_carlo_value, rule_from_map, solve_robust, solve_weak,
                      stop_mass_by_eta_integration, verify_dpp)
from treestop.generate import generate_instance

from conftest import acceptance_corruptions, acceptance_pool, make_rw

F = Fraction
HALF = F(1, 2)

@pytest.fixture(scope="module")
def pool():
    return acceptance_pool()


@pytest.fixture(scope="module")
def pool_solutions(pool):
    out = []
    for tree in pool:
        res = solve_weak(tree)
        assert res.optimal, "generated instances are feasible by construction"
        out.append(res)
    return out


def test_acceptance_1_strong_weak_equivalence(pool, pool_solutions):
    started = time.perf_counter()
    for tree, res in zip(pool, pool_solutions):
        rule = measure_to_rule(tree, res.measure)
        via_eta = stop_mass_by_eta_integration(tree, rule)
        for w in tree.nodes():
            assert via_eta.stop(w) == res.measure.stop(w), (tree.source, w)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 strong=weak hitting-time equivalence: PASS "
          f"({len(pool)}/{len(pool)} stop-mass vectors exact, {elapsed:.2f}s)")


def test_acceptance_2_dpp_identity(pool):
    started = time.perf_counter()
    checks = 0
    for tree in pool:
        for k in range(1, tree.depth):
            report = verify_dpp(tree, k)  # SubproblemInfeasible would raise
            assert report["gap"] == Ext(0), (tree.source, k)
            assert report["pass"]
            checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 budget-state value recursion: PASS "
          f"({checks} stage checks, gap = 0 exactly, {elapsed:.2f}s)")


def test_acceptance_3_dp_engine_vs_lp_oracle():
    started = time.perf_counter()
    checks = 0
    for i in range(30):
        doc = generate_instance(seed=9500 + i, depth=2 + (i % 2),
                                branches=2 + ((i // 3) % 2),
                                n_ineq=1, n_eq=0, nonneg_g=True)
        tree = load_instance(doc)
        g_max = max(cumulative_functionals(tree, w)[1][0] for w in tree.leaves())
        for j in range(11):
            y = g_max * F(j, 10)
            lp = solve_weak(tree, BudgetVector(ys=(y,), zs=()))
            assert lp.optimal
            assert dp_value(tree, y) == lp.value, (doc, y)
            checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 budget recursion vs LP oracle: PASS "
          f"({checks} budget points, |difference| = 0 exactly, {elapsed:.2f}s)")


def test_acceptance_4_constraint_taxonomy(pool, pool_solutions):
    started = time.perf_counter()
    # vacuous bound and vacuous target leave the solve unchanged
    padded_checked = 0
    for tree, res in zip(pool[:10], pool_solutions[:10]):
        doc = dict(tree.source)
        cons = {"ineq": list(doc["constraints"]["ineq"]) + [{"g": "coord", "y": "inf"}],
                "eq": list(doc["constraints"]["eq"]) + [{"h": "zero", "z": "0"}]}
        padded = load_instance({**doc, "constraints": cons})
        pres = solve_weak(padded)
        assert pres.optimal and pres.value == res.value
        padded_checked += 1

    # unit time-budget rate: the value in the bound is min(y, 2) on the walk
    values = {}
    for y in (F(0), HALF, F(1), F(3, 2), F(2), F(3)):
        tree = make_rw(ineq=[(1, y)])
        lp = solve_weak(tree)
        assert lp.optimal and lp.value == Ext(min(y, F(2)))
        assert dp_value(tree, y) == Ext(min(y, F(2)))
        values[y] = lp.value
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE 4 constraint taxonomy: PASS "
          f"({padded_checked} vacuous-padding checks, "
          f"6 moment budgets match min(y, 2) exactly, {elapsed:.2f}s)")


def test_acceptance_5_membership_tests(pool, pool_solutions):
    started = time.perf_counter()
    # (a) solver-produced measures pass with statistics identically zero
    for tree, res in zip(pool, pool_solutions):
        report = check_membership(tree, res.measure, degree=2, mode="exact")
        assert report.ok, tree.source
        assert all(r["stat"] == 0 for r in report.clause1)

    # (b) each single corruption is rejected
    rejected = 0
    for i, kind, eps, tree, cand in acceptance_corruptions(pool):
        report = check_membership(tree, cand, degree=2)
        assert not report.ok, (i, kind, eps)
        rejected += 1

    # (c) generator-mode statistics decay linearly under grid refinement
    study = generator_gap_decay()
    assert study["slope"] >= 0.9, study
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE 5 membership tests: PASS "
          f"({len(pool)} exact passes, {rejected}/100 corruptions rejected, "
          f"refinement slope {study['slope']:.3f} >= 0.9, {elapsed:.2f}s)")


def test_acceptance_6_monte_carlo_consistency():
    started = time.perf_counter()
    tree = make_rw(ineq=[(1, POS_INF)])
    rule = rule_from_map(tree, {(): 0, (0,): HALF, (1,): HALF})
    est = monte_carlo_value(tree, rule, paths=10 ** 6, seed=20240817)
    mean, se = est["value"]
    assert se < 0.01
    assert abs(mean - 1.5) <= 3 * se
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE 6 Monte Carlo consistency: PASS "
          f"(estimate {mean:.6f} within 3 x {se:.6f} of 1.5, {elapsed:.2f}s)")


def test_acceptance_7_robust_value():
    started = time.perf_counter()
    family = [make_rw(sigma=1, ineq=[(1, POS_INF)]),
              make_rw(sigma=2, ineq=[(1, POS_INF)])]
    best, idx = solve_robust(family)
    assert best.optimal and best.value == Ext(8) and idx == 1
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE 7 robust two-model value: PASS "
          f"(value 8 from model 2 exactly, {elapsed:.2f}s)")
