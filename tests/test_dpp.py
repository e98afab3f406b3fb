import dataclasses
import gc
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings

from treestop import (BudgetVector, Ext, InvariantViolation, POS_INF, TreeInstance,
                      condition, cumulative_functionals, first_randomization_cut, load_instance,
                      measure_to_rule, rule_from_map, rule_to_measure, solve_weak,
                      verify_dpp)
from treestop import dpp, simplex
from treestop.errors import NodeNotInTree, WordTooLong
from treestop.generate import generate_instance
from treestop.martingale import _stop_at_horizon
from treestop.measures import StoppingMeasure, feasible_for

import oracles
from oracles import normalize_cut
from conftest import acceptance_pool, make_rw
from test_colgen import CASES

F = Fraction
HALF = F(1, 2)


def stop_at_horizon_rule(tree):
    return rule_from_map(tree, {w: 0 for w in tree.nodes()
                                if len(w) < tree.depth})


def test_normalize_cut_validation(rw2):
    assert normalize_cut(rw2, 1) == ((0,), (1,))
    refusals = [
        (0, "cut depth must be in [1, 2], got 0"),
        (3, "cut depth must be in [1, 2], got 3"),
        ([(0,), (), (1,)], "the cut must come strictly after the start"),
        ([(0,), (1,), (0,)], "duplicate cut node (0,)"),
        ([(0,), (0, 0), (1,)], "cut nodes (0,) and (0, 0) are nested"),  # ancestor first
        ([(1,), (0, 1), (0, 0), (0,)], "cut nodes (0,) and (0, 1) are nested"),  # last
        ([(0,)], "cut misses the path to (1, 0)"),
        ([(0, 0), (0, 1), (1, 1)], "cut misses the path to (1, 0)"),
    ]
    for tau, message in refusals:
        with pytest.raises(ValueError, match=re.escape(message)):
            normalize_cut(rw2, tau)
    # a word that is not a node names its first bad branch
    for tau, error, message in [
            ([(0, 2), (1,)], NodeNotInTree, "word (0, 2): branch 2 out of range at step 1"),
            ([(0, 0, 0), (1,)], WordTooLong, "word (0, 0, 0) is longer than depth 2")]:
        with pytest.raises(error, match=re.escape(message)):
            normalize_cut(rw2, tau)
    # an int cut is its level's words, in row order, on a 3-branch tree
    tree = load_instance(generate_instance(seed=3, depth=3, branches=3))
    for k in range(1, 4):
        assert normalize_cut(tree, k) == tuple(w for w in tree.nodes() if len(w) == k)
    assert len(normalize_cut(tree, 2)) == 9


def test_condition_at_horizon_has_zero_budgets():
    tree = make_rw(ineq=[(1, POS_INF)])
    m = rule_to_measure(tree, stop_at_horizon_rule(tree))
    cond = condition(tree, m, 2)
    for data in cond.survivors.values():
        assert data.ys == (Ext(0),)
        assert data.measure.stop(()) == 1  # forced stop at the subtree root


def test_condition_time_budget_example():
    # stop-at-horizon measure, unit budget integrand, cut at depth 1:
    # each survivor's expected remaining accrual is one step
    tree = make_rw(ineq=[(1, POS_INF)])
    m = rule_to_measure(tree, stop_at_horizon_rule(tree))
    cond = condition(tree, m, 1)
    assert set(cond.survivors) == {(0,), (1,)}
    for data in cond.survivors.values():
        assert data.mass == HALF
        assert data.ys == (Ext(1),)
    assert cond.tower_ineq == (Ext(1),)  # 2 * (1/2 * 1): the post-cut accrual
    assert cond.stopped_before == []


def test_condition_partial_stop_rescales_survivors():
    tree = make_rw(ineq=[(1, POS_INF)])
    rule = rule_from_map(tree, {(): 0, (0,): HALF, (1,): HALF})
    m = rule_to_measure(tree, rule)
    cond = condition(tree, m, [(0, 0), (0, 1), (1,)])
    # survivors under + carry full-stop subtree measures of mass 1
    assert cond.survivors[(0, 0)].measure.stop(()) == 1
    assert cond.survivors[(1,)].mass == HALF
    stopped = {e["node"] for e in cond.stopped_before}
    assert stopped == {(0,)}


def test_condition_reports_zero_survival():
    tree = make_rw(ineq=[(1, POS_INF)])
    rule = rule_from_map(tree, {(): 0, (0,): 1, (1,): 1})
    m = rule_to_measure(tree, rule)
    cond = condition(tree, m, 2)
    assert len(cond.zero_survival) == 4 and not cond.survivors


def test_verify_dpp_inequality_budget():
    tree = make_rw(ineq=[(1, F(3, 2))])
    rep = verify_dpp(tree, 1)
    assert rep["lhs"] == rep["rhs_sub"] == Ext(F(3, 2))
    assert rep["gap"] == Ext(0) and rep["pass"]


def test_verify_dpp_unconstrained_is_a_snell_step():
    tree = make_rw(ineq=[(1, POS_INF)])
    rep = verify_dpp(tree, 1)
    assert rep["lhs"] == Ext(2) and rep["gap"] == Ext(0)


def test_verify_dpp_equality_budget_distributes_targets():
    tree = make_rw(eq=[(1, F(3, 2))])
    rep = verify_dpp(tree, 1)
    assert rep["gap"] == Ext(0) and rep["pass"]
    assert rep["per_node"]


def test_verify_dpp_with_everything_stopped_before_the_cut():
    tree = make_rw(ineq=[(1, POS_INF)])
    # optimal measure may stop early if terminal is maximized at the root
    rep = verify_dpp(tree, 2)
    assert rep["gap"] == Ext(0)


def test_verify_dpp_randomized_stage_and_heuristic():
    doc = generate_instance(seed=17, depth=3, branches=2, n_ineq=1)
    tree = load_instance(doc)
    rep = verify_dpp(tree, [(0,), (1, 0), (1, 1)])
    assert rep["gap"] == Ext(0) and rep["pass"]
    base = solve_weak(tree)
    cut = first_randomization_cut(tree, measure_to_rule(tree, base.measure))
    rep2 = verify_dpp(tree, cut)
    assert rep2["gap"] == Ext(0) and rep2["pass"]


def test_verify_dpp_after_one_solve_runs_no_lp(monkeypatch):
    # every cut reads the tree's stored solve, at the default budgets and
    # at an equal vector passed in
    tree = load_instance(generate_instance(seed=17, depth=3, branches=2, n_ineq=1))
    real, lps = simplex.Tableau.solve, []

    def record(self):
        lps.append(self)
        return real(self)

    monkeypatch.setattr(simplex.Tableau, "solve", record)
    base = solve_weak(tree)
    assert lps  # the solve itself runs the master LP
    lps.clear()
    cut = first_randomization_cut(tree, measure_to_rule(tree, base.measure))
    for tau in [*range(1, tree.depth + 1), cut]:
        assert verify_dpp(tree, tau)["pass"]
        assert verify_dpp(tree, tau, BudgetVector.of(tree.constraints))["pass"]
    assert lps == []


def test_first_randomization_cut_is_depth_first_and_holds_no_reference():
    tree = make_rw(depth=4)
    rule = rule_from_map(tree, {w: HALF if w in ((0,), (1, 1)) else 0
                                for w in tree.nodes() if len(w) < tree.depth})
    assert first_randomization_cut(tree, rule) == \
        ((0,), (1, 0, 0), (1, 0, 1), (1, 1))
    # nothing the walk leaves behind keeps the tree alive: with the cyclic
    # collector off, the last reference going frees it at once
    alive = weakref.ref(tree)
    gc.disable()
    try:
        del tree
        assert alive() is None
    finally:
        gc.enable()


def test_paste_recompose_identity():
    tree = make_rw(ineq=[(1, F(3, 2))])
    res = solve_weak(tree)
    cond = condition(tree, res.measure, 1)
    back = oracles.paste(tree, res.measure, 1,
                         {nu: d.measure for nu, d in cond.survivors.items()})
    assert back.s == res.measure.s and back.u == res.measure.u


def test_paste_flags_budget_violation_in_audit():
    tree = make_rw(eq=[(1, F(3, 2))])
    res = solve_weak(tree)
    # graft subtrees that stop immediately: the accrual drops below target
    sub = StoppingMeasure.from_masses(tree.subtree((0,)),
                                      s={(): F(1), (0,): F(0), (1,): F(0)},
                                      u={(): F(0), (0,): F(0), (1,): F(0)})
    pasted = oracles.paste(tree, res.measure, 1, {(0,): sub, (1,): sub})
    assert not feasible_for(tree, pasted, BudgetVector(ys=(), zs=(F(3, 2),)))


def test_conditioning_preserves_feasibility_for_random_measures():
    # the stability check inside condition() runs on every survivor
    for seed in range(12):
        doc = generate_instance(seed=500 + seed, depth=3, branches=2,
                                n_ineq=1, n_eq=1)
        tree = load_instance(doc)
        import random
        rng = random.Random(seed)
        q = {w: F(rng.randint(0, 4), 4) for w in tree.nodes()
             if len(w) < tree.depth}
        m = rule_to_measure(tree, rule_from_map(tree, q))
        for k in (1, 2):
            cond = condition(tree, m, k)
            for data in cond.survivors.values():
                assert feasible_for(data.subtree, data.measure,
                                    BudgetVector(ys=data.ys, zs=data.zs))


@pytest.mark.parametrize("seed", [*range(4), "pool"])
def test_condition_reads_the_trees_table_not_the_subtrees(seed):
    # survivors' values and budgets come from the tree's own table; each
    # subtree, asked afterwards, gives the same ones from its own table
    trees = acceptance_pool() if seed == "pool" else [load_instance(generate_instance(
        seed=700 + seed, depth=3, branches=3, n_ineq=1, n_eq=1))]
    for tree in trees:
        shape, horizon = tree._shape(), _stop_at_horizon(tree)
        for m in (solve_weak(tree).measure, horizon):
            for k in range(1, tree.depth + 1):
                cond = condition(tree, m, k)
                if m is horizon:  # every cut node survives
                    assert len(cond.survivors) == shape.starts[k + 1] - shape.starts[k]
                for data in cond.survivors.values():
                    assert data.subtree._table is None
                    exp = data.measure.expectations(data.subtree)
                    assert (exp["value"], exp["ineq"], exp["eq"]) == \
                        (data.value, data.ys, data.zs)


def test_condition_builds_one_measure_per_survivor_on_its_subtree(monkeypatch):
    # each survivor's value and (Y, Z) are checked on its own rows of the
    # tree's table: the only measure built per survivor is its sub-measure
    tree = load_instance(generate_instance(seed=1, depth=4, branches=3, n_ineq=1, n_eq=1))
    built = []

    def record(*args):
        built.append(StoppingMeasure(*args))
        return built[-1]

    monkeypatch.setattr(dpp, "StoppingMeasure", record)
    for m in (solve_weak(tree).measure, _stop_at_horizon(tree)):
        for k in range(1, tree.depth + 1):
            built.clear()
            survivors = condition(tree, m, k).survivors.values()
            assert [id(d.measure) for d in survivors] == list(map(id, built))
            assert all(d.measure.shape == d.subtree._shape() for d in survivors)


def test_tower_identity_matches_direct_post_cut_sum():
    doc = generate_instance(seed=31, depth=3, branches=3, n_ineq=1, n_eq=1)
    tree = load_instance(doc)
    res = solve_weak(tree)
    cut = normalize_cut(tree, 2)
    cond = condition(tree, res.measure, cut)
    in_cut = set(cut)
    direct_g = Ext(0)
    direct_h = Ext(0)
    for w in tree.nodes():
        anc = next((w[:k] for k in range(len(w) + 1) if w[:k] in in_cut), None)
        if anc is None or res.measure.stop(w) == 0:
            continue
        _, G_w, H_w = cumulative_functionals(tree, w)
        _, G_a, H_a = cumulative_functionals(tree, anc)
        direct_g = direct_g + (G_w[0] - G_a[0]) * res.measure.stop(w)
        direct_h = direct_h + (H_w[0] - H_a[0]) * res.measure.stop(w)
    assert cond.tower_ineq == (direct_g,)
    assert cond.tower_eq == (direct_h,)


def test_condition_budget_mismatch_is_an_invariant_violation(monkeypatch):
    # one survivor's remaining accruals, as the split reads them off the
    # owner array, skewed against its own rows of the table
    real = dpp._split

    def skewed(*args):
        *head, survivors, tower = real(*args)
        nu, i, r, F_nu, at_nu, value, rest = survivors[-1]
        survivors[-1] = (nu, i, r, F_nu, at_nu, value, [rest[0] + 1, *rest[1:]])
        return (*head, survivors, tower)

    tree = make_rw(ineq=[(1, F(3, 2))])
    measure = solve_weak(tree).measure
    monkeypatch.setattr(dpp, "_split", skewed)
    with pytest.raises(InvariantViolation, match="accruals"):
        condition(tree, measure, 1)


def test_pasted_value_mismatch_is_an_invariant_violation(monkeypatch):
    tree = make_rw(ineq=[(1, F(3, 2))])

    def inflated_subsolves(t, budgets=None):
        res = solve_weak(t, budgets)
        if t is tree:
            return res
        return dataclasses.replace(res, value=res.value + Ext(1))

    monkeypatch.setattr(oracles, "solve_weak", inflated_subsolves)
    with pytest.raises(InvariantViolation, match="decomposed value"):
        oracles.verify_dpp_by_subtree_lp(tree, 1)


def test_infeasible_pasting_is_an_invariant_violation(monkeypatch):
    tree = make_rw(ineq=[(1, F(3, 2))])
    monkeypatch.setattr(oracles, "feasible_for", lambda *args: False)
    with pytest.raises(InvariantViolation, match="left the budgets"):
        oracles.verify_dpp_by_subtree_lp(tree, 1)


def verify_stored(tree, bad):
    """verify_dpp at cut 1, reading ``bad`` as the tree's stored solve at
    its default budgets."""
    tree._solved = (BudgetVector.of(tree.constraints), bad)
    return verify_dpp(tree, 1)


def test_perturbed_duals_are_an_invariant_violation():
    # the time budget's dual is 1; any other price breaks the certificate
    tree = make_rw(ineq=[(1, F(3, 2))])
    res = solve_weak(tree)
    assert res.duals_ineq == (1,)
    for pi, match in ((F(11, 10), "continues at"), (F(9, 10), "stops at"),
                      (F(-1), "not >= 0")):
        bad = dataclasses.replace(res, duals_ineq=(pi,))
        with pytest.raises(InvariantViolation, match=match):
            verify_stored(tree, bad)
    tree = make_rw(eq=[(1, F(3, 2))])
    res = solve_weak(tree)
    bad = dataclasses.replace(res, duals_eq=(res.duals_eq[0] + 1,))
    with pytest.raises(InvariantViolation):
        verify_stored(tree, bad)


def test_stopping_below_the_envelope_is_an_invariant_violation():
    # unconstrained, the optimum waits for the horizon (value 2); a measure
    # that stops at the root meets the vacuous budget but not the envelope
    tree = make_rw(ineq=[(1, POS_INF)])
    res = solve_weak(tree)
    at_root = rule_to_measure(tree, rule_from_map(
        tree, {w: 1 for w in tree.nodes() if len(w) < tree.depth}))
    bad = dataclasses.replace(res, measure=at_root)
    with pytest.raises(InvariantViolation, match="payoff is below the envelope"):
        verify_stored(tree, bad)


def test_a_value_the_duals_do_not_price_is_an_invariant_violation():
    tree = make_rw(ineq=[(1, F(3, 2))])
    res = solve_weak(tree)
    bad = dataclasses.replace(res, value=res.value + Ext(1))
    with pytest.raises(InvariantViolation, match="not at the value"):
        verify_stored(tree, bad)


def test_a_slack_priced_bound_is_an_invariant_violation():
    tree = make_rw(ineq=[(1, F(3, 2))])
    res = solve_weak(tree)
    bad = dataclasses.replace(res, measure=rule_to_measure(
        tree, rule_from_map(tree, {(): 1, (0,): 1, (1,): 1})))
    with pytest.raises(InvariantViolation, match="slack"):
        verify_stored(tree, bad)


def test_verify_dpp_makes_one_solve_and_no_subtree(monkeypatch):
    tree = load_instance(generate_instance(seed=4, depth=3, branches=2,
                                           n_ineq=1, n_eq=1))
    solves, subtrees = [], []

    def counted_solve(t, *args, **kwargs):
        solves.append(t)
        return solve_weak(t, *args, **kwargs)

    real_subtree = TreeInstance.subtree

    def counted_subtree(self, word):
        subtrees.append(word)
        return real_subtree(self, word)

    monkeypatch.setattr(dpp, "solve_weak", counted_solve)
    monkeypatch.setattr(TreeInstance, "subtree", counted_subtree)
    verify_dpp(tree, 2)
    assert solves == [tree] and subtrees == []


def assert_matches_the_oracle(tree, budgets=None):
    """verify_dpp's reports equal the subtree-LP oracle's at every depth cut
    and at the first-randomization cut."""
    rule = measure_to_rule(tree, solve_weak(tree, budgets).measure)
    for cut in [*range(1, tree.depth + 1), first_randomization_cut(tree, rule)]:
        want = oracles.verify_dpp_by_subtree_lp(tree, cut, budgets)
        assert verify_dpp(tree, cut, budgets) == want, (tree.source, cut)


def test_the_stored_solve_never_answers_other_budgets():
    # the tree keeps one solve: alternating budgets must re-solve each time,
    # never report off the other budgets' stored result
    tree = make_rw(depth=3, ineq=[(1, F(5, 2))])
    tight = BudgetVector(ys=(1,))
    order = [tight, BudgetVector.of(tree.constraints), tight]
    reports = [[verify_dpp(tree, cut, b) for cut in range(1, tree.depth + 1)]
               for b in order]
    assert reports[0] != reports[1]
    for b, got in zip(order, reports):
        assert got == [oracles.verify_dpp_by_subtree_lp(tree, cut, b)
                       for cut in range(1, tree.depth + 1)]


def test_verify_dpp_matches_the_subtree_lp_oracle_on_the_pool():
    for tree in acceptance_pool():
        assert_matches_the_oracle(tree)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
def test_verify_dpp_matches_the_subtree_lp_oracle(case):
    # column generation's cases: mixes (0,1) to (2,1), +inf bounds, shifted
    # budgets=, l = d = 2, ties everywhere and per-level branching
    tree, budgets = case
    assume(solve_weak(tree, budgets).optimal)
    assert_matches_the_oracle(tree, budgets)
