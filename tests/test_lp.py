import dataclasses
from fractions import Fraction

import pytest

from treestop import (BudgetVector, EmptyFamily, Ext, InvariantViolation,
                      POS_INF, build_tree, fractional_nodes, instance_hash, load_instance, lp,
                      measure_to_rule, rule_to_measure, simplex, solve_robust,
                      solve_weak)
from treestop.generate import generate_instance
from treestop.measures import StoppingMeasure

from conftest import assert_separates, make_rw, solve_weak_recording_lps
from oracles import best_rule_value, path_prob, snell_value

F = Fraction
HALF = F(1, 2)


def budget(y=None, z=None):
    return BudgetVector(ys=() if y is None else (y,),
                        zs=() if z is None else (z,))


def test_unconstrained_value_and_support(rw2):
    res = solve_weak(rw2)
    assert res.optimal and res.value == Ext(2)
    # stop everywhere at the horizon
    assert all(res.measure.stop(w) == path_prob(rw2, w) for w in rw2.leaves())
    assert snell_value(rw2) == res.value


def test_budget_line_is_linear_then_flat(rw2):
    for y in (0, HALF, 1, F(3, 2), 2, 3):
        res = solve_weak(rw2, budget(y=F(y)))
        assert res.optimal
        assert res.value == Ext(min(F(y), F(2)))
        # mixing stop-now against stop-at-horizon attains the line
        assert len(fractional_nodes(rw2, res.measure)) <= 1


def test_budget_duals_track_the_slope(rw2):
    assert solve_weak(rw2, budget(y=1)).duals_ineq == (F(1),)
    assert solve_weak(rw2, budget(y=3)).duals_ineq == (F(0),)


def test_equality_budget(rw2_plain):
    tree = make_rw(eq=[(1, F(3, 2))])
    res = solve_weak(tree)
    assert res.optimal and res.value == Ext(F(3, 2))
    res = solve_weak(tree, BudgetVector(ys=(), zs=(F(3),)))
    assert not res.optimal and res.status == "infeasible"
    assert res.certificate is not None


def test_infinite_equality_target_has_reason_code():
    tree = make_rw(eq=[(1, F(0))])
    res = solve_weak(tree, BudgetVector(ys=(), zs=(POS_INF,)))
    assert res.status == "infeasible" and "infinite" in res.reason


def test_depth_zero_tree():
    tree = build_tree(dt=1, depth=0, branching=[], x0=3,
                      terminal=lambda t, xs: xs[-1])
    res = solve_weak(tree)
    assert res.optimal and res.value == Ext(3)
    assert res.measure.stop(()) == 1
    budgeted = build_tree(dt=1, depth=0, branching=[], x0=3,
                          terminal=lambda t, xs: xs[-1],
                          inequalities=[(1, 1)], equalities=[(1, 0)])
    res = solve_weak(budgeted)
    assert res.optimal and res.value == Ext(3)
    assert (res.measure.s, res.measure.u) == ({(): 1}, {(): 0})
    assert (res.duals_ineq, res.duals_eq) == ((0,), (0,))


def test_measure_to_rule_round_trip(rw2):
    res = solve_weak(rw2, budget(y=1))
    rule = measure_to_rule(rw2, res.measure)
    back = rule_to_measure(rw2, rule)
    assert back.s == res.measure.s and back.u == res.measure.u


def test_measure_to_rule_unreachable_convention(rw2):
    # everything stops at depth 1, so the horizon level carries no mass
    s = {w: F(0) for w in rw2.nodes()}
    u = {w: F(0) for w in rw2.nodes()}
    u[()] = F(1)
    s[(0,)] = s[(1,)] = HALF
    m = StoppingMeasure.from_masses(rw2, s, u)
    rule = measure_to_rule(rw2, m)
    assert all(rule.prob(w) == 1 for w in rw2.leaves())  # unreachable: q = 1
    back = rule_to_measure(rw2, rule)
    assert back.s == m.s and back.u == m.u


def test_matches_exhaustive_rule_search_unconstrained():
    for seed in range(8):
        doc = generate_instance(seed=seed, depth=2, branches=2, n_ineq=0, n_eq=0)
        tree = load_instance(doc)
        res = solve_weak(tree)
        assert res.optimal
        assert res.value == best_rule_value(tree, (), ())
        assert res.value == snell_value(tree)


def test_matches_exhaustive_rule_search_one_inequality():
    for seed in range(6):
        doc = generate_instance(seed=100 + seed, depth=2, branches=2,
                                n_ineq=1, n_eq=0)
        tree = load_instance(doc)
        y = tree.constraints.inequalities[0][1]
        res = solve_weak(tree)
        assert res.optimal
        assert res.value == best_rule_value(tree, (y,), ())


def test_matches_exhaustive_rule_search_one_equality():
    for seed in range(6):
        doc = generate_instance(seed=200 + seed, depth=2, branches=2,
                                n_ineq=0, n_eq=1)
        tree = load_instance(doc)
        z = tree.constraints.equalities[0][1]
        res = solve_weak(tree)
        assert res.optimal
        assert res.value == best_rule_value(tree, (), (z,))


def test_value_monotone_in_inequality_budget():
    doc = generate_instance(seed=7, depth=3, branches=2, n_ineq=1, nonneg_g=True)
    tree = load_instance(doc)
    values = []
    for y in (F(0), HALF, F(1), F(2), F(4), POS_INF):
        res = solve_weak(tree, BudgetVector(ys=(y,), zs=()))
        assert res.optimal
        values.append(res.value)
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_value_concave_in_budgets(rw2):
    vals = {y: solve_weak(rw2, budget(y=F(y))).value.fraction()
            for y in (0, 1, 2)}
    assert vals[1] >= HALF * vals[0] + HALF * vals[2]


def test_fractional_support_bounded_by_constraint_count():
    for seed in range(10):
        doc = generate_instance(seed=300 + seed, depth=3, branches=3,
                                n_ineq=1, n_eq=1)
        tree = load_instance(doc)
        res = solve_weak(tree)
        assert res.optimal
        c = tree.constraints.n_ineq + tree.constraints.n_eq
        assert len(fractional_nodes(tree, res.measure)) <= c


def test_value_indifferent_to_pinned_brownian_history():
    # two documents that differ only in the Brownian path before t0: the
    # field is read into the canonical form, so the hashes differ, and no
    # engine reads it, so the solves agree
    doc = {"dt": "1", "depth": 2, "pi": "x_current**2",
           "branching": [{"p": "1/2", "w": "1"}, {"p": "1/2", "w": "-1"}]}
    a = load_instance({**doc, "w_history": []})
    b = load_instance({**doc, "w_history": ["7", "-3", "11"]})
    assert b.source["w_history"] == ["7", "-3", "11"]
    assert instance_hash(a) != instance_hash(b)
    ra, rb = solve_weak(a), solve_weak(b)
    assert ra.value == rb.value
    assert ra.measure.s == rb.measure.s


def test_robust_family(rw2):
    sigma2 = make_rw(sigma=2, ineq=[(1, POS_INF)])
    best, idx = solve_robust([rw2, sigma2])
    assert best.value == Ext(8) and idx == 1
    single, idx0 = solve_robust([rw2])
    assert single.value == solve_weak(rw2).value and idx0 == 0


def test_robust_skips_infeasible_members():
    feasible = make_rw(eq=[(1, F(3, 2))])
    infeasible = make_rw(eq=[(1, F(3))])
    best, idx = solve_robust([infeasible, feasible])
    assert best.optimal and idx == 1
    allbad, idx2 = solve_robust([infeasible])
    assert allbad.status == "infeasible" and idx2 is None


def test_robust_empty_family():
    with pytest.raises(EmptyFamily):
        solve_robust([])


def test_infinite_node_reward_rejected():
    tree = make_rw()
    tree = build_tree(dt=1, depth=1, branching=[(HALF, 1), (HALF, -1)], x0=0,
                      reward=lambda t, xs: Ext(0, sign=1))
    with pytest.raises(ValueError):
        solve_weak(tree)


def test_infeasibility_certificate_is_a_farkas_witness():
    # the dense 6x2 instance with every inequality budget lowered by 1000
    tree = load_instance(generate_instance(seed=1, depth=6, branches=2,
                                           n_ineq=2, n_eq=1))
    budgets = BudgetVector.of(tree.constraints)
    tight = BudgetVector(ys=tuple(y - 1000 for y in budgets.ys), zs=budgets.zs)
    assert_separates(tree, tight, solve_weak(tree, tight))


@pytest.mark.parametrize("budgets", [BudgetVector(ys=(F(-1),), zs=(F(0),)),
                                     BudgetVector(ys=(F(1),), zs=(F(1, 2),)),
                                     BudgetVector(ys=(POS_INF,), zs=(F(1, 2),))],
                         ids=["negative-bound", "nonzero-target", "vacuous-bound"])
def test_depth_zero_infeasibility_has_a_farkas_witness(budgets):
    tree = build_tree(dt=1, depth=0, branching=[], x0=3,
                      inequalities=[(1, 1)], equalities=[(1, 0)])
    assert_separates(tree, budgets, solve_weak(tree, budgets))


def test_unbounded_weak_lp_is_an_invariant_violation(rw2, monkeypatch):
    monkeypatch.setattr(simplex.Tableau, "solve",
                        lambda self: simplex.LPResult(status=simplex.UNBOUNDED))
    with pytest.raises(InvariantViolation, match="mass polytope"):
        solve_weak(rw2)


def test_a_priced_column_already_in_the_master_is_an_invariant_violation(rw2, monkeypatch):
    # pricing stuck on the first column: stop at the horizon, E[tau] = 2 > 1
    real, first = lp._stopping_time, []

    def stuck(table, pay, env):
        if not first:
            first.append(real(table, pay, env))
        return first[0]

    monkeypatch.setattr(lp, "_stopping_time", stuck)
    with pytest.raises(InvariantViolation, match="already in the master"):
        solve_weak(rw2, budget(y=1))


def test_master_has_one_row_per_finite_budget_and_a_convexity_row(monkeypatch):
    tree = load_instance(generate_instance(seed=1, depth=4, branches=2,
                                           n_ineq=2, n_eq=1))
    budgets = BudgetVector(ys=(tree.constraints.inequalities[0][1], POS_INF),
                           zs=(tree.constraints.equalities[0][1],))
    res, lps = solve_weak_recording_lps(monkeypatch, tree, budgets)
    assert res.optimal and res.duals_ineq[1] == 0
    (c, rows, senses, rhs), _ = lps[0]
    assert len(c) == 1 and senses == ["<=", "=", "="] and rhs[-1] == 1
    # one priced column enters per master solve
    masters = [c for (c, _, senses, _), _ in lps if senses == ["<=", "=", "="]]
    assert [len(c) for c in masters] == list(range(1, len(masters) + 1))


def test_objective_bookkeeping_mismatch_is_an_invariant_violation(rw2, monkeypatch):
    real = simplex.Tableau.objective

    def shifted(self):
        return real(self) + 1

    monkeypatch.setattr(simplex.Tableau, "objective", shifted)
    with pytest.raises(InvariantViolation, match="disagrees"):
        solve_weak(rw2)


# -- the tree's solve memo ----------------------------------------------------

def test_a_repeat_solve_at_equal_budgets_returns_the_stored_result(monkeypatch):
    tree = load_instance(generate_instance(seed=1, depth=3, branches=2, n_ineq=1))
    res = solve_weak(tree)
    assert solve_weak(tree) is res
    # an equal budget vector built apart, from Fractions, hits the slot
    apart = BudgetVector(ys=tuple(y.fraction() for y in BudgetVector.of(tree.constraints).ys))
    again, lps = solve_weak_recording_lps(monkeypatch, tree, apart)
    assert again is res and lps == []


def test_the_solve_memo_holds_one_budget_vector(rw2, monkeypatch):
    first, lps = solve_weak_recording_lps(monkeypatch, rw2, budget(y=1))
    assert lps and first.value == Ext(1)
    second, lps = solve_weak_recording_lps(monkeypatch, rw2, budget(y=HALF))
    assert lps and second.value == Ext(HALF)
    # b1, b2, b1: the slot holds b2, so the master LP runs again
    third, lps = solve_weak_recording_lps(monkeypatch, rw2, budget(y=1))
    assert lps and third is not first and third == first
    # an infeasible result is stored too
    empty = solve_weak(rw2, budget(y=-1))
    assert not empty.optimal and solve_weak(rw2, budget(y=-1)) is empty


def test_solve_results_are_frozen(rw2):
    res = solve_weak(rw2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value = Ext(0)
    assert isinstance(solve_weak(rw2, budget(y=-1)).certificate, tuple)


def test_a_solve_returns_the_result_it_matched_when_another_store_races_in(rw2):
    # a racing solve at other budgets stores its result between the budget
    # check and the return
    other = solve_weak(rw2, budget(y=HALF))

    class Racing(BudgetVector):
        def __eq__(self, them):
            rw2._solved = (budget(y=HALF), other)
            return super().__eq__(them)

    ys = Racing(ys=(F(1),))
    first = solve_weak(rw2, ys)
    assert first.value == Ext(1) and solve_weak(rw2, ys) is first
