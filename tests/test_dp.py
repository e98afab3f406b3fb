from fractions import Fraction

import pytest

from treestop import (BudgetBelowDomain, BudgetVector, ConcaveEnvelope, Ext,
                      POS_INF, UnsupportedConstraintShape, build_tree, cumulative_functionals,
                      dp_value, load_instance, root_envelope, solve_weak)
from treestop.generate import generate_instance

from conftest import make_rw
from oracles import kernel_backstep, node_envelopes, slopes

F = Fraction
HALF = F(1, 2)


def time_budget_rw(y=POS_INF, depth=2):
    return make_rw(depth=depth, ineq=[(1, y)])


def test_leaf_envelope_is_constant_terminal_payoff():
    tree = time_budget_rw()
    env = node_envelopes(tree)
    for leaf in tree.leaves():
        e = env[leaf]
        assert e.xs == (F(0),)
        assert e.vs == (F(tree.state(leaf)) ** 2,)


def test_root_envelope_is_min_y_2():
    env = root_envelope(time_budget_rw())
    assert env.xs == (F(0), F(2)) and env.vs == (F(0), F(2))


def test_dp_examples():
    tree = time_budget_rw()
    assert dp_value(tree, 1) == Ext(1)
    assert dp_value(tree, POS_INF) == Ext(2)
    assert dp_value(tree, 0) == Ext(0)


def test_stop_dominates_gives_constant_envelope():
    tree = build_tree(dt=1, depth=1, branching=[(HALF, 1), (HALF, -1)], x0=0,
                      terminal=lambda t, xs: 5 if len(xs) == 1 else 0,
                      inequalities=[(1, POS_INF)])
    env = root_envelope(tree)
    assert env.xs == (F(0),) and env.vs == (F(5),)


def test_backstep_mixes_stop_point_with_continuation():
    kids = [(HALF, ConcaveEnvelope(xs=(F(0),), vs=(F(4),))),
            (HALF, ConcaveEnvelope(xs=(F(0),), vs=(F(0),)))]
    env = kernel_backstep(F(1), F(0), F(1), kids)
    # continuing costs 1 of budget and is worth 2; stopping is worth 1
    assert env.value(0) == 1 and env.value(1) == 2
    assert env.value(HALF) == F(3, 2)  # randomize between the two


def test_constraint_shape_guarded():
    with pytest.raises(UnsupportedConstraintShape):
        dp_value(make_rw(), 1)
    with pytest.raises(UnsupportedConstraintShape):
        dp_value(make_rw(ineq=[(1, POS_INF)], eq=[(1, F(1))]), 1)


def test_matches_lp_on_budget_grid():
    for seed in range(8):
        doc = generate_instance(seed=400 + seed, depth=3, branches=2,
                                n_ineq=1, nonneg_g=True)
        tree = load_instance(doc)
        gmax = max(cumulative_functionals(tree, w)[1][0] for w in tree.leaves())
        for j in range(11):
            y = gmax * F(j, 10)
            lp = solve_weak(tree, BudgetVector(ys=(y,), zs=()))
            assert lp.optimal
            assert dp_value(tree, y) == lp.value, (seed, y)
        assert dp_value(tree, POS_INF) == solve_weak(
            tree, BudgetVector(ys=(POS_INF,), zs=())).value


def test_negative_budget_integrand_extends_domain_left():
    tree = build_tree(dt=1, depth=2, branching=[(HALF, 1), (HALF, -1)], x0=0,
                      terminal=lambda t, xs: xs[-1] ** 2,
                      inequalities=[(-1, POS_INF)])
    env = root_envelope(tree)
    assert env.xs[0] < 0
    for y in (F(-2), F(-3, 2), F(-1), F(0)):
        lp = solve_weak(tree, BudgetVector(ys=(y,), zs=()))
        assert lp.optimal
        assert dp_value(tree, y) == lp.value
    with pytest.raises(BudgetBelowDomain):
        dp_value(tree, F(-5))
    lp = solve_weak(tree, BudgetVector(ys=(F(-5),), zs=()))
    assert lp.status == "infeasible"


def test_envelopes_stay_concave_and_monotone():
    doc = generate_instance(seed=99, depth=3, branches=3, n_ineq=1)
    tree = load_instance(doc)
    for env in node_envelopes(tree).values():
        env_slopes = slopes(env)
        assert all(s >= 0 for s in env_slopes)
        assert all(a >= b for a, b in zip(env_slopes, env_slopes[1:]))
