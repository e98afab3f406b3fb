"""Column generation against the dense node LP it replaced, on small trees
drawn by hypothesis: statuses and values equal the node LP's (and the
exhaustive rule search's with at most one constraint), measures are
vertices within budget, the duals close the Lagrangian duality gap, and
infeasibility certificates separate the budgets from every law."""

from fractions import Fraction

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from treestop import (POS_INF, BudgetVector, build_tree, cumulative_functionals,
                      fractional_nodes, load_instance)
from treestop import simplex, solve_weak
from treestop.generate import generate_instance
from treestop.measures import feasible_for

from conftest import assert_agrees_with_cold, assert_separates, make_rw, solve_weak_recording_lps
from oracles import best_rule_value, node_lp_solve, snell_value, stop_payoff

F = Fraction
HALF = F(1, 2)
SHIFTS = [F(-3), F(-1), F(-1, 4), F(1, 3), F(2)]


@st.composite
def generated(draw, n_ineq=None, n_eq=None, vacuous=False, shift=False):
    doc = generate_instance(
        seed=draw(st.integers(0, 10**6)), depth=draw(st.integers(1, 3)),
        branches=draw(st.integers(2, 3)),
        n_ineq=draw(st.integers(0, 2)) if n_ineq is None else n_ineq,
        n_eq=draw(st.integers(0, 1)) if n_eq is None else n_eq,
        nonneg_g=draw(st.booleans()), vacuous_rate=0.5 if vacuous else 0.0)
    tree = load_instance(doc)
    budgets = BudgetVector.of(tree.constraints)
    if shift:  # moved off the reference rule's accruals: often infeasible
        budgets = BudgetVector(ys=tuple(y + draw(st.sampled_from(SHIFTS)) for y in budgets.ys),
                               zs=tuple(z + draw(st.sampled_from(SHIFTS)) for z in budgets.zs))
    return tree, budgets


@st.composite
def symmetric(draw):
    """The +-1 walk with payoff x^2: a time budget makes every node tie."""
    depth = draw(st.integers(1, 3))
    y = draw(st.sampled_from([F(0), HALF, F(1), F(3, 2), F(2), F(3), POS_INF]))
    eq = draw(st.sampled_from([[], [(lambda t, xs: xs[-1], F(0))]]))
    tree = make_rw(depth=depth, ineq=[(1, y)], eq=eq)
    return tree, BudgetVector.of(tree.constraints)


@st.composite
def vector_state(draw):
    """l = d = 2 states with a state-dependent drift."""
    y = draw(st.sampled_from([F(1), F(3, 2), F(2), F(4)]))
    z = draw(st.sampled_from([F(0), F(1, 4), F(1)]))
    tree = build_tree(
        dt=HALF, depth=draw(st.integers(1, 3)), x0=(0, 1),
        branching=[(F(1, 4), (1, 0)), (F(3, 4), (F(-1, 3), HALF))],
        drift=lambda t, xs: (xs[-1][1] / 2, 1 - xs[-1][0]),
        diffusion=((1, 0), (HALF, 1)),
        reward=lambda t, xs: xs[-1][1] / 4,
        terminal=lambda t, xs: xs[-1][0] * xs[-1][1],
        inequalities=[(lambda t, xs: xs[-1][0] ** 2 + HALF, y)],
        equalities=draw(st.sampled_from([[], [(lambda t, xs: xs[-1][1] - 1, z)]])))
    return tree, BudgetVector.of(tree.constraints)


@st.composite
def per_level(draw):
    """Branching that differs from level to level."""
    y = draw(st.sampled_from([F(1), F(2), F(3), POS_INF]))
    tree = build_tree(
        dt=1, depth=3, x0=0,
        branching=[[(HALF, 1), (HALF, -1)],
                   [(F(1, 4), 2), (F(1, 4), 0), (HALF, -1)],
                   [(F(1, 3), 1), (F(2, 3), F(-1, 2))]],
        reward=lambda t, xs: xs[-1] / 3, terminal=lambda t, xs: xs[-1] ** 2,
        inequalities=[(lambda t, xs: 1 + t, y)],
        equalities=draw(st.sampled_from([[], [(lambda t, xs: xs[-1], HALF)]])))
    return tree, BudgetVector.of(tree.constraints)


CASES = st.one_of(
    generated(),
    generated(shift=True),
    generated(n_ineq=0, n_eq=2),
    generated(n_ineq=2, vacuous=True),
    symmetric(),
    vector_state(),
    per_level(),
)


def _finite_rows(budgets):
    return sum(1 for y in budgets.ys if not y.is_pos_inf) + len(budgets.zs)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
def test_column_generation_matches_the_node_lp(case):
    tree, budgets = case
    res = solve_weak(tree, budgets)
    want = node_lp_solve(tree, budgets)
    event(res.status)
    assert res.status == want.status
    interior = sum(1 for w in tree.nodes() if len(w) < tree.depth)
    if _finite_rows(budgets) <= 1 and interior <= 7:
        best = best_rule_value(tree, budgets.ys, budgets.zs)
        assert res.value == best if res.optimal else best.is_neg_inf
    if not res.optimal:
        assert_separates(tree, budgets, res)
        return
    assert res.value == want.value

    measure = res.measure
    measure.validate(tree)
    assert feasible_for(tree, measure, budgets)
    assert measure.expectations(tree)["value"] == res.value
    randomized = len(fractional_nodes(tree, measure))
    event(f"randomizes at {randomized} nodes")
    assert randomized <= _finite_rows(budgets)

    # Lagrangian duality: the Snell value of V - pi.G - mu.H plus the priced
    # budgets is the optimum
    pi, mu = res.duals_ineq, res.duals_eq
    assert all(p >= 0 for p in pi)
    assert all(p == 0 for p, y in zip(pi, budgets.ys) if y.is_pos_inf)

    def lagrangian(word):
        _, Gs, Hs = cumulative_functionals(tree, word)
        return stop_payoff(tree, word) - sum(p * G for p, G in zip(pi, Gs)) \
            - sum(m * H for m, H in zip(mu, Hs))

    priced = sum(p * y.fraction() for p, y in zip(pi, budgets.ys) if p) \
        + sum(m * z.fraction() for m, z in zip(mu, budgets.zs))
    assert res.value == snell_value(tree, lagrangian) + priced


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=CASES)
def test_every_master_round_agrees_with_a_cold_solve_of_its_columns(monkeypatch, case):
    # the master's tableau is kept, and each priced column enters it; every
    # round must agree with solve_lp on all the columns priced in so far
    tree, budgets = case
    res, seen = solve_weak_recording_lps(monkeypatch, tree, budgets)
    assert seen
    for lp, got in seen:
        assert_agrees_with_cold(lp, got, simplex.solve_lp(*lp))
    event(f"{len(seen)} simplex solves, {res.status}")
