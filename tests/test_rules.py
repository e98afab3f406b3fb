from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestop import (EquivalenceViolation, Ext, InvariantViolation,
                      RuleShapeMismatch, ThetaProcess,
                      derandomize, equivalence_check, monte_carlo_value,
                      rule_from_map, rule_to_measure, stop_mass_by_eta_integration,
                      theta_of_rule)
from treestop.lattice import build_tree
from treestop.rules import _hit_depth

from conftest import make_rw
from oracles import atom_expectations

HALF = Fraction(1, 2)


def rule_q(tree, mapping):
    return rule_from_map(tree, mapping)


# -- theta ------------------------------------------------------------------

def test_theta_immediate_stop(rw2):
    rule = rule_q(rw2, {(): 1, (0,): 1, (1,): 1})
    theta = theta_of_rule(rw2, rule)
    assert all(theta.at(w) == 1 for w in rw2.nodes())


def test_theta_word_independent(rw2, half_rule):
    theta = theta_of_rule(rw2, half_rule)
    assert theta.at(()) == 0
    assert theta.at((0,)) == theta.at((1,)) == HALF
    assert all(theta.at(w) == 1 for w in rw2.leaves())


def test_theta_word_dependent(rw2):
    rule = rule_q(rw2, {(): 0, (0,): 1, (1,): 0})
    theta = theta_of_rule(rw2, rule)
    assert [theta.at(()), theta.at((0,)), theta.at((0, 0))] == [0, 1, 1]
    assert [theta.at(()), theta.at((1,)), theta.at((1, 0))] == [0, 0, 1]


def test_rule_missing_node_rejected(rw2):
    with pytest.raises(RuleShapeMismatch):
        rule_from_map(rw2, {(): 0})
    with pytest.raises(RuleShapeMismatch):
        rule_from_map(rw2, {(): 2, (0,): 0, (1,): 0})


# -- derandomize --------------------------------------------------------------

def test_hitting_time_below_half(rw2, half_rule):
    theta = theta_of_rule(rw2, half_rule)
    taus = derandomize(rw2, theta, Fraction(3, 10))
    assert set(taus.values()) == {1}


def test_hitting_time_tie_continues(rw2, half_rule):
    # theta = eta is not a hit: the threshold inequality is strict
    theta = theta_of_rule(rw2, half_rule)
    taus = derandomize(rw2, theta, HALF)
    assert set(taus.values()) == {2}


def test_hitting_depth_distribution_matches_rule(rw2, half_rule):
    # integrate eta exactly over breakpoints: P(tau = k) = theta_k - theta_{k-1}
    mass = stop_mass_by_eta_integration(rw2, theta_of_rule(rw2, half_rule))
    by_depth = {}
    for w, m in mass.items():
        by_depth[len(w)] = by_depth.get(len(w), Fraction(0)) + m
    assert by_depth == {0: 0, 1: HALF, 2: HALF}


# -- rule_to_measure ------------------------------------------------------------

def test_measure_immediate_stop(rw2):
    m = rule_to_measure(rw2, rule_q(rw2, {(): 1, (0,): 1, (1,): 1}))
    assert m.stop(()) == 1
    assert all(m.stop(w) == 0 for w in rw2.nodes() if w != ())


def test_measure_half_rule(rw2, half_rule):
    m = rule_to_measure(rw2, half_rule)
    assert m.stop((0,)) == m.stop((1,)) == Fraction(1, 4)
    assert all(m.stop(w) == Fraction(1, 8) for w in rw2.leaves())
    assert sum(m.s.values()) == 1


def test_measure_word_dependent(rw2):
    m = rule_to_measure(rw2, rule_q(rw2, {(): 0, (0,): 1, (1,): 0}))
    assert m.stop((0,)) == HALF
    assert m.stop((1, 0)) == m.stop((1, 1)) == Fraction(1, 4)


# -- equivalence ------------------------------------------------------------------

def test_equivalence_half_rule_values(rw2, half_rule):
    rep = equivalence_check(rw2, half_rule)
    assert rep["pass"]
    assert rep["expectations_rule"]["value"] == Ext(Fraction(3, 2))
    assert rep["expectations_rule"]["mean_stop_time"] == Fraction(3, 2)
    assert rep["expectations_hitting"] == rep["expectations_rule"]


def test_equivalence_trivial_immediate_stop(rw2):
    rep = equivalence_check(rw2, rule_q(rw2, {(): 1, (0,): 1, (1,): 1}))
    assert rep["pass"]


def test_equivalence_rejects_corrupted_theta(rw2, half_rule):
    theta = theta_of_rule(rw2, half_rule)
    broken = dict(theta.theta)
    broken[(0, 0)] = Fraction(1, 4)  # decreases along the word
    with pytest.raises(EquivalenceViolation):
        equivalence_check(rw2, half_rule, theta=ThetaProcess(theta=broken))


def test_hit_depth_of_a_theta_that_never_exceeds_eta_is_an_invariant_violation():
    # validate() rejects such a theta, so only a direct call can meet it
    theta = ThetaProcess(theta={(): Fraction(0), (0,): Fraction(1, 4),
                                (0, 1): Fraction(1, 2)})
    assert _hit_depth(theta, (0, 1), Fraction(1, 4)) == 2
    with pytest.raises(InvariantViolation, match="^theta must reach 1 at the horizon$"):
        _hit_depth(theta, (0, 1), Fraction(1, 2))


@st.composite
def random_rule_fractions(draw, n):
    return [draw(st.integers(0, 8)) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(random_rule_fractions(n=11), st.booleans())
def test_derandomization_exactness_random_rules(qs, trinomial):
    # the hitting-time construction reproduces the rule's stop masses exactly
    if trinomial:
        tree = build_tree(dt=1, depth=3,
                          branching=[(Fraction(1, 4), 1), (Fraction(1, 4), 0),
                                     (HALF, -1)], x0=0)
    else:
        tree = build_tree(dt=1, depth=4,
                          branching=[(HALF, 1), (HALF, -1)], x0=0)
    interior = [w for w in tree.nodes() if len(w) < tree.depth]
    q = {w: Fraction(qs[i % len(qs)], 8) for i, w in enumerate(interior)}
    rule = rule_from_map(tree, q)
    theta = theta_of_rule(tree, rule)
    for w in tree.nodes():
        assert 0 <= theta.at(w) <= 1
        if w != ():
            assert theta.at(w) >= theta.at(w[:-1])
        if len(w) == tree.depth:
            assert theta.at(w) == 1
    direct = rule_to_measure(tree, rule)
    via_eta = stop_mass_by_eta_integration(tree, theta)
    assert all(direct.stop(w) == via_eta[w] for w in tree.nodes())


def test_rule_expectations_match_atom_enumeration(rw2, half_rule):
    value, gs, _ = atom_expectations(rw2, half_rule.q)
    exp = rule_to_measure(rw2, half_rule).expectations(rw2)
    assert exp["value"] == value and exp["ineq"] == gs


# -- monte carlo -----------------------------------------------------------------

def test_mc_within_three_standard_errors(rw2, half_rule):
    est = monte_carlo_value(rw2, half_rule, paths=100_000, seed=11)
    mean, se = est["value"]
    assert abs(mean - 1.5) <= 3 * se


def test_mc_zero_variance_when_stopping_immediately():
    tree = make_rw(x0=Fraction(3, 2))
    rule = rule_from_map(tree, {(): 1, (0,): 1, (1,): 1})
    est = monte_carlo_value(tree, rule, paths=500, seed=0)
    assert est["value"] == (2.25, 0.0)


def test_mc_deterministic_in_seed(rw2, half_rule):
    a = monte_carlo_value(rw2, half_rule, paths=20_000, seed=42)
    b = monte_carlo_value(rw2, half_rule, paths=20_000, seed=42)
    c = monte_carlo_value(rw2, half_rule, paths=20_000, seed=43)
    assert a == b
    assert a["value"] != c["value"]


def test_mc_error_scales_like_inverse_sqrt_paths(rw2, half_rule):
    # deterministic seed battery; RMS error over repeats per path count
    import math
    sizes = [1_000, 10_000, 100_000, 1_000_000]
    repeats = [60, 24, 8, 2]
    xs, ys = [], []
    for n, reps in zip(sizes, repeats):
        sq = 0.0
        for r in range(reps):
            est = monte_carlo_value(rw2, half_rule, paths=n, seed=1000 + r)
            sq += (est["value"][0] - 1.5) ** 2
        xs.append(math.log(n))
        ys.append(math.log(math.sqrt(sq / reps)))
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)
    assert -0.6 <= slope <= -0.4
