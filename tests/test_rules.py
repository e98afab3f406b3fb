import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestop import (EquivalenceViolation, Ext, NodeNotInTree, RandomizedStoppingRule,
                      RuleShapeMismatch, StoppingMeasure, rules, derandomize, equivalence_check,
                      first_randomization_cut, load_instance, monte_carlo_value,
                      rule_from_map, rule_to_measure, stop_mass_by_eta_integration,
                      theta_of_rule)
from treestop.generate import generate_instance
from treestop.lattice import build_tree

from conftest import make_rw
from oracles import (atom_expectations, monte_carlo_oracle, rule_to_measure_by_fractions,
                     stop_mass_by_eta_integration_by_fractions, thetas_by_fractions)

HALF = Fraction(1, 2)


def rule_q(tree, mapping):
    return rule_from_map(tree, mapping)


# -- theta ------------------------------------------------------------------

def test_theta_immediate_stop(rw2):
    rule = rule_q(rw2, {(): 1, (0,): 1, (1,): 1})
    theta = theta_of_rule(rw2, rule)
    assert all(theta[w] == 1 for w in rw2.nodes())


def test_theta_word_independent(rw2, half_rule):
    theta = theta_of_rule(rw2, half_rule)
    assert theta[()] == 0
    assert theta[(0,)] == theta[(1,)] == HALF
    assert all(theta[w] == 1 for w in rw2.leaves())


def test_theta_word_dependent(rw2):
    rule = rule_q(rw2, {(): 0, (0,): 1, (1,): 0})
    theta = theta_of_rule(rw2, rule)
    assert [theta[()], theta[(0,)], theta[(0, 0)]] == [0, 1, 1]
    assert [theta[()], theta[(1,)], theta[(1, 0)]] == [0, 0, 1]


def test_rule_missing_node_rejected(rw2):
    with pytest.raises(RuleShapeMismatch):
        rule_from_map(rw2, {(): 0})
    with pytest.raises(RuleShapeMismatch):
        rule_from_map(rw2, {(): 2, (0,): 0, (1,): 0})


@pytest.mark.parametrize("word", [(7,), (0, 0, 0), (0, 5)])
def test_rule_probability_off_the_tree_names_the_word(rw2, word):
    q = {(): 0, (0,): 1, (1,): 1, word: Fraction(1, 3)}
    with pytest.raises(NodeNotInTree, match=re.escape(str(word))):
        rule_from_map(rw2, q)


# -- derandomize --------------------------------------------------------------

def test_hitting_time_below_half(rw2, half_rule):
    taus = derandomize(rw2, half_rule, Fraction(3, 10))
    assert set(taus.values()) == {1}


def test_hitting_time_tie_continues(rw2, half_rule):
    # theta = eta is not a hit: the threshold inequality is strict
    taus = derandomize(rw2, half_rule, HALF)
    assert set(taus.values()) == {2}


def test_hitting_depth_distribution_matches_rule(rw2, half_rule):
    # integrate eta exactly over breakpoints: P(tau = k) = theta_k - theta_{k-1}
    mass = stop_mass_by_eta_integration(rw2, half_rule)
    by_depth = {}
    for w, m in mass.s.items():
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


# -- a rule is read only on a tree with its nodes ----------------------------------

RULE_READERS = {
    "rule_to_measure": rule_to_measure,
    "monte_carlo_value": lambda tree, rule: monte_carlo_value(tree, rule, paths=100),
    "derandomize": lambda tree, rule: derandomize(tree, rule, Fraction(3, 10)),
    "stop_mass_by_eta_integration": stop_mass_by_eta_integration,
    "equivalence_check": equivalence_check,
    "first_randomization_cut": first_randomization_cut,
}


@pytest.mark.parametrize("reader", sorted(RULE_READERS))
def test_a_rule_on_other_nodes_is_refused(reader):
    read = RULE_READERS[reader]
    small_doc = generate_instance(seed=1, depth=2)
    small, big = load_instance(small_doc), load_instance(generate_instance(seed=1, depth=3))
    small_rule, big_rule = mixed_rule(small, 1), mixed_rule(big, 1)
    with pytest.raises(RuleShapeMismatch, match="^the rule is not on this tree's nodes$"):
        read(big, small_rule)
    with pytest.raises(RuleShapeMismatch, match="^the rule is not on this tree's nodes$"):
        read(small, big_rule)
    # a second load of the instance has the rule's nodes
    assert read(load_instance(small_doc), small_rule) == read(small, small_rule)


# -- equivalence ------------------------------------------------------------------

def test_equivalence_half_rule_values(rw2, half_rule):
    rep = equivalence_check(rw2, half_rule)
    assert rep["pass"]
    assert rep["expectations_rule"]["value"] == Ext(Fraction(3, 2))
    assert rep["expectations_rule"]["mean_stop_time"] == Fraction(3, 2)
    assert rep["expectations_hitting"] == rep["expectations_rule"]


def test_a_rule_is_checked_when_it_is_built():
    tree = load_instance(generate_instance(seed=1, depth=2))  # 7 rows
    shape = tree._shape()
    # one q passed every check, and monte_carlo_value then raised IndexError
    with pytest.raises(RuleShapeMismatch, match="^the rule has 1 q for 7 rows$"):
        RandomizedStoppingRule(shape, (Fraction(0),))
    with pytest.raises(RuleShapeMismatch, match="^the rule has 8 q for 7 rows$"):
        RandomizedStoppingRule(shape, (Fraction(1),) * 8)
    with pytest.raises(RuleShapeMismatch, match=re.escape("q(1,) = 3/2 outside [0, 1]")):
        RandomizedStoppingRule(shape, (0, 1, Fraction(3, 2), 1, 1, 1, 1))
    with pytest.raises(RuleShapeMismatch, match=re.escape("q(0, 1) must be 1 at the horizon")):
        RandomizedStoppingRule(shape, (0, 1, 1, 1, 0, 1, 1))
    rule = RandomizedStoppingRule(shape, (0, HALF, 1, 1, 1, 1, 1))
    assert rule_to_measure(tree, rule) == rule_to_measure(
        tree, rule_from_map(tree, {(): 0, (0,): HALF, (1,): 1}))


def test_equivalence_trivial_immediate_stop(rw2):
    rep = equivalence_check(rw2, rule_q(rw2, {(): 1, (0,): 1, (1,): 1}))
    assert rep["pass"]


def test_equivalence_check_raises_when_the_hitting_time_moves_mass(rw2, half_rule,
                                                                  monkeypatch):
    # a hitting-time integration that moves 1/8 of stop mass at "+" into its
    # continuation, and so into its children's stops: a law, but not the rule's
    real = rules.stop_mass_by_eta_integration

    def moved(tree, rule, direct):
        measure = real(tree, rule, direct)
        s, u = measure.s, measure.u
        s[(0,)] -= Fraction(1, 8)
        u[(0,)] += Fraction(1, 8)
        for child in ((0, 0), (0, 1)):
            s[child] += Fraction(1, 16)
        return StoppingMeasure.from_masses(tree, s, u)

    monkeypatch.setattr(rules, "stop_mass_by_eta_integration", moved)
    with pytest.raises(EquivalenceViolation) as exc:
        equivalence_check(rw2, half_rule)
    message, report = exc.value.args
    assert message == "stop masses differ at (0,): 1/4 vs 1/8"
    assert report["pass"] is False
    assert report["stop_mass_hitting"].stop((0, 0)) == Fraction(3, 16)


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
        assert 0 <= theta[w] <= 1
        if w != ():
            assert theta[w] >= theta[w[:-1]]
        if len(w) == tree.depth:
            assert theta[w] == 1
    direct = rule_to_measure(tree, rule)
    via_eta = stop_mass_by_eta_integration(tree, rule)
    assert all(direct.stop(w) == via_eta.stop(w) for w in tree.nodes())
    assert via_eta == direct


# -- the int kernels against their Fraction forms ----------------------------------

LARGE_PRIMES = (999_983, 1_000_003, 2**31 - 1, 2**61 - 1, 10**9 + 7)


def coprime_rule(tree, seed):
    """q per interior node: 0 (theta ties its parent's), 1, a small fraction
    or a fraction over a large prime, which differs from node to node."""
    rng = random.Random(seed)

    def draw():
        kind = rng.randrange(5)
        if kind < 2:
            return Fraction(kind)
        if kind == 2:
            return Fraction(rng.randrange(1, 7), 7)
        prime = rng.choice(LARGE_PRIMES)
        return Fraction(rng.randrange(1, prime), prime)
    return rule_from_map(tree, {w: draw() for w in tree.nodes() if len(w) < tree.depth})


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(0, 4), branches=st.integers(2, 4))
def test_int_rule_kernels_equal_their_fraction_forms(seed, depth, branches):
    tree = load_instance(generate_instance(seed=seed, depth=depth, branches=branches))
    rule = coprime_rule(tree, seed)
    direct = rule_to_measure(tree, rule)
    assert direct == rule_to_measure_by_fractions(tree, rule)
    via_eta = stop_mass_by_eta_integration_by_fractions(tree, rule)
    assert stop_mass_by_eta_integration(tree, rule) == via_eta
    assert stop_mass_by_eta_integration(tree, rule, direct) == via_eta
    thetas = thetas_by_fractions(tree, rule)
    assert theta_of_rule(tree, rule) == dict(zip(tree.nodes(), thetas))
    # the hitting depth at every theta (a tie continues) and between them
    shape = tree._shape()
    for eta in sorted({t for t in thetas if t < 1} | {Fraction(0), Fraction(1, 3)}):
        want = {word: next(k for k, i in enumerate(path) if thetas[i] > eta)
                for word, (_, path) in zip(tree.leaves(), rules._leaf_paths(shape))}
        assert derandomize(tree, rule, eta) == want


def test_coprime_rules_tie_stop_and_use_large_denominators():
    # the drawn rules hold each kind the int kernels must get right
    tree = load_instance(generate_instance(seed=1, depth=4, branches=3))
    below_root = slice(1, len(tree._shape().first) - 1)  # the interior rows but the root
    qs = [q for seed in range(3) for q in coprime_rule(tree, seed).q[below_root]]
    assert {0, 1} <= set(qs)
    assert {q.denominator for q in qs} >= set(LARGE_PRIMES)


def test_rule_expectations_match_atom_enumeration(rw2, half_rule):
    value, gs, _ = atom_expectations(rw2, {w: half_rule.prob(w) for w in rw2.nodes()})
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


# -- monte carlo against the per-word loop ---------------------------------------

def third_tree():
    """Levels of 3, 2 and 3 branches; on the 3-branch levels the float
    cumulative probabilities end below 1.0 (1/6, 2/3, 1/6 sum to
    0.9999999999999999, the largest double below 1)."""
    return build_tree(
        dt=HALF, depth=3,
        branching=[[(Fraction(1, 6), 1), (Fraction(2, 3), 0), (Fraction(1, 6), -1)],
                   [(Fraction(1, 3), 2), (Fraction(2, 3), -1)],
                   [(Fraction(1, 6), 1), (Fraction(2, 3), 0), (Fraction(1, 6), -1)]],
        x0=Fraction(1, 3), drift=lambda t, xs: -xs[-1] / 2,
        reward=lambda t, xs: xs[-1], terminal=lambda t, xs: xs[-1] ** 2,
        inequalities=[(lambda t, xs: xs[-1] ** 2, 3)],
        equalities=[(lambda t, xs: 1 + t, 2)])


def vector_state_tree():
    return build_tree(
        dt=HALF, depth=3,
        branching=[(Fraction(1, 4), (1, 0)), (Fraction(3, 4), (Fraction(-1, 3), HALF))],
        x0=(0, 1), drift=lambda t, xs: (xs[-1][1] / 2, 1 - xs[-1][0]),
        diffusion=((1, 0), (HALF, 1)),
        terminal=lambda t, xs: xs[-1][0] * xs[-1][1],
        equalities=[(lambda t, xs: xs[-1][0], 0)])


def mixed_rule(tree, seed):
    """q drawn from {0, 1, 1/3, 5/7} per interior node."""
    rng = random.Random(seed)
    choices = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 7))
    return rule_from_map(tree, {w: rng.choice(choices) for w in tree.nodes()
                                if len(w) < tree.depth})


MC_CASES = {
    "float-cum-below-1": (third_tree, 1),
    "equalities": (lambda: make_rw(depth=3, eq=[(lambda t, xs: t, 1)]), 2),
    "vector-state": (vector_state_tree, 3),
}


@pytest.mark.parametrize("paths", [1, 1023, 1024, 1025, 2048, 2500])
@pytest.mark.parametrize("case", sorted(MC_CASES))
def test_mc_is_bit_identical_to_the_per_word_loop(case, paths):
    make, seed = MC_CASES[case]
    tree = make()
    for rule in (mixed_rule(tree, seed), mixed_rule(tree, seed + 10)):
        assert {rule.prob(w) for w in tree.nodes() if len(w) < tree.depth} & {0, 1}
        for mc_seed in (0, 99):
            got = monte_carlo_value(tree, rule, paths=paths, seed=mc_seed)
            assert got == monte_carlo_oracle(tree, rule, paths=paths, seed=mc_seed)


@pytest.mark.parametrize("paths", [1, 1024, 2049])
def test_mc_with_five_functionals_is_bit_identical_to_the_per_word_loop(paths):
    # two inequalities and two equalities: five packed columns per block
    tree = load_instance(generate_instance(seed=6, depth=3, branches=3, n_ineq=2, n_eq=2))
    for rule in (mixed_rule(tree, 6), mixed_rule(tree, 16)):
        for mc_seed in (0, 99):
            got = monte_carlo_value(tree, rule, paths=paths, seed=mc_seed)
            assert len(got["ineq"]) == len(got["eq"]) == 2
            assert got == monte_carlo_oracle(tree, rule, paths=paths, seed=mc_seed)


_Random = random.Random


class _ScriptedRandom:
    """Stands in for random.Random: draws ties with the cumulative
    probabilities, the largest double below 1, and seeded uniforms."""

    def __init__(self, seed):
        self._rng = _Random(seed)
        cum = [1 / 6, 1 / 6 + 2 / 3, 1 / 6 + 2 / 3 + 1 / 6, 1 / 3]
        self._script = cum + [1 - 2 ** -53, 0.0]

    def random(self):
        if self._rng.random() < 0.5:
            return self._rng.choice(self._script)
        return self._rng.random()


def test_mc_branch_pick_matches_the_linear_scan_on_ties_and_the_clamp(monkeypatch):
    monkeypatch.setattr(random, "Random", _ScriptedRandom)
    tree = third_tree()
    rule = rule_from_map(tree, {w: Fraction(1, 9) for w in tree.nodes()
                                if len(w) < tree.depth})
    for paths in (1, 1025, 2500):
        for seed in range(3):
            got = monte_carlo_value(tree, rule, paths=paths, seed=seed)
            assert got == monte_carlo_oracle(tree, rule, paths=paths, seed=seed)
