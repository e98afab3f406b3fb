import random
import re
from fractions import Fraction

import pytest

from treestop import (CandidateLaw, DegreeTooHigh, EmptyBattery, POS_INF,
                      Polynomial, StoppingMeasure, TreestopError, build_tree,
                      candidate_with_branch_bias,
                      candidate_with_pre_start_mass, candidate_with_state_shift,
                      check_membership, generator_gap_decay,
                      load_instance, measure_to_rule, monomial_basis, rule_from_map,
                      rule_to_measure, solve_weak, statistic)
from treestop.errors import NodeNotInTree
from treestop.generate import generate_instance
from treestop.lattice import TreeInstance
from treestop.martingale import CylinderWeight, WeightFactor, _stop_at_horizon

import oracles
from conftest import acceptance_corruptions, acceptance_pool, make_rw
from oracles import children, compensated_process, cont_of, increment_sum, reach_of

F = Fraction
HALF = F(1, 2)

W = Polynomial.monomial(2, (1, 0))
W2 = Polynomial.monomial(2, (2, 0))
W3 = Polynomial.monomial(2, (3, 0))
X = Polynomial.monomial(2, (0, 1))


def skewed_tree(depth=2):
    return build_tree(dt=1, depth=depth,
                      branching=[(F(2, 3), 1), (F(1, 3), -2)], x0=0)


# -- compensated process ------------------------------------------------------

def test_driftless_coordinate_has_zero_compensator(rw2_plain):
    for mode in ("exact", "generator"):
        M = compensated_process(rw2_plain, W, mode=mode)
        for w in rw2_plain.nodes():
            assert M[w] == sum(increment_sum(rw2_plain, w))


def test_quadratic_compensator_is_dt_per_step(rw2_plain):
    for mode in ("exact", "generator"):
        M = compensated_process(rw2_plain, W2, mode=mode)
        for w in rw2_plain.nodes():
            wsum = increment_sum(rw2_plain, w)[0]
            assert M[w] == wsum ** 2 - len(w)


def test_cubic_modes_coincide_on_symmetric_branching(rw2_plain):
    exact = compensated_process(rw2_plain, W3, mode="exact")
    gen = compensated_process(rw2_plain, W3, mode="generator")
    assert exact == gen


def test_cubic_modes_differ_by_third_moment_on_skewed_branching():
    tree = skewed_tree()
    exact = compensated_process(tree, W3, mode="exact")
    gen = compensated_process(tree, W3, mode="generator")
    # E[xi^3] = 2/3 - 8/3 = -2 per step separates the compensators
    assert exact[(0,)] - gen[(0,)] == 2
    assert exact != gen


# -- membership: genuine candidates -------------------------------------------

def test_rule_measures_pass_exact_membership(rw2, half_rule):
    rep = check_membership(rw2, rule_to_measure(rw2, half_rule))
    assert rep.ok
    assert all(r["stat"] == 0 for r in rep.clause1)


def test_solver_measures_pass_exact_membership():
    for seed in (0, 3):
        doc = generate_instance(seed=600 + seed, depth=2, branches=3,
                                n_ineq=1, n_eq=1)
        tree = load_instance(doc)
        res = solve_weak(tree)
        rep = check_membership(tree, res.measure)
        assert rep.ok and all(r["stat"] == 0 for r in rep.clause1)


def test_generator_mode_clean_on_symmetric_unit_walk(rw2, half_rule):
    # unit symmetric increments match the generator's moments exactly
    rep = check_membership(rw2, rule_to_measure(rw2, half_rule),
                           mode="generator", tolerance=F(1, 10**9))
    assert rep.ok


# -- membership: corrupted candidates -------------------------------------------

def test_branch_bias_fails_first_moment_with_spec_magnitude(rw2, half_rule):
    cand = candidate_with_branch_bias(rw2, half_rule, ((), F(1, 10)))
    rep = check_membership(rw2, cand)
    assert not rep.ok and not rep.clause1_pass
    first = next(r for r in rep.clause1 if not r["pass"])
    # E[dW] = delta * (w_up - w_down) times the surviving mass at the node
    assert first["phi"] == "w" and first["stat"] == F(1, 5)


@pytest.mark.parametrize("node, delta", [((), F(-3, 5)), ((1,), F(-3, 5))])
def test_branch_bias_below_zero_probability_is_rejected(rw2, half_rule, node, delta):
    # branch 0 of the node is met first and its probability 1/2 drops to -1/10
    with pytest.raises(ValueError, match=r"^biased probability outside \[0, 1\]$"):
        candidate_with_branch_bias(rw2, half_rule, (node, delta))


@pytest.mark.parametrize("node", [(0, 1), (True, False)])
def test_branch_bias_at_a_horizon_node_is_rejected(rw2, half_rule, node):
    # a leaf has no branches: the bias would leave the rule's law unchanged,
    # a negative control that passes as a member
    with pytest.raises(ValueError, match=r"at the horizon: it has no branches to bias$"):
        candidate_with_branch_bias(rw2, half_rule, (node, F(1, 10)))


def test_state_shift_fails_state_coordinate(rw2, half_rule):
    m = rule_to_measure(rw2, half_rule)
    cand = candidate_with_state_shift(rw2, m, (1,), 1)
    rep = check_membership(rw2, cand)
    assert not rep.clause1_pass
    assert any(not r["pass"] and r["phi"] == "x" for r in rep.clause1)


def test_pre_start_mass_fails_support_clause(rw2, half_rule):
    m = rule_to_measure(rw2, half_rule)
    cand = candidate_with_pre_start_mass(rw2, m, F(1, 16))
    rep = check_membership(rw2, cand)
    assert not rep.clause2_pass
    assert rep.clause2_detail["pre_t0_stop_mass"] == F(1, 16)


def test_wrong_claimed_history_fails_support_clause(rw2, half_rule):
    m = rule_to_measure(rw2, half_rule)
    cand = CandidateLaw(rw2, s=dict(m.s), u=dict(m.u), claimed_history=(F(1),))
    rep = check_membership(rw2, cand)
    assert not rep.clause2_pass and "history" in rep.clause2_detail


def test_flagged_weights_separate_pre_and_post_stop_biases():
    # bias the pre-stop flow at one node and bias the post-stop flow there
    # by the exact opposite amount: with equal masses on both sides of the
    # stop decision, every unweighted statistic cancels, but the
    # stopped/not-stopped flag weights see each side alone
    tree = make_rw(depth=2)
    rule = rule_from_map(tree, {(): 0, (0,): HALF, (1,): 0})
    delta = F(1, 8)
    biased = candidate_with_branch_bias(tree, rule, ((0,), delta))
    cand = CandidateLaw(
        tree, s=dict(zip(biased.shape.words(), biased.stops)),
        u=dict(zip(biased.shape.words(), biased.conts)),
        post_stop_branching=[[HALF, HALF], [HALF - delta, HALF + delta]])
    trivial = CylinderWeight(label="1", factors=())
    for phi in (W, W2, X):
        for s, r in ((0, 1), (1, 2), (0, 2)):
            assert statistic(cand, phi, s, r, trivial) == 0
    rep = check_membership(tree, cand)
    assert not rep.clause1_pass
    bad = next(r for r in rep.clause1 if not r["pass"])
    assert "@" in bad["weight"] or bad["weight"].startswith("pin")


def test_detection_of_random_single_corruptions(rw2, half_rule):
    m = rule_to_measure(rw2, half_rule)
    rng = random.Random(2)
    for trial in range(20):
        kind = ("branch", "state", "pre_t0")[trial % 3]
        eps = F(rng.randint(1, 8), 16)
        if kind == "branch":
            node = rng.choice([(), (0,), (1,)])
            cand = candidate_with_branch_bias(rw2, half_rule, (node, eps * HALF))
        elif kind == "state":
            node = rng.choice([(0,), (1,), (0, 0), (1, 1)])
            cand = candidate_with_state_shift(rw2, m, node, eps)
        else:
            cand = candidate_with_pre_start_mass(rw2, m, eps)
        rep = check_membership(rw2, cand)
        assert not rep.ok, (trial, kind, eps)


def test_degree_guard():
    with pytest.raises(DegreeTooHigh):
        check_membership(make_rw(), rule_to_measure(
            make_rw(), rule_from_map(make_rw(), {(): 1, (0,): 1, (1,): 1})),
            degree=5)


@pytest.mark.parametrize("mode", ["exact", "generator"])
def test_negative_tolerance_is_refused(rw2, half_rule, mode):
    measure = rule_to_measure(rw2, half_rule)
    assert check_membership(rw2, measure, mode=mode, tolerance=0).ok
    with pytest.raises(ValueError, match="^tolerance -1/2 is negative$"):
        check_membership(rw2, measure, mode=mode, tolerance=F(-1, 2))


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_an_unknown_mode_is_refused_at_every_depth(depth):
    # a depth-0 tree has no inner row, so the mode was never read and passed
    tree = build_tree(dt=1, depth=depth, branching=[(HALF, 1), (HALF, -1)] if depth else [],
                      x0=0)
    for mode in ("exact", "generator"):
        assert check_membership(tree, _stop_at_horizon(tree), mode=mode).ok
    with pytest.raises(ValueError, match="^unknown compensator mode 'bogus'$"):
        check_membership(tree, _stop_at_horizon(tree), mode="bogus")


def test_empty_battery_is_rejected_not_passed(rw2, half_rule):
    # a battery without statistics could not reject this candidate
    cand = candidate_with_branch_bias(rw2, half_rule, ((), F(1, 10)))
    assert not check_membership(rw2, cand, degree=2).ok
    for degree in (0, -1):
        with pytest.raises(EmptyBattery):
            check_membership(rw2, cand, degree=degree)
    assert issubclass(EmptyBattery, TreestopError)


def test_candidate_requires_mass_conservation(rw2):
    s = {w: F(0) for w in rw2.nodes()}
    u = {w: F(0) for w in rw2.nodes()}
    s[()] = HALF  # half the mass vanishes
    with pytest.raises(ValueError):
        CandidateLaw(rw2, s=s, u=u)


@pytest.mark.parametrize("change, message", [
    ({(0, 0): -F(1, 4), (0, 1): F(3, 4)}, r"negative mass at \(0, 0\)"),
    ({(0,): F(1, 4)}, r"mass is not conserved below \(0,\)"),
    ({(): HALF}, "total mass must be 1"),
])
def test_candidate_by_words_checks_the_masses_it_takes(rw2, change, message):
    # the check once ran for every law, a measure's too, which its
    # constructor has already checked; it runs where masses by word enter
    horizon = _stop_at_horizon(rw2)
    s, u = dict(horizon.s), dict(horizon.u)
    for word, mass in change.items():
        s[word] = mass
        if word == (0,):
            u[word] = HALF - mass
    with pytest.raises(ValueError, match=f"^{message}$"):
        CandidateLaw(rw2, s=s, u=u)


def test_candidate_mass_off_the_tree_raises_naming_the_word():
    tree = build_tree(dt=1, depth=2, branching=[(HALF, 1), (HALF, -1)], x0=0)
    with pytest.raises(NodeNotInTree, match=re.escape("(7,)")):
        CandidateLaw(tree, s={(): 1, (7,): HALF, (0, 0, 0): 3}, u={(9, 9): 1})
    with pytest.raises(NodeNotInTree, match=re.escape("(9, 9)")):
        CandidateLaw(tree, s={(): 1}, u={(9, 9): 1})
    # a zero mass off the tree holds nothing, as in StoppingMeasure.from_masses
    assert check_membership(tree, CandidateLaw(tree, s={(): 1, (7,): 0}, u={})).ok


def test_never_stopping_mass_is_a_support_violation(rw2):
    s = {w: F(0) for w in rw2.nodes()}
    u = {w: F(0) for w in rw2.nodes()}
    u[()] = F(1)
    u[(0,)] = u[(1,)] = HALF
    u[(0, 0)] = u[(0, 1)] = u[(1, 0)] = u[(1, 1)] = F(1, 4)
    rep = check_membership(rw2, CandidateLaw(rw2, s=s, u=u))
    assert not rep.clause2_pass
    assert rep.clause2_detail["mass_never_stopping"] == 1
    # a measure holds no such law: it is refused when it is built
    with pytest.raises(ValueError, match="continue mass at horizon node"):
        StoppingMeasure.from_masses(rw2, s, u)


# -- membership: the direct check ------------------------------------------------

def moment_preserving_candidate():
    """Depth 3, four branches of 1/4 with increments -3/2, -1/2, 1/2, 3/2;
    the law never stops before the horizon and its root branch law is the
    model's plus (1, -3, 3, -1)/40, which keeps the increment's sum, mean
    and second moment."""
    incs = (F(-3, 2), F(-1, 2), HALF, F(3, 2))
    tree = build_tree(dt=1, depth=3, branching=[(F(1, 4), w) for w in incs], x0=0)
    law = (F(11, 40), F(7, 40), F(13, 40), F(9, 40))
    mass = {}
    for w in tree.nodes():
        mass[w] = (F(1) if not w else law[w[0]] if len(w) == 1
                   else mass[w[:-1]] / 4)
    leaf = {w: len(w) == tree.depth for w in mass}
    return tree, CandidateLaw(tree, s={w: m if leaf[w] else 0 for w, m in mass.items()},
                              u={w: 0 if leaf[w] else m for w, m in mass.items()})


def test_moment_preserving_branch_law_is_rejected_at_degree_2():
    tree, cand = moment_preserving_candidate()
    rep = check_membership(tree, cand, degree=2)
    # every one of the 285 degree-2 statistics is zero: the battery alone
    # would accept the law
    assert rep.clause1_pass and rep.clause2_pass
    assert len(rep.clause1) == 285 and all(r["stat"] == 0 for r in rep.clause1)
    assert not rep.direct_pass and not rep.ok
    assert rep.direct_detail == {
        "check": "branching", "node": (),
        "claimed": [F(11, 40), F(7, 40), F(13, 40), F(9, 40)],
        "model": [F(1, 4)] * 4}
    assert not check_membership(tree, cand, degree=3).clause1_pass


def test_direct_check_passes_the_pool_and_names_each_corruption():
    pool = acceptance_pool()
    for tree in pool:
        rep = check_membership(tree, solve_weak(tree).measure)
        assert rep.direct_pass and rep.direct_detail == {} and rep.ok
    for i, kind, eps, tree, cand in acceptance_corruptions(pool):
        rep = check_membership(tree, cand)
        assert not rep.ok, (i, kind, eps)
        if kind == "pre_t0":  # the transitions are the model's; clause 2 fails
            assert not rep.clause2_pass
            continue
        node, = (map(cand.shape.word, cand.state_overrides) if kind == "state" else
                 [w for w in tree.nodes() if len(w) < tree.depth and
                  [reach_of(cand, c) for c in children(tree, w)] !=
                  [p * cont_of(cand, w) for p, _ in tree.branching[len(w)]]])
        assert rep.direct_detail["check"] == ("state" if kind == "state"
                                              else "branching")
        assert rep.direct_detail["node"] == node


def test_row_built_controls_match_the_dict_built_ones():
    # the negative controls and the stop-at-horizon measure, built on the
    # measure's rows, against their word-dict forms: equal laws and reports
    rng = random.Random(20240817)
    for tree in acceptance_pool():
        measure = solve_weak(tree).measure
        rule = measure_to_rule(tree, measure)
        interior = [w for w in tree.nodes() if len(w) < tree.depth]
        inner = rng.choice(interior)
        node = rng.choice([w for w in tree.nodes() if len(w) >= 1])
        eps = F(rng.randint(1, 4), 64)
        horizon = oracles.stop_at_horizon_by_words(tree)
        assert _stop_at_horizon(tree) == horizon
        pairs = [
            (candidate_with_branch_bias(tree, rule, (inner, eps)),
             oracles.candidate_with_branch_bias_by_words(tree, rule, (inner, eps))),
            (candidate_with_state_shift(tree, measure, node, eps),
             oracles.candidate_with_state_shift_by_words(tree, measure, node, eps)),
            (candidate_with_pre_start_mass(tree, measure, eps),
             oracles.candidate_with_pre_start_mass_by_words(tree, measure, eps)),
            (CandidateLaw.from_measure(tree, _stop_at_horizon(tree)),
             CandidateLaw(tree, s=horizon.s, u=horizon.u)),
        ]
        for got, want in pairs:
            assert (got.stops, got.conts, got.points, got.state_overrides) == \
                (want.stops, want.conts, want.points, want.state_overrides)
            assert got.pre_t0_stop_mass == want.pre_t0_stop_mass
            assert check_membership(tree, got) == check_membership(tree, want)


def test_direct_check_compares_post_stop_branching():
    tree = make_rw(depth=2)
    rule = rule_from_map(tree, {(): 0, (0,): HALF, (1,): 0})
    m = rule_to_measure(tree, rule)
    post = [[HALF, HALF], [F(3, 8), F(5, 8)]]
    cand = CandidateLaw(tree, s=dict(m.s), u=dict(m.u), post_stop_branching=post)
    rep = check_membership(tree, cand)
    assert not rep.direct_pass and not rep.clause1_pass
    assert rep.direct_detail == {"check": "post_stop", "level": 1,
                                 "claimed": post[1], "model": [HALF, HALF]}


@pytest.mark.parametrize("post", [[[HALF, HALF]],
                                  [[HALF, HALF], [F(1, 3), F(1, 3), F(1, 3)]]],
                         ids=["missing-level", "three-branches"])
def test_post_stop_branching_of_the_wrong_shape_names_the_level(post):
    tree = make_rw(depth=2)
    m = solve_weak(tree).measure
    with pytest.raises(ValueError, match="level 1 needs 2 branch probabilities"):
        CandidateLaw(tree, s=dict(m.s), u=dict(m.u), post_stop_branching=post)


def test_direct_check_accepts_an_override_equal_to_the_euler_state(rw2, half_rule):
    m = rule_to_measure(rw2, half_rule)
    same = CandidateLaw(rw2, s=dict(m.s), u=dict(m.u),
                        state_overrides={(1,): rw2.state((1,)), (): 0})
    assert check_membership(rw2, same).ok
    shifted_root = CandidateLaw(rw2, s=dict(m.s), u=dict(m.u),
                                state_overrides={(): 1})
    rep = check_membership(rw2, shifted_root)
    assert rep.direct_detail == {"check": "state", "node": (),
                                 "claimed": (F(1),), "model": (F(0),)}


@pytest.mark.parametrize("word", [(0, 5), (0, 0, 0), (0, 0, 0, 0)])
def test_state_override_outside_the_tree_names_the_word(word):
    tree = make_rw()
    m = solve_weak(tree).measure
    with pytest.raises(NodeNotInTree, match=re.escape(str(word))):
        CandidateLaw(tree, s=dict(m.s), u=dict(m.u), state_overrides={word: 1})


def test_membership_of_a_solved_measure_reads_the_solves_paths(monkeypatch):
    tree = load_instance(generate_instance(seed=5, depth=3, branches=3))
    measure = solve_weak(tree).measure
    calls = []
    real = TreeInstance._child_states
    monkeypatch.setattr(TreeInstance, "_child_states",
                        lambda self, k, prefix: calls.append(k) or real(self, k, prefix))
    assert check_membership(tree, measure).ok
    assert calls == []


def test_a_claimed_state_never_enters_the_trees_cache():
    tree = make_rw(depth=3)
    measure = solve_weak(tree).measure
    euler = {w: tree.state(w) for w in tree.nodes()}
    cand = candidate_with_state_shift(tree, measure, (0, 1), HALF)
    assert cand.prefix_for_call(cand.shape.row((0, 1)))[-1] == euler[(0, 1)] + HALF
    assert not check_membership(tree, cand).ok
    assert {w: tree.state(w) for w in tree.nodes()} == euler


# -- polynomials and the refinement study ------------------------------------

def test_monomial_basis_size_and_degrees():
    basis = monomial_basis(1, 1, 2)
    labels = {lab for lab, _ in basis}
    assert labels == {"w", "x", "w^2", "w*x", "x^2"}
    assert all(sum(e) <= 2 for _, p in basis for e in p.coeffs)


def test_polynomial_eval_and_diff_exact():
    p = Polynomial(2, {(2, 1): F(3, 2), (0, 1): F(-1)})
    assert p.eval((F(2), F(1, 3))) == F(3, 2) * 4 * F(1, 3) - F(1, 3)
    dw = p.diff(0)
    assert dw.eval((F(2), F(1, 3))) == F(3, 2) * 2 * 2 * F(1, 3)
    assert p.diff(1).coeffs == {(2, 0): F(3, 2), (0, 0): F(-1)}


def test_generator_gap_decays_linearly_in_dt():
    study = generator_gap_decay()
    assert len(study["stats"]) == 4
    assert all(a > b for a, b in zip(study["stats"], study["stats"][1:]))
    assert study["slope"] >= 0.9
