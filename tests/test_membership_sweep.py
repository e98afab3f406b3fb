"""The shared membership sweep against the per-statistic oracle.

``check_membership`` reads every clause-1 statistic from one forward sweep
per cylinder weight.  ``oracles.oracle_check_membership`` runs a full
forward sweep per statistic.  Every report must be equal: the clause-1
list in order, labels, exact values and pass flags, and the verdicts.  A
measure's law read off its rows (``CandidateLaw.from_measure``) must equal
the law built from its absolute-mass dicts, reports included.  In exact
mode a row whose shares and post-stop branching are the model's, with no
child claiming its own state, is zero by construction: no polynomial is
evaluated there, so a genuine law costs none.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from treestop import (CandidateLaw, Polynomial, build_tree, candidate_with_branch_bias,
                      candidate_with_state_shift, check_membership,
                      generator_gap_decay, load_instance, rule_from_map, rule_to_measure,
                      solve_weak, statistic)
from treestop.generate import generate_instance
from treestop.martingale import (CylinderWeight, _stop_at_horizon, _Sweep, monomial_basis,
                                 weight_battery)
from treestop.xreal import as_fraction

from conftest import acceptance_corruptions, acceptance_pool, make_rw
from oracles import (oracle_check_membership, oracle_statistic, oracle_weight_battery,
                     oracle_xi)
from test_martingale import moment_preserving_candidate
from test_measure_rows import TREES, _random_rule

F = Fraction
HALF = F(1, 2)


def assert_same_reports(tree, cand, **kwargs):
    got = check_membership(tree, cand, **kwargs)
    want = oracle_check_membership(tree, cand, **kwargs)
    assert got.clause1 == want.clause1
    assert got == want
    return got


def counting_evals(monkeypatch) -> list:
    """From now on, the point of every ``Polynomial.eval`` call, in order."""
    calls, real = [], Polynomial.eval

    def counted(self, point):
        calls.append(tuple(point))
        return real(self, point)
    monkeypatch.setattr(Polynomial, "eval", counted)
    return calls


@pytest.fixture(scope="module")
def pool_measures():
    return [(tree, solve_weak(tree).measure) for tree in acceptance_pool()]


def assert_measure_law_is_the_dict_law(tree, m, modes=("exact",)):
    """A measure's law read off its rows equals the law built from its
    absolute-mass dicts, and so do their membership reports."""
    rows, dicts = CandidateLaw.from_measure(tree, m), CandidateLaw(tree, m.s, m.u)
    assert (rows.stops, rows.conts, rows.points) == (dicts.stops, dicts.conts, dicts.points)
    for mode in modes:
        assert check_membership(tree, rows, mode=mode) == check_membership(tree, dicts, mode=mode)


def test_a_measures_law_equals_its_dict_law_on_the_pool(pool_measures):
    for tree, m in pool_measures:
        assert_measure_law_is_the_dict_law(tree, m, modes=("exact", "generator"))


@settings(max_examples=40, deadline=None)
@given(**TREES)
def test_a_measures_law_equals_its_dict_law_on_drawn_trees(seed, depth, branches,
                                                           n_ineq, n_eq):
    tree = load_instance(generate_instance(seed=seed, depth=depth, branches=branches,
                                           n_ineq=n_ineq, n_eq=n_eq))
    assert_measure_law_is_the_dict_law(tree, rule_to_measure(tree, _random_rule(tree, seed)))
    res = solve_weak(tree)
    if res.optimal:
        assert_measure_law_is_the_dict_law(tree, res.measure)


@pytest.mark.parametrize("kwargs", [
    {"degree": 2, "mode": "exact"},
    {"degree": 2, "mode": "generator"},
], ids=["exact-2", "generator-2"])
def test_acceptance_pool_matches_oracle(pool_measures, kwargs):
    for tree, measure in pool_measures:
        assert_same_reports(tree, measure, **kwargs)


def test_a_genuine_law_evaluates_no_polynomial_in_exact_mode(pool_measures, monkeypatch):
    # the tests above and below hold these reports equal to the oracle's
    calls = counting_evals(monkeypatch)
    for tree, measure in pool_measures:
        for degree in (1, 2, 3):
            assert check_membership(tree, measure, degree=degree).ok
    assert calls == []


def test_acceptance_pool_matches_oracle_at_degree_3(pool_measures):
    # the first ten instances hold every shape and every (depth, branches)
    # pair of the pool; the oracle takes half a second per instance here
    for tree, measure in pool_measures[:10]:
        assert_same_reports(tree, measure, degree=3)


def test_corruptions_match_oracle_and_are_rejected():
    pool = acceptance_pool()
    for i, kind, eps, tree, cand in acceptance_corruptions(pool):
        rep = assert_same_reports(tree, cand, degree=2)
        assert not rep.ok, (i, kind, eps)
    # a branch law that keeps the increment's lower moments
    tree, cand = moment_preserving_candidate()
    for degree in (2, 3):
        assert not assert_same_reports(tree, cand, degree=degree).ok


def test_claimed_points_and_battery_match_word_references(pool_measures):
    # the row form's points and battery against the word-keyed references
    # that the oracle's membership reports read
    pool = [tree for tree, _ in pool_measures]
    cands = [(tree, CandidateLaw.from_measure(tree, m)) for tree, m in pool_measures]
    cands += [(tree, cand) for i, _, _, tree, cand in acceptance_corruptions(pool) if i < 30]
    for tree, cand in cands:
        assert cand.points == [oracle_xi(cand, w) for w in tree.nodes()]
        for s in range(tree.depth):
            assert weight_battery(tree, cand, s) == oracle_weight_battery(tree, cand, s, 16)


def test_only_the_moment_preserving_root_is_evaluated(monkeypatch):
    # the root's branch law is corrupted, and each row below it branches as
    # the model: phi is evaluated at the root and its four children, once each
    tree, cand = moment_preserving_candidate()
    calls = counting_evals(monkeypatch)
    rep = check_membership(tree, cand, degree=2)
    n_phis = len(monomial_basis(tree.d, tree.l, 2))
    assert set(calls) == set(cand.points[:5])
    assert len(calls) == 5 * n_phis
    assert rep.clause1_pass and all(r["stat"] == 0 for r in rep.clause1)
    assert not rep.direct_pass
    assert rep == oracle_check_membership(tree, cand, degree=2)


def test_post_stop_only_corruption_matches_oracle(monkeypatch):
    # pre-stop shares are the model's everywhere; only the post-stop
    # branching of levels 0 and 1 is off, so phi is evaluated at the rows of
    # depths 0 to 2, once each
    tree = make_rw(depth=3)
    interior = [w for w in tree.nodes() if len(w) < tree.depth]
    measure = rule_to_measure(tree, rule_from_map(tree, {w: HALF for w in interior}))
    post = [[F(5, 8), F(3, 8)], [F(3, 8), F(5, 8)], [HALF, HALF]]
    cand = CandidateLaw(tree, measure.s, measure.u, post_stop_branching=post)
    calls = counting_evals(monkeypatch)
    rep = check_membership(tree, cand, degree=2)
    assert set(calls) == set(cand.points[:7])
    assert len(calls) == 7 * len(monomial_basis(tree.d, tree.l, 2))
    assert not rep.clause1_pass and not rep.direct_pass
    assert rep.direct_detail["check"] == "post_stop"
    for degree in (1, 2):
        for mode in ("exact", "generator"):
            assert_same_reports(tree, cand, degree=degree, mode=mode)


@settings(max_examples=25, deadline=None)
@given(**TREES)
def test_random_rule_laws_match_oracle_on_drawn_trees(seed, depth, branches, n_ineq, n_eq):
    tree = load_instance(generate_instance(seed=seed, depth=depth, branches=branches,
                                           n_ineq=n_ineq, n_eq=n_eq))
    measure = rule_to_measure(tree, _random_rule(tree, seed))
    for mode in ("exact", "generator"):
        assert_same_reports(tree, measure, mode=mode)


def _stop_biased_candidate():
    """Pre-stop and post-stop flows biased in opposite directions at (0,)."""
    tree = make_rw(depth=3)
    interior = [w for w in tree.nodes() if len(w) < tree.depth]
    rule = rule_from_map(tree, {w: F(len(w) + 1, 4) for w in interior})
    biased = candidate_with_branch_bias(tree, rule, ((0,), F(1, 8)))
    post = [[HALF, HALF], [F(3, 8), F(5, 8)], [F(1, 3), F(2, 3)]]
    return tree, CandidateLaw(tree, s=dict(zip(biased.shape.words(), biased.stops)),
                              u=dict(zip(biased.shape.words(), biased.conts)),
                              post_stop_branching=post)


def test_post_stop_branching_matches_oracle():
    tree, cand = _stop_biased_candidate()
    for degree in (2, 3):
        for mode in ("exact", "generator"):
            assert_same_reports(tree, cand, degree=degree, mode=mode)


def vector_tree():
    """l = d = 2: a state-dependent drift and a full diffusion matrix."""
    return build_tree(
        dt=HALF, depth=3,
        branching=[(F(1, 4), (1, 0)), (F(3, 4), (F(-1, 3), F(1, 2)))],
        x0=(0, 1),
        drift=lambda t, xs: (xs[-1][1] / 2, 1 - xs[-1][0]),
        diffusion=((1, 0), (HALF, 1)))


def test_vector_instance_matches_oracle():
    tree = vector_tree()
    interior = [w for w in tree.nodes() if len(w) < tree.depth]
    rule = rule_from_map(tree, {w: F(sum(w) % 3, 3) for w in interior})
    measure = rule_to_measure(tree, rule)
    genuine = assert_same_reports(tree, measure, degree=2)
    assert genuine.ok
    assert_same_reports(tree, measure, degree=2, mode="generator")
    for cand in (candidate_with_branch_bias(tree, rule, ((1,), F(1, 8))),
                 candidate_with_state_shift(tree, measure, (1, 0), F(1, 3))):
        assert not assert_same_reports(tree, cand, degree=2).ok


def test_standalone_statistic_matches_oracle():
    # statistic() outside check_membership runs its own sweep for one phi
    tree, cand = _stop_biased_candidate()
    for _, phi in monomial_basis(tree.d, tree.l, 2):
        for s in range(tree.depth):
            for weight in weight_battery(tree, cand, s)[:8]:
                for r in range(s + 1, tree.depth + 1):
                    for mode in ("exact", "generator"):
                        assert statistic(cand, phi, s, r, weight, mode) == \
                            oracle_statistic(cand, phi, s, r, weight, mode)


def test_statistic_still_rejects_bad_windows():
    tree, cand = _stop_biased_candidate()
    _, phi = monomial_basis(1, 1, 1)[0]
    trivial = CylinderWeight(label="1", factors=())
    for s, r in ((1, 1), (-1, 2), (0, tree.depth + 1)):
        with pytest.raises(ValueError):
            statistic(cand, phi, s, r, trivial)
    late = weight_battery(tree, cand, 2)[-1]
    with pytest.raises(ValueError):
        statistic(cand, phi, 1, 2, late)


def _largest_generator_statistic(cand, steps, degree, trivial):
    """The largest |statistic| of the degree's monomials over [0, steps], by
    one generator-mode sweep and by the oracle."""
    phis = [phi for _, phi in monomial_basis(1, 1, degree)]
    levels = _Sweep(cand, "generator", phis).levels(trivial)
    got = max(abs(sum(col, F(0))) for col in zip(*levels))
    want = max(abs(oracle_statistic(cand, phi, 0, steps, trivial, "generator"))
               for phi in phis)
    return got, want


def test_generator_gap_decay_matches_oracle_statistics():
    study = generator_gap_decay()
    trivial = CylinderWeight(label="1", factors=())
    assert study["dts"] == [F(1), HALF, F(1, 4), F(1, 8)]
    for dt, got in zip(study["dts"], study["stats"]):
        steps = int(1 / dt)
        w = as_fraction(math.sqrt(float(dt)))
        tree = build_tree(dt=dt, depth=steps, branching=[(HALF, w), (HALF, -w)],
                          x0=0, drift=1, diffusion=1)
        cand = CandidateLaw.from_measure(tree, _stop_at_horizon(tree))
        want = max(abs(oracle_statistic(cand, phi, 0, steps, trivial, "generator"))
                   for _, phi in monomial_basis(1, 1, 2))
        assert got == float(want)
        # the cubic monomials too, on the three coarsest grids
        if dt >= F(1, 4):
            sweep, oracle = _largest_generator_statistic(cand, steps, 3, trivial)
            assert sweep == oracle
