"""Stopping measures as survival shares on the tree's BFS rows, against the
word-keyed forms they replaced (``oracles.pushed_forward_by_words`` and
``oracles.validate_by_words``): the rule's push, the solver's measure, theta
and the measure's rule are ``==``, and building a measure rejects exactly
the masses the word validator rejects, with the same message."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestop import (ShapeMismatch, StoppingMeasure, load_instance, measure_to_rule,
                      rule_from_map, rule_to_measure, solve_weak, theta_of_rule)
from treestop.generate import generate_instance

from oracles import paste, pushed_forward_by_words, validate_by_words

F = Fraction
TREES = dict(seed=st.integers(0, 10**6), depth=st.integers(0, 3),
             branches=st.integers(2, 3), n_ineq=st.integers(0, 2), n_eq=st.integers(0, 1))


def _random_rule(tree, seed):
    rng = random.Random(seed)
    return rule_from_map(tree, {w: F(rng.choice([0, 0, 1, 2, 3, 3]), 3)
                                for w in tree.nodes() if len(w) < tree.depth})


def _rule_by_words(s, u):
    return {w: s[w] / (s[w] + u[w]) if s[w] + u[w] else F(1) for w in s}


def _q_by_words(tree, rule):
    return {w: rule.prob(w) for w in tree.nodes()}


def _assert_equal_dicts(got, want):
    assert list(got.items()) == list(want.items())


@settings(max_examples=60, deadline=None)
@given(**TREES)
def test_rows_equal_the_word_keyed_push(seed, depth, branches, n_ineq, n_eq):
    tree = load_instance(generate_instance(seed=seed, depth=depth, branches=branches,
                                           n_ineq=n_ineq, n_eq=n_eq))
    rule = _random_rule(tree, seed)
    measure = rule_to_measure(tree, rule)
    s, u = pushed_forward_by_words(tree, lambda w, arrive: arrive * (1 - rule.prob(w)))
    _assert_equal_dicts(measure.s, s)
    _assert_equal_dicts(measure.u, u)
    # theta is one minus the survival push with branches of probability 1
    _, survival = pushed_forward_by_words(
        tree, lambda w, arrive: arrive * (1 - rule.prob(w)), lambda w: 1)
    _assert_equal_dicts(theta_of_rule(tree, rule),
                        {w: 1 - v for w, v in survival.items()})
    _assert_equal_dicts(_q_by_words(tree, measure_to_rule(tree, measure)), _rule_by_words(s, u))
    assert StoppingMeasure.from_masses(tree, s, u) == measure
    # the per-row masses are the word-keyed ones in row order
    assert measure.masses(tree) == (list(s.values()), list(u.values()))

    res = solve_weak(tree)
    if res.optimal:
        s, u = res.measure.s, res.measure.u
        validate_by_words(tree, s, u)
        q = _rule_by_words(s, u)
        _assert_equal_dicts(_q_by_words(tree, measure_to_rule(tree, res.measure)), q)
        ref_s, ref_u = pushed_forward_by_words(tree, lambda w, arrive: arrive * (1 - q[w]))
        _assert_equal_dicts(s, ref_s)
        _assert_equal_dicts(u, ref_u)


def _outcome(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(**TREES, kind=st.sampled_from(["none", "negative", "flow", "horizon", "total"]),
       pick=st.integers(0, 10**6), delta=st.sampled_from([F(1, 7), F(1, 2), F(3)]))
def test_validate_rejects_exactly_what_the_word_validator_rejects(
        seed, depth, branches, n_ineq, n_eq, kind, pick, delta):
    tree = load_instance(generate_instance(seed=seed, depth=depth, branches=branches,
                                           n_ineq=n_ineq, n_eq=n_eq))
    measure = rule_to_measure(tree, _random_rule(tree, seed))
    s, u = measure.s, measure.u
    words, leaves = list(s), list(tree.leaves())
    w, leaf = words[pick % len(words)], leaves[pick % len(leaves)]
    if kind == "negative":  # a stop or a continue mass
        (s if pick % 2 else u)[w] = -delta
    elif kind == "flow":
        s[w] += delta
    elif kind == "horizon":  # continue mass past a leaf
        u[leaf] += delta
    elif kind == "total":
        s = {x: 2 * v for x, v in s.items()}
        u = {x: 2 * v for x, v in u.items()}
    want = _outcome(lambda: validate_by_words(tree, s, u))
    assert (want is None) == (kind == "none")
    assert _outcome(lambda: StoppingMeasure.from_masses(tree, s, u)) == want


def test_a_measure_is_checked_against_the_trees_rows():
    small = load_instance(generate_instance(seed=1, depth=2))
    big = load_instance(generate_instance(seed=1, depth=3))
    measure = solve_weak(small).measure
    for check in (measure.validate, measure.expectations, measure.masses):
        with pytest.raises(ShapeMismatch):
            check(big)
    # another load of the same tree has equal rows
    measure.validate(load_instance(generate_instance(seed=1, depth=2)))


def test_a_share_count_other_than_the_row_count_is_refused_when_built():
    tree = load_instance(generate_instance(seed=1, depth=2))  # 7 rows
    shape = tree._shape()
    # three shares that would pass a row-by-row check of the first three rows
    with pytest.raises(ShapeMismatch, match="^the measure has 3 stop and 3 continue "
                                            "shares for 7 rows$"):
        StoppingMeasure(shape, (0, 1, 1), (1, 0, 0), 1)
    stops, conts = (0, 0, 0, 1, 1, 1, 1), (1, 1, 1, 0, 0, 0, 0)  # stop at the horizon
    assert StoppingMeasure(shape, stops, conts, 1).expectations(tree)["mean_stop_time"] == 2
    for args in ((stops[:-1], conts), (stops, conts + (0,))):
        with pytest.raises(ShapeMismatch, match="for 7 rows"):
            StoppingMeasure(shape, *args, 1)
    with pytest.raises(ShapeMismatch):
        StoppingMeasure.from_shares(shape, [F(1)], [F(0)])


def _stopping_at(tree, depth):
    """The measure that stops every path at the given depth."""
    return rule_to_measure(tree, rule_from_map(tree, {w: int(len(w) >= depth) for w in tree.nodes()
                                                      if len(w) < tree.depth}))


def test_paste_rejects_a_submeasure_off_the_subtree_or_below_an_unreachable_node():
    tree = load_instance(generate_instance(seed=1, depth=3))
    late, sub = _stopping_at(tree, 3), _stopping_at(tree.subtree((0,)), 1)
    # below (0,), the pasted law stops one step after the cut
    want = late.s | {w: v for w, v in _stopping_at(tree, 2).s.items() if w[:1] == (0,)}
    assert paste(tree, late, 1, {(0,): sub}).s == want
    with pytest.raises(ShapeMismatch, match="not on the subtree"):
        paste(tree, late, 1, {(0,): _stopping_at(tree.subtree((0, 0)), 1)})
    with pytest.raises(ShapeMismatch, match="unreachable"):
        paste(tree, _stopping_at(tree, 0), 1, {(0,): sub})
