"""The node table from the keyed integer walk against the word-by-word
builder it replaced (``oracles.node_table_by_words``), on the benchmark's
trees and on hypothesis-drawn loaded and callable-built trees, with the
state paths, accruals and stop payoffs read at the keys of each row's
path; one evaluation per key; the table-driven readers (expectations,
Monte Carlo, ``generate_instance``) against their per-word forms; the
shape's rows, words and ancestor paths, converted by the level widths,
against ``oracles.words_by_levels``; and the table's refusals."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treestop import (NodeNotInTree, StoppingMeasure, TreeInstance, build_tree,
                      cumulative_functionals, dp_value, euler_state, load_instance,
                      monte_carlo_value, rule_from_map, rule_to_measure, solve_weak)
from treestop.generate import (_DIFFUSIONS, _DRIFTS, _G_ANY, _H_ANY, _REWARDS, _TERMINALS,
                               generate_instance)

from conftest import count_calls, make_rw
from oracles import (expectations_by_words, functionals_by_words, monte_carlo_oracle,
                     node_table_by_words, oracle_generate_instance, oracle_keyed_walk,
                     oracle_prefix, stop_payoff, terminal_at, words_by_levels)
from test_closed_form import WALKS, walk

F = Fraction
HALF = F(1, 2)

# the benchmark's instances (bench/workloads.py), as generate_instance arguments
BENCH_SPECS = {
    "dense-6x2": dict(seed=1, depth=6, branches=2, n_ineq=2, n_eq=1),
    "dense-5x3": dict(seed=1, depth=5, branches=3, n_ineq=2, n_eq=1),
    "dense-4x4": dict(seed=1, depth=4, branches=4, n_ineq=2, n_eq=1),
    "ineq-6x2": dict(seed=1, depth=6, branches=2, n_ineq=1),
    "env-8x3": dict(seed=1, depth=8, branches=3, n_ineq=1, nonneg_g=True),
    "env-6x4": dict(seed=1, depth=6, branches=4, n_ineq=1, nonneg_g=True),
    "pool-0": dict(seed=3, depth=3, branches=2, n_ineq=1),
    "pool-1": dict(seed=1, depth=4, branches=2, n_ineq=0, n_eq=1),
    "pool-2": dict(seed=2, depth=3, branches=3, n_ineq=1, n_eq=1),
    "pool-3": dict(seed=2, depth=4, branches=2, n_ineq=2),
    "pool-4": dict(seed=4, depth=3, branches=2, n_ineq=1),
    "pool-5": dict(seed=3, depth=3, branches=3, n_ineq=0, n_eq=1),
    "pool-6": dict(seed=5, depth=4, branches=2, n_ineq=1, n_eq=1),
    "pool-7": dict(seed=4, depth=3, branches=3, n_ineq=2),
}


def assert_table_and_node_data_match(make):
    """``make()``'s table equals the word-by-word one of another fresh
    tree, and so do its state paths, accruals and stop payoffs, read at the
    keys of each row's path: read after the table is built, and on a third
    tree before its table is built, which must then equal the others."""
    tree = make()
    table = tree._node_table()
    assert table == node_table_by_words(make())
    fresh, reads_first = make(), make()
    for w in table.shape.words():
        assert euler_state(tree, w) == euler_state(reads_first, w) == oracle_prefix(fresh, w)
        F, Gs, Hs = functionals_by_words(fresh, w)
        assert cumulative_functionals(tree, w) == cumulative_functionals(reads_first, w) \
            == (F, Gs, Hs)
        assert stop_payoff(tree, w) == F + terminal_at(fresh, w)
    assert reads_first._node_table() == table
    return table


@pytest.mark.parametrize("name", sorted(BENCH_SPECS))
def test_keyed_table_equals_the_word_by_word_table_on_bench_trees(name):
    doc = generate_instance(**BENCH_SPECS[name])
    assert_table_and_node_data_match(lambda: load_instance(doc))


# -- rows and words ------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@example(widths=[2, 1, 3])
@example(widths=[1, 1])
@given(widths=st.lists(st.integers(1, 4), max_size=5))
def test_rows_and_words_convert_by_the_level_widths(widths):
    tree = build_tree(dt=1, depth=len(widths), x0=0,
                      branching=[[(F(1, n), j) for j in range(n)] for n in widths])
    shape, words = tree._shape(), words_by_levels(tree)
    assert list(shape.words()) == words
    for i, w in enumerate(words):
        assert shape.word(i) == w and shape.row(w) == i and shape.depth(i) == len(w)
        assert [words[j] for j in shape.path(i)] == [w[:k] for k in range(len(w) + 1)]
    # the child ranges and parents, read off the words
    inner = [w for w in words if len(w) < len(widths)]
    assert [words[j] for j in shape.first[:-1]] == [w + (0,) for w in inner]
    assert shape.first[-1] == len(words)
    assert [words[j] for j in shape.parent[1:]] == [w[:-1] for w in words[1:]]
    # a word too long, a branch that is not an int, and a branch out of
    # range at every level
    assert shape.row(words[-1] + (0,)) is None
    assert shape.row((0.0,)) is None
    for k, n in enumerate(widths):
        assert shape.row((0,) * k + (n,)) is None
        assert shape.row((0,) * k + (-1,)) is None


# -- hypothesis-drawn trees ----------------------------------------------------------

_EXPRS = ["0", "1/2", "t", "x_current", "x_sup", "x_current**2", "x_sup - x_current",
          "t/2 + x_current/3", "-x_sup/2"]
_LINEAR = ["0", "1/2", "x_current/2", "x_sup/3 - t/4", "-x_current/3"]
_INCS = [F(-3, 2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]


@st.composite
def _level(draw, width=1):
    """One level's (p, w) pairs: 2 or 3 branches, increments of ``width``."""
    n = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    incs = [tuple(draw(st.sampled_from(_INCS)) for _ in range(width)) for _ in range(n)]
    return [(F(w, sum(weights)), x if width > 1 else x[0]) for w, x in zip(weights, incs)]


@st.composite
def loaded_trees(draw, dts=("1", "1/2", "1/3"), drifts=tuple(_LINEAR), payoffs=tuple(_EXPRS)):
    """A loaded instance (one Markov key per state and running sup) with
    per-level or shared branching and a history of up to three states."""
    depth = draw(st.integers(0, 4))
    if draw(st.booleans()):
        branching = [[{"p": str(p), "w": str(w)} for p, w in draw(_level())]
                     for _ in range(depth)]
    else:
        branching = [{"p": str(p), "w": str(w)} for p, w in draw(_level())]
    doc = {
        "t0": draw(st.sampled_from(["0", "-1", "1/2"])),
        "dt": draw(st.sampled_from(dts)),
        "depth": depth,
        "branching": branching,
        "x0_history": draw(st.lists(st.sampled_from(["0", "1", "-1", "2", "1/2"]),
                                    min_size=1, max_size=3)),
        "drift": draw(st.sampled_from(drifts)),
        "diffusion": draw(st.sampled_from(["1", "1/2", "3/2", "1 + t/4"])),
        "f": draw(st.sampled_from(_EXPRS)),
        "pi": draw(st.sampled_from(payoffs)),
        "constraints": {
            "ineq": [{"g": g, "y": "1"}
                     for g in draw(st.lists(st.sampled_from(_EXPRS), max_size=2))],
            "eq": [{"h": h, "z": "0"}
                   for h in draw(st.lists(st.sampled_from(_EXPRS), max_size=1))],
        },
    }
    return lambda: load_instance(doc)


@st.composite
def built_trees(draw):
    """A tree from callables that read the whole path (every node its own
    key): scalar, or l = d = 2; branching shared or per level."""
    depth = draw(st.integers(0, 3))
    vector = draw(st.booleans())
    width = 2 if vector else 1
    levels = [draw(_level(width)) for _ in range(depth)] if draw(st.booleans()) \
        else draw(_level(width))
    c = draw(st.sampled_from([F(0), F(1, 3), F(-1, 2)]))
    if vector:
        fields = dict(
            x0=(0, 1), drift=lambda t, xs: (xs[-1][1] / 2 + c, 1 - xs[0][0]),
            diffusion=((1, 0), (HALF, 1)),
            reward=lambda t, xs: xs[-1][1] / 4 - c * len(xs),
            terminal=lambda t, xs: xs[-1][0] * xs[-1][1],
            inequalities=[(lambda t, xs: xs[-1][0] ** 2 + HALF, 1)],
            equalities=[(lambda t, xs: xs[-1][1] - c, 0)])
    else:
        fields = dict(
            history=(F(1), F(0)), drift=lambda t, xs: (xs[-2] - xs[0]) / len(xs) + c,
            diffusion=lambda t, xs: 1 + xs[-1] ** 2 / 4,
            reward=lambda t, xs: xs[-1] / 3, terminal=lambda t, xs: xs[-1] - xs[-2],
            inequalities=[(lambda t, xs: 1 + t, 2), (lambda t, xs: max(xs), 1)])
    dt = draw(st.sampled_from([1, HALF]))
    return lambda: build_tree(dt=dt, depth=depth, branching=levels, t0=c, **fields)


@settings(max_examples=150, deadline=None)
@given(make=st.one_of(loaded_trees(), built_trees()))
def test_keyed_table_equals_the_word_by_word_table(make):
    assert_table_and_node_data_match(make)


_SUP_DRIFTS = ("x_sup/2", "x_sup/3 - t/4", "x_current/2 - x_sup/4", "1 - x_sup")
_SUP_PAYOFFS = ("x_sup", "x_sup - x_current", "x_sup**2/3 - t", "2*x_sup - x_current**2")


def _column_ints(walk):
    """Each column's ints over its ``ones`` entry: column 0 holds the stop
    payoffs and the reward steps, column c > 0 the steps of integrand c."""
    steps = [step for level in walk.steps for step in level]
    return [[pay for level in walk.pays for pay in level] + [step[0] for step in steps],
            *([step[c] for step in steps] for c in range(1, len(walk.ones)))]


@settings(max_examples=150, deadline=None)
@given(make=st.one_of(loaded_trees(dts=("1", "1/2", "2/3"), drifts=_SUP_DRIFTS,
                                   payoffs=_SUP_PAYOFFS), built_trees()))
def test_keyed_walk_equals_the_prefix_path_walk(make):
    """The walk by (state, sup) key on loaded trees, and by state path on
    trees built from callables, equals the walk that carried every
    representative's state path and made each step a Fraction; its ints
    are over the least denominators."""
    walk = make()._keys()
    assert walk == oracle_keyed_walk(make())
    assert len(walk.ones) == len(_column_ints(walk))
    for one, ints in zip(walk.ones, _column_ints(walk)):
        assert gcd(one, *ints) == 1


# every expression the generator draws, each in its own field of generated
# trees whose other fields vary with the seed
GENERATOR_FIELDS = [(field, spec) for field, pool in (
    ("drift", _DRIFTS), ("diffusion", _DIFFUSIONS), ("f", _REWARDS), ("pi", _TERMINALS),
    ("g", _G_ANY), ("h", _H_ANY)) for spec in dict.fromkeys(pool)]


@pytest.mark.parametrize("field, spec", GENERATOR_FIELDS)
def test_keyed_walk_equals_the_prefix_path_walk_on_every_generator_expression(field, spec):
    for seed in range(3):
        doc = generate_instance(seed=seed, depth=4, branches=2 + seed, n_ineq=1, n_eq=1)
        cons = doc["constraints"]
        if field in ("g", "h"):
            cons["ineq" if field == "g" else "eq"][0][field] = spec
        else:
            doc[field] = spec
        assert load_instance(doc)._keys() == oracle_keyed_walk(load_instance(doc)), seed


@pytest.mark.parametrize("h, depth", WALKS)
def test_keyed_walk_equals_the_prefix_path_walk_on_the_drawdown_walk(h, depth):
    assert walk(h, depth, "x_sup", 1)._keys() == oracle_keyed_walk(walk(h, depth, "x_sup", 1))


@pytest.mark.parametrize("depth, branches", [(0, 2), (2, 4), (3, 3), (4, 2), (5, 2)])
def test_keyed_table_equals_the_word_by_word_table_on_generated_trees(depth, branches):
    for seed in range(20):
        doc = generate_instance(seed=seed, depth=depth, branches=branches,
                                n_ineq=seed % 3, n_eq=seed % 2)
        assert_table_and_node_data_match(lambda: load_instance(doc))


def test_table_evaluates_each_key_once():
    doc = generate_instance(seed=1, depth=4, branches=4, n_ineq=1, n_eq=1)
    states = load_instance(doc)._keys().states
    keys, interior = sum(map(len, states)), sum(map(len, states[:-1]))
    tree = load_instance(doc)
    calls = count_calls(tree)
    tree._node_table()
    # one terminal payoff per key; one set of rates and one Euler step per
    # interior key
    assert calls == {"terminal": keys, "reward": interior, "g": interior, "h": interior,
                     "drift": interior, "diffusion": interior}
    assert keys < len(tree._node_table().shape.probs)


@pytest.mark.parametrize("make", [
    lambda: load_instance(generate_instance(seed=1, depth=4, branches=3, n_ineq=1)),
    lambda: build_tree(dt=HALF, depth=3, branching=[(F(1, 3), 1), (F(2, 3), -HALF)],
                       x0=0, drift=lambda t, xs: xs[0] / 2 - xs[-1] / 3,
                       reward=lambda t, xs: xs[-1] / 4, terminal=lambda t, xs: max(xs),
                       inequalities=[(lambda t, xs: xs[-1] ** 2, 1)]),
], ids=["loaded", "built"])
def test_engines_and_node_reads_share_one_keyed_walk(monkeypatch, make):
    """solve_weak, dp_value and every node's state path and accruals run
    the keyed walk once between them, and no instance function after it."""
    tree, seen = make(), {"walks": 0}
    calls = count_calls(tree)
    real_walk = TreeInstance._keys

    def walk(self):
        cold = self._walk is None  # this call walks the levels
        out = real_walk(self)
        if cold:
            seen["walks"] += 1
            seen["calls"] = sum(calls.values())  # the instance's calls, up to here
        return out
    monkeypatch.setattr(TreeInstance, "_keys", walk)
    assert solve_weak(tree).optimal
    dp_value(tree, 1)
    for w in tree.nodes():
        euler_state(tree, w), cumulative_functionals(tree, w)
    assert seen == {"walks": 1, "calls": sum(calls.values())}  # and none after the walk
    assert calls["terminal"] > 0


# -- readers ----------------------------------------------------------------------

def _random_rule(tree, seed):
    rng = random.Random(seed)
    return rule_from_map(tree, {w: F(rng.randint(0, 6), 6) for w in tree.nodes()
                                if len(w) < tree.depth})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(0, 3), branches=st.integers(2, 3),
       n_ineq=st.integers(0, 2), n_eq=st.integers(0, 1))
def test_expectations_equal_the_per_word_sum(seed, depth, branches, n_ineq, n_eq):
    doc = generate_instance(seed=seed, depth=depth, branches=branches, n_ineq=n_ineq,
                            n_eq=n_eq)
    tree = load_instance(doc)
    res = solve_weak(tree)
    measures = [rule_to_measure(tree, _random_rule(tree, seed))]
    if res.optimal:
        measures.append(res.measure)
    for measure in measures:
        assert measure.expectations(tree) == \
            expectations_by_words(load_instance(doc), measure.s)


@settings(max_examples=40, deadline=None)
@given(make=built_trees(), seed=st.integers(0, 10**6))
def test_expectations_equal_the_per_word_sum_on_built_trees(make, seed):
    tree = make()
    measure = rule_to_measure(tree, _random_rule(tree, seed))
    assert measure.expectations(tree) == expectations_by_words(make(), measure.s)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(0, 4), branches=st.integers(2, 4),
       n_ineq=st.integers(0, 2), n_eq=st.integers(0, 2), nonneg_g=st.booleans(),
       vacuous_rate=st.sampled_from([0.0, 0.5]))
def test_generated_budgets_equal_the_reference_rules_accruals(**spec):
    assert generate_instance(**spec) == oracle_generate_instance(**spec)


@pytest.mark.parametrize("seed", range(4))
def test_mc_on_a_keyed_table_is_bit_identical_to_the_per_word_loop(seed):
    doc = generate_instance(seed=seed, depth=3, branches=3, n_ineq=1, n_eq=1)
    rule = _random_rule(load_instance(doc), seed)
    for paths in (1, 1500):
        got = monte_carlo_value(load_instance(doc), rule, paths=paths, seed=seed)
        assert got == monte_carlo_oracle(load_instance(doc), rule, paths=paths, seed=seed)


# -- refusals -------------------------------------------------------------------------

@pytest.mark.parametrize("word", [(2,), (0, 0, 0), (0, 5)])
def test_stop_mass_outside_the_tree_raises(word):
    tree = make_rw()
    with pytest.raises(NodeNotInTree):
        StoppingMeasure.from_masses(tree, {(): HALF, word: HALF}, {})
    # a zero entry charges no node
    got = StoppingMeasure.from_masses(tree, {(): F(1), word: F(0)}, {}).expectations(tree)
    assert got == expectations_by_words(make_rw(), {(): F(1)})

