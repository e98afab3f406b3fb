"""The level-order envelope sweep against the node-by-node recursion it
replaced, on fixed and generated trees; the keyed level walk's records
(each key's state) against the oracle's Euler fill and a hand-written
Euler recursion; one chain per Markov key on loaded instances, and one per node
where the functions read the whole path; the stop-point paste against the general hull; the
float-keyed chain merge against the exact sort on a benchmark tree; the
per-tree root-envelope cache; and singular expressions."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treestop import (BudgetVector, CandidateLaw, ConcaveEnvelope, ExpressionUndefined,
                      POS_INF, build_tree, check_membership, dp, dp_value, euler_state,
                      lattice, load_instance, parse_function, root_envelope, solve_weak)
from treestop.generate import generate_instance

from conftest import count_calls
from oracles import (children, exact_merged, kernel_backstep, kernel_merged_envelope,
                     node_envelopes, oracle_backstep, oracle_keyed_walk,
                     oracle_merged_envelope, oracle_node_envelopes, oracle_prefix,
                     terminal_at)

F = Fraction
HALF = F(1, 2)
BINOM = [(HALF, 1), (HALF, -1)]


def _generated(depth, branches, nonneg_g):
    doc = generate_instance(seed=7, depth=depth, branches=branches, n_ineq=1,
                            nonneg_g=nonneg_g)
    return lambda: load_instance(doc)


def _doc_tree(**fields):
    doc = {"dt": "1", "depth": 3,
           "branching": [{"p": "1/3", "w": "1"}, {"p": "2/3", "w": "-1/2"}],
           "constraints": {"ineq": [{"g": "x_current**2", "y": "1"}]}}
    doc.update(fields)
    return lambda: load_instance(doc)


# the state dynamics of three trees, kept apart so that the Euler recursion
# below can be written out by hand against them
MIXED_DYNAMICS = dict(
    dt=1, depth=3, x0=0, drift=0, diffusion=1,
    branching=[[(HALF, 1), (HALF, -1)],
               [(F(1, 4), 2), (F(1, 4), 0), (HALF, -1)],
               [(F(1, 3), 1), (F(2, 3), F(-1, 2))]])
VECTOR_DYNAMICS = dict(
    dt=HALF, depth=3, x0=(0, 1),
    branching=[[(F(1, 4), (1, 0)), (F(3, 4), (F(-1, 3), HALF))]] * 3,
    drift=lambda t, xs: (xs[-1][1] / 2, 1 - xs[-1][0]),
    diffusion=((1, 0), (HALF, 1)))
SCALAR_DYNAMICS = dict(
    dt=F(1, 3), depth=4, x0=F(1, 2), t0=-1,
    branching=[[(F(1, 3), 1), (F(1, 6), F(-1, 2)), (HALF, F(-3, 2))]] * 4,
    drift=lambda t, xs: max(xs) / 2 - t * xs[-1],
    diffusion=lambda t, xs: 1 + xs[-1] ** 2 / 4)


def _mixed_branching():
    return build_tree(
        **MIXED_DYNAMICS,
        reward=lambda t, xs: xs[-1] / 3, terminal=lambda t, xs: xs[-1] ** 2,
        inequalities=[(lambda t, xs: 1 + t, 2)])


def _vector():
    return build_tree(
        **VECTOR_DYNAMICS,
        reward=lambda t, xs: xs[-1][1] / 4,
        terminal=lambda t, xs: xs[-1][0] * xs[-1][1],
        inequalities=[(lambda t, xs: xs[-1][0] ** 2 + HALF, 1)])


def _negative_g():
    # g < 0 near the start: continuing earns budget, so the domain starts at -2
    return build_tree(dt=1, depth=3, branching=BINOM, x0=0,
                      terminal=lambda t, xs: abs(xs[-1] - HALF) - t,
                      inequalities=[(lambda t, xs: -1 + abs(xs[-1]) / 2, POS_INF)])


def _stop_dominates():
    return build_tree(dt=1, depth=1, branching=BINOM, x0=0,
                      terminal=lambda t, xs: 5 if len(xs) == 1 else 0,
                      inequalities=[(1, POS_INF)])


CASES = {
    "generated-5x3-nonneg": _generated(5, 3, True),
    "generated-5x3-any": _generated(5, 3, False),
    "generated-4x4-nonneg": _generated(4, 4, True),
    "generated-4x4-any": _generated(4, 4, False),
    "generated-5x2-nonneg": _generated(5, 2, True),
    "generated-5x2-any": _generated(5, 2, False),
    "generated-4x3-nonneg": _generated(4, 3, True),
    "generated-4x3-any": _generated(4, 3, False),
    "branching-per-level": _mixed_branching,
    "vector-l2-d2": _vector,
    "negative-g": _negative_g,
    "long-history": _doc_tree(x0_history=["1", "-1", "3/2"],
                              drift="x_current/4", pi="x_sup - x_current"),
    "x-sup-drift-terminal": _doc_tree(drift="x_sup/2", f="x_sup/3", pi="x_sup"),
    # (1, 1, 1, -1/2, -1/2) and (1, 1, -1/2, 1, -1/2) end at x = 2 with sups
    # 3 and 5/2, and the history's max 2 is the sup of every path below it
    "sup-splits-a-state": _doc_tree(depth=5, x0_history=["2", "0"], f="x_sup/4",
                                    pi="x_sup - x_current"),
    "stop-dominates": _stop_dominates,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_matches_node_by_node_oracle(case):
    got = node_envelopes(CASES[case]())
    want = oracle_node_envelopes(CASES[case]())
    assert {w: (e.xs, e.vs) for w, e in got.items()} == \
        {w: (e.xs, e.vs) for w, e in want.items()}


def _key(tree, word):
    """A node's key: its state and the running sup of the state's first
    coordinate on a tree marked Markov, else the word itself."""
    if not tree._markov:
        return word
    path = oracle_prefix(tree, word)
    return path[-1], max(x[0] if isinstance(x, tuple) else x for x in path)


def _representatives(tree, k):
    """Each depth-k key's first word in BFS order, by key, in that order."""
    reps = {}
    for word in tree.nodes():
        if len(word) == k:
            reps.setdefault(_key(tree, word), word)
    return reps


@pytest.mark.parametrize("case", sorted(CASES))
def test_level_prefixes_equal_euler_states(case):
    tree = CASES[case]()
    walk = tree._keys()
    reps = [_representatives(CASES[case](), k) for k in range(tree.depth + 1)]
    assert len(walk.states) == len(walk.pays) == len(reps)
    assert len(walk.kids) == len(walk.steps) == tree.depth  # interior levels only
    if not tree._markov:  # every node is its own key
        assert [w for level in reps for w in level.values()] == list(tree.nodes())
    for k, (states, pays) in enumerate(zip(walk.states, walk.pays)):
        words = list(reps[k].values())
        assert states == [oracle_prefix(tree, w)[-1] for w in words]
        assert [F(pay, walk.ones[0]) for pay in pays] == [terminal_at(tree, w) for w in words]
        if k == tree.depth:
            break
        assert len(walk.kids[k]) == len(walk.steps[k]) == len(words)
        for word, ks in zip(words, walk.kids[k]):
            assert len(ks) == len(children(tree, word))
            for child, at in zip(children(tree, word), ks):
                assert at == list(reps[k + 1]).index(_key(tree, child))


def _euler_by_hand(dt, depth, branching, x0, drift, diffusion, t0=0):
    """Every word's state path from x + b*dt + sigma*w, step by step, with
    none of the tree's own state code."""
    def coefficient(c, t, path):
        return c(t, path) if callable(c) else c

    paths = {(): (tuple(map(F, x0)) if isinstance(x0, tuple) else F(x0),)}
    for k in range(depth):
        t = t0 + k * F(dt)
        for word, path in [(w, p) for w, p in paths.items() if len(w) == k]:
            x = path[-1]
            b, sig = coefficient(drift, t, path), coefficient(diffusion, t, path)
            for j, (_, w) in enumerate(branching[k]):
                if isinstance(x, tuple):  # vector state: sigma is an l x d matrix
                    nxt = tuple(x[i] + b[i] * dt
                                + sum(sig[i][m] * w[m] for m in range(len(w)))
                                for i in range(len(x)))
                else:
                    nxt = x + b * dt + sig * w
                paths[word + (j,)] = path + (nxt,)
    return paths


@pytest.mark.parametrize("dynamics", [SCALAR_DYNAMICS, VECTOR_DYNAMICS,
                                      MIXED_DYNAMICS],
                         ids=["scalar", "vector-l2-d2", "branching-per-level"])
def test_level_prefixes_and_euler_states_equal_a_hand_written_recursion(dynamics):
    want = _euler_by_hand(**dynamics)
    tree = build_tree(**dynamics)
    got = [x for level in tree._keys().states for x in level]
    # every node is its own key, in BFS order
    assert got == [path[-1] for path in want.values()]
    assert {word: euler_state(tree, word) for word in want} == want


# -- the stop-point paste -------------------------------------------------------

def _env(xs, vs):
    return ConcaveEnvelope(xs=tuple(map(F, xs)), vs=tuple(map(F, vs)))


# slopes 2 and 1/2 on [0, 3], top value 3; with one child of probability 1
# the continuation chain is this envelope moved by (budget step, reward step)
BENT = [(F(1), _env([0, 1, 3], [0, 2, 3]))]
STAIRS = [(F(1), _env([0, 1, 2, 3, 4], [0, 4, 7, 9, 10]))]
TIED = [(HALF, _env([0, 1], [0, 1])), (F(1, 4), _env([0, 2], [0, 2])),
        (F(1, 4), _env([0, 1, 2], [0, 2, 3]))]
# slopes 1 + 2**-60 and 1 round to one double; the steeper, second child's
# segment must come first
NEAR = [(HALF, _env([0, 1, 2], [0, 1, F(3, 2)])),
        (HALF, _env([0, 1], [0, 1 + F(1, 2**60)]))]
# a child of probability 0 adds no segment and moves no kink
NULL = [(F(0), _env([-1, 1, 5], [2, 6, 7])), (F(1), _env([0, 1, 3], [0, 2, 3]))]

# (children, stop value, reward step, budget step), by where the stop point
# (0, stop value) falls against the continuation chain
PASTES = {
    "left-below-start": (BENT, -1, 0, 1),
    "left-between": (BENT, 1, 0, 1),
    "left-at-top": (BENT, 3, 0, 1),
    "left-above-top": (BENT, 4, 0, 1),
    "first-kink-above": (BENT, 1, 0, 0),
    "first-kink-equal": (BENT, 0, 0, 0),
    "first-kink-below": (BENT, -1, 0, 0),
    "kink-above": (BENT, F(5, 2), 0, -1),
    "kink-equal": (BENT, 2, 0, -1),
    "kink-below": (BENT, 1, 0, -1),
    "kink-at-top": (BENT, 3, 0, -1),
    "last-kink-above": (BENT, 4, 0, -3),
    "last-kink-equal": (BENT, 3, 0, -3),
    "last-kink-below": (BENT, 2, 0, -3),
    "segment-above": (BENT, F(3, 2), 0, -HALF),
    "segment-on": (BENT, 1, 0, -HALF),
    "segment-below": (BENT, HALF, 0, -HALF),
    "segment-at-top": (BENT, 3, 0, -HALF),
    "segment-above-top": (BENT, F(7, 2), 0, -HALF),
    "right-of-plateau-above": (BENT, 4, 0, -4),
    "right-of-plateau-equal": (BENT, 3, 0, -4),
    "right-of-plateau-below": (BENT, 2, 0, -4),
    "reward-step-shifts-values": (BENT, F(4, 3), F(1, 3), -HALF),
    "covers-kinks-on-both-sides": (STAIRS, F(19, 2), 0, -2),
    "covers-every-kink-left": (STAIRS, F(19, 2), 0, -F(9, 2)),
    "tied-child-slopes-segment": (TIED, 2, 0, -1),
    "tied-child-slopes-below": (TIED, 0, 0, -1),
    "tied-child-slopes-left": (TIED, 1, 0, F(1, 3)),
    "near-slopes-covered": (NEAR, 0, 0, -HALF),
    "near-slopes-chord": (NEAR, F(1, 2) + F(1, 2**61) + F(1, 2**62), 0, -HALF),
    "near-slopes-above-top": (NEAR, 2, 0, -HALF),
    "null-child-kink-above": (NULL, F(5, 2), 0, -1),
    "null-child-below": (NULL, -1, 0, 0),
}


@pytest.mark.parametrize("case", sorted(PASTES))
def test_backstep_equals_general_hull(case):
    kids, pi, f_step, g_step = PASTES[case]
    got = kernel_backstep(F(pi), F(f_step), F(g_step), kids)
    want = oracle_backstep(F(pi), F(f_step), F(g_step), kids)
    assert (got.xs, got.vs) == (want.xs, want.vs)
    assert kernel_merged_envelope(kids) == oracle_merged_envelope(kids)


_SMALL = st.integers(-16, 16).map(lambda n: F(n, 4))


@st.composite
def _concave_envelopes(draw):
    n = draw(st.integers(0, 4))
    slopes = sorted(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)),
                    reverse=True)
    widths = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    xs, vs = [draw(_SMALL)], [draw(_SMALL)]
    for slope, width in zip(slopes, widths):
        xs.append(xs[-1] + F(width, 4))
        vs.append(vs[-1] + F(slope * width, 12))
    return ConcaveEnvelope(xs=tuple(xs), vs=tuple(vs))


@st.composite
def _children(draw):
    envs = draw(st.lists(_concave_envelopes(), min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(envs),
                            max_size=len(envs)))
    return [(F(w, sum(weights)), env) for w, env in zip(weights, envs)]


@settings(max_examples=300, deadline=None)
@given(_children(), _SMALL, _SMALL, _SMALL)
def test_backstep_equals_general_hull_on_random_children(kids, pi, f_step, g_step):
    got = kernel_backstep(pi, f_step, g_step, kids)
    want = oracle_backstep(pi, f_step, g_step, kids)
    assert (got.xs, got.vs) == (want.xs, want.vs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(1, 4),
       branches=st.integers(2, 4), nonneg_g=st.booleans())
# g = x_current below 0: domains start left of x = 0, and the paste walks
# up to six kinks there
@example(seed=3, depth=3, branches=3, nonneg_g=False)
def test_sweep_matches_node_by_node_oracle_on_generated_trees(seed, depth, branches,
                                                              nonneg_g):
    doc = generate_instance(seed=seed, depth=depth, branches=branches, n_ineq=1,
                            nonneg_g=nonneg_g)
    want = oracle_node_envelopes(load_instance(doc))
    assert root_envelope(load_instance(doc)) == want[()]
    assert node_envelopes(load_instance(doc)) == want


def test_every_chain_equals_the_exact_sort_merge_on_env_8x3(monkeypatch):
    # the benchmark's env-8x3: 2121 keys over 9 levels, with chains of up to
    # 655 segments, compared level for level and chain for chain
    doc = generate_instance(seed=1, depth=8, branches=3, n_ineq=1, nonneg_g=True)
    got = [here for here, _ in dp._sweep(load_instance(doc))]
    monkeypatch.setattr(dp, "_merged", exact_merged)
    want = [here for here, _ in dp._sweep(load_instance(doc))]
    assert len(got) == 9 and got == want


# -- one chain per Markov key ------------------------------------------------------

def test_root_envelope_steps_each_interior_key_once():
    doc = generate_instance(seed=1, depth=4, branches=4, n_ineq=1, nonneg_g=True)
    want = oracle_node_envelopes(load_instance(doc))[()]
    tree = load_instance(doc)
    inner = [w for w in tree.nodes() if len(w) < tree.depth]
    keys = {(len(w), _key(tree, w)) for w in inner}
    fresh = load_instance(doc)
    calls = count_calls(fresh)
    assert root_envelope(fresh) == want
    # one Euler step (one drift call) and one set of rates per interior key:
    # 42 keys, 85 interior nodes
    assert calls["drift"] == calls["reward"] == len(keys) < len(inner)


def test_drift_reading_the_whole_path_keeps_one_chain_per_node():
    # the drift reads the first and the previous state and the path's length,
    # so two nodes with one (state, sup) may have different futures
    tree = build_tree(dt=1, depth=4, branching=[(F(1, 4), 1), (F(1, 4), 0), (HALF, -1)],
                      history=(F(1), F(0)),
                      drift=lambda t, xs: (xs[-2] - xs[0]) / len(xs),
                      terminal=lambda t, xs: xs[-1] - xs[-2],
                      inequalities=[(lambda t, xs: xs[-1] ** 2, 1)])
    want = oracle_node_envelopes(tree)
    by_key = {}
    for word, env in want.items():
        path = euler_state(tree, word)
        by_key.setdefault((len(word), path[-1], max(path)), set()).add((env.xs, env.vs))
    assert any(len(envs) > 1 for envs in by_key.values())  # keys would be wrong
    assert node_envelopes(tree) == want


HIGH_HISTORY_DOC = {
    "dt": "1/2", "depth": 4, "x0_history": ["2", "-1", "0"],  # its max exceeds x0
    "branching": [{"p": "1/4", "w": "1"}, {"p": "1/4", "w": "0"},
                  {"p": "1/2", "w": "-1"}],
    "drift": "x_sup/4", "f": "x_sup/3", "pi": "x_sup - x_current",
    "constraints": {"ineq": [{"g": "x_current**2 + x_sup/2", "y": "1"}]},
}


def test_sup_seeded_by_the_history_and_subtrees_match_the_oracle():
    tree = load_instance(HIGH_HISTORY_DOC)
    walk = tree._keys()
    assert sum(map(len, walk.states)) < len(list(tree.nodes()))
    # some edge leads to a key that another edge reached first
    edges = [i for level in walk.kids for ks in level for i in ks]
    assert len(set(edges)) < len(edges)
    want = oracle_node_envelopes(load_instance(HIGH_HISTORY_DOC))
    assert node_envelopes(tree) == want
    for word in [(0,), (2,), (1, 2), (2, 0, 2)]:
        sub = tree.subtree(word)
        assert sub._markov
        got = node_envelopes(sub)
        assert got == oracle_node_envelopes(tree.subtree(word))
        assert got == {rest: want[word + rest] for rest in sub.nodes()}


def _fold_doc(x0_history, *levels):
    """A loaded tree, one branching level per argument after the history,
    whose functions read the running sup."""
    return {"dt": "1", "depth": len(levels), "x0_history": x0_history,
            "branching": [[{"p": "1/2", "w": w} for w in level] for level in levels],
            "pi": "x_sup - x_current", "constraints": {"ineq": [{"g": "x_sup", "y": "1"}]}}


def test_a_state_reached_in_two_int_forms_folds_to_one_key():
    # 1/3 + 1/6 is 9/18 and 1/2 + 0 is 6/12 in the step's ints; the sup stays 1
    doc = _fold_doc(["1", "0"], ["1/3", "1/2"], ["1/6", "0"])
    walk = load_instance(doc)._keys()
    assert walk.states[2] == [HALF, F(1, 3), F(2, 3)]
    assert walk.kids[1] == [(0, 1), (2, 0)]
    assert walk == oracle_keyed_walk(load_instance(doc))


def test_a_state_equal_to_the_old_sup_folds_with_the_child_that_sets_it():
    # 1/2 + 1/2 = 1 sets the sup to 1; 1 + 0 = 1 equals its old sup 1
    doc = _fold_doc(["0"], ["1/2", "1"], ["1/2", "0"])
    tree = load_instance(doc)
    walk = tree._keys()
    assert walk.states[2] == [F(1), HALF, F(3, 2)]
    assert walk.kids[1] == [(0, 1), (2, 0)]
    assert walk == oracle_keyed_walk(load_instance(doc))
    assert node_envelopes(tree) == oracle_node_envelopes(load_instance(doc))


def test_the_keyed_walk_hashes_no_fraction(monkeypatch):
    tree = load_instance(HIGH_HISTORY_DOC)
    calls = []
    real = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    walk = tree._keys()
    monkeypatch.undo()
    assert calls == [] and len(walk.states) == tree.depth + 1
    assert walk == oracle_keyed_walk(load_instance(HIGH_HISTORY_DOC))


# the two dp-envelope benchmark trees and a tree whose sup starts above x0
ENVELOPE_DOCS = [generate_instance(seed=1, depth=8, branches=3, n_ineq=1, nonneg_g=True),
                 generate_instance(seed=1, depth=6, branches=4, n_ineq=1, nonneg_g=True),
                 HIGH_HISTORY_DOC]


@pytest.mark.parametrize("doc", ENVELOPE_DOCS, ids=["env-8x3", "env-6x4", "high-history"])
def test_the_keyed_walk_builds_no_fraction(monkeypatch, doc):
    tree = load_instance(doc)
    built = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    walk = tree._keys()
    monkeypatch.undo()
    assert built == []
    assert sum(map(len, walk.pays)) > tree.depth + 1  # some level has two keys or more
    # read afterwards, the states are the oracle's
    assert walk == oracle_keyed_walk(load_instance(doc))


def _recording_state_reads(monkeypatch) -> list:
    """Patch the Markov walk's state reader to record the size of each level
    it builds."""
    levels, real = [], lattice._key_states

    def recorded(ints):
        states = real(ints)
        levels.append(len(states))
        return states

    monkeypatch.setattr(lattice, "_key_states", recorded)
    return levels


def test_root_envelope_and_generate_instance_build_no_state(monkeypatch):
    levels = _recording_state_reads(monkeypatch)
    doc = generate_instance(seed=1, depth=8, branches=3, n_ineq=1, nonneg_g=True)
    tree = load_instance(doc)
    root_envelope(tree)
    dp_value(tree, tree.constraints.inequalities[0][1])
    assert levels == []
    # a state read builds the levels on the node's path, once each
    word = (0,) * tree.depth
    assert euler_state(tree, word) == oracle_prefix(tree, word)
    assert levels == [len(keys) for keys in tree._keys().kids] + [len(tree._keys().pays[-1])]
    euler_state(tree, word)
    list(tree._keys().states)
    assert len(levels) == tree.depth + 1


@pytest.mark.parametrize("membership_first", [False, True], ids=["euler-first", "membership-first"])
def test_states_read_on_first_use_equal_the_oracles_in_either_order(membership_first):
    doc = generate_instance(seed=2, depth=4, branches=3, n_ineq=1, n_eq=1)
    tree = load_instance(doc)
    measure = solve_weak(tree, BudgetVector.of(tree.constraints)).measure
    words = list(tree.nodes())[::-1]  # the deepest nodes first

    def by_euler():
        return [euler_state(tree, w) for w in words]

    def by_membership():
        law = CandidateLaw.from_measure(tree, measure)
        assert check_membership(tree, law).direct_pass
        return [point[-1] for point in law.points]

    if membership_first:
        points, paths = by_membership(), by_euler()
    else:
        paths, points = by_euler(), by_membership()
    want = oracle_keyed_walk(load_instance(doc)).states
    assert paths == [oracle_prefix(tree, w) for w in words]
    assert points == [oracle_prefix(tree, w)[-1] for w in tree.nodes()]
    assert tree._keys().states == want and want == tree._keys().states


def test_levels_read_in_any_order_equal_the_oracles():
    doc = generate_instance(seed=3, depth=5, branches=2, n_ineq=1)
    want = oracle_keyed_walk(load_instance(doc)).states
    states = load_instance(doc)._keys().states
    assert [states[k] for k in (4, 1, -1, 0, 2, 3)] == [want[k] for k in (4, 1, 5, 0, 2, 3)]
    assert states[1:4] == want[1:4] and states != want[:-1]
    assert states == want


# -- one backward induction per tree ----------------------------------------------

def test_root_envelope_is_computed_once_per_tree(monkeypatch):
    calls = []
    real = dp._sweep

    def counted(tree):
        calls.append(tree)
        return real(tree)

    monkeypatch.setattr(dp, "_sweep", counted)
    doc = generate_instance(seed=3, depth=3, branches=2, n_ineq=1, nonneg_g=True)
    tree = load_instance(doc)
    values = [dp_value(tree, y) for y in (0, HALF, 1, 3, POS_INF)]
    env = root_envelope(tree)
    assert len(calls) == 1
    assert values == [dp_value(tree, y) for y in (0, HALF, 1, 3, POS_INF)]
    assert env is root_envelope(tree) and len(calls) == 1

    fresh = load_instance(doc)
    assert root_envelope(fresh) == env
    assert calls == [tree, fresh]


# -- singular expressions ------------------------------------------------------

def test_division_by_zero_at_the_dummy_point_is_not_a_parse_error():
    inv_x, _ = parse_function("1/x_current")
    assert inv_x(F(0), (F(2),)) == HALF
    inv_t, _ = parse_function("1/t")
    assert inv_t(F(4), (F(0),)) == F(1, 4)
    with pytest.raises(ValueError):
        parse_function("t ** (1/2)")


def test_division_by_zero_at_a_node_names_expression_time_and_state():
    inv_x, _ = parse_function("1/(x_current - 1)")
    with pytest.raises(ExpressionUndefined,
                       match=r"'1/\(x_current - 1\)' .* t = 3/2, state 1$"):
        inv_x(F(3, 2), (F(0), F(1)))
    with pytest.raises(ExpressionUndefined, match=r"state \(1, 2\)$"):
        inv_x(F(0), ((F(1), F(2)),))
    inv_t, _ = parse_function("1/t")
    with pytest.raises(ExpressionUndefined, match=r"^'1/t' divides by zero at t = 0, state 5$"):
        inv_t(F(0), (F(5),))


SINGULAR_DOC = {
    "dt": "1", "depth": 2, "branching": [{"p": "1/2", "w": "1"},
                                         {"p": "1/2", "w": "-1"}],
    "x0_history": ["0"], "pi": "1/(x_current - 1)",
    "constraints": {"ineq": [{"g": "1", "y": "1"}]},
}


def test_singular_node_is_a_treestop_error_in_dp_and_solve():
    tree = load_instance(SINGULAR_DOC)  # singular only at the node "+"
    with pytest.raises(ExpressionUndefined, match="t = 1, state 1$"):
        dp_value(tree, 1)
    with pytest.raises(ExpressionUndefined, match="t = 1, state 1$"):
        solve_weak(load_instance(SINGULAR_DOC), BudgetVector(ys=(F(1),)))


@pytest.mark.parametrize("history, pi, where", [
    (["2", "1"], "1/(x_sup - 2)", "t = 0, state 1"),  # the sup of the history
    (["0"], "1/(x_sup - x_current - 1)", "t = 1, state -1"),  # a state 1 below its sup
])
def test_a_division_by_zero_only_the_running_sup_reaches_names_its_node(history, pi, where):
    doc = dict(SINGULAR_DOC, x0_history=history, pi=pi)
    message = re.escape(f"{pi!r} divides by zero at {where}") + "$"
    with pytest.raises(ExpressionUndefined, match=message):
        dp_value(load_instance(doc), 1)
    with pytest.raises(ExpressionUndefined, match=message):
        solve_weak(load_instance(doc))


@pytest.mark.parametrize("field", [
    dict(x0_history=[["0", "1"]]),
    dict(branching=[{"p": "1/2", "w": ["1", "0"]}, {"p": "1/2", "w": ["-1", "1"]}]),
], ids=["vector-x0-history", "vector-increment"])
def test_a_loaded_vector_state_or_increment_is_an_input_error(field):
    # the expressions give a scalar drift and diffusion, which a two-coordinate
    # state or increment cannot take: the loader names the field
    (name, value), = field.items()
    what = "an x0_history entry" if name == "x0_history" else "branch field 'w'"
    with pytest.raises(ValueError, match=re.escape(
            f"{what} has 2 coordinates, but instance expressions read a scalar state")):
        load_instance(dict(SINGULAR_DOC, **field))
    # no step is taken at depth 0, so the same fields load and solve there
    assert solve_weak(load_instance(dict(SINGULAR_DOC, depth=0, **field))).optimal


def test_a_loaded_one_coordinate_state_and_increment_are_scalars():
    scalar = dict(SINGULAR_DOC, pi="x_current**2")
    tree = load_instance(dict(scalar, x0_history=[["0"]], branching=[
        {"p": "1/2", "w": ["1"]}, {"p": "1/2", "w": ["-1"]}]))
    assert tree._markov
    assert solve_weak(tree).value == solve_weak(load_instance(scalar)).value


# 1/(x + 1) is singular only at the horizon state -1: the states inside are
# 0, 1 and -2, those at the horizon 2, -1, -1 and -4
HORIZON_SINGULAR_DOC = {
    "dt": "1", "depth": 2, "branching": [{"p": "1/2", "w": "1"},
                                         {"p": "1/2", "w": "-2"}],
    "x0_history": ["0"], "f": "1/(x_current + 1)", "pi": "x_current",
    "constraints": {"ineq": [{"g": "1/(x_current + 1)", "y": "1"}]},
}


def test_integrands_are_not_evaluated_at_the_horizon():
    tree = load_instance(HORIZON_SINGULAR_DOC)
    assert [euler_state(tree, w)[-1] for w in tree.leaves()] == [2, -1, -1, -4]
    res = solve_weak(load_instance(HORIZON_SINGULAR_DOC))
    assert res.optimal
    assert dp_value(load_instance(HORIZON_SINGULAR_DOC), 1) == res.value


@pytest.mark.parametrize("dynamics", [VECTOR_DYNAMICS, MIXED_DYNAMICS],
                         ids=["vector-l2-d2", "branching-per-level"])
def test_subtree_history_is_the_state_path_of_its_root(dynamics):
    tree = build_tree(**dynamics)
    for word in tree.nodes():
        path = euler_state(tree, word)
        sub = tree.subtree(word)
        assert sub.history == tuple(x if isinstance(x, tuple) else (x,)
                                    for x in path), word
        for rest in sub.nodes():
            assert euler_state(sub, rest) == euler_state(tree, word + rest)
