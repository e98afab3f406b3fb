from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from treestop import (BudgetVector, ConstraintSpec, Ext, NEG_INF,
                      POS_INF, InvalidBranching, InvalidHorizon, NodeNotInTree,
                      ShapeTooLarge, StoppingMeasure, WordTooLong, build_tree,
                      cumulative_functionals, dp_value, euler_state,
                      monte_carlo_value, rule_from_map, rule_to_measure,
                      solve_weak)
from treestop.lattice import MAX_NODES, TreeInstance

from conftest import count_calls, make_rw
from oracles import (children, functionals_by_words, path_prob, stop_payoff,
                     straight_line_euler, terminal_at)

HALF = Fraction(1, 2)
BINOM = [(HALF, 1), (HALF, -1)]


def test_binomial_depth2_leaves():
    tree = make_rw()
    leaves = list(tree.leaves())
    assert len(leaves) == 4
    states = sorted(tree.state(w) for w in leaves)
    assert states == [-2, 0, 0, 2]
    assert sum(1 for w in leaves if tree.state(w) == 0) == 2


def test_zero_depth_tree_is_a_single_root():
    tree = build_tree(dt=1, depth=0, branching=[], x0=Fraction(5, 4))
    assert list(tree.nodes()) == [()]
    assert tree.state(()) == Fraction(5, 4)


def test_bad_probabilities_rejected():
    with pytest.raises(InvalidBranching):
        build_tree(dt=1, depth=2, branching=[(Fraction(3, 5), 1), (HALF, -1)], x0=0)
    with pytest.raises(InvalidBranching):
        build_tree(dt=1, depth=1, branching=[(Fraction(0), 1), (Fraction(1), -1)], x0=0)
    with pytest.raises(InvalidHorizon):
        build_tree(dt=1, depth=-1, branching=BINOM, x0=0)
    # a short probability is repeated exactly, a 4000-digit one by its bit count
    with pytest.raises(InvalidBranching, match=r"^branch probability -1/2 is not positive$"):
        build_tree(dt=1, depth=1, branching=[(-HALF, 1), (Fraction(3, 2), -1)], x0=0)
    with pytest.raises(InvalidBranching, match=r"^branch probability of 13288 bits is not "
                                               r"positive$"):
        build_tree(dt=1, depth=1, branching=[(1 - 10 ** 4000, 1), (10 ** 4000, -1)], x0=0)


def test_euler_pure_increment():
    tree = make_rw()
    assert euler_state(tree, (0,)) == (0, 1)


def test_euler_constant_coefficients():
    mu, sig = Fraction(1, 3), Fraction(2)
    tree = build_tree(dt=1, depth=1, branching=BINOM, x0=Fraction(1, 2),
                      drift=mu, diffusion=sig)
    assert euler_state(tree, (1,))[-1] == Fraction(1, 2) + mu - sig


def test_euler_path_dependent_sup_drift():
    tree = build_tree(dt=1, depth=2, branching=BINOM, x0=0,
                      drift=lambda t, xs: max(xs), diffusion=1)
    prefix = euler_state(tree, (0, 0))
    assert prefix == (0, 1, 3)
    # independent straight-line recursion over the same increments
    expected = straight_line_euler(1, [1, 1], lambda t, xs: max(xs),
                                   lambda t, xs: 1, 0)
    assert list(prefix) == expected


def test_euler_word_too_long_and_bad_branch():
    tree = make_rw()
    with pytest.raises(WordTooLong):
        euler_state(tree, (0, 0, 0))
    with pytest.raises(WordTooLong):
        tree.state((0, 0, 0))
    with pytest.raises(WordTooLong):
        cumulative_functionals(tree, (0, 0, 0))
    with pytest.raises(NodeNotInTree):
        cumulative_functionals(tree, (0, 5))


def test_a_branch_that_is_not_an_int_is_not_a_node():
    # 0.5 is in range at step 0, and "0" does not compare with an int: each
    # failed inside the key walk or the range check with a TypeError; 0.0
    # and 1.0 equal branch indices, and the row readers took them for nodes
    # like dict keys while the word check refused them
    tree = make_rw()
    rule = rule_from_map(tree, {(): HALF, (0,): HALF, (1,): HALF})
    measure = rule_to_measure(tree, rule)
    for word in ((0.5,), ("0",), (0, 0.5), (0.0,), (1.0, 0)):
        for read in (euler_state, cumulative_functionals, lambda tree, w: tree.state(w),
                     lambda tree, w: tree.subtree(w)):
            with pytest.raises(NodeNotInTree, match=r"branch (0\.5|'0'|0\.0|1\.0) out of range"):
                read(tree, word)
        assert measure.stop(word) == measure.cont(word) == 0
        for read in (rule.prob, lambda w: path_prob(tree, w)):
            with pytest.raises(KeyError):
                read(word)
    # a float key in a rule or mass map names no node either
    with pytest.raises(NodeNotInTree):
        rule_from_map(tree, {(): HALF, (0.0,): HALF, (1,): HALF})
    with pytest.raises(NodeNotInTree):
        StoppingMeasure.from_masses(tree, {(0.0,): HALF, (1,): HALF}, {(): 1})
    # a bool is an int
    assert tree.check_word((True,)) == tree.check_word((1,))
    assert euler_state(tree, (True,)) == euler_state(tree, (1,)) == (0, -1)
    assert measure.stop((True,)) == measure.stop((1,)) and rule.prob((True,)) == HALF
    assert path_prob(tree, (True, False)) == path_prob(tree, (1, 0)) == HALF * HALF
    tree.check_word((1, 0))


def _check_word_step_by_step(tree, word):
    """The word check as one Python loop over the word, one len per step."""
    if len(word) > tree.depth:
        raise WordTooLong(f"word {word} is longer than depth {tree.depth}")
    for k, (j, level) in enumerate(zip(word, tree.branching)):
        if not 0 <= j < len(level):
            raise NodeNotInTree(f"word {word}: branch {j} out of range at step {k}")


def _raised(check, *args):
    try:
        check(*args)
    except (WordTooLong, NodeNotInTree) as exc:
        return type(exc), str(exc)
    return None


PER_LEVEL = build_tree(dt=1, depth=3, x0=0, branching=[
    [(HALF, 1), (HALF, -1)], [(Fraction(1, 3), 1), (Fraction(1, 3), 0), (Fraction(1, 3), -1)],
    [(HALF, 1), (HALF, -1)]])


@given(word=st.lists(st.integers(-2, 3), max_size=4).map(tuple))
@example(word=(1, 2, 1))
@example(word=(1, 2, 2))  # the last level has two branches
@example(word=(-1, 5))
@example(word=(0, 1, 0, 0))
def test_check_word_raises_the_step_by_step_messages(word):
    assert _raised(PER_LEVEL.check_word, word) == _raised(_check_word_step_by_step,
                                                          PER_LEVEL, word)


def test_euler_state_deterministic_bit_for_bit():
    tree = build_tree(dt=1, depth=3, branching=BINOM, x0=0,
                      drift=lambda t, xs: max(xs) / 3, diffusion=Fraction(3, 2))
    a = euler_state(tree, (0, 1, 0))
    b = euler_state(tree, (0, 1, 0))
    assert a == b
    assert all(isinstance(x, Fraction) for x in a)


def test_cumulative_functionals_at_root_vanish():
    tree = make_rw(ineq=[(1, POS_INF)], eq=[(lambda t, xs: xs[-1], 0)])
    F, Gs, Hs = cumulative_functionals(tree, ())
    assert F == Ext(0) and Gs == (Ext(0),) and Hs == (Ext(0),)


def test_cumulative_constant_integrand():
    tree = make_rw(dt=Fraction(1, 4), ineq=[(1, POS_INF)])
    _, (G,), _ = cumulative_functionals(tree, (0, 1))
    assert G == Ext(Fraction(1, 2))  # 2 * dt


def test_cumulative_moment_integrand_left_endpoint_sum():
    # integrand a*q*t^(q-1) with a=1, q=2 accrues the left-endpoint sum of
    # the increment of t^2: sum_{k<2} 2*t_k*dt = 0 + 2, not the continuum 4
    tree = build_tree(dt=1, depth=2, branching=BINOM, x0=0,
                      inequalities=[(lambda t, xs: 2 * t, POS_INF)])
    _, (G,), _ = cumulative_functionals(tree, (0, 0))
    assert G == Ext(2)


def test_extended_reward_follows_sum_convention():
    # node data are finite: the +inf reward is rejected where it is
    # evaluated, before Ext's sum convention could collapse +inf + -inf
    steps = {0: Ext(0, sign=1), 1: Ext(0, sign=-1)}
    tree = build_tree(dt=1, depth=2, branching=BINOM, x0=0,
                      reward=lambda t, xs: steps[int(t)])
    with pytest.raises(ValueError, match="reward at t = 0 is inf"):
        cumulative_functionals(tree, (0, 0))


BAD_NODE_VALUES = [POS_INF, NEG_INF, float("inf"), float("nan")]
BAD_NODE_SOURCES = {"reward": "reward", "g": "g_0", "h": "h_0",
                    "terminal": "terminal payoff"}


def _tree_with_bad_value(source, bad):
    """Depth 2, one inequality (one equality too when h is the source), with
    the bad value returned at t = 1 only."""
    fns = {"reward": 0, "terminal": 0, "g": 1, "h": 1}
    fns[source] = lambda t, xs: bad if t == 1 else Fraction(0)
    return build_tree(dt=1, depth=2, branching=BINOM, x0=0,
                      reward=fns["reward"], terminal=fns["terminal"],
                      inequalities=[(fns["g"], 2)],
                      equalities=[(fns["h"], 1)] if source == "h" else [])


@pytest.mark.parametrize("bad", BAD_NODE_VALUES, ids=["ext+inf", "ext-inf", "inf", "nan"])
@pytest.mark.parametrize("source", sorted(BAD_NODE_SOURCES))
def test_non_finite_node_data_is_rejected_at_every_entry_point(source, bad):
    match = f"^{BAD_NODE_SOURCES[source]} at t = 1 is "
    rule_map = {(): HALF, (0,): HALF, (1,): HALF}
    entries = [
        # a terminal payoff is read at the node, a rate at its children
        lambda tree: stop_payoff(tree, (0,) if source == "terminal" else (0, 0)),
        lambda tree: solve_weak(tree),
        lambda tree: rule_to_measure(tree, rule_from_map(tree, rule_map)).expectations(tree),
        lambda tree: monte_carlo_value(tree, rule_from_map(tree, rule_map), paths=1),
    ]
    if source != "terminal":
        entries.append(lambda tree: cumulative_functionals(tree, (0, 0)))
    # a state is read off the keyed walk, which evaluates every node's data
    entries.append(lambda tree: euler_state(tree, (0,)))
    if source != "h":
        entries.append(lambda tree: dp_value(tree, 1))
    for entry in entries:
        with pytest.raises(ValueError, match=match):
            entry(_tree_with_bad_value(source, bad))


def test_cumulative_functionals_are_fractions():
    tree = make_rw(ineq=[(lambda t, xs: xs[-1], POS_INF)], eq=[(0.5, 0)])
    for word in tree.nodes():
        F, Gs, Hs = cumulative_functionals(tree, word)
        assert all(type(v) is Fraction for v in (F, *Gs, *Hs))
        assert type(stop_payoff(tree, word)) is Fraction


def test_rates_are_evaluated_once_per_interior_node():
    tree = make_rw(depth=3, ineq=[(1, POS_INF)], eq=[(1, 0)])
    calls = count_calls(tree)
    for word in tree.nodes():
        cumulative_functionals(tree, word)
    assert calls["reward"] == 7  # the interior nodes; their 14 children share entries
    solve_weak(tree)  # reads the cached accruals
    assert calls["reward"] == calls["g"] == calls["h"] == 7


def test_node_count_is_capped_before_any_node_is_built():
    with pytest.raises(ShapeTooLarge, match=f"more than {MAX_NODES} nodes"):
        build_tree(dt=1, depth=40, branching=BINOM, x0=0)
    # the largest generator shape, 8 levels of 4 branches, is admitted
    assert build_tree(dt=1, depth=8, branching=[(Fraction(1, 4), w) for w in range(4)],
                      x0=0).depth == 8


def test_leaf_path_probabilities_sum_to_one_exactly():
    tree = build_tree(dt=1, depth=3,
                      branching=[(Fraction(1, 6), 2), (Fraction(1, 3), 0),
                                 (Fraction(1, 2), -1)],
                      x0=0)
    assert sum(path_prob(tree, w) for w in tree.leaves()) == 1


def test_per_depth_branching():
    tree = build_tree(dt=1, depth=2,
                      branching=[[(HALF, 1), (HALF, -1)],
                                 [(Fraction(1, 3), 3), (Fraction(2, 3), 0)]],
                      x0=0)
    assert tree.n_branches(0) == 2 and tree.n_branches(1) == 2
    assert tree.state((0, 0)) == 4
    assert path_prob(tree, (0, 0)) == Fraction(1, 6)


def test_vacuous_constraints_match_removal_exactly():
    base = make_rw()
    padded = make_rw(ineq=[(1, POS_INF)], eq=[(0, 0)])
    v0 = solve_weak(base)
    v1 = solve_weak(padded)
    assert v0.value == v1.value
    assert all(v0.measure.stop(w) == v1.measure.stop(w) for w in base.nodes())


def test_subtree_advances_time_and_history():
    tree = build_tree(dt=1, depth=3, branching=BINOM, x0=0, t0=2,
                      drift=lambda t, xs: max(xs), diffusion=1)
    sub = tree.subtree((0,))
    assert sub.t0 == 3 and sub.depth == 2
    assert sub.history[-1] == (tree.state((0,)),)
    # same functional values seen from either root
    assert sub.state((0,)) == tree.state((0, 0))


def test_grid_times_are_t0_plus_k_dt_in_every_subtree():
    tree = build_tree(dt=Fraction(1, 3), depth=3, branching=BINOM, x0=0,
                      t0=Fraction(-1, 2))
    assert [tree.time(k) for k in range(4)] == \
        [Fraction(-1, 2) + k * Fraction(1, 3) for k in range(4)]
    for word in [(), (1,), (0, 1), (1, 0, 1)]:
        sub = tree.subtree(word)
        assert [sub.time(k) for k in range(sub.depth + 1)] == \
            [tree.time(len(word) + k) for k in range(sub.depth + 1)]


def test_subtree_keeps_the_increment_dimension():
    # l = d = 2: a horizon subtree has no level left to read d from
    tree = build_tree(dt=1, depth=2, x0=(0, 1),
                      branching=[(Fraction(1, 4), (1, 0)), (Fraction(3, 4), (-1, 2))],
                      drift=(0, 0), diffusion=((1, 0), (0, 1)))
    assert tree.d == 2
    for word in [(0,), (0, 1)]:
        sub = tree.subtree(word)
        assert sub.d == tree.d


def test_node_table_is_built_by_the_first_solve_only():
    tree = make_rw(ineq=[(1, 1)])
    dp_value(tree, 1)
    assert tree._table is None  # the envelope DP never builds it
    solve_weak(tree)
    table = tree._table
    assert tuple(table.shape.words()) == tuple(tree.nodes())
    assert table.shape.first == (1, 3, 5, 7)  # children of (), (0,), (1,)
    solve_weak(tree)
    assert tree._table is table
    sub = tree.subtree((0,))
    assert sub._table is None
    solve_weak(sub)
    assert sub._table is not table and tuple(sub._table.shape.words()) == tuple(sub.nodes())


def test_node_table_columns_are_path_probability_times_payoff_and_accruals():
    tree = build_tree(dt=Fraction(1, 2), depth=2, x0=0,
                      branching=[(Fraction(1, 3), 1), (Fraction(2, 3), Fraction(-1, 2))],
                      reward=lambda t, xs: xs[-1] / 3, terminal=lambda t, xs: xs[-1] ** 2,
                      inequalities=[(lambda t, xs: 1 + t, 2)],
                      equalities=[(lambda t, xs: xs[-1], 0)])
    table = tree._node_table()
    words, first = tuple(table.shape.words()), table.shape.first
    for i, w in enumerate(words):
        F, Gs, Hs = functionals_by_words(tree, w)
        want = [F + terminal_at(tree, w), *Gs, *Hs]
        got = [Fraction(col[i], den) for col, den in zip(table.cols, table.dens)]
        assert got == [path_prob(tree, w) * x for x in want]
        if len(w) < tree.depth:
            assert words[first[i]:first[i + 1]] == children(tree, w)
    assert len(first) == 1 + 3  # one more entry than interior nodes


def test_constraint_spec_rejects_minus_inf_bound():
    with pytest.raises(ValueError):
        ConstraintSpec(inequalities=((1, Ext(0, sign=-1)),))
    with pytest.raises(ValueError):
        BudgetVector(ys=(Ext(0, sign=-1),))
