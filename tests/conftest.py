import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from treestop import (POS_INF, build_tree, candidate_with_branch_bias, cumulative_functionals,
                      candidate_with_pre_start_mass, candidate_with_state_shift,
                      load_instance, rule_from_map, rule_to_measure, simplex,
                      solve_weak)
from treestop.generate import generate_instance
from treestop.lattice import ConstraintSpec, KeyFunction

from oracles import snell_value


def make_rw(depth=2, sigma=1, ineq=None, eq=None, dt=1, x0=0):
    """Symmetric +-1 random walk with quadratic terminal payoff."""
    return build_tree(
        dt=dt, depth=depth,
        branching=[(Fraction(1, 2), 1), (Fraction(1, 2), -1)],
        x0=x0, diffusion=sigma,
        terminal=lambda t, xs: xs[-1] ** 2,
        inequalities=ineq if ineq is not None else [],
        equalities=eq if eq is not None else [],
    )


def count_calls(tree) -> Counter:
    """Wrap the tree's own functions so that the Counter returned counts
    their calls by name: "terminal", "reward", "drift", "diffusion", "g" and
    "h".  A ``KeyFunction`` stays one, wrapping its int kernel, so a loaded
    tree is still walked by key, and a call in either of its forms (the
    kernel, or the Fraction adapter over it) counts once."""
    calls = Counter()

    def counted(name, fn):
        if isinstance(fn, KeyFunction):
            return KeyFunction(counted(name, fn.kernel))

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    tree.terminal = counted("terminal", tree.terminal)
    tree.reward = counted("reward", tree.reward)
    tree._drift, tree._diff = counted("drift", tree._drift), counted("diffusion", tree._diff)
    tree.constraints = ConstraintSpec(
        inequalities=[(counted("g", g), y) for g, y in tree.constraints.inequalities],
        equalities=[(counted("h", h), z) for h, z in tree.constraints.equalities])
    return calls


POOL_SHAPES = [
    # rotate depth, branches and the constraint mix across the pool
    {"n_ineq": 1, "n_eq": 0},
    {"n_ineq": 0, "n_eq": 1},
    {"n_ineq": 1, "n_eq": 1},
    {"n_ineq": 2, "n_eq": 0},
    {"n_ineq": 1, "n_eq": 0, "vacuous_rate": 1.0},
]


def acceptance_pool():
    """The 50 generated instances the acceptance criteria run on."""
    trees = []
    for i in range(50):
        shape = dict(POOL_SHAPES[i % len(POOL_SHAPES)])
        doc = generate_instance(seed=9000 + i, depth=2 + (i % 2),
                                branches=2 + ((i // 2) % 2), **shape)
        trees.append(load_instance(doc))
    return trees


def acceptance_corruptions(pool):
    """(index, kind, eps, tree, candidate) for 100 single corruptions.

    Each candidate stops everywhere below the root of a pool tree and then
    gets one branch bias, state shift or pre-start mass leak.
    """
    rng = random.Random(20240817)
    for i in range(100):
        tree = pool[i % len(pool)]
        interior = [w for w in tree.nodes() if len(w) < tree.depth]
        full_stop = rule_from_map(tree, {w: 0 for w in interior})
        kind = ("branch", "state", "pre_t0")[i % 3]
        eps = Fraction(rng.randint(1, 4), 64)
        if kind == "branch":
            node = rng.choice(interior)
            cand = candidate_with_branch_bias(tree, full_stop, (node, eps))
        elif kind == "state":
            node = rng.choice([w for w in tree.nodes() if len(w) >= 1])
            cand = candidate_with_state_shift(
                tree, rule_to_measure(tree, full_stop), node, eps)
        else:
            cand = candidate_with_pre_start_mass(
                tree, rule_to_measure(tree, full_stop), eps)
        yield i, kind, eps, tree, cand


def solve_weak_recording_lps(monkeypatch, tree, budgets=None):
    """solve_weak's result and, per ``simplex.Tableau.solve`` it ran, the LP
    (c, rows, senses, rhs) the tableau held then, with the result it
    returned; an optimal result carries the tableau's x and objective.

    The master keeps one tableau and solves it once per pricing round, so
    each of its entries holds every column priced in so far.
    """
    seen = []
    tableau = simplex.Tableau
    init, enter, solve = tableau.__init__, tableau.enter, tableau.solve

    def record_init(self, c, rows, senses, rhs):
        init(self, c, rows, senses, rhs)
        self.held = ([*c], [[*row] for row in rows], senses, rhs)

    def record_enter(self, cost, column):
        enter(self, cost, column)
        c, rows, _, _ = self.held
        c.append(cost)
        for row, v in zip(rows, column):
            row.append(v)

    def record_solve(self):
        res = solve(self)
        c, rows, senses, rhs = self.held
        got = dataclasses.replace(res)
        if res.status == simplex.OPTIMAL:
            got.x, got.objective = self.x(), self.objective()
        seen.append((([*c], [[*row] for row in rows], [*senses], [*rhs]), got))
        return res

    with monkeypatch.context() as patch:
        patch.setattr(tableau, "__init__", record_init)
        patch.setattr(tableau, "enter", record_enter)
        patch.setattr(tableau, "solve", record_solve)
        res = solve_weak(tree, budgets)
    return res, seen


def assert_agrees_with_cold(lp, got, want):
    """Check a kept tableau's solve ``got`` of ``lp`` against a cold solve
    ``want`` of the same LP.

    A warm basis may be another optimal vertex, so the statuses and
    objectives must be equal, x must be primal feasible, and the duals
    dual feasible at that objective.  An infeasible solve's certificate y
    must be a Farkas witness: y . rhs > 0 and y . col <= 0 for every column
    of the standard form, slacks included.
    """
    c, rows, senses, rhs = lp
    assert got.status == want.status, (got, want)
    cols = [[row[j] for row in rows] for j in range(len(c))]
    if got.status == simplex.OPTIMAL:
        x, y = got.x, got.duals
        assert got.objective == want.objective == sum(cj * xj for cj, xj in zip(c, x))
        assert all(xj >= 0 for xj in x)
        for row, sense, b in zip(rows, senses, rhs):
            lhs = sum(a * xj for a, xj in zip(row, x))
            assert lhs <= b if sense == "<=" else lhs >= b if sense == ">=" else lhs == b
        assert all(yi >= 0 if sense == "<=" else yi <= 0 if sense == ">=" else True
                   for yi, sense in zip(y, senses))
        assert all(sum(yi * a for yi, a in zip(y, col)) >= cj for col, cj in zip(cols, c))
        assert sum(yi * b for yi, b in zip(y, rhs)) == got.objective
    elif got.status == simplex.INFEASIBLE:
        y = got.certificate
        assert sum(yi * b for yi, b in zip(y, rhs)) > 0
        assert all(sum(yi * a for yi, a in zip(y, col)) <= 0 for col in cols)
        assert all(yi <= 0 if sense == "<=" else yi >= 0 if sense == ">=" else True
                   for yi, sense in zip(y, senses))


def assert_separates(tree, budgets, res):
    """Check that an infeasible result's certificate proves emptiness.

    The certificate holds multipliers (lam, kap, nu) for the inequality
    rows, the equality rows and the convexity row, with lam <= 0 (0 on a
    vacuous bound) and lam.y + kap.z + nu > 0.  If no pure stopping time
    has lam.E[G] + kap.E[H] + nu > 0, neither has any law, since every law
    mixes pure stopping times.  A law within the budgets would have
    lam.E[G] + kap.E[H] + nu >= lam.y + kap.z + nu > 0.  So no law is
    within them.  The best pure stopping time comes from an oracle Snell
    pass.
    """
    assert res.status == "infeasible" and res.reason == "empty constraint set"
    n = len(budgets.ys)
    y = res.certificate
    assert len(y) == n + len(budgets.zs) + 1
    lam, kap, nu = y[:n], y[n:-1], y[-1]
    assert all(l <= 0 for l in lam)
    assert all(l == 0 for l, b in zip(lam, budgets.ys) if b.is_pos_inf)
    assert sum(l * b.fraction() for l, b in zip(lam, budgets.ys) if l) \
        + sum(k * z.fraction() for k, z in zip(kap, budgets.zs)) + nu > 0

    def accrual(word):
        _, Gs, Hs = cumulative_functionals(tree, word)
        return sum(l * G for l, G in zip(lam, Gs)) + sum(k * H for k, H in zip(kap, Hs))

    assert snell_value(tree, accrual) + nu <= 0


@pytest.fixture
def rw2():
    """Depth-2 walk with a vacuous time budget (E[tau] <= inf)."""
    return make_rw(ineq=[(1, POS_INF)])


@pytest.fixture
def rw2_plain():
    return make_rw()


@pytest.fixture
def half_rule(rw2):
    """q = (0, 1/2, 1): continue at the root, coin-flip at depth 1."""
    return rule_from_map(rw2, {(): 0, (0,): Fraction(1, 2), (1,): Fraction(1, 2)})
