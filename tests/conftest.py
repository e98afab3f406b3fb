from fractions import Fraction

import pytest

from treestop import POS_INF, build_tree, rule_from_map, simplex, solve_weak


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


def solve_weak_recording_lps(monkeypatch, tree, budgets=None):
    """solve_weak's result and the (args, kwargs) of each LP it solved."""
    seen = []
    real = simplex.solve_lp

    def record(*args, **kwargs):
        seen.append((args, kwargs))
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "solve_lp", record)
        res = solve_weak(tree, budgets)
    return res, seen


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
