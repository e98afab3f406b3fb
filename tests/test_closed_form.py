"""Tree values against closed-form references, at depths under ``MAX_NODES``.

Every case is the +-h walk from 0 with p = 1/2, dt = h^2, drift 0,
diffusion 1, reward 0 and one inequality with g = 1, so the budget y
bounds E[tau].

- Wald's identity: S^2 - t is a martingale on the walk, so E[S_tau^2] =
  E[tau] for every stopping time on the tree, and the best value of
  pi = ``x_current**2`` is min(y, T) with T = depth * dt; E[S_tau] = 0,
  so pi = ``x_current`` is worth 0.
- The drawdown bound: with pi = ``x_sup``, the drawdown time of level a
  in h N has E[S_tau] = a and E[tau] = a^2 + a h, and V_h(y), the linear
  interpolation of those points, bounds the value.  V_h(1) is 3/4 at
  h = 1/2 and 5/6 at h = 1/3; a value above it would mean the derivation
  is wrong.
"""

from fractions import Fraction

import pytest

from treestop import Ext, dp_value, load_instance, solve_weak

F = Fraction


def walk(h, depth, pi, y):
    return load_instance({
        "dt": str(h * h), "depth": depth,
        "branching": [{"p": "1/2", "w": str(h)}, {"p": "1/2", "w": str(-h)}],
        "pi": pi, "constraints": {"ineq": [{"g": "1", "y": str(y)}]}})


def values(tree, y):
    """The LP's value and the envelope DP's, which must agree."""
    lp, dp = solve_weak(tree).value, dp_value(tree, y)
    assert lp == dp
    return lp


# h = 1/2 at depth 12 costs solve_weak about 5.5 s; these take under 0.6 s
WALKS = [(F(1, 2), 8), (F(1, 3), 10)]


@pytest.mark.parametrize("y", [F(1, 3), F(1), F(7, 2)])
@pytest.mark.parametrize("h, depth", WALKS)
def test_wald_identity(h, depth, y):
    assert values(walk(h, depth, "x_current**2", y), y) == Ext(min(y, depth * h * h))
    assert values(walk(h, depth, "x_current", y), y) == Ext(0)


@pytest.mark.parametrize("h, bound, value", [(F(1, 2), F(3, 4), F(3019, 4032)),
                                             (F(1, 3), F(5, 6), F(1067, 1536))])
def test_drawdown_value_is_below_the_walks_bound(h, bound, value):
    got = values(walk(h, 10, "x_sup", 1), 1)
    assert got <= Ext(bound)
    assert got == Ext(value)
