"""Seeded random instance generation.

Instances are drawn from small rational families so that every downstream
computation stays exact: branch probabilities are normalized small
integers, increments come from a fixed rational pool, and functional
fields are expression strings over (t, x_current, x_sup).  Inequality
bounds and equality targets are set to the accruals of a random reference
rule, which makes every generated instance feasible by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import ShapeTooLarge
from .io import fmt_rational, load_instance
from .xreal import echo, shown

DEPTH_CAP = 8
BRANCH_CAP = 4
CONSTRAINT_CAP = 8  # of inequalities, and of equalities

_INCREMENTS = [Fraction(n, 2) for n in (-4, -3, -2, -1, 1, 2, 3, 4)]
_DRIFTS = ["0", "0", "1/2", "-1/2", "x_current/2", "x_sup/2"]
_DIFFUSIONS = ["1", "1", "1/2", "3/2"]
_REWARDS = ["0", "0", "1/2", "-1/3", "x_current/2", "t/2"]
_TERMINALS = ["x_current**2", "x_current", "-x_current", "x_current + 1/2", "x_sup"]
_G_NONNEG = ["1", "1/2", "t + 1/2", "x_current**2"]
_G_ANY = _G_NONNEG + ["x_current"]
_H_ANY = ["1", "x_current", "t", "1/2"]


def generate_instance(seed: int, depth: int = 2, branches: int = 2,
                      n_ineq: int = 1, n_eq: int = 0,
                      nonneg_g: bool = False, vacuous_rate: float = 0.0) -> dict:
    """A random instance description, deterministic in the seed."""
    if depth > DEPTH_CAP:
        raise ShapeTooLarge(f"depth {shown(depth)} exceeds the cap {DEPTH_CAP}")
    if branches > BRANCH_CAP:
        raise ShapeTooLarge(f"{shown(branches)} branches exceed the cap {BRANCH_CAP}")
    if depth < 0 or branches < 2:
        raise ValueError("need depth >= 0 and at least 2 branches")
    if not 0 <= vacuous_rate <= 1:  # NaN included
        raise ValueError(f"vacuous_rate must be in [0, 1], got {echo.repr(vacuous_rate)}")
    if not (0 <= n_ineq <= CONSTRAINT_CAP and 0 <= n_eq <= CONSTRAINT_CAP):
        raise ValueError(f"need 0 to {CONSTRAINT_CAP} inequalities and 0 to {CONSTRAINT_CAP} equalities, "
                         f"got {shown(n_ineq)} and {shown(n_eq)}")
    rng = random.Random(seed)

    weights = [rng.randint(1, 4) for _ in range(branches)]
    total = sum(weights)
    probs = [Fraction(w, total) for w in weights]
    incs = rng.sample(_INCREMENTS, branches)

    g_pool = _G_NONNEG if nonneg_g else _G_ANY
    doc = {
        "t0": "0",
        "dt": "1",
        "depth": depth,
        "branching": [{"p": fmt_rational(p), "w": fmt_rational(w)}
                      for p, w in zip(probs, incs)],
        "x0_history": [fmt_rational(Fraction(rng.randint(-2, 2)))],
        "drift": rng.choice(_DRIFTS),
        "diffusion": rng.choice(_DIFFUSIONS),
        "f": rng.choice(_REWARDS),
        "pi": rng.choice(_TERMINALS),
        "constraints": {
            "ineq": [{"g": rng.choice(g_pool), "y": "0"} for _ in range(n_ineq)],
            "eq": [{"h": rng.choice(_H_ANY), "z": "0"} for _ in range(n_eq)],
        },
        "w_history": [],
    }

    # bound the constraints by the accruals of a random reference rule, so
    # the instance is feasible by construction, in the loaded canonical form
    tree = load_instance(doc)
    accrued = _reference_accruals(tree, rng)
    for i, item in enumerate(tree.source["constraints"]["ineq"]):
        item["y"] = "inf" if rng.random() < vacuous_rate else fmt_rational(accrued[i])
    for i, item in enumerate(tree.source["constraints"]["eq"]):
        item["z"] = fmt_rational(accrued[n_ineq + i])
    return tree.source


def _reference_accruals(tree, rng: random.Random) -> list:
    """Expected accruals (G_i, then H_j) of the reference rule that stops
    each interior node with probability q = r/4, r = rng.randint(0, 4)
    drawn in BFS order.

    A node's accruals are its ancestors' accrual steps, so the expectation
    is the sum over interior nodes of continue mass u times the step of the
    node's key in the tree's keyed walk (``TreeInstance._keys``).  u is an
    int per node over one denominator per depth, and the steps are ints
    over one per column; the sum takes one Fraction per column per depth.
    """
    walk, (units, branch) = tree._keys(), tree._branch_ints()
    cols = range(1, len(walk.ones))
    totals = [Fraction(0)] * len(cols)
    nodes, den = [(0, 1)], 1  # (key, arriving mass over den) in BFS order
    for kids, steps, unit, probs in zip(walk.kids, walk.steps, units, branch):
        cont, below = [0] * len(steps), []
        for key, arrive in nodes:
            u = arrive * (4 - rng.randint(0, 4))  # over den * 4
            cont[key] += u
            below += [(kid, u * p) for kid, p in zip(kids[key], probs)]
        den *= 4
        totals = [total + Fraction(sum(u * step[c] for u, step in zip(cont, steps)),
                                   den * walk.ones[c])
                  for total, c in zip(totals, cols)]
        nodes, den = below, den * unit
    return totals
