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
from .rules import rule_from_map, rule_to_measure
from .xreal import as_fraction

DEPTH_CAP = 8
BRANCH_CAP = 4

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
        raise ShapeTooLarge(f"depth {depth} exceeds the cap {DEPTH_CAP}")
    if branches > BRANCH_CAP:
        raise ShapeTooLarge(f"{branches} branches exceed the cap {BRANCH_CAP}")
    if depth < 0 or branches < 2:
        raise ValueError("need depth >= 0 and at least 2 branches")
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
    # the instance is feasible by construction
    tree = load_instance(doc)
    q_map = {}
    for w in tree.nodes():
        if len(w) < depth:
            q_map[w] = Fraction(rng.randint(0, 4), 4)
    rule = rule_from_map(tree, q_map)
    exp = rule_to_measure(tree, rule).expectations(tree)
    for i, item in enumerate(doc["constraints"]["ineq"]):
        if rng.random() < vacuous_rate:
            item["y"] = "inf"
        else:
            item["y"] = fmt_rational(exp["ineq"][i])
    for i, item in enumerate(doc["constraints"]["eq"]):
        item["z"] = fmt_rational(exp["eq"][i])
    return load_instance(doc).source
