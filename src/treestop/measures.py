"""Joint laws of (path, stopping node) encoded as per-node masses.

A stopping measure assigns each node a stop mass s(v) and a continue mass
u(v).  Flow conservation ties them to the branching law: the root receives
total mass 1, and a node receives p_j times the continue mass of its parent.
Stop masses sum to 1 and nothing continues past the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict

from .errors import NodeNotInTree
from .lattice import ROOT, NodeTable, TreeInstance, Word


@dataclass(frozen=True)
class StoppingMeasure:
    """Per-node stop and continue masses with flow conservation."""

    s: Dict[Word, Fraction]
    u: Dict[Word, Fraction]

    def stop(self, word: Word) -> Fraction:
        return self.s.get(word, Fraction(0))

    def cont(self, word: Word) -> Fraction:
        return self.u.get(word, Fraction(0))

    def reach(self, word: Word) -> Fraction:
        return self.stop(word) + self.cont(word)

    def validate(self, tree: TreeInstance) -> None:
        """Check flow conservation, nonnegativity and total stop mass 1."""
        total = Fraction(0)
        for word in tree.nodes():
            s, u = self.stop(word), self.cont(word)
            if s < 0 or u < 0:
                raise ValueError(f"negative mass at {word}")
            if len(word) == tree.depth and u != 0:
                raise ValueError(f"continue mass at horizon node {word}")
            if word == ROOT:
                if s + u != 1:
                    raise ValueError("root masses must sum to 1")
            else:
                p, _ = tree.branching[len(word) - 1][word[-1]]
                if s + u != p * self.cont(word[:-1]):
                    raise ValueError(f"flow conservation fails at {word}")
            total += s
        if total != 1:
            raise ValueError(f"stop masses sum to {total}, not 1")

    def expectations(self, tree: TreeInstance) -> dict:
        """Expected objective, constraint accruals, and stop time."""
        return expectations_from_stop_mass(tree, self.s)


def _pushed_forward(tree: TreeInstance, cont, branch_prob=None) -> StoppingMeasure:
    """Mass 1 enters at the root; node w continues ``cont(w, arrive)`` of
    the mass arriving there and stops the rest, and a child receives its
    branch probability (``branch_prob(child)`` if given) times its parent's
    continue mass."""
    s: Dict[Word, Fraction] = {}
    u: Dict[Word, Fraction] = {}
    for w in tree.nodes():
        if w == ROOT:
            arrive = Fraction(1)
        else:
            p = branch_prob(w) if branch_prob else tree.branching[len(w) - 1][w[-1]][0]
            arrive = p * u[w[:-1]]
        u[w] = cont(w, arrive)
        s[w] = arrive - u[w]
    return StoppingMeasure(s=s, u=u)


def _stop_weights(table: NodeTable, stop_mass: Dict[Word, Fraction]):
    """The rows that a stop mass charges and, per row, its mass over the
    node's path probability, as ints over one scale: (rows, weights,
    scale).  A mass on a word that is not a node raises NodeNotInTree."""
    rows, ratios = [], []
    for word, mass in stop_mass.items():
        if mass:
            i = table.index.get(word)
            if i is None:
                raise NodeNotInTree(f"stop mass {mass} on {word}, which is not a node")
            rows.append(i)
            ratios.append(Fraction(mass.numerator * table.prob_den,
                                   mass.denominator * table.probs[i]))
    scale = lcm(*(r.denominator for r in ratios))
    return rows, [r.numerator * (scale // r.denominator) for r in ratios], scale


def expectations_from_stop_mass(tree: TreeInstance, stop_mass: Dict[Word, Fraction]) -> dict:
    """Expected stop payoff, accruals and stop time under a stop mass: per
    column, stop mass times the node table's row, summed as ints."""
    table = tree._node_table()
    rows, weights, scale = _stop_weights(table, stop_mass)
    value, *accrued = (Fraction(sum(map(mul, weights, map(col.__getitem__, rows))),
                                scale * den) for col, den in zip(table.cols, table.dens))
    steps = sum(w * table.probs[i] * len(table.words[i]) for i, w in zip(rows, weights))
    n_ineq = tree.constraints.n_ineq
    return {
        "value": value,
        "ineq": tuple(accrued[:n_ineq]),
        "eq": tuple(accrued[n_ineq:]),
        "mean_stop_time": Fraction(steps, scale * table.prob_den) * tree.dt,
    }


def feasible_for(tree: TreeInstance, measure: StoppingMeasure, budgets) -> bool:
    """Whether a measure's accruals satisfy the given budget vector."""
    exp = measure.expectations(tree)
    for got, y in zip(exp["ineq"], budgets.ys):
        if not got <= y:
            return False
    for got, z in zip(exp["eq"], budgets.zs):
        if got != z:
            return False
    return True
