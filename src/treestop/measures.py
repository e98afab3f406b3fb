"""Joint laws of (path, stopping node) encoded as per-node masses.

A stopping measure assigns each node a stop mass s(v) and a continue mass
u(v).  Flow conservation ties them to the branching law: the root receives
total mass 1, and a node receives p_j times the continue mass of its parent.
Stop masses sum to 1 and nothing continues past the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict

from .lattice import ROOT, TreeInstance, Word


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


def expectations_from_stop_mass(tree: TreeInstance, stop_mass: Dict[Word, Fraction]) -> dict:
    value = mean_stop = Fraction(0)
    gs = [Fraction(0)] * tree.constraints.n_ineq
    hs = [Fraction(0)] * tree.constraints.n_eq
    for word, mass in stop_mass.items():
        if mass == 0:
            continue
        _, Gs, Hs = tree._functionals(word)
        value += tree.stop_payoff(word) * mass
        for i, G in enumerate(Gs):
            gs[i] += G * mass
        for i, H in enumerate(Hs):
            hs[i] += H * mass
        mean_stop += mass * (tree.time(len(word)) - tree.t0)
    return {
        "value": value,
        "ineq": tuple(gs),
        "eq": tuple(hs),
        "mean_stop_time": mean_stop,
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
