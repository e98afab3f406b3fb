"""Joint laws of (path, stopping node) as survival shares on a tree's rows.

A stopping measure holds, per row of the tree's shape, the shares of the
node's path probability that stop there and that continue past it.  In
these units flow conservation needs no branch probability: the root's
shares sum to 1, each child's to its parent's continue share, and nothing
continues past the horizon.  A measure checks this when it is built, and
``validate`` only that a tree has its rows.  Expectations read rows and
levels.  Absolute masses (share times path probability) appear only at
the boundary: per row (``masses``), or keyed by the rows' increment words
(``stop``, ``cont``, the ``s`` and ``u`` dicts, and ``from_masses``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Dict, Sequence, Tuple

from .errors import NodeNotInTree, ShapeMismatch
from .lattice import Shape, TreeInstance, Word


@dataclass(frozen=True)
class StoppingMeasure:
    """Stop and continue shares per row, as ints over ``scale``.

    Row i's stop mass is ``stops[i] / scale`` times node i's path
    probability, and its continue mass ``conts[i] / scale`` times it.  The
    scale is reduced, so equal measures compare equal.
    """

    shape: Shape
    stops: Tuple[int, ...]
    conts: Tuple[int, ...]
    scale: int

    def __post_init__(self):
        shape, n, n_inner = self.shape, len(self.shape.probs), len(self.shape.first) - 1
        if len(self.stops) != n or len(self.conts) != n:
            raise ShapeMismatch(f"the measure has {len(self.stops)} stop and "
                                f"{len(self.conts)} continue shares for {n} rows")
        g = gcd(self.scale, *self.stops, *self.conts)
        object.__setattr__(self, "stops", tuple(v // g for v in self.stops))
        object.__setattr__(self, "conts", conts := tuple(v // g for v in self.conts))
        object.__setattr__(self, "scale", self.scale // g)
        for i, (parent, s, u) in enumerate(zip(shape.parent, self.stops, conts)):
            if s < 0 or u < 0:
                raise ValueError(f"negative mass at {shape.word(i)}")
            if i >= n_inner and u != 0:
                raise ValueError(f"continue mass at horizon node {shape.word(i)}")
            if s + u != (conts[parent] if i else self.scale):
                raise ValueError(f"flow conservation fails at {shape.word(i)}" if i else
                                 "root masses must sum to 1")

    @classmethod
    def from_shares(cls, shape: Shape, stops: Sequence[Fraction],
                    conts: Sequence[Fraction]) -> "StoppingMeasure":
        """The measure with these stop and continue shares per row."""
        scale = lcm(*(v.denominator for v in chain(stops, conts)))
        return cls(shape, tuple(v.numerator * (scale // v.denominator) for v in stops),
                   tuple(v.numerator * (scale // v.denominator) for v in conts), scale)

    @classmethod
    def from_masses(cls, tree: TreeInstance, s: Dict[Word, Fraction],
                    u: Dict[Word, Fraction]) -> "StoppingMeasure":
        """The measure with these absolute masses per word (0 where absent);
        a mass on a word that is not a node raises NodeNotInTree."""
        shape = tree._shape()
        return cls.from_shares(shape, *([Fraction(mass * shape.prob_den, p) for mass, p
                                         in zip(_on_rows(tree, what, masses), shape.probs)]
                                        for what, masses in (("stop", s), ("continue", u))))

    def _mass(self, shares, word: Word) -> Fraction:
        i = self.shape.row(word)  # a word outside the tree holds 0
        return Fraction(0) if i is None else \
            Fraction(shares[i] * self.shape.probs[i], self.scale * self.shape.prob_den)

    def masses(self, tree: TreeInstance) -> tuple:
        """Per row of the tree, the absolute stop masses and the continue masses."""
        self.validate(tree)
        return self._masses(self.stops), self._masses(self.conts)

    def _masses(self, shares) -> list:
        den = self.scale * self.shape.prob_den
        return [Fraction(v * p, den) for v, p in zip(shares, self.shape.probs)]

    def stop(self, word: Word) -> Fraction:
        return self._mass(self.stops, word)

    def cont(self, word: Word) -> Fraction:
        return self._mass(self.conts, word)

    # absolute stop and continue mass per node, every node present
    s = property(lambda self: dict(zip(self.shape.words(), self._masses(self.stops))))
    u = property(lambda self: dict(zip(self.shape.words(), self._masses(self.conts))))

    def validate(self, tree: TreeInstance) -> Shape:
        """The tree's shape, which must be this measure's."""
        shape = tree._shape()
        if shape is not self.shape and shape != self.shape:
            raise ShapeMismatch("the measure is not on this tree's nodes")
        return shape

    def expectations(self, tree: TreeInstance) -> dict:
        """Expected objective, constraint accruals, and stop time: per
        column of the node table, the stop shares times its rows."""
        shape, table = self.validate(tree), tree._node_table()
        value, *accrued = (Fraction(sum(map(mul, self.stops, col)), self.scale * den)
                           for col, den in zip(table.cols, table.dens))
        steps = sum(k * sum(map(mul, self.stops[lo:hi], shape.probs[lo:hi]))
                    for k, (lo, hi) in enumerate(zip(shape.starts, shape.starts[1:])))
        n = tree.constraints.n_ineq
        return {"value": value, "ineq": tuple(accrued[:n]), "eq": tuple(accrued[n:]),
                "mean_stop_time": Fraction(steps, self.scale * shape.prob_den) * tree.dt}


def _on_rows(tree: TreeInstance, what: str, masses: Dict[Word, Fraction]) -> list:
    """Per row of the tree's shape, the mass on its word (0 where absent); a
    nonzero mass on a word that is not a node raises NodeNotInTree."""
    for word, mass in masses.items():
        if mass and tree._shape().row(word) is None:
            raise NodeNotInTree(f"{what} mass {mass} on {word}, which is not a node")
    return [masses.get(w, Fraction(0)) for w in tree.nodes()]


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
