"""Randomized stopping rules and their hitting-time realization.

A randomized rule assigns each node a conditional stop probability q(v).
Its cumulative-stop process theta gives, per increment word, the chance of
having stopped by each step; it is non-decreasing and ends at 1.  Drawing a
single uniform threshold eta and stopping the first time theta exceeds eta
reproduces the rule's joint law exactly, which is what ``equivalence_check``
certifies by integrating eta over the finitely many theta breakpoints.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Dict

from .errors import (EquivalenceViolation, InvariantViolation, NodeNotInTree,
                     RuleShapeMismatch)
from .lattice import ROOT, TreeInstance, Word
from .measures import StoppingMeasure, expectations_from_stop_mass
from .xreal import as_fraction

_BLOCK = 1024  # stop nodes summed per batch in monte_carlo_value


@dataclass(frozen=True)
class RandomizedStoppingRule:
    """Conditional stop probabilities per node.

    q(v) in [0, 1] everywhere; q = 1 at the horizon (forced terminal stop).
    Adaptedness is structural: q is indexed by increment words.
    """

    q: Dict[Word, Fraction]

    def prob(self, word: Word) -> Fraction:
        return self.q[word]

    def validate(self, tree: TreeInstance) -> None:
        for word in tree.nodes():
            got = self.q.get(word)
            if got is None:
                raise RuleShapeMismatch(f"rule has no entry for node {word}")
            if not 0 <= got <= 1:
                raise RuleShapeMismatch(f"q{word} = {got} outside [0, 1]")
            if len(word) == tree.depth and got != 1:
                raise RuleShapeMismatch(f"q{word} must be 1 at the horizon")


def rule_from_map(tree: TreeInstance, q_map: Dict[Word, object]) -> RandomizedStoppingRule:
    """Build a rule from a possibly partial node map.

    Horizon nodes default to 1; all interior nodes must be present.  A
    word that is not a node raises NodeNotInTree.
    """
    index = tree._shape().index
    for word in q_map:
        if word not in index:
            raise NodeNotInTree(f"rule probability on {word}, which is not a node")
    q: Dict[Word, Fraction] = {}
    for word in tree.nodes():
        if word in q_map:
            q[word] = as_fraction(q_map[word])
        elif len(word) == tree.depth:
            q[word] = Fraction(1)
        else:
            raise RuleShapeMismatch(f"rule is missing interior node {word}")
    rule = RandomizedStoppingRule(q=q)
    rule.validate(tree)
    return rule


@dataclass(frozen=True)
class ThetaProcess:
    """Cumulative conditional stop probabilities along each word."""

    theta: Dict[Word, Fraction]

    def at(self, word: Word) -> Fraction:
        return self.theta[word]

    def validate(self, tree: TreeInstance) -> None:
        for word in tree.nodes():
            got = self.theta.get(word)
            if got is None:
                raise RuleShapeMismatch(f"theta has no entry for node {word}")
            if not 0 <= got <= 1:
                raise RuleShapeMismatch(f"theta{word} = {got} outside [0, 1]")
            if len(word) == tree.depth and got != 1:
                raise RuleShapeMismatch(f"theta{word} must equal 1 at the horizon")
            if word != ROOT and got < self.theta[word[:-1]]:
                raise RuleShapeMismatch(f"theta decreases into node {word}")


def theta_of_rule(tree: TreeInstance, rule: RandomizedStoppingRule) -> ThetaProcess:
    """theta_k = 1 - prod_{j<=k} (1 - q) along every word, exactly."""
    return _theta(rule_to_measure(tree, rule))


def _theta(measure: StoppingMeasure) -> ThetaProcess:
    """A rule's theta from its measure: the continue share of the rule's
    measure is the chance of surviving."""
    return ThetaProcess(theta={w: 1 - Fraction(u, measure.scale)
                               for w, u in zip(measure.shape.words, measure.conts)})


def derandomize(tree: TreeInstance, theta: ThetaProcess, eta) -> Dict[Word, int]:
    """Hitting-time stop depth per full word for a fixed threshold eta.

    tau(word, eta) = min{k : theta_k(word) > eta}; ties at theta = eta
    continue, and theta_N = 1 > eta guarantees a hit for eta in [0, 1).
    """
    eta = as_fraction(eta)
    if not 0 <= eta < 1:
        raise ValueError("eta must lie in [0, 1)")
    theta.validate(tree)
    out: Dict[Word, int] = {}
    for leaf in tree.leaves():
        out[leaf] = _hit_depth(theta, leaf, eta)
    return out


def _hit_depth(theta: ThetaProcess, word: Word, eta: Fraction) -> int:
    for k in range(len(word) + 1):
        if theta.at(word[:k]) > eta:
            return k
    raise InvariantViolation("theta must reach 1 at the horizon")


def rule_to_measure(tree: TreeInstance, rule: RandomizedStoppingRule) -> StoppingMeasure:
    """A rule's measure: a node's continue share is the product of 1 - q
    over its path, itself included, and its stop share is the rest of the
    share that its parent continues."""
    rule.validate(tree)
    shape, stops, conts = tree._shape(), [], []
    for word, parent in zip(shape.words, shape.parent):
        arrive = conts[parent] if word else Fraction(1)
        conts.append(arrive * (1 - rule.prob(word)))
        stops.append(arrive - conts[-1])
    return StoppingMeasure.from_shares(shape, stops, conts)


def stop_mass_by_eta_integration(tree: TreeInstance, theta: ThetaProcess) -> Dict[Word, Fraction]:
    """Stop-mass vector obtained by integrating the hitting time over eta.

    For each full word the hitting depth is piecewise constant in eta with
    breakpoints at the theta values, so the integral is a finite exact sum;
    the depth on each piece is found by evaluating the hitting time at the
    piece's midpoint.
    """
    theta.validate(tree)
    mass: Dict[Word, Fraction] = {w: Fraction(0) for w in tree.nodes()}
    for leaf in tree.leaves():
        pathprob = tree.path_prob(leaf)
        cuts = sorted({Fraction(0), *(theta.at(leaf[:k]) for k in range(len(leaf) + 1))})
        for lo, hi in zip(cuts, cuts[1:]):
            depth = _hit_depth(theta, leaf, (lo + hi) / 2)
            mass[leaf[:depth]] += pathprob * (hi - lo)
    return mass


def equivalence_check(tree: TreeInstance, rule: RandomizedStoppingRule) -> dict:
    """Certify that the rule and its hitting-time construction agree.

    Computes stop masses once by the product formula and once by exact eta
    integration of the hitting time of the rule's theta, both from one
    rule-to-measure push, and compares the vectors and all
    objective/constraint expectations exactly.  Disagreement raises
    EquivalenceViolation, since equality is guaranteed.
    """
    direct = rule_to_measure(tree, rule)
    via_eta = stop_mass_by_eta_integration(tree, _theta(direct))
    report = {
        "stop_mass_rule": direct.s,
        "stop_mass_hitting": via_eta,
        "expectations_rule": direct.expectations(tree),
        "expectations_hitting": expectations_from_stop_mass(tree, via_eta),
        "pass": True,
    }
    for word in tree.nodes():
        if direct.stop(word) != via_eta[word]:
            report["pass"] = False
            raise EquivalenceViolation(
                f"stop masses differ at {word}: "
                f"{direct.stop(word)} vs {via_eta[word]}", report)
    for key in ("value", "ineq", "eq", "mean_stop_time"):
        if report["expectations_rule"][key] != report["expectations_hitting"][key]:
            report["pass"] = False
            raise EquivalenceViolation(f"expectations differ in {key}", report)
    return report


def monte_carlo_value(tree: TreeInstance, rule: RandomizedStoppingRule,
                      paths: int, seed: int = 0) -> dict:
    """Simulate (word, eta) pairs and average reward and accruals.

    Uses the hitting-time realization: each path draws one uniform eta and
    stops the first time the running theta exceeds it.  Returns mean and
    standard error per functional; results are bit-identical for a fixed
    seed (paths are consumed in index order from a single generator).
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    rule.validate(tree)

    # flatten the node table into float tables once: per column, each
    # node's value (int true division rounds as float(Fraction) does) and
    # its square; per node, the threshold theta that stops a path there
    # (1 - its survival product, the doubles a running product gives) and,
    # at interior nodes, its first child's row and its level's cumulative
    # branch probabilities without the last (a draw past them all takes the
    # last branch).  A leaf's theta is 1, above every draw, so the walk
    # never reads past the interior nodes.
    table = tree._node_table()
    shape = table.shape
    vals = [[c * shape.prob_den / (den * p) for c, p in zip(col, shape.probs)]
            for col, den in zip(table.cols, table.dens)]
    sqs = [[v * v for v in col] for col in vals]
    n_funcs = len(vals)
    level_cums = [list(accumulate(float(p) for p, _ in level))[:-1]
                  for level in tree.branching]
    kids = shape.first
    alive = [1.0 - float(rule.prob(w)) for w in shape.words]
    for i in range(len(kids) - 1):
        for kid in range(kids[i], kids[i + 1]):
            alive[kid] *= alive[i]
    thetas = [1.0 - a for a in alive]
    cums = [level_cums[len(w)] for w in shape.words[:len(kids) - 1]]

    sums = [0.0] * n_funcs
    sq = [0.0] * n_funcs

    def add_block(block):
        # path order, without compensated summation, so the sums are
        # the same doubles a running += gives
        for i in range(n_funcs):
            sums[i] = reduce(add, map(vals[i].__getitem__, block), sums[i])
            sq[i] = reduce(add, map(sqs[i].__getitem__, block), sq[i])

    draw = random.Random(seed).random
    for start in range(0, paths, _BLOCK):
        block = []
        append = block.append
        for _ in range(min(_BLOCK, paths - start)):
            eta = draw()
            node = 0
            while thetas[node] <= eta:
                node = kids[node] + bisect_right(cums[node], draw())
            append(node)
        add_block(block)

    def mean_se(i):
        mean = sums[i] / paths
        if paths == 1:
            return mean, 0.0
        var = max(0.0, (sq[i] - paths * mean * mean) / (paths - 1))
        return mean, math.sqrt(var / paths)

    out = {"paths": paths, "seed": seed, "value": mean_se(0)}
    k = 1
    out["ineq"] = tuple(mean_se(k + i) for i in range(tree.constraints.n_ineq))
    k += tree.constraints.n_ineq
    out["eq"] = tuple(mean_se(k + i) for i in range(tree.constraints.n_eq))
    return out
