"""Randomized stopping rules and their hitting-time realization.

A randomized rule assigns each node a conditional stop probability q(v),
one per row of the tree's shape and checked when the rule is built.  One
minus the continue share of the rule's measure is its cumulative-stop
process theta: per increment word, the chance of having stopped by each
step, non-decreasing and 1 at the horizon.  Drawing a single uniform
threshold eta and stopping the first time theta exceeds eta reproduces
the rule's joint law exactly, which is what ``equivalence_check``
certifies by integrating eta over the finitely many theta breakpoints.

The exact kernels run in ints: the survival products over one unit per
level, theta as ints over the measure's scale, and the eta integral's
masses over that scale times the path probabilities' denominator.  Monte
Carlo runs on floats and sums each column's values and squares as one
complex per node, in path order and without compensation, so its
estimates are the doubles a running sum of each gives.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice
from operator import add, itemgetter, mul
from typing import Dict, Optional, Tuple

from .errors import EquivalenceViolation, NodeNotInTree, RuleShapeMismatch
from .lattice import Shape, TreeInstance, Word
from .measures import StoppingMeasure
from .xreal import as_fraction, echo, shown

_BLOCK = 1024  # stop nodes summed per batch in monte_carlo_value


@dataclass(frozen=True)
class RandomizedStoppingRule:
    """Conditional stop probabilities, ``q[i]`` at row i of ``shape``.

    q in [0, 1] everywhere; q = 1 at the horizon (forced terminal stop).
    Adaptedness is structural: q is indexed by the shape's nodes.
    """

    shape: Shape
    q: Tuple[Fraction, ...]

    def __post_init__(self):
        shape, n_inner = self.shape, len(self.shape.first) - 1
        if len(self.q) != len(shape.probs):
            raise RuleShapeMismatch(f"the rule has {len(self.q)} q for {len(shape.probs)} rows")
        for i, q in enumerate(self.q):
            if not 0 <= q <= 1:
                raise RuleShapeMismatch(f"q{shape.word(i)} = {shown(q)} outside [0, 1]")
            if i >= n_inner and q != 1:
                raise RuleShapeMismatch(f"q{shape.word(i)} must be 1 at the horizon")

    def prob(self, word: Word) -> Fraction:
        i = self.shape.row(word)
        if i is None:
            raise KeyError(word)
        return self.q[i]

    def validate(self, tree: TreeInstance) -> None:
        """Check that the tree has this rule's nodes (its level widths)."""
        shape = tree._shape()
        if shape is not self.shape and shape.widths != self.shape.widths:
            raise RuleShapeMismatch("the rule is not on this tree's nodes")


def rule_from_map(tree: TreeInstance, q_map: Dict[Word, object]) -> RandomizedStoppingRule:
    """Build a rule from a possibly partial node map.

    Horizon nodes default to 1; all interior nodes must be present.  A
    word that is not a node raises NodeNotInTree.
    """
    shape = tree._shape()
    for word in q_map:
        if shape.row(word) is None:
            raise NodeNotInTree(f"rule probability on {echo.repr(word)}, which is not a node")
    for word in islice(tree.nodes(), len(shape.first) - 1):
        if word not in q_map:
            raise RuleShapeMismatch(f"rule is missing interior node {word}")
    return RandomizedStoppingRule(shape, tuple(as_fraction(q_map.get(w, 1))
                                               for w in tree.nodes()))


def rule_to_measure(tree: TreeInstance, rule: RandomizedStoppingRule) -> StoppingMeasure:
    """A rule's measure: a node's continue share is the product of 1 - q
    over its path, itself included, and its stop share is the rest of the
    share that its parent continues.  The products run in ints: level k's
    shares are over the unit of level k - 1 times the lcm of level k's q
    denominators, and each level is brought to the horizon's unit at the end."""
    rule.validate(tree)
    shape, stops, conts, steps = tree._shape(), [], [], []
    for lo, hi in zip(shape.starts, shape.starts[1:]):
        step = math.lcm(*(q.denominator for q in rule.q[lo:hi]))
        steps.append(step)
        for q, parent in zip(rule.q[lo:hi], shape.parent[lo:hi]):
            arrive = (conts[parent] if conts else 1) * step
            conts.append(arrive // q.denominator * (q.denominator - q.numerator))
            stops.append(arrive - conts[-1])
    scale = steps[-1]  # each level's factor to the horizon's unit, which is the scale
    for k in range(len(steps) - 2, -1, -1):
        rows = slice(shape.starts[k], shape.starts[k + 1])
        stops[rows] = [v * scale for v in stops[rows]]
        conts[rows] = [v * scale for v in conts[rows]]
        scale *= steps[k]
    return StoppingMeasure(shape, tuple(stops), tuple(conts), scale)


def _thetas(measure: StoppingMeasure) -> list:
    """theta per row as ints over ``measure.scale``, the rule's measure:
    the scale minus the continue share there, the chance of having stopped
    at or above that node."""
    return [measure.scale - u for u in measure.conts]


def theta_of_rule(tree: TreeInstance, rule: RandomizedStoppingRule) -> Dict[Word, Fraction]:
    """theta_k = 1 - prod_{j<=k} (1 - q) along every word, exactly."""
    measure = rule_to_measure(tree, rule)
    return {word: Fraction(theta, measure.scale)
            for word, theta in zip(tree._shape().words(), _thetas(measure))}


def _leaf_paths(shape: Shape):
    """Each leaf's row and the rows along its word, root first."""
    for leaf in range(len(shape.first) - 1, len(shape.probs)):
        yield leaf, shape.path(leaf)


def derandomize(tree: TreeInstance, rule: RandomizedStoppingRule, eta) -> Dict[Word, int]:
    """Hitting-time stop depth per full word for a fixed threshold eta.

    tau(word, eta) = min{k : theta_k(word) > eta}; ties at theta = eta
    continue, and theta_N = 1 > eta guarantees a hit for eta in [0, 1).
    """
    eta = as_fraction(eta)
    if not 0 <= eta < 1:
        raise ValueError("eta must lie in [0, 1)")
    measure = rule_to_measure(tree, rule)
    # theta / scale > eta, cross-multiplied
    cut, thetas = eta.numerator * measure.scale, _thetas(measure)
    return {word: next(k for k, i in enumerate(path) if thetas[i] * eta.denominator > cut)
            for word, (_, path) in zip(tree.leaves(), _leaf_paths(tree._shape()))}


def stop_mass_by_eta_integration(tree: TreeInstance, rule: RandomizedStoppingRule,
                                 measure: Optional[StoppingMeasure] = None) -> StoppingMeasure:
    """The rule's measure obtained by integrating the hitting time over eta.

    For each full word the hitting node is piecewise constant in eta with
    breakpoints at the theta values along it, so the integral is a finite
    exact sum; the node on each piece is found by evaluating the hitting
    time at the piece's midpoint.  A node's continue mass is the stop mass
    strictly below it.  theta is read off ``measure``, the rule's measure
    (built here when not given), as ints over its scale, so a piece's
    midpoint test is 2 * theta > lo + hi and masses are ints over the
    scale times ``prob_den``.
    """
    shape = tree._shape()
    if measure is None:
        measure = rule_to_measure(tree, rule)
    thetas = _thetas(measure)
    twice = [2 * theta for theta in thetas]
    stops, conts = [0] * len(thetas), [0] * len(thetas)
    for leaf, path in _leaf_paths(shape):
        cuts = sorted({0, *(thetas[i] for i in path)})
        for lo, hi in zip(cuts, cuts[1:]):
            mid = lo + hi
            stops[next(i for i in path if twice[i] > mid)] += shape.probs[leaf] * (hi - lo)
    for i in range(len(thetas) - 1, 0, -1):
        conts[shape.parent[i]] += stops[i] + conts[i]
    # a row's share is its mass over the scale times its path probability
    unit = math.lcm(*shape.probs)
    per_row = [unit // p for p in shape.probs]
    return StoppingMeasure(shape, tuple(map(mul, stops, per_row)),
                           tuple(map(mul, conts, per_row)), measure.scale * unit)


def equivalence_check(tree: TreeInstance, rule: RandomizedStoppingRule) -> dict:
    """Certify that the rule and its hitting-time construction agree.

    Computes the rule's measure once by the product formula and once by
    exact eta integration of the hitting time of the rule's theta, and
    compares them exactly; equal measures have equal objective and
    constraint expectations.  Disagreement raises EquivalenceViolation,
    since equality is guaranteed.
    """
    direct = rule_to_measure(tree, rule)
    via_eta = stop_mass_by_eta_integration(tree, rule, direct)
    report = {
        "stop_mass_rule": direct,
        "stop_mass_hitting": via_eta,
        "expectations_rule": direct.expectations(tree),
        "expectations_hitting": via_eta.expectations(tree),
        "pass": direct == via_eta,
    }
    if not report["pass"]:
        word = next(w for w in tree.nodes() if direct.stop(w) != via_eta.stop(w))
        raise EquivalenceViolation(
            f"stop masses differ at {word}: {direct.stop(word)} vs {via_eta.stop(word)}", report)
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
    # its square, packed as one complex(value, square); per node, the
    # threshold theta that stops a path there (1 - its survival product,
    # the doubles a running product gives) and, at interior nodes, its
    # first child's row and its level's cumulative branch probabilities
    # without the last (a draw past them all takes the last branch).  A
    # leaf's theta is 1, above every draw, so the walk never reads past the
    # interior nodes.
    table = tree._node_table()
    shape = table.shape
    pairs = [[complex(v, v * v) for v in (c * shape.prob_den / (den * p)
                                          for c, p in zip(col, shape.probs))]
             for col, den in zip(table.cols, table.dens)]
    level_cums = [list(accumulate(float(p) for p, _ in level))[:-1]
                  for level in tree.branching]
    kids = shape.first
    alive = [1.0 - float(q) for q in rule.q]
    for i in range(len(kids) - 1):
        for kid in range(kids[i], kids[i + 1]):
            alive[kid] *= alive[i]
    thetas = [1.0 - a for a in alive]
    starts = shape.starts
    cums = [c for k, c in enumerate(level_cums) for _ in range(starts[k], starts[k + 1])]

    # per column, the running sums of the values (real part) and of their
    # squares (imaginary part)
    totals = [0j] * len(pairs)

    def add_block(block):
        # path order, by a chain of complex adds, each a plain IEEE add per
        # part, and not by sum(), which compensates from Python 3.12 on: the
        # sums are the same doubles a running += of each part gives
        pick = itemgetter(*block)
        for i, col in enumerate(pairs):
            picked = pick(col) if len(block) > 1 else (col[block[0]],)  # one is no tuple
            totals[i] = reduce(add, picked, totals[i])

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
        mean = totals[i].real / paths
        if paths == 1:
            return mean, 0.0
        var = max(0.0, (totals[i].imag - paths * mean * mean) / (paths - 1))
        return mean, math.sqrt(var / paths)

    out = {"paths": paths, "seed": seed, "value": mean_se(0)}
    k = 1
    out["ineq"] = tuple(mean_se(k + i) for i in range(tree.constraints.n_ineq))
    k += tree.constraints.n_ineq
    out["eq"] = tuple(mean_se(k + i) for i in range(tree.constraints.n_eq))
    return out
