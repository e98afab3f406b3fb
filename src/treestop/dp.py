"""Backward induction in the budget variable for one inequality constraint.

The value of a node as a function of the remaining expected budget is a
concave piecewise-linear envelope (LP values are concave in the right-hand
side), so backward induction is exact: merge the children's envelopes by
marginal slope, shift by the step's reward and budget accrual, and take the
non-decreasing concave hull with the stop point.  Mixing the stop point
against the continuation curve is the same two-point randomization that a
basic LP solution uses, so the result agrees with the LP oracle exactly.

The sweep runs level by level.  A forward pass over ``TreeInstance.levels``
reads each node's stop value, reward step and budget step from state paths
that grow by one Euler step per level; a backward pass then builds each
level's envelopes from the level below, where BFS order keeps every node's
children contiguous.  The root envelope depends on the tree only, never on
the budget, so ``root_envelope`` (and ``dp_value`` through it) computes it
once per tree and caches it on the instance.

Instances with several constraints or any equality constraint are out of
this engine's shape (values are not concave in equality targets) and are
served by the LP oracle instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .envelope import ConcaveEnvelope, _merged_points
from .errors import UnsupportedConstraintShape
from .lattice import ROOT, TreeInstance, Word
from .xreal import Ext, as_fraction


def _require_scalar_shape(tree: TreeInstance) -> None:
    spec = tree.constraints
    if spec.n_ineq != 1 or spec.n_eq != 0:
        raise UnsupportedConstraintShape(
            "the budget engine handles exactly one inequality constraint; "
            "use the LP oracle for general constraint mixes")


def backstep(stop_value, reward_step, budget_step, children) -> ConcaveEnvelope:
    """One backward step: paste the stop point onto the continuation curve.

    children are (probability, envelope) pairs for the successor nodes;
    stopping costs no budget and pays ``stop_value``; continuing accrues
    ``reward_step`` now, consumes ``budget_step`` now, and then allocates
    the remaining budget across the children.
    """
    points = _merged_points(children, as_fraction(budget_step),
                            as_fraction(reward_step))
    points.append((Fraction(0), Fraction(stop_value)))
    return ConcaveEnvelope.hull_of_points(points)


def node_envelopes(tree: TreeInstance) -> Dict[Word, ConcaveEnvelope]:
    """Value-in-budget envelope of every node, computed in one level sweep."""
    _require_scalar_shape(tree)
    g, _ = tree.constraints.inequalities[0]
    # forward: per level, the words and each node's (stop value, reward
    # step, budget step), or its envelope at the leaves
    levels = []
    for k, level in enumerate(tree.levels()):
        t = tree.time(k)
        words, data = [], []
        for word, prefix in level:
            words.append(word)
            pi_here = as_fraction(tree.terminal(t, prefix))
            if k == tree.depth:
                data.append(ConcaveEnvelope.constant(0, pi_here))
            else:
                data.append((pi_here,
                             Ext.parse(tree.reward(t, prefix)).fraction() * tree.dt,
                             Ext.parse(g(t, prefix)).fraction() * tree.dt))
        levels.append((words, data))
    # backward: BFS order puts node i's children at i*n .. i*n+n-1 one level down
    env: Dict[Word, ConcaveEnvelope] = {}
    below: list = []
    for k in reversed(range(tree.depth + 1)):
        words, here = levels.pop()
        if k < tree.depth:
            probs = [p for p, _ in tree.branching[k]]
            n = len(probs)
            here = [backstep(pi, f_step, g_step,
                             list(zip(probs, below[i * n:(i + 1) * n])))
                    for i, (pi, f_step, g_step) in enumerate(here)]
        env.update(zip(reversed(words), reversed(here)))
        below = here
    return env


def root_envelope(tree: TreeInstance) -> ConcaveEnvelope:
    """The root's envelope, computed once per tree and then cached on it."""
    if tree._root_envelope is None:
        tree._root_envelope = node_envelopes(tree)[ROOT]
    return tree._root_envelope


def dp_value(tree: TreeInstance, budget) -> Ext:
    """V(root, budget) by exact backward induction.

    Agrees with the LP oracle exactly; budget may be +inf (no constraint).
    """
    return Ext(root_envelope(tree).value(budget))
