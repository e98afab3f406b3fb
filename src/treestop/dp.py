"""Backward induction in the budget variable for one inequality constraint.

The value of a node as a function of the remaining expected budget is a
concave piecewise-linear envelope (LP values are concave in the right-hand
side), so backward induction is exact: merge the children's envelopes by
marginal slope, shift by the step's reward and budget accrual, and take the
non-decreasing concave hull with the stop point.  Mixing the stop point
against the continuation curve is the same two-point randomization that a
basic LP solution uses, so the result agrees with the LP oracle exactly.

The merge of the children's slopes already yields the continuation curve
as a concave, strictly rising chain of kinks, so pasting the stop point
(0, stop value) onto it needs no general hull: one comparison decides
whether the chain covers the point, and otherwise only the kinks that the
point covers next to x = 0 are dropped (all kinks to its right when it is
at or above the chain's top).

The sweep runs level by level.  A forward pass over ``TreeInstance.levels``
reads each node's stop value, reward step and budget step from state paths
that grow by one Euler step per level; a backward pass then builds each
level's envelopes from the level below, where BFS order keeps every node's
children contiguous, and holds only those two levels.  ``node_envelopes``
collects every level; ``root_envelope`` keeps only the root's.  The root
envelope depends on the tree only, never on the budget, so
``root_envelope`` (and ``dp_value`` through it) computes it once per tree
and caches it on the instance.

Instances with several constraints or any equality constraint are out of
this engine's shape (values are not concave in equality targets) and are
served by the LP oracle instead.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Dict

from .envelope import ConcaveEnvelope, _merged_chain
from .errors import UnsupportedConstraintShape
from .lattice import TreeInstance, Word
from .xreal import Ext, as_fraction

_ZERO = Fraction(0)


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
    xs, vs, slopes = _merged_chain(children, as_fraction(budget_step),
                                   as_fraction(reward_step))
    pi = as_fraction(stop_value)
    top = len(xs) - 1
    i = bisect_left(xs, 0)  # kinks xs[:i] lie left of the stop point
    on_kink = i <= top and xs[i] == 0
    if on_kink:
        covered = pi <= vs[i]
    elif i > top:
        covered = pi <= vs[top]
    else:
        covered = i > 0 and pi <= vs[i - 1] - slopes[i - 1] * xs[i - 1]
    if covered:
        return ConcaveEnvelope(xs=tuple(xs), vs=tuple(vs))
    # the stop point lies above the chain: it replaces a kink at x = 0 and
    # drops the kinks under its chords to either side; at or above the
    # chain's top it is the peak, and every kink right of it goes
    j = i + 1 if on_kink else i  # kinks xs[j:] lie right of the stop point
    while i >= 2 and slopes[i - 2] * -xs[i - 1] <= pi - vs[i - 1]:
        i -= 1
    if pi >= vs[top]:
        j = top + 1
    while j < top and vs[j] - pi <= slopes[j] * xs[j]:
        j += 1
    return ConcaveEnvelope(xs=(*xs[:i], _ZERO, *xs[j:]),
                           vs=(*vs[:i], pi, *vs[j:]))


def _backward_levels(tree: TreeInstance):
    """Each level's words and envelopes in BFS order, leaves first.

    Only the level being built and the level below it are held.
    """
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
    below: list = []
    for k in reversed(range(tree.depth + 1)):
        words, here = levels.pop()
        if k < tree.depth:
            probs = [p for p, _ in tree.branching[k]]
            n = len(probs)
            here = [backstep(pi, f_step, g_step,
                             list(zip(probs, below[i * n:(i + 1) * n])))
                    for i, (pi, f_step, g_step) in enumerate(here)]
        yield words, here
        below = here


def node_envelopes(tree: TreeInstance) -> Dict[Word, ConcaveEnvelope]:
    """Value-in-budget envelope of every node, computed in one level sweep."""
    env: Dict[Word, ConcaveEnvelope] = {}
    for words, here in _backward_levels(tree):
        env.update(zip(reversed(words), reversed(here)))
    return env


def root_envelope(tree: TreeInstance) -> ConcaveEnvelope:
    """The root's envelope, computed once per tree and then cached on it."""
    if tree._root_envelope is None:
        for _, level in _backward_levels(tree):
            pass
        tree._root_envelope = level[0]
    return tree._root_envelope


def dp_value(tree: TreeInstance, budget) -> Ext:
    """V(root, budget) by exact backward induction.

    Agrees with the LP oracle exactly; budget may be +inf (no constraint).
    """
    return Ext(root_envelope(tree).value(budget))
