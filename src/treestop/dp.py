"""Backward induction in the budget variable for one inequality constraint.

A node's value as a function of the remaining expected budget is a concave
piecewise-linear envelope (LP values are concave in the right-hand side),
so backward induction is exact and equals the LP oracle: merge the
children's envelopes by marginal slope, shift by the step's reward and
budget accrual, and take the non-decreasing concave hull with the stop point.

The sweep runs in path-probability units, E[1_node G] = P * E[G | node]:
a node is a chain (x0, v0, top value, (slope, width) segments steepest
first) whose children's segments are already in its units, so they merge
by one stable sort and no width is rescaled.  The stop point (0, P * stop
value) is pasted by walking kinks from x0 only as far as needed.  Only
returned envelopes are validated: ``node_envelopes`` divides each node's
chain by P; ``root_envelope`` builds the root's (P = 1) once per tree and
caches it on the instance.

Other constraint mixes go to the LP oracle.  Values are concave in an
equality target too (a mixture of stopping laws is a stopping law), but
envelopes on a bounded target interval are not handled yet.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .envelope import ConcaveEnvelope, _built, _merged, _scaled
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
    return _built(_paste(as_fraction(stop_value), as_fraction(reward_step),
                         as_fraction(budget_step),
                         [_scaled(p, env) for p, env in children]))


def _paste(stop, reward_step, budget_step, kids):
    """A node's chain from its children's chains, all in one unit."""
    x0, v0, top, segments = _merged(kids, budget_step, reward_step)
    n = len(segments)  # kink n is the top
    xs, vs = [x0], [v0]  # the kinks left of x = 0, then the first one right
    while xs[-1] < 0 and len(xs) <= n:
        s, w = segments[len(xs) - 1]
        xs.append(xs[-1] + w), vs.append(vs[-1] + s * w)
    i = len(xs) - (xs[-1] >= 0)  # kinks xs[:i] lie left of the stop point
    if i <= n and xs[i] == 0:
        covered = stop <= vs[i]
    elif i > n:
        covered = stop <= top
    else:
        covered = i > 0 and stop <= vs[i - 1] - segments[i - 1][0] * xs[i - 1]
    if covered:
        return x0, v0, top, tuple(segments)
    # the point lies above the chain: it drops the kinks under its chords to
    # either side, and every kink right of it when it is at or above the top
    if stop >= top:
        top, right = stop, ()
    else:
        # kink j is the first that stays right of the point; one at x = 0 goes
        j, x, v = i, xs[i], vs[i]
        while j < n and (x == 0 or v - stop <= segments[j][0] * x):
            s, w = segments[j]
            j, x, v = j + 1, x + w, v + s * w
        right = ((v - stop) / x, x), *segments[j:]
    while i >= 2 and segments[i - 2][0] * -xs[i - 1] <= stop - vs[i - 1]:
        i -= 1
    if i == 0:
        return _ZERO, stop, top, right
    chord = ((stop - vs[i - 1]) / -xs[i - 1], -xs[i - 1])
    return xs[0], vs[0], top, (*segments[:i - 1], chord, *right)


def _forward_levels(tree: TreeInstance):
    """Per level, the words and each node's (stop value, reward step, budget
    step), or its chain at the leaves, all times the node's path probability.
    Kept apart so that the leaf level's paths and weights are freed first."""
    _require_scalar_shape(tree)
    levels, units = [], [Fraction(1)]
    for k, level in enumerate(tree.levels()):
        t = tree.time(k)
        words, data = [], []
        for (word, prefix), unit in zip(level, units):
            words.append(word)
            stop = unit * tree._terminal_value(t, prefix)
            if k == tree.depth:
                data.append((_ZERO, stop, stop, ()))
            else:
                step = unit * tree.dt
                f, (g,), _ = tree._rates(t, prefix)
                data.append((stop, step * f, step * g))
        levels.append((words, data))
        if k < tree.depth:
            units = [unit * p for unit in units for p, _ in tree.branching[k]]
    return levels


def _backward_levels(tree: TreeInstance):
    """Each level's words and chains (in units of the node's path
    probability) in BFS order, leaves first; two levels are held at a time.
    BFS order puts node i's children at i*n .. i*n+n-1 one level down."""
    levels, below = _forward_levels(tree), []
    for k in reversed(range(tree.depth + 1)):
        words, here = levels.pop()
        if k < tree.depth:
            n = len(tree.branching[k])
            here = [_paste(stop, f_step, g_step, below[i * n:(i + 1) * n])
                    for i, (stop, f_step, g_step) in enumerate(here)]
        yield words, here
        below = here


def node_envelopes(tree: TreeInstance) -> Dict[Word, ConcaveEnvelope]:
    """Value-in-budget envelope of every node, computed in one level sweep."""
    env: Dict[Word, ConcaveEnvelope] = {}
    for words, here in _backward_levels(tree):
        env.update((word, _built(chain, tree.path_prob(word)))
                   for word, chain in zip(reversed(words), reversed(here)))
    return env


def root_envelope(tree: TreeInstance) -> ConcaveEnvelope:
    """The root's envelope, computed once per tree and then cached on it."""
    if tree._root_envelope is None:
        for _, level in _backward_levels(tree):
            pass
        tree._root_envelope = _built(level[0])
    return tree._root_envelope


def dp_value(tree: TreeInstance, budget) -> Ext:
    """V(root, budget) by exact backward induction.

    Agrees with the LP oracle exactly; budget may be +inf (no constraint).
    """
    return Ext(root_envelope(tree).value(budget))
