"""Backward induction in the budget variable for one inequality constraint.

A node's value as a function of the remaining expected budget is a concave
piecewise-linear envelope (LP values are concave in the right-hand side),
so backward induction is exact and equals the LP oracle: merge the
children's envelopes by marginal slope, shift by the step's reward and
budget accrual, and take the non-decreasing concave hull with the stop point.

The sweep runs in path-probability units, E[1_node G] = P * E[G | node]:
a node is a chain (x0, v0, top value, (slope, width) segments steepest
first) whose children's segments are in its units, so they merge by one
stable sort.  The stop point (0, P * stop value) is pasted by walking kinks
from x0 only as far as needed.

A node's envelope depends on its path only through what the instance's
functions read.  When they read only t, the state and its running sup (as
every loaded instance's do), ``TreeInstance._keyed_levels`` folds each
depth's nodes with one (state, sup) key into one record, and the sweep
pastes one chain per key, in units of P at the key's first node in BFS
order (its representative).  A child's chain is rescaled, by
P * p_j / P(child's representative), only on an edge that does not lead to
that representative; on other trees every node is its own key and nothing
is rescaled.  Only returned envelopes are validated: ``node_envelopes``
divides each key's chain by its P and hands it to every node with the key;
``root_envelope`` builds the root's (P = 1) once per tree and caches it on
the instance.

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


def _sweep(tree: TreeInstance):
    """Each level's key records (as ``tree._keyed_levels()`` gives them) and
    chains, one per key in units of its representative's path probability,
    leaves first; two levels of chains are held at a time."""
    _require_scalar_shape(tree)
    levels, below = tree._keyed_levels(), []
    while levels:
        level, here = levels.pop(), []
        for record in level:
            p, stop = record.prob, record.stop
            if record.rates is None:
                here.append((_ZERO, p * stop, p * stop, ()))
                continue
            f, (g,), _ = record.rates
            step = p * tree.dt
            here.append(_paste(p * stop, step * f, step * g,
                               [below[i] if c is None else _rescaled(c, below[i])
                                for i, c in record.kids]))
        yield level, here
        below = here


def _rescaled(c, chain):
    """The chain in units c times its own: every value and width times c."""
    x0, v0, top, segments = chain
    return c * x0, c * v0, c * top, [(s, c * w) for s, w in segments]


def node_envelopes(tree: TreeInstance) -> Dict[Word, ConcaveEnvelope]:
    """Value-in-budget envelope of every node, in one sweep: a node's is its
    key's, built once per key."""
    levels = [(level, [_built(chain, record.prob) for chain, record in zip(here, level)])
              for level, here in _sweep(tree)]
    words, keys, by_node = iter(tree.nodes()), [0], []
    for level, envs in reversed(levels):
        by_node += [(next(words), envs[i]) for i in keys]
        keys = [i for key in keys for i, _ in level[key].kids]
    return dict(reversed(by_node))


def root_envelope(tree: TreeInstance) -> ConcaveEnvelope:
    """The root's envelope, computed once per tree and then cached on it."""
    if tree._root_envelope is None:
        for _, here in _sweep(tree):
            pass
        tree._root_envelope = _built(here[0])
    return tree._root_envelope


def dp_value(tree: TreeInstance, budget) -> Ext:
    """V(root, budget) by exact backward induction.

    Agrees with the LP oracle exactly; budget may be +inf (no constraint).
    """
    return Ext(root_envelope(tree).value(budget))
