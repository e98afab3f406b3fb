"""Backward induction in the budget variable for one inequality constraint.

A node's value as a function of the remaining expected budget is a concave
piecewise-linear envelope (LP values are concave in the right-hand side),
so backward induction is exact and equals the LP oracle: merge the
children's envelopes by marginal slope, shift by the step's reward and
budget accrual, and take the non-decreasing concave hull with the stop point.

A node's envelope depends on its path only through what the instance's
functions read.  When they read only t, the state and its running sup (as
every loaded instance's do), the tree's cached keyed walk
(``TreeInstance._keys``, which the node table reads too) folds each
depth's nodes with one (state, sup), matched by its reduced int
numerators and denominators, into one key; on other trees every node is
its own key.  The sweep keeps one chain per key: its value conditional
on reaching the key, as (x0, v0, top value, (rise, width) segments
steepest first), all Python ints.  At depth k budgets are ints
over U_k * G and values over U_k * V, where U_k is the product of the
branch denominators of levels k to depth - 1 (``_branch_ints``), and G
and V are the least common denominators of the budget steps g * dt and
of the reward steps f * dt and stop payoffs (``_keys``).  So a parent's
continuation is the sum of its children's chains times their int branch
numerators; segments sort steepest first on their slopes rounded to
floats, cross-multiplied only where two floats are equal (and sorted by
cross multiplication alone when floats hide the order or overflow), and
equal slopes merge by adding rises and widths.  The stop point (0, stop
value) is pasted by walking kinks from x0 only as far as needed.

Fractions appear only at the boundary: ``_built`` checks the root's chain
in ints and divides it by the root level's two units, once per tree
(``root_envelope`` caches the envelope on the instance).

Other constraint mixes, equality targets included, go to the LP oracle.
"""

from __future__ import annotations

from .envelope import ConcaveEnvelope, _built, _merged
from .errors import UnsupportedConstraintShape
from .lattice import TreeInstance
from .xreal import Ext


def _require_scalar_shape(tree: TreeInstance) -> None:
    spec = tree.constraints
    if spec.n_ineq != 1 or spec.n_eq != 0:
        raise UnsupportedConstraintShape(
            "the budget engine handles exactly one inequality constraint; "
            "use the LP oracle for general constraint mixes")


def _paste(stop, reward_step, budget_step, kids):
    """A node's chain from its children's (weight, chain) pairs, all ints in
    one pair of units; every comparison of slopes is cross-multiplied."""
    x0, v0, top, segments = _merged(kids, budget_step, reward_step)
    n = len(segments)  # kink n is the top
    xs, vs = [x0], [v0]  # the kinks left of x = 0, then the first one right
    while xs[-1] < 0 and len(xs) <= n:
        r, w = segments[len(xs) - 1]
        xs.append(xs[-1] + w), vs.append(vs[-1] + r)
    i = len(xs) - (xs[-1] >= 0)  # kinks xs[:i] lie left of the stop point
    if i <= n and xs[i] == 0:
        covered = stop <= vs[i]
    elif i > n:
        covered = stop <= top
    elif i > 0:  # the chain's value at x = 0 on segment i - 1 is at least stop
        r, w = segments[i - 1]
        covered = stop * w <= vs[i - 1] * w - r * xs[i - 1]
    else:
        covered = False
    if covered:
        return x0, v0, top, segments
    # the point lies above the chain: it drops the kinks under its chords to
    # either side, and every kink right of it when it is at or above the top
    if stop >= top:
        top, right = stop, ()
    else:
        # kink j is the first that stays right of the point; one at x = 0 goes
        j, x, v = i, xs[i], vs[i]
        while j < n and (x == 0 or (v - stop) * segments[j][1] <= segments[j][0] * x):
            r, w = segments[j]
            j, x, v = j + 1, x + w, v + r
        right = (v - stop, x), *segments[j:]
    while i >= 2 and (segments[i - 2][0] * -xs[i - 1]
                      <= (stop - vs[i - 1]) * segments[i - 2][1]):
        i -= 1
    if i == 0:
        return 0, stop, top, right
    chord = (stop - vs[i - 1], -xs[i - 1])
    return xs[0], vs[0], top, (*segments[:i - 1], chord, *right)


def _sweep(tree: TreeInstance):
    """Each level's chains and units, leaves first, from the tree's cached
    walk ``tree._keys()``; two levels of chains are held at a time.  A
    depth-k key's chain is its value conditional on reaching the key,
    budgets as ints over U_k * G and values over U_k * V: the level's units."""
    _require_scalar_shape(tree)
    walk, (units, branch) = tree._keys(), tree._branch_ints()
    (V, G), pays, steps, kids = walk.ones, walk.pays, walk.steps, walk.kids
    below, u = [], 1
    for k in reversed(range(tree.depth + 1)):
        if k == tree.depth:
            here = [(0, stop, stop, ()) for stop in pays[k]]
        else:
            u *= units[k]
            here = [_paste(u * stop, u * f, u * g, [(b, below[i]) for b, i in zip(branch[k], ks)])
                    for stop, (f, g), ks in zip(pays[k], steps[k], kids[k])]
        yield here, (u * G, u * V)
        below = here


def root_envelope(tree: TreeInstance) -> ConcaveEnvelope:
    """The root's envelope, computed once per tree and then cached on it."""
    if tree._root_envelope is None:
        for here, unit in _sweep(tree):
            pass
        tree._root_envelope = _built(here[0], *unit)
    return tree._root_envelope


def dp_value(tree: TreeInstance, budget) -> Ext:
    """V(root, budget) by exact backward induction.

    Agrees with the LP oracle exactly; budget may be +inf (no constraint).
    """
    return Ext(root_envelope(tree).value(budget))
