"""Conditioning and two-sided verification of the value recursion.

Cutting a solved instance at an intermediate stopping stage splits every
feasible measure into a prefix and, per surviving node, a conditional
measure on the subtree.  Conditioning is budget-stable: each conditional
measure is feasible for the conditional expected remaining accruals
(Y, Z) of its node, exactly.  ``condition`` does that split on an
explicit measure; its inverse, pasting subtree measures back below the
cut, is a test oracle.

``verify_dpp`` settles the recursion at any cut from one Snell pass.  Take
the root solve's duals (pi >= 0, mu) and let S be the Snell envelope of
the payoff V - pi.G - mu.H, in path-probability units (Lagrangian duality
for constrained stopping: Kennedy 1982; Ankirchner, Klein & Kruse 2019).
First the pass certifies the root: the measure is within budget, pi
prices only bounds it meets, it stops and continues only where S is
attained, and S(root) + pi.y + mu.z is its value.  Then at a survivor nu
with path probability P(nu), accruals (F, G, H)(nu) and conditional
budgets (Y, Z):

* super-solution: weak duality on the subtree bounds every law within
  (Y, Z) by S(nu)/P(nu) - F + pi.(G + Y) + mu.(H + Z), the ``subvalue``;
* sub-solution: the conditional law of the optimal measure attains S at
  every node it reaches and meets (Y, Z) exactly, so its value (the
  ``conditional_value``) is that bound, and the bound is the subtree
  optimum.

So one O(nodes) pass gives every survivor's subtree optimum at every cut,
with no subtree built or solved.  The decomposition evaluated at the
subtree optima (rhs) and at the conditional values (rhs_super) must agree,
and the accruals before and past the cut must add up to the measure's
(the tower identity); both are checked.  The reported gap is zero exactly
on rational instances.  The finite node set replaces measurable-selection
epsilon-arguments with exact per-node optima.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .errors import InvariantViolation
from .lattice import BudgetVector, TreeInstance, Word
from .lp import _budgets_or_default, _certify_optimal, solve_weak
from .measures import StoppingMeasure
from .rules import RandomizedStoppingRule

TauSpec = Union[int, Iterable[Word]]


def _read_cut(tree: TreeInstance, tau: TauSpec):
    """A cut is an antichain of nodes, none at the root, covering all paths:
    depth k's rows (a deterministic stage), or words (a stage that depends
    on the increment path).  Returns its words, their rows, and per row the
    place in the cut of the cut node at or above it (-1 above the cut), off
    which a duplicate, a nested pair and a missed leaf are read."""
    shape = tree._shape()
    owner = [-1] * len(shape.probs)
    if isinstance(tau, int):
        tree.check_depth(tau, 1, "cut depth")
        rows = range(shape.starts[tau], shape.starts[tau + 1])
        cut = tuple(map(shape.word, rows))
        owner[rows.start:rows.stop] = range(len(rows))
    else:
        cut, rows = tuple(tuple(w) for w in tau), []
        for c, w in enumerate(cut):
            i = tree.check_word(w)
            if i == 0:
                raise ValueError("the cut must come strictly after the start")
            if owner[i] >= 0:
                raise ValueError(f"duplicate cut node {w}")
            owner[i] = c
            rows.append(i)
        for w, i in zip(cut, rows):
            above = [c for c in map(owner.__getitem__, shape.path(i)[:-1]) if c >= 0]
            if above:  # the shallowest cut node above w
                raise ValueError(f"cut nodes {cut[above[0]]} and {w} are nested")
    for j, parent in enumerate(shape.parent):  # below a cut node, its place
        if owner[j] < 0:
            owner[j] = owner[parent]
    missed = [j for j in range(len(shape.first) - 1, len(owner)) if owner[j] < 0]
    if missed:
        raise ValueError(f"cut misses the path to {shape.word(missed[0])}")
    return cut, rows, owner


def _split(tree: TreeInstance, measure: StoppingMeasure, cut, rows, owner):
    """A measure split at a cut read by ``_read_cut``: its stop shares times
    the node table's columns, summed as ints per owner.  Returns the value
    of the stops before the cut, the accruals up to the cut (theirs plus
    reach times each survivor's), those stops, the unreached cut nodes, per
    survivor (nu, its row, reach mass, F and (G, H) at nu, conditional
    value, remaining accruals), and the tower sums (reach times the latter)."""
    table = tree._node_table()
    shape = table.shape
    sums = [[0] * len(table.cols) for _ in range(len(cut) + 1)]  # the last: owner -1
    stopped = []
    for i, weight in enumerate(measure.stops):
        if weight:
            at = sums[owner[i]]
            for c, col in enumerate(table.cols):
                at[c] += weight * col[i]
            if owner[i] < 0:
                w, den = shape.word(i), measure.scale * shape.prob_den
                F, Gs, Hs = tree._functionals(i)
                stopped.append({"node": w, "mass": Fraction(weight * shape.probs[i], den),
                                "F": F, "G": Gs, "H": Hs, "payoff": table.value(0, i)})
    value_before, *accrued = (Fraction(x, measure.scale * den)
                              for x, den in zip(sums[-1], table.dens))
    survivors, zero, tower = [], [], [Fraction(0)] * len(accrued)
    for nu, i, at in zip(cut, rows, sums):
        reach = measure.stops[i] + measure.conts[i]
        if reach == 0:
            zero.append(nu)
            continue
        r = Fraction(reach * shape.probs[i], measure.scale * shape.prob_den)
        F, Gs, Hs = tree._functionals(i)
        # the sums below nu over its reach mass
        value, *below = (Fraction(x * shape.prob_den, den * reach * shape.probs[i])
                         for x, den in zip(at, table.dens))
        at_nu = (*Gs, *Hs)
        rest = [a - x for a, x in zip(below, at_nu)]
        accrued = [a + x * r for a, x in zip(accrued, at_nu)]
        tower = [t + y * r for t, y in zip(tower, rest)]
        survivors.append((nu, i, r, F, at_nu, value - F, rest))
    return value_before, accrued, stopped, zero, survivors, tower


def first_randomization_cut(tree: TreeInstance, rule: RandomizedStoppingRule) -> Tuple[Word, ...]:
    """Adapted stage heuristic: cut where the rule first genuinely
    randomizes (0 < q < 1), no later than one step before the horizon."""
    rule.validate(tree)
    # rows and their depths, depth first, children in order; a recursive
    # closure would be a reference cycle that keeps the tree and its caches
    # alive until the cyclic collector runs
    shape, cap, cut, stack = tree._shape(), max(1, tree.depth - 1), [], [(0, 0)]
    while stack:
        i, k = stack.pop()
        if k and (k == cap or 0 < rule.q[i] < 1):
            cut.append(i)
        elif k < tree.depth:
            stack += ((c, k + 1) for c in reversed(range(shape.first[i], shape.first[i + 1])))
    return tuple(map(shape.word, cut))


@dataclass
class SurvivorData:
    node: Word
    mass: Fraction                      # reach mass at the cut node
    ys: Tuple[Fraction, ...]            # conditional remaining inequality accruals
    zs: Tuple[Fraction, ...]            # conditional remaining equality accruals
    measure: StoppingMeasure            # conditional measure on the subtree
    value: Fraction                     # the conditional measure's value
    subtree: TreeInstance


@dataclass
class ConditionalBudgets:
    cut: Tuple[Word, ...]
    survivors: Dict[Word, SurvivorData]
    stopped_before: List[dict]
    zero_survival: List[Word]
    tower_ineq: Tuple[Fraction, ...] = ()
    tower_eq: Tuple[Fraction, ...] = ()


def condition(tree: TreeInstance, measure: StoppingMeasure, tau: TauSpec) -> ConditionalBudgets:
    """Split a measure at a cut into conditional subtree measures and the
    conditional expected remaining accruals carried by each survivor.

    The conditional measure of a survivor is itself a valid stopping
    measure on the node's subtree and meets its (Y, Z) budgets exactly;
    zero-mass survivors are skipped and reported.
    """
    cut, rows, owner = _read_cut(tree, tau)
    measure.validate(tree)
    _, _, stopped_before, zero, split, tower = _split(tree, measure, cut, rows, owner)
    shape, table, n_i = tree._shape(), tree._node_table(), tree.constraints.n_ineq
    survivors: Dict[Word, SurvivorData] = {}
    for nu, i, r, F, at_nu, value, rest in split:
        # the subtree's rows are nu's descendants, and its shares are the
        # tree's over nu's reach share
        rows = shape.rows_below(i)
        stops = tuple(measure.stops[j] for j in rows)
        reach = measure.stops[i] + measure.conts[i]
        sub_tree = tree.subtree(nu)
        sub_measure = StoppingMeasure(sub_tree._shape(), stops,
                                      tuple(measure.conts[j] for j in rows), reach)
        # read from the tree's table: its stop shares times each column on those rows
        if [Fraction(sum(map(mul, stops, map(col.__getitem__, rows))) * shape.prob_den,
                     den * reach * shape.probs[i]) - x
                for col, den, x in zip(table.cols, table.dens, (F, *at_nu))] != [value, *rest]:
            raise InvariantViolation(
                f"the conditional value and budgets at {nu} differ from the "
                "conditional measure's value and accruals")
        survivors[nu] = SurvivorData(node=nu, mass=r, ys=tuple(rest[:n_i]),
                                     zs=tuple(rest[n_i:]), measure=sub_measure,
                                     value=value, subtree=sub_tree)

    return ConditionalBudgets(cut=cut, survivors=survivors,
                              stopped_before=stopped_before, zero_survival=zero,
                              tower_ineq=tuple(tower[:n_i]), tower_eq=tuple(tower[n_i:]))


def verify_dpp(tree: TreeInstance, tau: TauSpec,
               budgets: Optional[BudgetVector] = None) -> dict:
    """Check both inequality directions of the value recursion at a cut.

    lhs is the optimal value of ``solve_weak(tree, budgets)``, which is the
    tree's stored solve when its budgets are these.  Its duals must certify
    it (``lp._certify_optimal``).  rhs evaluates the decomposition at the
    optimal measure with every conditional measure replaced by its subtree
    optimum at the conditional budgets, read off the certificate's
    envelope; rhs_super evaluates it at the conditional measures
    themselves, and the two must agree.  The report's gap is rhs - lhs and
    equals zero exactly on all-rational instances.
    """
    budgets = _budgets_or_default(tree, budgets)
    base = solve_weak(tree, budgets)
    if not base.optimal:
        raise ValueError(f"base solve is {base.status}: {base.reason}")
    cut, rows, owner = _read_cut(tree, tau)
    env, env_scale, exp = _certify_optimal(tree, budgets, base)
    shape = tree._shape()
    prices = base.duals_ineq + base.duals_eq
    n_i = len(base.duals_ineq)

    rhs, accrued, stopped_before, zero, split, tower = _split(tree, base.measure, cut, rows, owner)
    rhs_super, per_node = rhs, []
    for nu, i, r, F, at_nu, value, rest in split:
        subvalue = Fraction(env[i] * shape.prob_den, env_scale * shape.probs[i]) - F \
            + sum(q * (x + y) for q, x, y in zip(prices, at_nu, rest))
        rhs += (F + subvalue) * r
        rhs_super += (F + value) * r
        per_node.append({
            "node": nu, "mass": r,
            "Y": tuple(rest[:n_i]), "Z": tuple(rest[n_i:]),
            "subvalue": subvalue,
            "conditional_value": value,
        })

    if rhs_super != rhs:
        raise InvariantViolation(
            f"the decomposition at the conditional values, {rhs_super}, differs "
            f"from the decomposed value {rhs}")
    if [a + t for a, t in zip(accrued, tower)] != [*exp["ineq"], *exp["eq"]]:
        raise InvariantViolation(
            "the accruals before the cut and past it do not add up to the "
            "measure's expected accruals")

    gap = rhs - base.value.fraction()
    return {
        "lhs": base.value,
        "rhs_sub": rhs,
        "rhs_super": rhs_super,
        "gap": gap,
        "pass": gap == 0,
        "tau": cut,
        "per_node": per_node,
        "stopped_before": stopped_before,
        "zero_survival": zero,
        "tower_ineq": tuple(tower[:n_i]),
        "tower_eq": tuple(tower[n_i:]),
    }
