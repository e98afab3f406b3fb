"""Conditioning, pasting, and two-sided verification of the value recursion.

Cutting a solved instance at an intermediate stopping stage splits every
feasible measure into a prefix and, per surviving node, a conditional
measure on the subtree.  Conditioning is budget-stable: each conditional
measure is feasible for the conditional expected remaining accruals
(Y, Z) of its node, exactly.  ``condition`` and ``paste`` do that split
and its inverse on explicit measures.

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
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .errors import InvariantViolation, ShapeMismatch
from .lattice import ROOT, BudgetVector, TreeInstance, Word
from .lp import SolveResult, _budgets_or_default, _certify_optimal, solve_weak
from .measures import StoppingMeasure, _stop_weights
from .rules import RandomizedStoppingRule

TauSpec = Union[int, Iterable[Word]]


def _walk(tree: TreeInstance, stops) -> Iterator[Word]:
    """The tree's nodes in BFS order from the root, without those below a
    node in ``stops`` (which is itself yielded)."""
    level = [ROOT]
    while level:
        yield from level
        level = [kid for w in level if w not in stops for kid in tree.children(w)]


def normalize_cut(tree: TreeInstance, tau: TauSpec) -> Tuple[Word, ...]:
    """A cut is an antichain of nodes, none at the root, covering all paths.

    An integer k means "all nodes at depth k" (a deterministic stage); a
    collection of words gives a stage that depends on the increment path.
    """
    if isinstance(tau, int):
        if not 1 <= tau <= tree.depth:
            raise ValueError(f"cut depth must be in [1, {tree.depth}], got {tau}")
        cut = tuple(w for w in tree.nodes() if len(w) == tau)
        return cut
    cut = tuple(tuple(w) for w in tau)
    seen = set()
    for w in cut:
        tree.check_word(w)
        if len(w) == 0:
            raise ValueError("the cut must come strictly after the start")
        if w in seen:
            raise ValueError(f"duplicate cut node {w}")
        seen.add(w)
    for w in cut:
        for k in range(len(w)):
            if w[:k] in seen:
                raise ValueError(f"cut nodes {w[:k]} and {w} are nested")
    for w in _walk(tree, seen):
        if len(w) == tree.depth and w not in seen:
            raise ValueError(f"cut misses the path to {w}")
    return cut


def first_randomization_cut(tree: TreeInstance, rule: RandomizedStoppingRule) -> Tuple[Word, ...]:
    """Adapted stage heuristic: cut where the rule first genuinely
    randomizes (0 < q < 1), no later than one step before the horizon."""
    cap = max(1, tree.depth - 1)
    cut: List[Word] = []
    # depth first, children in order; a recursive closure would be a
    # reference cycle that keeps the tree and its caches alive until the
    # cyclic collector runs
    stack = [ROOT]
    while stack:
        word = stack.pop()
        if len(word) >= 1 and (len(word) == cap or 0 < rule.prob(word) < 1):
            cut.append(word)
        else:
            stack.extend(reversed(tree.children(word)))
    return tuple(cut)


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
    cut = normalize_cut(tree, tau)
    measure.validate(tree)
    in_cut = set(cut)

    stopped_before: List[dict] = []
    for w in _walk(tree, in_cut):
        if w not in in_cut and measure.stop(w) > 0:
            F, Gs, Hs = tree._functionals(w)
            stopped_before.append({"node": w, "mass": measure.stop(w), "F": F,
                                   "G": Gs, "H": Hs, "payoff": tree.stop_payoff(w)})

    survivors: Dict[Word, SurvivorData] = {}
    zero: List[Word] = []
    n_i, n_e = tree.constraints.n_ineq, tree.constraints.n_eq
    tower_i = [Fraction(0)] * n_i
    tower_e = [Fraction(0)] * n_e
    for nu in cut:
        r = measure.reach(nu)
        if r == 0:
            zero.append(nu)
            continue
        F_nu, G_nu, H_nu = tree._functionals(nu)
        sub_tree = tree.subtree(nu)
        sub_s, sub_u = {}, {}  # the conditional measure's masses
        stops = {}  # the conditional stop mass, on the tree's own words
        ys = [Fraction(0)] * n_i
        zs = [Fraction(0)] * n_e
        for rel in sub_tree.nodes():
            w = nu + rel
            sub_s[rel] = measure.stop(w) / r
            sub_u[rel] = measure.cont(w) / r
            if sub_s[rel] > 0:
                stops[w] = sub_s[rel]
                _, G_w, H_w = tree._functionals(w)
                for i in range(n_i):
                    ys[i] += (G_w[i] - G_nu[i]) * sub_s[rel]
                for i in range(n_e):
                    zs[i] += (H_w[i] - H_nu[i]) * sub_s[rel]
        sub_measure = StoppingMeasure(s=sub_s, u=sub_u)
        sub_measure.validate(sub_tree)
        # read from the tree's table (expectations read only the stop mass);
        # the subtree accrues from 0 at nu, so its own are these less nu's
        exp = StoppingMeasure(s=stops, u={}).expectations(tree)
        value = exp["value"] - F_nu
        if (tuple(a - a_nu for a, a_nu in zip(exp["ineq"], G_nu)) != tuple(ys)
                or tuple(a - a_nu for a, a_nu in zip(exp["eq"], H_nu)) != tuple(zs)):
            raise InvariantViolation(
                f"conditional budgets at {nu} differ from the conditional "
                "measure's accruals")
        for i in range(n_i):
            tower_i[i] += ys[i] * r
        for i in range(n_e):
            tower_e[i] += zs[i] * r
        survivors[nu] = SurvivorData(node=nu, mass=r, ys=tuple(ys), zs=tuple(zs),
                                     measure=sub_measure, value=value,
                                     subtree=sub_tree)

    return ConditionalBudgets(cut=cut, survivors=survivors,
                              stopped_before=stopped_before, zero_survival=zero,
                              tower_ineq=tuple(tower_i), tower_eq=tuple(tower_e))


def paste(tree: TreeInstance, measure: StoppingMeasure, tau: TauSpec,
          submeasures: Dict[Word, StoppingMeasure]) -> StoppingMeasure:
    """Replace the subtree behavior of a measure past a cut.

    Keeps the prefix of ``measure`` up to the cut; below each cut node with
    positive reach, grafts the supplied subtree measure scaled by the reach
    mass.  Cut nodes without a replacement keep their original subtree.
    The result is validated as a measure on the full tree.
    """
    cut = normalize_cut(tree, tau)
    s: Dict[Word, Fraction] = {}
    u: Dict[Word, Fraction] = {}
    grafted = set()
    for nu in cut:
        sub = submeasures.get(nu)
        if sub is None:
            continue
        r = measure.reach(nu)
        if r == 0 and any(v != 0 for v in list(sub.s.values()) + list(sub.u.values())):
            raise ShapeMismatch(f"submeasure at unreachable node {nu}")
        rels = list(tree.subtree(nu).nodes())
        if not (set(sub.s) | set(sub.u)).issubset(rels):
            raise ShapeMismatch(f"submeasure at {nu} has nodes outside the subtree")
        for rel in rels:
            s[nu + rel] = r * sub.stop(rel)
            u[nu + rel] = r * sub.cont(rel)
        grafted.add(nu)
    for w in _walk(tree, grafted):
        if w not in grafted:
            s[w] = measure.stop(w)
            u[w] = measure.cont(w)
    pasted = StoppingMeasure(s=s, u=u)
    pasted.validate(tree)
    return pasted


def verify_dpp(tree: TreeInstance, tau: TauSpec,
               budgets: Optional[BudgetVector] = None,
               result: Optional[SolveResult] = None) -> dict:
    """Check both inequality directions of the value recursion at a cut.

    lhs is the optimal value: that of ``result``, an optimal ``solve_weak``
    result of this tree at these budgets, or else of one solve.  Its duals
    must certify it (``lp._certify_optimal``).  rhs evaluates the
    decomposition at the optimal measure with every conditional measure
    replaced by its subtree optimum at the conditional budgets, read off
    the certificate's envelope; rhs_super evaluates it at the conditional
    measures themselves, and the two must agree.  The report's gap is
    rhs - lhs and equals zero exactly on all-rational instances.
    """
    base = solve_weak(tree, budgets) if result is None else result
    if not base.optimal:
        raise ValueError(f"base solve is {base.status}: {base.reason}")
    cut = normalize_cut(tree, tau)
    env, env_scale, exp = _certify_optimal(tree, _budgets_or_default(tree, budgets), base)
    measure, table = base.measure, tree._node_table()
    prices = base.duals_ineq + base.duals_eq
    n_i = len(base.duals_ineq)

    # stop mass times (V, G, H), summed below each cut node and (at None)
    # over the nodes that stop before the cut, which are also listed; the
    # sums are ints over the table's denominators times one scale
    in_cut = set(cut)
    below = {nu: [0] * len(table.cols) for nu in (None, *cut)}
    stopped_before: List[dict] = []
    rows, weights, scale = _stop_weights(table, measure.s)
    for i, weight in sorted(zip(rows, weights)):
        w = table.words[i]
        nu = next((w[:k] for k in range(1, len(w) + 1) if w[:k] in in_cut), None)
        if nu is None:
            F, Gs, Hs = tree._functionals(w)
            stopped_before.append({"node": w, "mass": measure.s[w], "F": F, "G": Gs,
                                   "H": Hs, "payoff": table.value(0, i)})
        sums = below[nu]
        for c, col in enumerate(table.cols):
            sums[c] += weight * col[i]
    below = {nu: [Fraction(x, scale * den) for x, den in zip(sums, table.dens)]
             for nu, sums in below.items()}

    rhs = rhs_super = below[None][0]
    # the tower identity's terms: accruals where the measure stops before
    # the cut and at each survivor, and reach times each survivor's
    # conditional remaining accruals
    accrued, tower = below[None][1:], [Fraction(0)] * len(prices)
    per_node, zero = [], []
    for nu in cut:
        r = measure.reach(nu)
        if r == 0:
            zero.append(nu)
            continue
        F, Gs, Hs = tree._functionals(nu)
        sums = below[nu]
        value = sums[0] / r - F
        at_nu = (*Gs, *Hs)
        rest = [a / r - x for a, x in zip(sums[1:], at_nu)]
        i = table.index[nu]
        subvalue = Fraction(env[i] * table.prob_den, env_scale * table.probs[i]) - F \
            + sum(q * (x + y) for q, x, y in zip(prices, at_nu, rest))
        rhs += (F + subvalue) * r
        rhs_super += (F + value) * r
        for c, (x, y) in enumerate(zip(at_nu, rest)):
            accrued[c] += x * r
            tower[c] += y * r
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

    gap = rhs - base.value
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
