"""Exact linear-programming oracle for the weak formulation.

The optimization is over joint laws of (increments, state path, stopping
node), encoded by per-node stop/continue masses with flow conservation.
Flow conservation determines every stop mass from the continue masses, so
the solver works in the continue masses u(v) of interior nodes:

    maximize    sum_v u(v) * [f(v)*dt + E_children pi - pi(v)]  + pi(root)
    subject to  u(root) <= 1,   u(child) <= p_j * u(parent),  u >= 0,
                sum_v u(v) * g_i(v)*dt <= y_i,
                sum_v u(v) * h_i(v)*dt  = z_i,

which is the same polytope expressed in fewer variables; the reported
optimum is returned as a full stop/continue measure.  Everything is exact
rational arithmetic via a Bland-rule simplex, so optimal values and dual
prices are exact.  Bounds y_i = +inf drop their row; equality targets of
+-inf are unsatisfiable on a finite tree and report infeasibility with a
reason code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import simplex
from .errors import EmptyFamily, InvariantViolation
from .lattice import ROOT, BudgetVector, TreeInstance, Word
from .measures import StoppingMeasure, _pushed_forward
from .rules import RandomizedStoppingRule
from .xreal import Ext

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class SolveResult:
    status: str
    value: Optional[Ext] = None
    measure: Optional[StoppingMeasure] = None
    duals_ineq: Tuple[Fraction, ...] = ()
    duals_eq: Tuple[Fraction, ...] = ()
    reason: Optional[str] = None
    certificate: Optional[list] = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _budgets_or_default(tree: TreeInstance, budgets: Optional[BudgetVector]) -> BudgetVector:
    if budgets is None:
        return BudgetVector.of(tree.constraints)
    spec = tree.constraints
    if len(budgets.ys) != spec.n_ineq or len(budgets.zs) != spec.n_eq:
        raise ValueError("budget vector does not match the constraint spec")
    return budgets


def solve_weak(tree: TreeInstance, budgets: Optional[BudgetVector] = None) -> SolveResult:
    """Maximize expected reward over all stopping measures within budgets."""
    budgets = _budgets_or_default(tree, budgets)

    for z in budgets.zs:
        if not z.is_finite:
            return SolveResult(status=INFEASIBLE,
                               reason="equality target is infinite; finite trees "
                                      "accrue only finite integrals")

    interior: List[Word] = [w for w in tree.nodes() if len(w) < tree.depth]
    index = {w: i for i, w in enumerate(interior)}
    n = len(interior)

    # per node: continuing's gain, the children's mean stop payoff less the
    # node's (f*dt + E_children pi - pi), and the step accruals g_i*dt, then
    # h_i*dt, that every child shares
    obj, steps = [], []
    for w in interior:
        _, Gs, Hs = tree._functionals(w)
        _, G_kid, H_kid = tree._functionals(w + (0,))
        steps.append([b - a for a, b in zip(Gs + Hs, G_kid + H_kid)])
        obj.append(sum(p * tree.stop_payoff(w + (j,))
                       for j, (p, _) in enumerate(tree.branching[len(w)]))
                   - tree.stop_payoff(w))

    rows, senses, rhs = [], [], []
    for w, i in index.items():
        row = [Fraction(0)] * n
        row[i] = Fraction(1)
        if w == ROOT:
            rows.append(row); senses.append("<="); rhs.append(Fraction(1))
        else:
            parent = index[w[:-1]]
            p, _ = tree.branching[len(w) - 1][w[-1]]
            row[parent] = -p
            rows.append(row); senses.append("<="); rhs.append(Fraction(0))
    ineq_rows = []
    for k, y in enumerate(budgets.ys):
        if y.is_pos_inf:
            ineq_rows.append(None)  # vacuous: no constraint at all
            continue
        ineq_rows.append(len(rows))
        rows.append([st[k] for st in steps]); senses.append("<="); rhs.append(y.fraction())
    eq_rows = []
    for k, z in enumerate(budgets.zs):
        eq_rows.append(len(rows))
        rows.append([st[tree.constraints.n_ineq + k] for st in steps])
        senses.append("="); rhs.append(z.fraction())

    # a depth-0 tree has no columns: the simplex then only checks the
    # budgets against the measure that stops at the root
    res = simplex.solve_lp(obj, rows, senses, rhs, maximize=True)
    if res.status == simplex.INFEASIBLE:
        return SolveResult(status=INFEASIBLE, reason="empty constraint set",
                           certificate=res.certificate)
    if res.status != simplex.OPTIMAL:
        raise InvariantViolation(
            f"the mass polytope is bounded, but the LP came back {res.status}")

    u_val = {w: res.x[i] for w, i in index.items()}
    measure = _pushed_forward(tree, lambda w, arrive: u_val.get(w, Fraction(0)))
    measure.validate(tree)
    duals_ineq = tuple(
        res.duals[ineq_rows[k]] if ineq_rows[k] is not None else Fraction(0)
        for k in range(len(budgets.ys)))
    duals_eq = tuple(res.duals[eq_rows[k]] for k in range(len(budgets.zs)))
    value = Ext(res.objective + tree.terminal_at(ROOT))
    check = measure.expectations(tree)["value"]
    if check != value:
        raise InvariantViolation(
            f"objective {value} disagrees with the measure's value {check}")
    return SolveResult(status=OPTIMAL, value=value, measure=measure,
                       duals_ineq=duals_ineq, duals_eq=duals_eq)


def measure_to_rule(tree: TreeInstance, measure: StoppingMeasure) -> RandomizedStoppingRule:
    """Conditional stop probabilities of a measure; q = 1 off the support.

    Round-trips exactly: pushing the rule forward recovers the measure on
    every node (unreachable subtrees carry zero mass on both sides).
    """
    q: Dict[Word, Fraction] = {}
    for w in tree.nodes():
        r = measure.reach(w)
        q[w] = measure.stop(w) / r if r > 0 else Fraction(1)
    rule = RandomizedStoppingRule(q=q)
    rule.validate(tree)
    return rule


def fractional_nodes(tree: TreeInstance, measure: StoppingMeasure) -> List[Word]:
    """Nodes where the measure genuinely randomizes (0 < q < 1)."""
    return [w for w in tree.nodes() if measure.stop(w) > 0 and measure.cont(w) > 0]


def solve_robust(trees: Sequence[TreeInstance],
                 budgets: Optional[BudgetVector] = None) -> Tuple[SolveResult, Optional[int]]:
    """Best value across a finite family of models sharing the functionals.

    Returns the winning solve and its index; infeasible members are
    skipped, and the result is infeasible only if every member is.
    """
    trees = list(trees)
    if not trees:
        raise EmptyFamily("robust solve needs at least one model")
    shapes = {(t.constraints.n_ineq, t.constraints.n_eq) for t in trees}
    if len(shapes) != 1:
        raise ValueError("family members must share the constraint shape")
    best: Optional[SolveResult] = None
    best_idx: Optional[int] = None
    for i, tree in enumerate(trees):
        res = solve_weak(tree, budgets)
        if not res.optimal:
            continue
        if best is None or res.value > best.value:
            best, best_idx = res, i
    if best is None:
        return SolveResult(status=INFEASIBLE, reason="all family members infeasible"), None
    return best, best_idx
