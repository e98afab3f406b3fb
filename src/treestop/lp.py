"""Exact weak-formulation solver: column generation over pure stopping times.

The optimization is over joint laws of (increments, state path, stopping
node).  On a finite tree the extreme points of that set are the pure
stopping times, so an optimum mixes at most k + 1 of them, and the solver
works with such mixtures (Dantzig-Wolfe).  The master LP over the mixture
weights lam_t of the pure stopping times t found so far,

    maximize    sum_t lam_t E[V(t)]
    subject to  sum_t lam_t E[G_i(t)] <= y_i      (finite y_i only),
                sum_t lam_t E[H_j(t)]  = z_j,
                sum_t lam_t = 1,   lam >= 0,

is one ``simplex.Tableau``, kept for the whole solve: each priced column
enters it at the last basis, and the next solve resumes from there.  V is
the stop payoff (accrued reward plus terminal payoff) and G_i, H_j the
accruals at the stopping node.  Columns are priced by one Snell pass over
the tree's node table (``TreeInstance._node_table``): at weights w on
(V, G, H) the payoff sum_c w_c P(v) X_c(v) and its envelope
S(v) = max(payoff(v), sum of S over the children) are ints in
path-probability units over one common scale, so a pass does no Fraction
arithmetic.  Its stopping time stops where the payoff attains S (ties
stop).

- While the restricted master is infeasible, its Farkas vector y prices: a
  pure stopping time with y . (E G, E H, 1) > 0 enters.  When none does, y
  separates the budgets from every law, since every law mixes pure stopping
  times, and it is the infeasibility certificate.
- Once the master is feasible, its duals (pi, mu, nu) price: a pure
  stopping time with E[V - pi.G - mu.H] > nu enters, until none does.  The
  master's duals are then optimal for the whole problem.

Every entering column has a positive violation or reduced cost, so it
cannot already be in the master, and the loop ends; a priced column that is
raises ``InvariantViolation``.

The master's mixture may randomize at more nodes than there are
constraints, so a crossover returns a vertex.  At the final duals every
node that the Lagrangian policy reaches is stop-strict, continue-strict or
tied (payoff equal to the children's sum).  One small LP over the continue
fractions alpha_t of the tied nodes, in BFS order, with
0 <= alpha_t <= alpha of the nearest tied ancestor (1 if there is none),
carries the budget rows less the accruals of stopping at every tie.  Its
basic optimum is a vertex of the optimal face, so the measure randomizes at
no more nodes than there are constraints.  With no tie the Lagrangian
policy is the measure, and no LP runs.

A tree keeps its last solve: ``solve_weak`` at budgets equal to the last
ones it solved that tree at returns the stored result, infeasible or
optimal, so every verifier of one tree reads one solve.  Results are frozen
for that reason.

Everything is exact.  Bounds y_i = +inf drop their row and get dual 0;
equality targets of +-inf are unsatisfiable on a finite tree and report
infeasibility with a reason code.  An infeasibility certificate holds one
multiplier per inequality (0 for a vacuous one), then one per equality,
then the convexity row's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from . import simplex
from .errors import EmptyFamily, InvariantViolation
from .lattice import BudgetVector, NodeTable, TreeInstance, Word
from .measures import StoppingMeasure
from .rules import RandomizedStoppingRule
from .xreal import Ext

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolveResult:
    status: str
    value: Optional[Ext] = None
    measure: Optional[StoppingMeasure] = None
    duals_ineq: Tuple[Fraction, ...] = ()
    duals_eq: Tuple[Fraction, ...] = ()
    reason: Optional[str] = None
    certificate: Optional[tuple] = None

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


def _snell(table: NodeTable, weights: Sequence):
    """One backward pass at ``weights`` on the table's columns.

    Returns (payoff, envelope, scale): per node, the sum over c of
    weights[c] times column c, and its Snell envelope, both as ints in
    path-probability units times ``scale``.
    """
    qs = [Fraction(w) / den for w, den in zip(weights, table.dens)]
    scale = lcm(*(q.denominator for q in qs))
    pay = [0] * len(table.shape.probs)
    for q, col in zip(qs, table.cols):
        if q:
            w = q.numerator * (scale // q.denominator)
            pay = [a + w * b for a, b in zip(pay, col)]
    env = pay[:]
    first = table.shape.first
    for i in range(len(first) - 2, -1, -1):
        cont = sum(env[first[i]:first[i + 1]])
        if cont > env[i]:
            env[i] = cont
    return pay, env, scale


def _stopping_time(table: NodeTable, pay, env) -> Tuple[int, ...]:
    """The nodes where the pass's policy stops: the first node on each path
    whose payoff attains the envelope."""
    first, n_inner = table.shape.first, len(table.shape.first) - 1
    stops, frontier = [], [0]
    for i in frontier:
        if i >= n_inner or pay[i] == env[i]:
            stops.append(i)
        else:
            frontier.extend(range(first[i], first[i + 1]))
    return tuple(stops)


def _certify_optimal(tree: TreeInstance, budgets: BudgetVector, result: SolveResult):
    """Check exactly that an optimal result's duals (pi, mu) prove it optimal.

    With S the Snell envelope of V - pi.G - mu.H, every law within the
    budgets has E[V] <= S(root) + pi.y + mu.z when pi >= 0 (weak duality).
    The result attains that bound when: pi >= 0, with 0 on a vacuous bound;
    its measure (valid by construction) is within the budgets;
    complementary slackness holds (a bound with pi_i > 0 is met, and the
    measure stops only where the payoff attains S and continues only where
    the children's S does); and S(root) + pi.y + mu.z, over the finite
    budgets, is its value.  A failed check raises
    ``InvariantViolation``.  Returns ``_snell``'s envelope and scale at the
    duals, and the measure's expectations.
    """
    pi, mu = result.duals_ineq, result.duals_eq
    if any(p < 0 or (p and y.is_pos_inf) for p, y in zip(pi, budgets.ys)):
        raise InvariantViolation(
            f"inequality duals {pi} are not >= 0 with 0 on vacuous bounds")
    exp = result.measure.expectations(tree)
    if any(not got <= y for got, y in zip(exp["ineq"], budgets.ys)) \
            or any(got != z for got, z in zip(exp["eq"], budgets.zs)):
        raise InvariantViolation("the measure leaves the budgets")
    if any(p and got != y.fraction() for p, got, y in zip(pi, exp["ineq"], budgets.ys)):
        raise InvariantViolation("a bound with a positive dual has slack")

    table = tree._node_table()
    pay, env, scale = _snell(table, [1, *(-p for p in pi), *(-m for m in mu)])
    shape, first = table.shape, table.shape.first
    # a row the measure does not reach holds neither share
    for i, (s, u) in enumerate(zip(result.measure.stops, result.measure.conts)):
        if s and pay[i] != env[i]:
            raise InvariantViolation(
                f"the measure stops at {shape.word(i)}, where the payoff is below the envelope")
        if u and (i >= len(first) - 1 or sum(env[first[i]:first[i + 1]]) != env[i]):
            raise InvariantViolation(
                f"the measure continues at {shape.word(i)}, where stopping beats continuing")

    priced = sum(p * y.fraction() for p, y in zip(pi, budgets.ys) if p) \
        + sum(m * z.fraction() for m, z in zip(mu, budgets.zs))
    if Fraction(env[0], scale) + priced != result.value:
        raise InvariantViolation(
            f"the duals price the budgets at {Fraction(env[0], scale) + priced}, "
            f"not at the value {result.value}")
    return env, scale, exp


def solve_weak(tree: TreeInstance, budgets: Optional[BudgetVector] = None) -> SolveResult:
    """Maximize expected reward over all stopping measures within budgets.

    The tree keeps the last result with its budgets (``tree._solved``), so
    a repeat at equal budgets returns that same result object.
    """
    budgets = _budgets_or_default(tree, budgets)
    solved = tree._solved  # read once: a racing solve may replace the slot
    if solved is not None and solved[0] == budgets:
        return solved[1]
    result = _solve(tree, budgets)
    tree._solved = (budgets, result)
    return result


def _solve(tree: TreeInstance, budgets: BudgetVector) -> SolveResult:
    for z in budgets.zs:
        if not z.is_finite:
            return SolveResult(status=INFEASIBLE,
                               reason="equality target is infinite; finite trees "
                                      "accrue only finite integrals")

    table = tree._node_table()
    n_ineq = len(budgets.ys)
    # budget rows: each finite bound and each target names its table column
    # (1 + i for G_i, 1 + n_ineq + j for H_j)
    rows = [1 + i for i, y in enumerate(budgets.ys) if not y.is_pos_inf]
    rhs = [budgets.ys[r - 1].fraction() for r in rows]
    senses = ["<="] * len(rows) + ["="] * len(budgets.zs)
    rows += [1 + n_ineq + j for j in range(len(budgets.zs))]
    rhs += [z.fraction() for z in budgets.zs]

    def spread(first, ys):
        """Per-column weights: ``first`` on the stop payoff, ys on the rows."""
        out = [first] + [Fraction(0)] * (len(table.cols) - 1)
        for r, y in zip(rows, ys):
            out[r] = y
        return out

    columns: List[Tuple[Fraction, ...]] = []
    master = simplex.Tableau([], [[] for _ in range(len(rows) + 1)],  # + the convexity row
                             senses + ["="], rhs + [1])
    pay, env, _ = _snell(table, spread(1, ()))  # the unconstrained optimum
    while True:
        stops = _stopping_time(table, pay, env)
        column = tuple(Fraction(sum(map(col.__getitem__, stops)), den)
                       for col, den in zip(table.cols, table.dens))
        if column in columns:
            raise InvariantViolation(
                f"pricing returned a column already in the master: {len(columns)} "
                f"columns, stopping at {[table.shape.word(i) for i in stops]}")
        columns.append(column)
        master.enter(column[0], [column[r] for r in rows] + [1])
        res = master.solve()
        if res.status == simplex.INFEASIBLE:
            y = res.certificate
            weights = spread(0, y)
            pay, env, scale = _snell(table, weights)
            if env[0] + y[-1] * scale > 0:
                continue
            return SolveResult(status=INFEASIBLE, reason="empty constraint set",
                               certificate=(*weights[1:], y[-1]))
        if res.status != simplex.OPTIMAL:
            raise InvariantViolation(
                f"the mass polytope is bounded, but the master LP came back "
                f"{res.status}")
        duals = res.duals
        pay, env, scale = _snell(table, spread(1, [-d for d in duals]))
        if env[0] <= duals[-1] * scale:
            break

    measure = _vertex(table, pay, env, rows, senses, rhs)
    prices = spread(0, duals)
    value = Ext(master.objective())
    check = measure.expectations(tree)["value"]
    if check != value:
        raise InvariantViolation(
            f"objective {value} disagrees with the measure's value {check}")
    return SolveResult(status=OPTIMAL, value=value, measure=measure,
                       duals_ineq=tuple(prices[1:1 + n_ineq]),
                       duals_eq=tuple(prices[1 + n_ineq:]))


def _vertex(table: NodeTable, pay, env, rows, senses, rhs) -> StoppingMeasure:
    """The crossover: a vertex of the optimal face at the final pass.

    Stop-strict nodes stop, continue-strict nodes continue, and each tied
    node t continues the share alpha_t of its path probability, where
    alpha solves an LP over the ties.  A reached node receives the share
    its nearest tied ancestor continues (1 if there is none).  The shares
    are ints over the alphas' least common denominator.
    """
    shape = table.shape
    first, n_inner = shape.first, len(shape.first) - 1
    tied = []
    # reached node -> its nearest tied ancestor (None: the root's mass 1);
    # gain[t] -> the accruals that alpha_t scales, gain[None] -> those of
    # stopping at every tie, both as ints over the table's denominators
    anchor, gain = {0: None}, {None: [0] * len(table.cols)}
    frontier = [0]
    for i in frontier:
        a = anchor[i]
        stop = i >= n_inner or pay[i] > (cont := sum(env[first[i]:first[i + 1]]))
        if stop or pay[i] == cont:  # stopping here accrues to the anchor
            gain[a] = [g + col[i] for g, col in zip(gain[a], table.cols)]
        if stop:
            continue
        if pay[i] == cont:
            tied.append(i)
            gain[i] = [-col[i] for col in table.cols]
            a = i
        for c in range(first[i], first[i + 1]):
            anchor[c] = a
            frontier.append(c)

    scale, alpha = 1, {None: 1}  # continued shares, as ints over scale
    if tied:
        lp_rows, lp_rhs = [], [int(anchor[t] is None) for t in tied]
        for j, t in enumerate(tied):  # alpha_t <= alpha of its anchor, or 1
            row = [0] * len(tied)
            row[j] = 1
            if anchor[t] is not None:
                row[tied.index(anchor[t])] = -1
            lp_rows.append(row)
        fixed, dens = gain[None], table.dens
        for r, b in zip(rows, rhs):
            lp_rows.append([Fraction(gain[t][r], dens[r]) for t in tied])
            lp_rhs.append(b - Fraction(fixed[r], dens[r]))
        res = simplex.solve_lp([Fraction(gain[t][0], dens[0]) for t in tied], lp_rows,
                               ["<="] * len(tied) + senses, lp_rhs)
        if res.status != simplex.OPTIMAL:
            raise InvariantViolation(
                f"the optimal face holds the master's mixture, but the crossover "
                f"LP came back {res.status}")
        scale = alpha[None] = lcm(*(a.denominator for a in res.x))
        alpha.update(zip(tied, (a.numerator * (scale // a.denominator) for a in res.x)))
    stops, conts = [0] * len(shape.probs), [0] * len(shape.probs)
    for i in frontier:  # a node that is not tied continues iff its children are reached
        arrive = alpha[anchor[i]]
        conts[i] = alpha.get(i, arrive if i < n_inner and first[i] in anchor else 0)
        stops[i] = arrive - conts[i]
    return StoppingMeasure(shape, tuple(stops), tuple(conts), scale)


def measure_to_rule(tree: TreeInstance, measure: StoppingMeasure) -> RandomizedStoppingRule:
    """Conditional stop probabilities of a measure; q = 1 off the support.

    Round-trips exactly: pushing the rule forward recovers the measure on
    every node (unreachable subtrees carry zero mass on both sides).
    """
    return RandomizedStoppingRule(measure.validate(tree), tuple(
        Fraction(s, s + u) if s + u else Fraction(1)
        for s, u in zip(measure.stops, measure.conts)))


def fractional_nodes(tree: TreeInstance, measure: StoppingMeasure) -> List[Word]:
    """Nodes where the measure genuinely randomizes (0 < q < 1)."""
    return [w for w, s, u in zip(measure.validate(tree).words(), measure.stops, measure.conts)
            if s > 0 and u > 0]


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
