"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the solver paths under test: values
come from direct enumeration of (word, stop depth) atoms, plain backward
induction, brute-force grids, the dense node LP that column generation
must match value for value, the per-survivor subtree LPs that the DPP
verifier's Snell pass must match report for report, a Fraction-tableau
simplex that the integer-row solver must match result for result, a per-statistic membership sweep that the
shared sweep must match statistic for statistic (with the word-keyed claimed
points and cylinder-weight battery that the row form must match weight for
weight), and a node-by-node envelope
recursion that the level-order sweep must match envelope for envelope, and
the tree-walking interpreter of instance expressions that the compiled
expressions must match value for value, the word-by-word node table,
accruals, expectations and instance generator that the keyed integer walk
must match value for value, the keyed walk that carried every
representative's state path, which the walk by (state, sup) key must
match level for level, and the word-keyed forward push and measure
validator that the measures' row form must match mass for mass, and the
exact-sort chain merge that the float-keyed ``_merged`` must match chain
for chain, and the Fraction survival products and eta integral that the
rules' int forms must match measure for measure, and the negative
controls built from a measure's word dicts that the row-built controls must
match law for law.

Some helpers here are test-only API rather than independent references:
``increment_sum``; ``compensated_process``, built on the library's own
``_compensators``; ``paste``, the inverse of ``condition``; ``normalize_cut``, a cut's words
as ``condition`` reads them; ``children``, a word's child words;
``path_prob``, a node's path probability read off the tree's shape;
``stop_payoff``,
read off the node table; ``stop_of``, ``cont_of`` and ``reach_of``, a
candidate law's masses at a node; ``int_chains``, which brings Fraction
envelopes to the int chains that ``kernel_backstep`` and
``kernel_merged_envelope`` run the library's ``_paste`` and ``_merged`` on;
``node_envelopes``, every node's envelope from the library's sweep;
``allocate``, the greedy budget split across children; and ``slopes`` and
``segments``, read off an envelope's breakpoints.
"""

import ast
import math
import random
import weakref
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from treestop import Ext, simplex
from treestop.dp import _paste, _require_scalar_shape, _sweep
from treestop.dpp import _read_cut, condition
from treestop.envelope import _STEEPEST_FIRST, ConcaveEnvelope, _built, _merged
from treestop.errors import (BudgetBelowDomain, DegreeTooHigh, InvariantViolation,
                             ShapeMismatch, TreestopError)
from treestop.generate import (_DIFFUSIONS, _DRIFTS, _G_ANY, _G_NONNEG, _H_ANY,
                                _INCREMENTS, _REWARDS, _TERMINALS, BRANCH_CAP, DEPTH_CAP)
from treestop.errors import ShapeTooLarge
from treestop.io import fmt_rational, load_instance
from treestop.lattice import (ROOT, BudgetVector, KeyedWalk, NodeTable, Shape, TreeInstance,
                              Word, _as_matrix, _as_vector, _finite,
                              cumulative_functionals)
from treestop.martingale import (_WEIGHT_BUDGET, MAX_DEGREE, CandidateLaw, CylinderWeight,
                                 MembershipReport, Polynomial, WeightFactor,
                                 _compensators, _sigbar_entry, _stop_at_horizon,
                                 monomial_basis)
from treestop.lp import INFEASIBLE as SOLVE_INFEASIBLE
from treestop.lp import SolveResult, _budgets_or_default, solve_weak
from treestop.measures import StoppingMeasure, feasible_for
from treestop.rules import _leaf_paths, rule_from_map, rule_to_measure
from treestop.xreal import as_fraction
from treestop.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult

_ZERO = Fraction(0)
_ONE = Fraction(1)


def straight_line_euler(dt, words_increments, drift_fn, diff_fn, x0):
    """Scalar Euler recursion written as a plain loop (no tree machinery)."""
    xs = [Fraction(x0)]
    t = Fraction(0)
    for w in words_increments:
        b = drift_fn(t, tuple(xs))
        s = diff_fn(t, tuple(xs))
        xs.append(xs[-1] + Fraction(b) * Fraction(dt) + Fraction(s) * Fraction(w))
        t += Fraction(dt)
    return xs


def atom_expectations(tree, q):
    """Objective and accrual expectations of a rule by atom enumeration.

    Enumerates every (full word, stop depth) atom with its probability
    P(word) * prod_{j<k} (1-q) * q(at k) and sums payoffs directly.
    """
    value = Fraction(0)
    gs = [Fraction(0)] * tree.constraints.n_ineq
    hs = [Fraction(0)] * tree.constraints.n_eq
    for leaf in tree.leaves():
        pw = path_prob(tree, leaf)
        for k in range(len(leaf) + 1):
            node = leaf[:k]
            mass = pw
            for j in range(k):
                mass *= 1 - q[leaf[:j]]
            mass *= q[node]
            if mass == 0:
                continue
            # leaves under a stop node split its mass; summing over leaves
            # recovers the node's full stop mass since branch probs sum to 1
            F, Gs, Hs = cumulative_functionals(tree, node)
            value = value + (F + terminal_at(tree, node)) * mass
            for i, G in enumerate(Gs):
                gs[i] = gs[i] + G * mass
            for i, H in enumerate(Hs):
                hs[i] = hs[i] + H * mass
    return value, tuple(gs), tuple(hs)


def stop_payoff(tree: TreeInstance, word: Word) -> Fraction:
    """Accrued running reward plus terminal payoff when stopping at a node,
    read off the tree's node table."""
    table = tree._node_table()
    return table.value(0, table.shape.row(word))


def snell_value(tree, payoff=None):
    """Optimal stopping value by plain backward induction: the best pure
    stopping time's expected stop payoff, or ``payoff(word)`` if given."""
    memo = {}
    for word in reversed(list(tree.nodes())):
        stop = payoff(word) if payoff else stop_payoff(tree, word)
        if len(word) == tree.depth:
            memo[word] = stop
            continue
        # children's payoffs already contain this step's accrued reward
        cont = Fraction(0)
        for j, (p, _) in enumerate(tree.branching[len(word)]):
            cont = cont + memo[word + (j,)] * p
        memo[word] = max(stop, cont)
    return memo[ROOT]


def best_rule_value(tree, ys, zs):
    """Exhaustive search over stopping rules with at most one fractional node.

    With c <= 1 active constraints an optimal measure randomizes at no more
    than one node, and with all other nodes deterministic both the value and
    the constraint accrual are affine in that node's stop probability, so
    candidate optima are 0/1 grids plus exact affine boundary solutions.
    Returns -inf when nothing is feasible.
    """
    interior = [w for w in tree.nodes() if len(w) < tree.depth]
    ys = [Ext.parse(y) for y in ys]
    zs = [Ext.parse(z) for z in zs]
    active = [("ineq", i, y) for i, y in enumerate(ys) if y.is_finite]
    active += [("eq", i, z) for i, z in enumerate(zs) if z.is_finite]
    if len(active) > 1:
        raise ValueError("the exhaustive oracle handles at most one constraint")

    def full_q(bits, free_node=None, free_val=None):
        q = {}
        for w in tree.nodes():
            if len(w) == tree.depth:
                q[w] = Fraction(1)
        for w, bit in zip(interior, bits):
            q[w] = Fraction(bit)
        if free_node is not None:
            q[free_node] = free_val
        return q

    def feasible(v_g, v_h):
        for got, y in zip(v_g, ys):
            if not got <= y:
                return False
        for got, z in zip(v_h, zs):
            if got != z:
                return False
        return True

    best = None
    for bits in product((0, 1), repeat=len(interior)):
        candidates = [(None, None)]
        if active:
            kind, idx, bound = active[0]
            for free_i, free_node in enumerate(interior):
                # accrual is affine in this node's q with others fixed
                q0 = full_q(bits, free_node, Fraction(0))
                q1 = full_q(bits, free_node, Fraction(1))
                _, g0, h0 = atom_expectations(tree, q0)
                _, g1, h1 = atom_expectations(tree, q1)
                a0 = (g0[idx] if kind == "ineq" else h0[idx])
                a1 = (g1[idx] if kind == "ineq" else h1[idx])
                if a0 == a1:
                    continue
                qstar = (bound.fraction() - a0) / (a1 - a0)
                if 0 <= qstar <= 1:
                    candidates.append((free_node, qstar))
        for free_node, free_val in candidates:
            q = full_q(bits, free_node, free_val)
            value, v_g, v_h = atom_expectations(tree, q)
            if feasible(v_g, v_h) and (best is None or value > best):
                best = value
    return best if best is not None else Ext(0, sign=-1)


def node_lp_solve(tree: TreeInstance, budgets=None, solve_lp=None) -> SolveResult:
    """The dense node LP that ``solve_weak`` solved before column generation,
    kept as a differential oracle.

    Its variables are the continue masses u(v) of the interior nodes:

        maximize    sum_v u(v) * [f(v)*dt + E_children pi - pi(v)]  + pi(root)
        subject to  u(root) <= 1,   u(child) <= p_j * u(parent),  u >= 0,
                    sum_v u(v) * g_i(v)*dt <= y_i,
                    sum_v u(v) * h_i(v)*dt  = z_i.

    Status, value, measure and duals come back as ``solve_weak``'s did; the
    certificate is the simplex's Farkas vector over these rows.  The LP
    runs on ``solve_lp`` (default: the library's integer-row simplex).
    """
    solve_lp = solve_lp or simplex.solve_lp
    budgets = _budgets_or_default(tree, budgets)
    if any(not z.is_finite for z in budgets.zs):
        return SolveResult(status=SOLVE_INFEASIBLE, reason="equality target is infinite")

    interior: List[Word] = [w for w in tree.nodes() if len(w) < tree.depth]
    index = {w: i for i, w in enumerate(interior)}
    n = len(interior)

    # per node: continuing's gain, the children's mean stop payoff less the
    # node's (f*dt + E_children pi - pi), and the step accruals g_i*dt, then
    # h_i*dt, that every child shares
    obj, steps = [], []
    for w in interior:
        _, Gs, Hs = cumulative_functionals(tree, w)
        _, G_kid, H_kid = cumulative_functionals(tree, w + (0,))
        steps.append([b - a for a, b in zip(Gs + Hs, G_kid + H_kid)])
        obj.append(sum(p * stop_payoff(tree, w + (j,))
                       for j, (p, _) in enumerate(tree.branching[len(w)]))
                   - stop_payoff(tree, w))

    rows, senses, rhs = [], [], []
    for w, i in index.items():
        row = [_ZERO] * n
        row[i] = _ONE
        if w == ROOT:
            rows.append(row); senses.append("<="); rhs.append(_ONE)
        else:
            p, _ = tree.branching[len(w) - 1][w[-1]]
            row[index[w[:-1]]] = -p
            rows.append(row); senses.append("<="); rhs.append(_ZERO)
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

    res = solve_lp(obj, rows, senses, rhs)
    if res.status == INFEASIBLE:
        return SolveResult(status=SOLVE_INFEASIBLE, reason="empty constraint set",
                           certificate=res.certificate)
    assert res.status == OPTIMAL, res.status

    u_val = {w: res.x[i] for w, i in index.items()}
    measure = StoppingMeasure.from_masses(
        tree, *pushed_forward_by_words(tree, lambda w, arrive: u_val.get(w, _ZERO)))
    duals_ineq = tuple(_ZERO if r is None else res.duals[r] for r in ineq_rows)
    duals_eq = tuple(res.duals[r] for r in eq_rows)
    return SolveResult(status="optimal", value=Ext(res.objective + terminal_at(tree, ROOT)),
                       measure=measure, duals_ineq=duals_ineq, duals_eq=duals_eq)


def normalize_cut(tree: TreeInstance, tau) -> Tuple[Word, ...]:
    """A cut's words as ``condition`` and ``verify_dpp`` read it, or the
    refusal they raise."""
    return _read_cut(tree, tau)[0]


def paste(tree: TreeInstance, measure: StoppingMeasure, tau,
          submeasures: Dict[Word, StoppingMeasure]) -> StoppingMeasure:
    """Replace the subtree behavior of a measure past a cut.

    Keeps the prefix of ``measure`` up to the cut; below each cut node with
    positive reach, grafts the supplied subtree measure scaled by the reach
    mass.  Cut nodes without a replacement keep their original subtree.
    The result is checked as a measure on the full tree.  The inverse of
    ``condition``, which ``verify_dpp_by_subtree_lp`` pastes its subtree
    optima with.
    """
    cut = normalize_cut(tree, tau)
    shape = measure.validate(tree)
    stops = [Fraction(v, measure.scale) for v in measure.stops]
    conts = [Fraction(v, measure.scale) for v in measure.conts]
    for nu in cut:
        sub = submeasures.get(nu)
        if sub is None:
            continue
        i = shape.row(nu)
        reach = stops[i] + conts[i]
        if reach == 0 and any(sub.stops + sub.conts):
            raise ShapeMismatch(f"submeasure at unreachable node {nu}")
        if sub.shape != tree.subtree(nu)._shape():
            raise ShapeMismatch(f"submeasure at {nu} is not on the subtree's nodes")
        # below nu, the submeasure's shares times nu's reach share
        for j, s, u in zip(shape.rows_below(i), sub.stops, sub.conts):
            stops[j], conts[j] = reach * Fraction(s, sub.scale), reach * Fraction(u, sub.scale)
    return StoppingMeasure.from_shares(shape, stops, conts)


class SubproblemInfeasible(TreestopError):
    """A conditioned sub-problem is infeasible for its conditional budgets.

    Conditioning preserves feasibility, so this signals an implementation
    bug rather than a property of the instance.
    """


def verify_dpp_by_subtree_lp(tree: TreeInstance, tau, budgets=None) -> dict:
    """``verify_dpp`` as it was before the Snell pass, kept as a differential
    oracle: it conditions the optimal measure at the cut, solves each
    survivor's subtree LP at its conditional budgets and pastes the optima
    back.

    lhs is the optimal value.  rhs evaluates the decomposition at the
    optimal measure with every conditional measure replaced by its subtree
    optimum at the conditional budgets; pasting those optima back certifies
    rhs <= lhs, replacement itself certifies rhs >= lhs.  The report's gap
    is rhs - lhs and equals zero exactly on all-rational instances.
    """
    base = solve_weak(tree, budgets)
    if not base.optimal:
        raise ValueError(f"base solve is {base.status}: {base.reason}")
    lhs = base.value.fraction()

    cond = condition(tree, base.measure, tau)
    per_node = []
    rhs = sum(entry["payoff"] * entry["mass"] for entry in cond.stopped_before)
    submeasures: Dict[Word, StoppingMeasure] = {}
    for nu, data in cond.survivors.items():
        sub_budgets = BudgetVector(ys=data.ys, zs=data.zs)
        sub = solve_weak(data.subtree, sub_budgets)
        if not sub.optimal:
            raise SubproblemInfeasible(
                f"subtree at {nu} infeasible for conditional budgets "
                f"(ys={data.ys}, zs={data.zs}); conditioning must preserve "
                f"feasibility, so this is a bug")
        submeasures[nu] = sub.measure
        rhs = rhs + (cumulative_functionals(tree, nu)[0] + sub.value.fraction()) * data.mass
        per_node.append({
            "node": nu, "mass": data.mass,
            "Y": data.ys, "Z": data.zs,
            "subvalue": sub.value,
            "conditional_value": data.value,
        })

    pasted = paste(tree, base.measure, cond.cut, submeasures)
    rhs_super = pasted.expectations(tree)["value"]
    if rhs_super != rhs:
        raise InvariantViolation(
            f"pasted value {rhs_super} differs from the decomposed value {rhs}")
    if not feasible_for(tree, pasted, _budgets_or_default(tree, budgets)):
        raise InvariantViolation(
            "pasting subtree optima at conditional budgets left the budgets")

    gap = rhs - lhs
    return {
        "lhs": lhs,
        "rhs_sub": rhs,
        "rhs_super": rhs_super,
        "gap": gap,
        "pass": gap == 0,
        "tau": cond.cut,
        "per_node": per_node,
        "stopped_before": cond.stopped_before,
        "zero_survival": cond.zero_survival,
        "tower_ineq": cond.tower_ineq,
        "tower_eq": cond.tower_eq,
    }

def brute_allocate(children, total, steps=200):
    """Grid search over two-child budget splits (lower bound certificate)."""
    (p1, e1), (p2, e2) = children
    total = Fraction(total)
    best = None
    lo1 = e1.xs[0]
    hi1 = max(e1.xs[-1], lo1)
    for i in range(steps + 1):
        y1 = lo1 + (hi1 - lo1) * Fraction(i, steps)
        rest = (total - p1 * y1) / p2
        if rest < e2.xs[0]:
            continue
        v = p1 * e1.value(y1) + p2 * e2.value(rest)
        if best is None or v > best:
            best = v
    return best


def fraction_simplex(c: Sequence, rows: Sequence[Sequence], senses: Sequence[str],
                     rhs: Sequence, basis_out: list = None) -> LPResult:
    """The dense Fraction-tableau simplex, kept as a differential oracle.

    Same Bland-rule two-phase method as ``treestop.simplex.solve_lp``
    (maximize c.x) with a Fraction per tableau entry; the library solver
    must return an identical LPResult on every input.  The final basis is
    appended to ``basis_out`` when one is given.
    """
    n = len(c)
    m = len(rows)
    c = [-Fraction(v) for v in c]  # phase two minimizes -c.x

    # orient all rows to rhs >= 0, remembering the sign flips for duals
    A = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    sense = list(senses)
    flip = [_ONE] * m
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
            flip[i] = -_ONE
            if sense[i] == "<=":
                sense[i] = ">="
            elif sense[i] == ">=":
                sense[i] = "<="

    # columns: structural | slack/surplus | artificial (one per row) | rhs
    slack_col = [-1] * m
    n_slack = 0
    for i in range(m):
        if sense[i] in ("<=", ">="):
            slack_col[i] = n + n_slack
            n_slack += 1
    art0 = n + n_slack
    width = art0 + m
    T = []
    for i in range(m):
        row = A[i] + [_ZERO] * (n_slack + m) + [b[i]]
        if slack_col[i] >= 0:
            row[slack_col[i]] = _ONE if sense[i] == "<=" else -_ONE
        row[art0 + i] = _ONE
        T.append(row)

    # <= rows start on their slack; others on their artificial.  Artificial
    # columns stay in the tableau either way: they are the unit columns the
    # dual prices are read from at the end.
    basis = [0] * m
    for i in range(m):
        basis[i] = slack_col[i] if sense[i] == "<=" else art0 + i

    # phase-one reduced costs: cost 1 on artificials, eliminate basic ones
    r1 = [_ZERO] * width + [_ZERO]
    for j in range(art0, width):
        r1[j] = _ONE
    for i in range(m):
        if basis[i] >= art0:
            row = T[i]
            for j in range(width + 1):
                if row[j]:
                    r1[j] -= row[j]

    def pivot(r, e):
        row = T[r]
        piv = row[e]
        if piv != 1:
            inv = 1 / piv
            T[r] = row = [v * inv for v in row]
        for other in T:
            if other is row:
                continue
            f = other[e]
            if f:
                for j in range(width + 1):
                    if row[j]:
                        other[j] -= f * row[j]
        for obj in objs:
            f = obj[e]
            if f:
                for j in range(width + 1):
                    if row[j]:
                        obj[j] -= f * row[j]
        basis[r] = e

    def run(obj, allowed):
        # Bland: entering = lowest-index negative reduced cost
        while True:
            e = -1
            for j in range(width):
                if allowed[j] and obj[j] < 0:
                    e = j
                    break
            if e < 0:
                return OPTIMAL
            leave, best = -1, None
            for i in range(m):
                a = T[i][e]
                if a > 0:
                    ratio = T[i][width] / a
                    if best is None or ratio < best or \
                            (ratio == best and basis[i] < basis[leave]):
                        leave, best = i, ratio
            if leave < 0:
                return UNBOUNDED
            pivot(leave, e)

    objs = [r1]
    allowed1 = [True] * width
    status = run(r1, allowed1)
    assert status == OPTIMAL, "phase one is bounded below by zero"

    if -r1[width] > 0:  # leftover infeasibility: r1 rhs is -(phase-1 value)
        # duals of phase one give the emptiness certificate
        y = [(1 - r1[art0 + i]) * flip[i] for i in range(m)]
        return LPResult(status=INFEASIBLE, certificate=y)

    # drive basic artificials out on any nonzero entry (their rows are at 0)
    for i in range(m):
        if basis[i] >= art0:
            for j in range(art0):
                if T[i][j]:
                    pivot(i, j)
                    break

    # phase two
    r2 = c + [_ZERO] * (n_slack + m) + [_ZERO]
    for i in range(m):
        jb = basis[i]
        f = r2[jb]
        if f:
            row = T[i]
            for j in range(width + 1):
                if row[j]:
                    r2[j] -= f * row[j]
    objs = [r2]
    allowed2 = [j < art0 for j in range(width)]
    status = run(r2, allowed2)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)

    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][width]
    if basis_out is not None:
        basis_out += basis
    return LPResult(status=OPTIMAL, x=x, objective=-sum(ci * xi for ci, xi in zip(c, x)),
                    duals=[r2[art0 + i] * flip[i] for i in range(m)])


# -- membership statistics -----------------------------------------------------
# ``oracle_compensator``, ``oracle_statistic`` and ``oracle_check_membership``
# are the per-(polynomial, node) compensator, the per-statistic forward sweep
# and the clause-1 loop as they were before the library moved to one sweep
# per weight and to per-node unit contributions, copied verbatim apart from
# their names, and reading claimed points through ``oracle_xi`` and the
# battery through ``oracle_weight_battery``: the word-keyed ``xi`` and
# ``weight_battery`` as they were before the library moved to the tree's
# rows.  ``oracle_direct_detail`` restates the direct check from its
# definition, and the clause-1 loop runs it where the library does.  The
# library's reports must equal theirs entry for entry.  A candidate keeps
# its masses by row; ``stop_of``, ``cont_of`` and ``reach_of`` read a node's.


def stop_of(cand: CandidateLaw, w: Word) -> Fraction:
    return cand.stops[cand.shape.row(w)]


def cont_of(cand: CandidateLaw, w: Word) -> Fraction:
    return cand.conts[cand.shape.row(w)]


def reach_of(cand: CandidateLaw, w: Word) -> Fraction:
    return stop_of(cand, w) + cont_of(cand, w)


# ``candidate_with_branch_bias``, ``candidate_with_state_shift``,
# ``candidate_with_pre_start_mass`` and ``_stop_at_horizon`` as they were
# before the controls moved to the measure's rows: they build each law
# from the measure's word dicts through ``CandidateLaw(tree, s=, u=)``.  The
# row forms must give equal masses, points and overrides, and equal
# membership reports.


def candidate_with_branch_bias_by_words(tree: TreeInstance, rule, bias) -> CandidateLaw:
    """Masses of a rule whose pre-stop flow is biased at one node.

    ``bias`` is a (node, delta) pair: at the node, branch 0 gains delta of
    probability and branch 1 loses it.  A horizon node has no branches to
    bias and raises.
    """
    node, delta = tuple(bias[0]), as_fraction(bias[1])
    i = tree.check_word(node)
    if len(node) == tree.depth:
        raise ValueError(f"node {node} is at the horizon: it has no branches to bias")

    # the rule's law with the biased branch probabilities: below the
    # node's first two children every mass scales by (p +- delta) / p
    measure = rule_to_measure(tree, rule)
    shape, s, u = measure.shape, measure.s, measure.u
    for j, (child, sign) in enumerate(zip(range(shape.first[i], shape.first[i + 1]), (1, -1))):
        p = tree.branching[len(node)][j][0]
        if not 0 <= p + sign * delta <= 1:
            raise ValueError("biased probability outside [0, 1]")
        for w in map(shape.word, shape.rows_below(child)):
            s[w] *= (p + sign * delta) / p
            u[w] *= (p + sign * delta) / p
    return CandidateLaw(tree, s=s, u=u)


def candidate_with_state_shift_by_words(tree: TreeInstance, measure: StoppingMeasure,
                                        node: Word, delta) -> CandidateLaw:
    """A candidate claiming a shifted state value at one node."""
    tree.check_word(node)
    if len(node) == 0:
        raise ValueError("shift an interior node; the root state is part of "
                         "the pinned history (a support violation instead)")
    delta = as_fraction(delta)
    base = _as_vector(tree.state(node), tree.l)
    shifted = (base[0] + delta,) + base[1:]
    return CandidateLaw(tree, s=measure.s, u=measure.u,
                        state_overrides={node: shifted})


def candidate_with_pre_start_mass_by_words(tree: TreeInstance, measure: StoppingMeasure,
                                           eps) -> CandidateLaw:
    """A candidate leaking mass to stopping before the start time."""
    eps = as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    scale = 1 - eps
    return CandidateLaw(
        tree,
        s={w: scale * v for w, v in measure.s.items()},
        u={w: scale * v for w, v in measure.u.items()},
        pre_t0_stop_mass=eps)


def stop_at_horizon_by_words(tree: TreeInstance) -> StoppingMeasure:
    return rule_to_measure(tree, rule_from_map(
        tree, {w: 0 for w in tree.nodes() if len(w) < tree.depth}))


_XI: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def increment_sum(tree: TreeInstance, word: Word) -> Tuple[Fraction, ...]:
    """Cumulative driving increment along a word."""
    total = [_ZERO] * tree.d
    for k, j in enumerate(word):
        _, w = tree.branching[k][j]
        total = [a + b for a, b in zip(total, w)]
    return tuple(total)


def oracle_xi(cand: CandidateLaw, w: Word) -> tuple:
    """Claimed (cumulative increment, state) point in R^{d+l}, cached per
    candidate as the library cached it before."""
    cache = _XI.setdefault(cand, {})
    got = cache.get(w)
    if got is None:
        state = _as_vector(cand.prefix_for_call(cand.shape.row(w))[-1], cand.tree.l)
        got = cache[w] = increment_sum(cand.tree, w) + state
    return got


def oracle_weight_battery(tree: TreeInstance, cand: CandidateLaw, s: int,
                          budget: int) -> List[CylinderWeight]:
    """Deterministic cylinder-weight family for tests ending at time s.

    Enumerates, in order: the trivial weight; stopped / not-stopped flags
    at each time <= s; path-pinning boxes (built on rational thresholds
    separating the claimed values at each depth) with a flag at the pinned
    node's time.  The enumeration is capped at ``budget`` weights.
    """
    out = [CylinderWeight(label="1", factors=())]
    for time in range(0, s + 1):
        for flag in ("stopped", "open"):
            out.append(CylinderWeight(
                label=f"{flag}@{time}", factors=(WeightFactor(time=time, flag=flag),)))
    # boxes that isolate the claimed path of each node at depth <= s
    eps: Dict[int, Fraction] = {}
    values: Dict[int, list] = {}
    for w in tree.nodes():
        if len(w) > s:
            continue
        values.setdefault(len(w), []).append(oracle_xi(cand, w))
    for depth, pts in values.items():
        gaps = []
        for i in range(tree.d + tree.l):
            coords = sorted({pt[i] for pt in pts})
            gaps += [b - a for a, b in zip(coords, coords[1:])]
        eps[depth] = min(gaps) / 2 if gaps else Fraction(1)
    for w in tree.nodes():
        if len(out) >= budget:
            break
        if not 1 <= len(w) <= s:
            continue
        factors = []
        for k in range(1, len(w) + 1):
            pt = oracle_xi(cand, w[:k])
            box = tuple((c, c + eps[k]) for c in pt)
            factors.append(WeightFactor(time=k, box=box))
        for flag in ("any", "open", "stopped"):
            pinned = factors[:-1] + [WeightFactor(time=len(w),
                                                  box=factors[-1].box, flag=flag)]
            out.append(CylinderWeight(
                label=f"pin{''.join(map(str, w))}/{flag}",
                factors=tuple(pinned)))
            if len(out) >= budget:
                break
    return out[:budget]


def oracle_compensator(cand: CandidateLaw, phi: Polynomial, w: Word,
                       mode: str) -> Fraction:
    tree = cand.tree
    k = len(w)
    xi = oracle_xi(cand, w)
    if mode == "exact":
        here = phi.eval(xi)
        kids = cand.model_children(cand.shape.row(w))
        winc = increment_sum(tree, w)
        total = Fraction(0)
        for (p, inc), x_next in zip(tree.branching[k], kids):
            nxt = tuple(a + b for a, b in zip(winc, inc)) + x_next
            total += p * phi.eval(nxt)
        return total - here
    if mode == "generator":
        t = tree.time(k)
        prefix = cand.prefix_for_call(cand.shape.row(w))
        b = _as_vector(tree._drift(t, prefix), tree.l)
        sig = _as_matrix(tree._diff(t, prefix), tree.l, tree.d)
        d, l = tree.d, tree.l
        bbar = tuple([Fraction(0)] * d) + tuple(b)
        grads = [phi.diff(i) for i in range(d + l)]
        rate = sum(bbar[i] * grads[i].eval(xi) for i in range(d + l) if bbar[i])
        # sigma-bar sigma-bar^T has blocks [[I, sig^T], [sig, sig sig^T]]
        for i in range(d + l):
            gi = grads[i]
            if not gi.coeffs:
                continue
            for j in range(d + l):
                a_ij = _sigbar_entry(sig, d, i, j)
                if a_ij == 0:
                    continue
                second = gi.diff(j).eval(xi)
                if second:
                    rate += Fraction(1, 2) * a_ij * second
        return rate * tree.dt
    raise ValueError(f"unknown compensator mode {mode!r}")


def compensated_process(tree: TreeInstance, phi: Polynomial,
                        mode: str = "exact") -> Dict[Word, Fraction]:
    """Per-node values of the compensated process along the tree's paths.

    In exact mode the compensator is the one-step conditional mean, making
    this a martingale on the tree by construction; in generator mode it is
    the drift/second-order rate times dt, the literal grid form of the
    continuous compensator.
    """
    cand = CandidateLaw.from_measure(tree, _stop_at_horizon(tree))
    first = cand.shape.first
    vals = [phi.eval(pt) for pt in cand.points]
    out = vals[:1] * len(vals)
    for i in range(len(first) - 1):
        kids = range(first[i], first[i + 1])
        comp, = _compensators(cand, i, mode, (phi,), (vals[i],), [(vals[c],) for c in kids])
        for c in kids:
            out[c] = out[i] + vals[c] - vals[i] - comp
    return dict(zip(cand.shape.words(), out))


def oracle_direct_detail(tree: TreeInstance, cand: CandidateLaw) -> dict:
    """The first of: a level with post-stop branching other than the tree's,
    a node with positive continue mass whose children's reach(c)/cont(w)
    differ from the branch probabilities, a claimed state other than the
    Euler step from the claimed parent prefix; {} when there is none."""
    for k, level in enumerate(tree.branching):
        model = [p for p, _ in level]
        if cand.post_stop[k] != model:
            return {"check": "post_stop", "level": k,
                    "claimed": cand.post_stop[k], "model": model}
    for w in tree.nodes():
        if len(w) == tree.depth or cont_of(cand, w) == 0:
            continue
        model = [p for p, _ in tree.branching[len(w)]]
        claimed = [reach_of(cand, c) / cont_of(cand, w) for c in children(tree, w)]
        if claimed != model:
            return {"check": "branching", "node": w,
                    "claimed": claimed, "model": model}
    for w in tree.nodes():
        claimed = cand.state_overrides.get(cand.shape.row(w))
        if claimed is None:
            continue
        if w == ROOT:
            euler = cand.claimed_history[-1]
        else:
            parent = w[:-1]
            euler = tree._child_states(len(parent),
                                       cand.prefix_for_call(cand.shape.row(parent)))[w[-1]]
        if claimed != euler:
            return {"check": "state", "node": w, "claimed": claimed, "model": euler}
    return {}


def oracle_statistic(cand: CandidateLaw, phi: Polynomial, s: int, r: int,
                     weight: CylinderWeight, mode: str = "exact") -> Fraction:
    """Exact expectation of a weighted compensated increment.

    Runs a forward sweep over (node, stopped?) states carrying weighted
    masses; pre-stop flow follows the candidate's own mass ratios, post-stop
    flow its post-stop branching, and indicator factors zero out masses at
    their times.  Cost is O(nodes * branches) per call.
    """
    tree = cand.tree
    if not 0 <= s < r <= tree.depth:
        raise ValueError(f"need 0 <= s < r <= {tree.depth}")
    by_time: Dict[int, List[WeightFactor]] = {}
    for f in weight.factors:
        if f.time > s:
            raise ValueError("weight factors must not look past the start time")
        by_time.setdefault(f.time, []).append(f)

    # after-decision weighted masses per node at the current depth
    open_mass: Dict[Word, Fraction] = {ROOT: cont_of(cand, ROOT)}
    stop_mass: Dict[Word, Fraction] = {ROOT: stop_of(cand, ROOT) + cand.pre_t0_stop_mass}
    stat = Fraction(0)
    for k in range(0, r):
        for f in by_time.get(k, ()):
            for masses, here in ((open_mass, "open"), (stop_mass, "stopped")):
                for w in list(masses):
                    ok = f.flag in ("any", here) and f.box_holds(oracle_xi(cand, w))
                    if not ok:
                        masses[w] = Fraction(0)
        nxt_open: Dict[Word, Fraction] = {}
        nxt_stop: Dict[Word, Fraction] = {}
        for w in open_mass:
            m_open, m_stop = open_mass[w], stop_mass[w]
            in_window = k >= s
            if in_window and (m_open or m_stop):
                stat -= (m_open + m_stop) * oracle_compensator(cand, phi, w, mode)
            phi_here = phi.eval(oracle_xi(cand, w)) if in_window else None
            u_w = cont_of(cand, w)
            for j in range(tree.n_branches(k)):
                child = w + (j,)
                # pre-stop flow: candidate's own conditional ratios
                flow_open = m_open * reach_of(cand, child) / u_w if u_w else Fraction(0)
                flow_stop = m_stop * cand.post_stop[k][j]
                if flow_open or flow_stop:
                    if in_window:
                        dphi = phi.eval(oracle_xi(cand, child)) - phi_here
                        stat += (flow_open + flow_stop) * dphi
                    nxt_stop[child] = nxt_stop.get(child, Fraction(0)) + \
                        flow_stop + flow_open * (stop_of(cand, child) / reach_of(cand, child)
                                                 if reach_of(cand, child) else Fraction(0))
                    nxt_open[child] = nxt_open.get(child, Fraction(0)) + \
                        flow_open * (cont_of(cand, child) / reach_of(cand, child)
                                     if reach_of(cand, child) else Fraction(0))
                else:
                    nxt_open.setdefault(child, Fraction(0))
                    nxt_stop.setdefault(child, Fraction(0))
        open_mass, stop_mass = nxt_open, nxt_stop
    return stat


def oracle_check_membership(tree: TreeInstance, candidate, degree: int = 2,
                            mode: str = "exact", tolerance=Fraction(1)) -> MembershipReport:
    """Decide membership of a candidate in the admissible law class.

    Clause 1 runs every monomial up to ``degree`` against all grid time
    pairs and the deterministic cylinder-weight battery: exact mode demands
    statistics identically zero, generator mode bounds them by
    tolerance * dt.  Clause 2 checks the support conditions (no stopping
    before the start, pinned pre-start history).  The overall verdict is
    the conjunction.
    """
    if degree > MAX_DEGREE:
        raise DegreeTooHigh(f"degree {degree} exceeds the cap {MAX_DEGREE}")
    if isinstance(candidate, StoppingMeasure):
        candidate = CandidateLaw.from_measure(tree, candidate)
    report = MembershipReport(mode=mode, degree=degree)

    detail = {}
    if candidate.pre_t0_stop_mass != 0:
        detail["pre_t0_stop_mass"] = candidate.pre_t0_stop_mass
    if candidate.claimed_history != tree.history:
        detail["history"] = {"claimed": candidate.claimed_history,
                             "pinned": tree.history}
    never_stops = sum(cont_of(candidate, w) for w in tree.leaves())
    if never_stops != 0:
        detail["mass_never_stopping"] = never_stops
    report.clause2_detail = detail
    report.clause2_pass = not detail
    report.direct_detail = oracle_direct_detail(tree, candidate)
    report.direct_pass = not report.direct_detail

    basis = monomial_basis(tree.d, tree.l, degree)
    threshold = as_fraction(tolerance) * tree.dt
    for s in range(0, tree.depth):
        weights = oracle_weight_battery(tree, candidate, s, _WEIGHT_BUDGET)
        for r in range(s + 1, tree.depth + 1):
            for label, phi in basis:
                for weight in weights:
                    val = oracle_statistic(candidate, phi, s, r, weight, mode=mode)
                    ok = val == 0 if mode == "exact" else abs(val) <= threshold
                    report.clause1.append({
                        "phi": label, "s": s, "r": r, "weight": weight.label,
                        "stat": val, "pass": ok,
                    })
                    if not ok:
                        report.clause1_pass = False
    return report


# -- envelope backward induction -------------------------------------------------
# ``oracle_merged_envelope``, ``oracle_backstep`` and ``oracle_node_envelopes``
# are the envelope recursion as it was before the level-order sweep: words in
# reverse BFS order, each node's state path rebuilt on every call, and a sort
# of the children's pooled segments.  Copied verbatim apart from their names.
# The library's envelopes must equal theirs node for node.  The general hull
# and canonical form they build on (``hull_of_points``, ``canonical_envelope``
# and ``envelope_from_breakpoints``) are test code: the library builds no
# envelope from points.


def canonical_envelope(xs: List[Fraction], vs: List[Fraction]) -> ConcaveEnvelope:
    """Merge collinear pieces and drop the trailing flat segment."""
    keep_x, keep_v = [xs[0]], [vs[0]]
    for x, v in zip(xs[1:], vs[1:]):
        if len(keep_x) >= 2:
            x0, x1 = keep_x[-2], keep_x[-1]
            v0, v1 = keep_v[-2], keep_v[-1]
            if (v1 - v0) * (x - x1) == (v - v1) * (x1 - x0):
                keep_x.pop(), keep_v.pop()
        keep_x.append(x), keep_v.append(v)
    while len(keep_x) >= 2 and keep_v[-1] == keep_v[-2]:
        keep_x.pop(), keep_v.pop()
    return ConcaveEnvelope(xs=tuple(keep_x), vs=tuple(keep_v))


def envelope_from_breakpoints(xs: Sequence, vs: Sequence) -> ConcaveEnvelope:
    return canonical_envelope(list(map(as_fraction, xs)), list(map(as_fraction, vs)))


def hull_of_points(points: Sequence[Tuple[Fraction, Fraction]]) -> ConcaveEnvelope:
    """Non-decreasing upper concave hull of finitely many (cost, value) points.

    The hull rises to its peak and stays constant afterwards: spending
    more budget than the best point costs is never forced.
    """
    best: dict = {}
    for x, v in points:
        x, v = as_fraction(x), as_fraction(v)
        if x not in best or v > best[x]:
            best[x] = v
    pts = sorted(best.items())
    hull: List[Tuple[Fraction, Fraction]] = []
    for x, v in pts:
        while len(hull) >= 2:
            (x0, v0), (x1, v1) = hull[-2], hull[-1]
            # keep slopes strictly decreasing along the upper hull
            if (v1 - v0) * (x - x1) <= (v - v1) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x, v))
    peak = max(range(len(hull)), key=lambda i: (hull[i][1], -i))
    hull = hull[: peak + 1]
    return canonical_envelope([x for x, _ in hull], [v for _, v in hull])


def oracle_merged_envelope(children: Sequence[Tuple[Fraction, ConcaveEnvelope]]) -> ConcaveEnvelope:
    """Value of the best budget split across children, as a function of the
    total budget sum p_j * y_j.

    Children's marginal slopes are interleaved in decreasing order; a unit
    of global budget spent on child j advances its local budget by 1/p_j
    and earns its current slope, so the merged function is concave with
    exactly those slopes.
    """
    base_x = sum(p * env.xs[0] for p, env in children)
    base_v = sum(p * env.vs[0] for p, env in children)
    pool = []
    for j, (p, env) in enumerate(children):
        for k, (slope, width) in enumerate(segments(env)):
            pool.append((slope, p * width, j, k))
    pool.sort(key=lambda t: (-t[0], t[2], t[3]))
    xs, vs = [base_x], [base_v]
    for slope, gwidth, _, _ in pool:
        xs.append(xs[-1] + gwidth)
        vs.append(vs[-1] + slope * gwidth)
    return canonical_envelope(xs, vs)


def shifted(env: ConcaveEnvelope, dx, dv) -> ConcaveEnvelope:
    """``env`` moved by dx in budget and dv in value."""
    dx, dv = as_fraction(dx), as_fraction(dv)
    return ConcaveEnvelope(xs=tuple(x + dx for x in env.xs),
                           vs=tuple(v + dv for v in env.vs))


def oracle_backstep(stop_value, reward_step, budget_step, children) -> ConcaveEnvelope:
    """One backward step: paste the stop point onto the continuation curve.

    children are (probability, envelope) pairs for the successor nodes;
    stopping costs no budget and pays ``stop_value``; continuing accrues
    ``reward_step`` now, consumes ``budget_step`` now, and then allocates
    the remaining budget across the children.
    """
    cont = shifted(oracle_merged_envelope(children), budget_step, reward_step)
    points = [(Fraction(0), Fraction(stop_value))]
    points += list(zip(cont.xs, cont.vs))
    return hull_of_points(points)


def oracle_node_envelopes(tree: TreeInstance) -> Dict[Word, ConcaveEnvelope]:
    """Value-in-budget envelope of every node, leaves upward."""
    _require_scalar_shape(tree)
    g, _ = tree.constraints.inequalities[0]
    env: Dict[Word, ConcaveEnvelope] = {}
    for word in reversed(list(tree.nodes())):
        pi_here = terminal_at(tree, word)
        if len(word) == tree.depth:
            env[word] = ConcaveEnvelope(xs=(Fraction(0),), vs=(pi_here,))
            continue
        t = tree.time(len(word))
        prefix = oracle_prefix(tree, word)
        f_step = Ext.parse(tree.reward(t, prefix)).fraction() * tree.dt
        g_step = Ext.parse(g(t, prefix)).fraction() * tree.dt
        kids = [(p, env[word + (j,)])
                for j, (p, _) in enumerate(tree.branching[len(word)])]
        env[word] = oracle_backstep(pi_here, f_step, g_step, kids)
    return env


# The library's int chain kernels (``dp._paste``, ``envelope._merged`` and
# ``_built``) on Fraction inputs, for comparison with the two oracles above:
# ``int_chains`` brings (probability, envelope) pairs and extra Fractions to
# ints over common denominators.  ``exact_merged`` is ``_merged`` with every
# slope compared by cross multiplication, the reference for its float keys.

def int_chains(children, xs=(), vs=()):
    """(probability, envelope) children as chains of ints over one budget
    unit X and one value unit V: the least common denominators of every
    p * x and p * v and of the extra Fractions ``xs`` and ``vs``.  Returns
    (X, V, the (1, chain) pairs, xs and vs as ints over X and V).  A child
    of probability 0 has no segments."""
    rows = [([p * x for x in env.xs], [p * v for v in env.vs])
            for p, env in ((as_fraction(p), env) for p, env in children)]
    rows.append((xs, vs))
    X = math.lcm(*(x.denominator for px, _ in rows for x in px))
    V = math.lcm(*(v.denominator for _, pv in rows for v in pv))
    *rows, (xs, vs) = [([x.numerator * (X // x.denominator) for x in px],
                        [v.numerator * (V // v.denominator) for v in pv]) for px, pv in rows]
    chains = [(1, (px[0], pv[0], pv[-1], [(v1 - v0, x1 - x0) for x0, x1, v0, v1
                                          in zip(px, px[1:], pv, pv[1:]) if v1 > v0]))
              for px, pv in rows]
    return X, V, chains, xs, vs


def kernel_merged_envelope(children) -> ConcaveEnvelope:
    """``oracle_merged_envelope`` by the library's ``_merged``."""
    X, V, chains, _, _ = int_chains(children)
    return _built(_merged(chains), X, V)


def kernel_backstep(stop_value, reward_step, budget_step, children) -> ConcaveEnvelope:
    """``oracle_backstep`` by the library's ``_paste``."""
    X, V, kids, (budget,), (stop, reward) = int_chains(
        children, (as_fraction(budget_step),),
        (as_fraction(stop_value), as_fraction(reward_step)))
    return _built(_paste(stop, reward, budget, kids), X, V)


def exact_merged(chains, dx=0, dv=0):
    """``_merged`` with every comparison exact: the pooled segments sorted
    steepest first by cross multiplication (``_STEEPEST_FIRST``, stable),
    then adjacent equal slopes folded by adding rises and widths."""
    x0, v0, top, pool = dx, dv, dv, []
    for b, (x, v, v_top, chain_segments) in chains:
        x0, v0, top = x0 + b * x, v0 + b * v, top + b * v_top
        pool += [(b * r, b * w) for r, w in chain_segments]
    segments = []
    for r, w in sorted(pool, key=_STEEPEST_FIRST):
        if segments and segments[-1][0] * w == r * segments[-1][1]:
            r0, w0 = segments[-1]
            segments[-1] = (r0 + r, w0 + w)
        else:
            segments.append((r, w))
    return x0, v0, top, segments


# -- the envelope DP's test-only surface --------------------------------------------
# ``node_envelopes`` (every node's envelope from the library's level-order
# sweep) and ``allocate`` (the best budget split across children, with the
# split) have no program caller; the DP tests read them.  ``slopes`` and
# ``segments`` read an envelope's breakpoints, and ``checked_envelope`` is a
# reference for the library's envelope check.

def slopes(env: ConcaveEnvelope) -> List[Fraction]:
    """The slopes between an envelope's consecutive breakpoints."""
    return [(v1 - v0) / (x1 - x0) for x0, x1, v0, v1 in
            zip(env.xs, env.xs[1:], env.vs, env.vs[1:])]


def checked_envelope(xs: Sequence[Fraction], vs: Sequence[Fraction]) -> ConcaveEnvelope:
    """The envelope on breakpoints (xs, vs), checked in Fractions apart from
    the library's check, with its messages in its order: breakpoints that
    do not increase strictly, then a falling slope, then a rising one."""
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("breakpoints must increase strictly")
    env = object.__new__(ConcaveEnvelope)  # unchecked: built to read its slopes
    object.__setattr__(env, "xs", tuple(xs))
    object.__setattr__(env, "vs", tuple(vs))
    ss = slopes(env)
    if any(s < 0 for s in ss):
        raise ValueError("envelope must be non-decreasing")
    if any(b > a for a, b in zip(ss, ss[1:])):
        raise ValueError("envelope must be concave")
    return env


def segments(env: ConcaveEnvelope) -> List[Tuple[Fraction, Fraction]]:
    """(slope, width) pairs of the strictly rising part."""
    return [(s, x1 - x0) for s, x0, x1 in zip(slopes(env), env.xs, env.xs[1:]) if s > 0]


def node_envelopes(tree: TreeInstance) -> Dict[Word, ConcaveEnvelope]:
    """Value-in-budget envelope of every node, in one sweep: a node's is its
    key's, built once per key."""
    envs = [[_built(chain, *unit) for chain in here] for here, unit in _sweep(tree)][::-1]
    return {w: envs[len(w)][key] for w, key in zip(tree._shape().words(), tree._row_keys())}


def allocate(children: Sequence[Tuple[Fraction, ConcaveEnvelope]], total):
    """Best value of sum p_j V_j(y_j) subject to sum p_j y_j <= total.

    Greedy on merged marginal slopes; exact.  Returns the value and one
    attaining allocation (per-child budgets).  total may be +inf.
    """
    children = [(as_fraction(p), env) for p, env in children]
    if not children:
        raise ValueError("allocate needs at least one child")
    total = Ext.parse(total)
    base_x = sum(p * env.xs[0] for p, env in children)
    if total.is_neg_inf or (total.is_finite and total.fraction() < base_x):
        raise BudgetBelowDomain(
            f"total {total} below minimal feasible sum {base_x}")
    value = sum(p * env.vs[0] for p, env in children)
    alloc = [env.xs[0] for _, env in children]
    remaining = None if total.is_pos_inf else total.fraction() - base_x
    pool = [(s, p * w, j) for j, (p, env) in enumerate(children) if p
            for s, w in segments(env)]
    pool.sort(key=itemgetter(0), reverse=True)  # stable: ties keep child order
    for slope, gwidth, j in pool:
        if remaining is not None:
            if remaining == 0:
                break
            take = min(remaining, gwidth)
            remaining -= take
        else:
            take = gwidth
        value += slope * take
        alloc[j] += take / children[j][0]
    return value, alloc

# -- instance expressions --------------------------------------------------------
# ``oracle_eval_node`` is the expression interpreter as it was before
# expressions were compiled, with its two tables, copied verbatim apart from
# the names and the decimal literal, which it reads from the expression's
# text with a plain Fraction, not from Python's float.  It walks the AST on
# every call; the compiled expressions must give the same values and raise
# the same exception types.

_ALLOWED_NAMES = ("t", "x_current", "x_sup")
_BINOPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
           ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
           ast.Pow: None}


def oracle_eval_node(node, env, spec, before_power=None):
    """The tree-walking interpreter of instance expressions, which knows no
    caps; node is parsed from the text spec, and ``before_power(base, n)``,
    when given, sees each integer power before it is taken."""
    if isinstance(node, ast.Expression):
        return oracle_eval_node(node.body, env, spec, before_power)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ValueError(f"non-numeric literal {node.value!r}")
        if isinstance(node.value, int):
            return Fraction(node.value)
        return Fraction(ast.get_source_segment(spec, node))
    if isinstance(node, ast.Name):
        if node.id not in env:
            raise ValueError(f"unknown name {node.id!r}; use one of {_ALLOWED_NAMES}")
        return env[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = oracle_eval_node(node.operand, env, spec, before_power)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        a = oracle_eval_node(node.left, env, spec, before_power)
        b = oracle_eval_node(node.right, env, spec, before_power)
        if isinstance(node.op, ast.Pow):
            if b.denominator != 1:
                raise ValueError("only integer exponents are supported")
            if before_power is not None:
                before_power(a, b.numerator)
            return a ** b.numerator
        return _BINOPS[type(node.op)](a, b)
    raise ValueError(f"unsupported expression element {ast.dump(node)}")


# -- Monte Carlo -------------------------------------------------------------------
# ``monte_carlo_oracle`` is the path loop as it was before the library moved
# to BFS-numbered float tables, bisected branch picks and block sums, copied
# verbatim apart from its name.  The library's estimates must equal its
# result dicts bit for bit.


def monte_carlo_oracle(tree: TreeInstance, rule, paths: int, seed: int = 0) -> dict:
    """Simulate (word, eta) pairs and average reward and accruals.

    Uses the hitting-time realization: each path draws one uniform eta and
    stops the first time the running theta exceeds it.  Returns mean and
    standard error per functional; results are bit-identical for a fixed
    seed (paths are consumed in index order from a single generator).
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    rule.validate(tree)

    # flatten the tree into float tables once; the path loop is table-driven
    stop_value: Dict[Word, float] = {}
    q_float: Dict[Word, float] = {}
    accr: Dict[Word, tuple] = {}
    for word in tree.nodes():
        F, Gs, Hs = cumulative_functionals(tree, word)
        stop_value[word] = float(F + terminal_at(tree, word))
        q_float[word] = float(rule.prob(word))
        accr[word] = tuple(float(G) for G in Gs) + tuple(float(H) for H in Hs)
    thresholds = []
    for level in tree.branching:
        acc, cum = 0.0, []
        for p, _ in level:
            acc += float(p)
            cum.append(acc)
        thresholds.append(cum)

    n_funcs = 1 + tree.constraints.n_ineq + tree.constraints.n_eq
    sums = [0.0] * n_funcs
    sq = [0.0] * n_funcs
    rng = random.Random(seed)
    for _ in range(paths):
        eta = rng.random()
        word: Word = ROOT
        not_stopped = 1.0
        while True:
            theta = 1.0 - not_stopped * (1.0 - q_float[word])
            if theta > eta:
                break
            not_stopped *= 1.0 - q_float[word]
            r = rng.random()
            cum = thresholds[len(word)]
            j = 0
            while j < len(cum) - 1 and cum[j] <= r:
                j += 1
            word = word + (j,)
        draws = (stop_value[word],) + accr[word]
        for i, v in enumerate(draws):
            sums[i] += v
            sq[i] += v * v

    def mean_se(i):
        mean = sums[i] / paths
        if paths == 1:
            return mean, 0.0
        var = max(0.0, (sq[i] - paths * mean * mean) / (paths - 1))
        return mean, math.sqrt(var / paths)

    out = {"paths": paths, "seed": seed, "value": mean_se(0)}
    k = 1
    out["ineq"] = tuple(mean_se(k + i) for i in range(tree.constraints.n_ineq))
    k += tree.constraints.n_ineq
    out["eq"] = tuple(mean_se(k + i) for i in range(tree.constraints.n_eq))
    return out


# -- rule measures in Fractions ------------------------------------------------------
# ``rule_to_measure_by_fractions``, ``thetas_by_fractions`` and
# ``stop_mass_by_eta_integration_by_fractions`` are ``rules.rule_to_measure``,
# ``rules._thetas`` and ``rules.stop_mass_by_eta_integration`` as they were
# before the survival products and the eta integral moved to ints, copied
# verbatim apart from their names.  The int forms must give ``==`` measures
# and the same theta.


def rule_to_measure_by_fractions(tree: TreeInstance, rule) -> StoppingMeasure:
    """A rule's measure: a node's continue share is the product of 1 - q
    over its path, itself included, and its stop share is the rest of the
    share that its parent continues."""
    rule.validate(tree)
    shape, stops, conts = tree._shape(), [], []
    for q, parent in zip(rule.q, shape.parent):
        arrive = conts[parent] if conts else Fraction(1)
        conts.append(arrive * (1 - q))
        stops.append(arrive - conts[-1])
    return StoppingMeasure.from_shares(shape, stops, conts)


def thetas_by_fractions(tree: TreeInstance, rule) -> list:
    """theta per row: 1 minus the rule's continue share there, the chance
    of having stopped at or above that node."""
    measure = rule_to_measure_by_fractions(tree, rule)
    return [1 - Fraction(u, measure.scale) for u in measure.conts]


def stop_mass_by_eta_integration_by_fractions(tree: TreeInstance, rule) -> StoppingMeasure:
    """The rule's measure obtained by integrating the hitting time over eta.

    For each full word the hitting node is piecewise constant in eta with
    breakpoints at the theta values along it, so the integral is a finite
    exact sum; the node on each piece is found by evaluating the hitting
    time at the piece's midpoint.  A node's continue mass is the stop mass
    strictly below it.  Masses are kept in units of 1 / ``prob_den``.
    """
    shape, thetas = tree._shape(), thetas_by_fractions(tree, rule)
    stops, conts = [Fraction(0)] * len(thetas), [Fraction(0)] * len(thetas)
    for leaf, path in _leaf_paths(shape):
        cuts = sorted({Fraction(0), *(thetas[i] for i in path)})
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            stops[next(i for i in path if thetas[i] > mid)] += shape.probs[leaf] * (hi - lo)
    for i in range(len(thetas) - 1, 0, -1):
        conts[shape.parent[i]] += stops[i] + conts[i]
    return StoppingMeasure.from_shares(shape, *([m / p for m, p in zip(masses, shape.probs)]
                                                for masses in (stops, conts)))


# -- the node table, expectations and generation, word by word -----------------------
# ``words_by_levels``, ``path_prob_by_words``, ``oracle_prefix``,
# ``functionals_by_words`` and ``terminal_at`` give each node's word, path
# probability, state path, accruals and terminal payoff from the branching
# and the instance's functions, with none of the tree's shape, keyed walk or
# table.  ``node_table_by_words`` is
# ``TreeInstance._node_table`` as it was before the keyed integer walk, built
# from them; ``expectations_by_words`` is ``StoppingMeasure.expectations``
# read from absolute stop masses, and ``oracle_generate_instance`` is
# ``generate.generate_instance`` as it was, the generator's reference rule
# pushed forward to a measure.

def words_by_levels(tree: TreeInstance) -> List[Word]:
    """Every word, level by level, each level in lexicographic order."""
    words, level = [ROOT], [ROOT]
    for k in range(tree.depth):
        level = [w + (j,) for w in level for j in range(len(tree.branching[k]))]
        words += level
    return words


def children(tree: TreeInstance, word: Word) -> Tuple[Word, ...]:
    """A word's child words in branch order, none at the horizon."""
    if len(word) >= tree.depth:
        return ()
    return tuple(word + (j,) for j in range(tree.n_branches(len(word))))


def path_prob(tree: TreeInstance, word: Word) -> Fraction:
    """A node's path probability from the tree's shape; KeyError for a word
    that names no node."""
    shape = tree._shape()
    i = shape.row(word)
    if i is None:
        raise KeyError(word)
    return Fraction(shape.probs[i], shape.prob_den)


def path_prob_by_words(tree: TreeInstance, word: Word) -> Fraction:
    p = _ONE
    for k, j in enumerate(word):
        p *= tree.branching[k][j][0]
    return p


_PREFIXES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def oracle_prefix(tree: TreeInstance, word: Word) -> tuple:
    """The state path the instance's functions see at a node: the Euler
    step along the word, starting from the history.  Cached per tree as
    the tree cached it before the keyed walk: a miss steps all the parent's
    children at once."""
    cache = _PREFIXES.setdefault(tree, {ROOT: tuple(map(tree._unwrap, tree.history))})
    got = cache.get(word)
    if got is None:
        parent = word[:-1]
        prefix = oracle_prefix(tree, parent)
        for j, x in enumerate(tree._child_states(len(parent), prefix)):
            cache[parent + (j,)] = prefix + (tree._unwrap(x),)
        got = cache[word]
    return got


def terminal_value(tree: TreeInstance, t: Fraction, prefix: tuple) -> Fraction:
    """Terminal payoff pi at a state path, called in (t, prefix) form."""
    return _finite(tree.terminal(t, prefix), "terminal payoff", t)


def rates_at(tree: TreeInstance, t: Fraction, prefix: tuple):
    """Reward f and integrands (g_i), (h_i) at a state path, called in
    (t, prefix) form."""
    return (_finite(tree.reward(t, prefix), "reward", t),
            [_finite(g(t, prefix), f"g_{i}", t)
             for i, (g, _) in enumerate(tree.constraints.inequalities)],
            [_finite(h(t, prefix), f"h_{i}", t)
             for i, (h, _) in enumerate(tree.constraints.equalities)])


def terminal_at(tree: TreeInstance, word: Word) -> Fraction:
    """The terminal payoff at a node, evaluated on every call."""
    return terminal_value(tree, tree.time(len(word)), oracle_prefix(tree, word))


def oracle_keyed_walk(tree: TreeInstance) -> KeyedWalk:
    """The keyed walk as the tree made it when each representative carried
    its whole state path: the functions called in (t, prefix) form, the
    Euler steps by ``_child_states``, a Markov tree's nodes folded by (state,
    running sup) with the sup of the path, and each step dt * rate a
    Fraction brought to its column's least common denominator."""
    first = (lambda x: x[0]) if tree.l > 1 else (lambda x: x)
    prefix = tuple(map(tree._unwrap, tree.history))
    reps, dt = [(prefix, max(map(first, prefix)))], tree.dt
    states, kids, pays, steps = [], [], [], []
    for k in range(tree.depth + 1):
        t, leaf = tree.time(k), k == tree.depth
        level = [(terminal_value(tree, t, prefix), None if leaf else rates_at(tree, t, prefix))
                 for prefix, _ in reps]
        states.append([prefix[-1] for prefix, _ in reps])
        pays.append([stop for stop, _ in level])
        if leaf:
            break
        steps.append([tuple(v * dt for v in (f, *gs, *hs)) for _, (f, gs, hs) in level])
        below, index, here = [], {}, []
        for prefix, sup in reps:
            ks = []
            for x in tree._child_states(k, prefix):
                x = tree._unwrap(x)
                s = max(sup, first(x)) if tree._markov else None
                i = index.setdefault((x, s), len(below)) if tree._markov else len(below)
                if i == len(below):
                    below.append((prefix + (x,), s))
                ks.append(i)
            here.append(tuple(ks))
        kids.append(here)
        reps = below
    ones = [math.lcm(*(step[c].denominator for level in steps for step in level))
            for c in range(1 + tree.constraints.n_ineq + tree.constraints.n_eq)]
    ones[0] = math.lcm(ones[0], *(v.denominator for level in pays for v in level))
    steps = [[tuple(v.numerator * (one // v.denominator) for v, one in zip(step, ones))
              for step in level] for level in steps]
    pays = [[v.numerator * (ones[0] // v.denominator) for v in level] for level in pays]
    return KeyedWalk(states, kids, ones, pays, steps)


def functionals_by_words(tree: TreeInstance, word: Word):
    """Accrued (F, (G_i), (H_i)) at a node: the rates of every node on its
    path, times dt, summed from the root."""
    F, Gs, Hs = _ZERO, [_ZERO] * tree.constraints.n_ineq, [_ZERO] * tree.constraints.n_eq
    for k in range(len(word)):
        f, gs, hs = rates_at(tree, tree.time(k), oracle_prefix(tree, word[:k]))
        F += f * tree.dt
        Gs = [G + g * tree.dt for G, g in zip(Gs, gs)]
        Hs = [H + h * tree.dt for H, h in zip(Hs, hs)]
    return F, tuple(Gs), tuple(Hs)


def node_table_by_words(tree: TreeInstance) -> NodeTable:
    words = tuple(words_by_levels(tree))
    rows = []
    for w in words:
        p = path_prob_by_words(tree, w)
        F, Gs, Hs = functionals_by_words(tree, w)
        rows.append([p * (F + terminal_at(tree, w)), *(p * G for G in Gs),
                     *(p * H for H in Hs)])
    cols, dens = [], []
    for col in zip(*rows):
        den = math.lcm(*(v.denominator for v in col))
        cols.append(tuple(v.numerator * (den // v.denominator) for v in col))
        dens.append(den)
    probs = [path_prob_by_words(tree, w) for w in words]
    prob_den = math.lcm(*(p.denominator for p in probs))
    widths = tuple(len(level) for level in tree.branching)
    return NodeTable(Shape(widths,
                           tuple(p.numerator * (prob_den // p.denominator) for p in probs),
                           prob_den), tuple(cols), tuple(dens))


def pushed_forward_by_words(tree: TreeInstance, cont, branch_prob=None):
    """Absolute stop and continue masses, (s, u) dicts by word: mass 1
    enters at the root; node w continues ``cont(w, arrive)`` of the mass
    arriving there and stops the rest, and a child receives its branch
    probability (``branch_prob(child)`` if given) times its parent's
    continue mass."""
    s: Dict[Word, Fraction] = {}
    u: Dict[Word, Fraction] = {}
    for w in words_by_levels(tree):
        if w == ROOT:
            arrive = _ONE
        else:
            p = branch_prob(w) if branch_prob else tree.branching[len(w) - 1][w[-1]][0]
            arrive = p * u[w[:-1]]
        u[w] = cont(w, arrive)
        s[w] = arrive - u[w]
    return s, u


def validate_by_words(tree: TreeInstance, s: Dict[Word, Fraction],
                      u: Dict[Word, Fraction]) -> None:
    """Flow conservation, nonnegativity and total stop mass 1 of absolute
    masses, word by word (absent words hold 0)."""
    total = _ZERO
    for word in words_by_levels(tree):
        sw, uw = s.get(word, _ZERO), u.get(word, _ZERO)
        if sw < 0 or uw < 0:
            raise ValueError(f"negative mass at {word}")
        if len(word) == tree.depth and uw != 0:
            raise ValueError(f"continue mass at horizon node {word}")
        if word == ROOT:
            if sw + uw != 1:
                raise ValueError("root masses must sum to 1")
        else:
            p, _ = tree.branching[len(word) - 1][word[-1]]
            if sw + uw != p * u.get(word[:-1], _ZERO):
                raise ValueError(f"flow conservation fails at {word}")
        total += sw
    if total != 1:
        raise ValueError(f"stop masses sum to {total}, not 1")


def expectations_by_words(tree: TreeInstance, stop_mass: Dict[Word, Fraction]) -> dict:
    value = mean_stop = Fraction(0)
    gs = [Fraction(0)] * tree.constraints.n_ineq
    hs = [Fraction(0)] * tree.constraints.n_eq
    for word, mass in stop_mass.items():
        if mass == 0:
            continue
        F, Gs, Hs = functionals_by_words(tree, word)
        value += (F + terminal_at(tree, word)) * mass
        for i, G in enumerate(Gs):
            gs[i] += G * mass
        for i, H in enumerate(Hs):
            hs[i] += H * mass
        mean_stop += mass * (tree.time(len(word)) - tree.t0)
    return {
        "value": value,
        "ineq": tuple(gs),
        "eq": tuple(hs),
        "mean_stop_time": mean_stop,
    }


def oracle_generate_instance(seed: int, depth: int = 2, branches: int = 2,
                             n_ineq: int = 1, n_eq: int = 0,
                             nonneg_g: bool = False, vacuous_rate: float = 0.0) -> dict:
    """A random instance description, deterministic in the seed."""
    if depth > DEPTH_CAP:
        raise ShapeTooLarge(f"depth {depth} exceeds the cap {DEPTH_CAP}")
    if branches > BRANCH_CAP:
        raise ShapeTooLarge(f"{branches} branches exceed the cap {BRANCH_CAP}")
    if depth < 0 or branches < 2:
        raise ValueError("need depth >= 0 and at least 2 branches")
    rng = random.Random(seed)

    weights = [rng.randint(1, 4) for _ in range(branches)]
    total = sum(weights)
    probs = [Fraction(w, total) for w in weights]
    incs = rng.sample(_INCREMENTS, branches)

    g_pool = _G_NONNEG if nonneg_g else _G_ANY
    doc = {
        "t0": "0",
        "dt": "1",
        "depth": depth,
        "branching": [{"p": fmt_rational(p), "w": fmt_rational(w)}
                      for p, w in zip(probs, incs)],
        "x0_history": [fmt_rational(Fraction(rng.randint(-2, 2)))],
        "drift": rng.choice(_DRIFTS),
        "diffusion": rng.choice(_DIFFUSIONS),
        "f": rng.choice(_REWARDS),
        "pi": rng.choice(_TERMINALS),
        "constraints": {
            "ineq": [{"g": rng.choice(g_pool), "y": "0"} for _ in range(n_ineq)],
            "eq": [{"h": rng.choice(_H_ANY), "z": "0"} for _ in range(n_eq)],
        },
        "w_history": [],
    }

    # bound the constraints by the accruals of a random reference rule, so
    # the instance is feasible by construction
    tree = load_instance(doc)
    q_map = {}
    for w in tree.nodes():
        if len(w) < depth:
            q_map[w] = Fraction(rng.randint(0, 4), 4)
    rule = rule_from_map(tree, q_map)
    exp = rule_to_measure(tree, rule).expectations(tree)
    for i, item in enumerate(doc["constraints"]["ineq"]):
        if rng.random() < vacuous_rate:
            item["y"] = "inf"
        else:
            item["y"] = fmt_rational(exp["ineq"][i])
    for i, item in enumerate(doc["constraints"]["eq"]):
        item["z"] = fmt_rational(exp["eq"][i])
    return load_instance(doc).source
