"""Membership tests for candidate laws via compensated polynomials.

A candidate law claims per-node stop/continue masses, and possibly its own
state values, over a tree's increment structure.  Membership in the
admissible class is decided by three checks:

1. for polynomial test functions of the increment/state pair, compensated
   increments weighted by cylinder indicators (boxes on the path, stopped /
   not-stopped flags) must have expectation zero under the candidate;
2. support conditions: no mass may stop before the start time and the
   pre-start state path must equal the pinned history;
3. the direct check: wherever the law continues, its pre-stop transition
   ratios must be the branch probabilities, its post-stop branching must
   be the tree's, and every claimed state must be the Euler step from
   the claimed parent prefix.

Two compensator modes are provided.  The exact-discrete compensator is the
one-step conditional mean under the tree's own branching and Euler
recursion, which makes the compensated process a true martingale on the
tree: clause-1 statistics vanish exactly for genuine members.  A shift
between two branches shows up in some degree-<=2 test, but n distinct
increments per step fix a branch law only through its first n - 1
moments, so a corruption that keeps the lower moments needs degree n - 1
(with increments -3/2, -1/2, 1/2, 3/2, the root law 11/40, 7/40, 13/40,
9/40 passes all 285 degree-2 statistics of a depth-3 tree).  Clauses 2
and 3 decide membership at any degree in O(nodes); clause 1 is the
paper's martingale-problem characterization, kept as the diagnostic of
which test function, window and weight fail.  The generator compensator
is the drift/second-order form evaluated along the claimed path; it is a
martingale only up to O(dt) per step, so its statistics are held to a
tolerance and shrink linearly under grid refinement of fixed continuous
coefficients.

Statistics are read from forward sweeps over per-node tables, built once
per ``check_membership``: each inner node's child shares and, per
polynomial, the level contributions of one unit of open and of stopped
mass (``_Sweep``).  Under a cylinder weight, the weighted open and stopped
masses at each depth depend on neither the test polynomial nor the time
window, so one sweep per weight records each level's contribution for
every polynomial, and the statistic of a window s < r sums the levels
s .. r-1.  In exact mode a node whose pre-stop shares (where it
continues) and post-stop branching are the model's, and none of whose
children claims its own state, has zero unit contributions by
construction.  Nodes whose unit contributions vanish so are never
evaluated; under a genuine law in exact mode that is every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from statistics import linear_regression
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DegreeTooHigh, EmptyBattery
from .lattice import TreeInstance, Word, _as_vector
from .measures import StoppingMeasure, _on_rows
from .rules import RandomizedStoppingRule, rule_to_measure
from .xreal import as_fraction, shown

MAX_DEGREE = 4
_WEIGHT_BUDGET = 16  # cylinder weights per start time in clause 1


# ---------------------------------------------------------------------------
# polynomial test functions
# ---------------------------------------------------------------------------

class Polynomial:
    """Multivariate polynomial with rational coefficients, evaluated exactly."""

    def __init__(self, nvars: int, coeffs: Dict[Tuple[int, ...], Fraction]):
        self.nvars = nvars
        self.coeffs = {e: as_fraction(c) for e, c in coeffs.items()
                       if as_fraction(c) != 0}

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int]) -> "Polynomial":
        return Polynomial(nvars, {tuple(exps): Fraction(1)})

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for exps, c in self.coeffs.items():
            term = c
            for x, e in zip(point, exps):
                if e:
                    term *= x ** e
            total += term
        return total

    def diff(self, i: int) -> "Polynomial":
        out: Dict[Tuple[int, ...], Fraction] = {}
        for exps, c in self.coeffs.items():
            if exps[i]:
                e = list(exps)
                e[i] -= 1
                key = tuple(e)
                out[key] = out.get(key, Fraction(0)) + c * exps[i]
        return Polynomial(self.nvars, out)


def monomial_basis(d: int, l: int, max_degree: int) -> List[Tuple[str, Polynomial]]:
    """Non-constant monomials in (w, x) up to a total degree.

    Testing the monomials suffices for every rational-coefficient
    polynomial of that degree, by linearity of the statistics.
    """
    names = [("w" if d == 1 else f"w{i}") for i in range(d)]
    names += [("x" if l == 1 else f"x{i}") for i in range(l)]
    n = d + l
    out: List[Tuple[str, Polynomial]] = []

    def emit(exps):
        label = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exps) if e)
        out.append((label, Polynomial.monomial(n, exps)))

    for total in range(1, max_degree + 1):
        for exps in _exps_of_total(n, total):
            emit(exps)
    return out


def _exps_of_total(n: int, total: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exps_of_total(n - 1, total - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# candidate laws
# ---------------------------------------------------------------------------

class CandidateLaw:
    """A claimed joint law of (increment path, state path, stopping node).

    ``s``/``u`` are absolute stop/continue masses per node; their ratios
    define the pre-stop branching of the law, which need not match the
    tree's declared branching (that is exactly what clause 1 detects).
    After stopping, the path keeps evolving with ``post_stop_branching``
    (the tree's branching unless stated otherwise).  ``state_overrides``
    lets the candidate claim state values that break the Euler recursion;
    descendants of an overridden node follow Euler from the claimed prefix.
    A law that claims no state and has the tree's history reads its states
    off the tree's keys; otherwise it steps its own, one per row, from the
    claimed parent path: the Euler step or the override.  Per row of
    ``tree._shape()``, ``stops``, ``conts`` and ``points`` hold the masses
    and the claimed (increment, state) point, and ``state_overrides`` the
    claimed states.  Masses by word, where outside masses enter, are checked:
    one off the tree or negative, a total other than 1 or a broken flow raises.
    """

    def __init__(self, tree: TreeInstance, s: Dict[Word, Fraction],
                 u: Dict[Word, Fraction], state_overrides=None,
                 post_stop_branching=None, pre_t0_stop_mass=0,
                 claimed_history=None):
        self._hold(tree, _on_rows(tree, "stop", {w: as_fraction(v) for w, v in s.items()}),
                   _on_rows(tree, "continue", {w: as_fraction(v) for w, v in u.items()}),
                   pre_t0_stop_mass, state_overrides, post_stop_branching, claimed_history)
        stops, conts, first, word = self.stops, self.conts, self.shape.first, self.shape.word
        if self.pre_t0_stop_mass + stops[0] + conts[0] != 1:
            raise ValueError("total mass must be 1")
        for i, (stop, cont) in enumerate(zip(stops, conts)):
            if stop < 0 or cont < 0:
                raise ValueError(f"negative mass at {word(i)}")
            if i < len(first) - 1 and \
                    sum(stops[c] + conts[c] for c in range(first[i], first[i + 1])) != cont:
                raise ValueError(f"mass is not conserved below {word(i)}")

    @classmethod
    def _of_rows(cls, *args) -> "CandidateLaw":
        """The law that ``_hold`` builds from masses per row."""
        law = cls.__new__(cls)
        law._hold(*args)
        return law

    @classmethod
    def from_measure(cls, tree: TreeInstance, measure: StoppingMeasure) -> "CandidateLaw":
        """A measure's law: the measure must be on the tree's rows, and its
        masses are read off them."""
        return cls._of_rows(tree, *measure.masses(tree))

    def _hold(self, tree: TreeInstance, stops: list, conts: list, pre_t0_stop_mass=0,
              overrides=None, post_stop_branching=None, claimed_history=None) -> None:
        """Keep the masses per row, and claimed states and points."""
        self.tree = tree
        self.shape = shape = tree._shape()
        self.stops, self.conts = stops, conts
        self.pre_t0_stop_mass = as_fraction(pre_t0_stop_mass)
        overrides = overrides or {}
        rows = [tree.check_word(w) for w in overrides]
        self.state_overrides = {i: _as_vector(x, tree.l) for i, x in zip(rows, overrides.values())}
        if post_stop_branching is None:
            self.post_stop = [[p for p, _ in level] for level in tree.branching]
        else:
            self.post_stop = [[as_fraction(p) for p in level]
                              for level in post_stop_branching]
            if len(self.post_stop) > tree.depth:
                raise ValueError(f"post_stop_branching has {len(self.post_stop)} "
                                 f"levels; the tree has {tree.depth}")
            for k in range(tree.depth):
                want = tree.n_branches(k)
                if k >= len(self.post_stop) or len(self.post_stop[k]) != want:
                    raise ValueError(f"post_stop_branching level {k} needs "
                                     f"{want} branch probabilities")
        self.claimed_history = (tree.history if claimed_history is None else
                                tuple(_as_vector(x, tree.l) for x in claimed_history))
        claims, unwrap, starts = self.state_overrides, tree._unwrap, shape.starts
        first = shape.first
        if claims or self.claimed_history != tree.history:  # step the claimed states
            self._states = [unwrap(claims.get(0, self.claimed_history[-1]))]
            for k in range(tree.depth):
                for i in range(starts[k], starts[k + 1]):
                    kids = enumerate(tree._child_states(k, self.prefix_for_call(i)), first[i])
                    self._states += [unwrap(claims.get(c, x)) for c, x in kids]
        else:  # the tree's own, read off its keys
            walk, keys, self._states = tree._keys(), tree._row_keys(), []
            for level, lo, hi in zip(walk.states, starts, starts[1:]):
                self._states += map(level.__getitem__, keys[lo:hi])
        # each row's cumulative increment: its parent's plus its branch's
        incs = [(Fraction(0),) * tree.d]
        for k, level in enumerate(tree.branching):
            for i in range(starts[k], starts[k + 1]):
                incs += [tuple(map(add, incs[i], w)) for _, w in level]
        self.points = [inc + ((x,) if tree.l == 1 else x) for inc, x in zip(incs, self._states)]

    # -- claimed states ------------------------------------------------------

    def prefix_for_call(self, i: int) -> tuple:
        """The claimed state path at row i, as the functions see it: the
        claimed history, then the claimed states of the rows along its word."""
        return (*map(self.tree._unwrap, self.claimed_history[:-1]),
                *map(self._states.__getitem__, self.shape.path(i)))

    def model_children(self, i: int) -> Tuple[tuple, ...]:
        """Euler-step states of all children of row i, from the claimed prefix."""
        return self.tree._child_states(self.shape.depth(i), self.prefix_for_call(i))


# ---------------------------------------------------------------------------
# compensators
# ---------------------------------------------------------------------------

def _compensators(cand: CandidateLaw, row: int, mode: str,
                  phis: Sequence[Polynomial], here: Sequence[Fraction],
                  kids: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """The compensator of every phi at an inner row (``_Sweep`` checks ``mode``).

    ``here`` holds each phi at the row's claimed point and ``kids`` each
    child's row of phi values at its claimed point.  The exact compensator
    averages phi over the Euler children; a child whose claimed state is
    the Euler one reuses its row, and the Euler states of the others are
    computed once for all phi.
    """
    tree, shape = cand.tree, cand.shape
    k = shape.depth(row)
    if mode == "exact":
        vals = list(kids)
        for j, c in enumerate(range(shape.first[row], shape.first[row + 1])):
            if c in cand.state_overrides:  # the increment, the Euler state
                nxt = cand.points[c][:tree.d] + cand.model_children(row)[j]
                vals[j] = [phi.eval(nxt) for phi in phis]
        probs = [p for p, _ in tree.branching[k]]
        return [sum((p * val[i] for p, val in zip(probs, vals)), Fraction(0)) - h
                for i, h in enumerate(here)]
    t = tree.time(k)
    b, sig = tree._coefficients(t, cand.prefix_for_call(row))
    d, l = tree.d, tree.l
    bbar = tuple([Fraction(0)] * d) + tuple(b)
    xi = cand.points[row]
    out = []
    for phi in phis:
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
        out.append(rate * tree.dt)
    return out


def _sigbar_entry(sig, d: int, i: int, j: int) -> Fraction:
    if i < d and j < d:
        return Fraction(1) if i == j else Fraction(0)
    if i < d:
        return sig[j - d][i]
    if j < d:
        return sig[i - d][j]
    return sum(sig[i - d][k] * sig[j - d][k] for k in range(len(sig[0])))


def _stop_at_horizon(tree: TreeInstance) -> StoppingMeasure:
    shape = tree._shape()
    conts = tuple(int(i < len(shape.first) - 1) for i in range(len(shape.probs)))
    return StoppingMeasure(shape, tuple(1 - c for c in conts), conts, 1)


# ---------------------------------------------------------------------------
# cylinder weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFactor:
    """Indicator factor at one time: optional box on the claimed (w, x)
    point and a stopped/not-stopped flag ("any" tests the box alone)."""

    time: int
    box: Optional[Tuple[Tuple[Fraction, Fraction], ...]] = None  # [lo, hi) per coordinate
    flag: str = "any"  # "stopped" | "open" | "any"

    def box_holds(self, point) -> bool:
        return self.box is None or all(lo <= c < hi for c, (lo, hi) in zip(point, self.box))


@dataclass(frozen=True)
class CylinderWeight:
    label: str
    factors: Tuple[WeightFactor, ...]


def weight_battery(tree: TreeInstance, cand: CandidateLaw, s: int) -> List[CylinderWeight]:
    """Deterministic cylinder-weight family for tests ending at time s.

    Enumerates, in order: the trivial weight; stopped / not-stopped flags
    at each time <= s; path-pinning boxes (built on rational thresholds
    separating the claimed values at each depth) with a flag at the pinned
    node's time.  The enumeration is capped at ``_WEIGHT_BUDGET`` weights.
    """
    out = [CylinderWeight(label="1", factors=())]
    for time in range(0, s + 1):
        for flag in ("stopped", "open"):
            out.append(CylinderWeight(
                label=f"{flag}@{time}", factors=(WeightFactor(time=time, flag=flag),)))
    # boxes that isolate the claimed path of each node at depth <= s, by
    # half the least gap between the claimed values at each depth
    shape, points, starts = cand.shape, cand.points, cand.shape.starts
    eps: Dict[int, Fraction] = {}
    pins = {0: ()}  # per row, the boxes on its path from depth 1 down
    for i in range(1, starts[min(s, tree.depth) + 1]):
        if len(out) >= _WEIGHT_BUDGET:
            break
        w = shape.word(i)
        k = len(w)
        if k not in eps:
            gaps = []
            for n in range(tree.d + tree.l):
                coords = sorted({pt[n] for pt in points[starts[k]:starts[k + 1]]})
                gaps += [b - a for a, b in zip(coords, coords[1:])]
            eps[k] = min(gaps) / 2 if gaps else Fraction(1)
        box = tuple((c, c + eps[k]) for c in points[i])
        pins[i] = pins[shape.parent[i]] + (WeightFactor(time=k, box=box),)
        for flag in ("any", "open", "stopped"):
            out.append(CylinderWeight(
                label=f"pin{''.join(map(str, w))}/{flag}",
                factors=pins[i][:-1] + (WeightFactor(time=k, box=box, flag=flag),)))
    return out[:_WEIGHT_BUDGET]


# ---------------------------------------------------------------------------
# the statistic  E[ (M_r - M_s)(phi) * weight ]
# ---------------------------------------------------------------------------

class _Sweep:
    """Forward sweeps of one candidate under one compensator mode.

    Construction tabulates, per inner node w with continue mass u, each
    child's open share cont(c)/u and stopped share stop(c)/u (both 0 when
    u = 0), and for every phi the level contribution of one unit of open
    mass, a = sum_j reach(c_j)/u * (phi(c_j) - phi(w)) - comp(w), and of
    one unit of stopped mass, b = sum_j post_j * (phi(c_j) - phi(w)) -
    comp(w).  No a is kept where u = 0: the open mass reaching a node is
    a multiple of its continue mass, so it is 0 there.  A weight's sweep
    then carries the weighted open and stopped masses (mo, ms) down the
    tree, and level k's contribution E[(M_{k+1} - M_k)(phi) * weight] is
    the sum of mo * a + ms * b over the nodes at depth k.  The masses
    depend on neither phi nor the time window, so statistic(s, r) sums
    levels s .. r-1.  All-zero unit rows are stored as None and skipped,
    and the sweep stops below the last level holding a nonzero row.

    The zero-row rule: in exact mode comp(w) = sum_j p_j * phi(c_j) - phi(w)
    with the model's branch probabilities p, which sum to exactly 1, so a
    and b are 0 for every phi when reach = p (or u = 0), post = p and no
    child of w has a state override.  Such a row stores (opens, stops,
    reach, None, None) without evaluating anything; phi is evaluated lazily,
    once per row, only at the other rows and their children.
    """

    def __init__(self, cand: CandidateLaw, mode: str, phis: Sequence[Polynomial]):
        if mode not in ("exact", "generator"):
            raise ValueError(f"unknown compensator mode {mode!r}")
        shape = cand.shape
        self.cand = cand
        zero = Fraction(0)
        self.zero_row = [zero] * len(phis)
        # per inner row, (open shares, stopped shares, their sums, a, b)
        self.table: List[tuple] = []
        self.live = 0
        vals: List[Optional[List[Fraction]]] = [None] * len(cand.points)

        def at(i: int) -> List[Fraction]:  # every phi at row i's claimed point, once
            if vals[i] is None:
                vals[i] = [phi.eval(cand.points[i]) for phi in phis]
            return vals[i]

        models = [[p for p, _ in level] for level in cand.tree.branching]
        plain = [mode == "exact" and post == model
                 for post, model in zip(cand.post_stop, models)]
        moved = {shape.parent[c] for c in cand.state_overrides if c}
        for row in range(len(shape.first) - 1):
            kids = range(shape.first[row], shape.first[row + 1])
            u, k = cand.conts[row], shape.depth(row)
            opens = [cand.conts[c] / u if u else zero for c in kids]
            stops = [cand.stops[c] / u if u else zero for c in kids]
            reach = [o + st for o, st in zip(opens, stops)]
            if plain[k] and (not u or reach == models[k]) and row not in moved:
                self.table.append((opens, stops, reach, None, None))
                continue
            here, kid_vals = at(row), [at(c) for c in kids]
            comps = _compensators(cand, row, mode, phis, here, kid_vals)
            rises = [[v - h for v, h in zip(kv, here)] for kv in kid_vals]
            a = _nonzero([sum((q * rise[i] for q, rise in zip(reach, rises)),
                              zero) - c for i, c in enumerate(comps)]) if u else None
            b = _nonzero([sum((p * rise[i] for p, rise in zip(cand.post_stop[k], rises)),
                              zero) - c for i, c in enumerate(comps)])
            if a or b:
                self.live = k + 1
            self.table.append((opens, stops, reach, a, b))
        self._levels: Dict[CylinderWeight, List[List[Fraction]]] = {}

    def levels(self, weight: CylinderWeight) -> List[List[Fraction]]:
        """Per level 0 .. depth-1, the statistic's contribution for each phi."""
        if not self.live:
            return [self.zero_row] * self.cand.tree.depth
        got = self._levels.get(weight)
        if got is not None:
            return got
        cand, zero, first = self.cand, Fraction(0), self.cand.shape.first
        out = []
        # after-decision weighted masses per row, set a level at a time;
        # factors zero them out at their times
        m_open, m_stop = [zero] * len(cand.points), [zero] * len(cand.points)
        m_open[0], m_stop[0] = cand.conts[0], cand.stops[0] + cand.pre_t0_stop_mass
        for k in range(self.live):
            rows = range(cand.shape.starts[k], cand.shape.starts[k + 1])
            for f in weight.factors:
                if f.time != k:
                    continue
                for i in rows:
                    holds = f.box_holds(cand.points[i])
                    if not (holds and f.flag in ("any", "open")):
                        m_open[i] = zero
                    if not (holds and f.flag in ("any", "stopped")):
                        m_stop[i] = zero
            post = cand.post_stop[k]
            acc = self.zero_row
            for i in rows:
                (opens, stops, _, a, b), mo, ms = self.table[i], m_open[i], m_stop[i]
                kids = slice(first[i], first[i + 1])
                # pre-stop flow follows the candidate's own mass ratios,
                # post-stop flow its post-stop branching
                if mo:
                    m_open[kids] = [mo * o for o in opens]
                    m_stop[kids] = ([mo * st + ms * p for st, p in zip(stops, post)]
                                    if ms else [mo * st for st in stops])
                elif ms:
                    m_stop[kids] = [ms * p for p in post]
                if mo and a:
                    acc = [x + mo * y for x, y in zip(acc, a)]
                if ms and b:
                    acc = [x + ms * y for x, y in zip(acc, b)]
            out.append(acc)
        out += [self.zero_row] * (cand.tree.depth - self.live)
        self._levels[weight] = out
        return out

    def direct_failure(self) -> dict:
        """The first departure of the claimed law from the model, or {}.

        In order: a level whose post-stop branching is not the tree's; in
        BFS order, an inner node with positive continue mass where some
        child's reach(c)/cont(w) (its open plus stopped share) is not the
        branch probability; in BFS order, a state override that is not the
        Euler step from the claimed parent prefix (the claimed history's
        last state at the root).  O(nodes): together with clause 2 these
        decide membership.
        """
        cand, shape = self.cand, self.cand.shape
        models = [[p for p, _ in level] for level in cand.tree.branching]
        for k, model in enumerate(models):
            if cand.post_stop[k] != model:
                return {"check": "post_stop", "level": k,
                        "claimed": cand.post_stop[k], "model": model}
        for i, (_, _, reach, _, _) in enumerate(self.table):
            if cand.conts[i] and reach != models[shape.depth(i)]:
                return {"check": "branching", "node": shape.word(i),
                        "claimed": reach, "model": models[shape.depth(i)]}
        for i in sorted(cand.state_overrides):  # BFS order
            parent = shape.parent[i]
            euler = (cand.claimed_history[-1] if i == 0 else
                     cand.model_children(parent)[i - shape.first[parent]])
            if cand.state_overrides[i] != euler:
                return {"check": "state", "node": shape.word(i),
                        "claimed": cand.state_overrides[i], "model": euler}
        return {}


def _nonzero(row: List[Fraction]) -> Optional[List[Fraction]]:
    return row if any(row) else None


def statistic(cand: CandidateLaw, phi: Polynomial, s: int, r: int,
              weight: CylinderWeight, mode: str = "exact") -> Fraction:
    """Exact expectation of a weighted compensated increment.

    The sum of the weight's level contributions over levels s .. r-1 (see
    ``_Sweep``), from tables built for this call alone, O(nodes *
    branches); ``check_membership`` builds one sweep for all its statistics.
    """
    tree = cand.tree
    if not 0 <= s < r <= tree.depth:
        raise ValueError(f"need 0 <= s < r <= {tree.depth}")
    if any(f.time > s for f in weight.factors):
        raise ValueError("weight factors must not look past the start time")
    levels = _Sweep(cand, mode, (phi,)).levels(weight)
    return sum((level[0] for level in levels[s:r]), Fraction(0))


# ---------------------------------------------------------------------------
# membership report
# ---------------------------------------------------------------------------

@dataclass
class MembershipReport:
    mode: str
    degree: int
    clause1: List[dict] = field(default_factory=list)
    clause1_pass: bool = True
    clause2_pass: bool = True
    clause2_detail: dict = field(default_factory=dict)
    direct_pass: bool = True
    direct_detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.clause1_pass and self.clause2_pass and self.direct_pass


def check_membership(tree: TreeInstance, candidate, degree: int = 2,
                     mode: str = "exact", tolerance=Fraction(1)) -> MembershipReport:
    """Decide membership of a candidate in the admissible law class.

    Clause 1 runs every monomial up to ``degree`` against all grid time
    pairs and the deterministic cylinder-weight battery: exact mode demands
    statistics identically zero, generator mode bounds them by
    tolerance * dt.  Clause 2 checks the support conditions (no stopping
    before the start, pinned pre-start history).  The direct check
    compares the claimed transitions and states with the model's node by
    node (``_Sweep.direct_failure``); the battery alone cannot decide, as a
    corruption that keeps the increment's lower moments passes every
    low-degree test.  The verdict is the conjunction of all three.  A
    degree below 1 would leave clause 1 empty and raises ``EmptyBattery``.
    A ``StoppingMeasure`` is read by ``CandidateLaw.from_measure``.
    """
    if degree > MAX_DEGREE:
        raise DegreeTooHigh(f"degree {shown(degree)} exceeds the cap {MAX_DEGREE}")
    if degree < 1:
        raise EmptyBattery(f"degree {shown(degree)} must be at least 1, or clause 1 tests nothing")
    if as_fraction(tolerance) < 0:
        raise ValueError(f"tolerance {shown(tolerance)} is negative")
    if isinstance(candidate, StoppingMeasure):
        candidate = CandidateLaw.from_measure(tree, candidate)
    report = MembershipReport(mode=mode, degree=degree)

    detail = {}
    if candidate.pre_t0_stop_mass != 0:
        detail["pre_t0_stop_mass"] = candidate.pre_t0_stop_mass
    if candidate.claimed_history != tree.history:
        detail["history"] = {"claimed": candidate.claimed_history,
                             "pinned": tree.history}
    never_stops = sum(candidate.conts[len(candidate.shape.first) - 1:])
    if never_stops != 0:
        detail["mass_never_stopping"] = never_stops
    report.clause2_detail = detail
    report.clause2_pass = not detail

    basis = monomial_basis(tree.d, tree.l, degree)
    sweep = _Sweep(candidate, mode, [phi for _, phi in basis])
    report.direct_detail = sweep.direct_failure()
    report.direct_pass = not report.direct_detail

    threshold = as_fraction(tolerance) * tree.dt
    for s in range(0, tree.depth):
        weights = weight_battery(tree, candidate, s)
        # per weight, the statistics of every phi over the windows s < r, in
        # order of r: running sums of the weight's level rows
        windows = []
        for weight in weights:
            running, sums = sweep.zero_row, []
            for level in sweep.levels(weight)[s:]:
                if any(level):
                    running = [x + y for x, y in zip(running, level)]
                sums.append(running)
            windows.append(sums)
        for r in range(s + 1, tree.depth + 1):
            for i, (label, _) in enumerate(basis):
                for weight, sums in zip(weights, windows):
                    val = sums[r - s - 1][i]
                    ok = val == 0 if mode == "exact" else abs(val) <= threshold
                    report.clause1.append({
                        "phi": label, "s": s, "r": r, "weight": weight.label,
                        "stat": val, "pass": ok,
                    })
                    if not ok:
                        report.clause1_pass = False
    return report


# ---------------------------------------------------------------------------
# corrupt-candidate constructors (negative controls)
# ---------------------------------------------------------------------------

def candidate_with_branch_bias(tree: TreeInstance, rule: RandomizedStoppingRule,
                               bias) -> CandidateLaw:
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
    shape, (stops, conts) = measure.shape, measure.masses(tree)
    for j, (child, sign) in enumerate(zip(range(shape.first[i], shape.first[i + 1]), (1, -1))):
        p = tree.branching[len(node)][j][0]
        if not 0 <= p + sign * delta <= 1:
            raise ValueError("biased probability outside [0, 1]")
        for c in shape.rows_below(child):
            stops[c] *= (p + sign * delta) / p
            conts[c] *= (p + sign * delta) / p
    return CandidateLaw._of_rows(tree, stops, conts)


def candidate_with_state_shift(tree: TreeInstance, measure: StoppingMeasure,
                               node: Word, delta) -> CandidateLaw:
    """A candidate claiming a shifted state value at one node."""
    tree.check_word(node)
    if len(node) == 0:
        raise ValueError("shift an interior node; the root state is part of "
                         "the pinned history (a support violation instead)")
    delta = as_fraction(delta)
    base = _as_vector(tree.state(node), tree.l)
    shifted = (base[0] + delta,) + base[1:]
    return CandidateLaw._of_rows(tree, *measure.masses(tree), 0, {node: shifted})


def candidate_with_pre_start_mass(tree: TreeInstance, measure: StoppingMeasure,
                                  eps) -> CandidateLaw:
    """A candidate leaking mass to stopping before the start time."""
    eps = as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    return CandidateLaw._of_rows(
        tree, *([(1 - eps) * m for m in masses] for masses in measure.masses(tree)), eps)


# ---------------------------------------------------------------------------
# grid-refinement study of the generator gap
# ---------------------------------------------------------------------------

def generator_gap_decay() -> dict:
    """Largest generator-mode statistic across grid refinements.

    Builds symmetric binomial trees on [0, 1] with dt = 1, 1/2, 1/4 and 1/8,
    increments +-sqrt(dt) (snapped to exact binary rationals), drift and
    diffusion 1 and x0 = 0, measures the maximal absolute degree-2 clause-1
    statistic with the trivial weight over the whole horizon, and fits a
    log-log slope.  The exact compensator would give zero; the generator
    form leaves the Euler gap, which decays linearly in dt.
    """
    dts = [Fraction(1, 2 ** k) for k in range(4)]
    phis = [phi for _, phi in monomial_basis(1, 1, 2)]
    stats: List[float] = []
    for dt in dts:
        w = as_fraction(math.sqrt(float(dt)))
        tree = TreeInstance(dt=dt, depth=dt.denominator,  # horizon 1
                            branching=[(Fraction(1, 2), w), (Fraction(1, 2), -w)],
                            x0=0, drift=1, diffusion=1)
        cand = CandidateLaw.from_measure(tree, _stop_at_horizon(tree))
        levels = _Sweep(cand, "generator", phis).levels(
            CylinderWeight(label="1", factors=()))
        stats.append(float(max(abs(sum(col, Fraction(0))) for col in zip(*levels))))
    slope = linear_regression([math.log(dt) for dt in dts], [math.log(v) for v in stats]).slope
    return {"dts": dts, "stats": stats, "slope": slope}
