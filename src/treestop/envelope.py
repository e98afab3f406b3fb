"""Piecewise-linear concave value-in-budget functions.

An envelope is a concave, non-decreasing function on [domain_start, inf),
stored as exact rational breakpoints and constant beyond the last one.
The algebra here (pointwise shifts, probability-weighted merging of
marginal slopes, upper concave hulls) is what the scalar-budget backward
induction runs on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import List, Sequence, Tuple

from .errors import BudgetBelowDomain
from .xreal import Ext, as_fraction


@dataclass(frozen=True, slots=True)
class ConcaveEnvelope:
    """Breakpoints of a concave non-decreasing piecewise-linear function.

    The slopes between breakpoints are computed once, when the envelope is
    validated, and kept for merging.
    """

    xs: Tuple[Fraction, ...]
    vs: Tuple[Fraction, ...]
    _slopes: Tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.xs or len(self.xs) != len(self.vs):
            raise ValueError("need matching, non-empty breakpoint lists")
        for a, b in zip(self.xs, self.xs[1:]):
            if b <= a:
                raise ValueError("breakpoints must increase strictly")
        slopes = tuple((v1 - v0) / (x1 - x0) for x0, x1, v0, v1 in
                       zip(self.xs, self.xs[1:], self.vs, self.vs[1:]))
        for s in slopes:
            if s < 0:
                raise ValueError("envelope must be non-decreasing")
        for a, b in zip(slopes, slopes[1:]):
            if b > a:
                raise ValueError("envelope must be concave")
        object.__setattr__(self, "_slopes", slopes)

    # -- basic queries -----------------------------------------------------

    @property
    def domain_start(self) -> Fraction:
        return self.xs[0]

    def slopes(self) -> List[Fraction]:
        return list(self._slopes)

    def segments(self) -> List[Tuple[Fraction, Fraction]]:
        """(slope, width) pairs of the strictly rising part."""
        return [(s, x1 - x0) for s, x0, x1 in
                zip(self._slopes, self.xs, self.xs[1:]) if s > 0]

    def value(self, y) -> Fraction:
        """Evaluate at a budget; +inf returns the terminal plateau."""
        y = Ext.parse(y)
        if y.is_pos_inf:
            return self.vs[-1]
        if y.is_neg_inf or y.fraction() < self.xs[0]:
            raise BudgetBelowDomain(
                f"budget {y} below smallest feasible budget {self.xs[0]}")
        yy = y.fraction()
        if yy >= self.xs[-1]:
            return self.vs[-1]
        i = bisect_right(self.xs, yy) - 1
        x0, x1 = self.xs[i], self.xs[i + 1]
        v0, v1 = self.vs[i], self.vs[i + 1]
        return v0 + (v1 - v0) * (yy - x0) / (x1 - x0)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(x0, v) -> "ConcaveEnvelope":
        return ConcaveEnvelope(xs=(as_fraction(x0),), vs=(as_fraction(v),))


def _scaled(p, env: ConcaveEnvelope):
    """p * env as a chain (x0, v0, top value, (slope, width) pairs of the
    rising part, steepest first); a child of probability 0 has no width."""
    segments = tuple((s, p * w) for s, w in env.segments()) if p else ()
    return p * env.xs[0], p * env.vs[0], p * env.vs[-1], segments


def _steepest_first(pool: list) -> list:
    """Sort (slope, width, ...) segments steepest first, in place.  The sort
    is stable, so equal slopes keep their pool order: by chain (child), then
    along each chain."""
    pool.sort(key=itemgetter(0), reverse=True)
    return pool


def _merged(chains, dx=0, dv=0):
    """The sum of chains in one unit, moved by (dx, dv), segments in a list;
    equal slopes merge by adding widths."""
    x0, v0, top, pool = dx, dv, dv, []
    for x, v, v_top, chain_segments in chains:
        x0, v0, top = x0 + x, v0 + v, top + v_top
        pool += chain_segments
    segments = []
    for s, w in _steepest_first(pool):
        if segments and segments[-1][0] == s:
            segments[-1] = (s, segments[-1][1] + w)
        else:
            segments.append((s, w))
    return x0, v0, top, segments


def _built(chain, unit=1) -> ConcaveEnvelope:
    """The envelope of a chain whose values are ``unit`` times its own."""
    x, v, _, segments = chain
    xs, vs = [x], [v]
    for s, w in segments:
        x, v = x + w, v + s * w
        xs.append(x), vs.append(v)
    return ConcaveEnvelope(xs=tuple(a / unit for a in xs),
                           vs=tuple(b / unit for b in vs))


def merged_envelope(children: Sequence[Tuple[Fraction, ConcaveEnvelope]]) -> ConcaveEnvelope:
    """Value of the best budget split across children, as a function of the
    total budget sum p_j * y_j.

    Children's marginal slopes are interleaved in decreasing order; a unit
    of global budget spent on child j advances its local budget by 1/p_j
    and earns its current slope, so the merged function is concave with
    exactly those slopes.
    """
    return _built(_merged([_scaled(p, env) for p, env in children]))


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
            for s, w in env.segments()]
    for slope, gwidth, j in _steepest_first(pool):
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
