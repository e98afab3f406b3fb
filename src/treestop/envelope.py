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
from typing import List, Sequence, Tuple

from .errors import BudgetBelowDomain
from .xreal import Ext, as_fraction

# every leaf envelope starts at budget 0; one shared tuple keeps them small
_ZERO_XS = (Fraction(0),)


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

    def shifted(self, dx, dv) -> "ConcaveEnvelope":
        dx, dv = as_fraction(dx), as_fraction(dv)
        return ConcaveEnvelope(xs=tuple(x + dx for x in self.xs),
                               vs=tuple(v + dv for v in self.vs))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(x0, v) -> "ConcaveEnvelope":
        x0 = as_fraction(x0)
        return ConcaveEnvelope(xs=_ZERO_XS if x0 == 0 else (x0,),
                               vs=(as_fraction(v),))

    @staticmethod
    def from_breakpoints(xs: Sequence, vs: Sequence) -> "ConcaveEnvelope":
        return _canonical(list(map(as_fraction, xs)), list(map(as_fraction, vs)))

    @staticmethod
    def hull_of_points(points: Sequence[Tuple[Fraction, Fraction]]) -> "ConcaveEnvelope":
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
        return _canonical([x for x, _ in hull], [v for _, v in hull])


def _canonical(xs: List[Fraction], vs: List[Fraction]) -> ConcaveEnvelope:
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


def _merged_segments(children: Sequence[Tuple[Fraction, ConcaveEnvelope]]):
    """Children's rising segments as (slope, global width, child index),
    steepest first; ties go to the lower child index, then to the earlier
    segment.  A child of probability 0 has no width to offer.

    Each child's segments already come steepest first, so the pool is a
    concatenation of sorted runs, which the sort merges run by run.
    """
    pool = [(-s, j, k, p * w) for j, (p, env) in enumerate(children) if p
            for k, (s, w) in enumerate(env.segments())]
    pool.sort()
    return [(-neg, gwidth, j) for neg, j, _, gwidth in pool]


def _merged_chain(children, dx=0, dv=0):
    """Kinks of the merged envelope shifted by (dx, dv), with the slopes
    between them: kink i and kink i+1 are joined by slopes[i].

    Equal consecutive slopes are merged while walking, so the chain is
    canonical: strictly rising with strictly decreasing slopes.
    """
    x = sum(p * env.xs[0] for p, env in children) + dx
    v = sum(p * env.vs[0] for p, env in children) + dv
    xs, vs, slopes = [x], [v], []
    for slope, gwidth, _ in _merged_segments(children):
        x += gwidth
        v += slope * gwidth
        if slopes and slopes[-1] == slope:
            xs[-1], vs[-1] = x, v
        else:
            xs.append(x), vs.append(v), slopes.append(slope)
    return xs, vs, slopes


def merged_envelope(children: Sequence[Tuple[Fraction, ConcaveEnvelope]]) -> ConcaveEnvelope:
    """Value of the best budget split across children, as a function of the
    total budget sum p_j * y_j.

    Children's marginal slopes are interleaved in decreasing order; a unit
    of global budget spent on child j advances its local budget by 1/p_j
    and earns its current slope, so the merged function is concave with
    exactly those slopes.
    """
    xs, vs, _ = _merged_chain(children)
    return ConcaveEnvelope(xs=tuple(xs), vs=tuple(vs))


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
    for slope, gwidth, j in _merged_segments(children):
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
