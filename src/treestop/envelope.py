"""Piecewise-linear concave value-in-budget functions.

An envelope is a concave, non-decreasing function on [xs[0], inf),
stored as exact rational breakpoints and constant beyond the last one.
The backward induction in the budget runs on chains: an envelope's start
point, top value and rising (rise, width) segments, steepest first, as
ints over one budget unit and one value unit.  Children's chains merge
(``_merged``) by sorting their pooled segments on each slope rounded to a
float, which orders distinct floats exactly; segments of one float are
cross-multiplied, and when that shows the floats hid the order, or a slope
is beyond the float range, the pool sorts by cross multiplication alone.
``_built`` turns a chain back into an envelope after checking it in ints
(positive widths, nonnegative rises, falling slopes by cross
multiplication), so no slope is re-derived by Fraction arithmetic;
Fractions are met only there, one per breakpoint coordinate.  The public
constructor runs the same check on its breakpoints' Fraction (rise, width)
pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Tuple

from .errors import BudgetBelowDomain
from .xreal import Ext, shown


@dataclass(frozen=True, slots=True)
class ConcaveEnvelope:
    """Breakpoints of a concave non-decreasing piecewise-linear function."""

    xs: Tuple[Fraction, ...]
    vs: Tuple[Fraction, ...]

    def __post_init__(self):
        if not self.xs or len(self.xs) != len(self.vs):
            raise ValueError("need matching, non-empty breakpoint lists")
        _check([(v1 - v0, x1 - x0) for x0, x1, v0, v1 in
                zip(self.xs, self.xs[1:], self.vs, self.vs[1:])])

    def value(self, y) -> Fraction:
        """Evaluate at a budget; +inf returns the terminal plateau."""
        y = Ext.parse(y)
        if y.is_pos_inf:
            return self.vs[-1]
        if y.is_neg_inf or y.fraction() < self.xs[0]:
            raise BudgetBelowDomain(
                f"budget {shown(y)} below smallest feasible budget {shown(self.xs[0])}")
        yy = y.fraction()
        if yy >= self.xs[-1]:
            return self.vs[-1]
        i = bisect_right(self.xs, yy) - 1
        x0, x1 = self.xs[i], self.xs[i + 1]
        v0, v1 = self.vs[i], self.vs[i + 1]
        return v0 + (v1 - v0) * (yy - x0) / (x1 - x0)


# (rise, width) segment a sorts before b when its slope is greater
_STEEPEST_FIRST = cmp_to_key(lambda a, b: b[0] * a[1] - a[0] * b[1])


def _merged(chains, dx=0, dv=0):
    """The sum of (weight, chain) pairs, moved by (dx, dv).

    A chain is (x0, v0, top value, (rise, width) segments of its rising
    part, steepest first), all ints in one pair of units; a weight is a
    positive int.  The pooled segments sort steepest first on their slopes
    rounded to floats, and equal slopes merge by adding rises and widths.
    Rounding is monotone, so a float below the one before it is a smaller
    slope, and only segments of equal floats are cross-multiplied.  When
    equal floats hide the order, or a slope is beyond the float range, the
    pool sorts by exact cross multiplication instead.
    """
    x0, v0, top = dx, dv, dv
    for b, (x, v, v_top, _) in chains:
        x0, v0, top = x0 + b * x, v0 + b * v, top + b * v_top
    try:  # a weight cancels in its segments' slopes: each float is r / w
        pool = [(r / w, b * r, b * w) for b, chain in chains for r, w in chain[3]]
    except OverflowError:
        segments = None
    else:
        pool.sort(reverse=True)
        segments = _folded(pool)
    if segments is None:
        pool = sorted([(b * r, b * w) for b, chain in chains for r, w in chain[3]],
                      key=_STEEPEST_FIRST)
        segments = _folded([(0, r, w) for r, w in pool])  # one key: every pair compared
    return x0, v0, top, segments


def _folded(pool):
    """(key, rise, width) triples, keys falling, as (rise, width) segments
    with equal slopes added; None when two of one key are out of order."""
    segments, last = [], None
    for key, r, w in pool:
        if key == last:
            r0, w0 = segments[-1]
            if r * w0 == r0 * w:
                segments[-1] = (r0 + r, w0 + w)
                continue
            if r * w0 > r0 * w:
                return None
        segments.append((r, w))
        last = key
    return segments


def _check(segments) -> None:
    """Check (rise, width) segments, ints or Fractions: every width
    positive, every rise nonnegative, and slopes falling by cross
    multiplication."""
    if any(w <= 0 for _, w in segments):
        raise ValueError("breakpoints must increase strictly")
    if any(r < 0 for r, _ in segments):
        raise ValueError("envelope must be non-decreasing")
    for (r0, w0), (r1, w1) in zip(segments, segments[1:]):
        if r1 * w0 > r0 * w1:
            raise ValueError("envelope must be concave")


def _built(chain, x_unit, v_unit) -> ConcaveEnvelope:
    """The envelope of an int chain whose budgets are over ``x_unit`` and
    values over ``v_unit``, checked by ``_check``."""
    x, v, _, segments = chain
    _check(segments)
    xs, vs = [Fraction(x, x_unit)], [Fraction(v, v_unit)]
    for r, w in segments:
        x, v = x + w, v + r
        xs.append(Fraction(x, x_unit)), vs.append(Fraction(v, v_unit))
    env = object.__new__(ConcaveEnvelope)  # checked: no __post_init__ pass
    object.__setattr__(env, "xs", tuple(xs))
    object.__setattr__(env, "vs", tuple(vs))
    return env
