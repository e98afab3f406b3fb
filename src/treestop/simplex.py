"""Dense two-phase simplex over exact rationals, on integer rows.

Solves  max c.x  subject to  rows[i] . x  <sense_i>  rhs[i],  x >= 0
with senses "<=", ">=", "=".  Bland's rule is used throughout, so the
method cannot cycle, and the returned optimum is exact.  Every row carries
an artificial column, which makes phase-one startup uniform and lets dual
prices be read off the final reduced-cost row.  Sized for desk-scale
problems: ``lp.solve_weak`` calls it on its column-generation master (one
row per finite budget plus the convexity row, one column per pure stopping
time priced in) and on its crossover (one variable per tied node), both
small whatever the tree's size.

The tableau holds no Fraction objects.  Each constraint row and the
reduced-cost row is a list of Python ints over one positive row
denominator, kept divided by the gcd of the row and its denominator.  A
pivot makes the pivot element the pivot row's denominator; every other row
becomes (a*pden - f*prow) / (da*pden), which touches only the pivot row's
nonzeros when pden == 1.  Signs are read straight off the ints and the
ratio test compares b_i/a_ie by cross-multiplication, since the row
denominator cancels.  Fractions appear only where the inputs are converted
and where x, the objective, duals and certificates are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence

from .errors import InvariantViolation

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ONE = Fraction(1)


@dataclass
class LPResult:
    status: str
    x: Optional[List[Fraction]] = None
    objective: Optional[Fraction] = None
    # duals[i] = d(objective)/d(rhs[i]) at the optimum: relaxing a <= row
    # cannot decrease the value.
    duals: Optional[List[Fraction]] = None
    # Farkas certificate when infeasible: multipliers y per original row
    # with y . rhs > 0 and y . col <= 0 for every column of the standard
    # form (structural and slack), witnessing emptiness.
    certificate: Optional[List[Fraction]] = None


def _scaled(values: Sequence):
    """Integer numerators of ``values`` over their least common denominator."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _reduced(row: List[int], den: int):
    g = gcd(den, *row)
    if g > 1:
        return [v // g for v in row], den // g
    return row, den


def _eliminate(T, D, i, r, e, nz) -> None:
    """Clear column e of row i against row r, whose entry there is D[r]."""
    row, f, pden, prow = T[i], T[i][e], D[r], T[r]
    den = D[i]
    if pden != 1:
        row = [v * pden for v in row]
        den *= pden
    for j in nz:  # the nonzeros of prow
        row[j] -= f * prow[j]
    T[i], D[i] = _reduced(row, den)


def _pivot(T, D, basis, r, e) -> None:
    """Pivot on (r, e) across every row of T, reduced-cost row included."""
    prow, pden = T[r], T[r][e]
    if pden < 0:
        prow, pden = [-v for v in prow], -pden
    T[r], D[r] = _reduced(prow, pden)
    prow = T[r]
    nz = [j for j, v in enumerate(prow) if v]
    for i in range(len(T)):
        if i != r and T[i][e]:
            _eliminate(T, D, i, r, e, nz)
    basis[r] = e


def _run(T, D, basis, m, limit) -> str:
    """Bland's rule on the reduced-cost row T[m], entering among j < limit."""
    obj, rhs = T[m], len(T[m]) - 1
    while True:
        # entering = lowest-index negative reduced cost
        e = next((j for j in range(limit) if obj[j] < 0), -1)
        if e < 0:
            return OPTIMAL
        # leaving = smallest b_i / a_ie, ties to the lowest basic index
        leave, lb, la = -1, 0, 1
        for i in range(m):
            a = T[i][e]
            if a > 0:
                b = T[i][rhs]
                if leave < 0 or b * la < lb * a or \
                        (b * la == lb * a and basis[i] < basis[leave]):
                    leave, lb, la = i, b, a
        if leave < 0:
            return UNBOUNDED
        _pivot(T, D, basis, leave, e)
        obj = T[m]


def solve_lp(c: Sequence, rows: Sequence[Sequence], senses: Sequence[str],
             rhs: Sequence) -> LPResult:
    n = len(c)
    m = len(rows)
    c = [Fraction(v) for v in c]

    # orient all rows to rhs >= 0, remembering the sign flips for duals
    sense = list(senses)
    flip = [_ONE] * m
    scaled = []
    for i in range(m):
        nums, den = _scaled(list(rows[i]) + [rhs[i]])
        if nums[n] < 0:
            nums = [-v for v in nums]
            flip[i] = -_ONE
            if sense[i] == "<=":
                sense[i] = ">="
            elif sense[i] == ">=":
                sense[i] = "<="
        scaled.append((nums, den))

    # columns: structural | slack/surplus | artificial (one per row) | rhs;
    # row i of the tableau is T[i] / D[i], and T[m] / D[m] is the
    # reduced-cost row of the current phase
    slack_col = [-1] * m
    n_slack = 0
    for i in range(m):
        if sense[i] in ("<=", ">="):
            slack_col[i] = n + n_slack
            n_slack += 1
    art0 = n + n_slack
    width = art0 + m
    T, D = [], []
    for i, (nums, den) in enumerate(scaled):
        row = nums[:n] + [0] * (n_slack + m) + [nums[n]]
        if slack_col[i] >= 0:
            row[slack_col[i]] = den if sense[i] == "<=" else -den
        row[art0 + i] = den
        T.append(row)
        D.append(den)

    # <= rows start on their slack; others on their artificial.  Artificial
    # columns stay in the tableau either way: they are the unit columns the
    # dual prices are read from at the end.
    basis = [0] * m
    for i in range(m):
        basis[i] = slack_col[i] if sense[i] == "<=" else art0 + i

    def price_out() -> None:
        # eliminate the basic columns from the reduced-cost row T[m]
        for i in range(m):
            if T[m][basis[i]]:
                _eliminate(T, D, m, i, basis[i],
                           [j for j, v in enumerate(T[i]) if v])

    # phase-one reduced costs: cost 1 on artificials
    T.append([0] * art0 + [1] * m + [0])
    D.append(1)
    price_out()
    status = _run(T, D, basis, m, width)
    if status != OPTIMAL:
        raise InvariantViolation(
            f"phase one is bounded below by zero but came back {status}")

    if T[m][width] < 0:  # leftover infeasibility: r1 rhs is -(phase-1 value)
        # duals of phase one give the emptiness certificate
        r1, d1 = T[m], D[m]
        y = [Fraction(d1 - r1[art0 + i], d1) * flip[i] for i in range(m)]
        return LPResult(status=INFEASIBLE, certificate=y)

    # drive basic artificials out on any nonzero entry (their rows are at 0)
    for i in range(m):
        if basis[i] >= art0:
            for j in range(art0):
                if T[i][j]:
                    _pivot(T, D, basis, i, j)
                    break

    # phase two minimizes -c.x
    nums, den = _scaled([-v for v in c])
    T[m] = nums + [0] * (n_slack + m) + [0]
    D[m] = den
    price_out()
    status = _run(T, D, basis, m, art0)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(T[i][width], D[i])
    r2, d2 = T[m], D[m]
    duals = [Fraction(r2[art0 + i], d2) * flip[i] for i in range(m)]
    return LPResult(status=OPTIMAL, x=x, objective=sum(ci * xi for ci, xi in zip(c, x)),
                    duals=duals)
