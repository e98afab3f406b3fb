"""Dense two-phase simplex over exact rationals, on integer rows.

Solves  max c.x  subject to  rows[i] . x  <sense_i>  rhs[i],  x >= 0
with senses "<=", ">=", "=".  Bland's rule is used throughout, so the
method cannot cycle, and the returned optimum is exact.  Every row carries
an artificial column, which makes phase-one startup uniform and lets dual
prices be read off the final reduced-cost row.  Sized for desk-scale
problems: ``lp.solve_weak`` keeps one ``Tableau`` as its column-generation
master (one row per finite budget plus the convexity row, one column per
pure stopping time priced in) and calls ``solve_lp`` on its crossover (one
variable per tied node), both small whatever the tree's size.

The tableau is kept between solves.  ``Tableau.enter`` adds a column at
the current basis: its tableau column is B^-1 a, read off the artificial
columns, which hold B^-1, and its reduced cost comes from the current
multipliers (r[art k]/D - 1 in phase one, r[art k]/D in phase two).
``Tableau.solve`` then resumes Bland's rule from the last basis, in the
phase the last solve stopped in: phase one after an infeasible solve,
phase two after an optimal one.  In phase two a basic artificial sits at
level 0 in a row that was redundant for the earlier columns; a column that
touches that row pivots the artificial out at once, a degenerate pivot.
``solve_lp`` is the cold path: build at the slack/artificial basis, then
solve.

The tableau holds no Fraction objects.  Each constraint row and the
reduced-cost row is a list of Python ints over one positive row
denominator, kept divided by the gcd of the row and its denominator.  A
pivot makes the pivot element the pivot row's denominator; every other row
becomes (a*pden - f*prow) / (da*pden), which touches only the pivot row's
nonzeros when pden == 1.  An entering column's entries are ints over the
row's denominator times the column's, so every row is rescaled by the
column's denominator.  Signs are read straight off the ints and the ratio
test compares b_i/a_ie by cross-multiplication, since the row denominator
cancels.  Fractions appear only where the inputs are converted and where
x, the objective, duals and certificates are built.
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


class Tableau:
    """One LP's tableau, kept between solves so that columns can enter.

    Columns: structural | slack/surplus | artificial (one per row) | rhs.
    Row i of the tableau is T[i] / D[i], and T[m] / D[m] is the
    reduced-cost row of the current phase.
    """

    def __init__(self, c: Sequence, rows: Sequence[Sequence], senses: Sequence[str],
                 rhs: Sequence):
        n = len(c)
        m = self.m = len(rows)
        self.c = [Fraction(v) for v in c]

        # orient all rows to rhs >= 0, remembering the sign flips for duals
        sense = list(senses)
        flip = self.flip = [1] * m
        scaled = []
        for i in range(m):
            nums, den = _scaled(list(rows[i]) + [rhs[i]])
            if nums[n] < 0:
                nums = [-v for v in nums]
                flip[i] = -1
                if sense[i] == "<=":
                    sense[i] = ">="
                elif sense[i] == ">=":
                    sense[i] = "<="
            scaled.append((nums, den))

        slack_col = [-1] * m
        n_slack = 0
        for i in range(m):
            if sense[i] in ("<=", ">="):
                slack_col[i] = n + n_slack
                n_slack += 1
        art0 = self.art0 = n + n_slack
        T, D = self.T, self.D = [], []
        for i, (nums, den) in enumerate(scaled):
            row = nums[:n] + [0] * (n_slack + m) + [nums[n]]
            if slack_col[i] >= 0:
                row[slack_col[i]] = den if sense[i] == "<=" else -den
            row[art0 + i] = den
            T.append(row)
            D.append(den)

        # <= rows start on their slack; others on their artificial.  Artificial
        # columns stay in the tableau either way: they hold B^-1, from which
        # an entering column and the dual prices are read.
        self.basis = [slack_col[i] if sense[i] == "<=" else art0 + i for i in range(m)]

        # phase-one reduced costs: cost 1 on artificials
        T.append([0] * art0 + [1] * m + [0])
        D.append(1)
        self._price_out()
        self.phase = 1

    def _price_out(self) -> None:
        """Eliminate the basic columns from the reduced-cost row T[m]."""
        T, D, m = self.T, self.D, self.m
        for i, b in enumerate(self.basis):
            if T[m][b]:
                _eliminate(T, D, m, i, b, [j for j, v in enumerate(T[i]) if v])

    def enter(self, cost, column: Sequence) -> None:
        """Add a column, nonbasic at 0, after the structural columns.

        ``cost`` is its objective coefficient and ``column`` its entry in
        each row, as the rows were given.
        """
        T, D, m, flip = self.T, self.D, self.m, self.flip
        j, art = len(self.c), self.art0
        nums, den = _scaled([*column, -cost])  # phase two minimizes -c.x
        a = [f * v for f, v in zip(flip, nums)]  # the column of the oriented rows
        for i in range(m + 1):
            row = T[i]
            v = sum(row[art + k] * a[k] for k in range(m) if a[k])
            if i == m:  # multipliers r[art k]/D - 1 in phase one, r[art k]/D in phase two
                v += D[m] * (nums[m] if self.phase == 2 else -sum(a))
            if den != 1:
                row = [t * den for t in row]
            row.insert(j, v)
            T[i], D[i] = _reduced(row, D[i] * den)
        self.c.append(Fraction(cost))
        self.basis = basis = [b + (b >= j) for b in self.basis]
        self.art0 += 1
        if self.phase == 2:
            # a basic artificial sits at 0 in a row redundant so far; the
            # column leaves it redundant only if it does not touch that row
            for i in range(m):
                if basis[i] >= self.art0 and T[i][j]:
                    _pivot(T, D, basis, i, j)
                    break

    def solve(self) -> LPResult:
        """Resume Bland's rule from the current basis, in the current phase.

        Returns the status with the duals (optimal) or the Farkas
        certificate (infeasible); ``x`` and ``objective`` read an optimum.
        """
        T, D, basis, m, flip = self.T, self.D, self.basis, self.m, self.flip
        art0 = self.art0
        width = art0 + m
        if self.phase == 1:
            status = _run(T, D, basis, m, width)
            if status != OPTIMAL:
                raise InvariantViolation(
                    f"phase one is bounded below by zero but came back {status}")
            if T[m][width] < 0:  # leftover infeasibility: r1 rhs is -(phase-1 value)
                # duals of phase one give the emptiness certificate
                r1, d1 = T[m], D[m]
                return LPResult(status=INFEASIBLE, certificate=[
                    Fraction(d1 - r1[art0 + i], d1) * flip[i] for i in range(m)])

            # drive basic artificials out on any nonzero entry (their rows are at 0)
            for i in range(m):
                if basis[i] >= art0:
                    for j in range(art0):
                        if T[i][j]:
                            _pivot(T, D, basis, i, j)
                            break

            # phase two minimizes -c.x
            nums, den = _scaled([-v for v in self.c])
            T[m] = nums + [0] * (width - len(nums)) + [0]
            D[m] = den
            self._price_out()
            self.phase = 2
        if _run(T, D, basis, m, art0) == UNBOUNDED:
            return LPResult(status=UNBOUNDED)
        r2, d2 = T[m], D[m]
        return LPResult(status=OPTIMAL,
                        duals=[Fraction(r2[art0 + i], d2) * flip[i] for i in range(m)])

    def x(self) -> List[Fraction]:
        """The structural variables at the current basis."""
        T, D, rhs = self.T, self.D, self.art0 + self.m
        x = [Fraction(0)] * len(self.c)
        for i, b in enumerate(self.basis):
            if b < len(x):
                x[b] = Fraction(T[i][rhs], D[i])
        return x

    def objective(self) -> Fraction:
        """c.x at the current basis of phase two: the reduced-cost row's rhs."""
        m = self.m
        return Fraction(self.T[m][self.art0 + m], self.D[m])


def solve_lp(c: Sequence, rows: Sequence[Sequence], senses: Sequence[str],
             rhs: Sequence) -> LPResult:
    """The cold path: build the tableau at the slack/artificial basis and solve."""
    tableau = Tableau(c, rows, senses, rhs)
    res = tableau.solve()
    if res.status == OPTIMAL:
        res.x, res.objective = tableau.x(), tableau.objective()
    return res
