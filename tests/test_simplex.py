import random
from fractions import Fraction
from itertools import combinations

import pytest

from treestop import BudgetVector, InvariantViolation, load_instance, simplex
from treestop.generate import generate_instance
from treestop.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

from conftest import assert_agrees_with_cold, solve_weak_recording_lps
from oracles import fraction_simplex

F = Fraction


def test_simple_max():
    # max x + y st x + 2y <= 4, 3x + y <= 6
    res = solve_lp([1, 1], [[1, 2], [3, 1]], ["<=", "<="], [4, 6])
    assert res.status == OPTIMAL
    assert res.objective == F(14, 5)
    assert res.x == [F(8, 5), F(6, 5)]


def test_equality_and_duals():
    # max 2x + y st x + y = 1 -> optimum at x=1, dual of the row is 2
    res = solve_lp([2, 1], [[1, 1]], ["="], [1])
    assert res.status == OPTIMAL and res.objective == 2
    assert res.duals == [F(2)]


def test_dual_of_binding_inequality_is_marginal_value():
    # max x st x <= 3: relaxing the bound gains 1 per unit
    res = solve_lp([1], [[1]], ["<="], [3])
    assert res.objective == 3 and res.duals == [F(1)]
    # non-binding row prices at zero
    res = solve_lp([1], [[1], [1]], ["<=", "<="], [3, 5])
    assert res.duals == [F(1), F(0)]


def test_infeasible_with_farkas_certificate():
    rows = [[1, 1], [-1, -1]]
    senses = ["<=", "<="]
    rhs = [1, -3]  # x + y <= 1 and x + y >= 3
    res = solve_lp([1, 0], rows, senses, rhs)
    assert res.status == INFEASIBLE
    y = res.certificate
    # certificate: y.A <= 0 per column, y.rhs > 0, y <= 0 on "<=" rows
    for j in range(2):
        assert sum(y[i] * rows[i][j] for i in range(2)) <= 0
    assert sum(y[i] * rhs[i] for i in range(2)) > 0
    for yi, sense in zip(y, senses):
        assert yi <= 0 if sense == "<=" else True


def test_unbounded_detected():
    res = solve_lp([1], [[-1]], ["<="], [0])
    assert res.status == UNBOUNDED


def test_degenerate_zero_row_is_harmless():
    res = solve_lp([1], [[1], [0]], ["<=", "="], [2, 0])
    assert res.status == OPTIMAL and res.objective == 2


def test_negative_rhs_orientation():
    # x >= 2 written as -x <= -2, minimize x (maximize -x)
    res = solve_lp([-1], [[-1]], ["<="], [-2])
    assert res.status == OPTIMAL and res.objective == -2


def _enumerate_vertices(c, rows, senses, rhs):
    """Brute-force optimum over basic solutions of the standard form."""
    n = len(c)
    cols = [list(col) for col in zip(*rows)]
    slack = 0
    for i, s in enumerate(senses):
        if s in ("<=", ">="):
            col = [F(0)] * len(rows)
            col[i] = F(1) if s == "<=" else F(-1)
            cols.append(col)
            slack += 1
    m = len(rows)
    best = None
    width = len(cols)
    for pick in combinations(range(width), m):
        # solve the m x m system by Gaussian elimination
        A = [[cols[j][i] for j in pick] for i in range(m)]
        b = list(map(F, rhs))
        ok = True
        for i in range(m):
            piv = None
            for r in range(i, m):
                if A[r][i] != 0:
                    piv = r
                    break
            if piv is None:
                ok = False
                break
            A[i], A[piv] = A[piv], A[i]
            b[i], b[piv] = b[piv], b[i]
            inv = 1 / A[i][i]
            A[i] = [v * inv for v in A[i]]
            b[i] *= inv
            for r in range(m):
                if r != i and A[r][i] != 0:
                    f = A[r][i]
                    A[r] = [v - f * w for v, w in zip(A[r], A[i])]
                    b[r] -= f * b[i]
        if not ok or any(v < 0 for v in b):
            continue
        x = [F(0)] * n
        for j, val in zip(pick, b):
            if j < n:
                x[j] = val
        val = sum(ci * xi for ci, xi in zip(c, x))
        if best is None or val > best:
            best = val
    return best


def test_matches_vertex_enumeration_on_random_lps():
    import random
    rng = random.Random(5)
    for trial in range(25):
        n, m = 3, 3
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        rows = [[F(rng.randint(-2, 3)) for _ in range(n)] for _ in range(m)]
        senses = [rng.choice(["<=", "<=", "="]) for _ in range(m)]
        rhs = [F(rng.randint(0, 4)) for _ in range(m)]
        res = solve_lp(c, rows, senses, rhs)
        best = _enumerate_vertices(c, rows, senses, rhs)
        if res.status == OPTIMAL:
            assert best is not None and res.objective == best, (trial, c, rows)
        elif res.status == INFEASIBLE:
            assert best is None
        # unbounded cases are possible; vertex enumeration cannot certify them


# -- differential: integer-row tableau against the Fraction tableau ----------

_POOL = [F(v) for v in range(-3, 4)] + [F(1, 2), F(-2, 3), F(5, 7), F(-7, 4)]


def _random_lp(rng):
    """A small LP mixing senses, signs, zero rows and degenerate ties."""
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    c = [rng.choice(_POOL) for _ in range(n)]
    rows = [[rng.choice(_POOL) if rng.random() < 0.7 else F(0) for _ in range(n)]
            for _ in range(m)]
    senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
    rhs = [rng.choice(_POOL) for _ in range(m)]
    shape = rng.random()
    if shape < 0.15:
        rows[rng.randrange(m)] = [F(0)] * n
    elif shape < 0.45:
        # a scaled copy of a row and zero right-hand sides: ratio ties and
        # degenerate vertices for the Bland tie-break to settle
        i, k = rng.randrange(m), rng.randrange(m)
        scale = rng.choice([F(1), F(2), F(1, 3)])
        rows[k] = [scale * v for v in rows[i]]
        rhs[k] = scale * rhs[i]
        for j in range(m):
            if rng.random() < 0.4:
                rhs[j] = F(0)
    if rng.random() < 0.5:  # half of them minimize c.x, as max -c.x
        c = [-v for v in c]
    return c, rows, senses, rhs


def test_matches_fraction_tableau_on_random_lps():
    rng = random.Random(2)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    mixed = negative = zero_row = degenerate = 0
    for trial in range(600):
        c, rows, senses, rhs = lp = _random_lp(rng)
        got, basis = solve_lp(c, rows, senses, rhs), []
        assert got == fraction_simplex(c, rows, senses, rhs, basis), (trial, lp)
        statuses[got.status] += 1
        mixed += len(set(senses)) > 1
        negative += any(b < 0 for b in rhs)
        zero_row += any(not any(row) for row in rows)
        degenerate += got.status == OPTIMAL and any(
            got.x[j] == 0 for j in basis if j < len(c))
    assert min(statuses.values()) >= 50, statuses
    assert min(mixed, negative, zero_row, degenerate) >= 20, \
        (mixed, negative, zero_row, degenerate)


def test_matches_fraction_tableau_on_bland_cycling_example():
    # Beale's example (minimize -3/4 x1 + 20 x2 - 1/2 x3 + 6 x4) cycles under
    # the largest-coefficient rule; Bland's rule leaves the degenerate
    # vertex, identically in both tableaux
    c = [F(3, 4), -20, F(1, 2), -6]
    rows = [[F(1, 4), -8, -1, 9], [F(1, 2), -12, F(-1, 2), 3], [0, 0, 1, 0]]
    got = solve_lp(c, rows, ["<="] * 3, [0, 0, 1])
    assert got == fraction_simplex(c, rows, ["<="] * 3, [0, 0, 1])
    assert got.status == OPTIMAL and got.objective == F(5, 4)


def _assert_weak_lps_match(monkeypatch, tree, budgets):
    """Each simplex solve of a weak solve, master rounds and crossover
    alike, on the LP its tableau held: a cold solve is the Fraction
    tableau's, and the kept tableau's round agrees with it."""
    res, seen = solve_weak_recording_lps(monkeypatch, tree, budgets)
    assert seen
    for lp, got in seen:
        want = fraction_simplex(*lp)
        assert simplex.solve_lp(*lp) == want
        assert_agrees_with_cold(lp, got, want)
    return res


@pytest.mark.parametrize("shape", [
    dict(seed=1, depth=3, branches=2, n_ineq=1),
    dict(seed=2, depth=3, branches=3, n_ineq=1, n_eq=1),
    dict(seed=3, depth=4, branches=2, n_ineq=2),
    dict(seed=4, depth=2, branches=4, n_ineq=2, n_eq=1, nonneg_g=True),
    dict(seed=5, depth=3, branches=2, n_ineq=0, n_eq=1),
    dict(seed=6, depth=3, branches=3, n_ineq=1, nonneg_g=True),
    dict(seed=7, depth=4, branches=2, n_ineq=1, n_eq=1),
])
def test_matches_fraction_tableau_on_weak_formulation_lps(monkeypatch, shape):
    tree = load_instance(generate_instance(**shape))
    budgets = BudgetVector.of(tree.constraints)
    assert _assert_weak_lps_match(monkeypatch, tree, budgets).optimal
    # tighten the budgets step by step until no law is left
    step = F(1, 64)
    for _ in range(16):
        if budgets.ys:
            budgets = BudgetVector(ys=tuple(y - step for y in budgets.ys),
                                   zs=budgets.zs)
        else:
            budgets = BudgetVector(ys=(), zs=tuple(z + step for z in budgets.zs))
        step *= 2
        if not _assert_weak_lps_match(monkeypatch, tree, budgets).optimal:
            break
    else:
        pytest.fail("tightening never made the budgets infeasible")


def test_matches_fraction_tableau_on_dense_tree_lp(monkeypatch):
    tree = load_instance(generate_instance(seed=1, depth=6, branches=2,
                                           n_ineq=2, n_eq=1))
    budgets = BudgetVector.of(tree.constraints)
    assert _assert_weak_lps_match(monkeypatch, tree, budgets).optimal
    tight = BudgetVector(ys=tuple(y - 1000 for y in budgets.ys), zs=budgets.zs)
    assert _assert_weak_lps_match(monkeypatch, tree, tight).status == INFEASIBLE


# -- the kept tableau: columns entering between solves ---------------------------

def _warm(c, rows, senses, rhs):
    """A tableau built with no column; each column then enters and is solved.
    Yields each solve's LP and result, with x and objective read at an optimum."""
    tableau = simplex.Tableau([], [[] for _ in rows], senses, rhs)
    for j, cost in enumerate(c):
        tableau.enter(cost, [row[j] for row in rows])
        got = tableau.solve()
        if got.status == OPTIMAL:
            got.x, got.objective = tableau.x(), tableau.objective()
        yield (c[:j + 1], [row[:j + 1] for row in rows], senses, rhs), got


def test_columns_entering_one_at_a_time_agree_with_cold_solves_on_random_lps():
    rng = random.Random(3)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    handovers = 0  # an infeasible solve, then an optimal one
    for trial in range(600):
        lp = _random_lp(rng)
        last = None
        for sub, got in _warm(*lp):
            assert_agrees_with_cold(sub, got, solve_lp(*sub))
            statuses[got.status] += 1
            handovers += last == INFEASIBLE and got.status == OPTIMAL
            last = got.status
    assert min(statuses.values()) >= 50 and handovers >= 20, (statuses, handovers)


def test_a_column_touching_a_redundant_row_drives_its_artificial_out():
    # x1 = 1 and 2 x1 = 2 are one row for the first column, so an artificial
    # stays basic at 0 in the second.  The column (1, 1) separates them, and
    # has -1 there: had the artificial stayed basic, x2 would enter at 1 and
    # lift it to 1, for the value 5 of a point that breaks 2 x1 + x2 = 2.
    rows, senses, rhs = [[1, 1], [2, 1]], ["=", "="], [1, 2]
    tableau = simplex.Tableau([1], [[1], [2]], senses, rhs)
    assert tableau.solve().status == OPTIMAL
    assert max(tableau.basis) >= tableau.art0  # the redundant row's artificial
    tableau.enter(5, [1, 1])
    assert max(tableau.basis) < tableau.art0
    got = tableau.solve()
    got.x, got.objective = tableau.x(), tableau.objective()
    assert got == solve_lp([1, 5], rows, senses, rhs)
    assert got.objective == 1 and got.x == [1, 0]


def test_an_infeasible_tableau_turns_feasible_when_a_column_enters():
    # x1 = 1 and 3 x1 <= 2 have no solution; x2 with (1, 0) gives one
    tableau = simplex.Tableau([1], [[1], [3]], ["=", "<="], [1, 2])
    first = tableau.solve()
    assert first == solve_lp([1], [[1], [3]], ["=", "<="], [1, 2])
    assert first.status == INFEASIBLE
    tableau.enter(2, [1, 0])
    got = tableau.solve()  # phase one resumes and hands over to phase two
    got.x, got.objective = tableau.x(), tableau.objective()
    assert got == solve_lp([1, 2], [[1, 1], [3, 0]], ["=", "<="], [1, 2])
    assert got.status == OPTIMAL and got.objective == 2 and got.x == [0, 1]


def test_unbounded_phase_one_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(simplex, "_run", lambda *args: UNBOUNDED)
    with pytest.raises(InvariantViolation, match="phase one"):
        solve_lp([1], [[1]], ["<="], [1])
