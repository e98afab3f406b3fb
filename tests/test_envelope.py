from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from treestop import BudgetBelowDomain, ConcaveEnvelope, Ext, POS_INF, envelope
from treestop.envelope import _STEEPEST_FIRST, _built, _merged

from oracles import (allocate, brute_allocate, checked_envelope, envelope_from_breakpoints,
                     exact_merged, hull_of_points, kernel_merged_envelope, slopes)

F = Fraction
HALF = F(1, 2)


def env(xs, vs):
    return envelope_from_breakpoints(xs, vs)


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ConcaveEnvelope(xs=(F(0), F(1)), vs=(F(1), F(0)))  # decreasing
    with pytest.raises(ValueError):
        ConcaveEnvelope(xs=(F(0), F(1), F(2)), vs=(F(0), F(1), F(3)))  # convex
    with pytest.raises(ValueError):
        ConcaveEnvelope(xs=(F(1), F(1)), vs=(F(0), F(0)))  # non-increasing xs


def test_evaluation_and_plateau():
    e = env([0, 2], [0, 2])
    assert e.value(F(1, 3)) == F(1, 3)
    assert e.value(5) == 2
    assert e.value(POS_INF) == 2
    with pytest.raises(BudgetBelowDomain):
        e.value(F(-1, 10))


def test_canonicalization_merges_collinear_and_trailing_flat():
    e = env([0, 1, 2, 3], [0, 1, 2, 2])
    assert e.xs == (F(0), F(2)) and e.vs == (F(0), F(2))


def test_allocate_single_child_is_identity():
    e = env([0, 1, 3], [0, 2, 3])
    for y in (F(0), HALF, F(2), F(7)):
        value, alloc = allocate([(F(1), e)], y)
        assert value == e.value(y) and alloc == [min(y, F(3))]


def test_allocate_two_children_piecewise_formula():
    # capped lines with slopes 1 and 1/2
    e1 = env([0, 1], [0, 1])
    e2 = env([0, 2], [0, 1])
    children = [(HALF, e1), (HALF, e2)]
    for y, want in ((F(0), F(0)), (F(1, 4), F(1, 4)), (HALF, HALF),
                    (F(1), F(3, 4)), (F(3, 2), F(1)), (F(2), F(1))):
        value, alloc = allocate(children, y)
        assert value == want
        # the allocation is feasible and attains the value exactly
        assert sum(p * a for (p, _), a in zip(children, alloc)) <= y
        assert sum(p * e.value(a) for (p, e), a in zip(children, alloc)) == value


def test_allocate_matches_brute_force_grid():
    e1 = env([0, 1, 2], [0, F(3, 2), 2])
    e2 = env([F(-1), 0, 3], [0, F(2), F(7, 2)])
    children = [(F(1, 3), e1), (F(2, 3), e2)]
    for y in (F(-1, 3), F(0), HALF, F(1), F(2), F(3)):
        try:
            value, _ = allocate(children, y)
        except BudgetBelowDomain:
            continue
        assert value >= brute_allocate(children, y, steps=120)


def test_allocate_constant_children_ignore_budget():
    e1 = ConcaveEnvelope(xs=(F(0),), vs=(F(3),))
    e2 = ConcaveEnvelope(xs=(F(0),), vs=(F(-1),))
    value, _ = allocate([(HALF, e1), (HALF, e2)], F(100))
    assert value == F(1)
    value2, _ = allocate([(HALF, e1), (HALF, e2)], F(0))
    assert value2 == F(1)


def test_allocate_below_domain_raises():
    e = env([1, 2], [0, 1])
    with pytest.raises(BudgetBelowDomain):
        allocate([(F(1), e)], HALF)


def test_allocate_infinite_budget_takes_all_slopes():
    e1 = env([0, 1], [0, 1])
    e2 = env([0, 2], [0, 1])
    value, alloc = allocate([(HALF, e1), (HALF, e2)], POS_INF)
    assert value == F(1) and alloc == [F(1), F(2)]


def test_allocate_breaks_slope_ties_by_child_order():
    # equal slopes: the earlier child's segment is spent first
    e = env([0, 2], [0, 2])
    value, alloc = allocate([(HALF, e), (HALF, e)], HALF)
    assert value == HALF and alloc == [F(1), F(0)]


def test_merged_envelope_equals_allocate_on_a_grid():
    e1 = env([0, 1, 2], [0, F(3, 2), 2])
    e2 = env([0, 3], [F(1), F(2)])
    children = [(F(1, 4), e1), (F(3, 4), e2)]
    merged = kernel_merged_envelope(children)
    for k in range(0, 13):
        y = F(k, 4)
        assert merged.value(y) == allocate(children, y)[0]


def test_hull_of_points_monotone_concave():
    pts = [(F(0), F(5)), (F(1), F(3)), (F(2), F(8)), (F(3), F(4))]
    h = hull_of_points(pts)
    assert h.value(0) == 5 and h.value(2) == 8 and h.value(10) == 8
    # between 0 and 2 the hull is the chord through (0,5) and (2,8)
    assert h.value(1) == F(13, 2)


def test_hull_degenerates_when_first_point_dominates():
    h = hull_of_points([(F(0), F(9)), (F(2), F(4))])
    assert h.xs == (F(0),) and h.vs == (F(9),)
    assert h.value(100) == 9


# -- int chains to envelopes --------------------------------------------------------

def _breakpoints(chain, x_unit, v_unit):
    """A chain's breakpoints as Fractions, for the public constructor."""
    x, v, _, segments = chain
    xs = accumulate((w for _, w in segments), initial=x)
    vs = accumulate((r for r, _ in segments), initial=v)
    return (tuple(F(a, x_unit) for a in xs), tuple(F(b, v_unit) for b in vs))


def _outcome(build):
    """The envelope built, with its slopes, or the message of its ValueError."""
    try:
        env = build()
    except ValueError as exc:
        return str(exc)
    return env, slopes(env)


UNITS = st.integers(1, 36)
STARTS = st.integers(-50, 50)


@given(x=STARTS, v=STARTS, x_unit=UNITS, v_unit=UNITS,
       segments=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 40)), max_size=8))
def test_built_equals_the_constructor_on_concave_chains(x, v, x_unit, v_unit, segments):
    segments.sort(key=_STEEPEST_FIRST)  # a concave chain: slopes fall
    chain = (x, v, v + sum(r for r, _ in segments), segments)
    env, slopes = _outcome(lambda: _built(chain, x_unit, v_unit))
    assert (env, slopes) == _outcome(lambda: ConcaveEnvelope(*_breakpoints(chain, x_unit, v_unit)))
    assert (env, slopes) == _outcome(lambda: checked_envelope(*_breakpoints(chain, x_unit, v_unit)))
    assert slopes == [F(r * x_unit, w * v_unit) for r, w in segments]


@given(x=STARTS, v=STARTS, x_unit=UNITS, v_unit=UNITS,
       segments=st.lists(st.tuples(st.integers(-5, 20), st.integers(-2, 20)), max_size=6))
@example(x=0, v=0, x_unit=1, v_unit=1, segments=[(1, 1), (1, 0)])  # a zero width
@example(x=0, v=0, x_unit=2, v_unit=3, segments=[(2, 1), (-1, 1)])  # a negative rise
@example(x=0, v=0, x_unit=1, v_unit=1, segments=[(1, 2), (1, 1)])  # a slope that rises
@example(x=0, v=0, x_unit=1, v_unit=1, segments=[(1, 2), (-1, 1), (1, 0)])  # all three
def test_built_checks_int_chains_with_the_constructors_messages(x, v, x_unit, v_unit,
                                                                segments):
    chain = (x, v, v, segments)
    got = _outcome(lambda: _built(chain, x_unit, v_unit))
    assert got == _outcome(lambda: ConcaveEnvelope(*_breakpoints(chain, x_unit, v_unit)))
    assert got == _outcome(lambda: checked_envelope(*_breakpoints(chain, x_unit, v_unit)))


# -- merging int chains: float keys, exact order ------------------------------------

def _chain(*segments):
    """A chain from (0, 0) with these (rise, width) segments."""
    return (0, 0, sum(r for r, _ in segments), list(segments))


@pytest.fixture
def exact_sorts(monkeypatch):
    """The segments that ``_merged``'s exact path hands to its sort key."""
    seen = []

    def key(segment):
        seen.append(segment)
        return _STEEPEST_FIRST(segment)
    monkeypatch.setattr(envelope, "_STEEPEST_FIRST", key)
    return seen


TIE = (2 ** 53 + 1, 2 ** 53)  # slope 1 + 2**-53, which rounds to the float 1.0


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("weight, exact", [(1, False), (2 ** 60, True)])
def test_slopes_that_round_to_one_float_merge_in_exact_order(exact_sorts, flip, weight,
                                                             exact):
    # at weight 2**60 the slope-1 segment pools as (2**60, 2**60): its larger
    # rise sorts it before TIE on the tied float, and the fold takes the exact path
    assert TIE[0] / TIE[1] == 1.0
    kids = [(1, _chain(TIE)), (weight, _chain((1, 1)))]
    got = _merged(kids[::-1] if flip else kids, 3, 5)
    assert got == (3, 5, 5 + TIE[0] + weight, [TIE, (weight, weight)])
    assert got == exact_merged(kids, 3, 5)
    assert bool(exact_sorts) == exact


@pytest.mark.parametrize("flip", [False, True])
def test_a_slope_beyond_the_float_range_takes_the_exact_path(exact_sorts, flip):
    with pytest.raises(OverflowError):
        2 ** 1100 / 1
    kids = [(1, _chain((2 ** 1100, 1))), (2, _chain((1, 1)))]
    got = _merged(kids[::-1] if flip else kids)
    assert got == (0, 0, 2 ** 1100 + 2, [(2 ** 1100, 1), (2, 2)])
    assert exact_sorts


# slope a / d + c / (d * 2**e): past e = 53 each (a, d) is one float for every
# c, so floats tie where exact slopes differ, and exact ties recur across e
SCALED = st.one_of(
    st.builds(lambda a, c, d, e: (a * 2 ** e + c, d * 2 ** e), st.integers(0, 4),
              st.integers(0, 3), st.integers(1, 4), st.sampled_from([0, 1, 53, 60, 80])),
    st.just((2 ** 1100, 3)))  # a slope beyond the float range
WEIGHTED = st.lists(st.tuples(st.sampled_from([1, 2, 3, 2 ** 60]), st.lists(SCALED, max_size=5)),
                    max_size=4)


@given(kids=WEIGHTED, dx=STARTS, dv=STARTS)
@example(kids=[(1, [TIE]), (2 ** 60, [(1, 1)])], dx=0, dv=0)  # the hidden order
@example(kids=[(2, [(2 ** 60 + 1, 2 ** 60), (1, 1)]), (3, [(2, 2), (1, 1)])], dx=1,
         dv=-1)  # exact ties folded after a float tie, on the float path
def test_merged_equals_the_exact_sort(kids, dx, dv):
    chains = [(b, _chain(*sorted(segments, key=_STEEPEST_FIRST))) for b, segments in kids]
    assert _merged(chains, dx, dv) == exact_merged(chains, dx, dv)
