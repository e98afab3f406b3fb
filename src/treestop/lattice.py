"""Finite problem instances: increment trees with Euler state recursion.

A tree instance fixes a time grid t0, t0+dt, ..., t0+N*dt and a finite
branching law for the driving increments at each step.  Its nodes are the
rows of its ``Shape``, in BFS order.  An increment word (a tuple of branch
indices) only labels a row: it is derived from the levels' branch counts
where a caller names or reads a node.  The state path along a word follows
the Euler recursion

    X_{k+1} = X_k + b(t_k, prefix_k) * dt + sigma(t_k, prefix_k) @ w,

where prefix_k is the whole observed state path (pinned history included),
so path-dependent drift and diffusion are supported directly.  Running
reward and constraint integrands accumulate as left-endpoint sums on the
grid; stopping at a node pays the terminal function there on top of the
accumulated running reward.

All probabilities and node data are exact rationals.  Node data are made
finite here, where the instance's functions are called (floats snap to
their exact binary value; +-inf and NaN raise ValueError), and held as
ints; only budgets and targets may be infinite, as ``Ext``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from itertools import chain, islice, product, repeat, starmap
from math import gcd, lcm, prod
from operator import add, getitem, lt, mul
from typing import Callable, NamedTuple, Optional, Tuple

from .errors import (InvalidBranching, InvalidHorizon, NodeNotInTree, ShapeTooLarge,
                     WordTooLong)
from .xreal import Ext, as_fraction, echo, shown

Word = Tuple[int, ...]
State = Tuple[Fraction, ...]

ROOT: Word = ()
MAX_NODES = 1_000_000  # admits every tree generate_instance makes (8 x 4: 87,381)


# ---------------------------------------------------------------------------
# value coercion helpers
# ---------------------------------------------------------------------------

def _as_vector(value, n: int) -> Tuple[Fraction, ...]:
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise ValueError(f"expected a vector of length {n}, got {echo.repr(value)}")
        return tuple(as_fraction(v) for v in value)
    if n != 1:
        raise ValueError(f"expected a vector of length {n}, got scalar {echo.repr(value)}")
    return (as_fraction(value),)


def _as_matrix(value, rows: int, cols: int) -> Tuple[Tuple[Fraction, ...], ...]:
    if isinstance(value, (list, tuple)) and value and isinstance(value[0], (list, tuple)):
        if len(value) != rows:
            raise ValueError(f"expected {rows} matrix rows, got {len(value)}")
        return tuple(_as_vector(row, cols) for row in value)
    if rows == 1:
        return (_as_vector(value, cols),)
    if cols == 1:
        return tuple((v,) for v in _as_vector(value, rows))
    raise ValueError(f"expected a {rows}x{cols} matrix, got {echo.repr(value)}")


def _finite(value, what: str, t: Fraction) -> Fraction:
    """A node value as a finite Fraction: the one check of node data."""
    if isinstance(value, Fraction):
        return value
    x = Ext.parse(value) if value == value else None  # NaN differs from itself
    if x is None or not x.is_finite:
        raise ValueError(f"{what} at t = {shown(t)} is {value}; node data must be finite")
    return x.finite


def _callable(value) -> Callable:
    """Lift constants to functions of (t, prefix)."""
    if callable(value):
        return value
    return lambda t, prefix, _v=value: _v


def _first(x):
    """A state's first coordinate (the state itself when it is scalar)."""
    return x[0] if isinstance(x, tuple) else x


class KeyFunction:
    """An instance function of the Markov key (t, state, sup): sup is the
    running max of the state's first coordinate along the path, seeded by
    the history.  ``io`` compiles every function field to one, holding an
    int kernel, ``kernel(tn, td, xn, xd, sn, sd)``: the key's three
    rationals as reduced numerators and denominators in, the value out as
    (num, den) in lowest terms with den > 0.  A Markov tree's walk calls
    the kernel; called as ``fn(t, prefix)``, the form of functions built
    from Python callables, it reads its key off the state path and returns
    a Fraction (a vector state's first coordinate is the key's state)."""

    __slots__ = ("kernel",)

    def __init__(self, kernel: Callable):
        self.kernel = kernel

    def __call__(self, t, prefix):
        t, x = as_fraction(t), prefix[-1]
        first, sup = _first(x), max(map(_first, prefix))
        return Fraction(*self.kernel(t.numerator, t.denominator, first.numerator,
                                     first.denominator, sup.numerator, sup.denominator, x))


def _pair(fn: Callable, what: str, t: Fraction, prefix: tuple) -> tuple:
    """fn at a state path, checked by ``_finite``, as (num, den)."""
    v = _finite(fn(t, prefix), what, t)
    return v.numerator, v.denominator


def _over_ones(pays: list, rates: list, dt: Fraction, n_cols: int):
    """Every key's stop payoff and accrual step dt * (f, g_i, h_i) as ints
    over one denominator per column, the least common one: (ones, pays,
    steps), with ``pays`` and ``rates`` split by level as given, each value
    a reduced (num, den) pair.

    A column's values are ints m_i over M, dt's denominator times the least
    common one of its rates (and of the stop payoffs in column 0), formed
    from the numerators; the least denominator is then M / gcd(M, m_1, ...).
    """
    p, q = dt.numerator, dt.denominator
    stops = [v for level in pays for v in level]
    cols, ones = [], []
    for c, col in enumerate(list(zip(*(r for level in rates for r in level)))
                            or [()] * n_cols):
        one, ints = lcm(*(d for _, d in col)) * q, []
        if c == 0:  # the stop payoffs share column 0's denominator
            one = lcm(one, *(d for _, d in stops))
            ints = [n * (one // d) for n, d in stops]
        unit = one // q  # a multiple of every rate's denominator
        ints += [n * p * (unit // d) for n, d in col]
        g = gcd(one, *ints)
        ones.append(one // g)
        cols.append([m // g for m in ints] if g > 1 else ints)
    n = len(stops)
    pay_ints, steps = iter(cols[0][:n]), iter(zip(cols[0][n:], *cols[1:]))
    return (ones, [list(islice(pay_ints, len(level))) for level in pays],
            [list(islice(steps, len(level))) for level in rates])


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintSpec:
    """Inequality and equality accrual constraints.

    Each inequality pairs an integrand g with a bound y in (-inf, +inf];
    y = +inf makes the constraint vacuous.  Each equality pairs an integrand
    h with a target z in [-inf, +inf]; (h, z) = (0, 0) is the vacuous form.
    """

    inequalities: Tuple[Tuple[Callable, Ext], ...] = ()
    equalities: Tuple[Tuple[Callable, Ext], ...] = ()

    def __post_init__(self):
        ineq = tuple((_callable(g), Ext.parse(y)) for g, y in self.inequalities)
        eq = tuple((_callable(h), Ext.parse(z)) for h, z in self.equalities)
        for _, y in ineq:
            if y.is_neg_inf:
                raise ValueError("inequality bounds must exceed -inf")
        object.__setattr__(self, "inequalities", ineq)
        object.__setattr__(self, "equalities", eq)

    @property
    def n_ineq(self) -> int:
        return len(self.inequalities)

    @property
    def n_eq(self) -> int:
        return len(self.equalities)


@dataclass(frozen=True)
class BudgetVector:
    """Bounds (y_i) and targets (z_i) for a ConstraintSpec's integrands."""

    ys: Tuple[Ext, ...] = ()
    zs: Tuple[Ext, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ys", tuple(Ext.parse(y) for y in self.ys))
        object.__setattr__(self, "zs", tuple(Ext.parse(z) for z in self.zs))
        for y in self.ys:
            if y.is_neg_inf:
                raise ValueError("inequality bounds must exceed -inf")

    @staticmethod
    def of(spec: ConstraintSpec) -> "BudgetVector":
        return BudgetVector(
            ys=tuple(y for _, y in spec.inequalities),
            zs=tuple(z for _, z in spec.equalities),
        )


class LevelStates:
    """Per level of a keyed walk, each key's state, as a list: ``read`` makes
    it from what the walk kept of the level the first time the level is
    read, and it is cached.  Compares, iterates and slices as the list of
    the levels' lists."""

    __slots__ = ("_kept", "_read", "_levels")
    __hash__ = None

    def __init__(self, kept: list, read: Callable):
        self._kept, self._read, self._levels = kept, read, [None] * len(kept)

    def __len__(self) -> int:
        return len(self._kept)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        level = self._levels[k]
        if level is None:
            level = self._levels[k] = self._read(self._kept[k])
        return level

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))


def _state_ints(keys: list) -> tuple:
    """A Markov level's state numerators and denominators, from its keys'
    (state num, state den, sup num, sup den)."""
    nums, dens, _, _ = zip(*keys)
    return nums, dens


def _key_states(ints: tuple) -> list:
    """A Markov level's states, from its state numerators and denominators."""
    return list(map(Fraction, *ints))


def _path_states(reps: list) -> list:
    """A path walk's level states: the last entry of each key's state path."""
    return [prefix[-1] for prefix, in reps]


class KeyedWalk(NamedTuple):
    """The keyed levels as ``TreeInstance._keys()`` walks and caches them,
    root first: per level, each key's state (``LevelStates``) and stop payoff
    and, at interior levels, its kids (per branch, the child's key index one
    level down) and accrual step dt * (f, g_i, h_i).  Payoffs and steps are
    ints over one denominator per column, ``ones[c]``, the least common one;
    the stop payoffs share column 0's.  No state path is kept: a row's path
    is its history and the states of the row keys along ``Shape.path``.  On
    a Markov tree the walk calls the functions' int kernels and folds
    children by their (state, sup) as reduced int numerators and
    denominators, and keeps each level's state ints: a level's state
    Fractions are built from them the first time the level's states are
    read, so the walk itself builds no Fraction, unless an error message
    needs one."""

    states: LevelStates
    kids: list
    ones: list
    pays: list
    steps: list


@dataclass(frozen=True)
class Shape:
    """A tree's nodes as rows in BFS order, from its branching alone.

    ``widths[k]`` is the branch count at depth k; the rows at depth k are
    ``starts[k]`` to ``starts[k + 1] - 1`` (``starts`` ends with the row
    count).  Interior rows come first: the children of interior row i are
    the rows ``first[i]`` to ``first[i + 1] - 1`` (``first`` has one entry
    more than there are interior rows), and ``parent[i]`` is row i's
    parent (0 at the root).  ``probs`` holds the path probabilities as ints
    over ``prob_den``, the product of the levels' branch denominators.  A
    row's increment word is not stored: a level's rows run in the
    lexicographic order of their words, so ``word`` converts by mixed-radix
    arithmetic on ``widths``, and ``row`` follows ``first`` down a word.
    """

    widths: Tuple[int, ...]
    probs: Tuple[int, ...]
    prob_den: int
    starts: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    first: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    parent: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        starts = [0, 1]
        for n in self.widths:
            starts.append(starts[-1] + (starts[-1] - starts[-2]) * n)
        levels = tuple(enumerate(self.widths))
        object.__setattr__(self, "starts", tuple(starts))
        object.__setattr__(self, "first", (*chain.from_iterable(
            range(starts[k + 1], starts[k + 2], n) for k, n in levels), starts[-1]))
        object.__setattr__(self, "parent", (0, *chain.from_iterable(
            chain.from_iterable(map(repeat, range(starts[k], starts[k + 1]), repeat(n)))
            for k, n in levels)))

    def depth(self, i: int) -> int:
        return bisect_right(self.starts, i) - 1

    def row(self, word) -> Optional[int]:
        """A word's row, reached down ``first``; None unless it is a tuple of
        int branches in range."""
        if not isinstance(word, tuple) or len(word) > len(self.widths):
            return None
        if word and not (all(isinstance(j, int) for j in word) and min(word) >= 0
                         and all(map(lt, word, self.widths))):
            return None
        first, i = self.first, 0
        for j in word:
            i = first[i] + j
        return i

    def path(self, i: int) -> list:
        """The rows along row i's word, root first, read off ``parent``."""
        parent, rows = self.parent, [i]
        while i:
            rows.append(i := parent[i])
        return rows[::-1]

    def word(self, i: int) -> Word:
        """The increment word of row i: the digits of its place in its level."""
        k = self.depth(i)
        place, digits = i - self.starts[k], []
        for n in reversed(self.widths[:k]):
            place, j = divmod(place, n)
            digits.append(j)
        return tuple(reversed(digits))

    def words(self):
        """Every row's increment word, in row order."""
        return chain.from_iterable(product(*map(range, self.widths[:k]))
                                   for k in range(len(self.widths) + 1))

    def rows_below(self, i: int) -> list:
        """The subtree rows at row i in the subtree's BFS order, a run per level."""
        rows, lo, hi, n_inner = [], i, i + 1, len(self.first) - 1
        while True:
            rows += range(lo, hi)
            if lo >= n_inner:
                return rows
            lo, hi = self.first[lo], self.first[hi]


@dataclass(frozen=True)
class NodeTable:
    """A tree's integer payoff columns on its shape's rows.

    Column c holds, at every node, the path probability times the stop
    payoff (c = 0), then times each G_i, then each H_i, as ints over the
    one denominator ``dens[c]``, the least common one.  So node i's exact
    value in column c is ``cols[c][i] * shape.prob_den / (dens[c] *
    shape.probs[i])`` (``value``).
    """

    shape: Shape
    cols: Tuple[Tuple[int, ...], ...]
    dens: Tuple[int, ...]

    def value(self, c: int, i: int) -> Fraction:
        """Node i's stop payoff (c = 0), G_i or H_i, exactly."""
        return Fraction(self.cols[c][i] * self.shape.prob_den,
                        self.dens[c] * self.shape.probs[i])


class TreeInstance:
    """Immutable finite-depth increment tree with Euler states, also named
    ``build_tree``.  ``branching`` is a list of (p, w) pairs used at every
    step, or one such list per step; give exactly one of ``x0`` (state at
    t0) and ``history`` (state path up to and including t0).  drift(t,
    prefix) is a length-l vector, diffusion(t, prefix) an l x d matrix
    (scalars when l = d = 1); constants stand for constant functions.

    Nodes are the rows of the shape; an increment word names one only
    where a caller names or reads it.  A depth of ``MAX_NODES`` or more,
    or more than ``MAX_NODES`` nodes, is refused before any per-level list
    is built.  Built whole on first use and cached: the shape (``_shape()``,
    the level widths and path probabilities), the keyed walk (``_keys()``),
    each row's key (``_row_keys()``) and the node table (``_node_table()``);
    ``dp.root_envelope`` caches ``_root_envelope``, and ``lp.solve_weak`` keeps
    its last result, with the budgets it solved at, in ``_solved`` (one slot,
    so a budget sweep holds one measure).  No node has a cache of its own: a
    word is checked and converted to its row once (``check_word``), and the
    row's state path and accruals are read at the keys of the rows on its
    path, so the first such query runs the whole walk, and a non-finite node
    value anywhere raises there.
    Instances are safe to share for concurrent reads once constructed; two
    racing solves at equal budgets store equal results.
    Reward, integrands, terminal payoff, drift and diffusion are called and
    coerced by this class only; node data are finite Fractions.  ``_markov``
    marks a tree with a scalar state and scalar increments whose functions
    are all ``KeyFunction``s, as ``io.load_instance`` builds them: they read
    only t, the state and its running sup, so ``_keys`` walks such a tree by
    that key (``subtree`` copies the mark).
    """

    def __init__(self, dt, depth, branching, x0=None, history=None, t0=0,
                 drift=0, diffusion=1, reward=0, terminal=0,
                 inequalities=(), equalities=(), source=None):
        if depth < 0:
            raise InvalidHorizon(f"depth must be >= 0, got {shown(depth)}")
        if history is None:
            if x0 is None:
                raise ValueError("give x0 or history")
            history = (x0,)
        elif x0 is not None:
            raise ValueError("give x0 or history, not both")
        self.constraints = spec = ConstraintSpec(tuple(inequalities), tuple(equalities))
        self.t0 = as_fraction(t0)
        self.dt = as_fraction(dt)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        self.depth = int(depth)
        if self.depth >= MAX_NODES:  # a tree has at least depth + 1 nodes
            raise ShapeTooLarge(f"the tree has more than {MAX_NODES} nodes")

        per_depth = self._normalize_branching(branching, self.depth)
        count = width = 1
        for level in per_depth:
            width *= len(level)
            count += width
            if count > MAX_NODES:
                raise ShapeTooLarge(f"the tree has more than {MAX_NODES} nodes")
        self.branching = per_depth
        self._widths = tuple(map(len, per_depth))
        self._times = tuple(self.t0 + k * self.dt for k in range(self.depth + 1))
        self.d = len(per_depth[0][0][1]) if per_depth else 1

        hist = tuple(history) if isinstance(history, (list, tuple)) else (history,)
        if not hist:
            raise ValueError("history must contain at least the state at t0")
        first = hist[0]
        self.l = len(first) if isinstance(first, (list, tuple)) else 1
        self.history: Tuple[State, ...] = tuple(_as_vector(x, self.l) for x in hist)

        self.reward = _callable(reward)
        self.terminal = _callable(terminal)
        self.source = source

        self._drift = _callable(drift)
        self._diff = _callable(diffusion)
        self._shape_cache: Optional[Shape] = None
        self._walk: Optional[KeyedWalk] = None
        self._keys_by_row: Optional[list] = None
        self._root_envelope = None
        self._solved = None
        self._table: Optional[NodeTable] = None
        fns = (self.reward, self.terminal, self._drift, self._diff,
               *(fn for fn, _ in spec.inequalities + spec.equalities))
        self._markov = self.l == self.d == 1 and all(isinstance(fn, KeyFunction)
                                                     for fn in fns)

    # -- structure ---------------------------------------------------------

    @staticmethod
    def _normalize_branching(branching, depth):
        if depth == 0:
            return ()
        items = list(branching)
        if items and isinstance(items[0], (list, tuple)) and len(items[0]) == 2 \
                and not isinstance(items[0][0], (list, tuple)):
            items = [items] * depth
        if len(items) != depth:
            raise InvalidBranching(
                f"need branching for {depth} steps, got {len(items)}")
        out = []
        for level in items:
            pairs = []
            for p, w in level:
                p = as_fraction(p)
                if p <= 0:
                    raise InvalidBranching(f"branch probability {shown(p)} is not positive")
                w = _as_vector(w, len(w) if isinstance(w, (list, tuple)) else 1)
                pairs.append((p, w))
            if sum(p for p, _ in pairs) != 1:
                raise InvalidBranching("branch probabilities must sum to 1")
            widths = {len(w) for _, w in pairs}
            if len(widths) != 1:
                raise InvalidBranching("increment dimensions differ within a level")
            out.append(tuple(pairs))
        if len({len(level[0][1]) for level in out}) > 1:
            raise InvalidBranching("increment dimensions differ across levels")
        return tuple(out)

    def n_branches(self, depth_k: int) -> int:
        return self._widths[depth_k]

    def check_word(self, word: Word) -> int:
        """The row of a word that is a node (``Shape.row``); otherwise raise,
        naming the first bad branch, found step by step."""
        word = tuple(word)
        i = self._shape().row(word)
        if i is None:
            if len(word) > self.depth:
                raise WordTooLong(f"word {echo.repr(word)} is longer than depth {self.depth}")
            k, j = next((k, j) for k, (j, n) in enumerate(zip(word, self._widths))
                        if not (isinstance(j, int) and 0 <= j < n))
            raise NodeNotInTree(f"word {echo.repr(word)}: branch {echo.repr(j)} out of range "
                                f"at step {k}")
        return i

    def check_depth(self, k: int, least: int, what: str) -> None:
        """Raise, naming k as ``what`` (a long k shows as its bit count),
        unless k is a depth from ``least`` to the horizon."""
        if not least <= k <= self.depth:
            raise ValueError(f"{what} must be in [{least}, {self.depth}], got {shown(k)}")

    def nodes(self):
        """All increment words, shallowest first."""
        return self._shape().words()

    def leaves(self):
        return product(*map(range, self._widths))

    def time(self, depth_k: int) -> Fraction:
        """The grid time t0 + k * dt of depth k, from 0 to the depth."""
        return self._times[depth_k]

    def _shape(self) -> Shape:
        """The tree's rows with their path probabilities, level by level,
        built from the branching alone on first use and cached."""
        if self._shape_cache is None:
            units, branch = self._branch_ints()
            level = probs = [prod(units)]  # P(root) = 1
            for unit, qs in zip(units, branch):
                level = [p * q for p in [p // unit for p in level] for q in qs]
                probs += level
            self._shape_cache = Shape(self._widths, tuple(probs), prob_den=probs[0])
        return self._shape_cache

    # -- states --------------------------------------------------------------

    def _unwrap(self, x: State):
        return x[0] if self.l == 1 else x

    def _prefix_for_call(self, i: int) -> tuple:
        """The state path the functions see at row i: history, then its path's key states."""
        keys = map(self._row_keys().__getitem__, self._shape().path(i))
        return (*map(self._unwrap, self.history[:-1]), *map(getitem, self._keys().states, keys))

    def _row_keys(self) -> list:
        """The key index of every row of ``_shape()``, each from its parent's; cached."""
        if self._keys_by_row is None:
            starts, keys = self._shape().starts, [0]
            for k, level in enumerate(self._keys().kids):
                for key in keys[starts[k]:starts[k + 1]]:
                    keys += level[key]
            self._keys_by_row = keys
        return self._keys_by_row

    def _child_states(self, k: int, prefix: tuple) -> Tuple[State, ...]:
        """Euler successors, one per branch, of a depth-k node whose state
        path (in call form) is ``prefix``."""
        x = prefix[-1] if self.l > 1 else (prefix[-1],)
        b, sig = self._coefficients(self.time(k), prefix)
        mean = [xi + bi * self.dt for xi, bi in zip(x, b)]
        return tuple(tuple(sum(map(mul, row, w), m) for m, row in zip(mean, sig))
                     for _, w in self.branching[k])

    # -- the instance's functions, called here only ---------------------------

    def _coefficients(self, t: Fraction, prefix: tuple):
        """Drift vector b and l x d diffusion matrix sigma at a state path."""
        return (_as_vector(self._drift(t, prefix), self.l),
                _as_matrix(self._diff(t, prefix), self.l, self.d))

    def _path_step(self, k: int, args: tuple, below: list, index: dict) -> range:
        """Append to ``below`` the representative of each child of a depth-k
        node whose representative is its state path, ``args = (t, prefix)``
        as the functions take them, and return their indices there: every
        child is a key of its own, so ``index`` is not read."""
        _, prefix = args
        start = len(below)
        below += [(prefix + (x,),) for x in map(self._unwrap, self._child_states(k, prefix))]
        return range(start, len(below))

    def _key_step(self, levels: list, dt: tuple, k: int, args: tuple, below: list,
                  index: dict) -> list:
        """The index in ``below`` of each child of a depth-k Markov key, whose
        kernel arguments ``args`` are the time's and its representative's
        reduced ints, (t num, t den, state num, state den, sup num, sup den),
        appending the representatives not yet in ``index``.  The drift b and
        diffusion sigma come from their kernels at ``args``, and the scalar
        Euler step x + b * dt + sigma * w_j is taken in ints over one
        denominator and reduced by one gcd; ``index`` keys each child by its
        representative, its state and sup as ints, the sup being the state
        when that lies above the old one.  No Fraction is built.
        ``levels[k]`` holds the level's increments w_j as ints over their
        least common denominator, and it; ``dt`` is (numerator, denominator)."""
        _, _, xn, xd, sup_n, sup_d = args
        (bn, bd), (sig_n, sig_d) = self._drift.kernel(*args), self._diff.kernel(*args)
        (incs, unit), (p, q) = levels[k], dt
        bd *= q
        mn, md = xn * bd + bn * p * xd, xd * bd  # the mean x + b * dt
        sd = sig_d * unit
        m, s, den = mn * sd, sig_n * md, md * sd
        top, out = sup_n * den, []
        for w in incs:
            y = m + s * w
            g, above = gcd(y, den), y * sup_d > top
            n, d = y // g, den // g
            key = (n, d, n, d) if above else (n, d, sup_n, sup_d)
            i = index.get(key)
            if i is None:
                i = index[key] = len(below)
                below.append(key)
            out.append(i)
        return out

    def _keys(self) -> KeyedWalk:
        """The keyed walk (``KeyedWalk``): the tree's levels, root first, with
        the nodes that share a Markov key folded into one key, in the BFS
        order of each key's first node (its representative).  Walked once on
        first use and cached; the one walk that calls the instance's functions.

        At each key its terminal payoff and, at interior levels, reward and
        integrands (in that order) are evaluated once, and then, level by
        level, the Euler steps to its children.  No path probability is kept:
        a node's future depends on its key alone, and the branch
        probabilities are the level's (``_branch_ints``).  On a tree marked
        ``_markov`` a representative is its key, the state and the running
        sup of the path, seeded by the history's max, as reduced int
        numerators and denominators: the functions' int kernels
        (``KeyFunction``) are called at the time's and the key's ints and
        return (num, den) pairs, a step costs O(1) int work, and children
        fold by their key's ints, so no Fraction is built or hashed
        (``_key_step``); the level's state ints are kept, and its state
        Fractions are built from them on first read (``LevelStates``).
        Otherwise it is
        the node's state path, every node is its own key, the functions see
        the whole path, and the level keeps the paths' last states.  Either
        way a key's arguments, the time's and its representative's, form one
        tuple, which every function and the Euler step take.  The functions'
        values, made finite Fractions (``_finite``) on a path walk, are
        (num, den) pairs, and ``_over_ones`` brings either walk's pairs to
        ints over one denominator per column.
        """
        if self._walk is not None:
            return self._walk
        spec = self.constraints
        fns = (self.terminal, self.reward, *(g for g, _ in spec.inequalities),
               *(h for h, _ in spec.equalities))
        names = ("terminal payoff", "reward", *(f"g_{i}" for i in range(spec.n_ineq)),
                 *(f"h_{i}" for i in range(spec.n_eq)))
        # a representative is the arguments after the time that the functions
        # take: (state num, state den, sup num, sup den) on a Markov tree,
        # whose kernels take the time as (num, den), else (state path,), with
        # the time a Fraction; each level keeps what its states are read from
        if self._markov:
            units = [lcm(*(w.denominator for _, (w,) in level)) for level in self.branching]
            incs = [([w.numerator * (unit // w.denominator) for _, (w,) in level], unit)
                    for level, unit in zip(self.branching, units)]
            dt = (self.dt.numerator, self.dt.denominator)
            fns, step = [fn.kernel for fn in fns], partial(self._key_step, incs, dt)
            (x0,), sup = self.history[-1], max(x for x, in self.history)
            reps = [(x0.numerator, x0.denominator, sup.numerator, sup.denominator)]
            keep, read = _state_ints, _key_states
        else:
            fns = [partial(_pair, fn, name) for fn, name in zip(fns, names)]
            step, reps = self._path_step, [(tuple(map(self._unwrap, self.history)),)]
            keep, read = _path_states, list
        kept, kids, pays, rates = [], [], [], []
        for k in range(self.depth + 1):
            t, leaf = self._times[k], k == self.depth
            when = (t.numerator, t.denominator) if self._markov else (t,)
            args = [when + at for at in reps]  # one argument tuple per key
            kept.append(keep(reps))
            # key by key, each function in turn
            level = list(zip(*[starmap(fn, args) for fn in (fns[:1] if leaf else fns)]))
            pays.append([values[0] for values in level])
            if leaf:
                break
            rates.append([values[1:] for values in level])
            below, index = [], {}
            kids.append([tuple(step(k, a, below, index)) for a in args])
            reps = below
        self._walk = KeyedWalk(LevelStates(kept, read), kids, *_over_ones(pays, rates, self.dt, len(fns) - 1))
        return self._walk

    def _branch_ints(self):
        """Per level, the branch probabilities as ints over their least
        common denominator: (denominators, numerators)."""
        units = [lcm(*(p.denominator for p, _ in level)) for level in self.branching]
        return units, [[p.numerator * (unit // p.denominator) for p, _ in level]
                       for level, unit in zip(self.branching, units)]

    def state(self, word: Word):
        """State at a node (scalar when the state dimension is 1)."""
        return self._prefix_for_call(self.check_word(word))[-1]

    # -- functionals -----------------------------------------------------------

    def _functionals(self, i: int):
        """Accrued (F, (G_i), (H_i)) at row i: the int steps of its
        ancestors' keys summed, then one Fraction per column."""
        walk, keys, n_ineq = self._keys(), self._row_keys(), self.constraints.n_ineq
        steps = map(getitem, walk.steps, map(keys.__getitem__, self._shape().path(i)[:-1]))
        F, *rest = map(Fraction, map(sum, zip([0] * len(walk.ones), *steps)), walk.ones)
        return F, tuple(rest[:n_ineq]), tuple(rest[n_ineq:])

    def _node_table(self) -> NodeTable:
        """The node table, built on first use and cached.

        One int walk down the rows of ``_shape()``, reading each row's key
        (``_row_keys()``) in ``_keys()``, whose levels hold every key's stop
        payoff and accrual step as ints: a node costs only int work.  Its
        accruals are ints over one denominator per column, carried down from
        its parent, and one gcd per column then reduces the columns.
        """
        if self._table is not None:
            return self._table
        walk, shape, keys = self._keys(), self._shape(), self._row_keys()
        starts, probs = shape.starts, shape.probs
        accs, rows = [(0,) * len(walk.ones)], []
        for k, pays in enumerate(walk.pays):
            for i in range(starts[k], starts[k + 1]):
                p, key, acc = probs[i], keys[i], accs[i]
                row = [p * a for a in acc]
                row[0] += p * pays[key]
                rows.append(row)
                if k < self.depth:
                    accs += [tuple(map(add, acc, walk.steps[k][key]))] * self._widths[k]

        cols, dens = [], []
        for col, one in zip(zip(*rows), walk.ones):
            g = gcd(shape.prob_den * one, *col)
            cols.append(tuple(v // g for v in col))
            dens.append(shape.prob_den * one // g)
        self._table = NodeTable(shape, tuple(cols), tuple(dens))
        return self._table

    def subtree(self, word: Word) -> "TreeInstance":
        """The instance seen from a node: time and history advance, the
        branching tail and all functionals carry over unchanged, and so do
        ``_markov`` and the increment dimension, even with no level left."""
        i = self.check_word(word)
        k = len(word)
        spec = self.constraints
        out = TreeInstance(self.dt, self.depth - k, self.branching[k:], t0=self.time(k),
                           history=self._prefix_for_call(i), drift=self._drift,
                           diffusion=self._diff, reward=self.reward, terminal=self.terminal,
                           inequalities=spec.inequalities, equalities=spec.equalities)
        out.d, out._markov = self.d, self._markov
        return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

build_tree = TreeInstance


def euler_state(tree: TreeInstance, word: Word):
    """History concatenated with the Euler states along a word.

    Deterministic in the word: repeated calls return identical values.
    """
    return tree._prefix_for_call(tree.check_word(word))


def cumulative_functionals(tree: TreeInstance, word: Word):
    """Accrued (F, (G_i...), (H_i...)) when reaching a node.

    These are left-endpoint sums of reward and constraint integrands over
    the steps strictly before the node, as exact Fractions.
    """
    return tree._functionals(tree.check_word(word))

