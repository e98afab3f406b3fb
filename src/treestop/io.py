"""File formats: instances, rules, measures, budgets; exact round-trips.

Rationals serialize as "num/den" strings so files stay exact; decimal
renderings are added next to values only for human eyes.  Function fields
of instance files are either named built-ins ("zero", "const:c", "coord",
"sup"; "zero", "coord" and "sup" name the expressions 0, x_current and
x_sup) or small arithmetic expressions in t, x_current and x_sup, evaluated
in exact rational arithmetic; an expression's decimal literal names the
rational that the same text names in a rational field
(``xreal.as_fraction``).  Every field is
compiled once, when it is loaded, into one form: a ``lattice.KeyFunction``
of the Markov key (t, state, sup), x_current being the state's first
coordinate and x_sup its running max, holding an int kernel that the
tree's keyed walk calls at each key's reduced ints, (tn, td, xn, xd, sn,
sd), and that returns the value as (num, den) in lowest terms.  An
expression becomes nested closures over (num, den) pairs: constant
sub-expressions are folded, and names, operators, literals and exponents
(one that is not constant at a dummy point) are checked then, so no node
re-reads the syntax tree; exponents are integers of magnitude at most
``MAX_EXPONENT``, and an expression's degree, which nested powers multiply,
is at most ``MAX_DEGREE``.  Pairs are reduced by a gcd only where a check
reads them: a power's base (before its bit estimate) and exponent (before
its integer and cap tests), a folded constant, and the kernel's value.  A
function's value at a node, like a constant, has at most
``MAX_CONSTANT_BITS`` bits of numerator and of denominator, checked on the
reduced value.  A Fraction is built only where a caller reads one, and
for an error message.
Loaders check each field's JSON type before reading it.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from decimal import Context, Decimal
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Union

from .errors import ExpressionUndefined, NodeNotInTree
from .lattice import BudgetVector, KeyFunction, TreeInstance, Word, build_tree
from .measures import StoppingMeasure
from .rules import RandomizedStoppingRule, rule_from_map
from .xreal import MAX_CONSTANT_BITS, Ext, as_fraction, bits, echo, shown


# ---------------------------------------------------------------------------
# rational rendering
# ---------------------------------------------------------------------------

def fmt_rational(x) -> str:
    """x exactly, as "num/den", "num", "inf" or "-inf"; Decimal prints ints of any length."""
    x = Ext.parse(x)
    if not x.is_finite:
        return str(x)
    n, d = x.finite.as_integer_ratio()
    return f"{Decimal(n)}" if d == 1 else f"{Decimal(n)}/{Decimal(d)}"


def fmt_value(x) -> str:
    """Exact rational plus a decimal for humans, e.g. "3/2 (1.5)"."""
    x = Ext.parse(x)
    if not x.is_finite:
        return fmt_rational(x)
    return f"{fmt_rational(x)} ({decimal_value(x)})"


def decimal_value(x):
    """A finite x as a float for humans, or, beyond the float range, as text
    in float's scientific form: 17 significant digits, rounded half to even."""
    x = Ext.parse(x).fraction()
    try:
        return float(x)
    except OverflowError:
        return f"{Context(prec=17).divide(Decimal(x.numerator), x.denominator).normalize():e}"


# ---------------------------------------------------------------------------
# the expression mini-language
# ---------------------------------------------------------------------------

MAX_EXPONENT = 64  # |n| of a power x ** n; the generator uses 2
MAX_DEGREE = MAX_EXPONENT ** 2  # of an expression, so (x ** 64) ** 64 loads
MAX_EXPRESSION_CHARS = 100_000  # of an expression, before parsing; six 4215-digit literals load

# a base below _SMALL_BASE in absolute value, numerator and denominator, has
# at most 438 bits, so it passes ``_power``'s estimate at every exponent
# within the cap
_SMALL_BASE = 1 << ((2 * MAX_CONSTANT_BITS - 1) // MAX_EXPONENT + 1)
_VALUE_LIMIT = 1 << MAX_CONSTANT_BITS  # |n| < _VALUE_LIMIT: n has at most the cap's bits


def _reduced(v: tuple) -> tuple:
    n, d = v
    g = gcd(n, d)
    return (n // g, d // g) if g != 1 else v


def _int_exponent(b: tuple) -> int:
    """A reduced constant exponent as an int, else a ValueError."""
    if b[1] != 1:
        raise ValueError("only integer exponents are supported")
    if abs(b[0]) > MAX_EXPONENT:
        raise ValueError(f"exponents are capped at {MAX_EXPONENT} in absolute value")
    return b[0]


class _ConstantTooLarge(ValueError):
    """A constant above ``MAX_CONSTANT_BITS``; ``parse_function`` names the field."""


def _constant(v: tuple, times: int = 1) -> tuple:
    """v, unless v ** times, estimated before it is taken, has too many bits."""
    n = bits(v) * times
    if n > MAX_CONSTANT_BITS:
        raise _ConstantTooLarge(n)
    return v


class _BadExponent(ValueError):
    """An exponent that is not constant is no integer, or above the cap, at a
    node; ``_guarded`` reports the power its argument names, with t and
    state."""


def _int_pow(a: tuple, b: tuple) -> tuple:
    """a ** b for an exponent that is not constant: b, reduced, must be an
    integer within the cap at the node; a non-integer one shows as
    ``xreal.shown`` shows it."""
    b = _reduced(b)
    if b[1] != 1:
        raise _BadExponent(f"the non-integer power {shown(Fraction(*b))}")
    if abs(b[0]) > MAX_EXPONENT:
        raise _BadExponent(f"a power whose exponent is above the cap {MAX_EXPONENT}")
    return _power(a, b[0])


def _power(a: tuple, n: int) -> tuple:
    """a ** n for a reduced a and |n| within the cap, refused unbuilt when
    |n| * (bits(a) - 1) + 1, a lower bound on its bits, is above
    2 * ``MAX_CONSTANT_BITS``; ``_guarded`` checks the rest.  The power is
    reduced, and a negative power of 0 divides by zero."""
    an, ad = a
    if not (-_SMALL_BASE < an < _SMALL_BASE and ad < _SMALL_BASE):
        least = abs(n) * (bits(a) - 1) + 1
        if least > 2 * MAX_CONSTANT_BITS:
            raise _BadExponent(f"a power of at least {least} bits, above twice the cap "
                              f"{MAX_CONSTANT_BITS},")
    if n >= 0:
        return an ** n, ad ** n
    if not an:
        raise ZeroDivisionError
    return (ad ** -n, an ** -n) if an > 0 else ((-ad) ** -n, (-an) ** -n)


def _div(a, b):
    n, d = a[0] * b[1], a[1] * b[0]
    if d > 0:
        return n, d
    if d:
        return -n, -d
    raise ZeroDivisionError


_ALLOWED_NAMES = ("t", "x_current", "x_sup")
_NAMES = {"t": itemgetter(0, 1), "x_current": itemgetter(2, 3), "x_sup": itemgetter(4, 5)}
_BINOPS = {ast.Add: lambda a, b: (a[0] * b[1] + b[0] * a[1], a[1] * b[1]),
           ast.Sub: lambda a, b: (a[0] * b[1] - b[0] * a[1], a[1] * b[1]),
           ast.Mult: lambda a, b: (a[0] * b[0], a[1] * b[1]), ast.Div: _div, ast.Pow: _int_pow}
_DUMMY_KEY = (0, 1, 0, 1, 0, 1)  # t = 0, state 0, sup 0


def _compile(node, lines):
    """An expression AST, parsed from ``lines`` (its text's UTF-8 lines, in
    which a literal's offsets count), as (value, degree): the value a
    reduced (num, den) pair, when it is constant, or else a function of the
    key's ints, key = (tn, td, xn, xd, sn, sd), giving a pair with den > 0,
    not always reduced; the degree a bound on its degree as a rational
    function of t, x_current and x_sup (0 when constant).  A constant
    exponent multiplies its base's degree; one that is not constant, checked
    against ``MAX_EXPONENT`` at each node, makes it ``MAX_EXPONENT`` times
    the base's degree, or that cap when the base is constant; ``*`` and
    ``/`` add degrees, and ``+`` and ``-`` take the larger.

    Names, operators, literals, exponents and constants' sizes are checked
    here, once; a decimal literal is read from its text, not its float.
    """
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ValueError(f"non-numeric literal {echo.repr(node.value)}")
        if isinstance(node.value, int):
            return _constant((node.value, 1)), 0
        c = as_fraction(lines[node.lineno - 1][node.col_offset:node.end_col_offset].decode())
        return c.as_integer_ratio(), 0  # within the cap, which as_fraction applies
    if isinstance(node, ast.Name):
        if node.id not in _NAMES:
            raise ValueError(f"unknown name {echo.repr(node.id)}; use one of {_ALLOWED_NAMES}")
        return _NAMES[node.id], 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        a, degree = _compile(node.operand, lines)
        if isinstance(node.op, ast.UAdd):
            return a, degree
        if not callable(a):
            return (-a[0], a[1]), degree

        def neg(key):
            n, d = a(key)
            return -n, d
        return neg, degree
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        (a, da), (b, db) = _compile(node.left, lines), _compile(node.right, lines)
        if isinstance(node.op, ast.Pow):
            a = _reducing(a)
            if not callable(b):
                n = _int_exponent(b)
                if not callable(a):
                    _constant(a, abs(n))
                return _fold(_power, a, n), da * abs(n)
            _check_exponent(b)
            degree = max(da, 1) * MAX_EXPONENT
        elif isinstance(node.op, (ast.Mult, ast.Div)):
            degree = da + db
        else:
            degree = max(da, db)
        return _fold(_BINOPS[type(node.op)], a, b), degree
    raise ValueError(f"unsupported expression element {echo.cut(ast.dump(node))}")


def _reducing(a):
    """A compiled operand whose values are reduced: a constant or a name is,
    and any other function's value is reduced by one gcd."""
    if not callable(a) or a in _NAMES.values():
        return a
    return lambda key: _reduced(a(key))


def _check_exponent(b):
    """Reject an exponent that is not constant when ``_int_exponent`` does at
    the dummy point (t = 0, state 0); a division by zero there says nothing
    about the tree's nodes, which are checked when they are evaluated."""
    try:
        _int_exponent(_reduced(b(_DUMMY_KEY)))
    except ZeroDivisionError:
        pass


def _fold(op, a, b):
    """op on two compiled operands (b is an int exponent for ``_power``):
    folded now when both are constant (unless that divides by zero, which
    is reported at each node), else a function evaluating them left to
    right."""
    if callable(a) and callable(b):
        return lambda key: op(a(key), b(key))
    if callable(a):
        return lambda key: op(a(key), b)
    if callable(b):
        return lambda key: op(a, b(key))
    try:
        value = _reduced(op(a, b))
    except ZeroDivisionError:
        return lambda key: op(a, b)
    return _constant(value)


_ALIASES = {"zero": "0", "coord": "x_current", "sup": "x_sup"}


def parse_function(spec, field: str = "expression") -> tuple:
    """Turn a function field into (``KeyFunction``, canonical spec string):
    a function of the Markov key (t, state, sup), compiled once to an int
    kernel.  An expression that does not parse or compile, or whose degree
    (``_compile``) or constant is above its cap, is refused with a
    ValueError naming ``field`` and the expression: nesting powers would
    otherwise compose the exponent cap without bound.  So is an expression
    longer than ``MAX_EXPRESSION_CHARS``, before it is parsed, and one that
    nests too deeply for the parser or the compiler (a RecursionError or
    the parser's MemoryError: a thousand unary minuses already do)."""
    if isinstance(spec, (int, float)):
        spec = fmt_rational(as_fraction(spec))
    spec = spec.strip()
    if len(spec) > MAX_EXPRESSION_CHARS:
        raise ValueError(f"{field} {echo.repr(spec)} has {len(spec)} characters, "
                         f"above the cap {MAX_EXPRESSION_CHARS}")
    low = spec.lower()
    if low in _ALIASES:
        return parse_function(_ALIASES[low])[0], low
    if low.startswith("const:"):
        c = as_fraction(spec.split(":", 1)[1])
        value = (c.numerator, c.denominator)
        return KeyFunction(lambda *key: value), f"const:{fmt_rational(c)}"
    try:
        fn, degree = _compile(ast.parse(spec, mode="eval").body,
                              spec.encode().splitlines())
    except _ConstantTooLarge as exc:
        raise ValueError(f"{field} {echo.repr(spec)} has a constant of about {exc.args[0]} bits, "
                         f"above the cap {MAX_CONSTANT_BITS}") from None
    except ValueError as exc:
        raise ValueError(f"{field} {echo.repr(spec)}: {exc}") from None
    except SyntaxError as exc:
        raise ValueError(f"{field} {echo.repr(spec)}: {echo.cut(exc.msg)}") from None
    except (RecursionError, MemoryError):
        raise ValueError(f"{field} {echo.repr(spec)} nests too deeply to parse") from None
    if degree > MAX_DEGREE:
        raise ValueError(f"{field} {echo.repr(spec)} has degree {degree}, above the cap "
                         f"{MAX_DEGREE} (MAX_EXPONENT ** 2)")
    if not callable(fn):
        return KeyFunction(lambda *key: fn), spec
    return _guarded(fn, spec), spec


def _guarded(fn, spec: str) -> KeyFunction:
    """fn as a ``KeyFunction``: its int kernel calls fn at the key's ints
    and reduces the value by one gcd.  A division by zero, a non-integer or
    too large power, a reduced value whose numerator or denominator has
    more than ``MAX_CONSTANT_BITS`` bits or a call nested deeper than the
    stack allows is reported as bad input naming spec, t and the state
    (``state``, when given: a vector state, of which the key holds the
    first coordinate), each as ``xreal.echo`` or ``xreal.shown`` shows it;
    what went wrong and where are each cut as ``echo`` cuts, so the line
    stays under 300 bytes.
    The expression caps bound each expression but not its value at a node,
    and the Euler step composes the drift's values level by level, so the
    value is bounded here, where it is evaluated."""
    def kernel(tn, td, xn, xd, sn, sd, state=None):
        try:
            n, d = fn((tn, td, xn, xd, sn, sd))
        except ZeroDivisionError:
            what = "divides by zero"
        except _BadExponent as exc:
            what = f"takes {exc.args[0]}"
        except RecursionError:  # compiled nearer the stack's top than it is called
            what = "nests too deeply to evaluate"
        else:
            g = gcd(n, d)
            if g != 1:
                n, d = n // g, d // g
            if -_VALUE_LIMIT < n < _VALUE_LIMIT and d < _VALUE_LIMIT:
                return n, d
            what = f"has a value of {bits((n, d))} bits, above the cap {MAX_CONSTANT_BITS},"
        x = Fraction(xn, xd) if state is None else state
        x = f"({', '.join(map(shown, x))})" if isinstance(x, tuple) else shown(x)
        raise ExpressionUndefined(f"{echo.repr(spec)} {echo.cut(what)} "
                                  f"{echo.cut(f'at t = {shown(Fraction(tn, td))}, state {x}')}")
    return KeyFunction(kernel)


# ---------------------------------------------------------------------------
# increment words
# ---------------------------------------------------------------------------

def parse_word(tree: TreeInstance, text: str) -> Word:
    """Word strings: digits index branches; "+"/"-" alias 0/1 on binary trees."""
    if not isinstance(text, str):
        raise NodeNotInTree(f"a word must be a string, got {echo.repr(text)}")
    if text in ("", "root"):
        return ()
    if set(text) <= {"+", "-"}:
        word = tuple(0 if ch == "+" else 1 for ch in text)
    elif text.isdigit():
        word = tuple(int(ch) for ch in text)
    else:
        raise NodeNotInTree(f"cannot parse word {echo.repr(text)}")
    tree.check_word(word)
    return word


def word_str(tree: TreeInstance, word: Word) -> str:
    binary = all(len(level) == 2 for level in tree.branching)
    if binary:
        return "".join("+" if j == 0 else "-" for j in word)
    return "".join(str(j) for j in word)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def load_instance(source: Union[str, dict]) -> TreeInstance:
    raw = _read_obj(source)
    canon: dict = {}
    t0 = as_fraction(_field(raw, "t0", "instance", _NUMBER, 0))
    dt = as_fraction(_field(raw, "dt", "instance", _NUMBER))
    depth = _field(raw, "depth", "instance", int)
    canon["t0"], canon["dt"], canon["depth"] = fmt_rational(t0), fmt_rational(dt), depth

    def scalar(value, what):
        """``_rationals`` of value; past depth 0 an input error when it has
        more than one coordinate, since the Euler steps would give a vector
        state."""
        x = _rationals(value, what)
        if depth >= 1 and isinstance(x, list) and len(x) != 1:
            raise ValueError(f"{what} has {len(x)} coordinates, but instance "
                             f"expressions read a scalar state")
        return x

    def level_of(entries):
        out = []
        for e in _kind(entries, list, "a branching level"):
            e = _kind(e, dict, "a branch")
            w = scalar(_field(e, "w", "branch", _VECTOR), "branch field 'w'")
            out.append((as_fraction(_field(e, "p", "branch", _NUMBER)), w))
        return out

    braw = _field(raw, "branching", "instance", list)
    if braw and isinstance(braw[0], list):
        branching = [level_of(level) for level in braw]
        canon["branching"] = [[_branch_json(p, w) for p, w in level]
                              for level in branching]
    else:
        branching = level_of(braw)
        canon["branching"] = [_branch_json(p, w) for p, w in branching]

    history = [scalar(x, "an x0_history entry")
               for x in _field(raw, "x0_history", "instance", list, [0])]
    canon["x0_history"] = [_vec_json(x) for x in history]

    fns = {}
    for key, default in (("drift", "zero"), ("diffusion", "const:1"),
                         ("f", "zero"), ("pi", "zero")):
        fns[key], canon[key] = parse_function(_field(raw, key, "instance", _NUMBER, default),
                                              f"instance field {key!r}")

    cons = _field(raw, "constraints", "instance", dict, {})
    pairs, canon["constraints"] = {}, {"ineq": [], "eq": []}
    for key, fn_key, bound_key, what in (("ineq", "g", "y", "inequality"),
                                         ("eq", "h", "z", "equality")):
        pairs[key] = []
        for item in _field(cons, key, "constraints", list, []):
            item = _kind(item, dict, f"an {what}")
            fn, spec = parse_function(_field(item, fn_key, what, _NUMBER),
                                      f"{what} field {fn_key!r}")
            bound = Ext.parse(_field(item, bound_key, what, _NUMBER))
            pairs[key].append((fn, bound))
            canon["constraints"][key].append({fn_key: spec, bound_key: fmt_rational(bound)})

    # the Brownian path before t0: kept in the canonical form, read by no engine
    canon["w_history"] = [fmt_rational(v) for v in _rationals(
        _field(raw, "w_history", "instance", list, []), "instance field 'w_history'")]

    return build_tree(
        t0=t0, dt=dt, depth=depth, branching=branching, history=history,
        drift=fns["drift"], diffusion=fns["diffusion"],
        reward=fns["f"], terminal=fns["pi"],
        inequalities=pairs["ineq"], equalities=pairs["eq"], source=canon)


def _branch_json(p, w):
    return {"p": fmt_rational(p), "w": _vec_json(w)}


def _vec_json(x):
    if isinstance(x, (list, tuple)):
        return [fmt_rational(c) for c in x]
    return fmt_rational(x)


def dump_instance(tree: TreeInstance) -> dict:
    if tree.source is None:
        raise ValueError("instance was built from Python callables and has "
                         "no file representation")
    return dict(tree.source)


def instance_hash(source: Union[TreeInstance, dict]) -> str:
    if isinstance(source, TreeInstance):
        source = dump_instance(source)
    payload = json.dumps(source, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# rule / measure / budget files
# ---------------------------------------------------------------------------

def _entries(tree: TreeInstance, source: Union[str, dict], kind: str):
    """A rule or measure file's entries in file order, each as its word,
    its value and a name for it; two keys that name one node raise."""
    keys: dict = {}
    for key, value in _read_obj(source).items():
        word = parse_word(tree, key)
        if keys.setdefault(word, key) != key:
            raise ValueError(f"{kind} keys {echo.repr(keys[word])} and {echo.repr(key)} "
                             f"both name node {echo.repr(word)}")
        yield word, value, f"{kind} entry {echo.cut(repr(key))}"  # echo.repr's, 4x as fast


def load_rule(tree: TreeInstance, source: Union[str, dict]) -> RandomizedStoppingRule:
    q = {word: as_fraction(_kind(v, _NUMBER, what))
         for word, v, what in _entries(tree, source, "rule")}
    return rule_from_map(tree, q)


def dump_rule(tree: TreeInstance, rule: RandomizedStoppingRule) -> dict:
    rule.validate(tree)  # q is read by row: the rule must be on the tree's rows
    return {word_str(tree, w): fmt_rational(q) for w, q in zip(tree.nodes(), rule.q)}


def load_masses(tree: TreeInstance, source: Union[str, dict]):
    """A measure file's absolute stop and continue masses: (s, u) by word."""
    s, u = {}, {}
    for word, entry, what in _entries(tree, source, "measure"):
        s[word], u[word] = (as_fraction(_field(_kind(entry, dict, what), c, what, _NUMBER, 0))
                            for c in "su")
    return s, u


def load_measure(tree: TreeInstance, source: Union[str, dict]) -> StoppingMeasure:
    return StoppingMeasure.from_masses(tree, *load_masses(tree, source))


def dump_measure(tree: TreeInstance, measure: StoppingMeasure) -> dict:
    return {word_str(tree, w): {"s": fmt_rational(s), "u": fmt_rational(u)}
            for w, s, u in zip(tree.nodes(), *measure.masses(tree))}


def load_budgets(tree: TreeInstance, source: Union[str, dict]):
    raw = _read_obj(source)
    return BudgetVector(*(tuple(Ext.parse(_kind(v, _NUMBER, f"a budget in {key!r}"))
                                for v in _field(raw, key, "budgets", list, []))
                          for key in ("ineq", "eq")))


def load_cut(tree: TreeInstance, source: str) -> list:
    """A cut file's words: a list of word strings, bare or as {"cut": [...]}."""
    raw = _read_obj(source, (dict, list))
    if isinstance(raw, dict):
        raw = _field(raw, "cut", "cut file", list)
    return [parse_word(tree, w) for w in raw]


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _read_obj(source: Union[str, dict], kind=dict):
    """A JSON file's value, of the kind given; a dict is taken as read."""
    if isinstance(source, dict):
        return source
    with open(source) as fh:
        try:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            raise ValueError(f"{source} is not valid JSON: {exc}") from None
        except RecursionError:  # the decoder recurses once per level of nesting
            raise ValueError(f"{source} is not valid JSON: it nests too deeply") from None
    return _kind(raw, kind, str(source))


def _unique_keys(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key, whose
    earlier values a plain dict would drop, is an input error."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {echo.repr(key)} appears twice in one object")
        obj[key] = value
    return obj


_NUMBER = (int, float, str)  # a rational: a JSON number or string
_VECTOR = (*_NUMBER, list)  # a rational or a list of them
_KINDS = {_NUMBER: "a number or a string", _VECTOR: "a number, a string or a list",
          int: "an integer", list: "a list", dict: "an object",
          (dict, list): "an object or a list"}


def _kind(value, kind, what: str):
    """value, when it has the JSON kind (a key of ``_KINDS``, never a
    boolean); else an input error naming what, not a TypeError later."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be {_KINDS[kind]}, got {echo.repr(value)}")
    return value


def _field(obj: dict, key: str, what: str, kind, default=None):
    """A field of a JSON object, of the kind given; a missing one is its
    default, and an input error when that is None."""
    if key not in obj:
        if default is None:
            raise ValueError(f"{what} entry lacks the required field {key!r}")
        return default
    return _kind(obj[key], kind, f"{what} field {key!r}")


def _rationals(value, what: str):
    """A rational, or a list of them, as a Fraction or a list of Fractions."""
    if isinstance(_kind(value, _VECTOR, what), list):
        return [as_fraction(_kind(c, _NUMBER, f"an entry of {what}")) for c in value]
    return as_fraction(value)


def write_json_atomic(path: str, obj) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
