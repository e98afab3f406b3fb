"""Compiled instance expressions against the tree-walking interpreter they
replaced: the same values and the same exception types at every point."""

import ast
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treestop import ExpressionUndefined, load_instance, parse_function
from treestop.io import (_ALLOWED_NAMES, MAX_CONSTANT_BITS, MAX_DEGREE, MAX_EXPONENT,
                         MAX_EXPRESSION_CHARS, _compile)
from treestop.generate import (_DIFFUSIONS, _DRIFTS, _G_ANY, _H_ANY, _REWARDS,
                               _TERMINALS)
from treestop.xreal import as_fraction, echo

from oracles import oracle_eval_node

F = Fraction

# (t, state path); the last entry is the current state, and a vector state
# is read through its first coordinate
POINTS = [(F(0), (F(0),)), (F(1), (F(2),)), (F(1, 2), (F(-1), F(3, 2))),
          (F(2), (F(1), F(-2), F(1, 3))), (F(3), (F(1),)),
          (F(-1), (F(5), F(1, 2))), (F(1), ((F(2), F(-1)),))]

GENERATED = sorted(set(_DRIFTS + _DIFFUSIONS + _REWARDS + _TERMINALS
                       + _G_ANY + _H_ANY))
HAND_WRITTEN = [
    "-(-x_current)", "+-+t", "-x_current**2", "(-x_current)**3", "--(1/2)",
    "x_sup - x_current", "x_sup/2 + t", "0.1 * x_sup", "2 * (t - 1/3) * x_current",
    "x_current**0", "x_current**-2", "t**2 - 2**-1", "(1/2)**3 * t", "2**t",
    "(t + 1)**x_current", "x_current**(2/1)", "1/(x_current - 1)", "1/t",
    "1/0", "0**-1", "t/(t - t)", "x_current / (1/2 - 1/2)",
]
REJECTED = ["x_current**(1/2)", "1/x_current + t**(1/2)", "t**-0.5",
            "y + 1", "x_current + abs(t)", "t if t else 1", "'1'", "True",
            "1/x_current + z"]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type is the outcome under comparison
        return type(exc)


def _oracle(spec, t, prefix):
    scalar = [x[0] if isinstance(x, tuple) else x for x in prefix]
    env = {"t": t, "x_current": scalar[-1], "x_sup": max(scalar)}
    got = _outcome(oracle_eval_node, ast.parse(spec, mode="eval"), env, spec)
    # the library reports a division by zero as bad input
    return ExpressionUndefined if got is ZeroDivisionError else got


def _node_oracle(spec, t, prefix):
    """The interpreter's outcome for an expression that loaded: names,
    literals and operators passed at load, so a ValueError at a node is a
    non-integer exponent, which the library also reports as bad input."""
    got = _oracle(spec, t, prefix)
    return ExpressionUndefined if got is ValueError else got


@pytest.mark.parametrize("spec", GENERATED + HAND_WRITTEN)
def test_compiled_expression_equals_interpreter(spec):
    fn, canon = parse_function(spec)
    assert canon == spec
    for t, prefix in POINTS:
        assert _outcome(fn, t, prefix) == _node_oracle(spec, t, prefix), (t, prefix)


@pytest.mark.parametrize("spec", REJECTED)
def test_load_time_rejection_is_an_interpreter_error(spec):
    with pytest.raises(ValueError) as info:
        parse_function(spec)
    # the interpreter raises the same error wherever no division by zero
    # comes first
    outcomes = [_oracle(spec, t, prefix) for t, prefix in POINTS]
    assert set(outcomes) <= {info.type, ExpressionUndefined}
    assert info.type in outcomes


# -- decimal literals: the rational their text names, as in a rational field --------
# Python float literals: digit groups joined by underscores, an optional
# integer or fraction part (not both empty), and an exponent, which a literal
# without a point must have; the exponents reach past as_fraction's cap.

_GROUPED = st.lists(st.text("0123456789", min_size=1, max_size=6),
                    min_size=1, max_size=4).map("_".join)
_EXPONENTS = st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                       st.one_of(_GROUPED, st.sampled_from(["4214", "4215", "4_214", "0004215",
                                                             "99999999"])))
_FLOAT_LITERALS = st.one_of(
    st.builds("{}.{}{}".format, _GROUPED, st.just("") | _GROUPED, st.just("") | _EXPONENTS),
    st.builds(".{}{}".format, _GROUPED, st.just("") | _EXPONENTS),
    st.builds("{}{}".format, _GROUPED, _EXPONENTS))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_FLOAT_LITERALS)
@example(text="0.12345678901234567890123")
@example(text="1e400")
@example(text="1e-400")
@example(text="1e4214")
@example(text="1e4215")
@example(text=".5")
@example(text="5.")
@example(text="1_000.000_1e-1_0")
@example(text="1.5e-4214")  # a denominator of 14,002 bits
def test_a_decimal_literal_is_the_rational_its_text_names(text):
    """A float literal evaluates to ``as_fraction`` of its text, or is
    refused with its message; a value that ``as_fraction`` reads but whose
    numerator or denominator is above ``MAX_CONSTANT_BITS`` is refused as
    any such constant is."""
    assert isinstance(ast.parse(text, mode="eval").body.value, float)
    try:
        want = as_fraction(text)
    except ValueError as exc:
        with pytest.raises(ValueError, match=rf"^expression '{re.escape(text)}': "
                                             rf"{re.escape(str(exc))}$"):
            parse_function(text)
        return
    bits = max(want.numerator.bit_length(), want.denominator.bit_length())
    if bits > MAX_CONSTANT_BITS:
        with pytest.raises(ValueError, match=rf"^expression '{re.escape(text)}' has a constant "
                                             rf"of about {bits} bits, above the cap"):
            parse_function(text)
        return
    fn, _ = parse_function(text)
    assert fn.kernel(0, 1, 0, 1, 0, 1) == (want.numerator, want.denominator)
    # the same text negated, on a second line, beside a name
    fn, _ = parse_function(f"(x_current +\n -{text})")
    assert fn(F(1), (F(0),)) == -want


def test_negative_power_of_time_zero_is_undefined_not_a_domain_error():
    fn, _ = parse_function("t**-1 / 2")
    with pytest.raises(ExpressionUndefined,
                       match=r"^'t\*\*-1 / 2' divides by zero at t = 0, state 1$"):
        fn(F(0), (F(1),))
    assert fn(F(4), (F(1),)) == F(1, 8)


def test_exponent_that_is_not_constant_is_checked_on_its_own_at_load():
    # the division by zero at the dummy point comes first in the expression,
    # and must not hide the exponent, which is 1/2 there
    with pytest.raises(ValueError, match=r"^expression '1/x_current \+ t\*\*\(x_current \+ "
                       r"1/2\)': only integer exponents are supported$"):
        parse_function("1/x_current + t**(x_current + 1/2)")
    # an exponent that is an integer at the dummy point still loads, and a
    # division by zero inside one is left to the nodes
    for spec in ("2**t", "(t + 1)**x_current", "t**(1/x_current)"):
        fn, _ = parse_function(spec)
        for t, prefix in POINTS:
            assert _outcome(fn, t, prefix) == _node_oracle(spec, t, prefix), (spec, t)


def test_exponent_that_is_not_constant_is_an_integer_or_undefined_at_a_node():
    fn, _ = parse_function("2**x_current")
    assert fn(F(1), (F(3),)) == 8 and fn(F(1), (F(-1),)) == F(1, 2)
    with pytest.raises(ExpressionUndefined,
                       match=r"^'2\*\*x_current' takes the non-integer power 1/2 "
                             r"at t = 1, state 1/2$"):
        fn(F(1), (F(1, 2),))
    # a division by zero met first is still reported as one
    with pytest.raises(ExpressionUndefined,
                       match=r"^'1/t \+ t\*\*x_current' divides by zero at t = 0, "
                             r"state \(1/3, 0\)$"):
        parse_function("1/t + t**x_current")[0](F(0), ((F(1, 3), F(0)),))


def test_a_long_non_integer_exponent_shows_as_its_bit_count():
    # (32/3) ** 33 has a 166-bit numerator; at 437 bits, its 4300-digit
    # rendering raised Python's int conversion ValueError, not bad input
    fn, _ = parse_function("t**(t**33)")
    with pytest.raises(ExpressionUndefined, match=r"^'t\*\*\(t\*\*33\)' takes the non-integer "
                       r"power of 166 bits at t = 32/3, state 0$"):
        fn(F(32, 3), (F(0),))
    with pytest.raises(ExpressionUndefined, match="non-integer power of 14422 bits"):
        fn(F(2 ** 437, 3), (F(0),))


def test_exponents_are_capped_at_load_and_at_nodes():
    cap = MAX_EXPONENT
    assert parse_function(f"x_current ** {cap}")[0](F(0), (F(2),)) == 2 ** cap
    assert parse_function(f"x_current ** -{cap}")[0](F(0), (F(2),)) == F(1, 2 ** cap)
    with pytest.raises(ValueError, match=rf"^expression 'x_current \*\* {cap + 1}': "
                       rf"exponents are capped at {cap} in absolute value$"):
        parse_function(f"x_current ** {cap + 1}")
    # an exponent that is not constant is 0 at load's dummy point
    fn, _ = parse_function("2 ** (x_current * 65)")
    assert fn(F(0), (F(-1, 65),)) == F(1, 2) and cap < 65
    with pytest.raises(ExpressionUndefined, match=r"^'2 \*\* \(x_current \* 65\)' takes a "
                       rf"power whose exponent is above the cap {cap} at t = 0, state 1$"):
        fn(F(0), (F(1),))


@pytest.mark.parametrize("spec, degree", [
    ("(x_current**64)**64", 4096), ("x_current**-64 * x_current**-64 * x_sup**-64", 192),
    ("(x_current**x_current)**64", 4096), ("(2**x_current)**64", 4096),
    ("x_current**64 / t**64 - (x_sup + 1)**64", 128), ("(2**64)**64", 0),
])
def test_nested_powers_within_the_degree_cap_load(spec, degree):
    lines = spec.encode().splitlines()
    assert _compile(ast.parse(spec, mode="eval").body, lines)[1] == degree <= MAX_DEGREE
    parse_function(spec)


@pytest.mark.parametrize("spec, degree", [
    ("((x_current**64)**64)**64", 262144), ("(x_current**64)**64 * x_sup", 4097),
    ("(x_current**64)**-64 / t", 4097), ("((2**x_current)**64)**64", 262144),
    ("-(x_current**32 * x_sup**33 + t)**64", 4160),
])
def test_nested_powers_above_the_degree_cap_are_refused_at_load(spec, degree):
    assert MAX_DEGREE == MAX_EXPONENT ** 2 == 4096
    message = rf"^expression '{re.escape(spec)}' has degree {degree}, above the cap 4096"
    with pytest.raises(ValueError, match=message):
        parse_function(spec)
    doc = {"dt": "1", "depth": 1, "branching": [{"p": "1", "w": "1"}],
           "constraints": {"ineq": [{"g": spec, "y": "1"}]}}
    with pytest.raises(ValueError, match=r"^inequality field 'g' '"):
        load_instance(doc)
    with pytest.raises(ValueError, match=r"^instance field 'pi' '"):
        load_instance(dict(doc, constraints={}, pi=spec))


def test_an_expression_above_the_length_cap_is_refused_before_it_is_parsed():
    # a 20,000-term sum ended in a RecursionError during AST construction
    chain = "+".join(["x_current"] * 20_000)
    with pytest.raises(ValueError, match=rf"^instance field 'pi' 'x_current\+x_.*' has 199999 "
                                         rf"characters, above the cap {MAX_EXPRESSION_CHARS}$"):
        parse_function(chain, "instance field 'pi'")
    # spaces inside count, outer ones do not, and an expression at the cap loads
    at_cap = "x_current" + " " * (MAX_EXPRESSION_CHARS - 11) + "+1"
    assert parse_function(f" {at_cap} ")[0].kernel(0, 1, 2, 1, 2, 1) == (3, 1)
    with pytest.raises(ValueError, match="100001 characters, above the cap"):
        parse_function(at_cap.replace(" ", "  ", 1))
    with pytest.raises(ValueError, match="above the cap"):
        load_instance({"dt": "1", "depth": 1, "branching": [{"p": "1", "w": "1"}],
                       "pi": chain})


@pytest.mark.parametrize("head, message", [
    ("y", "unknown name 'y'"),
    ("1e4215", "rational literal '1e4215' has a power"),
    ("((10**64)**64)**2", "has a constant of about"),
    ("((x_current**64)**64)**2", "has degree 8192"),
])
def test_a_refusal_echoes_a_long_expression_cut_to_a_bounded_length(head, message):
    # each message held the whole expression, a line of up to 100,000 characters
    spec = head + " " * 99_000 + "+ 1"
    with pytest.raises(ValueError, match=re.escape(message)) as exc:
        parse_function(spec, "instance field 'pi'")
    assert str(exc.value).startswith(f"instance field 'pi' {spec[:40]!r}"[:-1])
    assert "..." in str(exc.value) and len(str(exc.value)) < 300


@pytest.mark.parametrize("spec, message", [
    ("y" * 99_000, "unknown name 'yyy"),
    ("'" + "s" * 99_000 + "'", "non-numeric literal 'sss"),
], ids=["name", "string"])
def test_a_refusal_echoes_a_long_token_cut_like_the_expression(spec, message):
    # the expression was cut but the name or string that it is followed
    # whole: messages of 99,237 and 99,204 characters
    with pytest.raises(ValueError, match=re.escape(message)) as exc:
        parse_function(spec, "instance field 'diffusion'")
    assert str(exc.value).count("...") == 2 and len(str(exc.value)) < 300


DEEP = {  # a RecursionError from the parser or the compiler, unless noted
    "unary-10000": "-" * 10_000 + "1",  # a MemoryError from the parser on Python 3.11
    "unary-1000": "-" * 1000 + "1",
    "unary-1000-of-a-name": "-" * 1000 + "x_current",
    "sum-1000": "+".join(["x_current"] * 1000),
    "power-1000": "2**" * 1000 + "x_current",
}


@pytest.mark.parametrize("case", sorted(DEEP))
def test_an_expression_that_nests_too_deeply_to_parse_is_bad_input(case):
    assert len(DEEP[case]) <= MAX_EXPRESSION_CHARS
    with pytest.raises(ValueError, match=r"^instance field 'pi' '.+\.\.\..+' nests too "
                                         r"deeply to parse$"):
        parse_function(DEEP[case], "instance field 'pi'")


def _nested(depth, call):
    """call() run from ``depth`` frames further down the stack."""
    return call() if depth == 0 else _nested(depth - 1, call)


def test_a_kernel_called_too_deep_in_the_stack_is_undefined_at_that_node():
    # compiled near the top of the stack, 600 calls deep, and called near
    # its limit: the node's value is undefined, not a RecursionError; the
    # 609-character expression is echoed cut in the middle
    spec = "-" * 600 + "x_current"
    fn, _ = parse_function(spec)
    assert fn.kernel(0, 1, 2, 1, 2, 1) == (2, 1)
    assert echo.repr(spec) == "'" + "-" * 42 + "..." + "-" * 34 + "x_current'"
    with pytest.raises(ExpressionUndefined, match=rf"^{re.escape(echo.repr(spec))} nests too "
                                                 r"deeply to evaluate at t = 0, state 2$"):
        _nested(sys.getrecursionlimit() - 300, lambda: fn.kernel(0, 1, 2, 1, 2, 1))


def test_constants_within_the_bit_cap_load():
    # 10 ** 4096 has 13,607 bits; a constant power is estimated as its
    # base's bits times the exponent, 213 * 64 = 13,632 here
    assert MAX_CONSTANT_BITS == 14_000
    for spec, value in (("(10**64)**64", F(10) ** 4096), ("(10**-64)**64", F(10) ** -4096),
                        ("(10**64)**64 / (10**64)**63", F(10) ** 64)):
        assert parse_function(spec)[0](F(0), (F(0),)) == value


@pytest.mark.parametrize("spec, bits", [
    ("((10**64)**64)**64", 13607 * 64), ("(((10**64)**64)**64)**64", 13607 * 64),
    ("(10**64)**64 * (10**64)**64", 27214), ("1 / (10**64)**64 / (10**64)**64", 27214),
    ("x_current + (10**64)**64 * 10**64 * 10**64", 14032),
    ("0x" + "f" * 3501, 14004),
])
def test_constants_above_the_bit_cap_are_refused_at_load(spec, bits):
    # a constant power is refused from its estimate, before it is taken: the
    # four-level power was still folding after 30 s; a long one, the
    # 3503-character literal, is echoed cut in the middle
    message = (rf"^expression {re.escape(echo.repr(spec))} has a constant of about {bits} bits, "
               rf"above the cap {MAX_CONSTANT_BITS}$")
    with pytest.raises(ValueError, match=message):
        parse_function(spec)
    with pytest.raises(ValueError, match=r"^instance field 'pi' '"):
        load_instance({"dt": "1", "depth": 1, "branching": [{"p": "1", "w": "1"}],
                       "pi": spec})


def test_values_above_the_bit_cap_are_undefined_at_a_node():
    # the expression is within its caps, but its value at a node is not; the
    # message gives the bit counts of the value and of a long state, never
    # their digits
    fn, _ = parse_function("((10**64)**64)**(x_current + 2)")
    assert fn(F(0), (F(-1),)) == F(10) ** 4096
    with pytest.raises(ExpressionUndefined, match=r"^'\(\(10\*\*64\)\*\*64\)\*\*\(x_current \+ 2\)' "
                       rf"has a value of 27214 bits, above the cap {MAX_CONSTANT_BITS}, "
                       r"at t = 0, state 0$"):
        fn(F(0), (F(0),))
    fn, _ = parse_function("x_current**64")
    assert fn(F(1), (F(2) ** 218,)) == F(2) ** (218 * 64)
    state = F(2) ** 219 / 3
    with pytest.raises(ExpressionUndefined, match=r"^'x_current\*\*64' has a value of 14017 "
                       rf"bits, above the cap {MAX_CONSTANT_BITS}, at t = 1, state of 220 bits$"):
        fn(F(1), (state,))
    with pytest.raises(ExpressionUndefined, match=r"above the cap .* state \(of 220 bits, 1\)$"):
        fn(F(1), ((state, F(1)),))
    # a coordinate of 128 bits still shows as its value
    with pytest.raises(ExpressionUndefined, match=rf"at t = 1, state {2 ** 127}$"):
        parse_function("(x_current**64)**2")[0](F(1), (F(2) ** 127,))


def test_a_power_above_twice_the_bit_cap_is_refused_before_it_is_taken():
    # |n| * (bits(base) - 1) bounds the power's bits from below; at twice the
    # cap the power is refused unbuilt, and below it taken and checked exactly
    fn, _ = parse_function("(x_current**64)**64")
    state = 8 + F(2) ** 12288 + F(1, 3)  # a state of 12,290 bits
    with pytest.raises(ExpressionUndefined, match=r"^'\(x_current\*\*64\)\*\*64' takes a "
                       r"power of at least 786497 bits, above twice the cap 14000, "
                       r"at t = 1, state of 12290 bits$"):
        fn(F(1), (state,))
    fn, _ = parse_function("x_current**(2 * t)")
    with pytest.raises(ExpressionUndefined,
                       match=r"takes a power of at least 28001 bits, above twice the cap 14000,"):
        fn(F(1), (F(2) ** 14000,))
    with pytest.raises(ExpressionUndefined, match=r"has a value of 27999 bits"):
        fn(F(1), (F(2) ** 13999,))


# -- the int kernels against the interpreter, on drawn expressions ------------------
# The interpreter knows no caps, so a drawn expression's expected outcome is
# its value, unless the interpreter raises, a power's exponent is above
# MAX_EXPONENT or its bit estimate above twice MAX_CONSTANT_BITS, or the
# value has more than MAX_CONSTANT_BITS bits: each of those is bad input.

def _near(bits):
    """Ints with bits - 1 and bits bits, the extremes of that length."""
    return [2 ** (bits - 2), 2 ** (bits - 1) - 1, 2 ** (bits - 1), 2 ** bits - 1]


_LITERALS = (["0", "1", "2", "3", "0.5", "1.25", "0.1", "(1/3)", "(5/2)"]
             + [str(n) for n in _near(MAX_CONSTANT_BITS)[::2]])
# (t, x_current, x_sup): zero bases, small values, and bases whose 64th power
# is within a few bits of the value cap, or whose bit estimate is at twice it
KEYS = [(F(0), F(0), F(0)), (F(1), F(2), F(2)), (F(1, 2), F(-1), F(3, 2)),
        (F(-1), F(1, 3), F(5)), (F(2), F(-3, 4), F(0)), (F(64), F(65), F(1, 64)),
        *((F(1), F(n), F(1, n)) for n in _near(219)),
        *((F(n, 3), F(-1, n), F(n)) for n in _near(438) + _near(439))]
VECTOR_PREFIXES = [(F(1, 2), ((F(-1), F(3)),)), (F(0), ((F(0), F(1)), (F(2), F(-1)))),
                   (F(1), ((F(2) ** 218, F(1, 3)),))]


class _Capped(Exception):
    """A power above a cap, refused before the interpreter takes it."""


def _check_power(base, n):
    bits = max(base.numerator.bit_length(), base.denominator.bit_length())
    if abs(n) > MAX_EXPONENT or abs(n) * (bits - 1) + 1 > 2 * MAX_CONSTANT_BITS:
        raise _Capped


def _capped_oracle(spec, env):
    """The interpreter's value, or bad input where it raises (it divides by
    zero, or a power is no integer) or a cap applies."""
    try:
        value = oracle_eval_node(ast.parse(spec, mode="eval"), env, spec, _check_power)
    except (ZeroDivisionError, ValueError, _Capped):
        return ExpressionUndefined
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_CONSTANT_BITS:
        return ExpressionUndefined
    return value


def _compound(operands):
    return st.one_of(
        st.builds("{}({})".format, st.sampled_from("-+"), operands),
        st.builds("({} {} {})".format, operands, st.sampled_from("+-*/"), operands),
        st.builds("({})**({})".format, operands, st.integers(-MAX_EXPONENT, MAX_EXPONENT)),
        st.builds("({})**({})".format, operands, operands))


EXPRESSIONS = st.recursive(st.sampled_from(list(_ALLOWED_NAMES) + _LITERALS), _compound,
                           max_leaves=6)


@settings(max_examples=500, deadline=None)
@given(spec=EXPRESSIONS)
@example(spec=f"x_current * {2 ** (MAX_CONSTANT_BITS - 1)}")  # 2 ** 14000 at x = 2: one bit over
@example(spec="x_current**64 / x_current**63")  # a 439-bit base is refused, a 438-bit one is not
def test_int_kernel_equals_the_interpreter_on_drawn_expressions(spec):
    """Each compiled kernel gives the interpreter's value as a reduced pair
    with a positive denominator, or bad input where it raises or a cap
    applies; a vector state is read through its first coordinate."""
    try:
        fn, _ = parse_function(spec)
    except ValueError:  # refused at load, which other tests cover
        return
    for t, x, sup in KEYS:
        want = _capped_oracle(spec, {"t": t, "x_current": x, "x_sup": sup})
        key = (t.numerator, t.denominator, x.numerator, x.denominator,
               sup.numerator, sup.denominator)
        got = _outcome(fn.kernel, *key)
        if isinstance(want, Fraction):
            assert got == (want.numerator, want.denominator), (spec, t, x, sup)
        else:
            assert got == want, (spec, t, x, sup)
    for t, prefix in VECTOR_PREFIXES:
        scalar = [x[0] for x in prefix]
        want = _capped_oracle(spec, {"t": t, "x_current": scalar[-1], "x_sup": max(scalar)})
        assert _outcome(fn, t, prefix) == want, (spec, t, prefix)
