from fractions import Fraction

import pytest

from treestop import Ext, NEG_INF, POS_INF, as_fraction
from treestop.xreal import MAX_CONSTANT_BITS


def test_mixed_infinite_sum_collapses_to_minus_infinity():
    assert POS_INF + NEG_INF == NEG_INF
    assert NEG_INF + POS_INF == NEG_INF
    assert POS_INF + POS_INF == POS_INF
    assert NEG_INF + NEG_INF == NEG_INF


def test_order_is_total():
    vals = [NEG_INF, Ext(Fraction(-7, 2)), Ext(0), Ext(3), POS_INF]
    for a, b in zip(vals, vals[1:]):
        assert a < b and b > a and a <= b and a != b
    assert sorted(reversed(vals), key=lambda v: v._cmp_key()) == vals


def test_finite_arithmetic_is_exact():
    a = Ext(Fraction(1, 3)) + Ext(Fraction(1, 6))
    assert a == Ext(Fraction(1, 2))
    assert -a == Ext(Fraction(-1, 2))
    assert a - Ext(2) == Ext(Fraction(-3, 2))


def test_budgets_shift_but_never_scale():
    # Ext holds budgets and targets: no scaling and no reflected arithmetic
    for op in (lambda: Ext(1) * 2, lambda: 2 * Ext(1), lambda: 2 + Ext(1),
               lambda: 2 - Ext(1)):
        with pytest.raises(TypeError):
            op()
    # a budget tightened by a rational, finite or not
    assert Ext(3) - 1000 == Ext(-997)
    assert POS_INF - 1000 == POS_INF


def test_parse_and_render():
    assert Ext.parse("inf") == POS_INF
    assert Ext.parse("-inf") == NEG_INF
    assert Ext.parse("3/4") == Ext(Fraction(3, 4))
    assert Ext.parse(float("inf")) == POS_INF
    assert str(Ext(Fraction(5, 2))) == "5/2"
    assert float(NEG_INF) == float("-inf")


def test_as_fraction_snaps_floats_to_exact_binary():
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction(0.1) == Fraction(0.1)  # exact binary value, not 1/10
    assert as_fraction("7/3") == Fraction(7, 3)
    with pytest.raises(TypeError):
        as_fraction(object())
    for parse in (as_fraction, Ext.parse):  # a zero denominator is bad input
        with pytest.raises(ValueError, match="'1/0'"):
            parse(" 1/0")


def test_as_fraction_refuses_an_infinite_float():
    # json reads 1e400 as float infinity; Fraction(inf) raised OverflowError
    for x in (float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"^number {x} is not finite"):
            as_fraction(x)
    assert Ext.parse(1e400) == POS_INF  # a budget or target may be +inf


def test_as_fraction_caps_a_decimal_exponent_before_building_its_power():
    # 10 ** 4214 has 13,999 bits and 10 ** 4215 has 14,002: the cap is 14,000
    assert (10 ** 4214).bit_length() <= MAX_CONSTANT_BITS < (10 ** 4215).bit_length()
    assert as_fraction("1e4214") == 10 ** 4214
    assert as_fraction("-25E-4_214") == Fraction(-25, 10 ** 4214)
    assert as_fraction(" 1e0000000000000000004214 ") == 10 ** 4214  # leading zeros
    assert as_fraction("1.5e3") == 1500
    for text in ("1e4215", "1E-4215", "1.5e1_0000", "1e100000000", "1e" + "9" * 5000):
        for parse in (as_fraction, Ext.parse):  # a budget takes the same path
            with pytest.raises(ValueError, match="has a power of ten above the cap of 14000 bits"):
                parse(text)


def test_as_fraction_caps_a_literals_bits_once_it_is_built():
    # 4300 digits times 10 ** 4214 were read as a 28,280-bit value, which
    # failed later at Python's 4300-digit limit, naming nothing
    for text in ("1" + "0" * 4299 + "e4214", "9" * 4215, "1" * 4300 + "/1",
                 "1/" + "7" * 4216, "0.3e-4214"):
        for parse in (as_fraction, Ext.parse):
            with pytest.raises(ValueError, match="has a numerator or denominator above the cap "
                                                 "of 14000 bits") as exc:
                parse(text)
            assert str(exc.value).startswith(f"rational literal {text[:20]!r}"[:-1])
            assert len(str(exc.value)) < 300  # the text is cut in the middle
    # the value's bits, the rule an expression constant is held to, not the text's length
    assert as_fraction("9" * 4214) == 10 ** 4214 - 1
    assert as_fraction("1" * 4215 + "/" + "3" * 4215) == Fraction(1, 3)
    assert as_fraction("1" + "0" * 4250 + "e-4000") == 10 ** 250
    assert as_fraction("1.5e-4214") == Fraction(3, 2 * 10 ** 4214)  # 14000 bits
    assert as_fraction("1e+0") == as_fraction("1.e-00") == 1


def test_as_fraction_names_a_literal_past_ints_digit_limit():
    # "0" * 5000 + "1", the value 1, reached int's digit limit, whose message
    # names no literal
    with pytest.raises(ValueError, match=r"^rational literal '0+\.\.\.0+1': Exceeds the "
                                         r"limit \(4300 digits\)") as exc:
        as_fraction("0" * 5000 + "1")
    assert len(str(exc.value)) < 300


def test_as_fraction_cuts_a_long_invalid_literal_in_fractions_message():
    with pytest.raises(ValueError) as exc:
        as_fraction("a" * 99_000)
    assert str(exc.value).startswith("Invalid literal for Fraction: 'aaa")
    assert len(str(exc.value)) < 300
    with pytest.raises(ValueError) as exc:  # a short one is repeated whole, as before
        as_fraction(" 1/2/3 ")
    assert str(exc.value) == "Invalid literal for Fraction: '1/2/3'"
