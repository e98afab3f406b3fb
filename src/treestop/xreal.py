"""Extended rational numbers.

Values are exact rationals extended with +inf and -inf, for budgets and
targets: they parse, order and shift, and never scale.  Addition uses the
integration convention (+inf) + (-inf) = (-inf) + (+inf) = -inf, so sums of
mixed infinite accruals collapse to -inf instead of raising.  Comparison is
total: -inf < every finite value < +inf.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from math import isinf, log10

MAX_CONSTANT_BITS = 14_000  # printable in 4300 digits, so (10 ** 64) ** 64 loads
_MAX_POWER = int(MAX_CONSTANT_BITS * log10(2))  # the largest e with 10 ** e within the cap
_EXPONENT = re.compile(r"E[-+]?[0_]*([\d_]*)\Z", re.IGNORECASE)  # its digits, no leading 0

echo = reprlib.Repr()  # echo.repr(x): an input's repr, cut in the middle to maxstring
echo.maxstring = 160  # characters of an input's text that an error message repeats


def as_fraction(x) -> Fraction:
    """Coerce a number to an exact Fraction.

    ints and Fractions are taken as-is.  Floats are snapped to their exact
    binary value; an infinite one (a JSON number beyond the float range)
    raises ValueError.  Strings accept "num/den" and decimal literals; one
    with a zero denominator, or with a power of ten (read before it is
    built), numerator or denominator above ``MAX_CONSTANT_BITS`` bits,
    raises ValueError naming it.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if isinf(x):
            raise ValueError(f"number {x} is not finite; a JSON number beyond the "
                             f"float range reads as {x}")
        return Fraction(x)
    if isinstance(x, str):
        x = x.strip()
        power = None if "/" in x else _EXPONENT.search(x)
        if power and (len(digits := power[1].replace("_", "")) > len(str(_MAX_POWER))
                      or int(digits or 0) > _MAX_POWER):
            raise ValueError(f"rational literal {echo.repr(x)} has a power of ten above "
                             f"the cap of {MAX_CONSTANT_BITS} bits")
        try:
            f = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"rational literal {echo.repr(x)} has a zero denominator") from None
        except ValueError as exc:  # Fraction's own message repeats x whole
            raise ValueError(str(exc).replace(repr(x), echo.repr(x))) from None
        if max(f.numerator.bit_length(), f.denominator.bit_length()) > MAX_CONSTANT_BITS:
            raise ValueError(f"rational literal {echo.repr(x)} has a numerator or "
                             f"denominator above the cap of {MAX_CONSTANT_BITS} bits")
        return f
    raise TypeError(f"cannot interpret {echo.repr(x)} as a rational")


class Ext:
    """An exact rational, or +inf / -inf."""

    __slots__ = ("finite", "sign")

    def __init__(self, value, sign: int = 0):
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or 1")
        if sign == 0:
            self.finite = as_fraction(value)
            self.sign = 0
        else:
            self.finite = None
            self.sign = sign

    # -- constructors ----------------------------------------------------

    @staticmethod
    def parse(x) -> "Ext":
        """Parse ints, Fractions, floats, Ext and strings like "inf", "-1/3"."""
        if isinstance(x, Ext):
            return x
        if isinstance(x, str):
            s = x.strip().lower()
            if s in ("inf", "+inf", "infinity", "+infinity"):
                return POS_INF
            if s in ("-inf", "-infinity"):
                return NEG_INF
            return Ext(as_fraction(s))
        if isinstance(x, float):
            if x == float("inf"):
                return POS_INF
            if x == float("-inf"):
                return NEG_INF
        return Ext(as_fraction(x))

    # -- predicates -------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    @property
    def is_pos_inf(self) -> bool:
        return self.sign == 1

    @property
    def is_neg_inf(self) -> bool:
        return self.sign == -1

    def fraction(self) -> Fraction:
        if self.sign != 0:
            raise ValueError(f"{self} is not finite")
        return self.finite

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Ext":
        other = Ext.parse(other)
        if self.sign == 0 and other.sign == 0:
            return Ext(self.finite + other.finite)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        # both infinite; opposite signs collapse to -inf by convention
        if self.sign == other.sign:
            return self
        return NEG_INF

    def __neg__(self) -> "Ext":
        if self.sign == 0:
            return Ext(-self.finite)
        return POS_INF if self.sign == -1 else NEG_INF

    def __sub__(self, other) -> "Ext":
        return self + (-Ext.parse(other))

    # -- total order --------------------------------------------------------

    def _cmp_key(self):
        if self.sign == -1:
            return (-1, 0)
        if self.sign == 1:
            return (1, 0)
        return (0, self.finite)

    def __eq__(self, other) -> bool:
        try:
            other = Ext.parse(other)
        except (TypeError, ValueError):
            return NotImplemented
        if self.sign != other.sign:
            return False
        return self.sign != 0 or self.finite == other.finite

    def __hash__(self):
        return hash(self._cmp_key())

    def __lt__(self, other) -> bool:
        other = Ext.parse(other)
        if self.sign != other.sign:
            return self.sign < other.sign
        return self.sign == 0 and self.finite < other.finite

    def __le__(self, other) -> bool:
        other = Ext.parse(other)
        return self == other or self < other

    def __gt__(self, other) -> bool:
        return Ext.parse(other) < self

    def __ge__(self, other) -> bool:
        return Ext.parse(other) <= self

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return f"Ext({self})"

    def __str__(self):
        if self.sign == 1:
            return "inf"
        if self.sign == -1:
            return "-inf"
        return str(self.finite)

    def __float__(self):
        if self.sign == 1:
            return float("inf")
        if self.sign == -1:
            return float("-inf")
        return float(self.finite)


POS_INF = Ext(0, sign=1)
NEG_INF = Ext(0, sign=-1)
