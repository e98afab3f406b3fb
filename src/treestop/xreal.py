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


class _Echo(reprlib.Repr):
    """What an error repeats of an input: reprlib's repr, which bounds
    containers and nesting, then made ASCII and cut as a whole by ``cut``."""

    def repr(self, x) -> str:
        return self.cut(super().repr(x))

    def cut(self, text: str) -> str:  # as ascii() escapes, then to maxstring bytes
        text = text.encode("ascii", "backslashreplace").decode()
        i = (self.maxstring - 3) // 2
        return (text if len(text) <= self.maxstring else
                f"{text[:i]}...{text[i + 3 - self.maxstring:]}")


echo = _Echo()
echo.maxstring = 90  # two echoes and a message's own text stay under 300 bytes


def bits(v: tuple) -> int:
    """The bits of a (num, den) pair's numerator or denominator, whichever has more."""
    return max(v[0].bit_length(), v[1].bit_length())


def shown(x) -> str:
    """A rational (or an ``Ext`` or a literal) as an error repeats it: as given,
    or as ``of N bits`` when its numerator or denominator has more than 128."""
    v = Ext.parse(x)
    n = bits(v.finite.as_integer_ratio()) if v.is_finite else 0
    return str(x) if n <= 128 else f"of {n} bits"


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
        except ValueError as exc:  # Fraction's message has x whole; int's digit limit, no x
            raise ValueError(str(exc).replace(repr(x), echo.repr(x)) if repr(x) in str(exc)
                             else f"rational literal {echo.repr(x)}: {exc}") from None
        if bits(f.as_integer_ratio()) > MAX_CONSTANT_BITS:
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
