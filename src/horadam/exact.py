"""Exact scalar arithmetic.

Sequence values and matrix entries are exact rationals: plain ``int``s
inside the package wherever the value is integral (:func:`narrow`), and
reduced ``fractions.Fraction``s otherwise and in every public result.  The
roots alpha, beta of x^2 - r*x - s and their powers are elements
``p + q*sqrt(D)`` of a real quadratic extension, held by :class:`QuadElem`
as integers over one denominator.  Everything is immutable and every
operation is exact; nothing here ever rounds.

:func:`decimal_text` writes an int or Fraction as ``str()`` does, but in
subquadratic time for ints of more than 32,768 bits, whose ``str()`` is
quadratic in CPython 3.11: it joins the decimal text of the two halves of
the binary number in stdlib ``decimal``, at a precision that never rounds.
:func:`decimal_walk` writes a run of integral recurrence values the same
way, stepping the recurrence itself in ``decimal``.
"""

from __future__ import annotations

import contextlib
import decimal
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterator

from .errors import DomainError

RationalLike = int | Fraction


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int or Fraction.  Floats are rejected: they would smuggle
    rounded values into code whose whole point is exact equality."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def narrow(value: RationalLike) -> RationalLike:
    """The same exact rational in the cheaper type: an int when it is
    integral, else the Fraction.  For arithmetic inside the package; public
    results are Fractions.  Anything else is as_fraction's TypeError."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    return as_fraction(value)


def power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, starting from ``one``."""
    result = one
    while n > 0:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _int_digit_limit() -> int:
    """CPython's int<->str digit limit, 0 when lifted or absent."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift CPython's int<->str digit limit inside the block and give the
    caller back its own limit on every exit."""
    limit = _int_digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


#: Ints of up to this many bits (about 9,900 digits) are written by str(),
#: which is faster below it; above it decimal_text splits.
_STR_BITS = 32_768
#: Pieces of up to this many bits become Decimals directly.
_LEAF_BITS = 4096
#: Decimal arithmetic that raises instead of rounding.  Only its own methods
#: are called, so the caller's current decimal context is never read or set.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded])
_ZERO = decimal.Decimal(0)


def decimal_text(value: RationalLike) -> str:
    """``str(value)`` for an int or Fraction, in subquadratic time for huge ints.

    An int, or a Fraction's term, of more than _STR_BITS bits is converted
    by :func:`_decimal`, which is exact.  While CPython's int->str digit
    limit is in force, str() writes every value, so the limit raises as for
    str().
    """
    num, den = value.numerator, value.denominator
    if (num.bit_length() <= _STR_BITS and den.bit_length() <= _STR_BITS) or _int_digit_limit():
        return str(value)
    if den != 1:
        return f"{decimal_text(num)}/{decimal_text(den)}"
    return str(_decimal(num))


def decimal_walk(r: int, s: int, prev: int, cur: int) -> Iterator[str]:
    """str() of the ints prev, cur, r*cur + s*prev, ... without end, in time linear in
    each value's digits: the walk runs exactly in ``decimal``, whose str() is linear.
    CPython's int->str digit limit does not apply."""
    mul, add = _EXACT.multiply, _EXACT.add
    r, s, prev, cur = map(_decimal, (r, s, prev, cur))
    yield str(prev)
    while True:
        yield str(cur)
        # A sum of two zero products keeps their minus sign; "or" drops it.
        prev, cur = cur, add(mul(r, cur), mul(s, prev)) or _ZERO


def _decimal(n: int) -> decimal.Decimal:
    result = _to_decimal(abs(n), n.bit_length(), {})
    return result.copy_negate() if n < 0 else result


def _to_decimal(n: int, w: int, powers: dict[int, decimal.Decimal]) -> decimal.Decimal:
    """n < 2^w as a Decimal, in subquadratic time: split by bits into hi*2^(w/2) + lo, the
    halves converted recursively and joined exactly; ``powers`` holds the 2^k already built."""
    if w <= _LEAF_BITS:
        return decimal.Decimal(n)
    low_bits = w >> 1
    hi = n >> low_bits
    return _EXACT.add(_EXACT.multiply(_to_decimal(hi, w - low_bits, powers), _power_of_two(low_bits, powers)),
                      _to_decimal(n - (hi << low_bits), low_bits, powers))


def _power_of_two(w: int, powers: dict[int, decimal.Decimal]) -> decimal.Decimal:
    result = powers.get(w)
    if result is None:
        if w <= _LEAF_BITS:
            result = decimal.Decimal(1 << w)
        else:
            result = _EXACT.multiply(_power_of_two(w >> 1, powers), _power_of_two(w - (w >> 1), powers))
        powers[w] = result
    return result


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of ``value`` if it is the square of a rational,
    otherwise None."""
    if value < 0:
        return None
    num = isqrt(value.numerator)
    den = isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


class QuadElem:
    """An element ``rat + irr*sqrt(disc)`` of a real quadratic field, exactly.

    ``disc`` must be positive and is kept as given, for display.  The value
    is held as (P + Q*sqrt(m))/d with integers P, Q, d > 0 in lowest terms
    (gcd(P, Q, d) = 1) and the integer radicand m = num(disc)*den(disc), since
    sqrt(disc) = sqrt(m)/den(disc).  That form is canonical, so equality
    compares integers and all arithmetic runs on ints; ``rat`` and ``irr``
    read the coefficients back as Fractions.  When ``disc`` is the square of
    a rational, ``sqrt(disc)`` is itself rational and the public constructor
    folds the irrational part into ``rat``; arithmetic keeps Q = 0 there.

    Arithmetic only combines elements sharing the same ``disc``; plain ints
    and Fractions are accepted on either side and embedded on the fly, and
    any other operand is :func:`narrow`'s TypeError.
    """

    __slots__ = ("_p", "_q", "_d", "_m", "_disc")

    def __init__(self, rat: RationalLike, irr: RationalLike, disc: RationalLike) -> None:
        disc = as_fraction(disc)
        if disc <= 0:
            raise DomainError(f"discriminant must be positive, got {disc}")
        rat = as_fraction(rat)
        irr = as_fraction(irr)
        if irr:
            root = rational_sqrt(disc)
            if root is not None:
                rat = rat + irr * root
                irr = Fraction(0)
        # irr*sqrt(disc) = (irr/den(disc))*sqrt(m).  As in Matrix, the lcm of
        # reduced denominators leaves the numerators in lowest terms.
        irr = irr / disc.denominator
        d = lcm(rat.denominator, irr.denominator)
        self._p = rat.numerator * (d // rat.denominator)
        self._q = irr.numerator * (d // irr.denominator)
        self._d = d
        self._m = disc.numerator * disc.denominator
        self._disc = disc

    def _with(self, p: int, q: int, d: int) -> QuadElem:
        """(p + q*sqrt(m))/d in self's field, reduced, for d > 0; builds no Fraction."""
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
        elem = object.__new__(QuadElem)
        elem._p, elem._q, elem._d, elem._m, elem._disc = p, q, d, self._m, self._disc
        return elem

    @property
    def rat(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def irr(self) -> Fraction:
        return Fraction(self._q * self._disc.denominator, self._d)

    @property
    def disc(self) -> Fraction:
        return self._disc

    def __repr__(self) -> str:
        return f"QuadElem({self.rat}, {self.irr}, disc={self._disc})"

    def __str__(self) -> str:
        if not self._q:
            return str(self.rat)
        irr = self.irr
        sign = "+" if irr > 0 else "-"
        mag = abs(irr)
        coef = "" if mag == 1 else f"{mag}*"
        return f"{self.rat} {sign} {coef}sqrt({self._disc})"

    def __bool__(self) -> bool:
        return bool(self._p) or bool(self._q)

    def __hash__(self) -> int:
        if not self._q:
            return hash(self.rat)
        return hash((self.rat, self.irr, self._disc))

    def _same_field(self, other: QuadElem) -> bool:
        return other._disc is self._disc or other._disc == self._disc

    def _parts(self, other: object) -> tuple[int, int, int]:
        """(P, Q, d) of ``other`` in self's field; a non-rational is narrow's TypeError."""
        if isinstance(other, QuadElem):
            if not self._same_field(other):
                raise ValueError(
                    f"mismatched discriminants: {self._disc} vs {other._disc}"
                )
            return other._p, other._q, other._d
        other = narrow(other)
        return other.numerator, 0, other.denominator

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadElem):
            if not self._same_field(other):
                return (not self._q and not other._q
                        and self._p == other._p and self._d == other._d)
            return self._p == other._p and self._q == other._q and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._q and self._p == other.numerator and self._d == other.denominator
        return NotImplemented

    def __add__(self, other: object) -> QuadElem:
        p, q, d = self._parts(other)
        return self._with(self._p * d + p * self._d, self._q * d + q * self._d, self._d * d)

    __radd__ = __add__

    def __sub__(self, other: object) -> QuadElem:
        p, q, d = self._parts(other)
        return self._with(self._p * d - p * self._d, self._q * d - q * self._d, self._d * d)

    def __rsub__(self, other: object) -> QuadElem:
        p, q, d = self._parts(other)
        return self._with(p * self._d - self._p * d, q * self._d - self._q * d, self._d * d)

    def __neg__(self) -> QuadElem:
        return self._with(-self._p, -self._q, self._d)

    def __mul__(self, other: object) -> QuadElem:
        p, q, d = self._parts(other)
        return self._with(self._p * p + self._q * q * self._m, self._p * q + self._q * p, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> QuadElem:
        return self * self._with(*self._parts(other)).inverse()

    def __pow__(self, exponent: int) -> QuadElem:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, self._with(1, 0, 1))

    def norm(self) -> Fraction:
        """self times its conjugate rat - irr*sqrt(disc), always rational."""
        return Fraction(self._p * self._p - self._q * self._q * self._m, self._d * self._d)

    def inverse(self) -> QuadElem:
        """Multiplicative inverse, via the conjugate over the norm:
        d*(P - Q*sqrt(m))/(P^2 - Q^2*m)."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        # P^2 - Q^2*m = 0 with self != 0 would need m to be a perfect square,
        # and those representations fold to Q = 0 on input.
        n = self._p * self._p - self._q * self._q * self._m
        scale = self._d if n > 0 else -self._d
        return self._with(self._p * scale, -self._q * scale, abs(n))

    def to_fraction(self) -> Fraction:
        if self._q:
            raise ValueError(f"{self} is not rational")
        return Fraction(self._p, self._d)
