"""Exact scalar arithmetic.

Sequence values and matrix entries are reduced rationals (plain
``fractions.Fraction``); the roots alpha, beta of x^2 - r*x - s and their
powers are elements ``p + q*sqrt(D)`` of a real quadratic extension, held
by :class:`QuadElem`.  Everything is immutable and every operation is
exact; nothing here ever rounds.
"""

from __future__ import annotations

import contextlib
import sys
from fractions import Fraction
from math import isqrt

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


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift CPython's int<->str digit limit inside the block and give the
    caller back its own limit on every exit."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


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
    """An element ``rat + irr*sqrt(disc)`` with exact rational coefficients.

    ``disc`` must be positive.  When ``disc`` is the square of a rational,
    ``sqrt(disc)`` is itself rational and the irrational part is folded into
    ``rat`` on construction, so the representation stays canonical and
    equality is decidable by coefficient comparison.

    Arithmetic only combines elements sharing the same ``disc``; plain ints
    and Fractions are accepted on either side and embedded on the fly.
    """

    __slots__ = ("_rat", "_irr", "_disc")

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
        self._rat = rat
        self._irr = irr
        self._disc = disc

    @property
    def rat(self) -> Fraction:
        return self._rat

    @property
    def irr(self) -> Fraction:
        return self._irr

    @property
    def disc(self) -> Fraction:
        return self._disc

    @classmethod
    def one(cls, disc: RationalLike) -> QuadElem:
        return cls(1, 0, disc)

    def __repr__(self) -> str:
        return f"QuadElem({self._rat}, {self._irr}, disc={self._disc})"

    def __str__(self) -> str:
        if not self._irr:
            return str(self._rat)
        sign = "+" if self._irr > 0 else "-"
        mag = abs(self._irr)
        coef = "" if mag == 1 else f"{mag}*"
        return f"{self._rat} {sign} {coef}sqrt({self._disc})"

    def __bool__(self) -> bool:
        return bool(self._rat) or bool(self._irr)

    def __hash__(self) -> int:
        if not self._irr:
            return hash(self._rat)
        return hash((self._rat, self._irr, self._disc))

    def _coerce(self, other: object) -> QuadElem | None:
        if isinstance(other, QuadElem):
            if other._disc != self._disc:
                raise ValueError(
                    f"mismatched discriminants: {self._disc} vs {other._disc}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(other, 0, self._disc)
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadElem):
            if self._disc != other._disc:
                return (not self._irr and not other._irr
                        and self._rat == other._rat)
            return self._rat == other._rat and self._irr == other._irr
        if isinstance(other, (int, Fraction)):
            return not self._irr and self._rat == other
        return NotImplemented

    def __add__(self, other: object) -> QuadElem:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadElem(self._rat + rhs._rat, self._irr + rhs._irr, self._disc)

    __radd__ = __add__

    def __sub__(self, other: object) -> QuadElem:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadElem(self._rat - rhs._rat, self._irr - rhs._irr, self._disc)

    def __rsub__(self, other: object) -> QuadElem:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self) -> QuadElem:
        return QuadElem(-self._rat, -self._irr, self._disc)

    def __mul__(self, other: object) -> QuadElem:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        rat = self._rat * rhs._rat + self._irr * rhs._irr * self._disc
        irr = self._rat * rhs._irr + self._irr * rhs._rat
        return QuadElem(rat, irr, self._disc)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> QuadElem:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __pow__(self, exponent: int) -> QuadElem:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, QuadElem.one(self._disc))

    def norm(self) -> Fraction:
        """self times its conjugate rat - irr*sqrt(disc), always rational."""
        return self._rat * self._rat - self._irr * self._irr * self._disc

    def inverse(self) -> QuadElem:
        """Multiplicative inverse, via the conjugate over the norm."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        n = self.norm()
        # norm = 0 with self != 0 would need disc to be a perfect square of
        # a rational, and those representations fold to irr = 0 on input.
        return QuadElem(self._rat / n, -self._irr / n, self._disc)

    def to_fraction(self) -> Fraction:
        if self._irr:
            raise ValueError(f"{self} is not rational")
        return self._rat
