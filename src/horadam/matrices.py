"""Square 2x2 and 3x3 matrices with exact rational entries.

A Matrix is held as an integer matrix N over one positive common
denominator d, in lowest terms (gcd(d, entries of N) = 1).  That form is
canonical, so equality compares integers, and sums, products, powers,
determinants and the inverse run on ints alone; a product is written out
entry by entry for each size.  Entries are given as ints
or Fractions (anything else is a TypeError) and are read back as Fractions;
an int entry builds no Fraction.
The 2x2 size holds the companion matrix, the 3x3 size the matrices with
spectrum {alpha, beta, 0}.  Determinants use cofactor expansion and the one
inverse, of the basis in :func:`~horadam.derivation.derive`, the adjugate:
(N/d)^(-1) = d*adj(N)/det(N).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import SingularMatrixError
from .exact import QuadElem  # noqa: F401  (perfbench reaches matrices.QuadElem)
from .exact import RationalLike, narrow, power
from .sequences import h_window

IntRows = tuple[tuple[int, ...], ...]


class Matrix:
    """An immutable square 2x2 or 3x3 matrix of exact rationals."""

    __slots__ = ("_num", "_den")

    def __init__(self, rows: Iterable[Sequence[RationalLike]]) -> None:
        data = tuple(tuple(narrow(entry) for entry in row) for row in rows)
        if len(data) not in (2, 3) or any(len(row) != len(data) for row in data):
            raise ValueError("matrix must be square 2x2 or 3x3, "
                             f"got row lengths {[len(row) for row in data]}")
        built = Matrix._quotient(data, 1)
        self._num, self._den = built._num, built._den

    @classmethod
    def _reduced(cls, num: IntRows, den: int) -> Matrix:
        """num/den in lowest terms, for den > 0 and num the int rows of a valid size."""
        g = gcd(den, *sum(num, ()))
        if g != 1:
            num = tuple([tuple([e // g for e in row]) for row in num])
            den //= g
        matrix = object.__new__(cls)
        matrix._num = num
        matrix._den = den
        return matrix

    @classmethod
    def _quotient(cls, rows: Sequence[Sequence[RationalLike]], divisor: RationalLike) -> Matrix:
        """rows/divisor for square int or Fraction rows of a valid size and a nonzero divisor p/q:
        the rows over the lcm of their denominators, times q over p with the sign moved up so
        that d > 0, reduced once.  (A list, not a generator, is unpacked: see tests/test_source.py.)"""
        den = lcm(*[e.denominator for row in rows for e in row])
        p, q = divisor.numerator, divisor.denominator
        if p < 0:
            p, q = -p, -q
        return cls._reduced(tuple([tuple([e.numerator * (den // e.denominator) * q for e in row])
                                   for row in rows]), den * p)

    @classmethod
    def _combination(cls, x: RationalLike, a: Matrix, y: RationalLike, b: Matrix) -> Matrix:
        """x*a + y*b for int or Fraction scalars and matrices of one size, reduced once."""
        cx = x.numerator * y.denominator * b._den
        cy = y.numerator * x.denominator * a._den
        return cls._reduced(tuple([tuple([cx * u + cy * v for u, v in zip(ra, rb)])
                                   for ra, rb in zip(a._num, b._num)]),
                            x.denominator * y.denominator * a._den * b._den)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self._den
        return tuple(tuple(Fraction(e, den) for e in row) for row in self._num)

    @property
    def size(self) -> int:
        """The number of rows, which is also the number of columns."""
        return len(self._num)

    @classmethod
    @functools.cache
    def identity(cls, n: int) -> Matrix:
        """The n x n identity, built once per size: matrices are immutable."""
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __str__(self) -> str:
        """The rows as report text: ``[a b; c d]``."""
        return "[" + "; ".join(" ".join(str(e) for e in row) for row in self.rows) + "]"

    def __repr__(self) -> str:
        return f"Matrix{self}"

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self._num[i][j], self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: Matrix) -> Matrix:
        return self._plus(1, other)

    def __sub__(self, other: Matrix) -> Matrix:
        return self._plus(-1, other)

    def _plus(self, sign: int, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return Matrix._combination(1, self, sign, other)

    def __mul__(self, other: object) -> Matrix:
        if isinstance(other, Matrix):
            if self.size != other.size:
                raise ValueError(f"size mismatch: {self.size} vs {other.size}")
            return Matrix._reduced(_product(self._num, other._num), self._den * other._den)
        other = narrow(other)  # a non-rational scalar is narrow's TypeError
        p, q = other.numerator, other.denominator
        return Matrix._reduced(tuple(tuple(e * p for e in row) for row in self._num), self._den * q)

    # Scalars commute with the entries; a Matrix on the left never reaches here.
    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Matrix:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers are not supported; invert explicitly")
        return power(self, exponent, Matrix.identity(self.size))

    def trace(self) -> Fraction:
        return Fraction(sum(row[i] for i, row in enumerate(self._num)), self._den)

    def det(self) -> Fraction:
        return Fraction(_det(self._num), self._den ** self.size)

    def inverse(self) -> Matrix:
        """Exact inverse of a 3x3 matrix: d*adj(N)/det(N) for the matrix N/d."""
        if self.size != 3:
            raise ValueError(f"inverse implemented for 3x3 matrices only, got {self.size}x{self.size}")
        det = _det(self._num)
        if det == 0:
            raise SingularMatrixError("matrix is singular")
        (a, b, c), (d, e, f), (g, h, i) = self._num
        adjugate = (
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
        scale = self._den if det > 0 else -self._den
        return Matrix._reduced(tuple(tuple(x * scale for x in row) for row in adjugate), abs(det))


def _product(x: IntRows, y: IntRows) -> IntRows:
    """x*y for two integer matrices of one size, written out: the inner step of every power walk."""
    if len(x) == 2:
        (a, b), (c, d) = x
        (e, f), (g, h) = y
        return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)
    (a, b, c), (d, e, f), (g, h, i) = x
    (j, k, l), (m, n, o), (p, q, t) = y
    return ((a * j + b * m + c * p, a * k + b * n + c * q, a * l + b * o + c * t),
            (d * j + e * m + f * p, d * k + e * n + f * q, d * l + e * o + f * t),
            (g * j + h * m + i * p, g * k + h * n + i * q, g * l + h * o + i * t))


def _det(r: IntRows) -> int:
    """The determinant of a 2x2 or 3x3 integer matrix, by cofactor expansion."""
    if len(r) == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


def det_equals(m: Matrix, value: RationalLike) -> bool:
    """Whether det m = value, decided on ints without building a Fraction: det(N/d) = det(N)/d^size."""
    return _det(m._num) * value.denominator == value.numerator * m._den ** m.size


def companion(r: RationalLike, s: RationalLike) -> Matrix:
    """The 2x2 companion matrix [[r, s], [1, 0]] of the recurrence."""
    return Matrix([[r, s], [1, 0]])


def companion_power_form(r: RationalLike, s: RationalLike, n: int) -> Matrix:
    """The n-th companion power assembled from sequence values:
    [[h(n+1), s*h(n)], [h(n), s*h(n-1)]] for n >= 1."""
    h = h_window(r, s, n)
    return companion_power_from_window(s, h)


def companion_power_from_window(s: RationalLike, h: tuple) -> Matrix:
    """[[h(n+1), s*h(n)], [h(n), s*h(n-1)]] for h the window of :func:`h_window` at n."""
    return Matrix._quotient([[h[4], s * h[3]], [h[3], s * h[2]]], 1)


def companion_decomposition_check(r: RationalLike, s: RationalLike, n: int) -> bool:
    """Whether Q^n = h(n)*Q + s*h(n-1)*I holds exactly for the companion Q."""
    h = h_window(r, s, n)
    q = companion(r, s)
    return q ** n == companion_decomposition_from_window(q, s, h)


def companion_decomposition_from_window(q: Matrix, s: RationalLike, h: tuple) -> Matrix:
    """h(n)*Q + s*h(n-1)*I for h the window of :func:`h_window` at n."""
    return Matrix._combination(h[3], q, s * h[2], Matrix.identity(2))
