"""Square 2x2 and 3x3 matrices with exact rational entries.

Entries are Fractions (ints are coerced; anything else is a TypeError).  The
2x2 size holds the companion matrix, the 3x3 size the matrices with spectrum
{alpha, beta, 0}.  Determinants use cofactor expansion and the one inverse,
of the basis in :func:`~horadam.derivation.derive`, the adjugate.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, SingularMatrixError
from .exact import QuadElem  # noqa: F401  (perfbench reaches matrices.QuadElem)
from .exact import RationalLike, as_fraction, power
from .sequences import h_window


class Matrix:
    """An immutable square 2x2 or 3x3 matrix of exact rationals."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence[RationalLike]]) -> None:
        data = tuple(tuple(as_fraction(entry) for entry in row) for row in rows)
        if len(data) not in (2, 3) or any(len(row) != len(data) for row in data):
            raise ValueError("matrix must be square 2x2 or 3x3, "
                             f"got row lengths {[len(row) for row in data]}")
        self._rows = data

    @classmethod
    def _trusted(cls, data: tuple[tuple[Fraction, ...], ...]) -> Matrix:
        """Wrap rows that need no validation: the entrywise results of exact
        arithmetic on valid matrices, which keep one size and Fraction entries."""
        matrix = object.__new__(cls)
        matrix._rows = data
        return matrix

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    @property
    def size(self) -> int:
        """The number of rows, which is also the number of columns."""
        return len(self._rows)

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self._rows)
        return f"Matrix[{body}]"

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._rows == other._rows

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: Matrix) -> Matrix:
        return self._entrywise(operator.add, other)

    def __sub__(self, other: Matrix) -> Matrix:
        return self._entrywise(operator.sub, other)

    def _entrywise(self, op, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return Matrix._trusted(tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self._rows, other._rows)))

    def __mul__(self, other: object) -> Matrix:
        if isinstance(other, Matrix):
            if self.size != other.size:
                raise ValueError(f"size mismatch: {self.size} vs {other.size}")
            cols = tuple(zip(*other._rows))
            return Matrix._trusted(tuple(
                tuple(_dot(row, col) for col in cols) for row in self._rows
            ))
        if isinstance(other, (int, Fraction)):
            return Matrix._trusted(tuple(tuple(e * other for e in row) for row in self._rows))
        return NotImplemented

    # Scalars commute with Fraction entries; a Matrix on the left never reaches here.
    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Matrix:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers are not supported; invert explicitly")
        return power(self, exponent, Matrix.identity(self.size))

    def trace(self) -> Fraction:
        return sum(row[i] for i, row in enumerate(self._rows))

    def det(self) -> Fraction:
        r = self._rows
        if len(r) == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))

    def inverse(self) -> Matrix:
        """Exact inverse of a 3x3 matrix: the adjugate over the determinant."""
        if self.size != 3:
            raise ValueError(f"inverse implemented for 3x3 matrices only, got {self.size}x{self.size}")
        det = self.det()
        if det == 0:
            raise SingularMatrixError("matrix is singular")
        (a, b, c), (d, e, f), (g, h, i) = self._rows
        adjugate = (
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
        inv_det = 1 / det
        return Matrix._trusted(tuple(tuple(e * inv_det for e in row) for row in adjugate))


def _dot(row: Sequence[Fraction], col: Sequence[Fraction]) -> Fraction:
    total = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        total = total + a * b
    return total


def companion(r: RationalLike, s: RationalLike) -> Matrix:
    """The 2x2 companion matrix [[r, s], [1, 0]] of the recurrence."""
    return Matrix([[as_fraction(r), as_fraction(s)], [Fraction(1), Fraction(0)]])


def companion_power_form(r: RationalLike, s: RationalLike, n: int) -> Matrix:
    """The n-th companion power assembled from sequence values:
    [[h(n+1), s*h(n)], [h(n), s*h(n-1)]] for n >= 1."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    s = as_fraction(s)
    return companion_power_from_window(s, h_window(r, s, n))


def companion_power_from_window(s: Fraction, h: tuple) -> Matrix:
    """[[h(n+1), s*h(n)], [h(n), s*h(n-1)]] for h the window of :func:`h_window` at n."""
    return Matrix([[h[4], s * h[3]], [h[3], s * h[2]]])


def companion_decomposition_check(r: RationalLike, s: RationalLike, n: int) -> bool:
    """Whether Q^n = h(n)*Q + s*h(n-1)*I holds exactly for the companion Q."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    s = as_fraction(s)
    q = companion(r, s)
    return q ** n == companion_decomposition_from_window(q, s, h_window(r, s, n))


def companion_decomposition_from_window(q: Matrix, s: Fraction, h: tuple) -> Matrix:
    """h(n)*Q + s*h(n-1)*I for h the window of :func:`h_window` at n."""
    return h[3] * q + (s * h[2]) * Matrix.identity(2)
