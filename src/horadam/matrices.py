"""Small dense matrices with exact entries.

Entries are Fractions or QuadElems (one discriminant per matrix).  The
package only ever needs 2x2 and 3x3 square matrices plus column vectors,
so determinants and inverses are implemented by cofactor expansion and the
adjugate, which are branch-free and exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, SingularMatrixError
from .exact import QuadElem, RationalLike, as_fraction
from .sequences import h_window

Scalar = Fraction | QuadElem


def _as_scalar(value: object) -> Scalar:
    if isinstance(value, QuadElem):
        return value
    return as_fraction(value)  # type: ignore[arg-type]


def _one_like(value: Scalar) -> Scalar:
    if isinstance(value, QuadElem):
        return QuadElem.one(value.disc)
    return Fraction(1)


class Matrix:
    """An immutable matrix of exact scalars."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence[object]]) -> None:
        data = tuple(tuple(_as_scalar(entry) for entry in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("rows must all have the same length")
        discs = {entry.disc for row in data for entry in row
                 if isinstance(entry, QuadElem)}
        if len(discs) > 1:
            raise ValueError(f"entries mix discriminants: {sorted(discs)}")
        self._rows = data

    @classmethod
    def _trusted(cls, data: tuple[tuple[Scalar, ...], ...]) -> Matrix:
        """Wrap rows that need no validation: the entrywise results of exact
        arithmetic on valid matrices, which keep one shape and one discriminant."""
        matrix = object.__new__(cls)
        matrix._rows = data
        return matrix

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    @classmethod
    def identity(cls, n: int, like: Scalar | None = None) -> Matrix:
        one = _one_like(like) if like is not None else Fraction(1)
        zero = one - one
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries: Sequence[object]) -> Matrix:
        return cls([[entry] for entry in entries])

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self._rows)
        return f"Matrix[{body}]"

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for ra, rb in zip(self._rows, other._rows) for a, b in zip(ra, rb)
        )

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Matrix._trusted(tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)
        ))

    def __sub__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Matrix._trusted(tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)
        ))

    def __neg__(self) -> Matrix:
        return Matrix._trusted(tuple(tuple(-e for e in row) for row in self._rows))

    def __mul__(self, other: object) -> Matrix:
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"incompatible shapes for product: {self.shape} x {other.shape}"
                )
            cols = tuple(zip(*other._rows))
            return Matrix._trusted(tuple(
                tuple(_dot(row, col) for col in cols) for row in self._rows
            ))
        if isinstance(other, (int, Fraction, QuadElem)):
            return Matrix._trusted(tuple(tuple(e * other for e in row) for row in self._rows))
        return NotImplemented

    def __rmul__(self, other: object) -> Matrix:
        if isinstance(other, (int, Fraction, QuadElem)):
            return Matrix._trusted(tuple(tuple(other * e for e in row) for row in self._rows))
        return NotImplemented

    def __pow__(self, exponent: int) -> Matrix:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers are not supported; invert explicitly")
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be raised to a power")
        result = Matrix.identity(self.nrows, like=self._rows[0][0])
        base = self
        n = exponent
        while n > 0:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def trace(self) -> Scalar:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        diag = [self._rows[i][i] for i in range(self.nrows)]
        total = diag[0]
        for entry in diag[1:]:
            total = total + entry
        return total

    def det(self) -> Scalar:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        r = self._rows
        if self.nrows == 1:
            return r[0][0]
        if self.nrows == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        if self.nrows == 3:
            return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                    - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                    + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
        raise ValueError("determinant implemented for sizes 1..3 only")

    def inverse(self) -> Matrix:
        """Exact inverse via adjugate over determinant."""
        d = self.det()
        if d == 0:
            raise SingularMatrixError("matrix is singular")
        inv_det = 1 / d
        n = self.nrows
        if n == 1:
            return Matrix([[inv_det]])
        r = self._rows
        if n == 2:
            return Matrix([
                [r[1][1] * inv_det, -r[0][1] * inv_det],
                [-r[1][0] * inv_det, r[0][0] * inv_det],
            ])
        cof = [
            [
                _cofactor_sign(i, j) * _minor2(r, i, j)
                for j in range(3)
            ]
            for i in range(3)
        ]
        # adjugate = transpose of the cofactor matrix
        return Matrix(
            [[cof[j][i] * inv_det for j in range(3)] for i in range(3)]
        )


def _dot(row: Sequence[Scalar], col: Sequence[Scalar]) -> Scalar:
    total = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        total = total + a * b
    return total


def _cofactor_sign(i: int, j: int) -> int:
    return -1 if (i + j) & 1 else 1


def _minor2(rows: Sequence[Sequence[Scalar]], i: int, j: int) -> Scalar:
    sub = [[rows[p][q] for q in range(3) if q != j] for p in range(3) if p != i]
    return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]


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
