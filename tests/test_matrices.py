"""Exact matrix arithmetic and the companion-matrix facts."""

import operator
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horadam import (
    DomainError,
    Matrix,
    QuadElem,
    SingularMatrixError,
    companion,
    companion_decomposition_check,
    companion_power_form,
    gen_fib,
    matrix_mismatches,
)
from horadam.matrices import det_equals

PRESETS = [(1, 1), (2, 1), (1, 2), (6, -1)]


def mat_pow_oracle(m, n):
    """Repeated multiplication, independent of Matrix.__pow__."""
    result = Matrix.identity(m.size)
    for _ in range(n):
        result = result * m
    return result


class TestArithmetic:
    def test_identity_multiplication(self):
        m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert Matrix.identity(3) * m == m
        assert m * Matrix.identity(3) == m

    def test_companion_square(self):
        q = companion(1, 1)
        assert q * q == Matrix([[2, 1], [1, 1]])

    def test_projector_squares_to_itself(self):
        e = Matrix([[1, 1, 1], [-1, -1, -1], [1, 1, 1]])
        assert e * e == e

    def test_shape_mismatch_rejected(self):
        two, three = Matrix.identity(2), Matrix.identity(3)
        for combine in (operator.add, operator.sub, operator.mul, matrix_mismatches):
            with pytest.raises(ValueError, match="size mismatch"):
                combine(two, three)

    def test_only_square_two_or_three_constructed(self):
        # Ragged, 1x1, 1x3, 3x1, 2x3, 4x4 and empty rows are not matrices the package uses.
        for rows in ([[1, 2], [3]], [[1]], [[1, 2, 3]], [[1], [2], [3]], [[1, 2, 3], [4, 5, 6]],
                     [[1] * 4] * 4, [], [[]]):
            with pytest.raises(ValueError, match="square 2x2 or 3x3"):
                Matrix(rows)
        assert Matrix([[1, 2], [3, 4]]).size == 2 and Matrix.identity(3).size == 3

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_non_rational_entries_rejected(self):
        # Entries are exact rationals only; P over Q(sqrt(D)) is not a Matrix.
        for entry in (QuadElem(1, 1, 5), 0.5):
            with pytest.raises(TypeError):
                Matrix([[entry]])

    def test_repr(self):
        assert repr(Matrix([[1, Fraction(1, 2)], [0, 3]])) == "Matrix[1 1/2; 0 3]"

    def test_scalar_multiplication(self):
        m = Matrix([[1, 2], [3, 4]])
        assert Fraction(1, 2) * m == Matrix([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
        assert m * 2 == Matrix([[2, 4], [6, 8]])

    def test_associativity_on_random_triples(self):
        rng = random.Random(97)
        for _ in range(25):
            mats = [
                Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(3)] for _ in range(3)])
                for _ in range(3)
            ]
            x, y, z = mats
            assert (x * y) * z == x * (y * z)


class TestPower:
    def test_power_zero_is_identity(self):
        m = Matrix([[3, 1], [2, 5]])
        assert m ** 0 == Matrix.identity(2)

    def test_companion_fifth_power(self):
        q = companion(1, 1)
        assert q ** 5 == Matrix([[8, 5], [5, 3]])
        assert q ** 5 == mat_pow_oracle(q, 5)

    @pytest.mark.parametrize("r,s", PRESETS)
    def test_matches_repeated_multiplication(self, r, s):
        q = companion(r, s)
        for n in range(7):
            assert q ** n == mat_pow_oracle(q, n)

    def test_singular_base_allowed(self):
        singular = Matrix([[1, 1], [1, 1]])
        assert singular ** 3 == Matrix([[4, 4], [4, 4]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2, 3]]) ** 2

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            companion(1, 1) ** -1


class TestDeterminant:
    @pytest.mark.parametrize("r,s", PRESETS)
    def test_companion_determinant(self, r, s):
        assert companion(r, s).det() == -Fraction(s)

    def test_identity_determinant(self):
        assert Matrix.identity(3).det() == 1

    def test_singular_three_by_three(self):
        assert Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]).det() == 0

    def test_one_by_one_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[2]]).det()

    @pytest.mark.parametrize("r,s", PRESETS)
    def test_power_determinant_is_power_of_minus_s(self, r, s):
        q = companion(r, s)
        power = q
        for n in range(1, 31):
            assert power.det() == (-Fraction(s)) ** n
            power = power * q


class TestInverse:
    def test_identity(self):
        assert Matrix.identity(3).inverse() == Matrix.identity(3)

    def test_random_rational_matrices(self):
        rng = random.Random(11)
        produced = 0
        while produced < 15:
            m = Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(3)] for _ in range(3)])
            if m.det() == 0:
                continue
            produced += 1
            assert m.inverse() * m == Matrix.identity(3)
            assert m * m.inverse() == Matrix.identity(3)

    def test_only_three_by_three(self):
        with pytest.raises(ValueError, match="3x3"):
            Matrix([[1, 2], [3, 4]]).inverse()

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]).inverse()


class TestCompanion:
    def test_entries(self):
        assert companion(1, 1) == Matrix([[1, 1], [1, 0]])
        assert companion(2, 1) == Matrix([[2, 1], [1, 0]])
        assert companion(6, -1) == Matrix([[6, -1], [1, 0]])

    @pytest.mark.parametrize("r,s", PRESETS)
    def test_trace_and_cayley_hamilton(self, r, s):
        q = companion(r, s)
        assert q.trace() == Fraction(r)
        zero = Matrix([[0, 0], [0, 0]])
        assert q * q - Fraction(r) * q - Fraction(s) * Matrix.identity(2) == zero


class TestCompanionPowerForm:
    def test_fibonacci_cube(self):
        assert companion_power_form(1, 1, 3) == Matrix([[3, 2], [2, 1]])

    def test_first_power_is_companion(self):
        assert companion_power_form(1, 1, 1) == companion(1, 1)

    def test_pell_fourth_power(self):
        assert companion_power_form(2, 1, 4) == Matrix([[29, 12], [12, 5]])

    @pytest.mark.parametrize("r,s", PRESETS)
    def test_matches_matrix_power(self, r, s):
        q = companion(r, s)
        power = q
        for n in range(1, 65):
            assert companion_power_form(r, s, n) == power
            power = power * q

    def test_entries_are_sequence_values(self):
        m = companion_power_form(6, -1, 9)
        assert m[1, 0] == gen_fib(6, -1, 9)
        assert m[0, 0] == gen_fib(6, -1, 10)

    def test_requires_positive_n(self):
        with pytest.raises(DomainError, match=r"^n must be >= 1, got 0$"):
            companion_power_form(1, 1, 0)


class TestCompanionDecomposition:
    def test_fibonacci_six(self):
        assert companion_decomposition_check(1, 1, 6)

    def test_requires_positive_n(self):
        with pytest.raises(DomainError, match="n must be >= 1, got 0"):
            companion_decomposition_check(1, 1, 0)

    def test_base_case(self):
        for r, s in PRESETS:
            assert companion_decomposition_check(r, s, 1)

    def test_balancing_nine(self):
        assert companion_decomposition_check(6, -1, 9)

    @pytest.mark.parametrize("r,s", PRESETS)
    def test_sweep(self, r, s):
        assert all(companion_decomposition_check(r, s, n) for n in range(1, 33))


# A plain list-of-Fraction oracle that shares no code with Matrix: products by
# the definition, determinants by the Leibniz sum over permutations, inverses
# by Gauss-Jordan elimination.

def oracle_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b))]
            for i in range(len(a))]


def oracle_pow(a, k):
    result = [[Fraction(int(i == j)) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        result = oracle_mul(result, a)
    return result


def oracle_det(a):
    total = Fraction(0)
    for perm in permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def oracle_inverse(a):
    n = len(a)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [x / lead for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


def as_rows(entries):
    return tuple(tuple(row) for row in entries)


rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


def square(size):
    return st.lists(st.lists(rationals, min_size=size, max_size=size), min_size=size, max_size=size)


@st.composite
def operands(draw):
    size = draw(st.sampled_from([2, 3]))
    return draw(square(size)), draw(square(size))


#: An int or a Fraction: the integral pairs of the power checks run on ints, the rest on Fractions.
scalars = st.one_of(st.integers(-20, 20), rationals)


class TestAgainstFractionOracle:
    """The integer-over-one-denominator kernel against list-of-Fraction arithmetic."""

    @settings(max_examples=150, deadline=None)
    @given(pair=operands(), scalar=st.one_of(st.integers(-20, 20), rationals), k=st.integers(0, 6))
    def test_operations_match(self, pair, scalar, k):
        a, b = pair
        n = len(a)
        ma, mb = Matrix(a), Matrix(b)
        expected = [
            (ma + mb, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
            (ma - mb, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
            (ma * mb, oracle_mul(a, b)),
            (ma * scalar, [[x * scalar for x in row] for row in a]),
            (scalar * ma, [[scalar * x for x in row] for row in a]),
            (ma ** k, oracle_pow(a, k)),
        ]
        for result, oracle in expected:
            assert result.rows == as_rows(oracle)
            # Equality compares the stored form, so it must be canonical.
            assert result == Matrix(oracle)
        assert ma.rows == as_rows(a)
        assert all(ma[i, j] == a[i][j] for i in range(n) for j in range(n))
        assert ma.det() == oracle_det(a)
        assert ma.trace() == sum(a[i][i] for i in range(n))
        if n == 3 and oracle_det(a) != 0:
            inverse = ma.inverse()
            assert inverse.rows == as_rows(oracle_inverse(a))
            assert inverse == Matrix(oracle_inverse(a))

    @settings(max_examples=150, deadline=None)
    @given(pair=operands(), x=scalars, y=scalars, divisor=scalars.filter(bool))
    def test_internal_builders_match(self, pair, x, y, divisor):
        # The builders behind the assembled sides of the power checks, on int and Fraction
        # scalars and rows, divisors of either sign, and both sizes.
        a, b = pair
        ma, mb = Matrix(a), Matrix(b)
        integral = [[u.numerator for u in row] for row in a]
        expected = [
            (Matrix._combination(x, ma, y, mb),
             [[x * u + y * v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]),
            (Matrix._quotient(a, divisor), [[u / divisor for u in row] for row in a]),
            (Matrix._quotient(integral, divisor),
             [[Fraction(u) / divisor for u in row] for row in integral]),
        ]
        for result, oracle in expected:
            assert result.rows == as_rows(oracle)
            assert result == Matrix(oracle)
        assert det_equals(ma, oracle_det(a))
        assert not det_equals(ma, oracle_det(a) + divisor)

    def test_quotient_by_a_negative_divisor_keeps_the_denominator_positive(self):
        rows = [[2, 4], [6, 8]]
        for divisor in (-4, Fraction(-8, 3)):
            quotient = Matrix._quotient(rows, divisor)
            assert quotient._den > 0
            assert quotient.rows == as_rows([[Fraction(e) / divisor for e in row] for row in rows])

    def test_equal_values_compare_equal(self):
        assert Matrix([[Fraction(2, 4), 1], [0, 1]]) == Matrix([[Fraction(1, 2), 1], [0, 1]])
        halves = Matrix([[Fraction(1, 2), Fraction(3, 2), 0], [0, Fraction(1, 3), 0], [0, 0, Fraction(5, 6)]])
        clearing = Matrix([[6, 0, 0], [0, 6, 0], [0, 0, 6]])
        assert halves * clearing == Matrix([[3, 9, 0], [0, 2, 0], [0, 0, 5]])
        assert Fraction(1, 2) * Matrix([[2, 4], [6, 8]]) == Matrix([[1, 2], [3, 4]])
        assert Matrix([[1, 2], [3, 4]]) * Fraction(0) == Matrix([[0, 0], [0, 0]])
