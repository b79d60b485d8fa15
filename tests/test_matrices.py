"""Exact matrix arithmetic and the companion-matrix facts."""

import random
from fractions import Fraction

import pytest

from horadam import (
    DomainError,
    Matrix,
    QuadElem,
    SingularMatrixError,
    companion,
    companion_decomposition_check,
    companion_power_form,
    gen_fib,
)

PRESETS = [(1, 1), (2, 1), (1, 2), (6, -1)]


def mat_pow_oracle(m, n):
    """Repeated multiplication, independent of Matrix.__pow__."""
    result = Matrix.identity(m.nrows)
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
        with pytest.raises(ValueError):
            Matrix([[1, 2]]) * Matrix([[1, 2]])
        with pytest.raises(ValueError):
            Matrix([[1, 2]]) + Matrix([[1], [2]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_non_rational_entries_rejected(self):
        # Entries are exact rationals only; P over Q(sqrt(D)) is not a Matrix.
        for entry in (QuadElem(1, 1, 5), 0.5):
            with pytest.raises(TypeError):
                Matrix([[entry]])

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

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            companion(1, 1) ** -1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2, 3]]) ** 2


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
        for m in (Matrix([[2]]), Matrix([[1, 2], [3, 4]]), Matrix([[1, 2, 3]])):
            with pytest.raises(ValueError, match="3x3"):
                m.inverse()

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
        with pytest.raises(DomainError):
            companion_power_form(1, 1, 0)


class TestCompanionDecomposition:
    def test_fibonacci_six(self):
        assert companion_decomposition_check(1, 1, 6)

    def test_base_case(self):
        for r, s in PRESETS:
            assert companion_decomposition_check(r, s, 1)

    def test_balancing_nine(self):
        assert companion_decomposition_check(6, -1, 9)

    @pytest.mark.parametrize("r,s", PRESETS)
    def test_sweep(self, r, s):
        assert all(companion_decomposition_check(r, s, n) for n in range(1, 33))
