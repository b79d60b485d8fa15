"""The eigenpair-template derivation and its closed-form powers."""

from fractions import Fraction

import pytest

from horadam import (
    DegenerateEigenbasisError,
    DomainError,
    HoradamError,
    KernelPattern,
    Matrix,
    VARIANT_PATTERNS,
    classic_for,
    classic_systems,
    closed_power,
    derive,
    gen_fib,
    matrix_mismatches,
    power_form,
    preset_matrix,
    reference_power,
    roots,
)
from horadam import sequences
from horadam.derivation import reference_power_from_window
from horadam.sequences import h_window

P1 = KernelPattern.from_string("+-+")
P2 = KernelPattern.from_string("++-")
P3 = KernelPattern.from_string("-++")
# The three variant patterns first, so their parametrize ids stay pattern0..pattern2.
ALL_PATTERNS = [P1, P2, P3] + [
    KernelPattern.from_string(text) for text in ("+++", "+--", "-+-", "--+", "---")
]

GRID = [(1, 1), (2, 1), (1, 2), (6, -1), (3, 2), (5, 3)]
#: r values each variant pattern's preset domain rejects with a plain DomainError.
PRESET_EXCLUDED = {"+-+": (0,), "-++": (0,), "++-": (0, 2)}
FRACTIONAL_GRID = [
    (Fraction(1, 2), Fraction(1)),
    (Fraction(-3), Fraction(2)),
    (Fraction(7, 3), Fraction(-1)),
]


def matvec(m, v):
    """m*v for 3x3 rows m and a vector v over Q(sqrt(D)), summed entry by
    entry so that the oracle shares no code with Matrix.__mul__."""
    return [sum(m[i][k] * v[k] for k in range(3)) for i in range(3)]


def eigenpairs(system):
    """alpha, beta and the eigenvectors x, y, z rebuilt from r, s and the signs."""
    alpha, beta = roots(system.r, system.s)
    return alpha, beta, (alpha, beta, -1), (beta, alpha, -1), system.pattern.signs


def eigen_residuals_zero(system, a=None):
    """Re-check A x = alpha x, A y = beta y, A z = 0 from scratch; ``a``
    replaces the rows of the derived matrix."""
    alpha, beta, x, y, z = eigenpairs(system)
    a = system.matrix.rows if a is None else a
    return (
        matvec(a, x) == [alpha * c for c in x]
        and matvec(a, y) == [beta * c for c in y]
        and matvec(a, z) == [0, 0, 0]
    )


def projector_residuals_zero(system, e=None):
    """Re-check E x = E y = 0 and E z = z from scratch; ``e`` replaces the
    rows of the derived projector.  P = [x y z] is invertible, so this is
    E = P diag(0,0,1) P^(-1) without an inverse over Q(sqrt(D))."""
    _, _, x, y, z = eigenpairs(system)
    e = system.projector.rows if e is None else e
    return matvec(e, x) == [0, 0, 0] and matvec(e, y) == [0, 0, 0] and matvec(e, z) == list(z)


def bumped(rows, i, j):
    """rows with entry (i, j) increased by 1."""
    return [[v + 1 if (p, q) == (i, j) else v for q, v in enumerate(row)] for p, row in enumerate(rows)]


class TestKernelPattern:
    def test_parse_and_round_trip(self):
        pattern = KernelPattern.from_string("+-+")
        assert pattern.signs == (1, -1, 1)
        assert str(pattern) == "+-+"
        assert str(KernelPattern.from_string("-++")) == "-++"

    @pytest.mark.parametrize("text", ["", "+-", "+-+-", "ab+", "+0+"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            KernelPattern.from_string(text)

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            KernelPattern((1, 0, 1))


class TestDerive:
    def test_fibonacci_matrix(self):
        system = derive(1, 1, P1)
        assert system.matrix == Matrix([[1, 0, -1], [-1, -1, 0], [0, 1, 1]])

    def test_jacobsthal_matrix(self):
        system = derive(1, 2, P1)
        assert system.matrix == Matrix([[2, 1, -1], [-2, -2, 0], [0, 1, 1]])

    def test_pell_matrix_from_general_formula(self):
        system = derive(2, 1, P1)
        assert system.matrix == Fraction(1, 2) * Matrix(
            [[3, -1, -4], [-1, -1, 0], [-1, 1, 2]]
        )

    @pytest.mark.parametrize("r,s", GRID + FRACTIONAL_GRID)
    def test_matches_preset_formula(self, r, s):
        assert derive(r, s, P1).matrix == preset_matrix(1, r, s)
        assert derive(r, s, P3).matrix == preset_matrix(3, r, s)
        if Fraction(r) != 2:
            assert derive(r, s, P2).matrix == preset_matrix(2, r, s)

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    @pytest.mark.parametrize("r,s", [(1, 1), (3, 2), (5, 3), (6, -1), FRACTIONAL_GRID[2]])
    def test_eigen_residuals(self, r, s, pattern):
        assert eigen_residuals_zero(derive(r, s, pattern))

    @pytest.mark.parametrize("r,s", [(1, 1), (6, -1), FRACTIONAL_GRID[2]])
    def test_residual_oracles_catch_one_changed_entry(self, r, s):
        system = derive(r, s, P1)
        for i in range(3):
            for j in range(3):
                assert not eigen_residuals_zero(system, bumped(system.matrix.rows, i, j))
                assert not projector_residuals_zero(system, bumped(system.projector.rows, i, j))

    @pytest.mark.parametrize("pattern", [P1, P2, P3])
    def test_spectral_facts(self, pattern):
        for r, s in [(1, 1), (3, 2), (5, 3)]:
            a = derive(r, s, pattern).matrix
            assert a.det() == 0
            assert a.trace() == Fraction(r)
            zero = Matrix.identity(3) - Matrix.identity(3)
            assert a * a * a - Fraction(r) * (a * a) - Fraction(s) * a == zero

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            derive(0, 1, P1)
        with pytest.raises(DomainError):
            derive(0, 1, P3)
        with pytest.raises(DomainError):
            derive(0, 1, P2)
        with pytest.raises(DomainError):
            derive(2, 1, P2)

    @pytest.mark.parametrize("pattern,r,message,validity", [
        (P1, 0, "pattern +-+ requires r != 0", "r != 0"),
        (P2, 2, "pattern ++- requires r not in {0, 2}", "r not in {0, 2}"),
        (P2, 0, "pattern ++- requires r not in {0, 2}", "r not in {0, 2}"),
        (P3, 0, "pattern -++ requires r != 0", "r != 0"),
        (KernelPattern.from_string("+++"), 0, None, "det(P) != 0 for the supplied pattern"),
    ])
    def test_domain_and_validity_text(self, pattern, r, message, validity):
        # Each variant's domain error and validity text follow from its pole.
        assert derive(3, 2, pattern).validity == validity
        if message is not None:
            with pytest.raises(DomainError) as exc:
                derive(r, 1, pattern)
            assert str(exc.value) == message

    def test_disc_hypothesis_enforced(self):
        with pytest.raises(DomainError):
            derive(1, -1, P1)  # D = -3

    def test_kernel_scale_has_no_effect(self):
        base = derive(3, 2, P1)
        for t in (2, -3, Fraction(5, 7)):
            scaled = derive(3, 2, P1, t=t)
            assert scaled.matrix == base.matrix
            assert scaled.projector == base.projector

    def test_zero_kernel_scale_rejected(self):
        with pytest.raises(DomainError):
            derive(3, 2, P1, t=0)

    def test_eigen_equation_guard(self, monkeypatch):
        # A wrong solve of A = R * B^(-1) must be caught, not returned.
        monkeypatch.setattr(Matrix, "inverse", lambda self: Matrix.identity(3))
        with pytest.raises(HoradamError) as info:
            derive(1, 1, P1)
        assert type(info.value) is HoradamError
        assert str(info.value) == "derived matrix fails its eigen-equations at r=1, s=1"

    @pytest.mark.parametrize("text", [str(p) for p in ALL_PATTERNS])
    def test_degenerate_eigenbasis(self, text):
        # det B = -2t(r*s3 + s1 + s2): the eigenvectors are dependent exactly when
        # r*s3 + s1 + s2 = 0, checked wherever the preset domain does not reject r first
        pattern = KernelPattern.from_string(text)
        s1, s2, s3 = pattern.signs
        for r in [Fraction(n, 2) for n in range(-6, 7)]:
            if r in PRESET_EXCLUDED.get(text, ()):
                with pytest.raises(DomainError) as info:
                    derive(r, 3, pattern)
                assert type(info.value) is DomainError
            elif r * s3 + s1 + s2 == 0:
                with pytest.raises(DegenerateEigenbasisError):
                    derive(r, 3, pattern)
            else:
                assert eigen_residuals_zero(derive(r, 3, pattern))

    def test_other_patterns_still_derive(self):
        system = derive(3, 1, KernelPattern.from_string("+++"))
        assert eigen_residuals_zero(system)
        assert system.matrix.det() == 0
        e = system.projector
        assert e * e == e


class TestProjector:
    def test_fibonacci_projector(self):
        assert derive(1, 1, P1).projector == Matrix(
            [[1, 1, 1], [-1, -1, -1], [1, 1, 1]]
        )

    def test_variant_one_closed_form(self):
        # E = (1/r) [[1, 1, r], [-1, -1, -r], [1, 1, r]]
        for r, s in GRID:
            e = derive(r, s, P1).projector
            r = Fraction(r)
            expected = (1 / r) * Matrix([[1, 1, r], [-1, -1, -r], [1, 1, r]])
            assert e == expected

    def test_pell_projector(self):
        assert derive(2, 1, P1).projector == Fraction(1, 2) * Matrix(
            [[1, 1, 2], [-1, -1, -2], [1, 1, 2]]
        )

    def test_matches_independent_reconstruction(self):
        for r, s in [(1, 1), (3, 2), (6, -1)]:
            assert projector_residuals_zero(derive(r, s, P1))

    @pytest.mark.parametrize("pattern", [P1, P2, P3])
    def test_projector_algebra(self, pattern):
        for r, s in [(1, 1), (3, 2), (5, 3)]:
            system = derive(r, s, pattern)
            a, e = system.matrix, system.projector
            zero = Matrix.identity(3) - Matrix.identity(3)
            assert e * e == e
            assert a * e == zero
            assert e * a == zero
            assert (Matrix.identity(3) - e) * a == a


class TestClosedPower:
    def test_first_power_is_the_matrix(self):
        system = derive(5, 3, P1)
        assert closed_power(system, 1) == system.matrix

    def test_fibonacci_fourth_power(self):
        system = derive(1, 1, P1)
        assert closed_power(system, 4) == Matrix(
            [[3, -2, -5], [-1, 1, 2], [-2, 1, 3]]
        )

    @pytest.mark.parametrize("pattern", [P1, P2, P3])
    @pytest.mark.parametrize("r,s", [(1, 1), (3, 2), (6, -1)])
    def test_matches_matrix_power(self, r, s, pattern):
        system = derive(r, s, pattern)
        power = system.matrix
        for n in range(1, 33):
            assert closed_power(system, n) == power
            power = power * system.matrix

    def test_requires_positive_n(self):
        with pytest.raises(DomainError, match=r"^n must be >= 1, got 0$"):
            closed_power(derive(1, 1, P1), 0)


class TestPowerForm:
    def test_jacobsthal_square(self):
        assert power_form(1, 1, 2, 2) == Matrix([[2, -1, -3], [0, 2, 2], [-2, -1, 1]])

    def test_variant_three_base_case(self):
        for r, s in [(1, 1), (4, 1), (-5, 2)]:
            assert power_form(3, r, s, 1) == preset_matrix(3, r, s)

    def test_variant_two_against_power_oracle(self):
        base = preset_matrix(2, 3, 1)
        oracle = base
        for _ in range(4):
            oracle = oracle * base
        assert power_form(2, 3, 1, 5) == oracle

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_sweep_against_matrix_power(self, variant):
        for r, s in GRID + FRACTIONAL_GRID:
            if variant == 2 and r == 2:
                continue
            base = preset_matrix(variant, r, s)
            power = base
            for n in range(1, 17):
                assert power_form(variant, r, s, n) == power
                power = power * base

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            power_form(1, 0, 1, 3)
        with pytest.raises(DomainError):
            power_form(2, 2, 1, 3)
        with pytest.raises(DomainError):
            power_form(1, 1, 0, 3)  # s = 0 reaches h(-1)
        with pytest.raises(DomainError, match=r"^n must be >= 1, got 0$"):
            power_form(1, 1, 1, 0)
        with pytest.raises(ValueError):
            power_form(4, 1, 1, 3)

    @pytest.mark.parametrize("variant,r,s", [(1, 3, 0), (2, 2, 1), (1, 0, 1)], ids=["s=0", "pole", "r=0"])
    def test_domain_checked_before_the_window(self, monkeypatch, variant, r, s):
        # A rejected call must not pay for the fast doubling of its window first.
        def refuse(*args):
            raise AssertionError(f"fast_gen_fib{args} called before the domain check")

        monkeypatch.setattr(sequences, "fast_gen_fib", refuse)
        with pytest.raises(DomainError, match="requires"):
            power_form(variant, r, s, 10 ** 6)
        # With n < 1 as well, the domain is reported first.
        with pytest.raises(DomainError, match="requires"):
            power_form(variant, r, s, 0)


class TestClassicSystems:
    def test_names_and_params(self):
        entries = {c.name: c for c in classic_systems()}
        assert set(entries) == {"fibonacci", "pell", "jacobsthal"}
        assert entries["fibonacci"].system.r == 1
        assert entries["jacobsthal"].system.s == 2

    def test_fibonacci_and_jacobsthal_match_reference(self):
        entries = {c.name: c for c in classic_systems()}
        assert entries["fibonacci"].system.matrix == entries["fibonacci"].reference
        assert entries["jacobsthal"].system.matrix == entries["jacobsthal"].reference

    def test_pell_reference_differs_in_one_entry(self):
        entry = next(c for c in classic_systems() if c.name == "pell")
        mismatches = matrix_mismatches(entry.system.matrix, entry.reference)
        assert mismatches == [(2, 0, "-1/2", "0")]

    def test_classic_lookup(self):
        assert classic_for(Fraction(2), Fraction(1), P1).name == "pell"
        assert classic_for(Fraction(2), Fraction(1), P2) is None
        assert classic_for(Fraction(4), Fraction(1), P1) is None


class TestReferencePower:
    def test_fibonacci_uses_backward_indices_at_one(self):
        # row 2 of the n = 1 form reads (-F(-1), F(-2), F(0)) = (-1, -1, 0)
        assert reference_power("fibonacci", 1) == derive(1, 1, P1).matrix

    @pytest.mark.parametrize("name,r,s", [("fibonacci", 1, 1), ("jacobsthal", 1, 2)])
    def test_matches_matrix_power(self, name, r, s):
        a = derive(r, s, P1).matrix
        power = a
        for n in range(1, 26):
            assert reference_power(name, n) == power
            power = power * a

    def test_pell_form_differs_in_corner(self):
        a = derive(2, 1, P1).matrix
        tabulated = reference_power("pell", 1)
        mismatches = matrix_mismatches(a, tabulated)
        assert mismatches == [(2, 2, "1", "1/2")]
        # the tabulated corner reads P(n)/2 where the derivation gives h(n)
        assert tabulated[2, 2] == Fraction(gen_fib(2, 1, 1), 2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            reference_power("lucas", 3)

    def test_unknown_name_rejected_by_the_window_core(self):
        with pytest.raises(ValueError, match="unknown classic system 'lucas'"):
            reference_power_from_window("lucas", h_window(1, 1, 3))

    def test_requires_positive_n(self):
        with pytest.raises(DomainError, match="n must be >= 1, got 0"):
            reference_power("fibonacci", 0)


class TestVariantPatterns:
    def test_pattern_table(self):
        assert str(VARIANT_PATTERNS[1]) == "+-+"
        assert str(VARIANT_PATTERNS[2]) == "++-"
        assert str(VARIANT_PATTERNS[3]) == "-++"
