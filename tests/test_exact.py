"""Rational square roots and arithmetic in Q(sqrt(D))."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horadam import DomainError, QuadElem, rational_sqrt


class TestRationalSqrt:
    @pytest.mark.parametrize(
        "value, expected",
        [(Fraction(9), Fraction(3)), (Fraction(4, 9), Fraction(2, 3)),
         (Fraction(0), Fraction(0)), (Fraction(5), None), (Fraction(-4), None),
         (Fraction(8), None)],
    )
    def test_values(self, value, expected):
        assert rational_sqrt(value) == expected


def alpha_beta(r, s):
    """The roots of x^2 - r x - s built directly, bypassing sequences.roots."""
    disc = Fraction(r) ** 2 + 4 * Fraction(s)
    half = Fraction(1, 2)
    return (QuadElem(Fraction(r) * half, half, disc),
            QuadElem(Fraction(r) * half, -half, disc))


class TestQuadElem:
    def test_root_product_is_minus_s(self):
        alpha, beta = alpha_beta(1, 1)
        assert alpha * beta == -1

    def test_root_sum_is_r(self):
        alpha, beta = alpha_beta(2, 1)
        assert alpha + beta == 2

    def test_multiplicative_identity(self):
        x = QuadElem(Fraction(3, 7), Fraction(-2, 5), 13)
        assert QuadElem.one(13) * x == x

    def test_alpha_squared(self):
        alpha, _ = alpha_beta(1, 1)
        # repeated-multiplication oracle
        assert alpha * alpha == QuadElem(Fraction(3, 2), Fraction(1, 2), 5)
        assert alpha ** 2 == alpha * alpha

    def test_pow_zero_is_one(self):
        x = QuadElem(2, 3, 7)
        assert x ** 0 == 1

    def test_pow_matches_repeated_multiplication(self):
        alpha, _ = alpha_beta(2, 1)
        assert alpha ** 3 == (alpha * alpha) * alpha
        assert alpha ** 3 == QuadElem(7, Fraction(5, 2), 8)

    def test_inverse_of_alpha_is_minus_beta(self):
        # alpha * beta = -1 when s = 1, so 1/alpha = -beta
        alpha, beta = alpha_beta(1, 1)
        assert alpha.inverse() == -beta
        assert alpha * alpha.inverse() == 1

    def test_inverse_of_one(self):
        assert QuadElem.one(5).inverse() == 1

    def test_inverse_of_rational_embed(self):
        assert QuadElem(2, 0, 5).inverse() == Fraction(1, 2)

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QuadElem(0, 0, 5).inverse()

    def test_perfect_square_disc_folds(self):
        x = QuadElem(0, 1, 9)
        assert x.irr == 0 and x == 3
        # r=1, s=2 gives disc 9; the roots collapse to 2 and -1
        alpha, beta = alpha_beta(1, 2)
        assert alpha == 2 and beta == -1

    def test_fractional_perfect_square_folds(self):
        x = QuadElem(1, 2, Fraction(4, 9))
        assert x == Fraction(7, 3)

    def test_nonpositive_disc_rejected(self):
        with pytest.raises(DomainError):
            QuadElem(1, 1, -4)
        with pytest.raises(DomainError):
            QuadElem(1, 1, 0)

    def test_mismatched_disc_rejected(self):
        with pytest.raises(ValueError):
            QuadElem(1, 1, 5) * QuadElem(1, 1, 8)
        with pytest.raises(ValueError):
            QuadElem(1, 1, 5) + QuadElem(1, 1, 8)

    def test_rational_embeds_compare_across_disc(self):
        assert QuadElem(2, 0, 5) == QuadElem(2, 0, 8)
        assert QuadElem(1, 1, 5) != QuadElem(1, 1, 8)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            QuadElem(0.5, 1, 5)

    def test_mixed_arithmetic_with_rationals(self):
        x = QuadElem(1, 1, 5)
        assert 2 * x == QuadElem(2, 2, 5)
        assert x + Fraction(1, 2) == QuadElem(Fraction(3, 2), 1, 5)
        assert 1 - x == QuadElem(0, -1, 5)
        assert (x / 2) * 2 == x

    def test_negative_power_via_inverse(self):
        alpha, _ = alpha_beta(1, 1)
        assert alpha ** -3 == alpha.inverse() ** 3
        assert alpha ** -3 * alpha ** 3 == 1

    def test_to_fraction(self):
        assert QuadElem(Fraction(1, 2), 0, 5).to_fraction() == Fraction(1, 2)
        with pytest.raises(ValueError, match=r"^1 \+ sqrt\(5\) is not rational$"):
            QuadElem(1, 1, 5).to_fraction()

    def test_str_forms(self):
        assert str(QuadElem(Fraction(1, 2), Fraction(1, 2), 5)) == "1/2 + 1/2*sqrt(5)"
        assert str(QuadElem(Fraction(1, 2), Fraction(-1, 2), 5)) == "1/2 - 1/2*sqrt(5)"
        assert str(QuadElem(0, 1, 5)) == "0 + sqrt(5)"
        assert str(QuadElem(Fraction(-7, 3), 0, 5)) == "-7/3"


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonsquare_discs = st.sampled_from([2, 3, 5, 7, 8, 13, 20, 21])


@st.composite
def quad_elems(draw, disc=None):
    d = disc if disc is not None else draw(nonsquare_discs)
    return QuadElem(draw(small_fractions), draw(small_fractions), d)


class TestQuadElemProperties:
    @given(st.data(), nonsquare_discs)
    @settings(max_examples=80)
    def test_ring_laws(self, data, disc):
        x = data.draw(quad_elems(disc=disc))
        y = data.draw(quad_elems(disc=disc))
        z = data.draw(quad_elems(disc=disc))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(st.data(), nonsquare_discs)
    @settings(max_examples=80)
    def test_inverse_cancels(self, data, disc):
        x = data.draw(quad_elems(disc=disc).filter(bool))
        assert x * x.inverse() == 1

    @given(st.data(), nonsquare_discs)
    @settings(max_examples=80)
    def test_conjugation_is_multiplicative(self, data, disc):
        x = data.draw(quad_elems(disc=disc))
        y = data.draw(quad_elems(disc=disc))
        def conj(q):
            return QuadElem(q.rat, -q.irr, q.disc)

        assert conj(x * y) == conj(x) * conj(y)

    @given(r=small_fractions, s=small_fractions)
    @settings(max_examples=80)
    def test_root_identities_hold(self, r, s):
        if r * r + 4 * s <= 0:
            return
        alpha, beta = alpha_beta(r, s)
        assert alpha + beta == r
        assert alpha * beta == -s
