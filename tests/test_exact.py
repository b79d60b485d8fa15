"""Rational square roots, arithmetic in Q(sqrt(D)), decimal text, and the
exactness contract of every public function that takes r and s."""

import decimal
import random
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horadam
from horadam import DomainError, Matrix, QuadElem, rational_sqrt
from horadam.exact import _LEAF_BITS, _STR_BITS, decimal_text, unlimited_int_digits


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
        assert QuadElem(1, 0, 13) * x == x

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
        assert QuadElem(1, 0, 5).inverse() == 1

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
        assert repr(QuadElem(1, 2, 5)) == "QuadElem(1, 2, disc=5)"

    def test_equal_values_hash_equally(self):
        assert len({hash(x) for x in (QuadElem(3, 0, 5), QuadElem(3, 0, 7), 3, Fraction(3))}) == 1
        alpha, _ = alpha_beta(1, 1)
        assert alpha * alpha == alpha + 1 and hash(alpha * alpha) == hash(alpha + 1)


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


# A Fraction-pair oracle that shares no code with QuadElem: rat + irr*sqrt(disc)
# held as two Fractions, with the products written out by definition.  It is
# the arithmetic QuadElem had before it held integers over one denominator.

def oracle_sqrt(value):
    num, den = isqrt(value.numerator), isqrt(value.denominator)
    return Fraction(num, den) if num * num == value.numerator and den * den == value.denominator else None


class PairQuad:
    def __init__(self, rat, irr, disc):
        rat, irr, disc = Fraction(rat), Fraction(irr), Fraction(disc)
        root = oracle_sqrt(disc)
        if irr and root is not None:
            rat, irr = rat + irr * root, Fraction(0)
        self.rat, self.irr, self.disc = rat, irr, disc

    def embed(self, other):
        return other if isinstance(other, PairQuad) else PairQuad(other, 0, self.disc)

    def __add__(self, other):
        other = self.embed(other)
        return PairQuad(self.rat + other.rat, self.irr + other.irr, self.disc)

    def __sub__(self, other):
        other = self.embed(other)
        return PairQuad(self.rat - other.rat, self.irr - other.irr, self.disc)

    def __mul__(self, other):
        other = self.embed(other)
        return PairQuad(self.rat * other.rat + self.irr * other.irr * self.disc,
                        self.rat * other.irr + self.irr * other.rat, self.disc)

    def norm(self):
        return self.rat * self.rat - self.irr * self.irr * self.disc

    def inverse(self):
        n = self.norm()
        return PairQuad(self.rat / n, -self.irr / n, self.disc)

    def __truediv__(self, other):
        return self * self.embed(other).inverse()

    def __pow__(self, k):
        base = self if k >= 0 else self.inverse()
        result = PairQuad(1, 0, self.disc)
        for _ in range(abs(k)):
            result = result * base
        return result

    def text(self):
        if not self.irr:
            return str(self.rat)
        coef = "" if abs(self.irr) == 1 else f"{abs(self.irr)}*"
        return f"{self.rat} {'+' if self.irr > 0 else '-'} {coef}sqrt({self.disc})"

    def hash(self):
        return hash(self.rat) if not self.irr else hash((self.rat, self.irr, self.disc))


#: Integer and non-integral discriminants, and perfect squares (9, 4/9, 1), which fold.
oracle_discs = st.sampled_from([2, 5, 8, 13, 17, Fraction(17, 4), Fraction(5, 3), Fraction(2, 9),
                                Fraction(1, 2), 9, Fraction(4, 9), 1])
coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=12)
scalars = st.one_of(st.integers(-6, 6), coefficients)


def same(quad, pair):
    """quad has pair's value, in canonical form, with the same text and hash."""
    assert (quad.rat, quad.irr, quad.disc) == (pair.rat, pair.irr, pair.disc)
    assert quad == QuadElem(pair.rat, pair.irr, pair.disc)
    assert str(quad) == pair.text()
    assert repr(quad) == f"QuadElem({pair.rat}, {pair.irr}, disc={pair.disc})"
    assert hash(quad) == pair.hash()
    assert type(quad.rat) is Fraction and type(quad.irr) is Fraction and type(quad.disc) is Fraction


class TestAgainstFractionPairOracle:
    """The integer (P + Q*sqrt(m))/d form against Fraction-pair arithmetic."""

    @settings(max_examples=200, deadline=None)
    @given(disc=oracle_discs, x=st.tuples(coefficients, coefficients), y=st.tuples(coefficients, coefficients),
           scalar=scalars, k=st.integers(-5, 6))
    def test_operations_match(self, disc, x, y, scalar, k):
        qx, qy = QuadElem(*x, disc), QuadElem(*y, disc)
        px, py = PairQuad(*x, disc), PairQuad(*y, disc)
        same(qx, px)
        same(qx + qy, px + py)
        same(qx - qy, px - py)
        same(qx * qy, px * py)
        same(-qx, px * -1)
        same(qx + scalar, px + scalar)
        same(scalar + qx, px + scalar)
        same(qx - scalar, px - scalar)
        same(scalar - qx, PairQuad(scalar, 0, disc) - px)
        same(qx * scalar, px * scalar)
        same(scalar * qx, px * scalar)
        assert qx.norm() == px.norm() and type(qx.norm()) is Fraction
        assert (qx == qy) == ((px.rat, px.irr) == (py.rat, py.irr))
        assert (qx == scalar) == (not px.irr and px.rat == scalar)
        assert bool(qx) == bool(px.rat or px.irr)
        if px.rat or px.irr:
            same(qx.inverse(), px.inverse())
            same(qy / qx, py / px)
            same(qx ** k, px ** k)
        elif k >= 0:
            same(qx ** k, px ** k)
        if scalar:
            same(qx / scalar, px / scalar)
        if not px.irr:
            assert qx.to_fraction() == px.rat

    @settings(max_examples=60, deadline=None)
    @given(x=st.tuples(coefficients, coefficients), y=st.tuples(coefficients, coefficients))
    def test_rational_values_compare_across_discriminants(self, x, y):
        qx, qy = QuadElem(x[0], 0, 5), QuadElem(y[0], 0, Fraction(17, 4))
        assert (qx == qy) == (x[0] == y[0])
        assert QuadElem(*x, 5) != QuadElem(x[0], x[1] or 1, Fraction(5, 4))


#: Every public function taking r and s, as (name, arguments before r and s, arguments after).
@pytest.fixture
def no_digit_limit():
    """str() of the huge ints below needs CPython's int->str digit limit lifted."""
    with unlimited_int_digits():
        yield


#: Bit sizes around the leaf size, the str() threshold and a few split depths.
EDGE_BITS = sorted({k + d for k in (_LEAF_BITS, _STR_BITS, 2 * _STR_BITS, 100_000) for d in (-1, 0, 1)})


@pytest.mark.usefixtures("no_digit_limit")
class TestDecimalText:
    """decimal_text(x) is str(x), whichever route writes it."""

    @pytest.mark.parametrize("value", [0, 1, -1, Fraction(0), Fraction(-1), Fraction(-3, 2)])
    def test_small_values(self, value):
        assert decimal_text(value) == str(value)

    @pytest.mark.parametrize("bits", EDGE_BITS)
    def test_around_powers_of_two(self, bits):
        for value in (2 ** bits - 1, 2 ** bits, 2 ** bits + 1):
            assert decimal_text(value) == str(value)
            assert decimal_text(-value) == str(-value)

    @pytest.mark.parametrize("k", [1, 9_000, 9_864, 9_865, 20_000, 30_103])
    def test_powers_of_ten(self, k):
        # Zeros in every leaf: no exponent form, no "-0" from a zero piece.
        text = decimal_text(10 ** k)
        assert text == "1" + "0" * k
        assert decimal_text(-10 ** k) == "-" + text
        assert decimal_text(-(10 ** k - 1)) == "-" + "9" * k

    @settings(max_examples=25, deadline=None)
    @given(bits=st.integers(0, 300_000), seed=st.integers(0, 2 ** 32), negative=st.booleans())
    def test_signed_ints(self, bits, seed, negative):
        value = random.Random(seed).getrandbits(bits)
        value = -value if negative else value
        assert decimal_text(value) == str(value)

    @settings(max_examples=10, deadline=None)
    @given(bits=st.integers(_STR_BITS + 1, 80_000), seed=st.integers(0, 2 ** 32), negative=st.booleans())
    def test_fractions_with_huge_terms(self, bits, seed, negative):
        # The shape of a rational pair's h(n) at a large index: both terms above the threshold.
        # The denominator k*numerator + 1 is coprime to the numerator, so Fraction cannot
        # reduce either term below it (a random pair with a common factor could).
        rng = random.Random(seed)
        numerator = rng.getrandbits(bits) | 1 << bits
        value = Fraction(-numerator if negative else numerator, (rng.getrandbits(64) | 1) * numerator + 1)
        assert value.numerator.bit_length() > _STR_BITS and value.denominator.bit_length() > _STR_BITS
        assert decimal_text(value) == str(value)

    def test_caller_context_untouched(self):
        value = 3 ** 40_000  # 63,399 bits
        with decimal.localcontext() as caller:
            caller.prec = 5
            caller.traps[decimal.Inexact] = True
            before = (caller.prec, caller.Emax, caller.Emin, dict(caller.traps), dict(caller.flags))
            text = decimal_text(value)
            assert decimal.getcontext() is caller
            assert (caller.prec, caller.Emax, caller.Emin, dict(caller.traps), dict(caller.flags)) == before
        assert text == str(value)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int->str digit limit here")
def test_decimal_text_keeps_the_digit_limit():
    """Under CPython's int->str digit limit, a huge int raises as str() does."""
    value = 7 ** 20_000  # 56,148 bits, 16,902 digits
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str(value)
        with pytest.raises(ValueError, match="Exceeds the limit"):
            decimal_text(value)
        assert decimal_text(7 ** 5000) == str(7 ** 5000)
    finally:
        sys.set_int_max_str_digits(saved)


RS_FUNCTIONS = [
    *[(f"check_{c}", (), (6,)) for c in ("cassini", "cubic", "companion_power", "companion_decomposition",
                                         "binet", "linear_approximation")],
    *[(f"check_{c}", (1,), (6,)) for c in ("power_form", "power_det_zero", "closed_power")],
    ("check_projector_algebra", (1,), ()),
    ("power_form", (1,), (5,)),
    ("preset_matrix", (2,), ()),
    ("derive", (), (horadam.VARIANT_PATTERNS[3],)),
    ("companion", (), ()),
    ("companion_power_form", (), (5,)),
    ("companion_decomposition_check", (), (5,)),
    ("linear_approx_check", (), (5,)),
    ("binet_eval", (), (-5,)),
    ("gen_fib", (), (-5,)),
    ("fast_gen_fib", (), (5,)),
    ("roots", (), ()),
]


@pytest.mark.parametrize("name,before,after", RS_FUNCTIONS, ids=[name for name, _, _ in RS_FUNCTIONS])
class TestExactnessContract:
    """r and s are ints or Fractions; anything else is the package's own TypeError."""

    def call(self, name, before, after, r, s):
        return getattr(horadam, name)(*before, r, s, *after)

    def test_ints_act_as_fractions(self, name, before, after):
        # (3, 2): D = 17 > 0, s != 0 and r outside every variant's {0, pole}.
        from_ints = self.call(name, before, after, 3, 2)
        from_fractions = self.call(name, before, after, Fraction(3), Fraction(2))
        assert from_ints == from_fractions
        assert repr(from_ints) == repr(from_fractions)

    @pytest.mark.parametrize("r,s,kind", [(3.0, 2, "float"), (3, 2.0, "float"), ("3", 2, "str"), (3, "2", "str")],
                             ids=["float-r", "float-s", "str-r", "str-s"])
    def test_non_rationals_rejected(self, name, before, after, r, s, kind):
        with pytest.raises(TypeError) as info:
            self.call(name, before, after, r, s)
        assert str(info.value) == f"expected an exact rational, got {kind}"


_Q = QuadElem(1, 1, 5)


class TestOperandContract:
    """Arithmetic operators take the same operands as the functions: an exact rational, or
    an element of the operator's own type; anything else is the package's own TypeError."""

    @pytest.mark.parametrize("operation,kind", [
        (lambda: _Q + 0.5, "float"),
        (lambda: 0.5 - _Q, "float"),
        (lambda: _Q * "2", "str"),
        (lambda: _Q / 0.5, "float"),
        (lambda: Matrix.identity(3) * 0.5, "float"),
        (lambda: Matrix.identity(3) * _Q, "QuadElem"),
        (lambda: _Q * Matrix.identity(3), "Matrix"),
    ], ids=["quad-add-float", "float-sub-quad", "quad-mul-str", "quad-div-float",
            "matrix-mul-float", "matrix-mul-quad", "quad-mul-matrix"])
    def test_non_rationals_rejected(self, operation, kind):
        with pytest.raises(TypeError) as info:
            operation()
        assert str(info.value) == f"expected an exact rational, got {kind}"

    def test_equality_with_a_float_is_false(self):
        assert (_Q == 0.5) is False
        assert (QuadElem(Fraction(1, 2), 0, 5) == 0.5) is False
