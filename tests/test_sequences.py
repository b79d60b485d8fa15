"""Sequence evaluation: recurrence, Binet, fast doubling, negative indices."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horadam import (
    DomainError,
    RecurrenceParams,
    binet_eval,
    companion_power_form,
    fast_gen_fib,
    gen_fib,
    horadam_eval,
    horadam_range,
    linear_approx_check,
    roots,
)
from horadam import sequences
from horadam.sequences import h_window

# parameter pairs used throughout; all have D > 0 and s != 0,
# covering negative s and a perfect-square discriminant (1, 2)
GRID = [(1, 1), (2, 1), (1, 2), (6, -1), (3, 2), (5, 3), (-3, 5), (4, -3)]


def unroll(r, s, count, a=0, b=1):
    """Direct recurrence unrolling, the independent oracle."""
    values = [Fraction(a), Fraction(b)]
    r, s = Fraction(r), Fraction(s)
    while len(values) < count:
        values.append(r * values[-1] + s * values[-2])
    return values[:count]


class TestHoradamEval:
    def test_fibonacci_six(self):
        assert horadam_eval(RecurrenceParams(0, 1, 1, 1), 6) == unroll(1, 1, 7)[6] == 8

    def test_base_case(self):
        assert horadam_eval(RecurrenceParams(0, 1, 7, -2), 0) == 0
        assert horadam_eval(RecurrenceParams(0, 1, 7, -2), 1) == 1

    def test_h_minus_one_is_inverse_s(self):
        assert horadam_eval(RecurrenceParams(0, 1, 1, 1), -1) == 1
        assert horadam_eval(RecurrenceParams(0, 1, 4, 3), -1) == Fraction(1, 3)

    def test_general_seeds(self):
        params = RecurrenceParams(2, 1, 1, 1)  # Lucas numbers
        assert [horadam_eval(params, n) for n in range(7)] == unroll(1, 1, 7, a=2, b=1)

    def test_backward_requires_nonzero_s(self):
        with pytest.raises(DomainError):
            horadam_eval(RecurrenceParams(0, 1, 3, 0), -1)

    @pytest.mark.parametrize("r,s", GRID)
    def test_backward_extension_satisfies_recurrence(self, r, s):
        params = RecurrenceParams(0, 1, r, s)
        values = {n: horadam_eval(params, n) for n in range(-10, 3)}
        for n in range(-10, 1):
            assert values[n + 2] == Fraction(r) * values[n + 1] + Fraction(s) * values[n]


class TestGenFib:
    def test_pell(self):
        assert gen_fib(2, 1, 5) == unroll(2, 1, 6)[5] == 29

    def test_jacobsthal(self):
        assert gen_fib(1, 2, 4) == unroll(1, 2, 5)[4] == 5

    def test_balancing(self):
        assert gen_fib(6, -1, 3) == unroll(6, -1, 4)[3] == 35

    def test_negative_index(self):
        assert gen_fib(1, 1, -1) == 1
        assert gen_fib(1, 1, -2) == -1


class TestRoots:
    def test_golden_pair(self):
        alpha, beta = roots(1, 1)
        assert alpha.rat == Fraction(1, 2) and alpha.irr == Fraction(1, 2)
        assert beta.rat == Fraction(1, 2) and beta.irr == Fraction(-1, 2)
        assert alpha.disc == 5

    def test_perfect_square_disc(self):
        alpha, beta = roots(1, 2)
        assert alpha == 2 and beta == -1

    def test_nonpositive_disc_rejected(self):
        with pytest.raises(DomainError):
            roots(0, -1)
        with pytest.raises(DomainError):
            roots(2, -1)  # D = 0

    @pytest.mark.parametrize("r,s", GRID)
    def test_root_equations(self, r, s):
        alpha, beta = roots(r, s)
        assert alpha + beta == Fraction(r)
        assert alpha * beta == -Fraction(s)
        assert alpha * alpha == Fraction(r) * alpha + Fraction(s)


class TestBinet:
    def test_fibonacci_ten(self):
        assert binet_eval(1, 1, 10) == 55

    def test_n_one_is_one(self):
        for r, s in GRID:
            assert binet_eval(r, s, 1) == 1

    def test_balancing_four(self):
        assert binet_eval(6, -1, 4) == 204

    @pytest.mark.parametrize("r,s", GRID)
    def test_matches_recurrence(self, r, s):
        expected = unroll(r, s, 41)
        for n in range(41):
            assert binet_eval(r, s, n) == expected[n]
        for n in range(-10, 0):
            assert binet_eval(r, s, n) == gen_fib(r, s, n)

    def test_negative_index_requires_nonzero_s(self):
        with pytest.raises(DomainError):
            binet_eval(3, 0, -1)

    def test_disc_must_be_positive(self):
        with pytest.raises(DomainError):
            binet_eval(1, -1, 4)


class TestLinearApproximation:
    def test_fibonacci_five(self):
        assert linear_approx_check(1, 1, 5)

    def test_base_case(self):
        for r, s in GRID:
            assert linear_approx_check(r, s, 1)

    def test_pell_seven(self):
        assert linear_approx_check(2, 1, 7)

    @pytest.mark.parametrize("r,s", GRID)
    def test_full_range(self, r, s):
        assert all(linear_approx_check(r, s, n) for n in range(1, 101))

    def test_requires_positive_n(self):
        with pytest.raises(DomainError, match=r"^n must be >= 1, got 0$"):
            linear_approx_check(1, 1, 0)


class TestFastGenFib:
    def test_frozen_pair_at_ninety(self):
        assert fast_gen_fib(1, 1, 90) == (
            2880067194370816120,
            4660046610375530309,
        )

    def test_base_pair(self):
        assert fast_gen_fib(9, -2, 0) == (0, 1)

    def test_jacobsthal_twenty(self):
        expected = unroll(1, 2, 22)
        assert fast_gen_fib(1, 2, 20) == (expected[20], expected[21])

    @pytest.mark.parametrize("r,s", GRID)
    def test_agrees_with_recurrence_up_to_1000(self, r, s):
        expected = unroll(r, s, 1002)
        for n in range(0, 1001, 7):
            assert fast_gen_fib(r, s, n) == (expected[n], expected[n + 1])
        assert fast_gen_fib(r, s, 1000)[0] == expected[1000]

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            fast_gen_fib(1, 1, -1)

    @given(st.integers(0, 400))
    @settings(max_examples=40)
    def test_fibonacci_prefix(self, n):
        table = unroll(1, 1, 402)
        assert fast_gen_fib(1, 1, n) == (table[n], table[n + 1])


class TestCassiniProperty:
    @pytest.mark.parametrize("r,s", GRID)
    def test_cassini_formula(self, r, s):
        h = unroll(r, s, 202)
        for n in range(1, 201):
            assert h[n] ** 2 - h[n - 1] * h[n + 1] == (-Fraction(s)) ** (n - 1)


class TestIntegrality:
    @given(r=st.integers(-9, 9), s=st.integers(-9, 9), n=st.integers(0, 60))
    @settings(max_examples=100)
    def test_integer_params_give_integer_values(self, r, s, n):
        value = gen_fib(r, s, n)
        assert value.denominator == 1


#: Coefficients for the walk's oracle: integral values, s = +-1 among them, and rational values.
WALK_INTS = st.integers(-4, 4)
WALK_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def walk_params(draw):
    """(a, b, r, s) all integral (s = +-1 among them) or all drawn as Fractions, each given as
    an int or a Fraction."""
    values = draw(st.one_of(st.tuples(*[WALK_INTS] * 4), st.tuples(*[WALK_FRACTIONS] * 4)))
    return [draw(st.sampled_from([v, Fraction(v)])) for v in values]


class TestHoradamRange:
    def test_matches_pointwise_eval(self):
        params = RecurrenceParams(3, -2, 1, 4)
        window = horadam_range(params, -6, 9)
        assert [v.index for v in window] == list(range(-6, 10))
        for item in window:
            assert item.value == horadam_eval(params, item.index)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            horadam_range(RecurrenceParams(0, 1, 1, 1), 5, 4)

    def test_negative_window_requires_nonzero_s(self):
        with pytest.raises(DomainError):
            horadam_range(RecurrenceParams(0, 1, 3, 0), -2, 2)

    @given(params=walk_params(), lo=st.integers(-30, 300), width=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_walk_matches_iteration_from_the_seeds(self, params, lo, width):
        assume(lo >= 0 or params[3] != 0)
        seq = RecurrenceParams(*params)
        window = horadam_range(seq, lo, lo + width - 1)
        assert window == [(n, horadam_eval(seq, n)) for n in range(lo, lo + width)]
        assert all(type(item.value) is Fraction for item in window)

    def test_far_window_starts_from_one_doubling(self, monkeypatch):
        calls = []
        original = sequences.fast_gen_fib

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sequences, "fast_gen_fib", counted)
        params = RecurrenceParams(2, 1, 1, 1)  # Lucas numbers: general seeds
        window = horadam_range(params, 10_000, 10_002)
        assert len(calls) == 1
        assert window[2].value == window[1].value + window[0].value
        assert window[0].value == gen_fib(1, 1, 10_001) + gen_fib(1, 1, 9_999)


class TestIntegerWalkOracle:
    """The narrowed walk (ints for integral pairs) against the Fraction iteration of horadam_eval.
    horadam_range is checked the same way in TestHoradamRange."""

    @given(params=walk_params(), lo=st.one_of(st.integers(-30, 40), st.integers(250, 330)),
           width=st.integers(1, 12))
    @settings(max_examples=120, deadline=None)
    def test_h_windows_match_eval(self, params, lo, width):
        _, _, r, s = params
        assume(s != 0)
        unit = RecurrenceParams(0, 1, r, s)
        windows = list(islice(sequences.h_windows(r, s, lo), width))
        for n, window in zip(range(lo, lo + width), windows):
            assert window == tuple(horadam_eval(unit, k) for k in range(n - 3, n + 3))

    @pytest.mark.parametrize("a,b,r,s", [(0, 1, 1, 1), (2, -7, 3, -1), (-4, 5, -6, 1), (1, 1, 0, -1), (0, 0, -2, -1)])
    def test_unit_s_walks_back_on_ints(self, a, b, r, s):
        # With s = +-1 the backward step multiplies by 1/s = s, so integral seeds stay ints below 0.
        params = RecurrenceParams(a, b, r, s)
        values = list(islice(sequences._values(params, -40), 40))
        assert all(type(v) is int for v in values)
        assert values == [horadam_eval(params, n) for n in range(-40, 0)]

    @pytest.mark.parametrize("s", [1, -1, 3, -2])
    def test_integral_pairs_walk_on_ints(self, s):
        # From index 0 on, an integral pair walks on ints, also after the backward
        # step has given Fractions below 0 (s = 3, -2): the windows at n = -4..5 end at h(2)..h(7).
        *_, last = islice(sequences.h_windows(2, s, -4), 10)
        assert all(type(v) is int for v in last)
        assert all(type(v) is int for v in next(sequences.h_windows(2, s, 3)))
        assert all(type(v) is int for v in next(sequences.h_windows(Fraction(2), Fraction(s), 300)))


#: Public functions that return sequence values, each called with the given (r, s).
PUBLIC_VALUES = {
    "horadam_range": lambda r, s: [v.value for v in horadam_range(RecurrenceParams(1, 2, r, s), -3, 5)],
    "fast_gen_fib": lambda r, s: fast_gen_fib(r, s, 9),
    "fast_gen_fib at 0": lambda r, s: fast_gen_fib(r, s, 0),
    "gen_fib": lambda r, s: [gen_fib(r, s, n) for n in (-2, 0, 1, 7)],
    "horadam_eval": lambda r, s: [horadam_eval(RecurrenceParams(1, 2, r, s), n) for n in (-2, 0, 1, 7)],
    "binet_eval": lambda r, s: [binet_eval(r, s, n) for n in (-2, 0, 1, 7)],
    "h_window": lambda r, s: h_window(r, s, 1) + h_window(r, s, 40),
    "Matrix.rows": lambda r, s: [e for row in companion_power_form(r, s, 6).rows for e in row],
    "QuadElem.rat and irr": lambda r, s: [x for root in roots(r, s) for x in (root.rat, root.irr)],
}


class TestPublicTypes:
    """Public results are Fractions, never int or float, whatever exact type r and s arrive as."""

    @pytest.mark.parametrize("name", PUBLIC_VALUES)
    @pytest.mark.parametrize("r,s", [(3, 2), (Fraction(3), Fraction(2)), (3, -1), (Fraction(7, 2), Fraction(-2, 3))],
                             ids=["ints", "integral-fractions", "s=-1", "rationals"])
    def test_values_are_fractions(self, name, r, s):
        values = PUBLIC_VALUES[name](r, s)
        assert values and all(type(value) is Fraction for value in values), [type(v) for v in values]

    def test_h_windows_yield_exact_values_from_a_negative_start(self):
        # s = 0 leaves the entries below index 0 as None.
        for r, s in [(3, 2), (Fraction(7, 2), Fraction(-2, 3)), (1, -1), (3, 0)]:
            for window in islice(sequences.h_windows(r, s, -6), 20):
                assert all(value is None or type(value) in (int, Fraction) for value in window)
