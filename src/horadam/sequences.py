"""Horadam and generalized Fibonacci sequences.

A Horadam sequence is defined by H(0) = a, H(1) = b and
H(n+2) = r*H(n+1) + s*H(n).  The unit-seeded slice h(n) with a = 0, b = 1
is the generalized Fibonacci sequence; it is the one with a Binet closed
form and a fast-doubling evaluator.  Indices extend below zero through the
backward recurrence H(n) = (H(n+2) - r*H(n+1)) / s, which requires s != 0.

Every run of consecutive values (``horadam_range``, ``h_windows``) comes
from one walk of the forward recurrence.  For any seeds it reaches a
positive first index by fast doubling, through H(n) = b*h(n) + a*s*h(n-1),
rather than by stepping up from H(0).  ``horadam_eval`` iterates from the
seeds and stays the independent reference for that walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import DomainError
from .exact import QuadElem, RationalLike, as_fraction


@dataclass(frozen=True)
class RecurrenceParams:
    """Defining data (a, b, r, s) of a Horadam sequence."""

    a: Fraction
    b: Fraction
    r: Fraction
    s: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "r", "s"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))

    @property
    def discriminant(self) -> Fraction:
        return self.r * self.r + 4 * self.s


class SeqValue(NamedTuple):
    index: int
    value: Fraction


def horadam_eval(params: RecurrenceParams, n: int) -> Fraction:
    """H(n) by iterating the recurrence, backward for n < 0."""
    if n >= 0:
        lo, hi = params.a, params.b
        for _ in range(n):
            lo, hi = hi, params.r * hi + params.s * lo
        return lo
    if params.s == 0:
        raise DomainError("backward extension requires s != 0")
    hi, lo = params.b, params.a
    for _ in range(-n):
        hi, lo = lo, (hi - params.r * lo) / params.s
    return lo


def horadam_range(params: RecurrenceParams, lo: int, hi: int) -> list[SeqValue]:
    """H(n) for every n in [lo, hi], in one walk of the recurrence from lo."""
    if lo > hi:
        raise ValueError(f"empty index range [{lo}, {hi}]")
    if lo < 0 and params.s == 0:
        raise DomainError("backward extension requires s != 0")
    return [SeqValue(n, value) for n, value in zip(range(lo, hi + 1), _values(params, lo))]


def gen_fib(r: RationalLike, s: RationalLike, n: int) -> Fraction:
    """h(n), the unit-seeded sequence; h(-1) = 1/s."""
    return horadam_eval(RecurrenceParams(Fraction(0), Fraction(1), r, s), n)


def roots(r: RationalLike, s: RationalLike) -> tuple[QuadElem, QuadElem]:
    """The roots (alpha, beta) of x^2 - r*x - s = 0, exactly in Q(sqrt(D)).

    alpha = (r + sqrt(D))/2 and beta = (r - sqrt(D))/2 with D = r^2 + 4s,
    so alpha + beta = r and alpha*beta = -s.  Requires D > 0.
    """
    r = as_fraction(r)
    s = as_fraction(s)
    disc = r * r + 4 * s
    if disc <= 0:
        raise DomainError(f"discriminant r^2 + 4s = {disc} must be positive")
    half = Fraction(1, 2)
    alpha = QuadElem(r * half, half, disc)
    beta = QuadElem(r * half, -half, disc)
    return alpha, beta


def binet_eval(r: RationalLike, s: RationalLike, n: int) -> Fraction:
    """h(n) through the closed form (alpha^n - beta^n) / (alpha - beta).

    Evaluated exactly in Q(sqrt(D)); the quotient is always rational.
    Negative n requires s != 0 since it inverts the roots.
    """
    r = as_fraction(r)
    s = as_fraction(s)
    if n < 0 and s == 0:
        raise DomainError("negative index requires s != 0")
    alpha, beta = roots(r, s)
    return binet_from_powers(alpha ** n, beta ** n, alpha - beta)


def binet_from_powers(alpha_n: QuadElem, beta_n: QuadElem, gap: QuadElem) -> Fraction:
    """(alpha^n - beta^n) / (alpha - beta) from the two powers and the gap."""
    return ((alpha_n - beta_n) / gap).to_fraction()


def linear_approx_check(r: RationalLike, s: RationalLike, n: int) -> bool:
    """Whether alpha^n = alpha*h(n) + s*h(n-1) and the beta twin hold exactly."""
    h = h_window(r, s, n)
    return all(linear_approx_holds(root, root ** n, s, h) for root in roots(r, s))


def linear_approx_holds(root: QuadElem, root_n: QuadElem, s: RationalLike, h: tuple) -> bool:
    """Whether root^n = root*h(n) + s*h(n-1), for h the window of :func:`h_window` at n."""
    return root_n == root * h[3] + s * h[2]


def fast_gen_fib(r: RationalLike, s: RationalLike, n: int) -> tuple[Fraction, Fraction]:
    """(h(n), h(n+1)) in O(log n) ring operations by index doubling.

    Descends the bits of n, mapping (h(k), h(k+1)) to the pair at 2k or
    2k+1 via h(2k) = h(k)*(2*h(k+1) - r*h(k)) and
    h(2k+1) = h(k+1)^2 + s*h(k)^2.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    r = as_fraction(r)
    s = as_fraction(s)
    a, b = Fraction(0), Fraction(1)
    for bit in bin(n)[2:] if n else "":
        c = a * (2 * b - r * a)
        d = b * b + s * a * a
        if bit == "1":
            a, b = d, r * d + s * c
        else:
            a, b = c, d
    return a, b


def h_windows(r: RationalLike, s: RationalLike, lo: int) -> Iterator[tuple]:
    """Yield the windows (h(n-3), ..., h(n+2)) for n = lo, lo+1, ... without end.

    Each window is one recurrence step past the last.  Entries below index 0
    come from the backward recurrence, which needs s != 0; with s = 0 they
    are None.
    """
    values = _values(RecurrenceParams(0, 1, r, s), lo - 3)
    window = (None, *islice(values, 5))  # the first step shifts the None out
    for value in values:
        window = window[1:] + (value,)
        yield window


def h_window(r: RationalLike, s: RationalLike, n: int) -> tuple:
    """(h(n-3), ..., h(n+2)) in O(log n) steps: fast doubling, then the recurrence.
    DomainError unless n >= 1: every per-index function takes its window here, so this checks their n."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return next(h_windows(r, s, n))


def _values(params: RecurrenceParams, start: int) -> Iterator[Fraction | None]:
    """H(start), H(start+1), ... without end, by the forward recurrence.

    For start > 0 the walk begins with fast doubling, through
    H(n) = b*h(n) + a*s*h(n-1) = b*h(n) + a*(h(n+1) - r*h(n)).  Otherwise it
    first steps back from H(0), H(1) to start by H(k) = (H(k+2) - r*H(k+1))/s;
    with s = 0 the entries below 0 are None.
    """
    a, b, r, s = params.a, params.b, params.r, params.s
    prev, cur = a, b
    if start > 0:
        h, h_next = fast_gen_fib(r, s, start)
        prev, cur = b * h + a * (h_next - r * h), b * h_next + a * s * h
    elif s == 0:
        yield from [None] * -start
    else:
        for _ in range(-start):
            prev, cur = (cur - r * prev) / s, prev
    while True:
        yield prev
        prev, cur = cur, r * cur + s * prev
