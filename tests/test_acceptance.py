"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every equality here is exact (Fraction / QuadElem comparison, zero
tolerance).  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import sys
import time
from fractions import Fraction

from horadam import (
    Matrix,
    VARIANT_PATTERNS,
    check_reference_matrix,
    classic_systems,
    closed_power,
    companion,
    companion_power_form,
    derive,
    fast_gen_fib,
    linear_approx_check,
    matrix_mismatches,
    power_form,
    preset_matrix,
    reference_power,
    roots,
)

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

GRID = [(1, 1), (2, 1), (1, 2), (6, -1), (3, 2), (5, 3)]
# pattern 2 is undefined at r = 2; swap in another in-domain pair
GRID_V2 = [(1, 1), (1, 2), (6, -1), (3, 2), (5, 3), (4, 3)]
PATTERN_1 = VARIANT_PATTERNS[1]


def report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, name


def matvec(m, v):
    """m*v for 3x3 rows m and a vector v over Q(sqrt(D)), summed entry by
    entry so that the oracle shares no code with Matrix.__mul__."""
    return [sum(m[i][k] * v[k] for k in range(3)) for i in range(3)]


def unrolled(r, s, lo, hi):
    """Index -> value table by direct recurrence, the independent oracle."""
    table = {0: Fraction(0), 1: Fraction(1)}
    r, s = Fraction(r), Fraction(s)
    for n in range(1, hi):
        table[n + 1] = r * table[n] + s * table[n - 1]
    for n in range(-1, lo - 1, -1):
        table[n] = (table[n + 2] - r * table[n + 1]) / s
    return table


def test_criterion_1_fibonacci_tabulated_powers():
    begin = time.perf_counter()
    fib = unrolled(1, 1, -3, 52)
    ok = fib[-1] == 1 and fib[-2] == -1
    base = Matrix([[1, 0, -1], [-1, -1, 0], [0, 1, 1]])
    power = base
    for n in range(1, 51):
        expected = Matrix([
            [fib[n], -fib[n - 1], -fib[n + 1]],
            [-fib[n - 2], fib[n - 3], fib[n - 1]],
            [-fib[n - 1], fib[n - 2], fib[n]],
        ])
        ok = ok and power == expected and power == reference_power("fibonacci", n)
        power = power * base
    elapsed = time.perf_counter() - begin
    ok = ok and elapsed < 1.0
    report("criterion 1: Fibonacci tabulated power form, n=1..50, exact",
           ok, f"{elapsed:.3f}s")


def test_criterion_2_jacobsthal_tabulated_powers():
    begin = time.perf_counter()
    jac = unrolled(1, 2, -3, 52)
    base = Matrix([[2, 1, -1], [-2, -2, 0], [0, 1, 1]])
    power = base
    ok = True
    for n in range(1, 51):
        expected = Matrix([
            [2 * jac[n], -(jac[n + 1] - 2 * jac[n]), -jac[n + 1]],
            [-4 * jac[n - 2], 2 * (jac[n - 1] - 2 * jac[n - 2]), 2 * jac[n - 1]],
            [-2 * jac[n - 1], jac[n] - 2 * jac[n - 1], jac[n]],
        ])
        ok = ok and power == expected and power == reference_power("jacobsthal", n)
        power = power * base
    elapsed = time.perf_counter() - begin
    ok = ok and elapsed < 1.0
    report("criterion 2: Jacobsthal tabulated power form, n=1..50, exact",
           ok, f"{elapsed:.3f}s")


def test_criterion_3_pell_adjudication():
    system = derive(2, 1, PATTERN_1)
    ok = system.matrix == preset_matrix(1, 2, 1)

    alpha, beta = roots(2, 1)
    x, y, z = (alpha, beta, -1), (beta, alpha, -1), (1, -1, 1)
    a = system.matrix.rows
    ok = ok and matvec(a, x) == [alpha * c for c in x]
    ok = ok and matvec(a, y) == [beta * c for c in y]
    ok = ok and matvec(a, z) == [0, 0, 0]

    power = system.matrix
    for n in range(1, 51):
        ok = ok and closed_power(system, n) == power
        power = power * system.matrix

    # informational comparison against the tabulated forms: a mismatch is
    # expected in at least one entry, reported as a discrepancy
    entry = next(c for c in classic_systems() if c.name == "pell")
    matrix_diffs = matrix_mismatches(system.matrix, entry.reference)
    power_diffs = matrix_mismatches(system.matrix, reference_power("pell", 1))
    ok = ok and len(matrix_diffs) >= 1
    ok = ok and check_reference_matrix("pell").status == "discrepancy"
    detail = (f"derivation exact; tabulated-form mismatches: matrix {matrix_diffs}, "
              f"power n=1 {power_diffs}")
    report("criterion 3: Pell derivation exact, tabulated comparison reported as discrepancy",
           ok, detail)


def test_criterion_4_power_forms_all_variants():
    begin = time.perf_counter()
    ok = True
    for variant in (1, 2, 3):
        pairs = GRID_V2 if variant == 2 else GRID
        pattern = VARIANT_PATTERNS[variant]
        for r, s in pairs:
            system = derive(r, s, pattern)
            base = preset_matrix(variant, r, s)
            ok = ok and system.matrix == base
            power = base
            for n in range(1, 65):
                ok = ok and power == closed_power(system, n)
                ok = ok and power == power_form(variant, r, s, n)
                power = power * base
    elapsed = time.perf_counter() - begin
    ok = ok and elapsed < 5.0
    report("criterion 4: variants 1-3 x 6 pairs, mat_pow = closed form = entrywise form, n=1..64",
           ok, f"{elapsed:.3f}s")


def test_criterion_5_cassini_with_matrix_cross_check():
    ok = True
    for r, s in GRID:
        h = unrolled(r, s, 0, 202)
        minus_s = -Fraction(s)
        q = companion(r, s)
        power = q
        for n in range(1, 201):
            ok = ok and h[n] ** 2 - h[n - 1] * h[n + 1] == minus_s ** (n - 1)
            ok = ok and power.det() == minus_s ** n
            ok = ok and power == companion_power_form(r, s, n)
            power = power * q
    report("criterion 5: Cassini n=1..200 on grid, cross-checked by det(Q^n) = (-s)^n", ok)


def test_criterion_6_cubic_identity():
    ok = True
    for r, s in GRID:
        h = unrolled(r, s, 0, 103)
        for n in range(2, 101):
            lhs = h[n] ** 3 + h[n - 1] ** 2 * h[n + 2] + h[n + 1] ** 2 * h[n - 2]
            rhs = h[n] * (h[n - 2] * h[n + 2] + 2 * h[n - 1] * h[n + 1])
            ok = ok and lhs == rhs
    report("criterion 6: cubic identity n=2..100 on grid, exact", ok)


def test_criterion_7_binet_equals_recurrence():
    from horadam import binet_eval

    ok = True
    for r, s in GRID:
        h = unrolled(r, s, -10, 102)
        for n in range(-10, 101):
            ok = ok and binet_eval(r, s, n) == h[n]
    ok = ok and binet_eval(1, 2, 9) == unrolled(1, 2, 0, 11)[9]
    report("criterion 7: Binet = recurrence n=-10..100 on grid, incl. square discriminant", ok)


def test_criterion_8_linear_approximation():
    ok = True
    for r, s in GRID:
        for n in range(1, 101):
            ok = ok and linear_approx_check(r, s, n)
    report("criterion 8: linear approximation in Q(sqrt(D)), n=1..100 on grid", ok)


def test_criterion_9_projector_algebra():
    ok = True
    identity = Matrix.identity(3)
    zero = identity - identity
    for variant in (1, 2, 3):
        pairs = GRID_V2 if variant == 2 else GRID
        for r, s in pairs:
            system = derive(r, s, VARIANT_PATTERNS[variant])
            a, e = system.matrix, system.projector
            ok = ok and e * e == e
            ok = ok and a * e == zero
            ok = ok and e * a == zero
            ok = ok and a.det() == 0
            ok = ok and a.trace() == Fraction(r)
            ok = ok and a * a * a == Fraction(r) * (a * a) + Fraction(s) * a
    report("criterion 9: E^2=E, AE=EA=0, det A=0, trace A=r, A^3=rA^2+sA on grid", ok)


def _int_doubling_oracle(n):
    """Independent big-integer Fibonacci doubling (plain ints, recursive)."""
    def step(k):
        if k == 0:
            return 0, 1
        a, b = step(k >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        if k & 1:
            return d, c + d
        return c, d
    return step(n)[0]


def test_criterion_10_performance():
    begin = time.perf_counter()
    value, _ = fast_gen_fib(1, 1, 1_000_000)
    elapsed = time.perf_counter() - begin
    oracle = _int_doubling_oracle(1_000_000)
    digits = len(str(abs(value.numerator)))
    ok = value == oracle and digits == 208_988 and elapsed < 5.0

    h100k = fast_gen_fib(1, 1, 100_000)[0]
    matrix_value = (companion(1, 1) ** 100_000)[1, 0]
    ok = ok and h100k == matrix_value
    report("criterion 10: h(1e6) in <5s, 208988 digits vs int oracle, matches matrix power at 1e5",
           ok, f"{elapsed:.3f}s, {digits} digits")


def test_criterion_11_kernel_scale_independence():
    ok = True
    for variant in (1, 2, 3):
        pattern = VARIANT_PATTERNS[variant]
        for r, s in [(1, 1), (3, 2), (5, 3)]:
            base = derive(r, s, pattern, t=1)
            for t in (2, -3):
                scaled = derive(r, s, pattern, t=t)
                ok = ok and scaled.matrix == base.matrix
                ok = ok and scaled.projector == base.projector
    report("criterion 11: derive with t in {1, 2, -3} yields identical A and E", ok)
