"""The identity verification engine and its reports."""

import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horadam import (
    BUILTIN_ENTRIES,
    VARIANT_PATTERNS,
    DomainError,
    Matrix,
    FirstFailure,
    IdentityReport,
    RecurrenceParams,
    check_binet,
    check_cassini,
    check_closed_power,
    check_companion_decomposition,
    check_companion_power,
    check_cubic,
    check_linear_approximation,
    check_power_det_zero,
    check_power_form,
    check_projector_algebra,
    check_reference_matrix,
    check_reference_power,
    closed_power,
    companion,
    companion_power_form,
    default_grid,
    derive,
    fast_gen_fib,
    gen_fib,
    power_form,
    preset_matrix,
    reference_power,
    run_suite,
)
from horadam import identities
from horadam.derivation import (
    closed_power_from_window,
    power_form_from_window,
    reference_power_from_window,
)
from horadam.matrices import companion_decomposition_from_window, companion_power_from_window
from horadam.sequences import h_window, h_windows

GRID = [(1, 1), (2, 1), (1, 2), (6, -1), (3, 2), (5, 3)]


class TestCassini:
    def test_fibonacci_two_hundred(self):
        assert check_cassini(1, 1, 200).status == "pass"

    def test_base_value(self):
        # n = 1: 1 - h(0) h(2) = 1 = (-s)^0
        h0, h1, h2 = (gen_fib(5, 7, k) for k in range(3))
        assert h1 * h1 - h0 * h2 == 1

    def test_pell_slice(self):
        # n = 2: 4 - 1*5 = -1 = (-1)^1
        assert gen_fib(2, 1, 2) ** 2 - gen_fib(2, 1, 1) * gen_fib(2, 1, 3) == -1
        assert check_cassini(2, 1, 2).status == "pass"

    @pytest.mark.parametrize("r,s", GRID)
    def test_grid(self, r, s):
        report = check_cassini(r, s, 200)
        assert report.status == "pass"
        assert report.first_failure is None

    def test_range_validation(self):
        with pytest.raises(DomainError):
            check_cassini(1, 1, 0)


class TestCubic:
    def test_hand_value_at_two(self):
        # (1,1), n = 2: 1 + 1*3 + 4*0 = 4 and 1*(0*3 + 2*1*2) = 4
        h = [gen_fib(1, 1, k) for k in range(5)]
        lhs = h[2] ** 3 + h[1] ** 2 * h[4] + h[3] ** 2 * h[0]
        rhs = h[2] * (h[0] * h[4] + 2 * h[1] * h[3])
        assert lhs == rhs == 4

    def test_jacobsthal_hundred(self):
        assert check_cubic(1, 2, 100).status == "pass"

    def test_balancing_hundred(self):
        assert check_cubic(6, -1, 100).status == "pass"

    @pytest.mark.parametrize("r,s", GRID)
    def test_grid(self, r, s):
        assert check_cubic(r, s, 100).status == "pass"

    def test_range_validation(self):
        with pytest.raises(DomainError):
            check_cubic(1, 1, 1)


class TestPowerChecks:
    def test_fibonacci_fifty(self):
        assert check_power_form(1, 1, 1, 50).status == "pass"

    def test_variant_three_single(self):
        assert check_power_form(3, 1, 1, 1).status == "pass"

    def test_variant_two(self):
        assert check_power_form(2, 3, 2, 40).status == "pass"

    def test_det_zero(self):
        assert check_power_det_zero(1, 1, 1, 30).status == "pass"
        assert check_power_det_zero(2, 5, 1, 30).status == "pass"

    def test_closed_power(self):
        for variant in (1, 2, 3):
            assert check_closed_power(variant, 3, 2, 20).status == "pass"

    def test_projector_algebra(self):
        for variant in (1, 2, 3):
            assert check_projector_algebra(variant, 5, 3).status == "pass"

    def test_domain_violation_raises(self):
        with pytest.raises(DomainError):
            check_power_form(1, 0, 1, 10)
        with pytest.raises(DomainError):
            check_power_form(2, 2, 1, 10)


class TestSequenceLevelChecks:
    @pytest.mark.parametrize("r,s", GRID)
    def test_companion_checks(self, r, s):
        assert check_companion_power(r, s, 40).status == "pass"
        assert check_companion_decomposition(r, s, 40).status == "pass"

    @pytest.mark.parametrize("r,s", GRID)
    def test_binet_and_linear(self, r, s):
        report = check_binet(r, s, 60)
        assert report.status == "pass"
        assert (report.lo, report.hi) == (-10, 60)
        assert check_linear_approximation(r, s, 60).status == "pass"

    def test_binet_with_zero_s_clamps_range(self):
        report = check_binet(3, 0, 20)
        assert report.status == "pass"
        assert report.lo == 0


class TestReferenceChecks:
    def test_fibonacci_and_jacobsthal_pass(self):
        assert check_reference_matrix("fibonacci").status == "pass"
        assert check_reference_matrix("jacobsthal").status == "pass"
        assert check_reference_power("fibonacci", 30).status == "pass"
        assert check_reference_power("jacobsthal", 30).status == "pass"

    def test_pell_reports_discrepancy(self):
        matrix_report = check_reference_matrix("pell")
        assert matrix_report.status == "discrepancy"
        assert "(2,0)" in matrix_report.note
        power_report = check_reference_power("pell", 10)
        assert power_report.status == "discrepancy"
        assert "n=1" in power_report.note


class TestReportPlumbing:
    def test_pass_iff_no_failure(self):
        passing = IdentityReport("demo", Fraction(1), Fraction(1), 1, 5, "pass")
        assert passing.first_failure is None
        failure = FirstFailure(3, "8", "9")
        failing = IdentityReport("demo", Fraction(1), Fraction(1), 1, 5, "fail", failure)
        assert failing.status == "fail" and failing.first_failure is not None

    def test_to_dict_schema(self):
        failure = FirstFailure(3, "8", "9")
        report = IdentityReport("demo", Fraction(1, 2), Fraction(-3), 1, 5, "fail", failure)
        record = report.to_dict()
        assert record == {
            "identity": "demo",
            "params": {"r": "1/2", "s": "-3"},
            "range": [1, 5],
            "status": "fail",
            "first_failure": {"index": 3, "lhs": "8", "rhs": "9"},
        }

    def test_note_serialized_when_present(self):
        report = IdentityReport("demo", Fraction(1), Fraction(1), 1, 1, "skipped",
                                None, "out of domain")
        assert report.to_dict()["note"] == "out of domain"


class TestDefaultGrid:
    def test_contents(self):
        grid = default_grid()
        assert len(grid) == 6
        named = [(p.r, p.s) for p in grid[:4]]
        assert named == [(1, 1), (2, 1), (1, 2), (6, -1)]
        for params in grid:
            assert params.discriminant > 0
            assert params.s != 0
            assert params.r not in (0, 2) or (params.r, params.s) == (2, 1)

    def test_reproducible(self):
        assert default_grid() == default_grid()

    def test_named_pairs_are_the_registry_builtins(self):
        assert [(p.r, p.s) for p in default_grid()[:4]] == [(e.r, e.s) for e in BUILTIN_ENTRIES]


class TestRunSuite:
    def test_empty_grid(self):
        assert run_suite([], 16) == []

    def test_default_grid_all_pass_or_expected(self):
        reports = run_suite(default_grid(), 16)
        by_status = {}
        for report in reports:
            by_status.setdefault(report.status, []).append(report)
        assert "fail" not in by_status
        discrepancies = {r.identity for r in by_status["discrepancy"]}
        assert discrepancies == {"reference_matrix_pell", "reference_power_pell"}
        # pattern 2 is undefined at r = 2, so those checks skip for pell params
        skipped = {(r.identity, str(r.r)) for r in by_status["skipped"]}
        assert skipped == {
            ("power_form_2", "2"),
            ("power_det_zero_2", "2"),
            ("closed_power_2", "2"),
            ("projector_algebra_2", "2"),
        }

    def test_domain_errors_become_skips(self):
        reports = run_suite([RecurrenceParams(0, 1, 0, 1)], 8)
        assert all(r.status != "fail" for r in reports)
        skipped = [r for r in reports if r.status == "skipped"]
        assert skipped and all("r" in (r.note or "") for r in skipped)

    def test_negative_discriminant_runs_recurrence_level_checks(self):
        # D = -3: the entrywise forms are polynomial identities in (r, s)
        # and still hold, while every root-based check skips
        reports = run_suite([RecurrenceParams(0, 1, 1, -1)], 8)
        statuses = {r.identity: r.status for r in reports}
        assert statuses["cassini"] == "pass"
        assert statuses["cubic"] == "pass"
        assert statuses["power_form_1"] == "pass"
        assert statuses["power_det_zero_3"] == "pass"
        assert statuses["binet_recurrence"] == "skipped"
        assert statuses["linear_approximation"] == "skipped"
        assert statuses["closed_power_1"] == "skipped"

    def test_skipped_binet_row_has_the_checks_range(self):
        # With s = 0 the Binet check starts at 0, not at -10, and so does its skipped row.
        reports = {r.identity: r for r in run_suite([RecurrenceParams(0, 1, 0, 0)], 3)}
        binet = reports["binet_recurrence"]
        assert (binet.status, binet.lo, binet.hi) == ("skipped", 0, 3)

    def test_deterministic_and_sorted(self):
        grid = default_grid()
        first = run_suite(grid, 12)
        second = run_suite(grid, 12)
        assert first == second
        keys = [(r.identity, r.r, r.s) for r in first]
        assert keys == sorted(keys)


class TestEmptyRanges:
    """A check over no index at all raises instead of passing vacuously."""

    @pytest.mark.parametrize("call", [
        lambda: check_power_form(1, 1, 1, 0),
        lambda: check_power_det_zero(1, 1, 1, 0),
        lambda: check_closed_power(1, 1, 1, 0),
        lambda: check_companion_power(1, 1, 0),
        lambda: check_companion_decomposition(1, 1, 0),
        lambda: check_linear_approximation(1, 1, -2),
        lambda: check_binet(1, 1, -20),
        lambda: check_binet(3, 0, -1),  # s = 0 clamps the range to [0, -1]
        lambda: check_reference_power("fibonacci", 0),
    ], ids=["power_form", "power_det_zero", "closed_power", "companion_power",
            "companion_decomposition", "linear_approximation", "binet", "binet_zero_s", "reference_power"])
    def test_check_raises(self, call):
        with pytest.raises(DomainError, match="n_max must be >="):
            call()

    @pytest.mark.parametrize("grid", [[RecurrenceParams(0, 1, 1, 1)], []])
    def test_run_suite_raises(self, grid):
        with pytest.raises(DomainError, match="n_max must be >= 1, got 0"):
            run_suite(grid, 0)

    def test_smallest_ranges_still_run(self):
        assert check_power_form(1, 1, 1, 1).status == "pass"
        assert check_binet(1, 1, -10).hi == -10
        assert check_reference_power("fibonacci", 1).status == "pass"


def _corrupted(m: Matrix) -> Matrix:
    rows = [list(row) for row in m.rows]
    rows[0][0] += 1
    return Matrix(rows)


def _corrupt_call(monkeypatch, core: str, k: int) -> None:
    """Make the k-th call of an identities core return a matrix off by one in entry (0, 0)."""
    original = getattr(identities, core)
    calls = []

    def wrapper(*args):
        calls.append(args)
        result = original(*args)
        return _corrupted(result) if len(calls) == k else result

    monkeypatch.setattr(identities, core, wrapper)


K = 7


class TestFailurePath:
    """A core that goes wrong at n = K is reported first at K, in the report's text format."""

    def test_power_form(self, monkeypatch):
        _corrupt_call(monkeypatch, "power_form_from_window", K)
        report = check_power_form(1, 3, 2, 12)
        power = preset_matrix(1, 3, 2) ** K
        assembled = _corrupted(power_form(1, 3, 2, K))
        assert report.status == "fail"
        assert report.first_failure == FirstFailure(
            K, str(power), str(assembled))
        assert report.first_failure.lhs.startswith("[") and "; " in report.first_failure.lhs

    def test_closed_power(self, monkeypatch):
        _corrupt_call(monkeypatch, "closed_power_from_window", K)
        report = check_closed_power(2, 3, 2, 12)
        system = derive(3, 2, VARIANT_PATTERNS[2])
        assembled = _corrupted(closed_power(system, K))
        assert report.status == "fail"
        assert report.first_failure == FirstFailure(
            K, str(system.matrix ** K), str(assembled))

    def test_companion_power(self, monkeypatch):
        _corrupt_call(monkeypatch, "companion_power_from_window", K)
        report = check_companion_power(Fraction(7, 2), Fraction(-2, 3), 12)
        power = companion(Fraction(7, 2), Fraction(-2, 3)) ** K
        assembled = _corrupted(companion_power_form(Fraction(7, 2), Fraction(-2, 3), K))
        assert report.status == "fail"
        assert report.first_failure == FirstFailure(
            K, str(power), str(assembled))

    def test_companion_decomposition(self, monkeypatch):
        _corrupt_call(monkeypatch, "companion_decomposition_from_window", K)
        report = check_companion_decomposition(6, -1, 12)
        assert report.status == "fail"
        assert report.first_failure == FirstFailure(K, "Q^n", "h(n)*Q + s*h(n-1)*I")

    def test_reference_power(self, monkeypatch):
        _corrupt_call(monkeypatch, "reference_power_from_window", K)
        report = check_reference_power("fibonacci", 12)
        tabulated = reference_power("fibonacci", K)
        assert report.status == "discrepancy" and report.first_failure is None
        assert report.note == (
            f"first difference at n={K}, entry (0,0): "
            f"derived {tabulated[0, 0]} vs reference {tabulated[0, 0] + 1}"
        )

    def test_linear_approximation(self, monkeypatch):
        window = h_window(6, -1, K)
        holds = identities.linear_approx_holds
        monkeypatch.setattr(identities, "linear_approx_holds",
                            lambda root, root_n, s, h: h != window and holds(root, root_n, s, h))
        report = check_linear_approximation(6, -1, 12)
        assert report.status == "fail"
        assert report.first_failure == FirstFailure(
            K, "alpha^n, beta^n", "alpha*h(n)+s*h(n-1), beta*h(n)+s*h(n-1)")

    @pytest.mark.parametrize("r, s", [(3, -2), (Fraction(7, 2), Fraction(-2, 3))])
    def test_binet(self, monkeypatch, r, s):
        # The walk's h(K) is off by one: the comparison fails on its own, and the
        # failure's text is the quotient (alpha^K - beta^K)/(alpha - beta), as before.
        walk = identities.h_windows

        def corrupted(r, s, lo):
            for n, h in enumerate(walk(r, s, lo), start=lo):
                yield h[:3] + (h[3] + 1,) + h[4:] if n == K else h

        monkeypatch.setattr(identities, "h_windows", corrupted)
        report = check_binet(r, s, 12)
        h_k = gen_fib(r, s, K)
        assert report.status == "fail"
        assert report.first_failure == FirstFailure(K, str(h_k), str(h_k + 1))

    def test_projector_algebra_scalar_sides(self, monkeypatch):
        # det A and trace A are compared as scalars but printed bracketed, like the matrix facts.
        monkeypatch.setattr(Matrix, "trace", lambda self: Fraction(7, 2))
        report = check_projector_algebra(1, 3, 2)
        assert report.status == "fail"
        assert report.first_failure == FirstFailure(1, "[7/2]", "[3]")

    def test_suite_reports_the_failure(self, monkeypatch):
        _corrupt_call(monkeypatch, "power_form_from_window", K)
        reports = run_suite([RecurrenceParams(0, 1, 1, 1)], 10)
        failed = [r for r in reports if r.status == "fail"]
        assert [(r.identity, r.first_failure.index) for r in failed] == [("power_form_1", K)]


class TestVariantNumber:
    """Every entry point that takes a variant number rejects any other value the same way."""

    @pytest.mark.parametrize("call", [
        lambda v: preset_matrix(v, 3, 2),
        lambda v: power_form(v, 3, 2, 4),
        lambda v: check_power_form(v, 3, 2, 4),
        lambda v: check_power_det_zero(v, 3, 2, 4),
        lambda v: check_closed_power(v, 3, 2, 4),
        lambda v: check_projector_algebra(v, 3, 2),
        lambda v: power_form_from_window(v, 3, 2, h_window(3, 2, 4)),
    ], ids=["preset_matrix", "power_form", "check_power_form", "check_power_det_zero",
            "check_closed_power", "check_projector_algebra", "power_form_from_window"])
    @pytest.mark.parametrize("variant", [0, 4])
    def test_unknown_variant_rejected(self, call, variant):
        with pytest.raises(ValueError, match=rf"^variant must be one of \[1, 2, 3\], got {variant}$"):
            call(variant)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


class TestDoublingEqualsRecurrence:
    """The doubling-fed public functions agree with their cores fed the streamed window."""

    @settings(max_examples=40, deadline=None)
    @given(r=rationals, s=rationals.filter(bool), n=st.integers(1, 200))
    def test_public_functions_match_streamed_cores(self, r, s, n):
        stream = list(islice(h_windows(r, s, 1), n))
        for k, window in enumerate(stream, start=1):
            assert fast_gen_fib(r, s, k) == window[3:5]
        window = stream[-1]
        assert h_window(r, s, n) == window
        q = companion(r, s)
        assert companion_power_form(r, s, n) == companion_power_from_window(s, window)
        assert q ** n == companion_decomposition_from_window(q, s, window)
        for variant in VARIANT_PATTERNS:
            if r != 0 and (variant != 2 or r != 2):
                assert power_form(variant, r, s, n) == power_form_from_window(variant, r, s, window)
        if r * r + 4 * s > 0 and r != 0:
            system = derive(r, s, VARIANT_PATTERNS[1])
            assert closed_power(system, n) == closed_power_from_window(system, window)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 200))
    def test_reference_power_matches_streamed_core(self, n):
        for name, r, s in (("fibonacci", 1, 1), ("pell", 2, 1), ("jacobsthal", 1, 2)):
            window = next(islice(h_windows(r, s, 1), n - 1, None))
            assert reference_power(name, n) == reference_power_from_window(name, window)


class TestCostShape:
    """run_suite streams: no per-index recomputation, no matrix powers."""

    def _run_counted(self, monkeypatch, n_max):
        counts = Counter()

        def counted(name, fn, weight):
            def wrapper(*args, **kwargs):
                counts[name] += weight(*args, **kwargs)
                return fn(*args, **kwargs)
            return wrapper

        targets = (
            (gen_fib, "gen_fib.steps", lambda r, s, n: abs(n)),
            (fast_gen_fib, "fast_gen_fib.calls", lambda *a: 1),
            (derive, "derive.calls", lambda *a, **k: 1),
        )
        modules = [m for key, m in sys.modules.items() if key == "horadam" or key.startswith("horadam.")]
        for original, name, weight in targets:
            wrapper = counted(name, original, weight)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
        monkeypatch.setattr(Matrix, "__pow__", counted("Matrix.pow", Matrix.__pow__, lambda *a: 1))
        run_suite(default_grid(), n_max)
        monkeypatch.undo()
        return counts

    def test_linear_in_n_max(self, monkeypatch):
        small = self._run_counted(monkeypatch, 32)
        large = self._run_counted(monkeypatch, 64)
        pairs = len(default_grid())
        for counts in (small, large):
            assert counts["derive.calls"] <= 6 * pairs + 3
            assert counts["Matrix.pow"] == 0
        for name in ("gen_fib.steps", "fast_gen_fib.calls"):
            assert large[name] <= 2 * small[name]


def _fractions_built(monkeypatch, call) -> int:
    """How many Fractions ``call()`` constructs, counted at both of Fraction's constructors
    (from Python 3.12 on, arithmetic results skip ``__new__``)."""
    built = [0]

    def counted(construct):
        def wrapper(*args, **kwargs):
            built[0] += 1
            return construct(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counted(Fraction.__new__)))
        if hasattr(Fraction, "_from_coprime_ints"):
            patch.setattr(Fraction, "_from_coprime_ints",
                          classmethod(counted(Fraction.__dict__["_from_coprime_ints"].__func__)))
        call()
    return built[0]


def _matrices_validated(monkeypatch, call) -> int:
    """How many times ``call()`` runs the validating ``Matrix`` constructor."""
    built = [0]
    init = Matrix.__init__

    def counted(self, rows):
        built[0] += 1
        init(self, rows)

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "__init__", counted)
        call()
    return built[0]


class TestIntegerSteps:
    """For an integral pair no per-index step of these checks builds a Fraction, so the
    count does not grow with n_max.  r and s come in as Fractions, as run_suite passes them."""

    @pytest.mark.parametrize("r, s", [(Fraction(3), Fraction(-2)), (Fraction(6), Fraction(3))])
    @pytest.mark.parametrize("check", [
        *(partial(check, v) for check in (check_power_form, check_power_det_zero, check_closed_power)
          for v in (1, 2, 3)),
        check_companion_power,
        check_companion_decomposition,
        check_linear_approximation,
        check_cassini,
        check_binet,
    ], ids=[f"{name}_{v}" for name in ("power_form", "power_det_zero", "closed_power") for v in (1, 2, 3)]
        + ["companion_power", "companion_decomposition", "linear_approximation", "cassini", "binet"])
    def test_fraction_count_does_not_grow_with_n_max(self, monkeypatch, check, r, s):
        assert check(r, s, 8).status == "pass"  # warms the per-process caches first
        counts = [_fractions_built(monkeypatch, lambda: check(r, s, n_max)) for n_max in (32, 64)]
        assert counts[1] == counts[0]

    @pytest.mark.parametrize("name", ["fibonacci", "pell", "jacobsthal"])
    def test_reference_power(self, monkeypatch, name):
        check_reference_power(name, 8)
        counts = [_fractions_built(monkeypatch, lambda: check_reference_power(name, n_max)) for n_max in (32, 64)]
        assert counts[1] == counts[0]

    @pytest.mark.parametrize("check", [
        *(partial(check, v, 3, -2) for check in (check_power_form, check_closed_power) for v in (1, 2, 3)),
        partial(check_companion_power, 3, -2),
        partial(check_companion_decomposition, 3, -2),
        *(partial(check_reference_power, name) for name in ("fibonacci", "pell", "jacobsthal")),
    ], ids=[f"{name}_{v}" for name in ("power_form", "closed_power") for v in (1, 2, 3)]
        + ["companion_power", "companion_decomposition"]
        + [f"reference_power_{name}" for name in ("fibonacci", "pell", "jacobsthal")])
    def test_no_matrix_validated_per_index(self, monkeypatch, check):
        """The window cores and the tabulated power forms build their matrices without the
        validating constructor, so its call count does not grow with n_max."""
        check(8)
        counts = [_matrices_validated(monkeypatch, lambda: check(n_max)) for n_max in (32, 64)]
        assert counts[1] == counts[0]
