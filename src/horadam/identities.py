"""Batch verification of the sequence and matrix identities.

Every check evaluates both sides of an identity exactly over a range of
indices and reports the first mismatch, if any.  ``run_suite`` sweeps all
checks over a parameter grid; checks whose hypotheses a parameter pair
violates are recorded as skipped, and comparisons against tabulated
reference matrices that are known to disagree with the derivation are
recorded as discrepancies rather than failures.

All streaming checks share one loop, ``_sweep``: it walks the windows
h(n-3)..h(n+2) of :func:`~horadam.sequences.h_windows` from the check's
first index to n_max (``power_det_zero``, which reads no h, walks none),
carries running powers (alpha^n and beta^n, (-s)^n, Q^n, A^n) from n to
n+1 by one product each, and stops at the first index where the check's
``differ`` function finds the two sides unequal.  So a
check costs time linear in n_max, and each check is just its row: first
index, bases, starting powers and the comparison.  The assembled side of
each matrix identity is the same ``*_from_window`` core that the public
functions (``power_form``, ``closed_power``, ...) feed from fast doubling.
The three classic systems are derived once per process.  A check, or
``run_suite``, whose index range is empty raises DomainError rather than
passing vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .derivation import (
    VARIANT_PATTERNS,
    classic_system,
    classic_systems,
    closed_power_from_window,
    derive,
    power_form_domain,
    power_form_from_window,
    preset_matrix,
    reference_power_from_window,
    variant_pattern,
)
from .errors import DomainError
from .exact import RationalLike, as_fraction
from .matrices import (
    Matrix,
    companion,
    companion_decomposition_from_window,
    companion_power_from_window,
    is_singular,
)
from .registry import BUILTIN_ENTRIES
from .sequences import (
    RecurrenceParams,
    binet_from_powers,
    h_windows,
    linear_approx_holds,
    roots,
)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
DISCREPANCY = "discrepancy"

#: First index of the Binet check for s != 0: the identity also holds at negative n.
_BINET_N_MIN = -10


def _first_index(lo: int, s: RationalLike) -> int:
    """The first index of a check that holds from lo: at least 0 when s = 0, where h(n < 0) is undefined."""
    return max(lo, 0) if s == 0 else lo


@dataclass(frozen=True)
class FirstFailure:
    index: int
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return {"index": self.index, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    r: Fraction
    s: Fraction
    lo: int
    hi: int
    status: str
    first_failure: FirstFailure | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        record = {
            "identity": self.identity,
            "params": {"r": str(self.r), "s": str(self.s)},
            "range": [self.lo, self.hi],
            "status": self.status,
        }
        if self.first_failure is not None:
            record["first_failure"] = self.first_failure.to_dict()
        if self.note is not None:
            record["note"] = self.note
        return record


def _report(identity, r, s, lo, hi, failure=None) -> IdentityReport:
    status = FAIL if failure is not None else PASS
    return IdentityReport(identity, as_fraction(r), as_fraction(s), lo, hi, status, failure)


def _matrix_text(m: Matrix) -> str:
    return "[" + "; ".join(" ".join(str(e) for e in row) for row in m.rows) + "]"


def matrix_mismatches(left: Matrix, right: Matrix) -> list[tuple[int, int, str, str]]:
    """(row, col, left, right) for every entry where the matrices differ."""
    if left.size != right.size:
        raise ValueError(f"size mismatch: {left.size} vs {right.size}")
    if left == right:
        return []
    return [
        (i, j, str(left[i, j]), str(right[i, j]))
        for i in range(left.size)
        for j in range(left.size)
        if left[i, j] != right[i, j]
    ]


def _require_range(lo: int, n_max: int) -> None:
    if n_max < lo:
        raise DomainError(f"n_max must be >= {lo}, got {n_max}")


def _sweep(r: RationalLike, s: RationalLike, lo: int, n_max: int, bases: list, powers: list, differ,
           windows=None):
    """The first (n, differ(h, *powers)) that is not None for n in [lo, n_max], else None.

    h is the window h(n-3)..h(n+2) at n, taken from ``windows`` when a check
    needs none of it; each power starts at its value for n = lo and is
    multiplied by its base after each index.
    """
    _require_range(lo, n_max)
    for n, h in zip(range(lo, n_max + 1), h_windows(r, s, lo) if windows is None else windows):
        mismatch = differ(h, *powers)
        if mismatch is not None:
            return n, mismatch
        powers = [power * base for power, base in zip(powers, bases)]
    return None


def _streamed(name, r, s, lo, n_max, bases, powers, differ, windows=None) -> IdentityReport:
    """Report of :func:`_sweep`, whose mismatch is the (lhs, rhs) text pair."""
    found = _sweep(r, s, lo, n_max, bases, powers, differ, windows)
    failure = None if found is None else FirstFailure(found[0], *found[1])
    return _report(name, r, s, lo, n_max, failure)


def _unequal(lhs, rhs, text=str) -> tuple[str, str] | None:
    return None if lhs == rhs else (text(lhs), text(rhs))


def check_cassini(r: RationalLike, s: RationalLike, n_max: int) -> IdentityReport:
    """h(n)^2 - h(n-1)*h(n+1) = (-s)^(n-1) for n in [1, n_max]."""
    s = as_fraction(s)  # before -s, so that a non-rational s gets the package's own TypeError
    return _streamed("cassini", r, s, 1, n_max, [-s], [Fraction(1)],
                     lambda h, sign_power: _unequal(h[3] * h[3] - h[2] * h[4], sign_power))


def check_cubic(r: RationalLike, s: RationalLike, n_max: int) -> IdentityReport:
    """h(n)^3 + h(n-1)^2*h(n+2) + h(n+1)^2*h(n-2)
    = h(n)*(h(n-2)*h(n+2) + 2*h(n-1)*h(n+1)) for n in [2, n_max]."""

    def differ(h):
        _, h_nm2, h_nm1, h_n, h_np1, h_np2 = h
        return _unequal(h_n ** 3 + h_nm1 ** 2 * h_np2 + h_np1 ** 2 * h_nm2,
                        h_n * (h_nm2 * h_np2 + 2 * h_nm1 * h_np1))

    return _streamed("cubic", r, s, 2, n_max, [], [], differ)


def check_power_form(variant: int, r: RationalLike, s: RationalLike, n_max: int) -> IdentityReport:
    """Running product of the preset A equals the entrywise power form, n in [1, n_max]."""
    base = preset_matrix(variant, r, s)
    r, s = power_form_domain(variant, r, s)
    return _streamed(f"power_form_{variant}", r, s, 1, n_max, [base], [base],
                     lambda h, power: _unequal(power, power_form_from_window(variant, r, s, h), _matrix_text))


def check_power_det_zero(variant: int, r: RationalLike, s: RationalLike, n_max: int) -> IdentityReport:
    """det(A^n) = 0 for the preset matrices, n in [1, n_max].  No h value is read."""
    base = preset_matrix(variant, r, s)
    return _streamed(f"power_det_zero_{variant}", r, s, 1, n_max, [base], [base],
                     lambda _, power: None if is_singular(power) else (str(power.det()), "0"), repeat(None))


def check_closed_power(variant: int, r: RationalLike, s: RationalLike, n_max: int) -> IdentityReport:
    """The closed form h(n)*A + s*h(n-1)*(I - E) equals the running product
    A^n for the derived system, n in [1, n_max]."""
    system = derive(r, s, variant_pattern(variant))
    a = system.matrix
    return _streamed(f"closed_power_{variant}", r, s, 1, n_max, [a], [a],
                     lambda h, power: _unequal(power, closed_power_from_window(system, h), _matrix_text))


def check_projector_algebra(variant: int, r: RationalLike, s: RationalLike) -> IdentityReport:
    """E^2 = E, A*E = E*A = 0, det A = 0, trace A = r, A^3 = r*A^2 + s*A."""
    name = f"projector_algebra_{variant}"
    system = derive(r, s, variant_pattern(variant))
    a, e = system.matrix, system.projector
    zero = Matrix.identity(3) - Matrix.identity(3)
    facts = [
        (1, e * e, e),
        (1, a * e, zero),
        (1, e * a, zero),
        (1, a.det(), 0),
        (1, a.trace(), r),
        (3, a * a * a, r * (a * a) + s * a),
    ]
    for index, lhs, rhs in facts:
        if lhs != rhs:
            # A scalar side is bracketed like a matrix: "[x]".
            text = _matrix_text if isinstance(lhs, Matrix) else "[{}]".format
            return _report(name, r, s, 1, 3, FirstFailure(index, text(lhs), text(rhs)))
    return _report(name, r, s, 1, 3)


def check_companion_power(r: RationalLike, s: RationalLike, n_max: int) -> IdentityReport:
    """Q^n matches [[h(n+1), s*h(n)], [h(n), s*h(n-1)]] and det(Q^n) = (-s)^n."""
    q = companion(r, s)

    def differ(h, power, sign_power):
        assembled = companion_power_from_window(s, h)
        return _unequal(power, assembled, _matrix_text) or _unequal(assembled.det(), sign_power)

    return _streamed("companion_power", r, s, 1, n_max, [q, -s], [q, -s], differ)


def check_companion_decomposition(r: RationalLike, s: RationalLike, n_max: int) -> IdentityReport:
    """Q^n = h(n)*Q + s*h(n-1)*I for n in [1, n_max]."""
    q = companion(r, s)
    return _streamed("companion_decomposition", r, s, 1, n_max, [q], [q],
                     lambda h, power: None if power == companion_decomposition_from_window(q, s, h)
                     else ("Q^n", "h(n)*Q + s*h(n-1)*I"))


def check_binet(r: RationalLike, s: RationalLike, n_max: int) -> IdentityReport:
    """(alpha^n - beta^n)/(alpha - beta) = h(n) for n in [-10, n_max], or in
    [0, n_max] when s = 0, since h(n) for n < 0 needs s != 0."""
    n_min = _first_index(_BINET_N_MIN, s)
    alpha, beta = roots(r, s)
    gap = alpha - beta
    return _streamed("binet_recurrence", r, s, n_min, n_max, [alpha, beta], [alpha ** n_min, beta ** n_min],
                     lambda h, alpha_n, beta_n: _unequal(binet_from_powers(alpha_n, beta_n, gap), h[3]))


def check_linear_approximation(r: RationalLike, s: RationalLike, n_max: int) -> IdentityReport:
    """alpha^n = alpha*h(n) + s*h(n-1) and the beta twin, n in [1, n_max]."""
    alpha, beta = roots(r, s)
    return _streamed("linear_approximation", r, s, 1, n_max, [alpha, beta], [alpha, beta],
                     lambda h, alpha_n, beta_n: None
                     if linear_approx_holds(alpha, alpha_n, s, h) and linear_approx_holds(beta, beta_n, s, h)
                     else ("alpha^n, beta^n", "alpha*h(n)+s*h(n-1), beta*h(n)+s*h(n-1)"))


def check_reference_matrix(name: str) -> IdentityReport:
    """Derived classic matrix vs its tabulated reference form.

    A mismatch is a discrepancy in the reference table, not a failure:
    the derivation is checked independently through its eigen-equations.
    """
    entry = classic_system(name)
    mismatches = matrix_mismatches(entry.system.matrix, entry.reference)
    r, s = entry.system.r, entry.system.s
    if not mismatches:
        return IdentityReport(f"reference_matrix_{name}", r, s, 1, 1, PASS)
    note = "derived vs reference: " + "; ".join(
        f"entry ({i},{j}) derived {lhs} reference {rhs}" for i, j, lhs, rhs in mismatches
    )
    return IdentityReport(f"reference_matrix_{name}", r, s, 1, 1, DISCREPANCY, None, note)


def check_reference_power(name: str, n_max: int) -> IdentityReport:
    """Powers of the derived classic matrix vs the tabulated power form."""
    entry = classic_system(name)
    r, s = entry.system.r, entry.system.s
    a = entry.system.matrix
    found = _sweep(r, s, 1, n_max, [a], [a], lambda h, power: next(
        iter(matrix_mismatches(power, reference_power_from_window(name, h))), None))
    if found is None:
        return IdentityReport(f"reference_power_{name}", r, s, 1, n_max, PASS)
    n, (i, j, lhs, rhs) = found
    note = f"first difference at n={n}, entry ({i},{j}): derived {lhs} vs reference {rhs}"
    return IdentityReport(f"reference_power_{name}", r, s, 1, n_max, DISCREPANCY, None, note)


def default_grid() -> list[RecurrenceParams]:
    """The registry's built-in sequences plus two integer pairs with D > 0,
    s != 0 and r outside {0, 2}, so that every check applies."""
    pairs = [(entry.r, entry.s) for entry in BUILTIN_ENTRIES] + [(-3, -2), (6, 3)]
    return [RecurrenceParams(0, 1, r, s) for r, s in pairs]


#: Checks run once per grid pair: (report name, check, first index).  The
#: check is called as check_<check>(r, s, max(n_max, first index)).
_PAIR_CHECKS: tuple[tuple[str, str, int], ...] = (
    ("cassini", "cassini", 1),
    ("cubic", "cubic", 2),
    ("companion_power", "companion_power", 1),
    ("companion_decomposition", "companion_decomposition", 1),
    ("binet_recurrence", "binet", _BINET_N_MIN),
    ("linear_approximation", "linear_approximation", 1),
)
#: Checks run per grid pair and variant v as check_<check>(v, r, s, n_max),
#: each followed by check_projector_algebra(v, r, s) over the fixed range [1, 3].
_VARIANT_CHECKS = ("power_form", "power_det_zero", "closed_power")


def run_suite(grid: list[RecurrenceParams], n_max: int) -> list[IdentityReport]:
    """Run every check over the grid; deterministic ordering.

    Parameter pairs that violate a check's hypotheses yield skipped
    entries.  The classic reference comparisons are appended once for any
    nonempty grid.  An empty grid produces an empty report; n_max below 1
    raises DomainError.
    """
    _require_range(1, n_max)
    if not grid:
        return []
    reports: list[IdentityReport] = []
    for params in grid:
        r, s = params.r, params.s
        # (report name, check, arguments, range of a skipped report)
        rows = [(identity, check, (r, s, max(n_max, lo)), _first_index(lo, s), n_max)
                for identity, check, lo in _PAIR_CHECKS]
        for variant in sorted(VARIANT_PATTERNS):
            rows += [(f"{check}_{variant}", check, (variant, r, s, n_max), 1, n_max)
                     for check in _VARIANT_CHECKS]
            rows.append((f"projector_algebra_{variant}", "projector_algebra", (variant, r, s), 1, 3))
        for identity, check, args, lo, hi in rows:
            # Looked up at call time, so a wrapper put on a check_* global takes effect.
            try:
                reports.append(globals()[f"check_{check}"](*args))
            except DomainError as exc:
                reports.append(IdentityReport(identity, r, s, lo, hi, SKIPPED, None, str(exc)))

    for classic in classic_systems():
        reports.append(check_reference_matrix(classic.name))
        reports.append(check_reference_power(classic.name, n_max))

    reports.sort(key=lambda rep: (rep.identity, rep.r, rep.s))
    return reports
