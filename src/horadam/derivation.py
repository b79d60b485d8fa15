"""Derivation of 3x3 matrices with prescribed spectrum {alpha, beta, 0}.

The construction fixes the eigenvector templates x = (alpha, beta, -1) and
y = (beta, alpha, -1) for the two nonzero eigenvalues and lets the kernel
eigenvector z = t * signs vary over sign patterns.  The plane of x and y is
also spanned by the rational vectors u = x + y and v = (x - y)/sqrt(D), so A
is solved over Q as A = R * B^(-1) with B = [u v z] and R the images of
u, v, z under A, which are known from the eigenvalues.  The matrix is
degenerate exactly when r*s3 + s1 + s2 = 0 for signs (s1, s2, s3).  The
rank-one projector E = B * diag(0, 0, 1) * B^(-1) onto the kernel direction
(equal to P * diag(0, 0, 1) * P^(-1) for the eigenvector matrix P over
Q(sqrt(D)), which is kept only as rows for display) then gives the closed
form

    A^n = h(n) * A + s * h(n-1) * (I - E)

so powers of A are read off the sequence h without any matrix products.

Three sign patterns are special: each has a known rational formula for A
with the prefactor 1/(r - pole), and a companion formula expressing A^n
entrywise in a window of five consecutive h values.  They are exposed here
as ``variants`` 1..3, one row each: pattern, pole and both formulas; a
variant's domain r not in {0, pole} and its validity text follow from its
row.  Variant 1's instantiations at the registry's built-in Fibonacci, Pell
and Jacobsthal pairs are shipped, one row each, with the tabulated matrix
and power form they are usually quoted as, for cross-checking.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DegenerateEigenbasisError, DomainError, HoradamError, SingularMatrixError
from .exact import QuadElem, RationalLike, as_fraction
from .matrices import Matrix
from .registry import BUILTIN_ENTRIES
from .sequences import fast_gen_fib  # noqa: F401  (perfbench reaches derivation.fast_gen_fib)
from .sequences import h_window, roots


@dataclass(frozen=True)
class KernelPattern:
    """Sign triple (each +1 or -1) directing the kernel eigenvector."""

    signs: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.signs) != 3 or any(v not in (1, -1) for v in self.signs):
            raise ValueError(f"signs must be three values in {{+1, -1}}, got {self.signs}")

    @classmethod
    def from_string(cls, text: str) -> KernelPattern:
        """Parse a pattern like "+-+"."""
        mapping = {"+": 1, "-": -1}
        if len(text) != 3 or any(ch not in mapping for ch in text):
            raise ValueError(f"pattern must be three characters from +-, got {text!r}")
        return cls(tuple(mapping[ch] for ch in text))

    def __str__(self) -> str:
        return "".join("+" if v > 0 else "-" for v in self.signs)


class _VariantRows(dict):
    """The variant table, whose lookup is the validation: any other number is a ValueError."""

    def __missing__(self, variant):
        raise ValueError(f"variant must be one of {sorted(self)}, got {variant}")


#: Each special pattern as one (pattern, pole, preset, power form) row, keyed by variant number:
#: the rows of A from (r, s), and of A^n from (r, s) and the window h(n-3)..h(n+2).  Both
#: carry the prefactor 1/(r - pole), and the preset needs r not in {0, pole}.
_VARIANTS: dict[int, tuple[KernelPattern, int, Callable, Callable]] = _VariantRows({
    1: (KernelPattern.from_string("+-+"), 0,
        lambda r, s: [
            [r * (r - 1) + s, s - r, -r * r],
            [-s, -s, Fraction(0)],
            [1 - r, Fraction(1), r],
        ],
        lambda r, s, h_nm3, h_nm2, h_nm1, h_n, h_np1, h_np2: [
            [h_np2 - h_np1, -(h_np1 - s * h_n), -r * h_np1],
            [-s * (h_n - h_nm1), s * (h_nm1 - s * h_nm2), r * s * h_nm1],
            [-(h_np1 - h_n), h_n - s * h_nm1, r * h_n],
        ]),
    2: (KernelPattern.from_string("++-"), 2,
        lambda r, s: [
            [r * (r - 1) + s, r + s, r * r + 2 * s],
            [-s, -s, -2 * s],
            [1 - r, Fraction(-1), -r],
        ],
        lambda r, s, h_nm3, h_nm2, h_nm1, h_n, h_np1, h_np2: [
            [h_np2 - h_np1, h_np1 + s * h_n, h_np2 + s * h_n],
            [-s * (h_n - h_nm1), -s * (h_nm1 + s * h_nm2), -s * (h_n + s * h_nm2)],
            [-(h_np1 - h_n), -(h_n + s * h_nm1), -(h_np1 + s * h_nm1)],
        ]),
    3: (KernelPattern.from_string("-++"), 0,
        lambda r, s: [
            [r * (r + 1) + s, r + s, r * r],
            [-s, -s, Fraction(0)],
            [-(r + 1), Fraction(-1), -r],
        ],
        lambda r, s, h_nm3, h_nm2, h_nm1, h_n, h_np1, h_np2: [
            [h_np2 + h_np1, h_np1 + s * h_n, r * h_np1],
            [-s * (h_n + h_nm1), -s * (h_nm1 + s * h_nm2), -r * s * h_nm1],
            [-(h_np1 + h_n), -(h_n + s * h_nm1), -r * h_n],
        ]),
})

#: The sign patterns with known closed-form presets, keyed by variant number.
VARIANT_PATTERNS: dict[int, KernelPattern] = {k: pattern for k, (pattern, *_) in _VARIANTS.items()}

_PATTERN_POLES = {pattern: pole for pattern, pole, _, _ in _VARIANTS.values()}


def variant_pattern(variant: int) -> KernelPattern:
    """The sign pattern of a variant number; ValueError for any other value."""
    return _VARIANTS[variant][0]


@dataclass(frozen=True)
class DerivedSystem:
    """Output of :func:`derive`: the matrix, its kernel projector, and the
    rows of the eigenvector matrix P (columns x, y, z) over Q(sqrt(D)),
    kept for display."""

    matrix: Matrix
    projector: Matrix
    eigenvectors: tuple[tuple[QuadElem | RationalLike, ...], ...]
    r: Fraction
    s: Fraction
    pattern: KernelPattern
    validity: str

    @functools.cached_property
    def _complement(self) -> Matrix:
        """I - E, built once per system rather than at every index of a closed-form walk."""
        return Matrix.identity(3) - self.projector


def _check_variant_domain(r: Fraction, pattern: KernelPattern) -> str:
    """The validity text of ``pattern``; DomainError if r is outside a special pattern's domain."""
    pole = _PATTERN_POLES.get(pattern)
    if pole is None:
        return "det(P) != 0 for the supplied pattern"
    validity = "r != 0" if pole == 0 else f"r not in {{0, {pole}}}"
    if r in (0, pole):
        raise DomainError(f"pattern {pattern} requires {validity}")
    return validity


def derive(
    r: RationalLike,
    s: RationalLike,
    pattern: KernelPattern,
    t: RationalLike = 1,
) -> DerivedSystem:
    """Build the 3x3 matrix with eigenpairs (alpha, x), (beta, y), (0, z).

    A is solved over Q on the rational basis B = [u v z] with
    u = x + y = (r, r, -2), v = (x - y)/sqrt(D) = (1, -1, 0) and z = t * signs.
    Since det P = -(sqrt(D)/2) * det B and det B = -2t(r*s3 + s1 + s2) for
    signs (s1, s2, s3), the eigenvectors are dependent exactly when
    r*s3 + s1 + s2 = 0, which raises DegenerateEigenbasisError.  The kernel
    scale t has no effect on A or E (z enters only through its direction);
    it is accepted so that independence can be demonstrated.
    """
    r = as_fraction(r)
    s = as_fraction(s)
    t = as_fraction(t)
    if t == 0:
        raise DomainError("kernel scale t must be nonzero")
    validity = _check_variant_domain(r, pattern)
    alpha, beta = roots(r, s)
    z = [t * sign for sign in pattern.signs]

    basis = Matrix([[r, 1, z[0]], [r, -1, z[1]], [-2, 0, z[2]]])
    try:
        basis_inv = basis.inverse()
    except SingularMatrixError:
        raise DegenerateEigenbasisError(
            f"eigenvectors are linearly dependent for r={r}, s={s}, pattern {pattern}"
        ) from None
    # Columns: A*u = alpha*x + beta*y, A*v = (alpha*x - beta*y)/sqrt(D), A*z = 0.
    images = Matrix([[r * r + 2 * s, r, 0], [-2 * s, 0, 0], [-r, -1, 0]])
    a = images * basis_inv
    if a * basis != images:
        raise HoradamError(f"derived matrix fails its eigen-equations at r={r}, s={s}")
    # E = B * diag(0, 0, 1) * B^(-1): column z times the last row of B^(-1).
    e = Matrix([[z_i * w for w in basis_inv.rows[2]] for z_i in z])

    return DerivedSystem(
        matrix=a,
        projector=e,
        eigenvectors=((alpha, beta, z[0]), (beta, alpha, z[1]), (-1, -1, z[2])),
        r=r,
        s=s,
        pattern=pattern,
        validity=validity,
    )


def closed_power(system: DerivedSystem, n: int) -> Matrix:
    """A^n evaluated as h(n)*A + s*h(n-1)*(I - E), no matrix products."""
    return closed_power_from_window(system, h_window(system.r, system.s, n))


def closed_power_from_window(system: DerivedSystem, h: tuple) -> Matrix:
    """h(n)*A + s*h(n-1)*(I - E) for h the window of :func:`h_window` at n."""
    return h[3] * system.matrix + (system.s * h[2]) * system._complement


def preset_matrix(variant: int, r: RationalLike, s: RationalLike) -> Matrix:
    """The known rational matrix for one of the three special patterns."""
    r = as_fraction(r)
    s = as_fraction(s)
    pattern, pole, preset, _ = _VARIANTS[variant]
    _check_variant_domain(r, pattern)
    return 1 / (r - pole) * Matrix(preset(r, s))


def power_form(variant: int, r: RationalLike, s: RationalLike, n: int) -> Matrix:
    """A^n for a special pattern, assembled entrywise from h(n-2)..h(n+2)."""
    variant_pattern(variant)  # an unknown variant is reported before a bad n
    h = h_window(r, s, n)
    r, s = power_form_domain(variant, r, s)
    return power_form_from_window(variant, r, s, h)


def power_form_domain(variant: int, r: RationalLike, s: RationalLike) -> tuple[Fraction, Fraction]:
    """(r, s) as Fractions, for the 1/(r - pole) of the power form.  DomainError unless
    s != 0, since n = 1 reaches back to h(-1) = 1/s, and r is in the variant's domain."""
    r = as_fraction(r)
    s = as_fraction(s)
    if s == 0:
        raise DomainError("the entrywise power form requires s != 0")
    _check_variant_domain(r, variant_pattern(variant))
    return r, s


def power_form_from_window(variant: int, r: Fraction, s: Fraction, h: tuple) -> Matrix:
    """The entrywise power form for h the window of :func:`h_window` at n."""
    _, pole, _, form = _VARIANTS[variant]
    return 1 / (r - pole) * Matrix(form(r, s, *h))


@dataclass(frozen=True)
class ClassicSystem:
    """A named instantiation of the variant-1 construction together with
    the matrix form it is usually tabulated as."""

    name: str
    system: DerivedSystem
    reference: Matrix


#: Each classic system as one (tabulated matrix, tabulated power form) row, keyed by name.
#: The power form gives A^n from the window h(n-3)..h(n+2) of the system's own (r, s),
#: written in the named sequence itself (F, P or J).
_CLASSICS: dict[str, tuple[Matrix, Callable]] = {
    "fibonacci": (Matrix([[1, 0, -1], [-1, -1, 0], [0, 1, 1]]),
                  lambda f_nm3, f_nm2, f_nm1, f_n, f_np1, f_np2: Matrix([
                      [f_n, -f_nm1, -f_np1],
                      [-f_nm2, f_nm3, f_nm1],
                      [-f_nm1, f_nm2, f_n],
                  ])),
    "pell": (Fraction(1, 2) * Matrix([[3, -1, -4], [-1, -1, 0], [0, 1, 2]]),
             lambda p_nm3, p_nm2, p_nm1, p_n, p_np1, p_np2: Fraction(1, 2) * Matrix([
                 [p_np2 - p_np1, -(p_np1 - p_n), -2 * p_np1],
                 [-(p_n - p_nm1), p_nm1 - p_nm2, 2 * p_nm1],
                 [-(p_np1 - p_n), p_n - p_nm1, p_n],
             ])),
    "jacobsthal": (Matrix([[2, 1, -1], [-2, -2, 0], [0, 1, 1]]),
                   lambda j_nm3, j_nm2, j_nm1, j_n, j_np1, j_np2: Matrix([
                       [2 * j_n, -(j_np1 - 2 * j_n), -j_np1],
                       [-4 * j_nm2, 2 * (j_nm1 - 2 * j_nm2), 2 * j_nm1],
                       [-2 * j_nm1, j_n - 2 * j_nm1, j_n],
                   ])),
}


#: Built-in (r, s) to name, for the built-ins with a tabulated reference.
_CLASSIC_NAMES = {(entry.r, entry.s): entry.name
                  for entry in BUILTIN_ENTRIES if entry.name in _CLASSICS}


@functools.cache
def _classic_table() -> dict[str, ClassicSystem]:
    pattern = VARIANT_PATTERNS[1]
    return {
        name: ClassicSystem(name, derive(r, s, pattern), _CLASSICS[name][0])
        for (r, s), name in _CLASSIC_NAMES.items()
    }


def classic_system(name: str) -> ClassicSystem:
    """The classic system called ``name``, derived once per process."""
    system = _classic_table().get(name)
    if system is None:
        raise ValueError(f"unknown classic system {name!r}")
    return system


def classic_systems() -> list[ClassicSystem]:
    """The Fibonacci, Pell and Jacobsthal instantiations of variant 1.

    Each system is produced by :func:`derive`; the attached reference is
    the commonly tabulated matrix.  The Pell reference is known to differ
    from the derivation in one entry, so callers comparing the two should
    treat the derivation as authoritative and report, not fail.
    """
    return list(_classic_table().values())


def classic_for(r: Fraction, s: Fraction, pattern: KernelPattern) -> ClassicSystem | None:
    """The classic entry matching (r, s, pattern), if any."""
    name = _CLASSIC_NAMES.get((r, s)) if pattern == VARIANT_PATTERNS[1] else None
    return None if name is None else classic_system(name)


def reference_power(name: str, n: int) -> Matrix:
    """The tabulated entrywise form of the n-th power for a classic system.

    These are quoted in terms of the named sequence itself (F, P or J)
    rather than the generic five-term window, so they give an independent
    cross-check of the variant-1 power form.
    """
    system = classic_system(name).system
    return reference_power_from_window(name, h_window(system.r, system.s, n))


def reference_power_from_window(name: str, h: tuple) -> Matrix:
    """The tabulated power form for h the window of :func:`h_window` at n,
    taken over the named system's own (r, s)."""
    return _CLASSICS[classic_system(name).name][1](*h)

