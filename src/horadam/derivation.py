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
with a scalar prefactor, and a companion formula expressing A^n entrywise
in a window of five consecutive h values.  They are exposed here as
``variants`` 1..3, and their instantiations at the classic parameter pairs
(Fibonacci, Pell, Jacobsthal) are shipped with the tabulated matrices they
are usually quoted as, for cross-checking.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateEigenbasisError, DomainError, HoradamError
from .exact import QuadElem, RationalLike, as_fraction
from .matrices import Matrix
from .sequences import fast_gen_fib, h_window, roots  # noqa: F401  (perfbench reaches derivation.fast_gen_fib)


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


#: The sign patterns with known closed-form presets, keyed by variant number.
VARIANT_PATTERNS: dict[int, KernelPattern] = {
    1: KernelPattern.from_string("+-+"),
    2: KernelPattern.from_string("++-"),
    3: KernelPattern.from_string("-++"),
}

_PATTERN_VARIANTS = {pattern: k for k, pattern in VARIANT_PATTERNS.items()}


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

    @property
    def discriminant(self) -> Fraction:
        return self.r * self.r + 4 * self.s


def _check_variant_domain(r: Fraction, pattern: KernelPattern) -> str:
    variant = _PATTERN_VARIANTS.get(pattern)
    if variant in (1, 3):
        if r == 0:
            raise DomainError(f"pattern {pattern} requires r != 0")
        return "r != 0"
    if variant == 2:
        if r == 0 or r == 2:
            raise DomainError(f"pattern {pattern} requires r not in {{0, 2}}")
        return "r not in {0, 2}"
    return "det(P) != 0 for the supplied pattern"


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
    if basis.det() == 0:
        raise DegenerateEigenbasisError(
            f"eigenvectors are linearly dependent for r={r}, s={s}, pattern {pattern}"
        )
    # Columns: A*u = alpha*x + beta*y, A*v = (alpha*x - beta*y)/sqrt(D), A*z = 0.
    images = Matrix([[r * r + 2 * s, r, 0], [-2 * s, 0, 0], [-r, -1, 0]])
    basis_inv = basis.inverse()
    a = images * basis_inv
    if a * basis != images:
        raise HoradamError(f"derived matrix fails its eigen-equations at r={r}, s={s}")
    # E = B * diag(0, 0, 1) * B^(-1): column z times the last row of B^(-1).
    e = Matrix.column(z) * Matrix([basis_inv.rows[2]])

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
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return closed_power_from_window(system, h_window(system.r, system.s, n))


def closed_power_from_window(system: DerivedSystem, h: tuple) -> Matrix:
    """h(n)*A + s*h(n-1)*(I - E) for h the window of :func:`h_window` at n."""
    complement = Matrix.identity(3) - system.projector
    return h[3] * system.matrix + (system.s * h[2]) * complement


def preset_matrix(variant: int, r: RationalLike, s: RationalLike) -> Matrix:
    """The known rational matrix for one of the three special patterns."""
    r = as_fraction(r)
    s = as_fraction(s)
    _check_variant_domain(r, VARIANT_PATTERNS[_require_variant(variant)])
    if variant == 1:
        scale = 1 / r
        rows = [
            [r * (r - 1) + s, s - r, -r * r],
            [-s, -s, Fraction(0)],
            [1 - r, Fraction(1), r],
        ]
    elif variant == 2:
        scale = 1 / (r - 2)
        rows = [
            [r * (r - 1) + s, r + s, r * r + 2 * s],
            [-s, -s, -2 * s],
            [1 - r, Fraction(-1), -r],
        ]
    else:
        scale = 1 / r
        rows = [
            [r * (r + 1) + s, r + s, r * r],
            [-s, -s, Fraction(0)],
            [-(r + 1), Fraction(-1), -r],
        ]
    return scale * Matrix(rows)


def power_form(variant: int, r: RationalLike, s: RationalLike, n: int) -> Matrix:
    """A^n for a special pattern, assembled entrywise from h(n-2)..h(n+2).

    Requires s != 0 since n = 1 reaches back to h(-1) = 1/s.
    """
    variant = _require_variant(variant)
    r = as_fraction(r)
    s = as_fraction(s)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if s == 0:
        raise DomainError("the entrywise power form requires s != 0")
    _check_variant_domain(r, VARIANT_PATTERNS[variant])
    return power_form_from_window(variant, r, s, h_window(r, s, n))


def power_form_from_window(variant: int, r: Fraction, s: Fraction, h: tuple) -> Matrix:
    """The entrywise power form for h the window of :func:`h_window` at n."""
    _, h_nm2, h_nm1, h_n, h_np1, h_np2 = h
    if variant == 1:
        scale = 1 / r
        rows = [
            [h_np2 - h_np1, -(h_np1 - s * h_n), -r * h_np1],
            [-s * (h_n - h_nm1), s * (h_nm1 - s * h_nm2), r * s * h_nm1],
            [-(h_np1 - h_n), h_n - s * h_nm1, r * h_n],
        ]
    elif variant == 2:
        scale = 1 / (r - 2)
        rows = [
            [h_np2 - h_np1, h_np1 + s * h_n, h_np2 + s * h_n],
            [-s * (h_n - h_nm1), -s * (h_nm1 + s * h_nm2), -s * (h_n + s * h_nm2)],
            [-(h_np1 - h_n), -(h_n + s * h_nm1), -(h_np1 + s * h_nm1)],
        ]
    else:
        scale = 1 / r
        rows = [
            [h_np2 + h_np1, h_np1 + s * h_n, r * h_np1],
            [-s * (h_n + h_nm1), -s * (h_nm1 + s * h_nm2), -r * s * h_nm1],
            [-(h_np1 + h_n), -(h_n + s * h_nm1), -r * h_n],
        ]
    return scale * Matrix(rows)


def _require_variant(variant: int) -> int:
    if variant not in VARIANT_PATTERNS:
        raise ValueError(f"variant must be one of {sorted(VARIANT_PATTERNS)}, got {variant}")
    return variant


@dataclass(frozen=True)
class ClassicSystem:
    """A named instantiation of the variant-1 construction together with
    the matrix form it is usually tabulated as."""

    name: str
    system: DerivedSystem
    reference: Matrix


_CLASSIC_PARAMS: tuple[tuple[str, int, int], ...] = (
    ("fibonacci", 1, 1),
    ("pell", 2, 1),
    ("jacobsthal", 1, 2),
)

_REFERENCE_MATRICES: dict[str, Matrix] = {
    "fibonacci": Matrix([[1, 0, -1], [-1, -1, 0], [0, 1, 1]]),
    "pell": Fraction(1, 2) * Matrix([[3, -1, -4], [-1, -1, 0], [0, 1, 2]]),
    "jacobsthal": Matrix([[2, 1, -1], [-2, -2, 0], [0, 1, 1]]),
}


@functools.cache
def _classic_table() -> dict[str, ClassicSystem]:
    pattern = VARIANT_PATTERNS[1]
    return {
        name: ClassicSystem(name, derive(r, s, pattern), _REFERENCE_MATRICES[name])
        for name, r, s in _CLASSIC_PARAMS
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
    if pattern != VARIANT_PATTERNS[1]:
        return None
    for name, cr, cs in _CLASSIC_PARAMS:
        if r == cr and s == cs:
            return classic_system(name)
    return None


def reference_power(name: str, n: int) -> Matrix:
    """The tabulated entrywise form of the n-th power for a classic system.

    These are quoted in terms of the named sequence itself (F, P or J)
    rather than the generic five-term window, so they give an independent
    cross-check of the variant-1 power form.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    system = classic_system(name).system
    return reference_power_from_window(name, h_window(system.r, system.s, n))


def reference_power_from_window(name: str, h: tuple) -> Matrix:
    """The tabulated power form for h the window of :func:`h_window` at n,
    taken over the named system's own (r, s)."""
    if name == "fibonacci":
        f_nm3, f_nm2, f_nm1, f_n, f_np1, _ = h
        return Matrix([
            [f_n, -f_nm1, -f_np1],
            [-f_nm2, f_nm3, f_nm1],
            [-f_nm1, f_nm2, f_n],
        ])
    if name == "pell":
        _, p_nm2, p_nm1, p_n, p_np1, p_np2 = h
        return Fraction(1, 2) * Matrix([
            [p_np2 - p_np1, -(p_np1 - p_n), -2 * p_np1],
            [-(p_n - p_nm1), p_nm1 - p_nm2, 2 * p_nm1],
            [-(p_np1 - p_n), p_n - p_nm1, p_n],
        ])
    if name == "jacobsthal":
        _, j_nm2, j_nm1, j_n, j_np1, _ = h
        return Matrix([
            [2 * j_n, -(j_np1 - 2 * j_n), -j_np1],
            [-4 * j_nm2, 2 * (j_nm1 - 2 * j_nm2), 2 * j_nm1],
            [-2 * j_nm1, j_n - 2 * j_nm1, j_n],
        ])
    raise ValueError(f"unknown classic system {name!r}")

