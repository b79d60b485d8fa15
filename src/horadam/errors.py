"""Exception types shared across the package."""


class HoradamError(Exception):
    """Base class for every error raised by this package."""


class DomainError(HoradamError, ValueError):
    """Parameters fall outside the validity domain of the requested operation."""


class DegenerateEigenbasisError(DomainError):
    """The requested eigenvector templates are linearly dependent (det P = 0)."""


class SingularMatrixError(HoradamError, ZeroDivisionError):
    """Attempted to invert a matrix whose determinant is zero."""
