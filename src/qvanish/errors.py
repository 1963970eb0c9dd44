"""Exception types shared across the package."""

__all__ = ["QvanishError", "NotAUnit", "OutOfRange", "InvalidParams", "Degenerate", "TooLarge"]


class QvanishError(Exception):
    """Base class for all package-specific errors."""


class NotAUnit(QvanishError, ArithmeticError):
    """Series inversion requires the lowest-order coefficient to be +1 or -1."""


class OutOfRange(QvanishError, IndexError):
    """Coefficient requested at or above the truncation order (unknown region)."""


class InvalidParams(QvanishError, ValueError):
    """Parameters violate a structural constraint (gcd, parity, range)."""


class Degenerate(InvalidParams):
    """Parameters force a factor (q^0; q^M)_inf = 0, so the quotient is identically zero."""


class TooLarge(QvanishError, ValueError):
    """Exhaustive enumeration would exceed the configured cap."""
