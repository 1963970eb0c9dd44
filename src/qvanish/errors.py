"""Exception types shared across the package, and the one lower-bound guard."""

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


def at_least(name: str, value: int, low: int) -> None:
    """Refuse a count or window length below its minimum, naming the input."""
    if value < low:
        raise InvalidParams(f"{name} must be >= {low}, got {value}")
