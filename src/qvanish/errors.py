"""Exception types shared across the package, the one lower-bound guard, and
the base of the package's value types."""

from operator import attrgetter

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


class Frozen:
    """Base of the package's value types: immutable, slotted, compared by fields.

    A subclass lists its fields in ``__slots__``, in constructor order.  Its
    ``__init__`` validates and normalizes the arguments, then passes the final
    values to ``Frozen.__init__`` in field order, the one place a field is
    written.  The base gives it read-only fields, ``_fields``
    (the field names) and ``_asdict()``, ``==`` over the field values with
    the exact same type only, the hash of the tuple of field values, the
    repr ``Name(field=value, ...)`` and pickling through the constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__dict__.get("__slots__")
        if not fields:  # a subclass without fields of its own keeps its parent's
            return
        get = attrgetter(*fields)
        if len(fields) == 1:  # attrgetter of one name gives the value, not a 1-tuple
            get = lambda value, one=get: (one(value),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash(get(self))

        cls._fields, cls.__eq__, cls.__hash__ = fields, __eq__, __hash__

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"expected {len(self._fields)} field values, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, tuple(self._asdict().values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(value: Frozen, **changes) -> Frozen:
    """A copy of value with the given fields changed, validated as a new value."""
    return value.__class__(**{**value._asdict(), **changes})
