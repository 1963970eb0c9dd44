"""Truncated Laurent series over arbitrary-precision integers.

A series is stored densely: a ``valuation`` (lowest represented exponent of
q, possibly negative), a block of integer coefficients, and an exclusive
``order``.  The coefficient of q^e is

* ``coeffs[e - valuation]``  for  valuation <= e < order,
* 0                          for  e < valuation  (zero by construction),
* unknown                    for  e >= order     (requesting it is an error).

Truncation is tracked conservatively through every operation: an exponent
beyond the order is never silently treated as zero, which is what keeps a
"this coefficient vanishes" check honest.  For the same reason two series
are compared only on their common known window, from the lower valuation up
to the lower order, by the one walk _first_difference.  All coefficients are
Python ints, so nothing ever rounds or overflows.

Multiplication and inversion work on whole coefficient blocks: a product
packs each block into one integer (Kronecker substitution) so that CPython's
big-int multiply does the convolution, and an inverse doubles its known
length by Newton iteration, at the cost of about two such products.

Instances are immutable; operations return new series and are safe to use
from multiple threads.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import repeat

from .errors import NotAUnit, OutOfRange

__all__ = ["LaurentSeries", "NotAUnit", "OutOfRange"]


def _pack(block: Sequence[int], w: int) -> int:
    """sum(block[i] * 2^(8*w*i)), each |block[i]| below 2^(8*w).

    Unsigned w-byte slots hold no negative value, so the positive parts and
    the negated negative parts are packed apart and subtracted.
    """
    pos = [c if c > 0 else 0 for c in block]
    neg = [-c if c < 0 else 0 for c in block]
    return _join(pos, w) - _join(neg, w)


def _join(block: list[int], w: int) -> int:
    """sum(block[i] * 2^(8*w*i)) for 0 <= block[i] < 2^(8*w)."""
    slots = b"".join(map(int.to_bytes, block, repeat(w), repeat("little")))
    return int.from_bytes(slots, "little")


def _mul_low(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first n coefficients of the product of the blocks a and b, exactly.

    Kronecker substitution: with X = 2^(8*w), a and b become the integers
    a(X) and b(X), and CPython's big-int multiply does the convolution.  A
    product coefficient below n sums at most n products of two coefficients,
    so its magnitude is below 2^(bits + n.bit_length()) where bits adds the
    largest bit lengths of a and b; one more bit for the sign, and each fits
    its w-byte slot.  Coefficients at n and above may not fit, but they only
    add multiples of X^n, which the mask drops.  Adding 2^(8*w - 1) to every
    low slot makes each a nonnegative digit, which unpacks as one slice.
    """
    a, b = a[:n], b[:n]
    bits = max(map(int.bit_length, a), default=0) + max(map(int.bit_length, b), default=0)
    w = (bits + n.bit_length() + 8) // 8
    bias = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    low = (_pack(a, w) * _pack(b, w) + bias) & ((1 << (8 * w * n)) - 1)
    digits = low.to_bytes(w * n, "little")
    half = 1 << (8 * w - 1)
    return [int.from_bytes(digits[i : i + w], "little") - half for i in range(0, w * n, w)]


def _first_difference(a: LaurentSeries, b: LaurentSeries) -> int | None:
    """Lowest exponent where a and b differ on their common known window, or None.

    The window runs from the lower valuation, below which a series is zero by
    construction, up to the lower order; nothing past that order is read.
    """
    for e in range(min(a.valuation, b.valuation), min(a.order, b.order)):
        if a.coeff_at(e) != b.coeff_at(e):
            return e
    return None


class LaurentSeries:
    """A truncated Laurent series with exact integer coefficients."""

    __slots__ = ("_valuation", "_coeffs", "_order")

    def __init__(self, valuation: int, coeffs: Sequence[int], order: int | None = None):
        coeffs = tuple(coeffs)
        if order is None:
            order = valuation + len(coeffs)
        if order - valuation != len(coeffs):
            raise ValueError(
                f"coefficient block has length {len(coeffs)}, "
                f"expected order - valuation = {order - valuation}"
            )
        self._valuation = valuation
        self._coeffs = coeffs
        self._order = order

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "LaurentSeries":
        """The constant series 1 known on [0, order)."""
        if order <= 0:
            return cls(order, (), order)
        return cls(0, (1,) + (0,) * (order - 1), order)

    # -- inspection ---------------------------------------------------------

    @property
    def valuation(self) -> int:
        return self._valuation

    @property
    def order(self) -> int:
        """Exclusive upper bound of the known exponent window."""
        return self._order

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def coeff_at(self, e: int) -> int:
        """Exact coefficient of q^e.

        Below the valuation the coefficient is zero by construction; at or
        above the order it is unknown and asking for it raises OutOfRange.
        """
        if e >= self._order:
            raise OutOfRange(
                f"coefficient of q^{e} is beyond the truncation order {self._order}"
            )
        if e < self._valuation:
            return 0
        return self._coeffs[e - self._valuation]

    __getitem__ = coeff_at

    def items(self) -> Iterator[tuple[int, int]]:
        """Iterate (exponent, coefficient) over the stored window."""
        for i, c in enumerate(self._coeffs):
            yield self._valuation + i, c

    def true_valuation(self) -> int | None:
        """Lowest exponent with a nonzero known coefficient, or None if all zero."""
        for e, c in self.items():
            if c:
                return e
        return None

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self._valuation, tuple(-c for c in self._coeffs), self._order)

    def _constant(self, c: int) -> "LaurentSeries":
        """The constant c, known on [0, self.order) or at least at q^0."""
        return LaurentSeries(0, (c,) + (0,) * max(0, self._order - 1), max(self._order, 1))

    def __add__(self, other: "LaurentSeries | int") -> "LaurentSeries":
        if isinstance(other, int):
            other = self._constant(other)
        elif not isinstance(other, LaurentSeries):
            return NotImplemented
        val = min(self._valuation, other._valuation)
        order = min(self._order, other._order)
        out = [0] * (order - val)
        for s in (self, other):
            lo, hi = s._valuation, min(s._order, order)
            if hi > lo:
                block = s._coeffs[: hi - lo]
                out[lo - val : hi - val] = [x + y for x, y in zip(out[lo - val : hi - val], block)]
        return LaurentSeries(val, out, order)

    __radd__ = __add__

    def __sub__(self, other: "LaurentSeries | int") -> "LaurentSeries":
        if isinstance(other, (LaurentSeries, int)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: "LaurentSeries | int") -> "LaurentSeries":
        return (-self) + other

    def __mul__(self, other: "LaurentSeries | int") -> "LaurentSeries":
        """Cauchy product, or the scalar product with an int.

        The product of two series is one big-int multiply of their packed
        coefficient blocks (see _mul_low for why the slot width is safe).
        """
        if isinstance(other, int):
            return LaurentSeries(
                self._valuation, tuple(c * other for c in self._coeffs), self._order
            )
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # Known window of a Cauchy product: error terms of one factor meet the
        # valuation of the other, so only min(len_a, len_b) offsets survive.
        n = min(len(self._coeffs), len(other._coeffs))
        val = self._valuation + other._valuation
        return LaurentSeries(val, _mul_low(self._coeffs, other._coeffs, n), val + n)

    __rmul__ = __mul__

    def monomial_mul(self, sign: int, exponent: int) -> "LaurentSeries":
        """Multiply by sign * q^exponent: shift every exponent, scale every sign."""
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        coeffs = self._coeffs if sign == 1 else tuple(-c for c in self._coeffs)
        return LaurentSeries(self._valuation + exponent, coeffs, self._order + exponent)

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse, valid when the lowest nonzero coefficient is +-1.

        mul(self, self.invert()) == 1 on the jointly known window; the
        inverse has valuation -v where v is the true valuation.  Newton
        iteration g <- g*(2 - a*g) doubles the number of correct terms with
        two block products per step; every step stays integral because the
        lowest coefficient is +-1.
        """
        v = self.true_valuation()
        if v is None:
            raise NotAUnit("cannot invert: no nonzero coefficient in the known window")
        u0 = self._coeffs[v - self._valuation]
        if u0 not in (1, -1):
            raise NotAUnit(f"cannot invert: lowest coefficient is {u0}, not +1 or -1")
        a = self._coeffs[v - self._valuation :]
        n = len(a)
        g = [u0]  # 1/u0 == u0 for a unit +-1
        k = 1
        while k < n:
            # a*g == 1 + q^k*h below q^k2, so g - q^k*g*h is right below q^k2.
            k2 = min(2 * k, n)
            h = _mul_low(a, g, k2)[k:]
            g += [-c for c in _mul_low(g, h, k2 - k)]
            k = k2
        return LaurentSeries(-v, g, -v + n)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equality on the common known window, up to min(order)."""
        if isinstance(other, int):
            other = self._constant(other)
        elif not isinstance(other, LaurentSeries):
            return NotImplemented
        return _first_difference(self, other) is None

    __hash__ = None  # equality is window-relative; hashing would be misleading

    # -- formatting ---------------------------------------------------------

    def q_string(self, max_terms: int = 12) -> str:
        """Human-readable polynomial form, e.g. '1 - q - q^2 + q^5 + O(q^6)'."""
        parts: list[str] = []
        shown = 0
        for e, c in self.items():
            if not c:
                continue
            if shown == max_terms:
                parts.append("+ ...")
                break
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                power = "q" if e == 1 else f"q^{e}"
                term = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
            shown += 1
        if not parts:
            parts.append("0")
        parts.append(f"+ O(q^{self._order})")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.q_string()

    def __repr__(self) -> str:
        return f"<LaurentSeries [{self._valuation}, {self._order}): {self.q_string(6)}>"
