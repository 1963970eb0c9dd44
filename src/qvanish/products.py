"""Infinite-product expansion and the bilateral-series identities behind it.

The objects here are quotients of q-Pochhammer symbols

    (x; q^M)_inf = prod_{i>=0} (1 - x q^{iM}),  x = +-q^a,

truncated to a finite exponent window.  Expansion works one linear factor
(1 -+ q^e) at a time: multiplying by such a factor is a single shifted
subtraction pass, dividing by it is a running-sum pass along each residue
chain mod e.  Both cost O(order) per linear factor, so a full Pochhammer
symbol costs O(order^2 / M) and stays comfortably fast in pure Python at
window sizes of a few thousand.

expand_paired computes the same quotients faster when factors pair up as
(x q^a, x q^{M-a}; q^M): by the triple product each pair is a sparse theta
series over (q^M; q^M), so the quotient becomes sparse series multiplied and
divided at O(order * sqrt(order / M)) each.

Beyond plain expansion the module knows three classical facts needed by the
vanishing-coefficient checks:

* the Jacobi triple product in theta form,
      sum_{j in Z} (-1)^j q^{M j(j+1)/2 - a j} = (q^a, q^{M-a}, q^M; q^M)_inf,
* a one-parameter specialization of Ramanujan's bilateral 1psi1 summation,
  whose left side is a difference of two Lambert-type sums and whose right
  side is a quotient of eight Pochhammer factors, and
* a reindexing cancellation between two Lambert-type sums that is the
  arithmetic heart of why the specialized series has a vanishing residue
  class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, isqrt
from operator import add, sub
from typing import Iterable, Sequence

from .errors import Degenerate, InvalidParams
from .series import LaurentSeries

__all__ = [
    "PochhammerFactor",
    "ProductSpec",
    "BilateralSpecialization",
    "IdentityCheck",
    "pochhammer",
    "expand_factor",
    "expand_product",
    "expand_paired",
    "jtp_theta",
    "jtp_product_spec",
    "lambert_series",
    "bilateral_product_spec",
    "compare_series",
    "verify_1psi1",
    "cancellation_check",
]


@dataclass(frozen=True)
class PochhammerFactor:
    """One symbol (arg_sign * q^offset; q^modulus)_inf with offset >= 1.

    Offsets at or above the modulus are legal; the constant term is always 1,
    so the factor is invertible as a power series.
    """

    arg_sign: int
    offset: int
    modulus: int

    def __post_init__(self):
        if self.arg_sign not in (1, -1):
            raise InvalidParams(f"arg_sign must be +1 or -1, got {self.arg_sign}")
        if self.offset < 1:
            raise InvalidParams(f"offset must be >= 1, got {self.offset}")
        if self.modulus < 1:
            raise InvalidParams(f"modulus must be >= 1, got {self.modulus}")

    def __str__(self) -> str:
        x = f"q^{self.offset}" if self.offset != 1 else "q"
        if self.arg_sign < 0:
            x = "-" + x
        return f"({x}; q^{self.modulus})"


def pochhammer(
    offsets: Iterable[int], modulus: int, sign: int = 1
) -> tuple[PochhammerFactor, ...]:
    """Factors (sign*q^a; q^modulus)_inf for each offset a, in the given order."""
    return tuple(PochhammerFactor(sign, a, modulus) for a in offsets)


@dataclass(frozen=True)
class ProductSpec:
    """prefactor_sign * q^prefactor_exponent * prod(numerator) / prod(denominator).

    Factors are kept symbolic and uncancelled so a spec can mirror the exact
    shape of the quotient being studied.
    """

    prefactor_sign: int
    prefactor_exponent: int
    numerator: tuple[PochhammerFactor, ...]
    denominator: tuple[PochhammerFactor, ...]

    def __post_init__(self):
        if self.prefactor_sign not in (1, -1):
            raise InvalidParams(f"prefactor_sign must be +1 or -1, got {self.prefactor_sign}")
        object.__setattr__(self, "numerator", tuple(self.numerator))
        object.__setattr__(self, "denominator", tuple(self.denominator))

    def __str__(self) -> str:
        pre = ""
        if self.prefactor_sign < 0:
            pre += "-"
        if self.prefactor_exponent:
            pre += f"q^{self.prefactor_exponent}*"
        num = "*".join(str(f) for f in self.numerator) or "1"
        if not self.denominator:
            return f"{pre}{num}"
        den = "*".join(str(f) for f in self.denominator)
        return f"{pre}{num} / {den}"


# -- expansion ---------------------------------------------------------------


def _mul_linear(coeffs: list[int], e: int, sign: int) -> None:
    """In place, multiply by (1 - sign*q^e)."""
    coeffs[e:] = [x - sign * y for x, y in zip(coeffs[e:], coeffs)]


def _div_linear(coeffs: list[int], e: int, sign: int) -> None:
    """In place, divide by (1 - sign*q^e): y_n = x_n + sign*y_{n-e}."""
    n = len(coeffs)
    for res in range(min(e, n)):
        chain = coeffs[res::e]
        if sign == 1:
            coeffs[res::e] = accumulate(chain)
        else:
            coeffs[res::e] = accumulate(chain, lambda acc, x: x - acc)


def expand_factor(f: PochhammerFactor, order: int) -> LaurentSeries:
    """Truncated expansion of a single Pochhammer symbol; window [0, order)."""
    if order < 0:
        raise InvalidParams(f"order must be >= 0, got {order}")
    if order == 0:
        return LaurentSeries(0, (), 0)
    coeffs = [0] * order
    coeffs[0] = 1
    for e in range(f.offset, order, f.modulus):
        _mul_linear(coeffs, e, f.arg_sign)
    return LaurentSeries(0, coeffs, order)


def _linear_passes(coeffs: list[int], numerator, denominator, stop: int) -> None:
    """In place, apply every linear factor (1 -+ q^e) with e < stop of each factor."""
    for f in numerator:
        for e in range(f.offset, stop, f.modulus):
            _mul_linear(coeffs, e, f.arg_sign)
    for f in denominator:
        for e in range(f.offset, stop, f.modulus):
            _div_linear(coeffs, e, f.arg_sign)


def _window(spec: ProductSpec, order: int) -> int:
    """Length of the coefficient block expanded for spec up to order."""
    length = order - spec.prefactor_exponent
    if length < 0:
        raise InvalidParams(
            f"order {order} is below the prefactor exponent {spec.prefactor_exponent}"
        )
    return length


def expand_product(spec: ProductSpec, order: int) -> LaurentSeries:
    """Exact expansion of the denoted quotient; window [prefactor_exponent, order)."""
    length = _window(spec, order)
    if length == 0:
        return LaurentSeries(order, (), order)
    coeffs = [0] * length
    coeffs[0] = 1
    _linear_passes(coeffs, spec.numerator, spec.denominator, length)
    return LaurentSeries(0, coeffs, length).monomial_mul(
        spec.prefactor_sign, spec.prefactor_exponent
    )


# -- Jacobi triple product ---------------------------------------------------


def _theta_terms(M: int, a: int, order: int, z: int = -1) -> dict[int, int]:
    """Exponent -> coefficient of sum_{j in Z} z^j q^{M*j*(j+1)/2 - a*j} below order.

    Every exponent some j reaches is a key, also where the terms cancel to 0.
    """
    # Exponent E(j) = M*j(j+1)/2 - a*j is below `order` between the roots of
    # M*j^2 + (M - 2a)*j - 2*order = 0; scan that j-range with exact checks.
    b = M - 2 * a
    disc = b * b + 8 * M * order
    terms: dict[int, int] = {}
    if disc >= 0:
        root = isqrt(disc)
        lo = (-b - root) // (2 * M) - 1
        hi = (-b + root) // (2 * M) + 1
        for j in range(lo, hi + 1):
            e = M * j * (j + 1) // 2 - a * j
            if e < order:
                terms[e] = terms.get(e, 0) + (1 if z == 1 or j % 2 == 0 else -1)
    return terms


def jtp_theta(M: int, a: int, order: int) -> LaurentSeries:
    """The theta sum sum_{j in Z} (-1)^j q^{M*j*(j+1)/2 - a*j}, truncated.

    For 0 < a < M this equals the product (q^a, q^{M-a}, q^M; q^M)_inf.  Any
    integer a is accepted; outside that range the minimal exponent can go
    negative and the series picks up a negative valuation.
    """
    if M < 1:
        raise InvalidParams(f"M must be >= 1, got {M}")
    if order < 0:
        raise InvalidParams(f"order must be >= 0, got {order}")
    terms = _theta_terms(M, a, order)
    if not terms:
        return LaurentSeries(order, (), order)
    val = min(min(terms), order)
    coeffs = [0] * (order - val)
    for e, c in terms.items():
        coeffs[e - val] = c
    return LaurentSeries(val, coeffs, order)


def jtp_product_spec(M: int, a: int) -> ProductSpec:
    """Product side (q^a, q^{M-a}, q^M; q^M)_inf of the triple product, 0 < a < M."""
    if not 0 < a < M:
        raise InvalidParams(f"need 0 < a < M, got a={a}, M={M}")
    return ProductSpec(1, 0, pochhammer((a, M - a, M), M), ())


# -- paired (theta) expansion ------------------------------------------------


def _mul_sparse(coeffs: list[int], terms: list[tuple[int, int]]) -> list[int]:
    """coeffs times 1 + sum(c q^e for (e, c) in terms), every e >= 1."""
    out = coeffs[:]
    for e, c in terms:
        op = add if c > 0 else sub
        for _ in range(abs(c)):
            out[e:] = map(op, out[e:], coeffs)
    return out


def _div_sparse(coeffs: list[int], terms: list[tuple[int, int]]) -> None:
    """In place, divide by 1 + sum(c q^e for (e, c) in terms), e >= 1 ascending.

    y_n = x_n - sum(c * y_{n-e}).  Between consecutive exponents the set of
    terms with e <= n is fixed; each coefficient then costs two sums over it,
    one for each sign, with |c| > 1 written as a repeated exponent.
    """
    added: list[int] = []  # e with y_{n-e} added, i.e. c < 0
    subtracted: list[int] = []
    stops = [e for e, _ in terms[1:]] + [len(coeffs)]
    for (e, c), stop in zip(terms, stops):
        (subtracted if c > 0 else added).extend([e] * abs(c))
        for n in range(e, stop):
            coeffs[n] += sum([coeffs[n - d] for d in added]) - sum(
                [coeffs[n - d] for d in subtracted]
            )


def _split_pairs(factors: Sequence[PochhammerFactor]):
    """Split a factor list into (unpaired factors, theta pairs, (q^M; q^M) powers).

    A pair (x q^a, x q^{M-a}; q^M) with 0 < a < M is recorded as (-x, a, M):
    by the triple product it equals sum_j (-x)^j q^{M j(j+1)/2 - a j} divided
    by (q^M; q^M), so each pair lowers the power of (q^M; q^M) by one and
    each factor (q^M; q^M) itself raises it by one.
    """
    pool = Counter((f.arg_sign, f.offset, f.modulus) for f in factors)
    pairs: list[tuple[int, int, int]] = []
    powers: Counter[int] = Counter()
    for key in sorted(pool):
        x, a, M = key
        if x == 1 and a == M:
            powers[M] += pool.pop(key)
        elif 0 < a < M:
            partner = (x, M - a, M)
            n = pool[key] // 2 if partner == key else min(pool[key], pool[partner])
            pool[key] -= n
            pool[partner] -= n
            pairs += [(-x, a, M)] * n
            powers[M] -= n
    unpaired = [PochhammerFactor(*key) for key, n in sorted(pool.items()) for _ in range(n)]
    return unpaired, pairs, powers


def expand_paired(
    spec: ProductSpec, order: int, max_exponent: int | None = None
) -> LaurentSeries:
    """expand_product(spec, order), dividing out factor pairs by the triple product.

    Pairs (x q^a, x q^{M-a}; q^M) become sparse theta series, the net power of
    each (q^M; q^M) is applied through Euler's pentagonal series (the theta
    series of (q^M, q^{2M}, q^{3M}; q^{3M})), and sparse numerators and
    denominators are multiplied and divided in O(order * sqrt(order / M))
    each.  Unpaired factors take the linear passes of expand_product.

    With max_exponent, only the linear factors (1 -+ q^e) with e <=
    max_exponent are kept.  Such a truncated product is no theta series, so
    when the cap falls inside the window every factor takes the linear path.
    """
    length = _window(spec, order)
    if length == 0:
        return LaurentSeries(order, (), order)
    coeffs = [0] * length
    coeffs[0] = 1
    if max_exponent is not None and max_exponent < length - 1:
        _linear_passes(coeffs, spec.numerator, spec.denominator, max_exponent + 1)
    else:
        num, num_pairs, num_powers = _split_pairs(spec.numerator)
        den, den_pairs, den_powers = _split_pairs(spec.denominator)
        num_powers.subtract(den_powers)
        for M, power in sorted(num_powers.items()):
            pentagonal = [(-1, M, 3 * M)] * abs(power)
            if power > 0:
                num_pairs += pentagonal
            else:
                den_pairs += pentagonal
        _linear_passes(coeffs, num, den, length)

        def sparse(z, a, M):
            return sorted((e, c) for e, c in _theta_terms(M, a, length, z).items() if e and c)

        for pair in num_pairs:
            coeffs = _mul_sparse(coeffs, sparse(*pair))
        for pair in den_pairs:
            _div_sparse(coeffs, sparse(*pair))
    return LaurentSeries(0, coeffs, length).monomial_mul(
        spec.prefactor_sign, spec.prefactor_exponent
    )


# -- the specialized bilateral summation -------------------------------------


@dataclass(frozen=True)
class BilateralSpecialization:
    """Parameters (m, k, t, r) of the bilateral sum under study.

    Encodes sum_{n in Z} q^{rn} / (1 - q^{n*mk - tk}), the one-parameter
    specialization whose closed form is a Pochhammer quotient.  Constraints:
    m, k > 1, 1 <= t < m, and 1 <= r < mk so both unilateral halves of the
    sum are genuine power series.
    """

    m: int
    k: int
    t: int
    r: int

    def __post_init__(self):
        if self.m < 2 or self.k < 2:
            raise InvalidParams(f"need m, k > 1, got m={self.m}, k={self.k}")
        if not 1 <= self.t < self.m:
            raise InvalidParams(f"need 1 <= t < m, got t={self.t}, m={self.m}")
        if not 1 <= self.r < self.m * self.k:
            raise InvalidParams(
                f"need 1 <= r < m*k = {self.m * self.k}, got r={self.r}"
            )


def lambert_series(p: BilateralSpecialization, order: int) -> LaurentSeries:
    """The bilateral sum for p, written as two unilateral Lambert-type sums.

    Returns sum_{n>=0} q^{rn}/(1-q^{n*mk-tk}) - sum_{n>=1} q^{n*mk+tk-rn}/(1-q^{n*mk+tk})
    on the window [0, order).  The n=0 term of the first sum has a negative
    exponent in its denominator and is normalized through
    1/(1-q^{-c}) = -q^c/(1-q^c), so the result is an ordinary power series.
    """
    if order < 0:
        raise InvalidParams(f"order must be >= 0, got {order}")
    m, k, t, r = p.m, p.k, p.t, p.r
    mk, tk = m * k, t * k
    c = [0] * order
    # n = 0: 1/(1-q^{-tk}) = -q^{tk}/(1-q^{tk}) = -(q^{tk} + q^{2tk} + ...)
    for e in range(tk, order, tk):
        c[e] -= 1
    n = 1
    while r * n < order:
        for e in range(r * n, order, n * mk - tk):
            c[e] += 1
        n += 1
    n = 1
    while n * (mk - r) + tk < order:
        for e in range(n * (mk - r) + tk, order, n * mk + tk):
            c[e] -= 1
        n += 1
    return LaurentSeries(0, c, order)


def bilateral_product_spec(p: BilateralSpecialization) -> ProductSpec:
    """Closed product form of -q^{-tk} times the bilateral sum for p.

    The quotient is
        (q^{mk}, q^{mk}; q^{mk}) (q^{r-tk}, q^{mk-(r-tk)}; q^{mk})
        / [(q^{tk}, q^{mk-tk}; q^{mk}) (q^{r}, q^{mk-r}; q^{mk})].
    When r < tk the pair with negative offset r-tk is rewritten through
        (q^{-c}, q^{mk+c}; q^{mk}) = -q^{-c} (q^{c}, q^{mk-c}; q^{mk}),  c = tk-r,
    so the spec only ever holds positive offsets.
    """
    m, k, t, r = p.m, p.k, p.t, p.r
    mk, tk = m * k, t * k
    if r == tk:
        raise Degenerate(
            f"r = tk = {r}: the closed form carries a factor (q^0; q^{mk}) = 0"
        )
    sign, pre = 1, 0
    if r > tk:
        shifted = (r - tk, mk - (r - tk))
    else:
        sign, pre = -1, r - tk
        shifted = (tk - r, mk - (tk - r))
    num = pochhammer((mk, mk) + shifted, mk)
    den = pochhammer((tk, mk - tk, r, mk - r), mk)
    return ProductSpec(sign, pre, num, den)


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of comparing two series: truthy when they agree everywhere known."""

    ok: bool
    exponent: int | None = None
    lhs: int | None = None
    rhs: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def compare_series(lhs: LaurentSeries, rhs: LaurentSeries) -> IdentityCheck:
    """Compare two series over their common known window."""
    lo = min(lhs.valuation, rhs.valuation)
    hi = min(lhs.order, rhs.order)
    for e in range(lo, hi):
        cl, cr = lhs.coeff_at(e), rhs.coeff_at(e)
        if cl != cr:
            return IdentityCheck(False, e, cl, cr)
    return IdentityCheck(True)


def verify_1psi1(
    p: BilateralSpecialization, order: int, rhs_spec: ProductSpec | None = None
) -> IdentityCheck:
    """Check -q^{-tk} * (bilateral sum) against its closed product form.

    Both sides are expanded independently: the left from the two Lambert-type
    sums, the right from bilateral_product_spec(p) (or an explicitly supplied
    spec, which lets tests run deliberately broken right sides).  Returns a
    truthy IdentityCheck, or a falsy one carrying the first disagreement.
    """
    tk = p.t * p.k
    lhs = lambert_series(p, order + tk).monomial_mul(-1, -tk)
    if rhs_spec is None:
        rhs_spec = bilateral_product_spec(p)
    rhs = expand_product(rhs_spec, order)
    return compare_series(lhs, rhs)


def cancellation_check(p: BilateralSpecialization, s: int, order: int) -> IdentityCheck:
    """Truthy iff two reindexed Lambert-type sums cancel exactly up to order.

    The sums are
        sum_{n>=1} q^{r(nk-s)} / (1 - q^{(nk-s)mk - tk})   and
        sum_{n>=0} q^{(nk+s)mk + tk - r(nk+s)} / (1 - q^{(nk+s)mk + tk}).
    They coincide exactly when r = sm + t; with any other r the function
    simply reports the mismatch (negative control).  The s = 0 boundary term
    q^{tk}/(1-q^{tk}) on the right is covered by the same loops.
    """
    if not 0 <= s < p.k:
        raise InvalidParams(f"need 0 <= s < k = {p.k}, got s={s}")
    if order < 0:
        raise InvalidParams(f"order must be >= 0, got {order}")
    m, k, t, r = p.m, p.k, p.t, p.r
    mk, tk = m * k, t * k
    pos = [0] * order
    neg = [0] * order
    n = 1
    while r * (n * k - s) < order:
        big = n * k - s
        for e in range(r * big, order, big * mk - tk):
            pos[e] += 1
        n += 1
    n = 0
    while (n * k + s) * (mk - r) + tk < order:
        big = n * k + s
        for e in range(big * (mk - r) + tk, order, big * mk + tk):
            neg[e] += 1
        n += 1
    for e, (a, b) in enumerate(zip(pos, neg)):
        if a != b:
            return IdentityCheck(False, e, a, b)
    return IdentityCheck(True)
