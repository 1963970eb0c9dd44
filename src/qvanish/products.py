"""Infinite-product expansion and the bilateral-series identities behind it.

The objects here are quotients of q-Pochhammer symbols

    (x; q^M)_inf = prod_{i>=0} (1 - x q^{iM}),  x = +-q^a,

truncated to a finite exponent window.  A finite product needs no form of
its own: (x; q^M)_N = (x; q^M)_inf / (x q^{NM}; q^M)_inf.  expand_product is
the one entry point.  Every factor becomes a key with a signed power: pairs
(x q^a, x q^{M-a}; q^M) and each (q^M; q^M) become sparse theta series by the
triple product, and any symbol left over stays whole.  Any series or symbol
in both the numerator and the denominator cancels.  A theta series
multiplies or divides in O(order * sqrt(order / M)).

Every kernel takes the window and returns the new window, and its caller
rebinds, coeffs = kernel(coeffs, ...); no kernel writes its input.  A
multiply by (1 -+ q^e) reads its input e places back, a divide its own
output.  Both are one pass, O(order).  A whole symbol,
p = q^M, multiplies by Euler's series and divides by Cauchy's:

    (x; p)_inf   = sum_{n>=0} (-x)^n p^{n(n-1)/2} / (p; p)_n,
    1/(x; p)_inf = sum_{n>=0} x^n p^{n^2-n} / ((p; p)_n (x; p)_n).

Each is applied by Horner nesting from the deepest level out: R_{n-1} =
C + t_n R_n, with t_n = -x p^{n-1} / (1 - p^n) for Euler's series and
t_n = x p^{2(n-1)} / ((1 - p^n)(1 - x p^{n-1})) for Cauchy's, C the series
it applies to and R_0 the result.  Level n is needed only on the first
length - E_n coefficients, E_n = a n + M n(n-1)/2 (Euler) or a n + M n(n-1)
(Cauchy), so a symbol takes about sqrt(2 order / M) or sqrt(order / M)
levels of one or two divide passes and one slice add each:
O(order * sqrt(order / M)).

Finite products keep their linear cost.  A symbol (x; q^M) and the nearest
(x q^{NM}; q^M), N >= 1, on the other side make (x; q^M)_N, whose head is its
N linear factors below the window; a symbol with no such partner has all
its linear factors below the window as its head.  The head's linear factors
replace the symbol and its partner whenever they are no more than the
Horner passes the two would take: one per Euler level, two per Cauchy level.

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
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, count, repeat
from math import isqrt
from operator import add, attrgetter, sub

from .errors import Degenerate, Frozen, InvalidParams, at_least
from .series import LaurentSeries, _first_difference

__all__ = [
    "PochhammerFactor",
    "ProductSpec",
    "BilateralSpecialization",
    "IdentityCheck",
    "pochhammer",
    "expand_factor",
    "expand_product",
    "jtp_theta",
    "jtp_product_spec",
    "lambert_series",
    "bilateral_product_spec",
    "compare_series",
    "verify_1psi1",
    "cancellation_check",
]


class PochhammerFactor(Frozen):
    """One symbol (arg_sign * q^offset; q^modulus)_inf with offset >= 1.

    Offsets at or above the modulus are legal; the constant term is always 1,
    so the factor is invertible as a power series.
    """

    __slots__ = ("arg_sign", "offset", "modulus")

    def __init__(self, arg_sign: int, offset: int, modulus: int):
        if arg_sign not in (1, -1):
            raise InvalidParams(f"arg_sign must be +1 or -1, got {arg_sign}")
        at_least("offset", offset, 1)
        at_least("modulus", modulus, 1)
        super().__init__(arg_sign, offset, modulus)

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


class ProductSpec(Frozen):
    """prefactor_sign * q^prefactor_exponent * prod(numerator) / prod(denominator).

    Factors are kept symbolic and uncancelled so a spec can mirror the exact
    shape of the quotient being studied.
    """

    __slots__ = ("prefactor_sign", "prefactor_exponent", "numerator", "denominator")

    def __init__(
        self,
        prefactor_sign: int,
        prefactor_exponent: int,
        numerator: Iterable[PochhammerFactor],
        denominator: Iterable[PochhammerFactor],
    ):
        if prefactor_sign not in (1, -1):
            raise InvalidParams(f"prefactor_sign must be +1 or -1, got {prefactor_sign}")
        super().__init__(prefactor_sign, prefactor_exponent, tuple(numerator), tuple(denominator))

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


def _mul_linear(coeffs: list[int], e: int, sign: int) -> list[int]:
    """coeffs times (1 - sign*q^e): z_n = x_n - sign*x_{n-e}."""
    z = coeffs[:e]
    z.extend(map(sub if sign == 1 else add, coeffs[e:], coeffs))
    return z


def _div_linear(coeffs: list[int], e: int, sign: int) -> list[int]:
    """coeffs divided by (1 - sign*q^e): y_n = x_n + sign*y_{n-e}.

    extend appends each y_n as the map forms it, and the map's iterator
    over y stays e >= 1 places behind, so it reads only final coefficients.
    A runtime whose extend drew the whole map first would stop short, and
    the assert says so.
    """
    y = coeffs[:e]
    y.extend(map(add if sign == 1 else sub, coeffs[e:], y))
    assert len(y) == len(coeffs)
    return y


def expand_factor(f: PochhammerFactor, order: int) -> LaurentSeries:
    """Truncated expansion of a single Pochhammer symbol; window [0, order).

    It runs its own multiply passes, so it shares neither pairing nor
    division with expand_product and can check both independently.
    """
    at_least("order", order, 0)
    coeffs = [1] + [0] * (order - 1) if order else []
    for e in range(f.offset, order, f.modulus):
        coeffs = _mul_linear(coeffs, e, f.arg_sign)
    return LaurentSeries(0, coeffs, order)


# -- Jacobi triple product ---------------------------------------------------


def _theta_window(M: int, a: int, order: int) -> Iterator[tuple[int, int]]:
    """(j, E(j)) for every j with E(j) = M*j*(j+1)/2 - a*j below order, by ascending j."""
    # E(j) < order iff (2*M*j + b)^2 < disc, so every such j has
    # |2*M*j + b| <= isqrt(disc); scan that j-range with exact checks.
    b = M - 2 * a
    disc = b * b + 8 * M * order
    if disc < 0:
        return
    root = isqrt(disc)
    for j in range((-b - root) // (2 * M), (-b + root) // (2 * M) + 1):
        e = M * j * (j + 1) // 2 - a * j
        if e < order:
            yield j, e


def _theta_terms(M: int, a: int, order: int, z: int = -1) -> dict[int, int]:
    """Exponent -> coefficient of sum_{j in Z} z^j q^{M*j*(j+1)/2 - a*j} below order.

    Every exponent some j reaches is a key, also where the terms cancel to 0.
    """
    terms: dict[int, int] = {}
    for j, e in _theta_window(M, a, order):
        terms[e] = terms.get(e, 0) + (1 if z == 1 or j % 2 == 0 else -1)
    return terms


def jtp_theta(M: int, a: int, order: int) -> LaurentSeries:
    """The theta sum sum_{j in Z} (-1)^j q^{M*j*(j+1)/2 - a*j}, truncated.

    For 0 < a < M this equals the product (q^a, q^{M-a}, q^M; q^M)_inf.  Any
    integer a is accepted; outside that range the minimal exponent can go
    negative and the series picks up a negative valuation.
    """
    at_least("M", M, 1)
    at_least("order", order, 0)
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


# -- expansion: every factor a series with a signed power --------------------


def _mul_sparse(coeffs: list[int], terms: Sequence[tuple[int, int]]) -> list[int]:
    """coeffs times 1 + sum(c q^e for (e, c) in terms), every e >= 1.

    z_n = x_n + sum(c * x_{n-e}).  Each unit of |c| is one lag over x (or,
    for c < 0, over one negated copy of x) led by e zeros, and one zip with
    x first pairs them, so each coefficient costs one sum.
    """
    negated = [-x for x in coeffs]
    lags = [
        chain(repeat(0, e), coeffs if c > 0 else negated)
        for e, c in terms
        for _ in range(abs(c))
    ]
    return list(map(sum, zip(coeffs, *lags)))


def _div_sparse(coeffs: list[int], terms: Sequence[tuple[int, int]]) -> list[int]:
    """coeffs divided by 1 + sum(c q^e for (e, c) in terms), e >= 1 ascending.

    y_n = x_n - sum(c * y_{n-e}).  The quotient grows in two lists,
    pos = [y_0, y_1, ...] and neg = [-y_0, -y_1, ...].  Each unit of |c| is
    one reader, an iterator over neg if c > 0 or over pos if c < 0, that
    opens at n = e and so reads y_{n-e} (or -y_{n-e}) as y_n is formed.
    Between consecutive exponents the set of readers is fixed; each such
    segment zips its slice of x, first, with every open reader, so each
    coefficient costs one sum, and a segment ends without advancing a
    reader.  Every reader lags by its e >= 1, so none outruns its list.
    """
    if not terms:
        return coeffs
    pos = coeffs[: terms[0][0]]
    neg = [-x for x in pos]
    pos_append, neg_append = pos.append, neg.append
    readers: list[Iterator[int]] = []
    stops = [e for e, _ in terms[1:]] + [len(coeffs)]
    for (e, c), stop in zip(terms, stops):
        readers.extend(iter(neg if c > 0 else pos) for _ in range(abs(c)))
        for y in map(sum, zip(coeffs[e:stop], *readers)):
            pos_append(y)
            neg_append(-y)
    assert len(pos) == len(coeffs)
    return pos


def _theta_series(z: int, a: int, M: int, length: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (e, c), 1 <= e < length, of sum_j z^j q^{M j(j+1)/2 - a j}, ascending.

    For 0 < a < M the constant term is 1, so these are the terms of the
    series less 1.
    """
    return tuple(sorted((e, c) for e, c in _theta_terms(M, a, length, z).items() if e and c))


def _split_pairs(factors: Sequence[PochhammerFactor]):
    """Split a factor list into (unpaired (x, a, M), theta series (z, a, M)), each with its power.

    A pair (x q^a, x q^{M-a}; q^M) with 0 < a < M equals, by the triple
    product, sum_j (-x)^j q^{M j(j+1)/2 - a j} divided by (q^M; q^M).  And
    (q^M; q^M) is itself a theta series, Euler's pentagonal series (-1, M, 3M).
    So a pair adds 1 to (-x, a, M) and takes 1 from (-1, M, 3M), and a factor
    (q^M; q^M) adds 1 to (-1, M, 3M).
    """
    pool = Counter((f.arg_sign, f.offset, f.modulus) for f in factors)
    thetas: Counter[tuple[int, int, int]] = Counter()
    for key in sorted(pool):
        x, a, M = key
        if x == 1 and a == M:
            thetas[-1, M, 3 * M] += pool.pop(key)
        elif 0 < a < M:
            partner = (x, M - a, M)
            n = pool[key] // 2 if partner == key else min(pool[key], pool[partner])
            pool[key] -= n
            pool[partner] -= n
            thetas[-x, a, M] += n
            thetas[-1, M, 3 * M] -= n
    return pool, thetas


def _windows(f: PochhammerFactor, divide: bool, length: int) -> list[int]:
    """length - E_n for the levels n = 0, 1, ... of Euler's (or to divide, Cauchy's) series for f.

    Only levels whose window is not empty are listed.
    """
    step = f.modulus * (2 if divide else 1)
    windows, w, d = [], length, f.offset
    while w > 0:
        windows.append(w)
        w, d = w - d, d + step
    return windows


def _passes(f: PochhammerFactor, divide: bool, length: int) -> int:
    """The linear passes _horner makes: one per Euler level, two per Cauchy level."""
    return (len(_windows(f, divide, length)) - 1) * (1 + divide)


def _horner(coeffs: list[int], f: PochhammerFactor, divide: bool) -> list[int]:
    """coeffs times f by Euler's series, or divided by f by Cauchy's, by Horner nesting."""
    x, a, M = f.arg_sign, f.offset, f.modulus
    windows = _windows(f, divide, len(coeffs))
    op = add if (x if divide else -x) > 0 else sub
    r = coeffs[: windows[-1]]
    for n in range(len(windows) - 1, 0, -1):
        r = _div_linear(r, M * n, 1)
        if divide:
            r = _div_linear(r, a + M * (n - 1), x)
        outer = coeffs[: windows[n - 1]]
        shift = windows[n - 1] - windows[n]
        outer[shift:] = map(op, outer[shift:], r)
        r = outer
    return r


def _net_finite_products(net: Counter, length: int) -> None:
    """In net, trade each symbol, with its partner if any, for its head's linear keys when cheaper.

    The rule is the module docstring's finite-product rule; symbols are
    visited by ascending offset.
    """
    symbols = sorted((f for f in net if isinstance(f, PochhammerFactor)), key=attrgetter("offset"))
    for i, f in enumerate(symbols):
        n = net[f]
        if not n:
            continue
        x, a, M = f.arg_sign, f.offset, f.modulus
        tail = next(
            (g for g in symbols[i + 1 :]
             if net[g] * n < 0 and (g.arg_sign, g.modulus, g.offset % M) == (x, M, a % M)),
            None,
        )
        head, k, passes = range(a, length, M), n, _passes(f, n < 0, length)
        if tail is not None:
            head = range(a, min(tail.offset, length), M)
            k = min(n, -net[tail]) if n > 0 else max(n, -net[tail])
            passes += _passes(tail, n > 0, length)
        if len(head) <= passes:
            net[f] -= k
            if tail is not None:
                net[tail] += k
            for e in head:
                net[((e, -x),)] += k


def expand_product(spec: ProductSpec, order: int) -> LaurentSeries:
    """Exact expansion of the denoted quotient; window [prefactor_exponent, order).

    Every factor becomes a key with a signed power in one Counter: a pair or a
    (q^M; q^M) the terms of its theta series (see _split_pairs), any other
    symbol itself, traded for the terms of its linear factors by
    _net_finite_products where that is cheaper.  So any series or symbol on
    both sides cancels.  Multiplies run before divides.  A term c q^e with
    |c| = 1 takes a linear pass, a symbol _horner, any other series a sparse
    pass.  The multiply with the most terms, if more than one, is written into
    the window instead of run.
    """
    length = order - spec.prefactor_exponent
    if length < 0:
        raise InvalidParams(
            f"order {order} is below the prefactor exponent {spec.prefactor_exponent}"
        )
    if length == 0:
        return LaurentSeries(order, (), order)
    num, thetas = _split_pairs(spec.numerator)
    den, den_thetas = _split_pairs(spec.denominator)
    thetas.subtract(den_thetas)
    net: Counter = Counter()
    for key, n in thetas.items():
        if n:
            net[_theta_series(*key, length)] += n
    for pool, weight in ((num, 1), (den, -1)):
        for key, n in pool.items():
            if n:
                net[PochhammerFactor(*key)] += weight * n
    _net_finite_products(net, length)
    net.pop((), None)

    coeffs = [1] + [0] * (length - 1)
    series = (key for key, n in net.items() if n > 0 and isinstance(key, tuple))
    seed = max(series, key=len, default=())
    if len(seed) > 1:
        net[seed] -= 1
        for e, c in seed:
            coeffs[e] += c
    for key, n in sorted(net.items(), key=lambda item: item[1] < 0):
        for _ in range(abs(n)):
            if isinstance(key, PochhammerFactor):
                coeffs = _horner(coeffs, key, n < 0)
            elif len(key) == 1 and abs(key[0][1]) == 1:
                coeffs = (_mul_linear if n > 0 else _div_linear)(coeffs, key[0][0], -key[0][1])
            else:
                coeffs = (_mul_sparse if n > 0 else _div_sparse)(coeffs, key)
    return LaurentSeries(0, coeffs, length).monomial_mul(
        spec.prefactor_sign, spec.prefactor_exponent
    )


# -- the specialized bilateral summation -------------------------------------


class BilateralSpecialization(Frozen):
    """Parameters (m, k, t, r) of the bilateral sum under study.

    Encodes sum_{n in Z} q^{rn} / (1 - q^{n*mk - tk}), the one-parameter
    specialization whose closed form is a Pochhammer quotient.  Constraints:
    m, k > 1, 1 <= t < m, and 1 <= r < mk so both unilateral halves of the
    sum are genuine power series.
    """

    __slots__ = ("m", "k", "t", "r")

    def __init__(self, m: int, k: int, t: int, r: int):
        if m < 2 or k < 2:
            raise InvalidParams(f"need m, k > 1, got m={m}, k={k}")
        if not 1 <= t < m:
            raise InvalidParams(f"need 1 <= t < m, got t={t}, m={m}")
        if not 1 <= r < m * k:
            raise InvalidParams(f"need 1 <= r < m*k = {m * k}, got r={r}")
        super().__init__(m, k, t, r)


def _add_geometric(
    coeffs: list[int], progressions: Iterable[tuple[int, int]], delta: int
) -> None:
    """In place, add delta * q^start / (1 - q^step) for each (start, step).

    Starts must increase: the progressions are read only up to the first
    start past the window, so an endless generator is fine.
    """
    for start, step in progressions:
        if start >= len(coeffs):
            return
        for e in range(start, len(coeffs), step):
            coeffs[e] += delta


def lambert_series(p: BilateralSpecialization, order: int) -> LaurentSeries:
    """The bilateral sum for p, written as two unilateral Lambert-type sums.

    Returns sum_{n>=0} q^{rn}/(1-q^{n*mk-tk}) - sum_{n>=1} q^{n*mk+tk-rn}/(1-q^{n*mk+tk})
    on the window [0, order).  The n=0 term of the first sum has a negative
    exponent in its denominator and is normalized through
    1/(1-q^{-c}) = -q^c/(1-q^c), so the result is an ordinary power series.
    """
    at_least("order", order, 0)
    m, k, t, r = p.m, p.k, p.t, p.r
    mk, tk = m * k, t * k
    c = [0] * order
    # n = 0: 1/(1-q^{-tk}) = -q^{tk}/(1-q^{tk}) = -(q^{tk} + q^{2tk} + ...)
    _add_geometric(c, [(tk, tk)], -1)
    _add_geometric(c, ((r * n, n * mk - tk) for n in count(1)), 1)
    _add_geometric(c, ((n * (mk - r) + tk, n * mk + tk) for n in count(1)), -1)
    return LaurentSeries(0, c, order)


def _shifted_pair(mk: int, tk: int, r: int) -> tuple[int, int]:
    """(c, a) that write the pair (q^{r-tk}, q^{mk-(r-tk)}; q^{mk}) with positive offsets.

    For r > tk the pair is (q^a, q^{mk-a}; q^{mk}) with a = r - tk, and c = 0.
    For r < tk it is rewritten through
        (q^{-c}, q^{mk+c}; q^{mk}) = -q^{-c} (q^{mk-c}, q^c; q^{mk}),  c = tk - r,
    so a = mk - c.  Both cases need |r - tk| < mk.  r = tk leaves a factor
    (q^0; q^{mk}) = 0.
    """
    if r == tk:
        raise Degenerate(f"r = tk = {r}: the quotient carries a factor (q^0; q^{mk}) = 0")
    c = max(tk - r, 0)
    return c, (r - tk) % mk


def bilateral_product_spec(p: BilateralSpecialization) -> ProductSpec:
    """Closed product form of -q^{-tk} times the bilateral sum for p.

    The quotient is
        (q^{mk}, q^{mk}; q^{mk}) (q^{r-tk}, q^{mk-(r-tk)}; q^{mk})
        / [(q^{tk}, q^{mk-tk}; q^{mk}) (q^{r}, q^{mk-r}; q^{mk})].
    When r < tk the pair with negative offset r-tk is rewritten by _shifted_pair
    and written (q^{c}, q^{mk-c}; q^{mk}), c = tk-r, so the spec only ever
    holds positive offsets.
    """
    m, k, t, r = p.m, p.k, p.t, p.r
    mk, tk = m * k, t * k
    c, a = _shifted_pair(mk, tk, r)
    num = pochhammer((mk, mk) + ((c, a) if c else (a, mk - a)), mk)
    den = pochhammer((tk, mk - tk, r, mk - r), mk)
    return ProductSpec(-1 if c else 1, -c, num, den)


class IdentityCheck(Frozen):
    """Outcome of comparing two series: truthy when they agree everywhere known."""

    __slots__ = ("ok", "exponent", "lhs", "rhs")

    def __init__(
        self, ok: bool, exponent: int | None = None, lhs: int | None = None, rhs: int | None = None
    ):
        super().__init__(ok, exponent, lhs, rhs)

    def __bool__(self) -> bool:
        return self.ok


def compare_series(lhs: LaurentSeries, rhs: LaurentSeries) -> IdentityCheck:
    """Compare two series over their common known window."""
    e = _first_difference(lhs, rhs)
    if e is None:
        return IdentityCheck(True)
    return IdentityCheck(False, e, lhs.coeff_at(e), rhs.coeff_at(e))


def verify_1psi1(p: BilateralSpecialization, order: int) -> IdentityCheck:
    """Check -q^{-tk} * (bilateral sum) against its closed product form.

    Both sides are expanded independently: the left from the two Lambert-type
    sums, the right from bilateral_product_spec(p) through expand_product.
    Every factor of bilateral_product_spec pairs up, so by the triple
    product the right side is (q^{mk}; q^{mk})^3 theta / (theta theta), all
    sparse series.  Returns a truthy IdentityCheck, or a falsy one carrying
    the first disagreement.
    """
    at_least("order", order, 0)
    tk = p.t * p.k
    lhs = lambert_series(p, order + tk).monomial_mul(-1, -tk)
    rhs = expand_product(bilateral_product_spec(p), order)
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
    at_least("order", order, 0)
    m, k, t, r = p.m, p.k, p.t, p.r
    mk, tk = m * k, t * k
    pos = [0] * order
    neg = [0] * order
    _add_geometric(pos, ((r * big, big * mk - tk) for big in count(k - s, k)), 1)
    _add_geometric(neg, ((big * (mk - r) + tk, big * mk + tk) for big in count(s, k)), 1)
    return compare_series(LaurentSeries(0, pos), LaurentSeries(0, neg))
