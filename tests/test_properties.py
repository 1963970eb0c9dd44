"""Property tests: expand_product against the plain linear expansion of the
linear_expand fixture, on random factor lists and on random theorem-family
quotients, the negative controls of the identity checks, series inversion
against the naive product, and the linear and sparse kernels against their
recurrences and convolution."""

from __future__ import annotations

from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import qvanish.products  # noqa: E402
from qvanish import InvalidParams, LaurentSeries  # noqa: E402
from qvanish.products import (  # noqa: E402
    BilateralSpecialization,
    PochhammerFactor,
    ProductSpec,
    bilateral_product_spec,
    cancellation_check,
    expand_factor,
    expand_product,
    jtp_theta,
    _div_linear,
    _div_sparse,
    _mul_linear,
    _mul_sparse,
    pochhammer,
    verify_1psi1,
)
from qvanish.vanishing import (  # noqa: E402
    AlladiGordonParams,
    AndrewsBressoudParams,
    ShiftedQuotientParams,
    build_spec,
)

signs = st.sampled_from((1, -1))


@st.composite
def factor_lists(draw, M):
    """Shuffled factors mod M: pairs (x q^a, x q^{M-a}; q^M), (q^M; q^M) and strays."""
    factors = []
    for _ in range(draw(st.integers(0, 2))):
        x, a = draw(signs), draw(st.integers(1, M - 1))
        factors += [PochhammerFactor(x, a, M), PochhammerFactor(x, M - a, M)]
    factors += [PochhammerFactor(1, M, M)] * draw(st.integers(0, 2))
    stray = st.builds(PochhammerFactor, signs, st.integers(1, 2 * M), st.sampled_from((M, M + 1)))
    factors += draw(st.lists(stray, max_size=2))
    return draw(st.permutations(factors))


@st.composite
def product_specs(draw):
    """A quotient whose factor lists hold at least one pair between them."""
    M = draw(st.integers(2, 12))
    numerator = draw(factor_lists(M))
    denominator = draw(factor_lists(M))
    a = draw(st.integers(1, M - 1))
    pair = [PochhammerFactor(draw(signs), a, M)]
    pair.append(PochhammerFactor(pair[0].arg_sign, M - a, M))
    (numerator if draw(st.booleans()) else denominator).extend(pair)
    return ProductSpec(draw(signs), draw(st.integers(-3, 3)), numerator, denominator)


def capped_reference(spec, order, cap):
    """Linear factors (1 - x q^e) with e <= cap only, one naive polynomial pass each."""
    length = order - spec.prefactor_exponent
    coeffs = [1] + [0] * (length - 1) if length else []
    for factors, divide in ((spec.numerator, False), (spec.denominator, True)):
        for f in factors:
            for e in range(f.offset, min(cap, length - 1) + 1, f.modulus):
                step = range(e, length) if divide else range(length - 1, e - 1, -1)
                for n in step:
                    coeffs[n] += (f.arg_sign if divide else -f.arg_sign) * coeffs[n - e]
    return [spec.prefactor_sign * c for c in coeffs]


@settings(max_examples=200, deadline=None)
@given(product_specs(), st.integers(0, 150))
def test_paired_expansion_equals_linear(linear_expand, spec, length):
    order = spec.prefactor_exponent + length
    assert expand_product(spec, order) == linear_expand(spec, order)


@settings(max_examples=200, deadline=None)
@given(signs, st.integers(1, 40), st.integers(1, 12), st.integers(0, 12), st.integers(0, 150))
def test_capped_expansion_keeps_linear_factors_up_to_cap(x, a, M, N, order):
    # the finite symbol (x q^a; q^M)_N = (x q^a; q^M)_inf / (x q^{a+NM}; q^M)_inf
    # and its reciprocal, against the N linear factors e = a, ..., a + (N-1)M
    head, tail = PochhammerFactor(x, a, M), PochhammerFactor(x, a + N * M, M)
    for num, den in (((head,), ()), ((), (head,))):
        series = expand_product(ProductSpec(1, 0, num or (tail,), den or (tail,)), order)
        assert (series.valuation, series.order) == (0, order)
        reference = capped_reference(ProductSpec(1, 0, num, den), order, a + (N - 1) * M)
        assert list(series.coeffs) == reference


@st.composite
def mixed_specs(draw):
    """Up to three symbols a side: moduli 1-9, offsets up to 2M, either argument sign.

    Symbols of different moduli share many linear factors, and now and then
    two of them pair.
    """
    symbols = st.integers(1, 9).flatmap(
        lambda M: st.builds(PochhammerFactor, signs, st.integers(1, 2 * M), st.just(M))
    )
    numerator = draw(st.lists(symbols, max_size=3))
    denominator = draw(st.lists(symbols, max_size=3))
    return ProductSpec(draw(signs), draw(st.integers(-3, 3)), numerator, denominator)


@settings(max_examples=300, deadline=None)
@given(mixed_specs(), st.integers(0, 150))
def test_expansion_equals_linear_on_random_specs(linear_expand, spec, length):
    order = spec.prefactor_exponent + length
    assert expand_product(spec, order) == linear_expand(spec, order)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triple_product_holds_for_random_moduli(data):
    M = data.draw(st.integers(2, 40))
    a = data.draw(st.integers(1, M - 1))
    n = data.draw(st.integers(0, 300))
    f1, f2, f3 = (expand_factor(f, n) for f in pochhammer((a, M - a, M), M))
    assert jtp_theta(M, a, n) == f1 * f2 * f3


@st.composite
def family_params(draw):
    """Valid parameters of a random theorem family, k up to 15."""
    k = draw(st.integers(2, 15))
    sign = draw(st.sampled_from(("plus", "minus")))
    family = draw(st.sampled_from(("ab", "shifted", "ag")))
    try:
        if family == "ab":
            return AndrewsBressoudParams(k, draw(st.integers(1, k - 1)))
        if family == "shifted":
            m = draw(st.integers(2, 15))
            s, t = draw(st.integers(0, k - 1)), draw(st.integers(1, m - 1))
            return ShiftedQuotientParams(m, k, s, t, sign)
        m = draw(st.integers(2, max(k - 1, 2)))
        return AlladiGordonParams(m, k, draw(st.integers(1, m * k - 1)), sign)
    except InvalidParams:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(family_params(), st.integers(0, 400))
def test_paired_family_quotient_equals_linear(linear_expand, params, length):
    spec = build_spec(params)
    order = spec.prefactor_exponent + length
    assert expand_product(spec, order) == linear_expand(spec, order)


@st.composite
def specializations(draw, max_m=5, max_k=5):
    """A BilateralSpecialization with m <= max_m, k <= max_k; r < tk is allowed, r = tk is not."""
    m, k = draw(st.integers(2, max_m)), draw(st.integers(2, max_k))
    t = draw(st.integers(1, m - 1))
    r = draw(st.integers(1, m * k - 1).filter(lambda r: r != t * k))
    return BilateralSpecialization(m, k, t, r)


@settings(max_examples=150, deadline=None)
@given(specializations(), st.integers(0, 150))
def test_paired_1psi1_right_side_equals_linear(linear_expand, p, length):
    spec = bilateral_product_spec(p)
    order = spec.prefactor_exponent + length
    assert expand_product(spec, order) == linear_expand(spec, order)


@settings(max_examples=150, deadline=None)
@given(specializations(), st.data())
def test_1psi1_rejects_a_right_side_missing_one_factor(p, data):
    # Dropping (x q^a; q^M) from either side changes the product by a unit
    # 1 -+ x q^a + ..., so the first disagreement sits exactly at q^{pre + a}.
    spec = bilateral_product_spec(p)
    factors = [(i, True) for i in range(len(spec.numerator))]
    factors += [(i, False) for i in range(len(spec.denominator))]
    i, in_numerator = data.draw(st.sampled_from(factors))
    num, den = list(spec.numerator), list(spec.denominator)
    dropped = (num if in_numerator else den).pop(i)
    broken = ProductSpec(spec.prefactor_sign, spec.prefactor_exponent, num, den)
    order = data.draw(st.integers(p.m * p.k + 1, 3 * p.m * p.k))
    with patch.object(qvanish.products, "bilateral_product_spec", return_value=broken):
        chk = verify_1psi1(p, order)
    assert not chk
    assert chk.exponent == spec.prefactor_exponent + dropped.offset


@settings(max_examples=200, deadline=None)
@given(specializations(max_m=6, max_k=6), st.data())
def test_cancellation_holds_exactly_when_r_is_sm_plus_t(p, data):
    m, k, t, r = p.m, p.k, p.t, p.r
    s = data.draw(st.integers(0, k - 1))
    chk = cancellation_check(p, s, m * k * k)
    assert bool(chk) == (r == s * m + t)
    if not chk:
        # the two sums start at q^{r(k-s)} and q^{s(mk-r)+tk}, equal only when r = sm+t
        assert chk.exponent == min(r * (k - s), s * (m * k - r) + t * k)


@st.composite
def units(draw):
    """A Laurent unit: zeros, then +-1, then any integers, at any valuation."""
    head = [0] * draw(st.integers(0, 3)) + [draw(signs)]
    tail = draw(st.lists(st.integers(-(2**80), 2**80), max_size=70))
    return LaurentSeries(draw(st.integers(-8, 8)), head + tail)


@settings(max_examples=200, deadline=None)
@given(units())
def test_unit_times_its_inverse_is_one(u):
    """The naive convolution of u's block from its true valuation with
    u.invert() is 1, 0, 0, ... over the whole window."""
    g = u.invert()
    v = u.true_valuation()
    a = u.coeffs[v - u.valuation :]
    assert (g.valuation, g.order) == (-v, -v + len(a))
    prod = [sum(a[j] * g.coeffs[i - j] for j in range(i + 1)) for i in range(len(a))]
    assert prod == [1] + [0] * (len(a) - 1)


# windows of small coefficients, and of coefficients past 64-bit machine integers
coefficient_lists = st.one_of(
    st.lists(st.integers(-50, 50), max_size=60),
    st.lists(st.integers(-(2**80), 2**80), max_size=60),
)


def recurrence_mul_linear(x, e, sign):
    """z_n = x_n - sign * x_{n-e}, one coefficient at a time."""
    return [xn - sign * x[n - e] if n >= e else xn for n, xn in enumerate(x)]


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, signs, st.data())
def test_mul_linear_matches_its_recurrence(x, sign, data):
    e = data.draw(st.integers(1, len(x) + 2))  # up to past the window
    y = list(x)
    z = _mul_linear(y, e, sign)
    assert y == x
    assert z == recurrence_mul_linear(x, e, sign)


def recurrence_div_linear(x, e, sign):
    """y_n = x_n + sign * y_{n-e}, one coefficient at a time."""
    y = []
    for n, xn in enumerate(x):
        y.append(xn + sign * y[n - e] if n >= e else xn)
    return y


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, signs, st.data())
def test_div_linear_matches_its_recurrence(x, sign, data):
    e = data.draw(st.integers(1, len(x) + 2))  # up to past the window
    y = list(x)
    z = _div_linear(y, e, sign)
    assert y == x
    assert z == recurrence_div_linear(x, e, sign)


def recurrence_div(x, terms):
    """y_n = x_n - sum(c * y_{n-e}), one coefficient at a time."""
    y = []
    for n, xn in enumerate(x):
        y.append(xn - sum(c * y[n - e] for e, c in terms if e <= n))
    return y


@st.composite
def sparse_terms(draw):
    """Ascending exponents in 1..30, each with a coefficient 0 < |c| <= 3."""
    exponents = sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=8)))
    cs = st.integers(-3, 3).filter(bool)
    return [(e, draw(cs)) for e in exponents]


@settings(max_examples=300, deadline=None)
@given(sparse_terms(), coefficient_lists)
def test_div_sparse_matches_its_recurrence(terms, x):
    y = list(x)
    z = _div_sparse(y, terms)
    assert y == x
    assert z == recurrence_div(x, terms)


def convolution_mul(x, terms):
    """z_n = x_n + sum(c * x_{n-e}), one term at a time onto a copy of x."""
    z = list(x)
    for e, c in terms:
        for n in range(e, len(x)):
            z[n] += c * x[n - e]
    return z


@settings(max_examples=300, deadline=None)
@given(sparse_terms(), coefficient_lists)
def test_mul_sparse_matches_its_convolution(terms, x):
    y = list(x)
    z = _mul_sparse(y, terms)
    assert y == x
    assert z == convolution_mul(x, terms)
