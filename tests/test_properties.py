"""Property tests: the paired (theta) expansion against the linear one."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qvanish.products import (  # noqa: E402
    PochhammerFactor,
    ProductSpec,
    expand_paired,
    expand_product,
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
def test_paired_expansion_equals_linear(spec, length):
    order = spec.prefactor_exponent + length
    assert expand_paired(spec, order) == expand_product(spec, order)


@settings(max_examples=80, deadline=None)
@given(product_specs(), st.integers(1, 160), st.integers(0, 150))
def test_capped_expansion_keeps_linear_factors_up_to_cap(spec, cap, length):
    order = spec.prefactor_exponent + length
    series = expand_paired(spec, order, max_exponent=cap)
    assert (series.valuation, series.order) == (spec.prefactor_exponent, order)
    assert list(series.coeffs) == capped_reference(spec, order, cap)
