"""Shared test oracle: the plain linear expansion of a Pochhammer quotient."""

from __future__ import annotations

import pytest

from qvanish.products import _div_linear, _mul_linear
from qvanish.series import LaurentSeries


def _linear_expand(spec, order):
    """expand_product(spec, order) the slow way.

    Every numerator symbol, then every denominator symbol, one linear factor
    (1 -+ q^e) at a time: no theta pairs and no cancellation.
    """
    length = order - spec.prefactor_exponent
    if length == 0:
        return LaurentSeries(order, (), order)
    coeffs = [1] + [0] * (length - 1)
    for f in spec.numerator:
        for e in range(f.offset, length, f.modulus):
            coeffs = _mul_linear(coeffs, e, f.arg_sign)
    for f in spec.denominator:
        for e in range(f.offset, length, f.modulus):
            coeffs = _div_linear(coeffs, e, f.arg_sign)
    return LaurentSeries(0, coeffs, length).monomial_mul(
        spec.prefactor_sign, spec.prefactor_exponent
    )


@pytest.fixture(scope="session")
def linear_expand():
    """The reference every fast path of expand_product is checked against.

    Session-scoped, so hypothesis tests can take it too.
    """
    return _linear_expand
