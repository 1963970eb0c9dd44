"""Tests for Pochhammer expansion, theta sums, and the bilateral identities.

Oracle strategy: expand_product is cross-checked against an independent path
(per-factor expansion combined with series invert, which uses a different
algorithm than the division passes), and the theta sum is checked against
the product side it is classically equal to.
"""

from __future__ import annotations

import random

import pytest

from qvanish import Degenerate, InvalidParams, LaurentSeries
from qvanish.products import (
    BilateralSpecialization,
    IdentityCheck,
    PochhammerFactor,
    ProductSpec,
    bilateral_product_spec,
    cancellation_check,
    expand_factor,
    expand_paired,
    expand_product,
    jtp_product_spec,
    jtp_theta,
    lambert_series,
    pochhammer,
    verify_1psi1,
)


def quotient(num: tuple[int, ...], den: tuple[int, ...], modulus: int) -> ProductSpec:
    return ProductSpec(1, 0, pochhammer(num, modulus), pochhammer(den, modulus))


def expand_via_invert(spec: ProductSpec, order: int) -> LaurentSeries:
    """Independent expansion path: factor-by-factor mul, then series invert."""
    pad = order - spec.prefactor_exponent
    out = LaurentSeries.one(pad)
    for f in spec.numerator:
        out = out * expand_factor(f, pad)
    for f in spec.denominator:
        out = out * expand_factor(f, pad).invert()
    return out.monomial_mul(spec.prefactor_sign, spec.prefactor_exponent)


# -- factor validation --------------------------------------------------------


def test_factor_invariants():
    with pytest.raises(InvalidParams):
        PochhammerFactor(1, 0, 8)
    with pytest.raises(InvalidParams):
        PochhammerFactor(2, 1, 8)
    with pytest.raises(InvalidParams):
        PochhammerFactor(1, 1, 0)
    # offset >= modulus is explicitly legal
    PochhammerFactor(1, 9, 4)


def test_product_spec_invariants():
    with pytest.raises(InvalidParams):
        ProductSpec(0, 0, (), ())
    assert str(quotient((3, 5), (1, 7), 8)) == "(q^3; q^8)*(q^5; q^8) / (q; q^8)*(q^7; q^8)"


# -- expand_factor ------------------------------------------------------------


def test_euler_product_prefix():
    s = expand_factor(PochhammerFactor(1, 1, 1), 13)
    assert list(s.coeffs) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_negated_argument_factor():
    # (-q; q^2)_inf = (1+q)(1+q^3)(1+q^5)... = 1 + q + q^3 + q^4 + ...
    s = expand_factor(PochhammerFactor(-1, 1, 2), 5)
    assert list(s.coeffs) == [1, 1, 0, 1, 1]


def test_factor_order_one_is_constant():
    assert expand_factor(PochhammerFactor(1, 5, 7), 1) == 1
    assert expand_factor(PochhammerFactor(1, 1, 1), 0).order == 0


def test_expand_factor_multiplicative():
    rng = random.Random(97)
    for _ in range(25):
        m = rng.randint(1, 9)
        f1 = PochhammerFactor(rng.choice((1, -1)), rng.randint(1, 10), m)
        f2 = PochhammerFactor(rng.choice((1, -1)), rng.randint(1, 10), m)
        spec = ProductSpec(1, 0, (f1, f2), ())
        assert expand_product(spec, 50) == expand_factor(f1, 50) * expand_factor(f2, 50)


# -- expand_product -----------------------------------------------------------


def test_octic_quotient_vanishing_class():
    # (q^3,q^5;q^8)/(q,q^7;q^8): every coefficient at 3 mod 4 vanishes
    s = expand_product(quotient((3, 5), (1, 7), 8), 200)
    assert all(s[4 * n + 3] == 0 for n in range(50))
    assert s[1] != 0  # the series itself is not trivial


def test_identical_factors_cancel():
    assert expand_product(quotient((1, 2), (1, 2), 5), 40) == 1


def test_modulus_thirty_quotient():
    s = expand_product(quotient((2, 28), (1, 29), 30), 120)
    assert all(s[3 * n + 2] == 0 for n in range(40))


def test_prefactor_applies_sign_and_shift():
    spec = ProductSpec(-1, -2, pochhammer((2, 28), 30), pochhammer((1, 29), 30))
    s = expand_product(spec, 30)
    assert s.valuation == -2
    assert s[-2] == -1
    plain = expand_product(quotient((2, 28), (1, 29), 30), 32)
    assert s == plain.monomial_mul(-1, -2)


def test_expand_product_matches_invert_path():
    rng = random.Random(1024)
    for _ in range(15):
        mod = rng.randint(2, 10)
        num = pochhammer([rng.randint(1, mod) for _ in range(rng.randint(0, 2))], mod,
                         rng.choice((1, -1)))
        den = pochhammer([rng.randint(1, mod) for _ in range(rng.randint(0, 2))], mod,
                         rng.choice((1, -1)))
        spec = ProductSpec(rng.choice((1, -1)), rng.randint(-3, 3), num, den)
        assert expand_product(spec, 60) == expand_via_invert(spec, 60)


def test_expand_product_window_bounds():
    spec = ProductSpec(1, 3, (), ())
    with pytest.raises(InvalidParams):
        expand_product(spec, 2)
    empty = expand_product(spec, 3)
    assert empty.order == 3 and not list(empty.items())


def test_pure_denominator_counts_partitions():
    # 1/(q^2;q^4) generates partitions into parts = 2 mod 4: all counts >= 0
    s = expand_product(ProductSpec(1, 0, (), pochhammer((2,), 4)), 50)
    assert all(c >= 0 for _, c in s.items())
    assert s[2] == 1 and s[4] == 1 and s[8] == 2  # 8 = 2+2+2+2 = 2+6


# -- jtp_theta ----------------------------------------------------------------


def test_theta_pentagonal_numbers():
    s = jtp_theta(3, 1, 13)
    assert list(s.coeffs) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_theta_degenerate_argument_vanishes():
    # at a=0 the j and -j-1 terms cancel pairwise, matching (q^0;q)_inf = 0
    assert jtp_theta(1, 0, 15) == 0


def test_theta_matches_product_form():
    for M, a in [(5, 2), (8, 3), (9, 4), (12, 1)]:
        assert jtp_theta(M, a, 150) == expand_product(jtp_product_spec(M, a), 150)


def test_theta_negative_offset_reflection():
    # theta(M, -c) = -q^{-c} * theta(M, c): the j -> -1-j reindexing
    for M, c in [(30, 13), (9, 4), (12, 7)]:
        lhs = jtp_theta(M, -c, 60)
        assert lhs.valuation < 0
        assert lhs == jtp_theta(M, c, 60 + c).monomial_mul(-1, -c)


def test_theta_matches_direct_sum_for_every_integer_argument():
    # the window comes from the discriminant; a direct sum over a generous j
    # range must give the same terms, the same valuation and the same order
    for M in (1, 2, 5, 8):
        for a in range(-3 * M - 2, 4 * M + 3):
            for order in (0, 1, 7, 40):
                exponents = {}
                for j in range(-60, 61):
                    e = M * j * (j + 1) // 2 - a * j
                    if e < order:
                        exponents[e] = exponents.get(e, 0) + (-1) ** (j % 2)
                val = min(min(exponents, default=order), order)
                coeffs = [exponents.get(e, 0) for e in range(val, order)]
                theta = jtp_theta(M, a, order)
                assert (theta.valuation, list(theta.coeffs), theta.order) == (
                    val,
                    coeffs,
                    order,
                ), (M, a, order)


def test_theta_empty_window():
    s = jtp_theta(5, 2, 0)
    assert s.order == 0 and not list(s.items())


def test_jtp_product_spec_range():
    with pytest.raises(InvalidParams):
        jtp_product_spec(5, 0)
    with pytest.raises(InvalidParams):
        jtp_product_spec(5, 5)


# -- paired expansion ------------------------------------------------------------


def test_paired_expansion_matches_linear_on_family_quotients():
    specs = [
        quotient((3, 5), (1, 7), 8),
        quotient((1, 4), (2, 3), 5),
        ProductSpec(1, 0, pochhammer((1, 8), 9), pochhammer((2, 7), 9, -1)),
        bilateral_product_spec(BilateralSpecialization(2, 15, 1, 1)),
        bilateral_product_spec(BilateralSpecialization(3, 3, 2, 1)),  # negative prefactor
        jtp_product_spec(12, 5),
        quotient((), (1, 29, 30), 30),  # partitions into parts 0, +-1 mod 30
        quotient((4, 4), (8,), 8),  # a = M/2 pairs with itself
        quotient((1, 2, 3), (1, 2), 7),  # unpaired factors only
    ]
    for spec in specs:
        for order in (0, 1, 60, 301):
            if order >= spec.prefactor_exponent:
                assert expand_paired(spec, order) == expand_product(spec, order), spec


def test_paired_expansion_cap():
    spec = quotient((), (1, 29, 30), 30)
    # a cap at or past the window changes nothing
    for cap in (99, 100, 1000):
        assert expand_paired(spec, 100, max_exponent=cap) == expand_product(spec, 100)
    # parts up to 5: only the factor 1/(1 - q) is left
    assert list(expand_paired(spec, 20, max_exponent=5).coeffs) == [1] * 20
    with pytest.raises(InvalidParams):
        expand_paired(ProductSpec(1, 5, (), ()), 4)


# -- bilateral specialization --------------------------------------------------


def test_specialization_invariants():
    for bad in [(1, 5, 1, 1), (5, 1, 1, 1), (3, 3, 0, 1), (3, 3, 3, 1), (2, 3, 1, 6), (2, 3, 1, 0)]:
        with pytest.raises(InvalidParams):
            BilateralSpecialization(*bad)


def test_lambert_zero_class():
    # d_{kn-rs} = 0: (m,k,t,r)=(2,15,1,1) has s=0, class 0 mod 15
    d = lambert_series(BilateralSpecialization(2, 15, 1, 1), 150)
    assert all(d[e] == 0 for e in range(0, 150, 15))
    assert any(c for _, c in d.items())
    # (3,3,1,4) has s=1, class -4 = 2 mod 3
    d = lambert_series(BilateralSpecialization(3, 3, 1, 4), 150)
    assert all(d[e] == 0 for e in range(2, 150, 3))


def test_lambert_empty_window():
    s = lambert_series(BilateralSpecialization(2, 15, 1, 1), 0)
    assert s.order == 0


def test_1psi1_holds():
    assert verify_1psi1(BilateralSpecialization(2, 15, 1, 1), 300)
    assert verify_1psi1(BilateralSpecialization(3, 3, 1, 4), 200)


def test_1psi1_negative_offset_rewrite():
    # r < tk exercises the sign-and-shift rewrite inside the product side
    p = BilateralSpecialization(3, 3, 2, 2)
    spec = bilateral_product_spec(p)
    assert spec.prefactor_sign == -1 and spec.prefactor_exponent == 2 - 6
    assert verify_1psi1(p, 200)


def test_1psi1_degenerate():
    with pytest.raises(Degenerate):
        bilateral_product_spec(BilateralSpecialization(2, 3, 1, 3))


def test_1psi1_negative_control():
    p = BilateralSpecialization(2, 15, 1, 1)
    spec = bilateral_product_spec(p)
    broken = ProductSpec(
        spec.prefactor_sign, spec.prefactor_exponent, spec.numerator[1:], spec.denominator
    )
    chk = verify_1psi1(p, 100, rhs_spec=broken)
    assert not chk
    assert chk.exponent is not None and chk.lhs != chk.rhs


def test_1psi1_check_is_identity_check():
    chk = verify_1psi1(BilateralSpecialization(2, 15, 1, 1), 60)
    assert isinstance(chk, IdentityCheck)
    assert chk.exponent is None and bool(chk)


def test_lambert_split_consistency():
    # the closed form rearranged: eq-quotient = -q^{-tk} * sum * (q^{tk}, q^{mk-tk}) / (q^{mk}, q^{mk})
    for (m, k, t, r) in [(3, 3, 1, 4), (2, 15, 1, 17), (4, 5, 2, 13)]:
        p = BilateralSpecialization(m, k, t, r)
        mk, tk = m * k, t * k
        order = 150
        lhs = expand_product(quotient((r - tk, mk - (r - tk)), (r, mk - r), mk), order)
        rhs = (
            lambert_series(p, order + tk).monomial_mul(-1, -tk)
            * expand_product(ProductSpec(1, 0, pochhammer((tk, mk - tk), mk),
                                         pochhammer((mk, mk), mk)), order)
        )
        assert lhs == rhs


def test_cancellation_identity():
    assert cancellation_check(BilateralSpecialization(2, 15, 1, 1), 0, 400)
    assert cancellation_check(BilateralSpecialization(3, 3, 1, 7), 2, 300)


def test_cancellation_negative_control():
    # r = 5 is not sm+t = 1*3+1 for (m,k,s,t)=(3,3,1,1)
    assert not cancellation_check(BilateralSpecialization(3, 3, 1, 5), 1, 200)


def test_cancellation_s_range():
    with pytest.raises(InvalidParams):
        cancellation_check(BilateralSpecialization(3, 3, 1, 4), 3, 100)


# -- exactness guard -----------------------------------------------------------


def test_coefficients_exceed_machine_integers():
    # 1/(q,q^7;q^8) is a partition generating function whose coefficients
    # outgrow 64-bit integers within desk scale; exact arithmetic must not care.
    s = expand_product(ProductSpec(1, 0, (), pochhammer((1, 7), 8)), 3000)
    assert max(s.coeffs) > 2**63
    assert all(c >= 0 for c in s.coeffs)
