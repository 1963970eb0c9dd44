"""Tests for Pochhammer expansion, theta sums, and the bilateral identities.

Oracle strategy: expand_product is cross-checked against two independent
paths, per-factor expansion combined with series invert (a different
algorithm than the division passes), and the plain linear expansion of the
linear_expand fixture (no theta pairs, no cancellation); the theta sum is
checked against the product side it is classically equal to.
"""

from __future__ import annotations

import random
from itertools import product
from unittest.mock import patch

import pytest

import qvanish.products
from qvanish import Degenerate, InvalidParams, LaurentSeries
from qvanish.errors import replace
from qvanish.partitions import RestrictedPartitionSpec, count_restricted_table
from qvanish.products import (
    BilateralSpecialization,
    IdentityCheck,
    PochhammerFactor,
    ProductSpec,
    bilateral_product_spec,
    cancellation_check,
    expand_factor,
    expand_product,
    jtp_product_spec,
    jtp_theta,
    lambert_series,
    pochhammer,
    verify_1psi1,
)
from qvanish.products import _div_linear, _div_sparse, _mul_linear, _mul_sparse, _theta_series


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


def count_passes(monkeypatch, kind: str) -> dict[str, int]:
    """Count the _mul_<kind> and _div_<kind> calls expand_product makes from now on."""
    calls = {"mul": 0, "div": 0}

    def counted(key):
        kernel = getattr(qvanish.products, f"_{key}_{kind}")

        def run(*args):
            calls[key] += 1
            return kernel(*args)

        return run

    for key in calls:
        monkeypatch.setattr(qvanish.products, f"_{key}_{kind}", counted(key))
    return calls


def count_linear_passes(monkeypatch) -> dict[str, int]:
    return count_passes(monkeypatch, "linear")


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


def test_spec_str_shows_argument_sign_and_prefactor():
    spec = ProductSpec(-1, 3, pochhammer((1,), 2, -1), pochhammer((4,), 5))
    assert str(spec) == "-q^3*(-q; q^2) / (q^4; q^5)"
    assert str(ProductSpec(1, -2, (), pochhammer((2,), 3, -1))) == "q^-2*1 / (-q^2; q^3)"
    assert str(ProductSpec(-1, 0, (), ())) == "-1"


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


def test_identical_factors_cancel(monkeypatch):
    calls = count_linear_passes(monkeypatch)
    sparse = count_passes(monkeypatch, "sparse")
    assert expand_product(quotient((1, 2), (1, 2), 5), 40) == 1
    factors = pochhammer((1, 2, 3), 7) + pochhammer((2,), 5, -1) + pochhammer((3, 3), 4)
    # and a theta pair (q^2, q^5; q^7) and a (q^9; q^9)
    factors += pochhammer((2, 5), 7) + pochhammer((9,), 9)
    assert expand_product(ProductSpec(1, 0, factors, factors[::-1]), 300) == 1
    # every series cancels before any pass runs
    assert calls == sparse == {"mul": 0, "div": 0}


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


def naive_div_linear(coeffs: list[int], e: int, sign: int) -> list[int]:
    """y_n = x_n + sign*y_{n-e}, one coefficient at a time."""
    y = list(coeffs)
    for n in range(e, len(y)):
        y[n] += sign * y[n - e]
    return y


def naive_mul_linear(coeffs: list[int], e: int, sign: int) -> list[int]:
    """y_n = x_n - sign*x_{n-e}, one coefficient at a time."""
    return [x - sign * coeffs[n - e] if n >= e else x for n, x in enumerate(coeffs)]


def test_div_linear_matches_naive_recurrence_and_inverts_mul():
    rng = random.Random(7)
    for n in (1, 2, 9, 30):
        # e = 1, a short final block, e = n-1, e = n and e > n
        for e in sorted({1, 4, 7, max(n - 1, 1), n, n + 3}):
            for sign in (1, -1):
                for big in (False, True):
                    x = [rng.randrange(-50, 51) for _ in range(n)]
                    if big:  # coefficients past 64-bit machine integers
                        x = [c * 2**70 + rng.randrange(2**64) for c in x]
                    assert _mul_linear(x, e, sign) == naive_mul_linear(x, e, sign), (n, e, sign)
                    y = _div_linear(x, e, sign)
                    assert y == naive_div_linear(x, e, sign), (n, e, sign)
                    assert _mul_linear(y, e, sign) == x, (n, e, sign)


def naive_div_sparse(coeffs: list[int], terms: list[tuple[int, int]]) -> list[int]:
    """y_n = x_n - sum(c*y_{n-e}), one coefficient at a time."""
    y = list(coeffs)
    for n in range(len(y)):
        y[n] -= sum(c * y[n - e] for e, c in terms if e <= n)
    return y


def test_div_sparse_matches_naive_recurrence_and_inverts_mul():
    rng = random.Random(11)
    for n in (0, 1, 3, 9, 40):
        top = max(n, 2)
        for terms in (
            [],
            [(3, -1)],  # one term, c < 0: one reader on +y
            [(2, 1), (5, -1)],  # one term reading -y, then a second reading +y
            [(4, 1), (6, -1), (7, 1)],  # a first exponent above 1
            [(5, 2)],  # a window shorter than the first exponent when n < 5
            [(1, 1)],  # a reader at e = 1, one behind the growing list
            [(1, -1)],
            [(1, 2)],  # |c| = 2 at e = 1: two readers on one list
            [(2, 3)],  # |c| = 3: three readers on -y
            [(1, -3)],  # three readers on +y, each one behind
            [(1, -1), (2, 1)],  # from one reader at e = 1 to two readers on two lists
            [(1, 2), (3, -1)],  # a segment that opens after two readers on -y
            [(2, -2), (3, 3), (5, 1)],  # readers on +y, then |c| > 1 on -y, then one more
            [(1, 1), (top, -2), (top + 1, 1)],  # an exponent at the window length, one past it
            _theta_series(-1, 3, 6, n),  # the pair (q^3, q^3; q^6): |c| = 2
            _theta_series(1, 2, 7, n),  # (-q^2, -q^5; q^7): every c > 0, every reader on -y
            _theta_series(-1, 4, 9, n),
        ):
            for big in (False, True):
                x = [rng.randrange(-50, 51) for _ in range(n)]
                if big:  # coefficients past 64-bit machine integers
                    x = [c * 2**70 + rng.randrange(2**64) for c in x]
                y = _div_sparse(x, terms)
                assert len(y) == n, (n, terms)
                assert y == naive_div_sparse(x, terms), (n, terms)
                assert _mul_sparse(y, terms) == x, (n, terms)


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


def test_theta_matches_product_form(linear_expand):
    for M, a in [(5, 2), (8, 3), (9, 4), (12, 1)]:
        assert jtp_theta(M, a, 150) == linear_expand(jtp_product_spec(M, a), 150)


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


def test_paired_expansion_matches_linear_on_family_quotients(linear_expand):
    specs = [
        quotient((3, 5), (1, 7), 8),
        quotient((1, 4), (2, 3), 5),
        ProductSpec(1, 0, pochhammer((1, 8), 9), pochhammer((2, 7), 9, -1)),
        bilateral_product_spec(BilateralSpecialization(2, 15, 1, 1)),
        bilateral_product_spec(BilateralSpecialization(3, 3, 2, 1)),  # negative prefactor
        jtp_product_spec(12, 5),
        quotient((), (1, 29, 30), 30),  # partitions into parts 0, +-1 mod 30
        quotient((4, 4), (8,), 8),  # a = M/2 pairs with itself; order 10 leaves -2q^4
        quotient((1, 2, 3), (1, 2), 7),  # unpaired factors only
        # (q, -q^4; q^5) and (q^3, -q^3; q^6): a pair shares its sign, so none here
        ProductSpec(
            1,
            0,
            (PochhammerFactor(1, 1, 5), PochhammerFactor(-1, 4, 5)),
            pochhammer((3,), 6) + pochhammer((3,), 6, -1),
        ),
    ]
    for spec in specs:
        for order in (0, 1, 10, 60, 301):
            if order >= spec.prefactor_exponent:
                assert expand_product(spec, order) == linear_expand(spec, order), spec


def valid_specializations(max_m: int, max_k: int):
    for m in range(2, max_m + 1):
        for k in range(2, max_k + 1):
            for t in range(1, m):
                for r in range(1, m * k):
                    if r != t * k:
                        yield BilateralSpecialization(m, k, t, r)


def test_paired_expansion_matches_linear_on_every_1psi1_right_side(linear_expand):
    seen_shifted = 0
    for p in valid_specializations(5, 5):
        spec = bilateral_product_spec(p)
        seen_shifted += p.r < p.t * p.k
        assert expand_product(spec, 120) == linear_expand(spec, 120), p
    assert seen_shifted > 100  # r < tk, the negative-prefactor rewrite


def test_paired_expansion_cap(linear_expand):
    # parts 0, +-1 mod 30: a cap at or past n changes no count
    spec = RestrictedPartitionSpec(30, {0, 1, 29})
    table = count_restricted_table(spec, 99)
    assert table == list(linear_expand(quotient((), (1, 29, 30), 30), 100).coeffs)
    for cap in (99, 100, 1000):
        assert count_restricted_table(replace(spec, max_part=cap), 99) == table
    # parts up to 5: only the factor 1/(1 - q) is left
    assert count_restricted_table(replace(spec, max_part=5), 19) == [1] * 20
    with pytest.raises(InvalidParams):
        expand_product(ProductSpec(1, 5, (), ()), 4)


# -- whole symbols: Euler's and Cauchy's series ------------------------------------


def levels(f: PochhammerFactor, order: int, cauchy: bool) -> int:
    """The n >= 1 whose term x^n p^{n(n-1)/2} (Euler) or x^n p^{n(n-1)} (Cauchy) is below order."""
    step = f.modulus * (2 if cauchy else 1)
    return sum(1 for n in range(1, order + 1) if f.offset * n + step * n * (n - 1) // 2 < order)


def test_mixed_moduli_quotients_take_one_divide_pass_per_level(monkeypatch, linear_expand):
    # (1,2,3)|(4,5,6) mod 7 over (1,2)|(3,4) mod 5 and (3)|(1) mod 4: no
    # symbol pairs, so each is one series, one divide pass per Euler level
    # and two per Cauchy level, and no multiply pass at all
    calls = count_linear_passes(monkeypatch)
    for seven, five, four in product(((1, 2, 3), (4, 5, 6)), ((1, 2), (3, 4)), ((3,), (1,))):
        spec = ProductSpec(1, 0, pochhammer(seven, 7), pochhammer(five, 5) + pochhammer(four, 4))
        calls.update(mul=0, div=0)
        assert expand_product(spec, 600) == linear_expand(spec, 600), spec
        euler = [levels(f, 600, False) for f in spec.numerator]
        cauchy = [levels(f, 600, True) for f in spec.denominator]
        assert calls == {"mul": 0, "div": sum(euler) + 2 * sum(cauchy)}, spec
        if (seven, five, four) == ((1, 2, 3), (1, 2), (3,)):
            assert (euler, cauchy) == ([13, 13, 13], [11, 11, 12])
            assert calls["div"] == 107


def test_generic_quotient_intermediates_stay_as_wide_as_the_result(monkeypatch):
    # Horner levels are partial sums of the series; none may grow far past
    # the final coefficients, or each pass would cost more than it should
    widest = 0
    div_linear = qvanish.products._div_linear

    def measured(coeffs, e, sign):
        nonlocal widest
        y = div_linear(coeffs, e, sign)
        widest = max(widest, max(map(abs, y), default=0).bit_length())
        return y

    monkeypatch.setattr(qvanish.products, "_div_linear", measured)
    spec = ProductSpec(1, 0, pochhammer((4, 5, 6), 7), pochhammer((1, 2), 5) + pochhammer((1,), 4))
    final = max(map(abs, expand_product(spec, 3000).coeffs)).bit_length()
    assert 80 < final <= widest <= final + 8


def test_capped_symbol_keeps_one_linear_pass_per_part(monkeypatch):
    # parts 1, 3, 5, 7: 1/((1-q)(1-q^3)(1-q^5)(1-q^7)), four divide passes and
    # no Horner level; with sign flipped, (1+q)(1+q^3)(1+q^5)(1+q^7)
    calls = count_linear_passes(monkeypatch)
    sparse = count_passes(monkeypatch, "sparse")
    for spec, passes in (
        (RestrictedPartitionSpec(2, {1}, max_part=7), {"mul": 0, "div": 4}),
        (RestrictedPartitionSpec(2, (), {1}, max_part=7), {"mul": 4, "div": 0}),
    ):
        calls.update(mul=0, div=0)
        table = count_restricted_table(spec, 3000)
        assert calls == passes and sparse == {"mul": 0, "div": 0}, spec
        assert table[:8] == ([1, 1, 1, 2, 2, 3, 4, 5] if passes["div"] else [1, 1, 0, 1, 1, 1, 1, 1])


def test_capped_symbol_takes_linear_passes_up_to_its_horner_passes(monkeypatch, linear_expand):
    # distinct odd parts up to the cap, below q^60: (-q; q^2) over its tail
    # (-q^{cap+2}; q^2) take 7 Euler levels and 2 Cauchy levels, 11 passes;
    # cap 21 leaves 11 linear factors, just as many, cap 23 leaves 12
    calls = count_linear_passes(monkeypatch)
    for cap, passes in ((21, {"mul": 11, "div": 0}), (23, {"mul": 0, "div": 11})):
        head, tail = PochhammerFactor(-1, 1, 2), PochhammerFactor(-1, cap + 2, 2)
        assert levels(head, 60, False) + 2 * levels(tail, 60, True) == 11
        calls.update(mul=0, div=0)
        table = count_restricted_table(RestrictedPartitionSpec(2, (), {1}, max_part=cap), 59)
        assert calls == passes, cap
        assert table == list(linear_expand(ProductSpec(1, 0, (head,), (tail,)), 60).coeffs)
    # a symbol with one linear factor below the window: one pass, no more than
    # its one Euler or Cauchy level
    f = PochhammerFactor(1, 3, 4)
    for sides, passes in ((((f,), ()), {"mul": 1, "div": 0}), (((), (f,)), {"mul": 0, "div": 1})):
        spec = ProductSpec(1, 0, *sides)
        calls.update(mul=0, div=0)
        assert expand_product(spec, 5) == linear_expand(spec, 5)
        assert calls == passes


def test_pairing_rules_leave_no_symbol_behind(monkeypatch, linear_expand):
    calls = count_linear_passes(monkeypatch)
    sparse = count_passes(monkeypatch, "sparse")
    for spec, divides in (
        # a (q^7; q^7) factor is Euler's pentagonal series: one theta series
        # over the pentagonal series squared, no symbol
        (ProductSpec(1, 0, pochhammer((3, 4), 7), pochhammer((7,), 7)), 2),
        # (q; q^2)^2 pairs with itself: the pentagonal series is written into
        # the window and the theta series divides it, once
        (ProductSpec(1, 0, (), pochhammer((1, 1), 2)), 1),
        # so does (q^4; q^8)^2
        (ProductSpec(1, 0, (), pochhammer((4, 4), 8)), 1),
    ):
        sparse.update(mul=0, div=0)
        assert expand_product(spec, 200) == linear_expand(spec, 200), spec
        assert calls == {"mul": 0, "div": 0} and sparse == {"mul": 0, "div": divides}, spec
    # below q^13 the theta series of (q^3, q^4; q^7) has two terms besides 1, so
    # it is seeded, not multiplied; the pentagonal series of q^7, one term here,
    # is divided out twice (the pair's and the denominator's)
    spec = ProductSpec(1, 0, pochhammer((3, 4), 7), pochhammer((7,), 7))
    calls.update(mul=0, div=0)
    sparse.update(mul=0, div=0)
    assert expand_product(spec, 13) == linear_expand(spec, 13)
    assert calls == {"mul": 0, "div": 2} and sparse == {"mul": 0, "div": 0}


def test_pair_plus_cancelling_symbol_with_prefactor(linear_expand):
    # (q^2, q^5; q^7) pairs; (q; q^3) shares every e = 1 mod 6 with (q; q^2)
    numerator = pochhammer((2, 5), 7) + pochhammer((1,), 3)
    spec = ProductSpec(-1, -2, numerator, pochhammer((1,), 2) + pochhammer((3,), 5, -1))
    for order in (-2, -1, 40, 250):
        assert expand_product(spec, order) == linear_expand(spec, order), order


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


def test_1psi1_rejects_negative_order():
    for p in (BilateralSpecialization(2, 3, 1, 1), BilateralSpecialization(2, 3, 1, 5)):
        for order in (-5, -1):
            with pytest.raises(InvalidParams, match=rf"^order must be >= 0, got {order}$"):
                verify_1psi1(p, order)
        assert verify_1psi1(p, 0)


def test_1psi1_degenerate():
    with pytest.raises(Degenerate):
        bilateral_product_spec(BilateralSpecialization(2, 3, 1, 3))


def test_1psi1_negative_control():
    p = BilateralSpecialization(2, 15, 1, 1)
    spec = bilateral_product_spec(p)
    broken = ProductSpec(
        spec.prefactor_sign, spec.prefactor_exponent, spec.numerator[1:], spec.denominator
    )
    with patch.object(qvanish.products, "bilateral_product_spec", return_value=broken):
        chk = verify_1psi1(p, 100)
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
