"""Unit tests for the truncated Laurent series core.

The multiplication oracle here is an independent dict-based convolution that
tracks the known window the same way the library does: a product coefficient
at offset d from the combined valuation is only known when d < min(len_a,
len_b), because beyond that the unknown tails of either factor contribute.
The inversion oracle is the schoolbook recurrence, one coefficient at a time.
"""

from __future__ import annotations

import random

import pytest

from qvanish import (
    IdentityCheck,
    LaurentSeries,
    NotAUnit,
    OutOfRange,
    ProductSpec,
    compare_series,
    expand_product,
    pochhammer,
)


def naive_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    n = min(a.order - a.valuation, b.order - b.valuation)
    val = a.valuation + b.valuation
    out = {e: 0 for e in range(val, val + n)}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if (ea - a.valuation) + (eb - b.valuation) < n:
                out[ea + eb] += ca * cb
    return LaurentSeries(val, [out[e] for e in sorted(out)], val + n)


def naive_invert(a: LaurentSeries) -> LaurentSeries:
    """g_0 = u0, g_e = -u0 * sum_{1<=j<=e} a_j g_{e-j}, from the true valuation on."""
    v = a.true_valuation()
    block = a.coeffs[v - a.valuation :]
    u0 = block[0]
    assert u0 in (1, -1)
    out = [u0] + [0] * (len(block) - 1)
    for e in range(1, len(block)):
        out[e] = -u0 * sum(block[j] * out[e - j] for j in range(1, e + 1))
    return LaurentSeries(-v, out, -v + len(block))


def same(a: LaurentSeries, b: LaurentSeries) -> bool:
    """Identical window and coefficients, stricter than == on the overlap."""
    return (a.valuation, a.order, a.coeffs) == (b.valuation, b.order, b.coeffs)


def random_series(rng: random.Random, max_len: int = 25) -> LaurentSeries:
    val = rng.randint(-6, 6)
    length = rng.randint(0, max_len)
    coeffs = [rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(length)]
    return LaurentSeries(val, coeffs, val + length)


def poly(*coeffs: int, valuation: int = 0, order: int = 12) -> LaurentSeries:
    """Exact polynomial padded with zeros up to the requested order."""
    cs = list(coeffs) + [0] * (order - valuation - len(coeffs))
    return LaurentSeries(valuation, cs, order)


# -- constructors and coefficient access -------------------------------------


def test_window_invariant_enforced():
    with pytest.raises(ValueError):
        LaurentSeries(0, (1, 2), 5)


def test_coeff_below_valuation_is_zero():
    s = LaurentSeries(2, (7, 0, 3), 5)
    assert s.coeff_at(1) == 0
    assert s.coeff_at(-10) == 0
    assert s.coeff_at(2) == 7
    assert s[4] == 3


def test_coeff_at_order_raises():
    s = LaurentSeries.one(5)
    assert s.coeff_at(4) == 0
    with pytest.raises(OutOfRange):
        s.coeff_at(5)
    with pytest.raises(OutOfRange):
        s[100]


def test_monomial_and_one():
    m = LaurentSeries.one(5).monomial_mul(-1, 3)
    assert m.valuation == 3
    assert m[3] == -1
    assert all(m[e] == 0 for e in range(4, 8))
    assert LaurentSeries.one(6) == 1
    assert LaurentSeries(0, (0,) * 6, 6) == 0
    # an empty or negative window knows no coefficient, not even the constant
    for order in (0, -3):
        empty = LaurentSeries.one(order)
        assert (empty.valuation, list(empty.coeffs), empty.order) == (order, [], order)


def test_monomial_mul_rejects_a_bad_sign():
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1, got 2$"):
        LaurentSeries.one(3).monomial_mul(2, 1)


# -- addition -----------------------------------------------------------------


def test_add_cancels_to_constant():
    a = poly(1, 1, order=6)
    b = poly(1, -1, order=6)
    assert a + b == 2


def test_add_negative_valuation():
    s = LaurentSeries.one(10).monomial_mul(1, -2) + LaurentSeries.one(6).monomial_mul(1, 2)
    assert s.valuation == -2
    assert s[-2] == 1 and s[2] == 1
    assert all(s[e] == 0 for e in range(-1, 2))


def test_add_truncates_to_shorter_window():
    a = LaurentSeries(0, (1, 2, 3), 3)
    b = LaurentSeries(0, (1, 1, 1, 1, 1), 5)
    assert (a + b).order == 3


def test_int_addition_both_sides():
    a = poly(4, 1, order=5)
    assert a + 1 == 1 + a
    assert (a - 4).true_valuation() == 1


def test_int_minus_series():
    d = 5 - LaurentSeries(0, (1, 2, 3), 3)
    assert (d.valuation, list(d.coeffs), d.order) == (0, [4, -2, -3], 3)


# -- multiplication -----------------------------------------------------------


def test_difference_of_squares():
    a = poly(1, 1, order=6)
    b = poly(1, -1, order=6)
    assert a * b == poly(1, 0, -1, order=6)


def test_monomial_mul_shifts():
    a = LaurentSeries.one(9).monomial_mul(1, -3)
    assert a.monomial_mul(1, 5) == LaurentSeries.one(9).monomial_mul(1, 2)
    assert a.monomial_mul(-1, 3).monomial_mul(-1, -3) == a


def test_geometric_series_telescopes():
    n = 40
    geo = LaurentSeries(0, (1,) * n, n)
    assert poly(1, -1, order=n) * geo == 1


def test_mul_window_is_min_length():
    a = LaurentSeries(-1, (1, 2, 3), 2)       # length 3
    b = LaurentSeries(2, (1, 0, 0, 0, 1), 7)  # length 5
    p = a * b
    assert p.valuation == 1
    assert p.order == 1 + 3
    assert p == naive_mul(a, b)


def test_scalar_mul():
    a = poly(1, 2, 3, order=5)
    assert a * 3 == 3 * a == a + a + a
    assert a * 0 == 0


# -- inversion ----------------------------------------------------------------


def test_invert_one_minus_q():
    n = 30
    inv = poly(1, -1, order=n).invert()
    assert inv == LaurentSeries(0, (1,) * n, n)


def test_invert_negative_laurent_unit():
    # -q^-2 * (1 - q^5), written out as a Laurent block starting at q^-2
    n = 40
    coeffs = [0] * n
    coeffs[0], coeffs[5] = -1, 1
    a = LaurentSeries(-2, coeffs, n - 2)
    inv = a.invert()
    assert inv.valuation == 2
    assert a * inv == 1
    assert inv * a == 1


def test_invert_skips_leading_zeros():
    a = LaurentSeries(-4, (0, 0, 1, 5, 7), 1)  # true valuation -2
    inv = a.invert()
    assert inv.valuation == 2
    assert a * inv == 1


def test_invert_rejects_non_units():
    with pytest.raises(NotAUnit):
        LaurentSeries(0, (2, 1, 1), 3).invert()
    with pytest.raises(NotAUnit):
        LaurentSeries(0, (0,) * 5, 5).invert()


# -- block kernels: Kronecker products and Newton inversion -------------------

# 0, 1, 2 and the Newton doubling edges 2^j - 1, 2^j, 2^j + 1, up to 400
EDGE_LENGTHS = sorted({0, 1, 2, 400} | {2**j + d for j in range(1, 9) for d in (-1, 0, 1)})


def edge_blocks(rng: random.Random, n: int) -> list[list[int]]:
    """Blocks of length n: huge, all zero, one sign only, sparse."""
    return [
        [rng.randint(-(2**300), 2**300) for _ in range(n)],
        [0] * n,
        [rng.randint(0, 2**70) for _ in range(n)],
        [-rng.randint(0, 2**70) for _ in range(n)],
        [rng.choice((0, 0, 0, 1, -1)) for _ in range(n)],
    ]


def test_mul_matches_naive_on_edge_lengths_and_blocks():
    rng = random.Random(65537)
    for n in EDGE_LENGTHS:
        blocks = edge_blocks(rng, n)
        for a, b in zip(blocks, blocks[1:] + blocks[:1]):
            x = LaurentSeries(rng.randint(-3, 3), a)
            y = LaurentSeries(rng.randint(-3, 3), b + [rng.randint(-9, 9)] * rng.randint(0, 2))
            assert same(x * y, naive_mul(x, y)), n
            assert same(y * x, naive_mul(x, y)), n


def test_mul_fills_slots_up_to_byte_boundaries():
    # Same-magnitude 2^k - 1 entries make the top product coefficient
    # n * (2^ka - 1) * (2^kb - 1), the largest the slot width has to hold;
    # ka runs over eight values so ka + kb + n.bit_length() crosses a byte edge.
    for n in (1, 2, 8, 200):
        for ka in range(20, 28):
            kb = 24
            for sa, sb in ((1, 1), (-1, 1)):
                for alternate in (False, True):
                    a = [sa * (2**ka - 1) * (-1 if alternate and i % 2 else 1) for i in range(n)]
                    b = [sb * (2**kb - 1) * (-1 if alternate and i % 2 else 1) for i in range(n)]
                    x, y = LaurentSeries(0, a), LaurentSeries(0, b)
                    assert same(x * y, naive_mul(x, y)), (n, ka, sa, sb, alternate)


def random_unit(rng: random.Random, n: int, bound: int) -> LaurentSeries:
    """Up to three zeros, then u0 = +-1 and n - 1 more terms, at any valuation."""
    zeros = rng.randint(0, 3)
    coeffs = [0] * zeros + [rng.choice((1, -1))]
    coeffs += [rng.randint(-bound, bound) for _ in range(n - 1)]
    return LaurentSeries(rng.randint(-6, 6), coeffs)


def test_invert_matches_naive_recurrence_on_edge_lengths():
    rng = random.Random(40961)
    for n in EDGE_LENGTHS:
        if n == 0:
            continue
        for bound in (1, 3) if n > 64 else (1, 3, 2**40, 2**300):
            u = random_unit(rng, n, bound)
            inv = u.invert()
            assert same(inv, naive_invert(u)), (n, bound)
            assert naive_mul(u, inv) == 1


def test_ring_round_trip_at_full_size_matches_slow_path():
    # the benchmark's ring item at 600 terms: slots there are 11 bytes wide
    unit = expand_product(ProductSpec(1, 0, pochhammer((1, 2, 3, 4), 11), ()), 600)
    inverse = unit.invert()
    assert same(inverse, naive_invert(unit))
    assert same(unit * inverse, naive_mul(unit, inverse))
    assert same(unit * inverse, LaurentSeries.one(600))


# -- equality semantics ---------------------------------------------------------


def test_equality_compares_overlap_only():
    a = LaurentSeries(0, (1, 1), 2)
    b = LaurentSeries(0, (1, 1, 5), 3)
    assert a == b  # they agree wherever both are known
    assert b != LaurentSeries(0, (1, 2, 5), 3)


def test_equality_uses_below_valuation_zeros():
    a = LaurentSeries(3, (1,), 4)
    b = LaurentSeries(0, (0, 0, 0, 1), 4)
    assert a == b
    assert a != LaurentSeries(0, (1, 0, 0, 1), 4)


def test_comparison_reads_the_whole_common_window_and_nothing_past_it():
    base = poly(1, -1, 0, 2, 0, valuation=-1, order=4)
    for e in range(-1, 4):
        bumped = base + LaurentSeries.one(4 - e).monomial_mul(1, e)
        assert base != bumped and bumped != base
        assert compare_series(base, bumped) == IdentityCheck(False, e, base[e], base[e] + 1)
    assert compare_series(base, base) == IdentityCheck(True)
    # a coefficient past the lower order is unknown, never a difference
    assert base == LaurentSeries(-1, base.coeffs + (7,), 5)
    # an int is the constant series: q^0 holds it, every other exponent is 0
    assert LaurentSeries(0, (3, 0, 0, 0), 4) == 3
    assert LaurentSeries(0, (3, 0, 0, 1), 4) != 3
    assert LaurentSeries(-2, (0, 0, 3), 1) == 3
    assert LaurentSeries(-2, (1, 0, 3), 1) != 3


# -- formatting ---------------------------------------------------------------


def test_q_string():
    s = LaurentSeries(-1, (2, 1, 0, -1), 3)
    assert s.q_string() == "2*q^-1 + 1 - q^2 + O(q^3)"
    assert LaurentSeries(0, (0,) * 4, 4).q_string() == "0 + O(q^4)"


def test_q_string_stops_after_max_terms():
    assert LaurentSeries(0, (1,) * 6, 6).q_string(3) == "1 + q + q^2 + ... + O(q^6)"
    # exactly max_terms nonzero terms: nothing left out, no ellipsis
    assert LaurentSeries(0, (1, 0, 1, 0, 1, 0), 6).q_string(3) == "1 + q^2 + q^4 + O(q^6)"


# -- randomized ring properties -------------------------------------------------


def test_mul_matches_naive_oracle():
    rng = random.Random(20260819)
    for _ in range(300):
        a, b = random_series(rng), random_series(rng)
        assert a * b == naive_mul(a, b)


def test_ring_axioms():
    rng = random.Random(1729)
    for _ in range(200):
        a, b, c = (random_series(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        assert a * LaurentSeries.one(a.order - min(a.valuation, 0) + 1) == a


def test_random_units_invert_both_sides():
    rng = random.Random(8128)
    for _ in range(150):
        s = random_series(rng, max_len=20)
        coeffs = list(s.coeffs)
        if not coeffs:
            continue
        coeffs[0] = rng.choice((1, -1))
        u = LaurentSeries(s.valuation, coeffs, s.order)
        inv = u.invert()
        assert u * inv == 1
        assert inv * u == 1
        assert inv.valuation == -u.valuation


def test_random_monomial_shift_roundtrip():
    rng = random.Random(496)
    for _ in range(100):
        s = random_series(rng)
        e = rng.randint(-7, 7)
        sign = rng.choice((1, -1))
        assert s.monomial_mul(sign, e).monomial_mul(sign, -e) == s
