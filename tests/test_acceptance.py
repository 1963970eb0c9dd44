"""Acceptance suite: one test and one printed pass/fail line per criterion.

These are the package's gate checks.  Each test prints a single
"criterion NN: PASS/FAIL" line so a plain pytest -s run doubles as a
checklist; the assertions carry the same condition.
"""

from __future__ import annotations

import random
from unittest.mock import patch

import qvanish.products
from qvanish.cli import main
from qvanish.errors import InvalidParams
from qvanish.partitions import (
    RestrictedPartitionSpec,
    count_parity_split,
    count_restricted,
    count_restricted_by_parity,
    count_restricted_table,
    enumerate_restricted,
)
from qvanish.products import (
    BilateralSpecialization,
    ProductSpec,
    bilateral_product_spec,
    cancellation_check,
    compare_series,
    expand_product,
    jtp_product_spec,
    jtp_theta,
    pochhammer,
    verify_1psi1,
)
from qvanish.series import LaurentSeries
from qvanish.vanishing import (
    ShiftedQuotientParams,
    scan,
    verify_vanishing,
    zero_class,
)


def check(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    line = f"criterion {num:2d}: {status} {label}{suffix}"
    print(line)
    assert ok, line


def quotient(num_offsets, den_offsets, modulus, order, den_sign=1):
    spec = ProductSpec(
        1, 0, pochhammer(num_offsets, modulus), pochhammer(den_offsets, modulus, den_sign)
    )
    return expand_product(spec, order)


def class_is_zero(series, modulus, residue):
    return all(
        series[e] == 0 for e in range(residue, series.order, modulus) if e >= series.valuation
    )


def test_criterion_01_richmond_szekeres_fixtures():
    order = 2000
    cases = [
        ((3, 5), (1, 7), 8, 4, 3),   # F(q): c_{4n+3} = 0
        ((1, 7), (3, 5), 8, 4, 2),   # 1/F(q): d_{4n+2} = 0
        ((5, 7), (1, 11), 12, 6, 5), # G(q): a_{6n+5} = 0
        ((1, 11), (5, 7), 12, 6, 3), # 1/G(q): b_{6n+3} = 0
    ]
    ok = all(
        class_is_zero(quotient(num, den, modulus, order), res_mod, res)
        for num, den, modulus, res_mod, res in cases
    )
    check(1, "octic and duodecic quotients vanish on their classes at order 2000", ok)


def test_criterion_02_two_parameter_family_sweep():
    result = scan(range(2, 13), range(2, 3), 1000, "ab")
    ok = all(r.verified for r in result) and len(result.reports) == 31
    check(
        2,
        f"all {len(result.reports)} valid (k, r) pairs with k <= 12 verified at order 1000",
        ok,
    )


def test_criterion_03_shifted_quotient_sweep():
    result = scan(range(2, 9), range(2, 9), 1000, "plus")
    negative_offsets = sum(
        1
        for report in result.reports
        if report.params["s"] * report.params["m"] + report.params["t"]
        < report.params["t"] * report.params["k"]
    )
    ok = all(r.verified for r in result) and len(result.reports) > 600 and negative_offsets > 100
    check(
        3,
        f"all {len(result.reports)} tuples with m, k <= 8 verified at order 1000 "
        f"({negative_offsets} via the negative-offset rewrite)",
        ok,
    )


def test_criterion_04_sign_flipped_sweep():
    result = scan(range(2, 9), range(2, 9), 1000, "minus")
    odd_only = all(report.params["k"] % 2 == 1 for report in result.reports)
    ok = all(r.verified for r in result) and odd_only and len(result.reports) > 300
    check(
        4,
        f"all {len(result.reports)} odd-k tuples with m, k <= 8 verified at order 1000",
        ok,
    )


def test_criterion_05_modulus_30_products():
    order = 3000
    cases = [
        ((2, 28), 3, 2, (10, 3)),
        ((4, 26), 5, 4, (6, 5)),
        ((5, 25), 6, 5, (5, 6)),
        ((9, 21), 10, 9, (3, 10)),
        ((14, 16), 15, 14, (2, 15)),
    ]
    ok = True
    for num, res_mod, res, (m, k) in cases:
        series = quotient(num, (1, 29), 30, order)
        report = verify_vanishing(ShiftedQuotientParams(m, k, 0, 1), order)
        cls = report.zero_class
        ok = (
            ok
            and class_is_zero(series, res_mod, res)
            and report.verified
            and (cls.modulus, cls.residue) == (res_mod, res)
        )
    check(5, "five modulus-30 products vanish on their classes at order 3000", ok)


def test_criterion_06_k_equals_m_equals_3_products():
    order = 3000
    cases = [
        ((1, 8), (4, 5), 2, 1, 1),
        ((2, 7), (1, 8), 2, 2, 2),
        ((4, 5), (2, 7), 1, 2, 1),
    ]
    ok = True
    for num, den, res, s, t in cases:
        for sign, sign_name in ((1, "plus"), (-1, "minus")):
            series = quotient(num, den, 9, order, den_sign=sign)
            report = verify_vanishing(ShiftedQuotientParams(3, 3, s, t, sign_name), order)
            ok = (
                ok
                and class_is_zero(series, 3, res)
                and report.verified
                and report.zero_class.residue == res
            )
    check(6, "six k = m = 3 products vanish on classes 3n+2, 3n+2, 3n+1 at order 3000", ok)


def valid_shift_tuples(limit: int):
    for m in range(2, limit + 1):
        for k in range(2, limit + 1):
            for s in range(k):
                for t in range(1, m):
                    try:
                        yield ShiftedQuotientParams(m, k, s, t)
                    except InvalidParams:
                        continue


def test_criterion_07_bilateral_sum_identity():
    checked = 0
    ok = True
    for params in valid_shift_tuples(8):
        p = BilateralSpecialization(params.m, params.k, params.t, params.r)
        ok = ok and bool(verify_1psi1(p, 300))
        checked += 1
    # deliberately broken right side must be caught
    p = BilateralSpecialization(2, 15, 1, 1)
    good = bilateral_product_spec(p)
    broken = ProductSpec(
        good.prefactor_sign, good.prefactor_exponent, good.numerator[1:], good.denominator
    )
    with patch.object(qvanish.products, "bilateral_product_spec", return_value=broken):
        negative = verify_1psi1(p, 300)
    ok = ok and not negative.ok and negative.exponent is not None
    check(7, f"bilateral summation verified on {checked} tuples; negative control fails", ok)


def test_criterion_08_reindexing_cancellation():
    checked = boundary = 0
    ok = True
    for params in valid_shift_tuples(8):
        p = BilateralSpecialization(params.m, params.k, params.t, params.r)
        ok = ok and bool(cancellation_check(p, params.s, 300))
        checked += 1
        boundary += params.s == 0
    ok = ok and boundary > 0
    check(8, f"sum cancellation verified on {checked} tuples ({boundary} with s = 0)", ok)


def test_criterion_09_triple_product_equivalence(linear_expand):
    ok = True
    pairs = 0
    for modulus in range(2, 13):
        for a in range(1, modulus):
            theta = jtp_theta(modulus, a, 200)
            product = linear_expand(jtp_product_spec(modulus, a), 200)
            ok = ok and bool(compare_series(theta, product))
            pairs += 1
    check(9, f"theta sum equals product expansion for all {pairs} (M, a) pairs", ok)


def test_criterion_10_signed_sum_table(capsys):
    code = main(
        ["partitions", "signed-sum", "m=2", "k=15", "s=0", "t=1", "n=20", "--show-terms"]
    )
    out = capsys.readouterr().out
    expected = [
        "j argument signed",
        "-5 70 -13",
        "-4 176 203",
        "-3 252 -1654",
        "-2 298 3838",
        "-1 314 -5773",
        "0 300 4673",
        "1 256 -1654",
        "2 182 393",
        "3 78 -13",
        "total 0",
    ]
    ok = code == 0 and out.splitlines() == expected
    with capsys.disabled():
        check(10, "signed-sum table reproduces all nine reference rows and total 0", ok)


def test_criterion_11_parity_split_table():
    split = count_parity_split(2, 15, 8, 1, 149)
    spec = RestrictedPartitionSpec(
        30, repeatable_residues={17, 13}, distinct_residues={2, 28}
    )
    listed = enumerate_restricted(spec, 149)
    odd = {p.render() for p in listed if p.num_parts % 2 == 1}
    even = {p.render() for p in listed if p.num_parts % 2 == 0}
    ok = (
        split == (6, 6)
        and odd
        == {
            "2+13+17^6+32",
            "2+17^7+28",
            "2+17^4+32+47",
            "2+17^5+62",
            "13+17^8",
            "17^6+47",
        }
        and even
        == {
            "2+13^10+17",
            "2+13^8+43",
            "13^8+17+28",
            "13^6+28+43",
            "13^9+32",
            "13^7+58",
        }
    )
    check(11, "parity split is (6, 6) at 149 and both six-partition lists match", ok)


def test_criterion_12_counting_oracle_equivalence():
    rng = random.Random(20260819)
    ok = True
    specs = []
    while len(specs) < 200:
        modulus = rng.randint(4, 16)
        residues = rng.sample(range(modulus), rng.randint(1, 3))
        rep = frozenset(res for res in residues if res == 0 or rng.random() < 0.6)
        dist = frozenset(res for res in residues if res not in rep and res != 0)
        max_part = rng.randint(15, 80) if rng.random() < 0.4 else None
        spec = RestrictedPartitionSpec(modulus, rep, dist, max_part)
        if sum(count_restricted_table(spec, 100)) > 6000:
            continue
        specs.append(spec)
    for spec in specs:
        table = count_restricted_table(spec, 100)
        for n in range(101):
            listed = enumerate_restricted(spec, n)
            even = sum(1 for p in listed if p.num_parts % 2 == 0)
            ok = (
                ok
                and len(listed) == table[n] == count_restricted(spec, n)
                and count_restricted_by_parity(spec, n) == (even, len(listed) - even)
            )
        if not ok:
            break
    check(12, "DP counts equal enumeration counts on 200 random specs, n <= 100", ok)


def test_criterion_13_series_arithmetic_properties():
    rng = random.Random(1729)

    def random_series(max_len=20):
        valuation = rng.randint(-8, 8)
        length = rng.randint(0, max_len)
        coeffs = [rng.choice((0, 1, -1, rng.randint(-9, 9))) for _ in range(length)]
        return LaurentSeries(valuation, coeffs, valuation + length)

    ok = True
    for _ in range(500):
        a, b, c = random_series(), random_series(), random_series()
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a + b == b + a
        ok = ok and a * b == b * a
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        # unit inverse law
        lead = rng.choice((1, -1))
        tail = [rng.randint(-5, 5) for _ in range(rng.randint(0, 15))]
        unit = LaurentSeries(rng.randint(-6, 6), [lead] + tail)
        ok = ok and unit * unit.invert() == LaurentSeries.one(len(tail) + 1)
        # monomial shift involution
        sign = rng.choice((1, -1))
        shift = rng.randint(-10, 10)
        ok = ok and a.monomial_mul(sign, shift).monomial_mul(sign, -shift) == a
        if not ok:
            break
    check(13, "ring axioms, inverse law, and shift involution hold on 500 random series", ok)
