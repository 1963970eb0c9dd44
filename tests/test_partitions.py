"""Tests for restricted partition counting and the parity identities."""

from __future__ import annotations

import random

import pytest

import qvanish.partitions
from qvanish.errors import InvalidParams, TooLarge, replace
from qvanish.partitions import (
    Partition,
    ParityCountPair,
    RestrictedPartitionSpec,
    count_parity_split,
    count_restricted,
    count_restricted_by_parity,
    count_restricted_table,
    enumerate_restricted,
    parity_spec,
    signed_sum,
    signed_sum_terms,
    verify_parity_identity,
)
from qvanish.products import ProductSpec, expand_product, pochhammer
from qvanish.vanishing import ResidueClass, ShiftedQuotientParams, build_spec


def minus_grid():
    """Every valid ``minus`` tuple with odd k in 3..9 and m in 2..5, r < tk included."""
    for candidate in ShiftedQuotientParams.grid([3, 5, 7, 9], [2, 3, 4, 5], "minus"):
        try:
            yield ShiftedQuotientParams(**candidate)
        except InvalidParams:
            pass


def all_parts(modulus=1):
    return RestrictedPartitionSpec(modulus, {i for i in range(modulus)})


# -- reference dynamic programming ----------------------------------------------
# Per-part knapsack loops, independent of the product expansion the package
# uses: the oracle every count table is cross-checked against.


def reference_table(spec, n_max):
    rep, dist = spec.parts_up_to(n_max)
    dp = [0] * (n_max + 1)
    dp[0] = 1
    for p in rep:  # ascending: unbounded use of each part
        for i in range(p, n_max + 1):
            dp[i] += dp[i - p]
    for p in dist:  # descending: each part at most once
        for i in range(n_max, p - 1, -1):
            dp[i] += dp[i - p]
    return dp


def reference_parity_tables(spec, n_max):
    rep, dist = spec.parts_up_to(n_max)
    even = [0] * (n_max + 1)
    odd = [0] * (n_max + 1)
    even[0] = 1
    # each added copy of a part swaps the parity
    for p in rep:
        for i in range(p, n_max + 1):
            even[i], odd[i] = even[i] + odd[i - p], odd[i] + even[i - p]
    for p in dist:
        for i in range(n_max, p - 1, -1):
            even[i], odd[i] = even[i] + odd[i - p], odd[i] + even[i - p]
    return even, odd


def assert_matches_reference(spec, n_max):
    assert count_restricted_table(spec, n_max) == reference_table(spec, n_max), spec
    even, odd = reference_parity_tables(spec, n_max)
    for n in {0, n_max // 3, n_max // 2, n_max}:
        assert count_restricted_by_parity(spec, n) == (even[n], odd[n]), (spec, n)


def test_spec_validation():
    with pytest.raises(InvalidParams):
        RestrictedPartitionSpec(0, {0})
    with pytest.raises(InvalidParams):
        RestrictedPartitionSpec(5, {5})
    with pytest.raises(InvalidParams):
        RestrictedPartitionSpec(5, {-1})
    with pytest.raises(InvalidParams):
        RestrictedPartitionSpec(5, {2, 3}, {3})  # residue in both sets
    with pytest.raises(InvalidParams):
        RestrictedPartitionSpec(5, {1}, {0})  # 0 cannot be distinct
    with pytest.raises(InvalidParams):
        RestrictedPartitionSpec(5, {1}, max_part=0)


def test_spec_accepts_any_iterable():
    spec = RestrictedPartitionSpec(30, [1, 29, 0], (2,))
    assert spec.repeatable_residues == frozenset({0, 1, 29})
    assert spec.distinct_residues == frozenset({2})


def test_parts_up_to():
    spec = RestrictedPartitionSpec(10, {0, 3}, {7})
    rep, dist = spec.parts_up_to(25)
    assert rep == [3, 10, 13, 20, 23]  # residue 0 means multiples of 10
    assert dist == [7, 17]
    capped = RestrictedPartitionSpec(10, {0, 3}, {7}, max_part=13)
    rep, dist = capped.parts_up_to(25)
    assert rep == [3, 10, 13]
    assert dist == [7]


def test_count_empty_and_zero():
    spec = RestrictedPartitionSpec(4, {1})
    assert count_restricted(spec, 0) == 1  # the empty partition
    assert count_restricted(RestrictedPartitionSpec(4), 3) == 0
    assert count_restricted(RestrictedPartitionSpec(4), 0) == 1
    with pytest.raises(InvalidParams):
        count_restricted(spec, -1)


def test_count_matches_classical_values():
    # unrestricted partitions of 10, and partitions into distinct odd parts
    assert count_restricted(all_parts(), 10) == 42
    distinct_odd = RestrictedPartitionSpec(2, (), {1})
    assert [count_restricted(distinct_odd, n) for n in range(9)] == [1, 1, 0, 1, 1, 1, 1, 1, 2]


def test_count_table_consistent_with_single_counts():
    spec = RestrictedPartitionSpec(6, {1, 5}, {2})
    table = count_restricted_table(spec, 40)
    assert table == [count_restricted(spec, n) for n in range(41)]


def test_counts_match_enumeration_randomized():
    rng = random.Random(20260819)
    for _ in range(60):
        modulus = rng.randint(2, 8)
        residues = list(range(modulus))
        rng.shuffle(residues)
        cut = rng.randint(0, modulus)
        rep = set(residues[:cut])
        dist = {res for res in residues[cut:] if res != 0 and rng.random() < 0.5}
        max_part = rng.choice([None, rng.randint(1, 30)])
        spec = RestrictedPartitionSpec(modulus, rep, dist, max_part)
        n = rng.randint(0, 32)
        listed = enumerate_restricted(spec, n)
        assert count_restricted(spec, n) == len(listed)
        even = sum(1 for p in listed if p.num_parts % 2 == 0)
        odd = len(listed) - even
        assert count_restricted_by_parity(spec, n) == (even, odd)
        for p in listed:
            assert sum(p.parts) == n
            for part in p.parts:
                assert part % modulus in rep | dist
                if max_part is not None:
                    assert part <= max_part
            for d in dist:
                sized = [part for part in p.parts if part % modulus == d]
                assert len(set(sized)) == len(sized)


def test_counts_match_reference_dp_on_chosen_specs():
    cases = [
        RestrictedPartitionSpec(1, {0}),  # modulus 1: all partitions
        RestrictedPartitionSpec(30, {0, 1, 29}),  # residue 0 plus a pair
        RestrictedPartitionSpec(12, {6}),  # residue M/2, unpaired
        RestrictedPartitionSpec(12, {0, 6}, {5, 7}),
        RestrictedPartitionSpec(10, (), {3, 7}),  # distinct-only pair
        RestrictedPartitionSpec(10, (), {3, 4}),  # distinct-only, unpaired
        RestrictedPartitionSpec(10, {1, 9, 4}),  # repeatable-only, one unpaired
        RestrictedPartitionSpec(30, {13, 17}, {2, 28}),  # the parity-identity mix
        RestrictedPartitionSpec(2, {1}, ()),  # odd parts: residue M/2 again
        RestrictedPartitionSpec(7),  # no parts at all
    ]
    for spec in cases:
        assert_matches_reference(spec, 400)


def test_counts_match_reference_dp_with_part_cap():
    n = 300
    for max_part in (1, 29, n - 1, n, n + 1, 10 * n):
        for spec in (
            RestrictedPartitionSpec(30, {0, 1, 29}, max_part=max_part),
            RestrictedPartitionSpec(8, {3, 5}, {1, 7}, max_part=max_part),
            RestrictedPartitionSpec(1, {0}, max_part=max_part),
        ):
            assert_matches_reference(spec, n)
    mix = RestrictedPartitionSpec(30, {13, 17}, {2, 28})
    # a cap below every residue leaves only the empty partition
    assert count_restricted_table(replace(mix, max_part=1), n) == [1] + [0] * n
    # caps a - 1, a, a + M - 1 and a + M around the distinct residue 2 and the
    # paired repeatable residue 13
    for a in (2, 13):
        for max_part in (a - 1, a, a + 29, a + 30):
            assert_matches_reference(replace(mix, max_part=max_part), n)


def test_counts_match_reference_dp_randomized():
    rng = random.Random(5150)
    for _ in range(120):
        modulus = rng.randint(1, 16)
        residues = list(range(modulus))
        rng.shuffle(residues)
        rep = set(residues[: rng.randint(0, modulus)])
        pool = [res for res in range(1, modulus) if res not in rep]
        dist = {res for res in pool if rng.random() < 0.4}
        if rng.random() < 0.5:  # favour paired residues: close rep and dist under negation
            rep |= {(-res) % modulus for res in rep if (-res) % modulus not in dist}
            dist |= {(-res) % modulus for res in dist if (-res) % modulus not in rep}
        n_max = rng.randint(0, 400)
        max_part = rng.choice([None, None, rng.randint(1, 450), n_max or 1])
        assert_matches_reference(RestrictedPartitionSpec(modulus, rep, dist, max_part), n_max)


def test_counts_match_product_expansion(linear_expand):
    # generating function: parts = 0, +-1 (mod 30), repeatable
    spec = ProductSpec(1, 0, (), pochhammer((1, 29, 30), 30))
    series = linear_expand(spec, 401)
    table = count_restricted_table(RestrictedPartitionSpec(30, {0, 1, 29}), 400)
    assert [series[n] for n in range(401)] == table


def test_parity_difference_matches_quotient_expansion(linear_expand):
    # sum (even - odd) q^n equals the normalized quotient for the sign-flipped
    # family, in both the positive and negative offset cases
    for m, k, s, t in ((2, 15, 8, 1), (3, 3, 0, 2)):
        params = ShiftedQuotientParams(m, k, s, t, "minus")
        spec = build_spec(params)
        series = linear_expand(ProductSpec(1, 0, spec.numerator, spec.denominator), 301)
        r, mk, tk = params.r, m * k, t * k
        pspec = RestrictedPartitionSpec(
            mk,
            repeatable_residues={r % mk, (-r) % mk},
            distinct_residues={(r - tk) % mk, (tk - r) % mk},
        )
        for n in range(0, 301, 7):
            even, odd = count_restricted_by_parity(pspec, n)
            assert series[n] == even - odd


def test_signed_sum_rows():
    # the nine admissible j for (m, k, s, t) = (2, 15, 0, 1) at n = 20
    terms = signed_sum_terms(2, 15, 0, 1, 20)
    rows = [(term.j, term.argument, term.signed) for term in terms]
    assert rows == [
        (-5, 70, -13),
        (-4, 176, 203),
        (-3, 252, -1654),
        (-2, 298, 3838),
        (-1, 314, -5773),
        (0, 300, 4673),
        (1, 256, -1654),
        (2, 182, 393),
        (3, 78, -13),
    ]
    assert sum(row[2] for row in rows) == 0
    assert all(term.count == abs(term.signed) for term in terms)


def test_reference_counts():
    spec = RestrictedPartitionSpec(30, {0, 1, 29})
    assert count_restricted(spec, 70) == 13
    assert count_restricted(spec, 300) == 4673


def test_signed_sum_vanishes_on_small_grid():
    for m in range(2, 6):
        for k in range(2, 6):
            for s in range(k):
                for t in range(1, m):
                    try:
                        ShiftedQuotientParams(m, k, s, t)
                    except InvalidParams:
                        continue
                    for n in range(31):
                        assert signed_sum(m, k, s, t, n) == 0, (m, k, s, t, n)


def test_signed_sum_against_brute_force_window():
    # recompute the terms with an oversized j loop and a separately built table
    for m, k, s, t, n in ((2, 15, 0, 1, 20), (3, 4, 2, 1, 17), (5, 3, 1, 3, 26)):
        params = ShiftedQuotientParams(m, k, s, t)
        r, mk, tk = params.r, m * k, t * k
        target = n * k - r * s
        admissible = []
        for j in range(-80, 81):
            a = target - mk * j * (j + 1) // 2 - j * (tk - r)
            if a >= 0:
                admissible.append((j, a))
        table = count_restricted_table(
            RestrictedPartitionSpec(mk, {0, r % mk, (-r) % mk}),
            max(a for _, a in admissible),
        )
        expected = [
            (j, a, table[a] if j % 2 == 0 else -table[a]) for j, a in admissible
        ]
        got = [(term.j, term.argument, term.signed) for term in signed_sum_terms(m, k, s, t, n)]
        assert got == expected
        assert sum(row[2] for row in expected) == 0


def test_signed_sum_empty_window():
    # nk - rs so negative that no j qualifies
    assert signed_sum_terms(2, 15, 14, 1, 0) == []
    assert signed_sum(2, 15, 14, 1, 0) == 0


def test_signed_sum_zero_target():
    terms = signed_sum_terms(2, 15, 0, 1, 0)
    assert [(term.j, term.argument, term.signed) for term in terms] == [(-1, 14, -1), (0, 0, 1)]


def test_signed_sum_validates_params():
    with pytest.raises(InvalidParams):
        signed_sum(2, 4, 1, 2, 10)  # r = 6 shares a factor with k = 4
    with pytest.raises(InvalidParams):
        signed_sum(2, 15, 15, 1, 10)  # s out of range


def test_parity_split_reference_value():
    assert count_parity_split(2, 15, 8, 1, 149) == (6, 6)
    assert count_parity_split(2, 15, 8, 1, 149) == ParityCountPair(6, 6)


def test_parity_split_enumeration_matches_reference_lists():
    # distinct parts = +-2, repeatable parts = +-17 (mod 30), total 149
    spec = RestrictedPartitionSpec(
        30, repeatable_residues={17, 13}, distinct_residues={2, 28}
    )
    listed = enumerate_restricted(spec, 149)
    odd = {p.render() for p in listed if p.num_parts % 2 == 1}
    even = {p.render() for p in listed if p.num_parts % 2 == 0}
    assert odd == {
        "2+13+17^6+32",
        "2+17^7+28",
        "2+17^4+32+47",
        "2+17^5+62",
        "13+17^8",
        "17^6+47",
    }
    assert even == {
        "2+13^10+17",
        "2+13^8+43",
        "13^8+17+28",
        "13^6+28+43",
        "13^9+32",
        "13^7+58",
    }


def test_verify_parity_identity():
    report = verify_parity_identity(2, 15, 8, 1, 400)
    assert report.ok
    assert bool(report)
    assert report.violations == ()
    assert str(report.residue_class) == "15n+14"
    assert report.params == {"m": 2, "k": 15, "s": 8, "t": 1}
    # negative offset case picks the shifted class kn - r(s+1)
    report = verify_parity_identity(3, 3, 0, 2, 300)
    assert report.ok
    assert report.residue_class.residue == (-2 * 1) % 3


def shift_predicted_class(monkeypatch):
    """Move every ShiftedQuotientParams zero class up by one residue."""
    zero_class = ShiftedQuotientParams.zero_class

    def shifted_class(params):
        cls = zero_class(params)
        return ResidueClass(cls.modulus, cls.residue + 1)

    monkeypatch.setattr(ShiftedQuotientParams, "zero_class", shifted_class)


def test_parity_identity_reports_violations_off_its_class(monkeypatch):
    shift_predicted_class(monkeypatch)
    report = verify_parity_identity(2, 15, 8, 1, 200)
    assert not report
    assert report.residue_class == ResidueClass(15, 0)
    assert report.violations
    spec = parity_spec(2, 15, 8, 1)
    for n, even, odd in report.violations:
        assert n % 15 == 0
        assert (even, odd) == count_restricted_by_parity(spec, n), n


def test_parity_identity_window_includes_n_max(monkeypatch):
    # n_max = 195 lies in the shifted class 0 mod 15, so it is the last violation
    shift_predicted_class(monkeypatch)
    report = verify_parity_identity(2, 15, 8, 1, 195)
    assert report.violations[-1] == (195, *count_parity_split(2, 15, 8, 1, 195))


def test_parity_identity_expands_the_total_only_for_violations(monkeypatch):
    signs = []
    expand = qvanish.partitions._expand

    def recording(spec, n_max, sign):
        signs.append(sign)
        return expand(spec, n_max, sign)

    monkeypatch.setattr(qvanish.partitions, "_expand", recording)
    # the signed series is the minus quotient, which verify_vanishing expands
    assert verify_parity_identity(2, 15, 8, 1, 200)
    assert signs == []
    shift_predicted_class(monkeypatch)
    assert not verify_parity_identity(2, 15, 8, 1, 200)
    assert signs == [1]


def test_parity_identity_not_vacuous():
    # off the residue class the even and odd counts genuinely differ somewhere
    spec = RestrictedPartitionSpec(
        30, repeatable_residues={17, 13}, distinct_residues={2, 28}
    )
    assert any(
        even != odd
        for n in range(100)
        if n % 15 != 14
        for even, odd in [count_restricted_by_parity(spec, n)]
    )


def test_parity_spec_residues():
    assert parity_spec(2, 15, 8, 1) == RestrictedPartitionSpec(
        30, repeatable_residues={17, 13}, distinct_residues={2, 28}
    )
    # r = 2 < tk = 6: the distinct pair is +-(r - tk) = 5, 4 (mod 9)
    assert parity_spec(3, 3, 0, 2) == RestrictedPartitionSpec(9, {2, 7}, {5, 4})
    with pytest.raises(InvalidParams):
        parity_spec(3, 4, 1, 2)
    for p in minus_grid():
        r, mk, tk = p.r, p.m * p.k, p.t * p.k
        assert parity_spec(p.m, p.k, p.s, p.t) == RestrictedPartitionSpec(
            mk, {r % mk, -r % mk}, {(r - tk) % mk, (tk - r) % mk}
        ), p


def test_signed_parity_series_is_the_minus_quotient():
    # sum (even - odd) q^n, every part weighted by -1, is the normalized minus quotient
    grid = list(minus_grid())
    assert any(p.r < p.t * p.k for p in grid) and any(p.r > p.t * p.k for p in grid)
    for p in grid:
        spec = p.spec()
        quotient = expand_product(ProductSpec(1, 0, spec.numerator, spec.denominator), 201)
        signed = qvanish.partitions._expand(parity_spec(p.m, p.k, p.s, p.t), 200, -1)
        assert signed == list(quotient.coeffs), p


def test_parity_split_requires_odd_k():
    with pytest.raises(InvalidParams):
        count_parity_split(3, 4, 1, 2, 50)
    with pytest.raises(InvalidParams):
        verify_parity_identity(3, 4, 1, 2, 50)


def test_partition_canonical_order_and_properties():
    p = Partition((17, 2, 13, 17, 32, 17))
    assert p.parts == (2, 13, 17, 17, 17, 32)
    assert sum(p.parts) == 98
    assert p.num_parts == 6
    assert Partition((17, 2, 13, 17, 32, 17)) == Partition((2, 13, 17, 17, 17, 32))
    with pytest.raises(InvalidParams):
        Partition((3, 0))


def test_partition_render():
    assert Partition((2, 13, 17, 17, 17, 17, 17, 17, 32)).render() == "2+13+17^6+32"
    assert Partition((5,)).render() == "5"
    assert Partition(()).render() == "0"
    assert str(Partition((3, 3))) == "3^2"




def test_enumerate_order_and_small_cases():
    spec = RestrictedPartitionSpec(3, {1, 2})
    listed = enumerate_restricted(spec, 5)
    assert [p.parts for p in listed] == [
        (1, 1, 1, 1, 1),
        (1, 1, 1, 2),
        (1, 2, 2),
        (1, 4),
        (5,),
    ]
    assert enumerate_restricted(spec, 0) == [Partition(())]


def test_enumerate_cap():
    with pytest.raises(TooLarge):
        enumerate_restricted(all_parts(), 40, cap=100)
    with pytest.raises(InvalidParams):
        enumerate_restricted(all_parts(), 5, cap=0)
