"""Tests for the theorem families, their zero classes, and grid scans."""

from __future__ import annotations

import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qvanish
from qvanish import InvalidParams, LaurentSeries
from qvanish.errors import Frozen, replace
from qvanish.products import (
    BilateralSpecialization,
    IdentityCheck,
    PochhammerFactor,
    ProductSpec,
    expand_factor,
    expand_product,
    pochhammer,
)
from qvanish.partitions import (
    ParityIdentityReport,
    Partition,
    RestrictedPartitionSpec,
    SignedTerm,
)
from qvanish.vanishing import (
    FAMILIES,
    AlladiGordonParams,
    AndrewsBressoudParams,
    ResidueClass,
    ScanResult,
    ShiftedQuotientParams,
    VanishingReport,
    build_spec,
    scan,
    verify_vanishing,
    zero_class,
)


# -- parameter validation ------------------------------------------------------


def test_ab_params_validation():
    AndrewsBressoudParams(4, 3)
    for bad in [(1, 1), (4, 0), (4, 4), (6, 3), (9, 3), (5, 3)]:
        # gcd(3,9) != 1; (5,3) same parity; (6,3) shares a factor and same parity
        with pytest.raises(InvalidParams):
            AndrewsBressoudParams(*bad)


def test_shifted_params_validation():
    p = ShiftedQuotientParams(2, 15, 0, 1)
    assert p.r == 1 and p.family == "plus"
    for bad in [
        (1, 3, 0, 1, "plus"),
        (3, 1, 0, 1, "plus"),
        (3, 3, 3, 1, "plus"),
        (3, 3, -1, 1, "plus"),
        (3, 3, 0, 0, "plus"),
        (3, 3, 0, 3, "plus"),
        (2, 3, 1, 1, "plus"),  # r = 3 shares a factor with k = 3
        (3, 4, 1, 1, "minus"),  # minus needs odd k
        (3, 3, 0, 1, "both"),
    ]:
        with pytest.raises(InvalidParams):
            ShiftedQuotientParams(*bad)


def test_ag_params_validation_and_derivation():
    p = AlladiGordonParams(5, 6, 1)
    assert (p.r_star, p.r, p.r_prime) == (5, 5, 1)
    p = AlladiGordonParams(2, 5, 3)
    assert (p.r_star, p.r, p.r_prime) == (12, 2, 2)
    for bad in [
        (5, 5, 1, "plus"),   # needs m < k
        (6, 5, 1, "plus"),
        (2, 5, 0, "plus"),
        (2, 5, 10, "plus"),  # s = mk out of range
        (2, 5, 2, "plus"),   # gcd(s, km) != 1
        (2, 4, 1, "minus"),  # minus needs odd k
    ]:
        with pytest.raises(InvalidParams):
            AlladiGordonParams(*bad)


def test_residue_class_reduces():
    rc = ResidueClass(15, -1)
    assert rc.residue == 14
    assert rc.contains(29) and not rc.contains(15)
    assert str(rc) == "15n+14"
    assert str(ResidueClass(3, 0)) == "3n"


# -- build_spec ----------------------------------------------------------------


def test_build_spec_shifted_with_negative_offset():
    spec = build_spec(ShiftedQuotientParams(10, 3, 0, 1))
    assert spec.prefactor_sign == -1 and spec.prefactor_exponent == -2
    assert [f.offset for f in spec.numerator] == [28, 2]
    assert [f.offset for f in spec.denominator] == [1, 29]
    assert all(f.modulus == 30 for f in spec.numerator + spec.denominator)


def test_build_spec_shifted_with_positive_offset():
    spec = build_spec(ShiftedQuotientParams(3, 3, 1, 1))
    assert (spec.prefactor_sign, spec.prefactor_exponent) == (1, 0)
    assert [f.offset for f in spec.numerator] == [1, 8]
    assert [f.offset for f in spec.denominator] == [4, 5]
    assert all(f.modulus == 9 for f in spec.numerator)


def test_build_spec_ab():
    # (q^3, q^5; q^8) / (q, q^7; q^8), numerator in the embedded shifted
    # tuple's order and without its -q^{-3} prefactor
    spec = build_spec(AndrewsBressoudParams(4, 3))
    assert spec == ProductSpec(1, 0, pochhammer((5, 3), 8), pochhammer((1, 7), 8))


def test_build_spec_minus_negates_denominator():
    spec = build_spec(ShiftedQuotientParams(3, 3, 1, 1, "minus"))
    assert all(f.arg_sign == -1 for f in spec.denominator)
    assert all(f.arg_sign == 1 for f in spec.numerator)


def test_build_spec_ag():
    # numerator pair in the embedded shifted tuple's order, no prefactor
    spec = build_spec(AlladiGordonParams(5, 6, 1))
    assert spec == ProductSpec(1, 0, pochhammer((25, 5), 30), pochhammer((1, 29), 30))
    spec = build_spec(AlladiGordonParams(2, 5, 1, "minus"))
    assert spec == ProductSpec(1, 0, pochhammer((6, 4), 10), pochhammer((1, 9), 10, -1))


# -- zero_class ----------------------------------------------------------------


def test_zero_class_fixtures():
    assert zero_class(AndrewsBressoudParams(4, 3)) == ResidueClass(4, 3)
    assert zero_class(AndrewsBressoudParams(4, 1)) == ResidueClass(4, 2)
    assert zero_class(AndrewsBressoudParams(6, 5)) == ResidueClass(6, 5)
    assert zero_class(AndrewsBressoudParams(6, 1)) == ResidueClass(6, 3)
    assert zero_class(ShiftedQuotientParams(2, 15, 0, 1)) == ResidueClass(15, 14)
    assert zero_class(ShiftedQuotientParams(3, 3, 2, 1)) == ResidueClass(3, 1)
    assert zero_class(ShiftedQuotientParams(3, 3, 1, 1)) == ResidueClass(3, 2)
    assert zero_class(AlladiGordonParams(5, 6, 1)) == ResidueClass(6, 5)
    assert zero_class(AlladiGordonParams(2, 5, 3)) == ResidueClass(5, 4)


def test_zero_class_minus_matches_plus():
    for (m, k, s, t) in [(3, 3, 1, 1), (3, 3, 2, 2), (3, 3, 2, 1), (2, 15, 0, 1)]:
        assert zero_class(ShiftedQuotientParams(m, k, s, t)) == zero_class(
            ShiftedQuotientParams(m, k, s, t, "minus")
        )


# -- verify_vanishing ----------------------------------------------------------


def test_verify_ab_six_five():
    rep = verify_vanishing(AndrewsBressoudParams(6, 5), 1000)
    assert rep.verified
    assert rep.zero_class == ResidueClass(6, 5)
    assert rep.zero_class in rep.observed_zero_classes


def test_verify_minus_corollary():
    rep = verify_vanishing(ShiftedQuotientParams(3, 3, 2, 1, "minus"), 500)
    assert rep.verified and rep.zero_class == ResidueClass(3, 1)


def test_verify_modulus_thirty_corollaries():
    for (m, k, res) in [(10, 3, 2), (6, 5, 4), (5, 6, 5), (3, 10, 9), (2, 15, 14)]:
        rep = verify_vanishing(ShiftedQuotientParams(m, k, 0, 1), 600)
        assert rep.verified and rep.zero_class == ResidueClass(k, res)


def test_verify_ag_both_signs():
    for sign in ("plus", "minus"):
        rep = verify_vanishing(AlladiGordonParams(2, 5, 3, sign), 400)
        assert rep.verified and rep.zero_class == ResidueClass(5, 4)


def test_predicted_class_always_observed():
    cases = [
        AndrewsBressoudParams(8, 3),
        ShiftedQuotientParams(4, 5, 3, 2),
        ShiftedQuotientParams(4, 5, 3, 2, "minus"),
        AlladiGordonParams(3, 7, 4),
    ]
    for params in cases:
        rep = verify_vanishing(params, 400)
        assert rep.verified
        assert rep.zero_class in rep.observed_zero_classes


def test_observed_needs_enough_samples():
    # class 4n+2 has its 10th exponent at 38: an order-38 window leaves it
    # one sample short of being labeled, order 39 reaches the threshold
    rep = verify_vanishing(AndrewsBressoudParams(4, 1), 38)
    assert rep.observed_zero_classes == ()
    rep = verify_vanishing(AndrewsBressoudParams(4, 1), 39)
    assert rep.zero_class in rep.observed_zero_classes


def test_verify_order_must_be_positive():
    with pytest.raises(InvalidParams):
        verify_vanishing(AndrewsBressoudParams(4, 1), 0)


def test_remark_rewrite_as_raw_laurent_identity():
    # (q^{-c}, q^{mk+c}; q^{mk}) = -q^{-c} (q^{mk-c}, q^c; q^{mk}) computed
    # from scratch: peel the i=0 linear factor (1 - q^{-c}) off the first symbol
    for (m, k, s, t) in [(10, 3, 0, 1), (2, 15, 0, 1), (3, 3, 0, 2)]:
        mk, tk, r = m * k, t * k, s * m + t
        c = tk - r
        assert c > 0
        order = 80
        raw = LaurentSeries.one(order + c) + LaurentSeries.one(order + 2 * c).monomial_mul(-1, -c)
        raw = raw * expand_factor(PochhammerFactor(1, mk - c, mk), order + c)
        raw = raw * expand_factor(PochhammerFactor(1, mk + c, mk), order + c)
        normalized = expand_product(
            ProductSpec(1, 0, pochhammer((mk - c, c), mk), ()), order + c
        )
        assert raw == normalized.monomial_mul(-1, -c)
        # and the full built spec equals the normalized expansion shifted the same way
        spec = build_spec(ShiftedQuotientParams(m, k, s, t))
        assert expand_product(spec, order) == expand_product(
            ProductSpec(1, 0, spec.numerator, spec.denominator), order + c
        ).monomial_mul(-1, -c)


def _valid_tuples(family, k_range, m_range):
    cls = FAMILIES[family]
    for candidate in cls.grid(list(k_range), list(m_range), family):
        try:
            yield cls(**candidate)
        except InvalidParams:
            continue


def _claim(spec, cls):
    """(numerator, denominator, class) of the normalized quotient, factor order forgotten."""
    factors = lambda fs: sorted((f.arg_sign, f.offset, f.modulus) for f in fs)
    return factors(spec.numerator), factors(spec.denominator), cls


def test_ag_and_shifted_classes_coincide_on_shared_products():
    # the three modulus-30 products covered by both families
    pairs = [
        (AlladiGordonParams(5, 6, 1), ShiftedQuotientParams(5, 6, 0, 1)),
        (AlladiGordonParams(3, 10, 1), ShiftedQuotientParams(3, 10, 0, 1)),
        (AlladiGordonParams(2, 15, 1), ShiftedQuotientParams(2, 15, 0, 1)),
    ]
    for ag, sh in pairs:
        assert _claim(build_spec(ag), zero_class(ag)) == _claim(build_spec(sh), zero_class(sh))

    # Andrews-Bressoud: its classical quotient and class kn + r(k-r+1)/2
    checked = 0
    for p in _valid_tuples("ab", range(2, 30), ()):
        k, r = p.k, p.r
        spec = build_spec(p)
        assert (spec.prefactor_sign, spec.prefactor_exponent) == (1, 0)
        classical = ProductSpec(
            1, 0, pochhammer((r, 2 * k - r), 2 * k), pochhammer((k - r, k + r), 2 * k)
        )
        oracle = ResidueClass(k, r * (k - r + 1) // 2)
        assert _claim(spec, zero_class(p)) == _claim(classical, oracle), p
        checked += 1
    assert checked == 178

    # Alladi-Gordon: its classical quotient and class r r' mod k, with
    # r = (k-1)s mod mk and r' = ceil((k-1)s / mk)
    checked = 0
    for p in _valid_tuples("ag", range(2, 14), range(2, 9)):
        k, s, mk = p.k, p.s, p.m * p.k
        r, r_prime = (k - 1) * s % mk, -(-(k - 1) * s // mk)
        assert (p.r, p.r_prime) == (r, r_prime) and 1 <= r_prime < k, p
        spec = build_spec(p)
        assert (spec.prefactor_sign, spec.prefactor_exponent) == (1, 0)
        den_sign = 1 if p.sign == "plus" else -1
        classical = ProductSpec(
            1, 0, pochhammer((r, mk - r), mk), pochhammer((s, mk - s), mk, den_sign)
        )
        oracle = ResidueClass(k, r * r_prime)
        assert _claim(spec, zero_class(p)) == _claim(classical, oracle), p
        checked += 1
    assert checked == 1754

    # the shifted tuple with mk - r in place of r, (s, t) -> (k-1-s, m-t),
    # makes the same claim
    checked = 0
    for family in ("plus", "minus"):
        for p in _valid_tuples(family, range(2, 9), range(2, 9)):
            twin = ShiftedQuotientParams(p.m, p.k, p.k - 1 - p.s, p.m - p.t, p.sign)
            assert twin.r == p.m * p.k - p.r
            assert _claim(build_spec(p), zero_class(p)) == _claim(
                build_spec(twin), zero_class(twin)
            ), p
            checked += 1
    assert checked == 990


def test_paired_expansion_equals_linear_on_every_grid_tuple(linear_expand):
    # verify_vanishing expands through theta pairs; the linear path is the
    # reference on every valid tuple of the sweep grids
    grids = [("ab", range(2, 13), ())]
    grids += [(family, range(2, 9), range(2, 9)) for family in ("plus", "minus", "ag")]
    checked = 0
    for family, k_range, m_range in grids:
        for params in _valid_tuples(family, k_range, m_range):
            spec = build_spec(params)
            normalized = ProductSpec(1, 0, spec.numerator, spec.denominator)
            assert expand_product(normalized, 300) == linear_expand(normalized, 300), params
            checked += 1
    assert checked == 31 + 1288  # ab; then plus, minus and ag together


# one value of each of the package's value types, and its exact repr; the
# dict-valued types have no hash
VALUE_TYPES = [
    (PochhammerFactor, (-1, 2, 7), True, "PochhammerFactor(arg_sign=-1, offset=2, modulus=7)"),
    (
        ProductSpec,
        (-1, -3, [PochhammerFactor(1, 2, 7)], ()),
        True,
        "ProductSpec(prefactor_sign=-1, prefactor_exponent=-3, "
        "numerator=(PochhammerFactor(arg_sign=1, offset=2, modulus=7),), denominator=())",
    ),
    (BilateralSpecialization, (3, 5, 2, 1), True, "BilateralSpecialization(m=3, k=5, t=2, r=1)"),
    (IdentityCheck, (True,), True, "IdentityCheck(ok=True, exponent=None, lhs=None, rhs=None)"),
    (IdentityCheck, (False, 4, -1, 2), True, "IdentityCheck(ok=False, exponent=4, lhs=-1, rhs=2)"),
    (ResidueClass, (5, 7), True, "ResidueClass(modulus=5, residue=2)"),
    (
        ShiftedQuotientParams,
        (3, 5, 2, 1),
        True,
        "ShiftedQuotientParams(m=3, k=5, s=2, t=1, sign='plus')",
    ),
    (AndrewsBressoudParams, (4, 3), True, "AndrewsBressoudParams(k=4, r=3)"),
    (
        AlladiGordonParams,
        (2, 5, 3, "minus"),
        True,
        "AlladiGordonParams(m=2, k=5, s=3, sign='minus')",
    ),
    (
        VanishingReport,
        ("ab", {"k": 4, "r": 3}, 1, ProductSpec(1, 0, (), ()), 10, ResidueClass(4, 1), ((2, -1),),
         (ResidueClass(4, 3),)),
        False,
        "VanishingReport(family='ab', params={'k': 4, 'r': 3}, r=1, "
        "spec=ProductSpec(prefactor_sign=1, prefactor_exponent=0, numerator=(), denominator=()), "
        "order=10, zero_class=ResidueClass(modulus=4, residue=1), violations=((2, -1),), "
        "observed_zero_classes=(ResidueClass(modulus=4, residue=3),))",
    ),
    (
        ScanResult,
        ((), (({"k": 2, "r": 1}, "bad"),)),
        False,
        "ScanResult(reports=(), skipped=(({'k': 2, 'r': 1}, 'bad'),))",
    ),
    (ScanResult, ((), ()), True, "ScanResult(reports=(), skipped=())"),
    (
        RestrictedPartitionSpec,
        (30, [0, 1], {7}, 40),
        True,
        "RestrictedPartitionSpec(modulus=30, repeatable_residues=frozenset({0, 1}), "
        "distinct_residues=frozenset({7}), max_part=40)",
    ),
    (Partition, ([17, 2, 13, 17],), True, "Partition(parts=(2, 13, 17, 17))"),
    (SignedTerm, (-1, 12, 5, -5), True, "SignedTerm(j=-1, argument=12, count=5, signed=-5)"),
    (
        ParityIdentityReport,
        ({"m": 3}, ResidueClass(5, 1), 20, ((6, 1, 2),)),
        False,
        "ParityIdentityReport(params={'m': 3}, residue_class=ResidueClass(modulus=5, residue=1), "
        "n_max=20, violations=((6, 1, 2),))",
    ),
]


def test_value_types_are_frozen_slotted_and_picklable():
    assert len({cls for cls, *_ in VALUE_TYPES}) == 14
    for cls, args, hashable, expected in VALUE_TYPES:
        value, again = cls(*args), cls(*args)
        assert repr(value) == expected
        names = list(cls._fields)
        # the field list is the constructor's parameter list
        assert names == list(inspect.signature(cls).parameters), expected
        state = tuple(getattr(value, name) for name in names)
        assert value == again and not value != again, expected
        # equal only to the same type: not to the tuple of its fields, nor to a
        # subclass that holds the same fields
        twin = type(cls.__name__, (cls,), {"__slots__": ()})(*args)
        assert value != state and state != value
        assert value != twin and twin != value
        if hashable:
            assert hash(value) == hash(again) == hash(state)
        else:
            with pytest.raises(TypeError):
                hash(value)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 0
        assert not hasattr(value, "__dict__")
        # scan --jobs sends params to its workers and reports back by pickle
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is cls and copy == value and repr(copy) == expected


def test_frozen_stores_one_value_per_field_in_order():
    class Pair(Frozen):
        __slots__ = ("a", "b")

    pair = Pair(1, 2)
    assert (pair.a, pair.b) == (1, 2)
    with pytest.raises(TypeError):
        Pair(1)
    with pytest.raises(TypeError):
        Pair(1, 2, 3)


def test_replace_validates_the_new_value():
    with pytest.raises(InvalidParams):
        replace(RestrictedPartitionSpec(30, {0, 1}), max_part=0)
    assert replace(ResidueClass(5, 2), residue=7).residue == 2
    spec = RestrictedPartitionSpec(30, {0, 1})
    assert replace(spec, max_part=9) == RestrictedPartitionSpec(30, {0, 1}, max_part=9)
    assert spec.max_part is None
    with pytest.raises(TypeError):
        replace(spec, cap=9)


# -- report shape ----------------------------------------------------------------


def test_report_json_schema():
    rep = verify_vanishing(ShiftedQuotientParams(2, 15, 0, 1), 200)
    doc = rep.to_json_dict()
    assert set(doc) == {
        "family", "params", "r", "order", "zero_class", "violations", "observed_zero_classes",
    }
    assert doc["family"] == "plus"
    assert doc["params"] == {"m": 2, "k": 15, "s": 0, "t": 1, "sign": "plus"}
    assert doc["r"] == 1
    assert doc["zero_class"] == {"mod": 15, "res": 14}
    assert doc["violations"] == []
    assert {"mod": 15, "res": 14} in doc["observed_zero_classes"]
    json.dumps(doc)  # serializable as-is


def test_report_violation_rendering():
    base = verify_vanishing(AndrewsBressoudParams(4, 3), 100)
    fake = VanishingReport(
        family=base.family,
        params=base.params,
        r=base.r,
        spec=base.spec,
        order=base.order,
        zero_class=base.zero_class,
        violations=((7, -2), (11, 10**25), (15, 1), (19, 3)),
        observed_zero_classes=(),
    )
    assert not fake.verified
    text = fake.render_text()
    assert "q^7 -> -2" in text and "q^15 -> 1" in text and "q^19" not in text
    doc = fake.to_json_dict()
    assert doc["violations"][1] == [11, str(10**25)]


# -- scan ------------------------------------------------------------------------


def test_family_grids_yield_constructor_fields_and_reported_params():
    # a grid candidate is the class's constructor arguments in field order,
    # and the reported params dict starts with exactly that candidate
    for family, cls in FAMILIES.items():
        names = list(cls._fields)
        valid = 0
        for candidate in cls.grid(list(range(2, 8)), list(range(2, 5)), family):
            assert list(candidate) == names, (family, candidate)
            try:
                params = cls(**candidate)
            except InvalidParams:
                continue
            assert params.family == family
            assert list(params.as_dict().items())[: len(names)] == list(candidate.items())
            valid += 1
        assert valid > 0, family


def test_scan_counts_and_orders():
    result = scan(range(2, 5), range(2, 5), 150, "plus")
    # candidate grid: for each m, k the pairs (s, t) number k*(m-1)
    total = sum(k * (m - 1) for m in range(2, 5) for k in range(2, 5))
    assert len(result) + len(result.skipped) == total
    assert all(r.verified for r in result)
    keys = [(r.params["m"], r.params["k"], r.params["s"], r.params["t"]) for r in result]
    assert keys == sorted(keys)
    assert all("gcd" in reason for _, reason in result.skipped)


def test_scan_ab_family_case_insensitive():
    result = scan(range(2, 8), (), 200, "AB")
    assert all(r.verified for r in result) and len(result) > 0
    assert all(rep.family == "ab" for rep in result)
    # skipped tuples carry reasons (same parity or shared factor)
    assert len(result.skipped) > 0


def test_scan_ag_enumerates_both_signs():
    result = scan(range(5, 6), range(2, 3), 250, "ag")  # m=2, k=5
    signs = {rep.params["sign"] for rep in result}
    assert signs == {"plus", "minus"}
    assert all(r.verified for r in result)


def test_scan_minus_skips_even_k():
    result = scan(range(2, 4), range(3, 4), 150, "minus")  # k in {2,3}, m=3
    assert all(rep.params["k"] == 3 for rep in result)
    assert any("odd k" in reason for _, reason in result.skipped)


def test_scan_empty_grid():
    result = scan((), (), 100, "plus")
    assert isinstance(result, ScanResult)
    assert len(result) == 0 and result.skipped == ()


def test_scan_unknown_family():
    with pytest.raises(InvalidParams, match=r"'octic' \(expected ab, plus, minus, ag\)"):
        scan(range(2, 4), range(2, 4), 100, "octic")


def test_scan_parallel_matches_serial():
    serial = scan(range(2, 5), range(2, 4), 120, "plus", jobs=1)
    parallel = scan(range(2, 5), range(2, 4), 120, "plus", jobs=2)
    assert [r.to_json_dict() for r in serial] == [r.to_json_dict() for r in parallel]
    assert serial.skipped == parallel.skipped


def test_scan_jobs_validated_and_capped_at_cpu_count(monkeypatch):
    import concurrent.futures

    import qvanish.vanishing as vanishing

    with pytest.raises(InvalidParams):
        scan(range(2, 4), range(2, 4), 100, "plus", jobs=0)
    with pytest.raises(InvalidParams):
        scan(range(2, 4), range(2, 4), 100, "plus", jobs=-1)

    started = []

    class SerialPool:  # records the pool size instead of starting processes
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(vanishing.os, "cpu_count", lambda: 3)
    result = scan(range(2, 5), range(2, 4), 60, "plus", jobs=10**6)
    assert started == [3]
    assert result.reports == scan(range(2, 5), range(2, 4), 60, "plus").reports


def test_import_starts_no_process_pool_machinery():
    # scan imports concurrent.futures only when it fans out over processes
    src = str(Path(qvanish.__file__).resolve().parents[1])
    code = "import sys, qvanish.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "False"
