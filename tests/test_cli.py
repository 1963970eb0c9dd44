"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import io
import json

import pytest

import qvanish.cli
from qvanish.cli import main
from qvanish.partitions import RestrictedPartitionSpec, count_restricted
from qvanish.vanishing import ShiftedQuotientParams, verify_vanishing


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def coefficients(out):
    pairs = {}
    for line in out.splitlines():
        head, value = line.split(": ")
        assert head.startswith("q^")
        pairs[int(head[2:])] = int(value)
    return pairs


def test_expand_octic_quotient(capsys):
    code, out, _ = run(capsys, "expand", "num=3,5:8", "den=1,7:8", "order=12")
    assert code == 0
    pairs = coefficients(out)
    assert sorted(pairs) == list(range(12))
    assert pairs[3] == pairs[7] == pairs[11] == 0
    assert pairs[0] == 1


def test_expand_cancelling_quotient_is_one(capsys):
    code, out, _ = run(capsys, "expand", "num=1:2", "den=1:2", "order=10")
    assert code == 0
    pairs = coefficients(out)
    assert pairs[0] == 1
    assert all(c == 0 for e, c in pairs.items() if e > 0)


def test_expand_denominator_counts_partitions(capsys):
    code, out, _ = run(capsys, "expand", "den=2:4", "order=20")
    assert code == 0
    pairs = coefficients(out)
    spec = RestrictedPartitionSpec(4, {2})
    assert pairs == {n: count_restricted(spec, n) for n in range(20)}


def test_expand_prefactor_and_signs(capsys):
    code, out, _ = run(capsys, "expand", "pre=-1:-2", "num=-1:3", "order=4")
    assert code == 0
    # -q^{-2} * (-q; q^3)oo = -q^{-2} - q^{-1} - q^2 - q^3 - ...
    assert coefficients(out) == {-2: -1, -1: -1, 0: 0, 1: 0, 2: -1, 3: -1}


def test_expand_json_shape_and_determinism(capsys):
    argv = ("expand", "num=3,5:8", "den=1,7:8", "order=12", "--format=json")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(first)
    assert payload["valuation"] == 0
    assert payload["order"] == 12
    assert payload["coefficients"][3] == [3, "0"]
    assert all(isinstance(c, str) for _, c in payload["coefficients"])
    code, second, _ = run(capsys, *argv)
    assert first == second


def test_expand_paired_output_matches_linear_path(capsys, monkeypatch, linear_expand):
    # a pair over a negated pair, with (q^7; q^7) and a prefactor: the
    # theta-pair expansion must print exactly what the linear one prints
    argv = (
        "expand", "pre=-1:-3", "num=1,6,7:7", "den=-3,-4:7", "order=90", "--format=json"
    )
    code, paired, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(qvanish.cli, "expand_product", linear_expand)
    code, linear, _ = run(capsys, *argv)
    assert code == 0
    assert paired == linear
    assert json.loads(paired)["valuation"] == -3


def test_expand_csv_has_header(capsys):
    code, out, _ = run(capsys, "expand", "den=2:4", "order=6", "--format=csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["exponent", "coefficient"]
    assert rows[1:] == [["0", "1"], ["1", "0"], ["2", "1"], ["3", "0"], ["4", "1"], ["5", "0"]]


def test_expand_parse_errors_name_the_flag(capsys):
    for argv, fragment in (
        (("expand", "num=bogus:8"), "num=bogus:8"),
        (("expand", "num=3,5"), "num=3,5"),
        (("expand", "pre=7"), "pre=7"),
        (("expand", "num=0:8"), "num=0:8"),
        (("expand", "orderx"), "orderx"),
        (("expand", "wibble=3"), "wibble"),
        (("expand", "order=3", "order=4"), "order"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert fragment in err


def test_verify_families(capsys):
    code, out, _ = run(capsys, "verify", "family=plus", "m=2", "k=15", "s=0", "t=1", "order=600")
    assert code == 0
    assert "15n+14" in out
    assert "verified" in out
    code, out, _ = run(capsys, "verify", "family=ab", "k=6", "r=1", "order=600")
    assert code == 0
    assert "6n+3" in out
    code, out, _ = run(capsys, "verify", "family=ag", "m=2", "k=5", "s=1", "sign=minus", "order=400")
    assert code == 0


def test_verify_shifted_alias_with_sign(capsys):
    code_alias, out_alias, _ = run(
        capsys, "verify", "family=shifted", "sign=minus", "m=3", "k=3", "s=2", "t=1", "order=400"
    )
    code_direct, out_direct, _ = run(
        capsys, "verify", "family=minus", "m=3", "k=3", "s=2", "t=1", "order=400"
    )
    assert (code_alias, out_alias) == (code_direct, out_direct) == (0, out_alias)


def test_verify_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "verify", "family=plus", "m=3", "k=4", "s=2", "t=2", "order=100")
    assert code == 2
    assert "gcd" in err
    code, _, err = run(capsys, "verify", "family=nope", "k=3", "r=1")
    assert code == 2
    code, _, err = run(capsys, "verify", "family=ab", "k=6", "r=1", "sign=plus")
    assert code == 2
    assert "sign" in err
    code, _, err = run(capsys, "verify", "family=ab", "k=6")
    assert code == 2
    assert "r=" in err


def test_verify_json_matches_library_report(capsys):
    code, out, _ = run(
        capsys, "verify", "family=plus", "m=2", "k=15", "s=0", "t=1", "order=400", "--format=json"
    )
    assert code == 0
    report = verify_vanishing(ShiftedQuotientParams(2, 15, 0, 1), 400)
    assert json.loads(out) == report.to_json_dict()


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "family=ab", "k=4", "r=3", "order=200", "--format=csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "r", "order", "zero_mod", "zero_res", "verified", "violations"]
    assert rows[1] == ["ab", "3", "200", "4", "3", "True", "0"]


def test_scan_summary_and_exit(capsys):
    code, out, _ = run(capsys, "scan", "family=plus", "m=2..4", "k=2..4", "order=200")
    assert code == 0
    assert "checked 38 tuples (38 verified, 0 violated, 16 skipped)" in out


def test_scan_empty_range(capsys):
    code, out, _ = run(capsys, "scan", "family=ab", "k=9..8")
    assert code == 0
    assert "0 tuples" in out


def test_scan_single_value_range_and_csv(capsys):
    code, out, _ = run(capsys, "scan", "family=ab", "k=6", "order=150", "--format=csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "params", "r", "zero_mod", "zero_res", "status", "detail"]
    verified = [row for row in rows[1:] if row[5] == "verified"]
    skipped = [row for row in rows[1:] if row[5] == "skipped"]
    assert [row[1] for row in verified] == ["k=6;r=1", "k=6;r=5"]
    assert all("gcd" in row[6] or "parity" in row[6] for row in skipped)


def test_scan_json_deterministic_and_parallel_identical(capsys):
    argv = ("scan", "family=minus", "m=2..3", "k=2..3", "order=120", "--format=json")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(first)
    assert payload["checked"] == len(payload["reports"])
    assert payload["violated"] == 0
    code, second, _ = run(capsys, *argv)
    assert first == second
    code, parallel, _ = run(capsys, *argv, "--jobs=2")
    assert parallel == first


def test_scan_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-1"):
        code, out, err = run(capsys, "scan", "family=ab", "k=6", "order=50", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "jobs must be >= 1" in err


def test_unexpected_error_exits_3(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(qvanish.cli, "cmd_expand", crash)
    code, out, err = run(capsys, "expand", "num=1:2", "order=5")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: kernel exploded\n"


def test_scan_requires_family_and_k(capsys):
    code, _, err = run(capsys, "scan", "k=2..4")
    assert code == 2 and "family" in err
    code, _, err = run(capsys, "scan", "family=ab")
    assert code == 2 and "k=" in err


def test_scan_refuses_m_for_a_family_without_m(capsys):
    code, out, err = run(capsys, "scan", "family=ab", "k=3..4", "m=5")
    assert (code, out) == (2, "")
    assert "unknown token m=" in err
    code, out, err = run(capsys, "verify", "family=ab", "k=6", "r=1", "m=3")
    assert (code, out) == (2, "")
    assert "unknown token m=" in err


def test_family_tokens_are_read_in_field_order(capsys):
    # the first missing field, in the params class's field order, is named
    for argv, missing in [
        (("verify", "family=plus", "k=15", "t=1"), "m="),
        (("verify", "family=ab", "r=1"), "k="),
        (("verify", "family=ag", "m=2", "k=5"), "s="),
        (("partitions", "signed-sum", "m=2", "k=15", "n=20"), "s="),
        (("partitions", "parity", "m=2", "s=8", "t=1", "n=149"), "k="),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: missing required token {missing}\n"), argv


def test_partitions_count(capsys):
    code, out, _ = run(capsys, "partitions", "count", "modulus=30", "rep=0,1,29", "n=0")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "partitions", "count", "modulus=30", "rep=0,1,29", "n=300")
    assert out.strip() == "4673"
    code, out, _ = run(
        capsys, "partitions", "count", "modulus=30", "rep=0,1,29", "n=300", "--format=json"
    )
    assert json.loads(out) == {"n": 300, "count": "4673"}


def test_partitions_count_respects_max_and_dist(capsys):
    code, out, _ = run(
        capsys, "partitions", "count", "modulus=2", "dist=1", "max=9", "n=10"
    )
    assert code == 0
    assert out.strip() == "2"  # 1+9 and 3+7; the single part 10 exceeds max


def test_partitions_enumerate(capsys):
    code, out, _ = run(capsys, "partitions", "enumerate", "modulus=3", "rep=1,2", "n=5")
    assert code == 0
    assert out.splitlines() == ["1^5", "1^3+2", "1+2^2", "1+4", "5"]
    code, out, _ = run(
        capsys, "partitions", "enumerate", "modulus=3", "rep=1,2", "n=5", "--format=csv"
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["partition"]
    assert len(rows) == 6


def test_partitions_enumerate_cap_exit_2(capsys):
    code, _, err = run(
        capsys, "partitions", "enumerate", "modulus=3", "rep=1,2", "n=30", "--cap=5"
    )
    assert code == 2
    assert "cap" in err


def test_partitions_signed_sum(capsys):
    code, out, _ = run(capsys, "partitions", "signed-sum", "m=2", "k=15", "s=0", "t=1", "n=20")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(
        capsys, "partitions", "signed-sum", "m=2", "k=15", "s=0", "t=1", "n=20", "--show-terms"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j argument signed"
    assert lines[1:] == [
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


def test_partitions_signed_sum_csv(capsys):
    code, out, _ = run(
        capsys,
        "partitions", "signed-sum", "m=2", "k=15", "s=0", "t=1", "n=20", "--format=csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["j", "argument", "count", "signed"]
    assert rows[1] == ["-5", "70", "13", "-13"]
    assert rows[6] == ["0", "300", "4673", "4673"]


def test_partitions_parity(capsys):
    code, out, _ = run(capsys, "partitions", "parity", "m=2", "k=15", "s=8", "t=1", "n=149")
    assert code == 0
    assert out.splitlines()[:2] == ["even 6", "odd 6"]
    code, out, _ = run(
        capsys, "partitions", "parity", "m=2", "k=15", "s=8", "t=1", "n=149", "--enumerate"
    )
    assert code == 0
    listed = [line for line in out.splitlines() if ": " in line]
    assert len(listed) == 12
    assert "odd: 2+13+17^6+32" in listed
    assert "even: 2+13^10+17" in listed


def test_partitions_parity_json_off_class(capsys):
    code, out, _ = run(
        capsys, "partitions", "parity", "m=2", "k=15", "s=8", "t=1", "n=148", "--format=json"
    )
    assert code == 0  # off the residue class is informational, never a violation
    payload = json.loads(out)
    assert payload["in_class"] is False
    assert payload["n"] == 148


def test_partitions_usage_errors(capsys):
    code, _, err = run(capsys, "partitions", "count", "modulus=30", "rep=0,1,29")
    assert code == 2 and "n=" in err
    code, _, err = run(capsys, "partitions", "count", "modulus=30", "rep=0,x", "n=3")
    assert code == 2 and "rep" in err
    code, _, err = run(capsys, "partitions", "parity", "m=3", "k=4", "s=1", "t=2", "n=10")
    assert code == 2 and "odd" in err


def test_identity_1psi1(capsys):
    code, out, _ = run(capsys, "identity", "1psi1", "m=2", "k=15", "t=1", "r=1", "order=300")
    assert code == 0
    assert out.strip() == "pass"


def test_identity_jtp(capsys):
    code, out, _ = run(capsys, "identity", "jtp", "M=9", "a=4", "order=200")
    assert code == 0
    assert out.strip() == "pass"
    code, _, err = run(capsys, "identity", "jtp", "M=9", "a=9")
    assert code == 2


def test_identity_jtp_product_side_stays_linear(capsys, monkeypatch):
    # The paired expansion is itself built on theta series; on the product
    # side it would compare jtp_theta with itself.
    def no_pairing(factors):
        raise AssertionError("identity jtp must expand its product linearly")

    monkeypatch.setattr("qvanish.products._split_pairs", no_pairing)
    code, out, _ = run(capsys, "identity", "jtp", "M=9", "a=4", "order=200")
    assert (code, out.strip()) == (0, "pass")


def test_identity_lambert_cancel_negative_control(capsys):
    # r = sm + t fails for every s < k, so the sums genuinely differ
    code, out, _ = run(
        capsys, "identity", "lambert-cancel", "m=3", "k=3", "t=1", "r=5", "s=1", "order=200"
    )
    assert code == 1
    assert out.startswith("fail at q^")
    assert "lhs=" in out and "rhs=" in out
    code, out, _ = run(
        capsys, "identity", "lambert-cancel", "m=3", "k=3", "t=1", "r=7", "s=2", "order=200"
    )
    assert code == 0
    assert out.strip() == "pass"


def test_identity_json_and_csv(capsys):
    code, out, _ = run(
        capsys, "identity", "lambert-cancel", "m=3", "k=3", "t=1", "r=5", "s=1",
        "order=200", "--format=json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["exponent"] == 7
    assert payload == {"ok": False, "exponent": 7, "lhs": "0", "rhs": "1"}
    code, out, _ = run(capsys, "identity", "jtp", "M=5", "a=2", "--format=csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["ok", "exponent", "lhs", "rhs"]
    assert rows[1][0] == "True"


def test_order_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QVANISH_ORDER", "10")
    code, out, _ = run(capsys, "expand", "den=2:4")
    assert code == 0
    assert len(out.splitlines()) == 10
    # explicit token wins over the environment
    code, out, _ = run(capsys, "expand", "den=2:4", "order=5")
    assert len(out.splitlines()) == 5
    monkeypatch.setenv("QVANISH_ORDER", "ten")
    code, _, err = run(capsys, "expand", "den=2:4")
    assert code == 2
    assert "QVANISH_ORDER" in err


def test_bad_subcommand_and_flags_exit_2(capsys):
    assert main([]) == 2
    assert main(["expand", "--format=yaml"]) == 2
    assert main(["partitions", "middle-out"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "expand" in out and "num=3,5:8" in out
