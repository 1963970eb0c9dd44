"""The lower bound of every count or window-length input, through the one guard.

Each public function refuses its input one below the minimum with
InvalidParams naming its own parameter, and accepts the minimum itself.
"""

from __future__ import annotations

import pytest

from qvanish import (
    BilateralSpecialization,
    InvalidParams,
    PochhammerFactor,
    RestrictedPartitionSpec,
    ShiftedQuotientParams,
    cancellation_check,
    count_parity_split,
    count_restricted,
    count_restricted_by_parity,
    count_restricted_table,
    enumerate_restricted,
    expand_factor,
    jtp_theta,
    lambert_series,
    scan,
    verify_1psi1,
    verify_parity_identity,
    verify_vanishing,
)
from qvanish.cli import main

P = BilateralSpecialization(2, 15, 1, 1)
SPEC = RestrictedPartitionSpec(30, {0, 1, 29})

# (function, parameter, minimum, the call with that parameter set to v)
BOUNDS = [
    ("expand_factor", "order", 0, lambda v: expand_factor(PochhammerFactor(1, 1, 2), v)),
    ("jtp_theta", "M", 1, lambda v: jtp_theta(v, 2, 20)),
    ("jtp_theta", "order", 0, lambda v: jtp_theta(5, 2, v)),
    ("lambert_series", "order", 0, lambda v: lambert_series(P, v)),
    ("verify_1psi1", "order", 0, lambda v: verify_1psi1(P, v)),
    ("cancellation_check", "order", 0, lambda v: cancellation_check(P, 0, v)),
    ("verify_vanishing", "order", 1,
     lambda v: verify_vanishing(ShiftedQuotientParams(2, 5, 1, 1), v)),
    ("scan", "order", 1, lambda v: scan(range(3, 5), range(2, 3), v, "plus")),
    ("scan", "jobs", 1, lambda v: scan(range(3, 5), range(2, 3), 20, "plus", jobs=v)),
    ("count_restricted_table", "n_max", 0, lambda v: count_restricted_table(SPEC, v)),
    ("count_restricted", "n", 0, lambda v: count_restricted(SPEC, v)),
    ("count_restricted_by_parity", "n", 0, lambda v: count_restricted_by_parity(SPEC, v)),
    ("count_parity_split", "n", 0, lambda v: count_parity_split(2, 15, 0, 1, v)),
    ("verify_parity_identity", "n_max", 0, lambda v: verify_parity_identity(2, 15, 0, 1, v)),
    ("enumerate_restricted", "n", 0, lambda v: enumerate_restricted(SPEC, v)),
    ("enumerate_restricted", "cap", 1, lambda v: enumerate_restricted(SPEC, 3, cap=v)),
]


@pytest.mark.parametrize(
    "name, low, call", [row[1:] for row in BOUNDS], ids=[f"{f}-{p}" for f, p, _, _ in BOUNDS]
)
def test_each_count_input_refuses_one_below_its_minimum(name, low, call):
    with pytest.raises(InvalidParams) as caught:
        call(low - 1)
    assert str(caught.value) == f"{name} must be >= {low}, got {low - 1}"
    call(low)


@pytest.mark.parametrize(
    "argv",
    [
        ("partitions", "count", "modulus=30", "rep=0,1,29", "n=-1"),
        ("partitions", "parity", "m=2", "k=15", "s=0", "t=1", "n=-1"),
    ],
)
def test_cli_count_names_the_n_token(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be >= 0, got -1\n"
