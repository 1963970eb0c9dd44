"""Golden CLI outputs: fixed commands whose stdout must stay byte-identical.

Each digest is the blake2b (16-byte) hash of the command's stdout. The JSON
digests were taken from the implementation before the block-product series
kernels and the running-sum division pass; the text and CSV digests from the
implementation before each family's rules moved into its params class. A
change that alters any printed coefficient, report field or formatting detail
shows up here as a digest mismatch.
"""

from __future__ import annotations

import hashlib

import pytest

from qvanish.cli import main

GOLDEN = [
    (("expand", "num=1,2,3:7", "den=1,2:5", "den=3:4", "order=800"),
     "608ba8c59a2895a083bfbadabf53a25f"),
    (("expand", "den=1,2:300", "order=1200"),
     "aab6d3f7066455416a0e552a4024c2da"),
    (("expand", "pre=-1:-3", "num=1,6,7:7", "den=-3,-4:7", "order=400"),
     "9abd55e86a0c4072d0d76adaaafc817a"),
    (("verify", "family=ab", "k=6", "r=1", "order=600"),
     "46ebc36df2bd4bf7110ba9a9e5487ed0"),
    (("verify", "family=plus", "m=2", "k=15", "s=0", "t=1", "order=600"),
     "bdea1c18d36c5936fcfe4a4cb3b3b89f"),
    (("verify", "family=minus", "m=2", "k=5", "s=1", "t=1", "order=600"),
     "bad6860345faa7be33a202189267405c"),
    (("verify", "family=shifted", "m=3", "k=3", "s=1", "t=1", "sign=minus", "order=600"),
     "4d0e98a360251d04b5470f8f0c3ff261"),
    (("verify", "family=ag", "m=2", "k=5", "s=1", "sign=minus", "order=400"),
     "07904081ffd2eb1d8d42af27460f32b5"),
    (("identity", "1psi1", "m=2", "k=15", "t=1", "r=1", "order=300"),
     "b4c7949e57a8da946a0f6ffb625fa95c"),
    (("partitions", "count", "modulus=30", "rep=0,1,29", "n=300"),
     "f33df3ceee86afe0e8e662ba70228d63"),
]

# JSON sorts the params dict's keys away; text and CSV print them in field
# order, so these pin that order. Each entry carries its --format.
GOLDEN_FORMATTED = [
    (("verify", "family=ab", "k=6", "r=1", "order=600"), "text",
     "843941b11695f9ecf80d65c351f0a1fd"),
    (("verify", "family=plus", "m=2", "k=15", "s=0", "t=1", "order=600"), "text",
     "2903bf89d7eb460136070440014f932b"),
    (("verify", "family=ag", "m=2", "k=5", "s=1", "sign=minus", "order=400"), "text",
     "d613b770058e35e99261e6ef71fd8de6"),
    (("scan", "family=minus", "k=3..5", "m=2..3", "order=120"), "csv",
     "3e2b878e33f10c414206c73e894f3fbb"),
    (("scan", "family=ag", "k=3..4", "m=2", "order=120"), "csv",
     "5a377655debe657be9b7bb3a1679cc49"),
]


def stdout_digest(capsys, argv, fmt):
    assert main([*argv, f"--format={fmt}"]) == 0
    out = capsys.readouterr().out
    return hashlib.blake2b(out.encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[:2]) for a, _ in GOLDEN])
def test_golden_json_output(capsys, argv, digest):
    assert stdout_digest(capsys, argv, "json") == digest


@pytest.mark.parametrize(
    "argv, fmt, digest",
    GOLDEN_FORMATTED,
    ids=[f"{' '.join(a[:2])} {f}" for a, f, _ in GOLDEN_FORMATTED],
)
def test_golden_formatted_output(capsys, argv, fmt, digest):
    assert stdout_digest(capsys, argv, fmt) == digest
