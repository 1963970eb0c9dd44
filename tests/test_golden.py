"""Golden CLI outputs: fixed commands whose stdout must stay byte-identical.

Each digest is the blake2b (16-byte) hash of the command's stdout. The JSON
digests were taken from the implementation before the block-product series
kernels and the running-sum division pass; the first five formatted digests
from the implementation before each family's rules moved into its params
class, the others from the implementation before the CLI became one command
table. A change that alters any printed coefficient, report field,
formatting detail or exit code shows up here as a mismatch.
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
# order, so the verify and scan entries pin that order. Each entry carries
# its --format and its expected exit code; every leaf command appears in
# every format at least once, each with an explicit order= or n=.
GOLDEN_FORMATTED = [
    (("verify", "family=ab", "k=6", "r=1", "order=600"), "text", 0,
     "843941b11695f9ecf80d65c351f0a1fd"),
    (("verify", "family=plus", "m=2", "k=15", "s=0", "t=1", "order=600"), "text", 0,
     "2903bf89d7eb460136070440014f932b"),
    (("verify", "family=ag", "m=2", "k=5", "s=1", "sign=minus", "order=400"), "text", 0,
     "d613b770058e35e99261e6ef71fd8de6"),
    (("scan", "family=minus", "k=3..5", "m=2..3", "order=120"), "csv", 0,
     "3e2b878e33f10c414206c73e894f3fbb"),
    (("scan", "family=ag", "k=3..4", "m=2", "order=120"), "csv", 0,
     "5a377655debe657be9b7bb3a1679cc49"),
    (("expand", "num=1,2,3:7", "den=1,2:5", "den=3:4", "order=800"), "text", 0,
     "36cec9f269d2c687f414510d50e3b214"),
    (("expand", "num=1,2,3:7", "den=1,2:5", "den=3:4", "order=800"), "csv", 0,
     "6e1eae2ebda1d6686fc4f3602e06cb1a"),
    (("verify", "family=shifted", "m=3", "k=3", "s=1", "t=1", "sign=minus", "order=600"), "csv", 0,
     "ef61bb143e1c9ad43553a5c2cfae12e8"),
    (("scan", "family=minus", "k=3..5", "m=2..3", "order=120"), "text", 0,
     "237f91ec6eeef2e5e77444cfd3445302"),
    (("scan", "family=minus", "k=3..5", "m=2..3", "order=120"), "json", 0,
     "3abca8bf11387fa7537d8030bec9a171"),
    (("partitions", "count", "modulus=30", "rep=0,1,29", "n=300"), "text", 0,
     "b3fbe72f9fc315d4d4a692c1d6a33122"),
    (("partitions", "count", "modulus=30", "rep=0,1,29", "n=300"), "csv", 0,
     "ec649bb48ed781d99138b54724f33f2c"),
    (("partitions", "enumerate", "modulus=30", "rep=13,17", "dist=2,28", "n=149"), "text", 0,
     "c318e3cbae4d1db1514ccfe49b9f7fc7"),
    (("partitions", "enumerate", "modulus=30", "rep=13,17", "dist=2,28", "n=149"), "json", 0,
     "1c455364a83bca6a44a937b3f27347e7"),
    (("partitions", "enumerate", "modulus=30", "rep=13,17", "dist=2,28", "n=149"), "csv", 0,
     "debf620b7c246db51a1292f70e38c429"),
    (("partitions", "signed-sum", "m=2", "k=15", "s=0", "t=1", "n=20"), "text", 0,
     "49dd90a87d3696f290ffac22c399f73b"),
    (("partitions", "signed-sum", "m=2", "k=15", "s=0", "t=1", "n=20", "--show-terms"), "text", 0,
     "2f071cb6e75200cc1b01d1d28bfe3151"),
    (("partitions", "signed-sum", "m=2", "k=15", "s=0", "t=1", "n=20"), "json", 0,
     "104c21bda821c0e4b49dd7d9d740ebe1"),
    (("partitions", "signed-sum", "m=2", "k=15", "s=0", "t=1", "n=20"), "csv", 0,
     "5116e67a1c47f1667b36fff8a7d84ed4"),
    (("partitions", "parity", "m=2", "k=15", "s=8", "t=1", "n=149", "--enumerate"), "text", 0,
     "eb754b1946fa6d5cf1ccee334bb70efe"),
    (("partitions", "parity", "m=2", "k=15", "s=8", "t=1", "n=149", "--enumerate"), "json", 0,
     "766dac9a1cf0ca3db92cf42df025bdcd"),
    (("partitions", "parity", "m=2", "k=15", "s=8", "t=1", "n=149", "--enumerate"), "csv", 0,
     "9cc7986ccc54f46905888811c3469f0d"),
    (("identity", "1psi1", "m=2", "k=15", "t=1", "r=1", "order=300"), "text", 0,
     "9ba199ef48a60c76da59c9e84e563e92"),
    (("identity", "1psi1", "m=2", "k=15", "t=1", "r=1", "order=300"), "csv", 0,
     "9e9d0fba86750ec3f717e555ed2aace3"),
    (("identity", "jtp", "M=9", "a=4", "order=200"), "text", 0,
     "9ba199ef48a60c76da59c9e84e563e92"),
    (("identity", "jtp", "M=9", "a=4", "order=200"), "json", 0,
     "b4c7949e57a8da946a0f6ffb625fa95c"),
    (("identity", "jtp", "M=9", "a=4", "order=200"), "csv", 0,
     "9e9d0fba86750ec3f717e555ed2aace3"),
    (("identity", "lambert-cancel", "m=3", "k=3", "t=1", "r=5", "s=1", "order=200"), "text", 1,
     "449afcb67595dc91fc9a79bd922b69d7"),
    (("identity", "lambert-cancel", "m=3", "k=3", "t=1", "r=5", "s=1", "order=200"), "json", 1,
     "aeec2cb3e7764330eb46d784f421d88a"),
    (("identity", "lambert-cancel", "m=3", "k=3", "t=1", "r=5", "s=1", "order=200"), "csv", 1,
     "2aebf1eaba7eff3a4faea01eb652b19e"),
]


def stdout_digest(capsys, argv, fmt, code=0):
    assert main([*argv, f"--format={fmt}"]) == code
    out = capsys.readouterr().out
    return hashlib.blake2b(out.encode(), digest_size=16).hexdigest()


def formatted_id(argv, fmt):
    """The command, its first token, any --flags, and the format."""
    flags = [a for a in argv[2:] if a.startswith("--")]
    return " ".join([*argv[:2], *flags, fmt])


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[:2]) for a, _ in GOLDEN])
def test_golden_json_output(capsys, argv, digest):
    assert stdout_digest(capsys, argv, "json") == digest


@pytest.mark.parametrize(
    "argv, fmt, code, digest",
    GOLDEN_FORMATTED,
    ids=[formatted_id(a, f) for a, f, _, _ in GOLDEN_FORMATTED],
)
def test_golden_formatted_output(capsys, argv, fmt, code, digest):
    assert stdout_digest(capsys, argv, fmt, code) == digest
