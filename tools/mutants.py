"""Run a committed list of mutants against the tests that should kill them.

Usage: python tools/mutants.py

Each mutant is one exact-text replacement in one source file.  The script
copies the repository to a temporary directory, checks that the named test
files pass there unmutated, then applies one mutant at a time to the copy
and runs its test files with ``pytest -x``.  A failing test or a failed
collection kills the mutant; a passing run means it survived.  An entry
whose text no longer occurs exactly once in its file is stale.  The working
tree is never written.  Exit status 1 when any mutant survives, is stale or
cannot be run; 0 when every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


VANISHING = "src/qvanish/vanishing.py"
PRODUCTS = "src/qvanish/products.py"
PARTITIONS = "src/qvanish/partitions.py"
SERIES = "src/qvanish/series.py"

MUTANTS = (
    Mutant(
        "ab embedding: s off by one",
        VANISHING,
        "(self.k - self.r - 1) // 2",
        "(self.k - self.r + 1) // 2",
        ("tests/test_vanishing.py",),
    ),
    Mutant(
        "ag embedding: t fixed at 1",
        VANISHING,
        "self.s // self.m, self.s % self.m, self.sign",
        "self.s // self.m, 1, self.sign",
        ("tests/test_vanishing.py",),
    ),
    Mutant(
        "embedded spec keeps the rewrite's prefactor",
        VANISHING,
        "return ProductSpec(1, 0, spec.numerator, spec.denominator)",
        "return spec",
        ("tests/test_vanishing.py",),
    ),
    Mutant(
        "linear cancellation keyed without the sign",
        PRODUCTS,
        "net[e, f.arg_sign] += weight",
        "net[e, 1] += weight",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_div_sparse sign swapped",
        PRODUCTS,
        "(subtracted if c > 0 else added)",
        "(added if c > 0 else subtracted)",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_div_sparse reads y one exponent late",
        PRODUCTS,
        ".extend([-e] * abs(c))",
        ".extend([1 - e] * abs(c))",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_div_sparse starts out one coefficient short",
        PRODUCTS,
        "out = coeffs[: terms[0][0]]",
        "out = coeffs[: terms[0][0] - 1]",
        ("tests/test_products.py",),
    ),
    Mutant(
        "first numerator series seeded with the wrong sign",
        PRODUCTS,
        "coeffs[e] += c",
        "coeffs[e] -= c",
        ("tests/test_products.py",),
    ),
    Mutant(
        "first numerator series both seeded and multiplied",
        PRODUCTS,
        "num_pairs.pop()",
        "num_pairs[-1]",
        ("tests/test_products.py",),
    ),
    Mutant(
        "cmd_scan always exits 0",
        "src/qvanish/cli.py",
        "1 if violated else 0,",
        "0,",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "parity labels swapped",
        PARTITIONS,
        "ParityCountPair((total + signed) // 2, (total - signed) // 2)",
        "ParityCountPair((total - signed) // 2, (total + signed) // 2)",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "signed-sum window at order = target",
        PARTITIONS,
        "_theta_window(mk, r - t * k, target + 1)",
        "_theta_window(mk, r - t * k, target)",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "part-cap tail one modulus short",
        PARTITIONS,
        "((P - f.offset) // M + 1) * M",
        "((P - f.offset) // M) * M",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "part-cap filter drops a symbol whose first part is the cap",
        PARTITIONS,
        "f.offset <= P",
        "f.offset < P",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "one divide per negative count",
        PRODUCTS,
        "for _ in range(-n):",
        "for _ in range(min(-n, 1)):",
        ("tests/test_products.py",),
    ),
    Mutant(
        "expand_factor stops one factor short",
        PRODUCTS,
        "for e in range(f.offset, order, f.modulus):",
        "for e in range(f.offset, order - 1, f.modulus):",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_theta_window misses the top j",
        PRODUCTS,
        "(-b + root) // (2 * M) + 1)",
        "(-b + root) // (2 * M))",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_theta_window misses the bottom j",
        PRODUCTS,
        "range((-b - root) // (2 * M),",
        "range((-b - root) // (2 * M) + 1,",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_mul_low bias a bit short",
        SERIES,
        'bytes(w - 1) + b"\\x80"',
        'bytes(w - 1) + b"\\x40"',
        ("tests/test_series.py",),
    ),
    Mutant(
        "Newton step claims one term too many",
        SERIES,
        "k2 = min(2 * k, n)",
        "k2 = min(2 * k + 1, n)",
        ("tests/test_series.py",),
    ),
    Mutant(
        "_split_pairs partner of the opposite sign",
        PRODUCTS,
        "partner = (x, M - a, M)",
        "partner = (-x, M - a, M)",
        ("tests/test_products.py",),
    ),
    Mutant(
        "lower-bound guard accepts low - 1",
        "src/qvanish/errors.py",
        "if value < low:",
        "if value < low - 1:",
        ("tests/test_guards.py",),
    ),
    Mutant(
        "known-window walk stops one exponent short",
        SERIES,
        "min(a.order, b.order)):",
        "min(a.order, b.order) - 1):",
        ("tests/test_series.py",),
    ),
    Mutant(
        "q_string shows zero coefficients",
        SERIES,
        "            if not c:\n                continue\n",
        "",
        ("tests/test_series.py",),
    ),
    Mutant(
        "render run length off by one",
        PARTITIONS,
        "len(list(group))",
        "len(list(group)) + 1",
        ("tests/test_partitions.py",),
    ),
)


def run_tests(tree: Path, tests: tuple[str, ...]) -> int:
    """pytest -x on the test files inside tree, importing the package from tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="qvanish-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(
            ROOT,
            tree,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"
            ),
        )
        baseline = tuple(sorted({t for m in MUTANTS for t in m.tests}))
        if run_tests(tree, baseline) != 0:
            print(f"the unmutated tree fails {' '.join(baseline)}; no mutant was run")
            return 1
        for m in MUTANTS:
            target = tree / m.path
            original = target.read_text()
            if original.count(m.old) != 1:
                status = "stale"
            else:
                target.write_text(original.replace(m.old, m.new))
                try:
                    code = run_tests(tree, m.tests)
                finally:
                    target.write_text(original)
                # 1: a test failed; 2: collection failed, which the baseline rules out
                # for the unmutated tree
                status = {0: "survived", 1: "killed", 2: "killed"}.get(
                    code, f"error (pytest exit {code})"
                )
            failed += status != "killed"
            print(f"{status:<9} {m.name}  [{m.path}; {' '.join(m.tests)}]", flush=True)
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - failed} killed, {failed} not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
