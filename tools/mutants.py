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
ERRORS = "src/qvanish/errors.py"

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
        "symbol keyed without its argument sign",
        PRODUCTS,
        "net[PochhammerFactor(*key)] += weight * n",
        "net[PochhammerFactor(1, *key[1:])] += weight * n",
        ("tests/test_products.py",),
    ),
    Mutant(
        "Euler level shift off by M",
        PRODUCTS,
        "windows, w, d = [], length, f.offset\n",
        "windows, w, d = [], length, f.offset + (not divide) * f.modulus\n",
        ("tests/test_products.py",),
    ),
    Mutant(
        "Euler level multiplies by x, not -x",
        PRODUCTS,
        "(x if divide else -x)",
        "(x if divide else x)",
        ("tests/test_products.py",),
    ),
    Mutant(
        "deepest level's window one coefficient short",
        PRODUCTS,
        "r = coeffs[: windows[-1]]",
        "r = coeffs[: windows[-1] - 1]",
        ("tests/test_products.py",),
    ),
    Mutant(
        "a level that reaches only the last coefficient dropped",
        PRODUCTS,
        "while w > 0:",
        "while w > 1:",
        ("tests/test_products.py",),
    ),
    Mutant(
        "Cauchy level without its divisor (1 - x q^{M(n-1)})",
        PRODUCTS,
        "r = _div_linear(r, a + M * (n - 1), x)",
        "pass",
        ("tests/test_products.py",),
    ),
    Mutant(
        "finite-product rule sends a tie to Horner",
        PRODUCTS,
        "if len(head) <= passes:",
        "if len(head) < passes:",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_div_linear reads its input, not its own output",
        PRODUCTS,
        "coeffs[e:], y))",
        "coeffs[e:], coeffs))",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_mul_linear reads its own output, not its input",
        PRODUCTS,
        "coeffs[e:], coeffs))",
        "coeffs[e:], z))",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_div_linear add and sub swapped",
        PRODUCTS,
        "map(add if sign == 1 else sub,",
        "map(sub if sign == 1 else add,",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_div_sparse reader lists swapped",
        PRODUCTS,
        "iter(neg if c > 0 else pos)",
        "iter(pos if c > 0 else neg)",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_div_sparse reader starts one coefficient late",
        PRODUCTS,
        "readers.extend(iter(neg if c > 0 else pos)",
        "readers.extend(chain([0], neg if c > 0 else pos)",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_div_sparse first segment one coefficient short",
        PRODUCTS,
        "pos = coeffs[: terms[0][0]]",
        "pos = coeffs[: terms[0][0] - 1]",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_div_sparse one reader per term instead of |c|",
        PRODUCTS,
        "else pos) for _ in range(abs(c))",
        "else pos) for _ in range(1)",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_div_sparse appends +y to neg",
        PRODUCTS,
        "neg_append(-y)",
        "neg_append(y)",
        ("tests/test_products.py",),
    ),
    Mutant(
        "_mul_sparse lag led by one zero too few",
        PRODUCTS,
        "chain(repeat(0, e),",
        "chain(repeat(0, e - 1),",
        ("tests/test_products.py",),
    ),
    Mutant(
        "seeded series written with the wrong sign",
        PRODUCTS,
        "coeffs[e] += c",
        "coeffs[e] -= c",
        ("tests/test_products.py",),
    ),
    Mutant(
        "seeded series also run as a multiply",
        PRODUCTS,
        "net[seed] -= 1",
        "net[seed] -= 0",
        ("tests/test_products.py",),
    ),
    Mutant(
        "seed needs three terms",
        PRODUCTS,
        "if len(seed) > 1:",
        "if len(seed) > 2:",
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
        "parity class window stops below n_max",
        PARTITIONS,
        '"minus"), n_max + 1)',
        '"minus"), n_max)',
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "parity spec sides swapped",
        PARTITIONS,
        "m * k, (f.offset for f in spec.denominator), (f.offset for f in spec.numerator)",
        "m * k, (f.offset for f in spec.numerator), (f.offset for f in spec.denominator)",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "parity total expanded with sign -1",
        PARTITIONS,
        "_expand(parity_spec(m, k, s, t), n_max, 1)",
        "_expand(parity_spec(m, k, s, t), n_max, -1)",
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
        "for _ in range(abs(n)):",
        "for _ in range(n if n > 0 else min(-n, 1)):",
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
        "pentagonal key of a (q^M; q^M) factor with modulus 2M",
        PRODUCTS,
        "thetas[-1, M, 3 * M] += pool.pop(key)",
        "thetas[-1, M, 2 * M] += pool.pop(key)",
        ("tests/test_products.py",),
    ),
    Mutant(
        "a pair does not debit (q^M; q^M)",
        PRODUCTS,
        "thetas[-1, M, 3 * M] -= n",
        "thetas[-1, M, 3 * M] -= 0",
        ("tests/test_products.py",),
    ),
    Mutant(
        "one-term series with |c| > 1 takes a linear pass",
        PRODUCTS,
        "elif len(key) == 1 and abs(key[0][1]) == 1:",
        "elif len(key) == 1:",
        ("tests/test_products.py",),
    ),
    Mutant(
        "(q^M; q^M) left a symbol, not the pentagonal series",
        PRODUCTS,
        "if x == 1 and a == M:",
        "if x == 2 and a == M:",
        ("tests/test_products.py",),
    ),
    Mutant(
        "a = 1 symbols never pair",
        PRODUCTS,
        "elif 0 < a < M:",
        "elif 1 < a < M:",
        ("tests/test_products.py",),
    ),
    Mutant(
        "a squared (x q^{M/2}; q^M) does not pair with itself",
        PRODUCTS,
        "n = pool[key] // 2 if partner == key",
        "n = pool[key] // 3 if partner == key",
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
    Mutant(
        "value equality ignores the type",
        ERRORS,
        "if other.__class__ is self.__class__:",
        "if isinstance(other, Frozen):",
        ("tests/test_vanishing.py",),
    ),
    Mutant(
        "replace skips validation",
        ERRORS,
        "    return value.__class__(**{**value._asdict(), **changes})\n",
        "    copy = object.__new__(value.__class__)\n"
        "    for name, field in {**value._asdict(), **changes}.items():\n"
        "        object.__setattr__(copy, name, field)\n"
        "    return copy\n",
        ("tests/test_vanishing.py",),
    ),
    Mutant(
        "frozen guard removed: value fields can be assigned",
        ERRORS,
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError(f\"cannot assign to field {name!r}\")\n",
        "",
        ("tests/test_vanishing.py",),
    ),
    Mutant(
        "ResidueClass keeps an unreduced residue",
        VANISHING,
        "super().__init__(modulus, residue % modulus)",
        "super().__init__(modulus, residue)",
        ("tests/test_vanishing.py",),
    ),
    Mutant(
        "base store ignores the value count",
        ERRORS,
        "        if len(values) != len(self._fields):\n"
        "            raise TypeError(f\"expected {len(self._fields)} field values, got {len(values)}\")\n",
        "",
        ("tests/test_vanishing.py",),
    ),
    Mutant(
        "base store shifts the fields",
        ERRORS,
        "zip(self._fields, values)",
        "zip(self._fields, values[1:] + values[:1])",
        ("tests/test_vanishing.py",),
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
