"""Paired A/B runs of the benchmark on two revisions.

Usage: python tools/abtest.py BASE [HEAD] --workload W --pairs N [--seconds T] [--out FILE]

BASE and HEAD (default ``HEAD``) are git revisions.  Each is exported with
``git archive`` into a temporary directory.  Pair i runs
``benchmarks/run.py --workload W --seed i --seconds T`` in both exports, with
the side that runs first alternating from pair to pair, so a drift in the
host's load falls on both sides alike.  If any run exits nonzero, is not
``correct`` or failed an operation, nothing is reported and the exit status
is 1.

For each end-to-end metric that ``BENCHMARK.json`` names, the report gives
each side's median with its quartiles, the ratio of the medians (HEAD over
BASE), and the pairs in which HEAD is better (ties count for neither).  A
metric is marked ``claim`` only when HEAD wins at least nine tenths of the
pairs and the medians differ by more than BASE's interquartile range; it is
marked ``over bound`` when HEAD's median is worse than BASE's by more than
the metric's bound.  ``--out`` writes both commits, the Python version, the
CPU count and every per-pair value as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent


def resolve(rev: str) -> str:
    cmd = ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"]
    return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """Write the tree of commit sha into dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", sha], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree: its end-to-end metric values, or SystemExit on any failure."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if not result or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{tree.name} seed {seed}: the run failed; no report")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(quantiles(values, n=4, method="inclusive"))


def cell(q1: float, m: float, q3: float) -> str:
    return f"{m:.4g} [{q1:.4g}-{q3:.4g}]"


def report(metrics: list[dict], pairs: list[dict]) -> None:
    n = len(pairs)
    print(f"{'metric':14s} {'base median [q1-q3]':32s} {'head median [q1-q3]':32s} ratio   wins")
    for metric in metrics:
        name = metric["name"]
        if name not in pairs[0]["base"]:
            continue
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        lower = metric["better"] == "lower"
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        base_q, head_q = spread(base), spread(head)
        (b1, bm, b3), hm = base_q, head_q[1]
        ratio = hm / bm if bm else float("nan")
        worse = (ratio - 1) if lower else (1 - ratio)
        marks = []
        if wins >= 0.9 * n and abs(hm - bm) > b3 - b1:
            marks.append("claim")
        if worse > metric["bound"]:
            marks.append("over bound")
        print(f"{name:14s} {cell(*base_q):32s} {cell(*head_q):32s} {ratio:5.3f} "
              f"{wins:>3d}/{n:<3d} {' '.join(marks)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    shas = {"base": resolve(args.base), "head": resolve(args.head)}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="qvanish-abtest-") as tmp:
        trees = {side: Path(tmp) / side for side in shas}
        for side, sha in shas.items():
            export(sha, trees[side])
        for seed in range(1, args.pairs + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
            pairs.append(pair)
            print(f"pair {seed}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g}-s runs, "
          f"base {shas['base'][:12]}, head {shas['head'][:12]}")
    report(metrics, pairs)
    if args.out:
        record = {
            "base": shas["base"],
            "head": shas["head"],
            "workload": args.workload,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "pairs": pairs,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
