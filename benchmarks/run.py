#!/usr/bin/env python3
"""qvanish benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload scan-grid --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer ones.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A
result file with the same metrics, the run's environment and, when
traced, every span goes to ``benchmarks/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
RESULTS = HERE / "results"

WORKLOADS = ("scan-grid", "deep-series", "partition-dp", "cli-batch")
SETUP_PROBES = 7  # fresh processes that time import plus input generation
ORACLE_PER_PASS = {"scan-grid": 2, "deep-series": 1, "partition-dp": 1, "cli-batch": 0}
END_TO_END = {
    "wall_s": "s",
    "checks_per_s": "1/s",
    "coeffs_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer figures combine a traced pass with the layer probes: times are
# the median over traced passes, counts come from the first traced pass
# and repeat exactly, the two bit sizes are maxima.
MAX_FIGURES = ("series.coeff_max_bits", "partitions.count_max_bits")
COUNT_UNITS = {
    "products.expand_calls": "count",
    "products.mul_passes": "count",
    "products.div_passes": "count",
    "products.cell_updates": "count",
    "vanishing.tuples": "count",
    "vanishing.violations": "count",
    "series.coeff_cells": "count",
    "series.coeff_max_bits": "bits",
    "partitions.dp_cells": "count",
    "partitions.enumerated": "count",
    "partitions.count_max_bits": "bits",
    "cli.stdout_bytes": "bytes",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> int:
    """Child mode: time importing the package and generating the inputs."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import qvanish.cli  # noqa: F401  (the whole package, CLI included)

    imported = perf_counter()
    import workloads

    workloads.build(workload, seed, str(ROOT))
    done = perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
    return 0


def measure_setup(workload: str, seed: int) -> list[dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, f"--seed={seed}"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probes.append(json.loads(done.stdout.splitlines()[-1]))
    return probes


class Raised:
    """An exception an item's call raised: always a failed operation."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"


def run_pass(items) -> tuple[float, list[float], list]:
    """(wall seconds, per-item seconds, outputs) of one pass over the items."""
    latencies, outputs = [], []
    start = perf_counter()
    for item in items:
        t0 = perf_counter()
        try:
            out = item.call()
        except Exception as exc:  # counted as a failure, the run goes on
            out = Raised(exc)
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    return perf_counter() - start, latencies, outputs


class Checker:
    """Checks outputs and keeps the tally of attempted and failed operations."""

    def __init__(self, workload: str, seed: int, golden: dict):
        self.workload, self.seed, self.golden = workload, seed, golden
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.oracle_runs = 0

    def record(self, key: str, problem: str | None) -> None:
        """One attempted operation; a problem makes it a failed one."""
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(f"{key}: {problem}")

    def _check(self, item, out) -> str | None:
        if isinstance(out, Raised):
            return f"raised {out.text}"
        try:
            problem = item.check(out)
            got = item.digest(out)
        except Exception as exc:  # a malformed output is a failure
            return f"check raised {type(exc).__name__}: {exc}"
        expected = self.golden.get(item.key, "skip")
        if problem is None and got != expected:
            problem = f"digest {got} != stored {expected}"
        return problem

    def check_pass(self, items, outputs, sample: int) -> None:
        """Check every output, then compare a seed-chosen sample against the slow path."""
        passed = []
        for i, (item, out) in enumerate(zip(items, outputs)):
            problem = self._check(item, out)
            self.record(item.key, problem)
            if problem is None and item.oracle is not None:
                passed.append(i)
        rng = random.Random(f"oracle:{self.workload}:{self.seed}:{self.oracle_runs}")
        self.oracle_runs += 1
        for i in rng.sample(passed, min(sample, len(passed))):
            try:
                problem = items[i].oracle(outputs[i])
            except Exception as exc:  # a crash in the comparison is a failure too
                problem = f"raised {type(exc).__name__}: {exc}"
            self.record(items[i].key, problem and f"slow path: {problem}")

    def check_in_process(self, items, outputs) -> None:
        """Run each CLI item's command in-process; it must match the child's output."""
        import qvanish.cli

        for item, out in zip(items, outputs):
            if item.argv is None or isinstance(out, Raised):
                continue
            captured = io.StringIO()
            with redirect_stdout(captured), redirect_stderr(io.StringIO()):
                try:
                    code = qvanish.cli.main(list(item.argv))
                except Exception as exc:  # counted as a failure
                    code = f"raised {type(exc).__name__}: {exc}"
            same = (code, captured.getvalue()) == tuple(out)
            self.record(item.key, None if same else f"in-process run: exit {code}, child {out[0]}")


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten values above it.

    With twenty values or fewer that percentile would not lie above the
    median, and the maximum is given instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def timed_run(workload, items, checker, seconds, setups) -> tuple[dict, dict]:
    """End-to-end metrics: passes until `seconds` have gone, medians over passes."""
    verdicts = [i for i, item in enumerate(items) if item.kind == "verdict"]
    walls, p50s, tails, lats = [], [], [], []
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        wall, latencies, outputs = run_pass(items)
        checker.check_pass(items, outputs, ORACLE_PER_PASS[workload])
        per_item = [latencies[i] for i in verdicts]
        lats.append(per_item)
        walls.append(wall)
        p50s.append(median(per_item))
        tails.append(tail(per_item))
    wall_s = median(walls)
    metrics = {
        "wall_s": wall_s,
        "checks_per_s": len(verdicts) / wall_s,
        "coeffs_per_s": sum(item.coeffs for item in items) / wall_s,
        "item_p50_ms": median(p50s) * 1e3,
        "item_tail_ms": median(t for t, _ in tails) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median(p["setup_s"] for p in setups),
    }
    notes = {
        "passes": len(walls),
        "pass_walls_s": walls,
        "latencies_s": lats,
        "items_per_pass": len(verdicts),
        "tail_percentile": tails[0][1],
    }
    return metrics, notes


def traced_run(workload, items, probes, checker, seconds, setups) -> tuple[dict, dict]:
    """Per-layer metrics: traced passes alternate with untraced ones for the overhead."""
    import tracing

    start = perf_counter()
    metrics = tracing.kernel_probes()
    serial_s, jobs2_s, same = tracing.scan_jobs()
    checker.record("scan-jobs", None if same else "jobs=2 reports differ from the serial scan")

    recorder = tracing.SpanRecorder()
    with recorder:
        _, _, outputs = run_pass(probes)
        checker.check_in_process(probes, outputs)
    probe_spans = recorder.take()
    checker.check_pass(probes, outputs, 0)

    # a pair of passes starts only if it can end in time
    untraced, traced, passes = [], [], []
    pair_s = 0.0
    while not traced or perf_counter() + pair_s < start + seconds:
        pair_start = perf_counter()
        wall, _, outputs = run_pass(items)
        checker.check_pass(items, outputs, ORACLE_PER_PASS[workload])
        untraced.append(wall)
        with recorder:
            wall, _, outputs = run_pass(items)
            checker.check_in_process(items, outputs)
        traced.append(wall)
        passes.append(recorder.take())
        checker.check_pass(items, outputs, ORACLE_PER_PASS[workload])
        pair_s = perf_counter() - pair_start

    probe = tracing.figures(probe_spans)
    per_pass = [tracing.figures(spans) for spans in passes]
    for name, value in probe.items():
        if name in MAX_FIGURES:
            metrics[name] = max(value, per_pass[0][name])
        elif name in COUNT_UNITS:
            metrics[name] = value + per_pass[0][name]
        else:
            metrics[name] = value + median(f[name] for f in per_pass)
    skips = sum(item.kind == "skip" for item in items + probes)
    metrics["vanishing.grid_valid_ratio"] = metrics["vanishing.tuples"] / (
        metrics["vanishing.tuples"] + skips
    )
    metrics["vanishing.scan_serial_s"] = serial_s
    metrics["vanishing.scan_jobs2_s"] = jobs2_s
    metrics["cli.startup_s"] = metrics["cli.proc_s"] - metrics["cli.main_s"]
    metrics["cli.import_s"] = median(p["import_s"] for p in setups)
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    notes = {
        "passes": len(traced),
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "span_summary": {
            "probes": tracing.span_summary(probe_spans),
            "first_traced_pass": tracing.span_summary(passes[0]),
        },
        "spans": [
            [[s.name, s.start, s.end, s.parent] for s in spans] for spans in [probe_spans, *passes]
        ],
    }
    return metrics, notes


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def git_state() -> tuple[str | None, bool | None]:
    """(commit, whether tracked files differ from it), or Nones outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha or None, bool(status.strip())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qvanish" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    setups = measure_setup(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    import qvanish

    if Path(qvanish.__file__).resolve().parent != SRC / "qvanish":
        print(f"error: imported qvanish from {qvanish.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    items = workloads.build(args.workload, args.seed, str(ROOT))
    checker = Checker(args.workload, args.seed, json.loads(GOLDEN.read_text()))
    if args.trace:
        probes = workloads.build("probes", args.seed, str(ROOT))
        metrics, notes = traced_run(args.workload, items, probes, checker, args.seconds, setups)
    else:
        metrics, notes = timed_run(args.workload, items, checker, args.seconds, setups)

    sha, dirty = git_state()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "fail_ratio": checker.failed / checker.attempted,
        "problems": checker.problems,
        "setup_probes": setups,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in metrics.items()},
        **notes,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    for problem in checker.problems:
        print(f"FAILED {problem}")
    for name, value in sorted(metrics.items()):
        print(f"{name:34s} {value:16.6f} {unit(name)}")
    print(f"{'fail_ratio':34s} {record['fail_ratio']:16.6f} ratio "
          f"({checker.failed} of {checker.attempted})")
    if "tail_percentile" in notes:
        print(f"item_tail_ms is p{notes['tail_percentile']:.1f} of "
              f"{notes['items_per_pass']} items per pass; {notes['passes']} passes")
    print(f"result file: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": v, "unit": unit(name)} for name, v in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
