#!/usr/bin/env python3
"""Write golden.json: the digest of every output any seed of the benchmark can produce.

    python3 benchmarks/make_golden.py

Every entry of every workload pool is run once, checked by its own check
and against the slow independent path where it has one; the digests are
written only when all of them pass.  Run it only when the pools change or
when an output is meant to change.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import GOLDEN, ROOT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402


def main() -> int:
    golden, problems = {}, []
    for name in (*WORKLOADS, "probes"):
        start = perf_counter()
        items = workloads.pool_items(name, str(ROOT))
        for item in items:
            out = item.call()
            problem = item.check(out) or (item.oracle(out) if item.oracle else None)
            if problem:
                problems.append(f"{item.key}: {problem}")
            if item.kind == "skip":
                continue
            digest = item.digest(out)
            if golden.setdefault(item.key, digest) != digest:
                problems.append(f"{item.key}: two different outputs under one key")
        print(f"{name}: {len(items)} items in {perf_counter() - start:.1f} s", flush=True)
    for problem in problems:
        print(f"FAILED {problem}")
    if problems:
        return 1
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
