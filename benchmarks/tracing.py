"""Span recorder for traced runs, and the per-layer figures derived from it.

While installed, the recorder replaces the package's public functions
with wrappers that record one span per call: name, start, end, the span
that was open when the call began (its parent), plus the arguments and
result for the counts.  The package is not modified: the functions are
rebound at run time on every module that holds a reference to them, and
put back on exit.

A layer's time is the summed duration of its outermost spans; a span's
self time is its duration minus that of its child spans.  Counts such as
linear passes or DP cells are computed from the recorded arguments, so
they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import os
from statistics import median
from time import perf_counter

import qvanish as qv
import qvanish.cli
import qvanish.partitions
import qvanish.products
import qvanish.vanishing

import workloads

# span name -> (owner, attribute) of each recorded function
TRACED = {
    **{
        f"products.{name}": (qvanish.products, name)
        for name in (
            "expand_product",
            "lambert_series",
            "compare_series",
            "jtp_theta",
            "cancellation_check",
            "verify_1psi1",
        )
    },
    **{
        f"vanishing.{name}": (qvanish.vanishing, name)
        for name in ("verify_vanishing", "build_spec", "zero_class", "scan")
    },
    **{
        f"partitions.{name}": (qvanish.partitions, name)
        for name in (
            "count_restricted_table",
            "count_restricted",
            "count_restricted_by_parity",
            "signed_sum",
            "signed_sum_terms",
            "verify_parity_identity",
            "enumerate_restricted",
        )
    },
    "series.mul": (qv.LaurentSeries, "__mul__"),
    "series.invert": (qv.LaurentSeries, "invert"),
    "cli.main": (qvanish.cli, "main"),
    "cli.proc": (workloads, "run_cli"),
}
# every namespace that may hold a reference to a recorded function
NAMESPACES = (
    qv,
    qvanish.products,
    qvanish.vanishing,
    qvanish.partitions,
    qvanish.cli,
    qv.LaurentSeries,
    workloads,
)
SIGNATURES = {name: inspect.signature(getattr(*where)) for name, where in TRACED.items()}


class Span:
    __slots__ = ("name", "parent", "start", "end", "args", "kwargs", "result")

    def __init__(self, name, parent, args, kwargs):
        self.name, self.parent, self.args, self.kwargs = name, parent, args, kwargs
        self.start = self.end = 0.0
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def arguments(self) -> dict:
        return SIGNATURES[self.name].bind(*self.args, **self.kwargs).arguments


class SpanRecorder:
    """Records spans of the package's public functions while entered."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None, args, kwargs)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = perf_counter()
                self._open.pop()

        return traced

    def __enter__(self):
        wrappers = {}
        for name, (owner, attr) in TRACED.items():
            fn = vars(owner)[attr]
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for ns in NAMESPACES:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)][1])
        return self

    def __exit__(self, *exc):
        for ns, attr, value in reversed(self._undo):
            setattr(ns, attr, value)
        self._undo.clear()

    def take(self) -> list[Span]:
        """The spans recorded so far; the recorder starts a new list."""
        spans, self.spans = self.spans, []
        return spans


def layer_time(spans: list[Span], *names: str) -> float:
    """Summed duration of the spans named `names` that no such span encloses."""
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            total += span.duration
    return total


def span_summary(spans: list[Span]) -> dict[str, dict]:
    """Calls, total seconds and self seconds per span name."""
    in_children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            in_children[span.parent] += span.duration
    out: dict[str, dict] = {}
    for span, children in zip(spans, in_children):
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.duration - children
    return out


def _passes(spec, order) -> tuple[int, int, int]:
    """(multiply passes, divide passes, coefficient updates) of expand_product(spec, order)."""
    length = order - spec.prefactor_exponent
    mul = [e for f in spec.numerator for e in range(f.offset, length, f.modulus)]
    div = [e for f in spec.denominator for e in range(f.offset, length, f.modulus)]
    return len(mul), len(div), sum(length - e for e in mul + div)


def _dp_cells(spec, n_max: int) -> int:
    repeatable, distinct = spec.parts_up_to(n_max)
    return sum(n_max + 1 - p for p in repeatable + distinct)


def _parity_spec(m, k, s, t):
    r, mk, tk = s * m + t, m * k, t * k
    return qv.RestrictedPartitionSpec(mk, {r % mk, -r % mk}, {(r - tk) % mk, (tk - r) % mk})


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def figures(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one list of spans."""

    def named(name):
        return [s for s in spans if s.name == name]

    out = {
        "products.expand_s": layer_time(spans, "products.expand_product"),
        "products.expand_calls": len(named("products.expand_product")),
        "products.lambert_s": layer_time(spans, "products.lambert_series"),
        "products.compare_s": layer_time(spans, "products.compare_series"),
        "products.jtp_s": layer_time(spans, "products.jtp_theta"),
        "products.cancel_s": layer_time(spans, "products.cancellation_check"),
        "vanishing.verify_s": layer_time(spans, "vanishing.verify_vanishing"),
        "vanishing.build_spec_s": layer_time(spans, "vanishing.build_spec"),
        "series.mul_s": layer_time(spans, "series.mul"),
        "series.invert_s": layer_time(spans, "series.invert"),
        "partitions.table_s": layer_time(spans, "partitions.count_restricted_table"),
        "partitions.parity_s": layer_time(
            spans,
            "partitions.verify_parity_identity",
            "partitions.count_restricted_by_parity",
        ),
        "partitions.signed_sum_s": layer_time(
            spans, "partitions.signed_sum", "partitions.signed_sum_terms"
        ),
        "partitions.enumerate_s": layer_time(spans, "partitions.enumerate_restricted"),
        "cli.proc_s": layer_time(spans, "cli.proc"),
        "cli.main_s": layer_time(spans, "cli.main"),
    }

    mul = div = cells = 0
    for span in named("products.expand_product"):
        bound = span.arguments()
        m, d, c = _passes(bound["spec"], bound["order"])
        mul, div, cells = mul + m, div + d, cells + c
    out.update(
        {"products.mul_passes": mul, "products.div_passes": div, "products.cell_updates": cells}
    )

    # verify_vanishing minus its expand_product children: build plus class check
    verify_self = layer_time(spans, "vanishing.verify_vanishing") - sum(
        s.duration
        for s in named("products.expand_product")
        if s.parent is not None and spans[s.parent].name == "vanishing.verify_vanishing"
    )
    reports = [s.result for s in named("vanishing.verify_vanishing") if s.result is not None]
    out.update(
        {
            "vanishing.verify_self_s": verify_self,
            "vanishing.tuples": len(named("vanishing.verify_vanishing")),
            "vanishing.violations": sum(len(r.violations) for r in reports),
        }
    )

    series = [s.result for s in spans if isinstance(s.result, qv.LaurentSeries)]
    out["series.coeff_cells"] = sum(len(s.coeffs) for s in series)
    out["series.coeff_max_bits"] = max((_bits(s.coeffs) for s in series), default=0)

    dp_cells = count_bits = 0
    for span in spans:
        if span.name in (
            "partitions.count_restricted_table",
            "partitions.count_restricted_by_parity",
        ):
            spec, n_max = span.arguments().values()
            dp_cells += _dp_cells(spec, n_max)
            if span.result is not None:
                count_bits = max(count_bits, _bits(span.result))
        elif span.name == "partitions.verify_parity_identity":
            m, k, s, t, n_max = span.arguments().values()
            dp_cells += _dp_cells(_parity_spec(m, k, s, t), n_max)
    out.update(
        {
            "partitions.dp_cells": dp_cells,
            "partitions.enumerated": sum(
                len(s.result) for s in named("partitions.enumerate_restricted") if s.result
            ),
            "partitions.count_max_bits": count_bits,
            "cli.stdout_bytes": sum(
                len(s.result[1].encode()) for s in named("cli.proc") if s.result
            ),
        }
    )
    return out


def kernel_probes(reps: int = 100, n: int = 3000) -> dict[str, float]:
    """Microseconds of one linear pass at n coefficients, by kernel, sign and exponent.

    A one-factor spec whose modulus exceeds the order makes expand_product
    run exactly one multiply or divide pass at exponent e.  The time of an
    empty spec, taken right before each call, is subtracted.
    """
    empty = qv.ProductSpec(1, 0, (), ())
    out = {}
    for kind in ("mul", "div"):
        for sign, label in ((1, "pos"), (-1, "neg")):
            for e in (1, 9, 500):
                factor = (qv.PochhammerFactor(sign, e, n + 1),)
                sides = (factor, ()) if kind == "mul" else ((), factor)
                spec = qv.ProductSpec(1, 0, *sides)
                deltas = []
                for _ in range(reps):
                    t0 = perf_counter()
                    qv.expand_product(empty, n)
                    t1 = perf_counter()
                    qv.expand_product(spec, n)
                    t2 = perf_counter()
                    deltas.append((t2 - t1) - (t1 - t0))
                out[f"products.{kind}_pass_{label}_e{e}_us"] = median(deltas) * 1e6
    return out


def scan_jobs(order: int = 1000) -> tuple[float, float, bool]:
    """(serial seconds, jobs=2 seconds, same reports) of one plus-family scan.

    The pool is capped at the number of processors.
    """
    ks, ms = range(2, 5), range(2, 4)
    jobs = min(2, os.cpu_count() or 1)
    t0 = perf_counter()
    serial = qv.scan(ks, ms, order, "plus")
    t1 = perf_counter()
    parallel = qv.scan(ks, ms, order, "plus", jobs=jobs)
    t2 = perf_counter()
    same = [r.to_json_dict() for r in serial] == [r.to_json_dict() for r in parallel]
    return t1 - t0, t2 - t1, same
