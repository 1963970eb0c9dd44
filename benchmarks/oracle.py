"""Slow, independent reference paths and output digests for the benchmark.

The package's fast paths are checked against code that shares as little
with them as possible:

* a Pochhammer quotient is rebuilt from the family definitions (not from
  ``build_spec``) and expanded by multiplying out ``expand_factor`` for
  each numerator factor and multiplying by ``LaurentSeries.invert`` of each
  denominator factor, so the division kernel of ``expand_product`` never
  runs;
* a verification report is recomputed from such a series by a plain
  residue-class scan;
* a restricted-partition count table is recomputed as the coefficients of
  its generating function, a product expansion instead of the DP.
"""

from __future__ import annotations

import hashlib
import json

import qvanish as qv


def digest(text: str) -> str:
    """Short stable digest of a canonical text form."""
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def series_text(series) -> str:
    return f"{series.valuation}:{series.order}:" + ",".join(map(str, series.coeffs))


def report_text(report) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True)


def quotient_factors(params):
    """(numerator, denominator) of the normalized quotient, from the family definitions.

    The prefactor -q^{-c} of the negative-offset rewrite is dropped, as in
    the normalized expansion that verification reports refer to.
    """
    factor = qv.PochhammerFactor
    if isinstance(params, qv.AndrewsBressoudParams):
        k, r = params.k, params.r
        return (
            [factor(1, r, 2 * k), factor(1, 2 * k - r, 2 * k)],
            [factor(1, k - r, 2 * k), factor(1, k + r, 2 * k)],
        )
    mk = params.m * params.k
    den_sign = 1 if params.sign == "plus" else -1
    if isinstance(params, qv.ShiftedQuotientParams):
        r, tk = params.s * params.m + params.t, params.t * params.k
        shift = abs(r - tk)
        return (
            [factor(1, shift, mk), factor(1, mk - shift, mk)],
            [factor(den_sign, r, mk), factor(den_sign, mk - r, mk)],
        )
    r = ((params.k - 1) * params.s) % mk
    return (
        [factor(1, r, mk), factor(1, mk - r, mk)],
        [factor(den_sign, params.s, mk), factor(den_sign, mk - params.s, mk)],
    )


def linear_cells(factors, length: int) -> int:
    """Coefficient updates of the linear passes that expand the factors to `length`."""
    return sum(length - e for f in factors for e in range(f.offset, length, f.modulus))


def slow_quotient(numerator, denominator, order: int):
    """prod(numerator) / prod(denominator) on [0, order), without the division kernel."""
    acc = qv.LaurentSeries.one(order)
    for f in numerator:
        acc = acc * qv.expand_factor(f, order)
    for f in denominator:
        acc = acc * qv.expand_factor(f, order).invert()
    return acc


def same_series(fast, slow) -> str | None:
    """None when the two series agree on slow's whole window, else the first difference."""
    if fast.valuation != slow.valuation or fast.order < slow.order:
        return (
            f"window [{fast.valuation}, {fast.order}) does not cover "
            f"[{slow.valuation}, {slow.order})"
        )
    n = len(slow.coeffs)
    for i, (a, b) in enumerate(zip(fast.coeffs[:n], slow.coeffs)):
        if a != b:
            return f"coefficient of q^{slow.valuation + i}: {a} != {b}"
    return None


def check_quotient(params, order: int) -> str | None:
    """expand_product on the family's quotient against the slow path."""
    num, den = quotient_factors(params)
    fast = qv.expand_product(qv.ProductSpec(1, 0, tuple(num), tuple(den)), order)
    return same_series(fast, slow_quotient(num, den, order))


def check_verification(report, params) -> str | None:
    """A verification report and the expansion behind it, against the slow path."""
    num, den = quotient_factors(params)
    slow = slow_quotient(num, den, report.order)
    fast = qv.expand_product(qv.ProductSpec(1, 0, tuple(num), tuple(den)), report.order)
    return same_series(fast, slow) or _report_mismatch(report, slow)


def _report_mismatch(report, series) -> str | None:
    """Recompute violations and observed all-zero classes from the series."""
    k, residue = report.zero_class.modulus, report.zero_class.residue
    violations = tuple((e, c) for e, c in series.items() if c and e % k == residue)
    if violations != report.violations:
        return f"violations {report.violations[:3]} != slow path {violations[:3]}"
    nonzero, samples = set(), [0] * k
    for e, c in series.items():
        samples[e % k] += 1
        if c:
            nonzero.add(e % k)
    observed = [
        res
        for res in range(k)
        if res not in nonzero and samples[res] >= qv.OBSERVED_CLASS_MIN_SAMPLES
    ]
    reported = [rc.residue for rc in report.observed_zero_classes]
    if observed != reported:
        return f"observed classes {reported} != slow path {observed}"
    return None


def check_count_table(table, spec) -> str | None:
    """A count table against the coefficients of its generating function.

    Repeatable residues contribute 1/(q^res; q^M), distinct residues
    (-q^res; q^M); residue 0 stands for the multiples of M.
    """
    modulus = spec.modulus

    def offsets(residues):
        return sorted(res or modulus for res in residues)

    generating = qv.ProductSpec(
        1,
        0,
        qv.pochhammer(offsets(spec.distinct_residues), modulus, -1),
        qv.pochhammer(offsets(spec.repeatable_residues), modulus),
    )
    series = qv.expand_product(generating, len(table))
    for n, (count, coeff) in enumerate(zip(table, series.coeffs)):
        if count != coeff:
            return f"count of {n}: {count} != generating function {coeff}"
    return None
