"""The benchmark's workloads: seeded inputs, timed calls, output checks.

A workload is a list of items.  An item is one call into the package, the
only part that is timed, plus the checks of its output, which run after
the pass: the item's own check, the stored digest of its output, and, on
a seed-chosen sample, a slow independent path (see ``oracle``).

Every input comes from a fixed pool.  The seed chooses a fixed number of
entries from each pool; where entries differ in cost, it chooses one from
each band of a cost ranking, so that any two seeds give passes of nearly
the same cost.  ``pool_items`` returns every entry of every pool, for
``make_golden.py``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Any, Callable

import qvanish as qv

import oracle

@dataclass
class Item:
    """One timed call into the package and the checks of its output."""

    key: str  # names the item's stored digest
    call: Callable[[], Any]
    digest: Callable[[Any], str]
    check: Callable[[Any], str | None]  # returns a problem, or None
    coeffs: int  # series coefficients or count-table entries produced and checked
    kind: str = "verdict"  # "skip": a grid candidate that validation must refuse
    oracle: Callable[[Any], str | None] | None = None
    argv: list[str] | None = None  # CLI arguments, for the in-process run when traced


def build(name: str, seed: int, root: str) -> list[Item]:
    """The items of one pass of workload `name` for `seed`."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"), root)


def pool_items(name: str, root: str) -> list[Item]:
    """Every item any seed can choose for workload `name`."""
    return _GENERATORS[name](None, root)


def _pick(rng: random.Random | None, pool: list, n: int) -> list:
    """n entries of the pool in pool order, or the whole pool without a seed."""
    if rng is None:
        return list(pool)
    return [pool[i] for i in sorted(rng.sample(range(len(pool)), n))]


def _pick_banded(rng: random.Random | None, pool: list, n: int, cost: Callable) -> list:
    """One entry from each of n equal bands of the pool ranked by cost, in pool order."""
    if rng is None:
        return list(pool)
    ranked = sorted(range(len(pool)), key=lambda i: (cost(pool[i]), i))
    size = len(pool)
    chosen = [ranked[rng.randrange(b * size // n, (b + 1) * size // n)] for b in range(n)]
    return [pool[i] for i in sorted(chosen)]


def _expect(ok: bool, problem: str) -> str | None:
    return None if ok else problem


def _verified(report) -> str | None:
    if not isinstance(report, qv.VanishingReport):
        return f"expected a report, got {report!r}"
    return _expect(report.verified, f"violations at {report.violations[:3]}")


def _holds(out) -> str | None:
    return _expect(bool(out), f"{out!r} does not hold")


def _is_zero(value) -> str | None:
    return _expect(value == 0, f"{value}, expected 0")


def _report_digest(report) -> str:
    return oracle.digest(oracle.report_text(report))


def _cli_digest(out) -> str:
    return oracle.digest(f"{out[0]}\n{out[1]}")


# -- scan-grid --------------------------------------------------------------------

SCAN_ORDER = 1000
# family: (k values, m values, valid tuples per pass); the grids of the
# acceptance sweeps (criteria 2 to 4) plus Alladi-Gordon over the same box.
SCAN_GRIDS = {
    "ab": (range(2, 13), range(2, 3), 6),
    "plus": (range(2, 9), range(2, 9), 30),
    "minus": (range(2, 9), range(2, 9), 24),
    "ag": (range(2, 9), range(2, 9), 24),
}
FAMILY_TYPES = {
    "ab": qv.AndrewsBressoudParams,
    "plus": qv.ShiftedQuotientParams,
    "minus": qv.ShiftedQuotientParams,
    "ag": qv.AlladiGordonParams,
}


def grid(family: str, ks, ms) -> list[dict]:
    """Candidate parameter dicts in the order scan visits them."""
    if family == "ab":
        return [{"k": k, "r": r} for k in ks for r in range(1, k)]
    if family in ("plus", "minus"):
        return [
            {"m": m, "k": k, "s": s, "t": t, "sign": family}
            for m in ms
            for k in ks
            for s in range(k)
            for t in range(1, m)
        ]
    return [
        {"m": m, "k": k, "s": s, "sign": sign}
        for m in ms
        for k in ks
        for s in range(1, m * k)
        for sign in ("plus", "minus")
    ]


def validate(family: str, candidate: dict):
    """The family's parameter object, or None when validation refuses the candidate."""
    try:
        return FAMILY_TYPES[family](**candidate)
    except qv.InvalidParams:
        return None


def visit(family: str, candidate: dict, order: int):
    """What scan does with one candidate: validate, then verify or skip."""
    try:
        params = FAMILY_TYPES[family](**candidate)
    except qv.InvalidParams as exc:
        return exc
    return qv.verify_vanishing(params, order)


def _visit_digest(out) -> str:
    return "skip" if isinstance(out, qv.InvalidParams) else _report_digest(out)


def _candidate_key(family: str, candidate: dict) -> str:
    return f"{family}:" + ",".join(f"{k}={v}" for k, v in candidate.items())


def _skipped(out) -> str | None:
    return _expect(isinstance(out, qv.InvalidParams), "validation accepted a refused candidate")


def _scan_item(family: str, candidate: dict, params) -> Item:
    call = partial(visit, family, candidate, SCAN_ORDER)
    key = _candidate_key(family, candidate)
    if params is None:
        return Item(key, call, _visit_digest, _skipped, 0, kind="skip")
    return Item(
        key,
        call,
        _visit_digest,
        _verified,
        SCAN_ORDER,
        oracle=partial(oracle.check_verification, params=params),
    )


def _scan_grid(rng, root) -> list[Item]:
    items = []
    for family, (ks, ms, per_pass) in SCAN_GRIDS.items():
        candidates = grid(family, ks, ms)
        params = [validate(family, c) for c in candidates]
        valid = [i for i, p in enumerate(params) if p is not None]
        refused = [i for i, p in enumerate(params) if p is None]

        def cost(i, params=params):
            num, den = oracle.quotient_factors(params[i])
            return oracle.linear_cells(num + den, SCAN_ORDER)

        chosen = _pick_banded(rng, valid, per_pass, cost)
        chosen += _pick(rng, refused, round(per_pass * len(refused) / len(valid)))
        items += [_scan_item(family, candidates[i], params[i]) for i in sorted(chosen)]
    return items


# -- deep-series ------------------------------------------------------------------

DEEP_ORDER = 3000
DEEP_ORACLE_ORDER = 1000  # the slow path's inverse is quadratic; it checks a prefix
RING_ORDER = 2000
# criterion 6: the m = k = 3 quotients, (s, t) -> residue of the zero class mod 3
CRITERION6 = {(1, 1): 2, (2, 2): 2, (2, 1): 1}
# (3, 3, t, r) specializations of the bilateral sum; both t keep the same moduli
PSI_POOLS = [[(3, 3, t, r) for r in range(1, 9) if r != 3 * t] for t in (1, 2)]
# num=1,2,3:7 den=1,2:5 den=3:4 and its mirror images a -> M - a factor by factor,
# which keep the number of linear passes
GENERIC_POOL = list(product(((1, 2, 3), (4, 5, 6)), ((1, 2), (3, 4)), ((3,), (1,))))
# numerator-only products (q^a, q^b, q^c, q^d; q^11): dense units with bounded inverses
RING_POOL = [(1, 2, 3, 4), (7, 8, 9, 10), (1, 3, 5, 7), (4, 6, 8, 10), (2, 3, 4, 5), (6, 7, 8, 9)]


def _generic_factors(choice):
    seven, five, four = choice
    return qv.pochhammer(seven, 7), qv.pochhammer(five, 5) + qv.pochhammer(four, 4)


def ring_round_trip(offsets, order: int):
    """Expand a numerator-only product, invert it, and multiply back."""
    unit = qv.expand_product(qv.ProductSpec(1, 0, qv.pochhammer(offsets, 11), ()), order)
    inverse = unit.invert()
    return inverse, unit * inverse


def _is_one(out, order: int) -> str | None:
    product_ = out[1]
    one = qv.LaurentSeries.one(order)
    ok = (product_.valuation, product_.order, product_.coeffs) == (0, order, one.coeffs)
    return _expect(ok, "unit * unit.invert() != 1")


def _psi_coeffs(m, k, t, r, order) -> int:
    """Left side on [0, order + tk) plus right side on [min(r - tk, 0), order)."""
    tk = t * k
    return (order + tk) + (order + max(tk - r, 0))


def _psi_digest(check) -> str:
    return "ok" if check.ok else f"fail at q^{check.exponent}: {check.lhs} != {check.rhs}"


def _deep_series(rng, root) -> list[Item]:
    items = []
    for (s, t), residue in CRITERION6.items():
        for sign in ("plus", "minus"):
            params = qv.ShiftedQuotientParams(3, 3, s, t, sign)

            def check(report, residue=residue):
                return _verified(report) or _expect(
                    (report.zero_class.modulus, report.zero_class.residue) == (3, residue),
                    f"zero class {report.zero_class}, expected 3n+{residue}",
                )

            items.append(
                Item(
                    f"mk3:s={s},t={t},{sign}",
                    lambda p=params: qv.verify_vanishing(p, DEEP_ORDER),
                    _report_digest,
                    check,
                    DEEP_ORDER,
                    oracle=lambda out, p=params: oracle.check_quotient(p, DEEP_ORACLE_ORDER),
                )
            )
    for pool in PSI_POOLS:
        for m, k, t, r in _pick(rng, pool, 1):
            spec = qv.BilateralSpecialization(m, k, t, r)
            items.append(
                Item(
                    f"1psi1:{m},{k},{t},{r}",
                    lambda p=spec: qv.verify_1psi1(p, DEEP_ORDER),
                    _psi_digest,
                    _holds,
                    _psi_coeffs(m, k, t, r, DEEP_ORDER),
                )
            )
    for choice in _pick(rng, GENERIC_POOL, 1):
        num, den = _generic_factors(choice)
        spec = qv.ProductSpec(1, 0, num, den)
        items.append(
            Item(
                "generic:" + str(spec),
                lambda spec=spec: qv.expand_product(spec, DEEP_ORDER),
                lambda out: oracle.digest(oracle.series_text(out)),
                lambda out: _expect(
                    (out.valuation, out.order) == (0, DEEP_ORDER), "wrong window"
                ),
                DEEP_ORDER,
                oracle=lambda out, num=num, den=den: oracle.same_series(
                    out, oracle.slow_quotient(num, den, DEEP_ORACLE_ORDER)
                ),
            )
        )
    for offsets in _pick(rng, RING_POOL, 1):
        items.append(
            Item(
                f"ring:{offsets}:11",
                lambda o=offsets: ring_round_trip(o, RING_ORDER),
                lambda out: oracle.digest(oracle.series_text(out[0])),
                lambda out: _is_one(out, RING_ORDER),
                3 * RING_ORDER,
            )
        )
    if rng is not None:
        rng.shuffle(items)
    return items


# -- partition-dp -----------------------------------------------------------------

TABLE_N = 8000
PARITY_N = 3000
SIGNED_TARGET = 6000  # n*k - r*s, the largest count the signed sum needs
# criterion 11: repeatable parts = 13, 17 and distinct parts = 2, 28 (mod 30)
ENUM_SPEC = qv.RestrictedPartitionSpec(30, {13, 17}, {2, 28})
ENUM_N = 149


def _valid_s(sign: str) -> list[int]:
    """s with (2, 15, s, 1) a valid tuple of the family."""
    return [s for s in range(15) if validate(sign, {"m": 2, "k": 15, "s": s, "t": 1, "sign": sign})]


def _signed_args(s: int, n: int) -> list[int]:
    """Nonnegative arguments nk - rs - mk j(j+1)/2 - j(tk - r) of the (2, 15, s, 1) sum."""
    r = 2 * s + 1
    args = (n * 15 - r * s - 30 * j * (j + 1) // 2 - j * (15 - r) for j in range(-60, 61))
    return [a for a in args if a >= 0]


def _table_digest(table) -> str:
    return oracle.digest(",".join(map(str, table)))


def _split_evenly(listed) -> str | None:
    even = sum(1 for p in listed if p.num_parts % 2 == 0)
    return _expect(listed and 2 * even == len(listed), f"{even} of {len(listed)} even")


def _enumeration_item() -> Item:
    """Criterion 11: the twelve partitions of 149, six with an even number of parts."""
    return Item(
        f"enumerate:criterion11:{ENUM_N}",
        lambda: qv.enumerate_restricted(ENUM_SPEC, ENUM_N),
        lambda out: oracle.digest(" ".join(p.render() for p in out)),
        _split_evenly,
        ENUM_N + 1,
    )


def _parity_digest(report) -> str:
    return oracle.digest(f"{report.residue_class}:{report.violations}")


def _partition_dp(rng, root) -> list[Item]:
    items = []
    for s in _pick(rng, _valid_s("plus"), 3):
        r = 2 * s + 1
        spec = qv.RestrictedPartitionSpec(30, {0, r, 30 - r})
        items.append(
            Item(
                f"table:30:0,{r},{30 - r}:{TABLE_N}",
                lambda spec=spec: qv.count_restricted_table(spec, TABLE_N),
                _table_digest,
                lambda out: _expect(len(out) == TABLE_N + 1 and out[0] == 1, "malformed table"),
                TABLE_N + 1,
                oracle=lambda out, spec=spec: oracle.check_count_table(out, spec),
            )
        )
    for s in _valid_s("minus"):
        items.append(
            Item(
                f"parity:2,15,{s},1:{PARITY_N}",
                lambda s=s: qv.verify_parity_identity(2, 15, s, 1, PARITY_N),
                _parity_digest,
                lambda out: _expect(out.ok, f"even != odd at {out.violations[:3]}"),
                2 * (PARITY_N + 1),
            )
        )
    for s in _pick(rng, _valid_s("plus"), 2):
        n = (SIGNED_TARGET + (2 * s + 1) * s) // 15
        items.append(
            Item(
                f"signed:2,15,{s},1:{n}",
                lambda s=s, n=n: qv.signed_sum(2, 15, s, 1, n),
                str,
                _is_zero,
                max(_signed_args(s, n)) + 1,
            )
        )
    items.append(_enumeration_item())
    if rng is not None:
        rng.shuffle(items)
    return items


# -- cli-batch --------------------------------------------------------------------


def cli_env(root: str) -> dict:
    """Environment for a CLI child: the checkout's sources, no order override."""
    env = {k: v for k, v in os.environ.items() if k != "QVANISH_ORDER"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli(argv: list[str], root: str, env: dict) -> tuple[int, str]:
    """One `python -m qvanish.cli` process; returns (exit code, stdout)."""
    done = subprocess.run(
        [sys.executable, "-m", "qvanish.cli", *argv],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout


def _scan_coeffs(tokens: list[str], order: int) -> int:
    """Coefficients a CLI scan expands: order times the valid tuples of its grid."""
    fields = dict(t.split("=") for t in tokens)

    def values(text):  # "LO..HI" or a single integer
        lo, _, hi = text.partition("..")
        return range(int(lo), int(hi or lo) + 1)

    family = fields["family"]
    candidates = grid(family, values(fields["k"]), values(fields.get("m", "2")))
    return order * sum(1 for c in candidates if validate(family, c))


def _cli_pools() -> list[tuple[int, list[tuple[list[str], int, int]]]]:
    """(commands per pass, pool of (argv, expected exit code, coefficients))."""
    json_ = ["--format", "json"]
    expand = [
        ["num=3,5:8", "den=1,7:8"],
        ["num=1,7:8", "den=3,5:8"],
        ["num=5,7:12", "den=1,11:12"],
        ["num=1,11:12", "den=5,7:12"],
        ["num=1,8:9", "den=-4,-5:9"],
        ["pre=-1:-2", "num=7,2:9", "den=1,8:9"],
        ["num=1,2,3:7", "den=1,2:5", "den=3:4"],
        ["den=2:4"],
    ]
    verify = [
        ["family=ab", "k=6", "r=1"],
        ["family=ab", "k=9", "r=2"],
        ["family=ab", "k=11", "r=4"],
        ["family=plus", "m=2", "k=15", "s=0", "t=1"],
        ["family=plus", "m=3", "k=4", "s=1", "t=2"],
        ["family=plus", "m=4", "k=5", "s=3", "t=1"],
        ["family=minus", "m=2", "k=5", "s=1", "t=1"],
        ["family=minus", "m=3", "k=7", "s=1", "t=1"],
        ["family=shifted", "m=2", "k=9", "s=2", "t=1", "sign=minus"],
        ["family=ag", "m=2", "k=5", "s=3"],
        ["family=ag", "m=3", "k=5", "s=7", "sign=minus"],
        ["family=ag", "m=2", "k=7", "s=5"],
    ]
    scans = [  # 20 valid tuples each
        ["family=plus", "k=2..4", "m=2..3"],
        ["family=minus", "k=3..5", "m=2..3"],
        ["family=ab", "k=4..10"],
        ["family=ag", "k=3..6", "m=2"],
    ]
    psi = [(2, 5, 1, 1), (2, 5, 1, 3), (3, 3, 1, 2), (3, 4, 2, 3), (2, 7, 1, 5)]
    jtp = [(5, 2), (7, 3), (8, 3), (9, 4), (12, 5)]
    cancel = [(2, 5, 1, 1, 0), (2, 5, 1, 3, 1), (3, 4, 1, 4, 1), (3, 5, 2, 8, 2), (2, 7, 1, 5, 2)]
    counts = [
        ["modulus=30", "rep=0,1,29"],
        ["modulus=8", "rep=1,7", "dist=3"],
        ["modulus=5", "rep=1,4"],
        ["modulus=12", "rep=0,5", "dist=7"],
        ["modulus=7", "dist=1,2,3"],
    ]
    shift = [0, 3, 5, 6, 8]
    usage = [
        ["verify", "family=plus", "m=2", "k=6", "s=1", "t=1"],
        ["verify", "family=zz", "k=5"],
        ["expand", "num=3:x"],
        ["scan", "family=plus"],
        ["verify", "family=ab", "k=6", "r=1", "bogus=1"],
        ["partitions", "count", "modulus=30", "n=x"],
        ["expand", "--format", "xml"],
        ["identity", "jtp", "M=5", "a=7"],
        ["partitions", "enumerate", "modulus=1", "rep=0", "n=200", "--cap", "10"],
    ]
    order = ["order=200"]
    psi_order = 300

    def psi_argv(m, k, t, r):
        return ["identity", "1psi1", f"m={m}", f"k={k}", f"t={t}", f"r={r}", f"order={psi_order}"]

    def signed_n(s):  # largest count argument near 300 for every s
        return (300 + (2 * s + 1) * s) // 15

    return [
        (6, [(["expand", *t, *order, *json_], 0, 200 + 2 * ("pre=-1:-2" in t)) for t in expand]),
        (8, [(["verify", *t, "order=300", *json_], 0, 300) for t in verify]),
        (2, [(["scan", *t, *order, *json_], 0, _scan_coeffs(t, 200)) for t in scans]),
        (3, [(psi_argv(*p) + json_, 0, _psi_coeffs(*p, psi_order)) for p in psi]),
        (3, [(["identity", "jtp", f"M={M}", f"a={a}", *order, *json_], 0, 400) for M, a in jtp]),
        (
            3,
            [
                (
                    ["identity", "lambert-cancel", f"m={m}", f"k={k}", f"t={t}", f"r={r}", f"s={s}",
                     "order=300", *json_],
                    0,
                    600,
                )
                for m, k, t, r, s in cancel
            ],
        ),
        (3, [(["partitions", "count", *t, "n=250", *json_], 0, 251) for t in counts]),
        (
            3,
            [
                (["partitions", "parity", "m=2", "k=15", f"s={s}", "t=1", "n=149", *json_], 0, 300)
                for s in shift
            ],
        ),
        (
            3,
            [
                (["partitions", "signed-sum", "m=2", "k=15", f"s={s}", "t=1", f"n={signed_n(s)}",
                  *json_], 0, max(_signed_args(s, signed_n(s))) + 1)
                for s in shift
            ],
        ),
        (6, [(argv, 2, 0) for argv in usage]),
    ]


def _cli_batch(rng, root) -> list[Item]:
    env = cli_env(root)
    items = []
    for per_pass, pool in _cli_pools():
        for argv, code, coeffs in _pick(rng, pool, per_pass):
            items.append(
                Item(
                    "cli:" + " ".join(argv),
                    lambda argv=argv: run_cli(argv, root, env),
                    _cli_digest,
                    lambda out, code=code: _expect(out[0] == code, f"exit {out[0]}, expected {code}"),
                    coeffs,
                    argv=argv,
                )
            )
    if rng is not None:
        rng.shuffle(items)
    return items


# -- layer probes -----------------------------------------------------------------

PROBE_ORDER = 300


def _layer_probes(rng, root) -> list[Item]:
    """One small call into each traced layer; traced runs add them to every workload.

    They make every per-layer figure a measurement on every workload: on a
    workload that never reaches a layer, that layer's figure is these calls
    alone.  Calls look the package's functions up when they run, so that
    tracing sees them.
    """
    n = PROBE_ORDER
    env = cli_env(root)
    psi = qv.BilateralSpecialization(2, 5, 1, 1)
    table_spec = qv.RestrictedPartitionSpec(30, {0, 1, 29})
    argv = ["verify", "family=plus", "m=2", "k=5", "s=0", "t=1", f"order={n}", "--format", "json"]
    plus = {"m": 2, "k": 5, "s": 0, "t": 1, "sign": "plus"}
    refused = {"m": 2, "k": 6, "s": 1, "t": 1, "sign": "plus"}

    def jtp():
        theta = qv.jtp_theta(5, 2, n)
        return qv.compare_series(theta, qv.expand_product(qv.jtp_product_spec(5, 2), n))

    return [
        _scan_item("plus", plus, validate("plus", plus)),
        _scan_item("plus", refused, None),
        Item("probe:1psi1", lambda: qv.verify_1psi1(psi, n), _psi_digest, _holds,
             _psi_coeffs(2, 5, 1, 1, n)),
        Item("probe:jtp", jtp, repr, _holds, 2 * n),
        Item("probe:cancel", lambda: qv.cancellation_check(psi, 0, n), repr, _holds, 2 * n),
        Item("probe:ring", partial(ring_round_trip, (1, 2, 3, 4), n),
             lambda out: oracle.digest(oracle.series_text(out[0])), partial(_is_one, order=n),
             3 * n),
        Item("probe:table", lambda: qv.count_restricted_table(table_spec, n), _table_digest,
             partial(oracle.check_count_table, spec=table_spec), n + 1),
        Item("probe:parity", lambda: qv.verify_parity_identity(2, 15, 0, 1, n), _parity_digest,
             _holds, 2 * (n + 1)),
        Item("probe:signed", lambda: qv.signed_sum(2, 15, 0, 1, 20), str, _is_zero,
             max(_signed_args(0, 20)) + 1),
        _enumeration_item(),
        Item("probe:cli", lambda: run_cli(argv, root, env), _cli_digest,
             lambda out: _expect(out[0] == 0, f"exit {out[0]}"), n, argv=argv),
    ]


_GENERATORS = {
    "scan-grid": _scan_grid,
    "deep-series": _deep_series,
    "partition-dp": _partition_dp,
    "cli-batch": _cli_batch,
    "probes": _layer_probes,
}
