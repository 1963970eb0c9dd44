"""Command-line surface: expansion, verification, scans, partitions, identities.

Product factors use a mini-syntax mirroring the usual notation: "num=3,5:8"
stands for the numerator (q^3, q^5; q^8)oo, a leading "-" on an offset negates
that argument ("den=-1,-7:8" for (-q, -q^7; q^8)oo in the denominator), and
"pre=-1:-2" supplies a prefactor -q^{-2}.  Every subcommand accepts
--format text|json|csv; json output is deterministic and serializes large
coefficients as decimal strings.

Exit codes: 0 success or identity verified, 1 mathematical violation found,
2 usage or parameter error, 3 unexpected internal error (a crash, reported
in one line on stderr, never read as a violation).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

from .errors import InvalidParams, TooLarge
from .partitions import (
    ENUMERATION_CAP,
    RestrictedPartitionSpec,
    count_restricted,
    count_restricted_by_parity,
    enumerate_restricted,
    parity_spec,
    signed_sum_terms,
)
from .products import (
    BilateralSpecialization,
    PochhammerFactor,
    ProductSpec,
    cancellation_check,
    compare_series,
    expand_factor,
    expand_product,
    jtp_product_spec,
    jtp_theta,
    verify_1psi1,
)
from .vanishing import (
    FAMILIES,
    ShiftedQuotientParams,
    scan,
    verify_vanishing,
    zero_class,
)

DEFAULT_ORDER = 1000


class UsageError(Exception):
    """Bad flags or tokens; reported on stderr with exit code 2."""


# -- key=value token plumbing ---------------------------------------------------


class TokenBag:
    """Positional KEY=VALUE tokens with used-token tracking."""

    def __init__(self, tokens: list[str]):
        self._values: dict[str, list[str]] = {}
        self._used: set[str] = set()
        for token in tokens:
            key, eq, value = token.partition("=")
            if not eq or not key:
                raise UsageError(f"cannot parse token {token!r} (expected KEY=VALUE)")
            self._values.setdefault(key, []).append(value)

    def take(self, key: str, default: str | None = None) -> str | None:
        self._used.add(key)
        values = self._values.get(key)
        if values is None:
            return default
        if len(values) > 1:
            raise UsageError(f"{key}= given {len(values)} times")
        return values[0]

    def take_all(self, key: str) -> list[str]:
        self._used.add(key)
        return self._values.get(key, [])

    def take_int(self, key: str, default: int | None = None) -> int | None:
        value = self.take(key)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"{key}={value!r} is not an integer") from None

    def require_int(self, key: str) -> int:
        value = self.take_int(key)
        if value is None:
            raise UsageError(f"missing required token {key}=")
        return value

    def take_range(self, key: str, default: range | None = None) -> range | None:
        """Inclusive LO..HI, or a single integer."""
        value = self.take(key)
        if value is None:
            return default
        lo, dots, hi = value.partition("..")
        try:
            if dots:
                return range(int(lo), int(hi) + 1)
            return range(int(value), int(value) + 1)
        except ValueError:
            raise UsageError(f"{key}={value!r} is not an integer or LO..HI range") from None

    def finish(self) -> None:
        leftovers = sorted(set(self._values) - self._used)
        if leftovers:
            raise UsageError(f"unknown token {leftovers[0]}=...")


def resolve_order(bag: TokenBag, default: int = DEFAULT_ORDER) -> int:
    order = bag.take_int("order")
    if order is not None:
        return order
    env = os.environ.get("QVANISH_ORDER")
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"QVANISH_ORDER={env!r} is not an integer") from None
    return default


def parse_factors(bag: TokenBag, key: str) -> tuple[PochhammerFactor, ...]:
    factors = []
    for value in bag.take_all(key):
        offsets, colon, modulus_text = value.rpartition(":")
        if not colon:
            raise UsageError(f"cannot parse {key}={value} (expected OFFSETS:MODULUS)")
        try:
            modulus = int(modulus_text)
            for piece in offsets.split(","):
                sign = 1
                if piece.startswith("-"):
                    sign, piece = -1, piece[1:]
                factors.append(PochhammerFactor(sign, int(piece), modulus))
        except ValueError:
            raise UsageError(f"cannot parse {key}={value} (expected OFFSETS:MODULUS)") from None
        except InvalidParams as exc:
            raise UsageError(f"{key}={value}: {exc}") from None
    return tuple(factors)


def parse_prefactor(bag: TokenBag) -> tuple[int, int]:
    value = bag.take("pre")
    if value is None:
        return 1, 0
    sign_text, colon, exp_text = value.partition(":")
    try:
        if not colon:
            raise ValueError
        return int(sign_text), int(exp_text)
    except ValueError:
        raise UsageError(f"cannot parse pre={value} (expected SIGN:EXPONENT)") from None


def parse_residues(bag: TokenBag, key: str) -> frozenset[int]:
    value = bag.take(key)
    if not value:
        return frozenset()
    try:
        return frozenset(int(piece) for piece in value.split(","))
    except ValueError:
        raise UsageError(f"cannot parse {key}={value} (expected comma-separated integers)") from None


def take_family(bag: TokenBag, families: dict) -> tuple[str, type]:
    """The lower-cased family= token and its parameter class in families."""
    family = bag.take("family")
    if family is None:
        raise UsageError("missing required token family=")
    family = family.lower()
    if family not in families:
        raise UsageError(f"unknown family {family!r} (expected {', '.join(families)})")
    return family, families[family]


def field_values(bag: TokenBag, cls, sign: str = "plus") -> list:
    """cls's constructor arguments in field order: every field but sign from
    a required integer token, sign as given."""
    return [sign if f.name == "sign" else bag.require_int(f.name) for f in fields(cls)]


def parse_family(bag: TokenBag):
    family, cls = take_family(bag, {**FAMILIES, "shifted": ShiftedQuotientParams})
    sign = bag.take("sign")
    if sign is not None and family not in ("shifted", "ag"):
        raise UsageError(f"sign= is only meaningful with family=shifted or family=ag, not {family}")
    return cls(*field_values(bag, cls, sign or ("minus" if family == "minus" else "plus")))


# -- output helpers -------------------------------------------------------------


def emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def render_check(check, fmt: str) -> int:
    if fmt == "json":
        payload = {"ok": check.ok}
        if not check.ok:
            payload.update(
                exponent=check.exponent, lhs=str(check.lhs), rhs=str(check.rhs)
            )
        emit_json(payload)
    elif fmt == "csv":
        row = [check.ok, "", "", ""]
        if not check.ok:
            row = [check.ok, check.exponent, str(check.lhs), str(check.rhs)]
        emit_csv(["ok", "exponent", "lhs", "rhs"], [row])
    elif check.ok:
        print("pass")
    else:
        print(f"fail at q^{check.exponent}: lhs={check.lhs} rhs={check.rhs}")
    return 0 if check.ok else 1


# -- subcommands -----------------------------------------------------------------


def cmd_expand(args) -> int:
    bag = TokenBag(args.tokens)
    numerator = parse_factors(bag, "num")
    denominator = parse_factors(bag, "den")
    sign, exponent = parse_prefactor(bag)
    order = resolve_order(bag)
    bag.finish()
    series = expand_product(ProductSpec(sign, exponent, numerator, denominator), order)
    pairs = [(e, series[e]) for e in range(series.valuation, series.order)]
    if args.format == "json":
        emit_json(
            {
                "valuation": series.valuation,
                "order": series.order,
                "coefficients": [[e, str(c)] for e, c in pairs],
            }
        )
    elif args.format == "csv":
        emit_csv(["exponent", "coefficient"], [[e, str(c)] for e, c in pairs])
    else:
        for e, c in pairs:
            print(f"q^{e}: {c}")
    return 0


def cmd_verify(args) -> int:
    bag = TokenBag(args.tokens)
    params = parse_family(bag)
    order = resolve_order(bag)
    bag.finish()
    report = verify_vanishing(params, order)
    if args.format == "json":
        emit_json(report.to_json_dict())
    elif args.format == "csv":
        emit_csv(
            ["family", "r", "order", "zero_mod", "zero_res", "verified", "violations"],
            [
                [
                    report.family,
                    report.r,
                    report.order,
                    report.zero_class.modulus,
                    report.zero_class.residue,
                    report.verified,
                    len(report.violations),
                ]
            ],
        )
    else:
        print(report.render_text())
    return 0 if report.verified else 1


def cmd_scan(args) -> int:
    bag = TokenBag(args.tokens)
    family, cls = take_family(bag, FAMILIES)
    k_range = bag.take_range("k")
    if k_range is None:
        raise UsageError("missing required token k= (single value or LO..HI)")
    # a family without an m field leaves m= to bag.finish() to refuse
    has_m = any(f.name == "m" for f in fields(cls))
    m_range = bag.take_range("m", default=range(2, 3)) if has_m else ()
    order = resolve_order(bag, default=500)
    bag.finish()
    result = scan(k_range, m_range, order, family, jobs=args.jobs)
    violated = [report for report in result.reports if not report.verified]
    if args.format == "json":
        emit_json(
            {
                "family": family,
                "order": order,
                "checked": len(result.reports),
                "verified": len(result.reports) - len(violated),
                "violated": len(violated),
                "skipped": [
                    {"params": params, "reason": reason}
                    for params, reason in result.skipped
                ],
                "reports": [report.to_json_dict() for report in result.reports],
            }
        )
    elif args.format == "csv":
        rows = []
        for report in result.reports:
            rows.append(
                [
                    report.family,
                    ";".join(f"{k}={v}" for k, v in report.params.items()),
                    report.r,
                    report.zero_class.modulus,
                    report.zero_class.residue,
                    "verified" if report.verified else "violated",
                    len(report.violations),
                ]
            )
        for params, reason in result.skipped:
            rows.append(
                ["", ";".join(f"{k}={v}" for k, v in params.items()), "", "", "", "skipped", reason]
            )
        emit_csv(["family", "params", "r", "zero_mod", "zero_res", "status", "detail"], rows)
    else:
        for report in violated:
            print(report.render_text())
        print(
            f"checked {len(result.reports)} tuples "
            f"({len(result.reports) - len(violated)} verified, {len(violated)} violated, "
            f"{len(result.skipped)} skipped)"
        )
    return 0 if not violated else 1


def partition_spec_from(bag: TokenBag) -> RestrictedPartitionSpec:
    modulus = bag.require_int("modulus")
    rep = parse_residues(bag, "rep")
    dist = parse_residues(bag, "dist")
    max_part = bag.take_int("max")
    return RestrictedPartitionSpec(modulus, rep, dist, max_part)


def cmd_partitions(args) -> int:
    bag = TokenBag(args.tokens)
    op = args.operation
    if op == "count":
        spec = partition_spec_from(bag)
        n = bag.require_int("n")
        bag.finish()
        count = count_restricted(spec, n)
        if args.format == "json":
            emit_json({"n": n, "count": str(count)})
        elif args.format == "csv":
            emit_csv(["n", "count"], [[n, str(count)]])
        else:
            print(count)
        return 0
    if op == "enumerate":
        spec = partition_spec_from(bag)
        n = bag.require_int("n")
        bag.finish()
        listed = enumerate_restricted(spec, n, cap=args.cap)
        if args.format == "json":
            emit_json({"n": n, "count": len(listed), "partitions": [p.render() for p in listed]})
        elif args.format == "csv":
            emit_csv(["partition"], [[p.render()] for p in listed])
        else:
            for p in listed:
                print(p.render())
        return 0
    if op == "signed-sum":
        m, k, s, t, _ = field_values(bag, ShiftedQuotientParams)
        n = bag.require_int("n")
        bag.finish()
        terms = signed_sum_terms(m, k, s, t, n)
        total = sum(term.signed for term in terms)
        if args.format == "json":
            emit_json(
                {
                    "n": n,
                    "terms": [[term.j, term.argument, str(term.signed)] for term in terms],
                    "total": str(total),
                }
            )
        elif args.format == "csv":
            emit_csv(
                ["j", "argument", "count", "signed"],
                [[term.j, term.argument, str(term.count), str(term.signed)] for term in terms],
            )
        elif args.show_terms:
            print("j argument signed")
            for term in terms:
                print(f"{term.j} {term.argument} {term.signed}")
            print(f"total {total}")
        else:
            print(total)
        return 0 if total == 0 else 1
    if op == "parity":
        m, k, s, t, _ = field_values(bag, ShiftedQuotientParams)
        n = bag.require_int("n")
        bag.finish()
        params = ShiftedQuotientParams(m, k, s, t, "minus")
        spec = parity_spec(m, k, s, t)
        even, odd = count_restricted_by_parity(spec, n)
        in_class = zero_class(params).contains(n)
        listed = enumerate_restricted(spec, n, cap=args.cap) if args.enumerate else []
        if args.format == "json":
            payload = {"n": n, "even": str(even), "odd": str(odd), "in_class": in_class}
            if args.enumerate:
                payload["partitions"] = {
                    "even": [p.render() for p in listed if p.num_parts % 2 == 0],
                    "odd": [p.render() for p in listed if p.num_parts % 2 == 1],
                }
            emit_json(payload)
        elif args.format == "csv":
            emit_csv(["n", "even", "odd", "in_class"], [[n, str(even), str(odd), in_class]])
        else:
            print(f"even {even}")
            print(f"odd {odd}")
            for p in listed:
                label = "even" if p.num_parts % 2 == 0 else "odd"
                print(f"{label}: {p.render()}")
        return 1 if in_class and even != odd else 0
    raise UsageError(f"unknown partitions operation {op!r}")


def cmd_identity(args) -> int:
    bag = TokenBag(args.tokens)
    which = args.which
    if which == "1psi1":
        p = BilateralSpecialization(
            bag.require_int("m"), bag.require_int("k"), bag.require_int("t"), bag.require_int("r")
        )
        order = resolve_order(bag, default=300)
        bag.finish()
        return render_check(verify_1psi1(p, order), args.format)
    if which == "jtp":
        modulus = bag.require_int("M")
        a = bag.require_int("a")
        order = resolve_order(bag, default=200)
        bag.finish()
        # factor by factor: expand_product would pair the symbols into
        # jtp_theta itself and compare the theta series with itself
        f1, f2, f3 = (expand_factor(f, order) for f in jtp_product_spec(modulus, a).numerator)
        check = compare_series(jtp_theta(modulus, a, order), f1 * f2 * f3)
        return render_check(check, args.format)
    if which == "lambert-cancel":
        p = BilateralSpecialization(
            bag.require_int("m"), bag.require_int("k"), bag.require_int("t"), bag.require_int("r")
        )
        s = bag.require_int("s")
        order = resolve_order(bag, default=300)
        bag.finish()
        return render_check(cancellation_check(p, s, order), args.format)
    raise UsageError(f"unknown identity {which!r}")


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvanish",
        description="Exact q-series expansion and vanishing-coefficient verification.",
        epilog=(
            "Factor mini-syntax: num=3,5:8 means (q^3,q^5;q^8)oo in the numerator; "
            "a leading '-' negates an argument; pre=-1:-2 is a prefactor -q^{-2}. "
            "Example: qvanish expand num=3,5:8 den=1,7:8 order=12"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **extra_flags):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--format", choices=("text", "json", "csv"), default="text", help="output format"
        )
        for flag, kwargs in extra_flags.items():
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(func=func)
        return cmd

    expand = add("expand", cmd_expand, "expand a product to a coefficient listing")
    expand.add_argument("tokens", nargs="*", help="num=OFFS:MOD den=OFFS:MOD pre=SIGN:EXP order=N")

    verify = add("verify", cmd_verify, "verify a vanishing theorem instance")
    verify.add_argument("tokens", nargs="*", help="family=ab|plus|minus|shifted|ag plus parameters")

    scan_cmd = add(
        "scan",
        cmd_scan,
        "verify a whole family over parameter ranges",
        **{"--jobs": {"type": int, "default": 1, "help": "parallel worker processes"}},
    )
    scan_cmd.add_argument("tokens", nargs="*", help="family=... k=LO..HI m=LO..HI order=N")

    parts = add(
        "partitions",
        cmd_partitions,
        "count, enumerate, or check partition identities",
        **{
            "--show-terms": {"action": "store_true", "help": "print one row per signed-sum term"},
            "--enumerate": {"action": "store_true", "help": "list the partitions behind a parity count"},
            "--cap": {"type": int, "default": ENUMERATION_CAP, "help": "enumeration size cap"},
        },
    )
    parts.add_argument("operation", choices=("count", "enumerate", "signed-sum", "parity"))
    parts.add_argument("tokens", nargs="*", help="modulus=30 rep=0,1,29 dist=2 n=149 or m= k= s= t= n=")

    ident = add("identity", cmd_identity, "check a series identity by double expansion")
    ident.add_argument("which", choices=("1psi1", "jtp", "lambert-cancel"))
    ident.add_argument("tokens", nargs="*", help="m= k= t= r= [s=] or M= a=, plus order=N")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidParams, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
