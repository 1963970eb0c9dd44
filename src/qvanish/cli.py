"""Command-line surface: expansion, verification, scans, partitions, identities.

COMMANDS is the one command table: expand, verify, scan, partitions
count|enumerate|signed-sum|parity and identity 1psi1|jtp|lambert-cancel.
Each leaf takes --format text|json|csv plus only its own flags (scan --jobs,
enumerate --cap, signed-sum --show-terms, parity --enumerate --cap), given
after the operation.  A leaf's handler cmd_<leaf> returns an Output holding
its result in every format, and main alone prints the format asked for; json
output is deterministic and serializes large coefficients as decimal strings.

Product factors use a mini-syntax mirroring the usual notation: "num=3,5:8"
stands for the numerator (q^3, q^5; q^8)oo, a leading "-" on an offset negates
that argument ("den=-1,-7:8" for (-q, -q^7; q^8)oo in the denominator), and
"pre=-1:-2" supplies a prefactor -q^{-2}.

Exit codes: 0 success or identity verified, 1 mathematical violation found,
2 usage or parameter error, 3 unexpected internal error (a crash, reported
in one line on stderr, never read as a violation).  A reader that closes
stdout early does not change the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from typing import NamedTuple

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

    def take(self, key: str) -> str | None:
        self._used.add(key)
        values = self._values.get(key)
        if values is None:
            return None
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
    if sign is None:
        sign = "minus" if family == "minus" else "plus"
    elif family not in ("shifted", "ag"):
        raise UsageError(f"sign= is only meaningful with family=shifted or family=ag, not {family}")
    return cls(*field_values(bag, cls, sign))


# -- subcommands -----------------------------------------------------------------


class Output(NamedTuple):
    """A command's result in every format; main prints the one asked for."""

    code: int
    json: dict
    header: list[str]
    rows: list[list]
    text: list[str]


CHECK_HEADER = ["ok", "exponent", "lhs", "rhs"]


def check_output(check) -> Output:
    if check.ok:
        return Output(0, {"ok": True}, CHECK_HEADER, [[True, "", "", ""]], ["pass"])
    e, lhs, rhs = check.exponent, str(check.lhs), str(check.rhs)
    return Output(
        1,
        {"ok": False, "exponent": e, "lhs": lhs, "rhs": rhs},
        CHECK_HEADER,
        [[False, e, lhs, rhs]],
        [f"fail at q^{e}: lhs={lhs} rhs={rhs}"],
    )


def cmd_expand(args) -> Output:
    bag = TokenBag(args.tokens)
    numerator = parse_factors(bag, "num")
    denominator = parse_factors(bag, "den")
    sign, exponent = parse_prefactor(bag)
    order = bag.take_int("order", DEFAULT_ORDER)
    bag.finish()
    series = expand_product(ProductSpec(sign, exponent, numerator, denominator), order)
    pairs = [[e, str(series[e])] for e in range(series.valuation, series.order)]
    return Output(
        0,
        {"valuation": series.valuation, "order": series.order, "coefficients": pairs},
        ["exponent", "coefficient"],
        pairs,
        [f"q^{e}: {c}" for e, c in pairs],
    )


def cmd_verify(args) -> Output:
    bag = TokenBag(args.tokens)
    params = parse_family(bag)
    order = bag.take_int("order", DEFAULT_ORDER)
    bag.finish()
    report = verify_vanishing(params, order)
    zero = report.zero_class
    return Output(
        0 if report.verified else 1,
        report.to_json_dict(),
        ["family", "r", "order", "zero_mod", "zero_res", "verified", "violations"],
        [[report.family, report.r, report.order, zero.modulus, zero.residue, report.verified,
          len(report.violations)]],
        [report.render_text()],
    )


def cmd_scan(args) -> Output:
    bag = TokenBag(args.tokens)
    family, cls = take_family(bag, FAMILIES)
    k_range = bag.take_range("k")
    if k_range is None:
        raise UsageError("missing required token k= (single value or LO..HI)")
    # a family without an m field leaves m= to bag.finish() to refuse
    has_m = any(f.name == "m" for f in fields(cls))
    m_range = bag.take_range("m", default=range(2, 3)) if has_m else ()
    order = bag.take_int("order", 500)
    bag.finish()
    result = scan(k_range, m_range, order, family, jobs=args.jobs)
    reports, skipped = result.reports, result.skipped
    violated = [report.render_text() for report in reports if not report.verified]

    def joined(params):
        return ";".join(f"{k}={v}" for k, v in params.items())

    return Output(
        1 if violated else 0,
        {
            "family": family,
            "order": order,
            "checked": len(reports),
            "verified": len(reports) - len(violated),
            "violated": len(violated),
            "skipped": [{"params": params, "reason": reason} for params, reason in skipped],
            "reports": [report.to_json_dict() for report in reports],
        },
        ["family", "params", "r", "zero_mod", "zero_res", "status", "detail"],
        [
            [report.family, joined(report.params), report.r, report.zero_class.modulus,
             report.zero_class.residue, "verified" if report.verified else "violated",
             len(report.violations)]
            for report in reports
        ]
        + [["", joined(params), "", "", "", "skipped", reason] for params, reason in skipped],
        [
            *violated,
            f"checked {len(reports)} tuples ({len(reports) - len(violated)} verified, "
            f"{len(violated)} violated, {len(skipped)} skipped)",
        ],
    )


def partition_tokens(args) -> tuple[RestrictedPartitionSpec, int]:
    """The spec and n of count and enumerate."""
    bag = TokenBag(args.tokens)
    modulus = bag.require_int("modulus")
    rep = parse_residues(bag, "rep")
    dist = parse_residues(bag, "dist")
    spec = RestrictedPartitionSpec(modulus, rep, dist, bag.take_int("max"))
    n = bag.require_int("n")
    bag.finish()
    return spec, n


def cmd_count(args) -> Output:
    spec, n = partition_tokens(args)
    count = str(count_restricted(spec, n))
    return Output(0, {"n": n, "count": count}, ["n", "count"], [[n, count]], [count])


def cmd_enumerate(args) -> Output:
    spec, n = partition_tokens(args)
    listed = [p.render() for p in enumerate_restricted(spec, n, cap=args.cap)]
    return Output(
        0,
        {"n": n, "count": len(listed), "partitions": listed},
        ["partition"],
        [[p] for p in listed],
        listed,
    )


def cmd_signed_sum(args) -> Output:
    bag = TokenBag(args.tokens)
    m, k, s, t, _ = field_values(bag, ShiftedQuotientParams)
    n = bag.require_int("n")
    bag.finish()
    terms = signed_sum_terms(m, k, s, t, n)
    total = sum(term.signed for term in terms)
    rows = [[term.j, term.argument, str(term.count), str(term.signed)] for term in terms]
    text = [str(total)]
    if args.show_terms:
        text = ["j argument signed", *(f"{j} {a} {signed}" for j, a, _, signed in rows),
                f"total {total}"]
    return Output(
        0 if total == 0 else 1,
        {"n": n, "terms": [[j, a, signed] for j, a, _, signed in rows], "total": str(total)},
        ["j", "argument", "count", "signed"],
        rows,
        text,
    )


def cmd_parity(args) -> Output:
    bag = TokenBag(args.tokens)
    m, k, s, t, _ = field_values(bag, ShiftedQuotientParams)
    n = bag.require_int("n")
    bag.finish()
    spec = parity_spec(m, k, s, t)
    even, odd = count_restricted_by_parity(spec, n)
    in_class = zero_class(ShiftedQuotientParams(m, k, s, t, "minus")).contains(n)
    payload = {"n": n, "even": str(even), "odd": str(odd), "in_class": in_class}
    text = [f"even {payload['even']}", f"odd {payload['odd']}"]
    if args.enumerate:
        labelled = [
            ("even" if p.num_parts % 2 == 0 else "odd", p.render())
            for p in enumerate_restricted(spec, n, cap=args.cap)
        ]
        payload["partitions"] = {
            side: [p for label, p in labelled if label == side] for side in ("even", "odd")
        }
        text += [f"{label}: {p}" for label, p in labelled]
    return Output(
        1 if in_class and even != odd else 0,
        payload,
        ["n", "even", "odd", "in_class"],
        [[n, payload["even"], payload["odd"], in_class]],
        text,
    )


def cmd_1psi1(args) -> Output:
    bag = TokenBag(args.tokens)
    p = BilateralSpecialization(*field_values(bag, BilateralSpecialization))
    order = bag.take_int("order", 300)
    bag.finish()
    return check_output(verify_1psi1(p, order))


def cmd_jtp(args) -> Output:
    bag = TokenBag(args.tokens)
    modulus = bag.require_int("M")
    a = bag.require_int("a")
    order = bag.take_int("order", 200)
    bag.finish()
    # factor by factor: expand_product would pair the symbols into
    # jtp_theta itself and compare the theta series with itself
    f1, f2, f3 = (expand_factor(f, order) for f in jtp_product_spec(modulus, a).numerator)
    return check_output(compare_series(jtp_theta(modulus, a, order), f1 * f2 * f3))


def cmd_lambert_cancel(args) -> Output:
    bag = TokenBag(args.tokens)
    p = BilateralSpecialization(*field_values(bag, BilateralSpecialization))
    s = bag.require_int("s")
    order = bag.take_int("order", 300)
    bag.finish()
    return check_output(cancellation_check(p, s, order))


# -- command table and entry point --------------------------------------------------

CAP = ("--cap", {"type": int, "default": ENUMERATION_CAP, "help": "enumeration size cap"})
PARTITION_TOKENS = "modulus=M rep=R,... dist=D,... max=P n=N"
SHIFTED_TOKENS = "m=M k=K s=S t=T n=N"
GROUPS = {
    "partitions": "count, enumerate, or check partition identities",
    "identity": "check a series identity by double expansion",
}

# (command path, help, token help, the leaf's own flags); a leaf's handler is
# cmd_<leaf name>, looked up whenever the parser is built
COMMANDS = [
    (("expand",), "expand a product to a coefficient listing",
     "num=OFFS:MOD den=OFFS:MOD pre=SIGN:EXP order=N", ()),
    (("verify",), "verify a vanishing theorem instance",
     "family=ab k=K r=R | family=plus|minus|shifted m=M k=K s=S t=T | family=ag m=M k=K "
     "s=S; sign=plus|minus with shifted or ag; order=N", ()),
    (("scan",), "verify a whole family over parameter ranges",
     "family=ab|plus|minus|ag k=LO..HI m=LO..HI order=N",
     [("--jobs", {"type": int, "default": 1, "help": "parallel worker processes"})]),
    (("partitions", "count"), "count restricted partitions of n", PARTITION_TOKENS, ()),
    (("partitions", "enumerate"), "list restricted partitions of n", PARTITION_TOKENS, [CAP]),
    (("partitions", "signed-sum"), "evaluate the signed partition sum", SHIFTED_TOKENS,
     [("--show-terms", {"action": "store_true", "help": "print one row per term"})]),
    (("partitions", "parity"), "split counts by the parity of the number of parts", SHIFTED_TOKENS,
     [("--enumerate", {"action": "store_true", "help": "list the partitions behind the counts"}),
      CAP]),
    (("identity", "1psi1"), "the 1psi1 sum against its product", "m=M k=K t=T r=R order=N", ()),
    (("identity", "jtp"), "the Jacobi triple product", "M=M a=A order=N", ()),
    (("identity", "lambert-cancel"), "the Lambert-series cancellation",
     "m=M k=K t=T r=R s=S order=N", ()),
]


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
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for path, help_text, tokens_help, flags in COMMANDS:
        group, name = path[:-1], path[-1]
        if group not in subparsers:
            parent = subparsers[()].add_parser(group[0], help=GROUPS[group[0]])
            subparsers[group] = parent.add_subparsers(dest="operation", required=True)
        cmd = subparsers[group].add_parser(name, help=help_text)
        cmd.add_argument(
            "--format", choices=("text", "json", "csv"), default="text", help="output format"
        )
        for flag, kwargs in flags:
            cmd.add_argument(flag, **kwargs)
        cmd.add_argument("tokens", nargs="*", help=tokens_help)
        cmd.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = args.func(args)
        try:
            if args.format == "json":
                print(json.dumps(out.json, sort_keys=True))
            elif args.format == "csv":
                writer = csv.writer(sys.stdout, lineterminator="\n")
                writer.writerow(out.header)
                writer.writerows(out.rows)
            else:
                sys.stdout.writelines(f"{line}\n" for line in out.text)
        except BrokenPipeError:
            # The reader closed stdout early (say, `| head`) after the result
            # was complete.  Point stdout at devnull so that the interpreter's
            # final flush does not raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return out.code
    except (UsageError, InvalidParams, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
