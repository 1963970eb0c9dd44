"""Restricted partition counting, enumeration, and the parity identities.

Partitions here are restricted to parts lying in prescribed residue classes
modulo a fixed modulus, with each class marked repeatable (parts may recur)
or distinct (each part value at most once).  Counts are the coefficients of
the generating product, expanded exactly: a repeatable residue res gives
1/(q^res; q^M) (residue 0: 1/(q^M; q^M)) and a distinct residue d gives
(-q^d; q^M), through products.expand_product: residues that pair as +-a
are divided out by the Jacobi triple product.  A part cap P leaves N =
(P - a) // M + 1 parts of a symbol, the finite quotient (x q^a; q^M)_inf /
(x q^{a+NM}; q^M)_inf.  Flipping every argument sign weights each part by
-1, which gives sum (even - odd) q^n and so the split by the parity of the
number of parts.

Two combinatorial consequences of the vanishing theorems live here:

* a signed sum over a quadratic progression of arguments,
      sum_j (-1)^j p_{m,k,r}(nk - rs - mk j(j+1)/2 - j(tk - r)) = 0,
  where p_{m,k,r} counts partitions into parts = 0, +-r (mod mk), and the
  sum runs over the finitely many j that keep the argument nonnegative; and
* the parity split: among partitions into repeatable parts = +-r and
  distinct parts = +-(r - tk) (mod mk), the counts with an even and an odd
  total number of parts agree on a whole residue class of n mod k.  Its
  product with each part weighted by -1 is the normalized ``minus``
  quotient, so vanishing.verify_vanishing checks that class.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import groupby

from .errors import Frozen, InvalidParams, TooLarge, at_least, replace
from .products import ProductSpec, _theta_window, expand_product, pochhammer
from .vanishing import ResidueClass, ShiftedQuotientParams, verify_vanishing

__all__ = [
    "RestrictedPartitionSpec",
    "ParityCountPair",
    "Partition",
    "SignedTerm",
    "ParityIdentityReport",
    "ENUMERATION_CAP",
    "count_restricted",
    "count_restricted_table",
    "count_restricted_by_parity",
    "signed_sum",
    "signed_sum_terms",
    "count_parity_split",
    "parity_spec",
    "enumerate_restricted",
    "verify_parity_identity",
]

ENUMERATION_CAP = 10**6


class RestrictedPartitionSpec(Frozen):
    """Which part sizes are allowed, by residue class mod `modulus`.

    Residue 0 means positive multiples of the modulus and is only meaningful
    for repeatable parts.  The repeatable and distinct sets must be disjoint
    so every allowed part size has an unambiguous rule.
    """

    __slots__ = ("modulus", "repeatable_residues", "distinct_residues", "max_part")

    def __init__(
        self,
        modulus: int,
        repeatable_residues: Iterable[int] = frozenset(),
        distinct_residues: Iterable[int] = frozenset(),
        max_part: int | None = None,
    ):
        repeatable, distinct = frozenset(repeatable_residues), frozenset(distinct_residues)
        at_least("modulus", modulus, 1)
        for res in repeatable | distinct:
            if not 0 <= res < modulus:
                raise InvalidParams(f"residue {res} outside [0, {modulus})")
        if repeatable & distinct:
            raise InvalidParams(
                f"residues {sorted(repeatable & distinct)} are both repeatable and distinct"
            )
        if 0 in distinct:
            raise InvalidParams("residue 0 is only allowed among repeatable residues")
        if max_part is not None:
            at_least("max_part", max_part, 1)
        super().__init__(modulus, repeatable, distinct, max_part)

    def parts_up_to(self, limit: int) -> tuple[list[int], list[int]]:
        """Allowed (repeatable, distinct) part sizes <= limit, each ascending."""
        if self.max_part is not None:
            limit = min(limit, self.max_part)
        out: list[list[int]] = []
        for residues in (self.repeatable_residues, self.distinct_residues):
            sizes: list[int] = []
            for res in residues:
                start = res if res else self.modulus
                sizes.extend(range(start, limit + 1, self.modulus))
            sizes.sort()
            out.append(sizes)
        return out[0], out[1]


ParityCountPair = namedtuple("ParityCountPair", ["even_count", "odd_count"])
ParityCountPair.__doc__ = "Partition counts split by parity of the total number of parts."


class Partition(Frozen):
    """A multiset of positive parts, canonically ascending.

    Rendered in multiplicity notation: "2+13+17^6+32" stands for the parts
    2, 13, 17 (six times), 32.  The empty partition renders as "0".
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(sorted(parts))
        if parts and parts[0] < 1:
            raise InvalidParams(f"parts must be positive, got {parts[0]}")
        super().__init__(parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def render(self) -> str:
        if not self.parts:
            return "0"
        runs = ((p, len(list(group))) for p, group in groupby(self.parts))
        return "+".join(str(p) if mult == 1 else f"{p}^{mult}" for p, mult in runs)

    def __str__(self) -> str:
        return self.render()


# -- counting ------------------------------------------------------------------


def _expand(spec: RestrictedPartitionSpec, n_max: int, sign: int) -> list[int]:
    """Coefficients up to q^n_max of the generating product, each part weighted by sign."""
    M, P = spec.modulus, spec.max_part
    num = pochhammer(sorted(spec.distinct_residues), M, -sign)
    den = pochhammer(sorted(res or M for res in spec.repeatable_residues), M, sign)
    if P is not None:
        # the parts a, a + M, ... <= P of (x q^a; q^M) make (x q^a; q^M)_N with
        # N = (P - a) // M + 1, and its tail (x q^{a+NM}; q^M) joins the other side
        def tail(f):
            return replace(f, offset=f.offset + ((P - f.offset) // M + 1) * M)

        num, den = ([f for f in fs if f.offset <= P] for fs in (num, den))
        num, den = num + [tail(f) for f in den], den + [tail(f) for f in num]
    return list(expand_product(ProductSpec(1, 0, num, den), n_max + 1).coeffs)


def count_restricted_table(spec: RestrictedPartitionSpec, n_max: int) -> list[int]:
    """Exact counts for every 0 <= n <= n_max, from one product expansion."""
    at_least("n_max", n_max, 0)
    return _expand(spec, n_max, 1)


def count_restricted(spec: RestrictedPartitionSpec, n: int) -> int:
    """Number of partitions of n obeying the spec."""
    at_least("n", n, 0)
    return count_restricted_table(spec, n)[n]


def _parity_pair(total: int, signed: int) -> ParityCountPair:
    """Even/odd counts from the total count and the signed count even - odd."""
    return ParityCountPair((total + signed) // 2, (total - signed) // 2)


def count_restricted_by_parity(spec: RestrictedPartitionSpec, n: int) -> ParityCountPair:
    """Counts of spec-partitions of n with evenly/oddly many parts."""
    at_least("n", n, 0)
    return _parity_pair(_expand(spec, n, 1)[n], _expand(spec, n, -1)[n])


# -- the signed-sum identity ------------------------------------------------------


class SignedTerm(Frozen):
    """One row of the signed sum: argument nk-rs-mkj(j+1)/2-j(tk-r) at index j."""

    __slots__ = ("j", "argument", "count", "signed")

    def __init__(self, j: int, argument: int, count: int, signed: int):
        super().__init__(j, argument, count, signed)


def _count_spec(m: int, k: int, r: int) -> RestrictedPartitionSpec:
    mk = m * k
    return RestrictedPartitionSpec(mk, {0, r % mk, (-r) % mk})


def signed_sum_terms(m: int, k: int, s: int, t: int, n: int) -> list[SignedTerm]:
    """All terms of the signed sum with nonnegative argument, by ascending j.

    The argument is target - E(j) for target = nk - rs and the theta exponent
    E(j) = mk j(j+1)/2 - (r - tk) j, so the admissible j are the theta window
    of E(j) <= target.
    """
    params = ShiftedQuotientParams(m, k, s, t)  # validates ranges and gcd
    r, mk = params.r, m * k
    target = n * k - r * s
    arguments = {j: target - e for j, e in _theta_window(mk, r - t * k, target + 1)}
    if not arguments:
        return []
    table = count_restricted_table(_count_spec(m, k, r), max(arguments.values()))
    return [
        SignedTerm(j, a, table[a], table[a] if j % 2 == 0 else -table[a])
        for j, a in arguments.items()
    ]


def signed_sum(m: int, k: int, s: int, t: int, n: int) -> int:
    """Value of the signed sum; zero for every valid parameter tuple."""
    return sum(term.signed for term in signed_sum_terms(m, k, s, t, n))


# -- the parity-split identity -----------------------------------------------------


def parity_spec(m: int, k: int, s: int, t: int) -> RestrictedPartitionSpec:
    """Repeatable parts = +-r and distinct parts = +-(r - tk) (mod mk), r = sm + t.

    These are the denominator and numerator offsets of the normalized ``minus`` quotient.
    """
    spec = ShiftedQuotientParams(m, k, s, t, "minus").spec()  # validates, needs odd k
    return RestrictedPartitionSpec(
        m * k, (f.offset for f in spec.denominator), (f.offset for f in spec.numerator)
    )


def count_parity_split(m: int, k: int, s: int, t: int, n: int) -> ParityCountPair:
    """Even/odd part-count split for the theorem's repeatable/distinct mix."""
    at_least("n", n, 0)
    return count_restricted_by_parity(parity_spec(m, k, s, t), n)


class ParityIdentityReport(Frozen):
    """Even-equals-odd check over one residue class of targets."""

    __slots__ = ("params", "residue_class", "n_max", "violations")

    def __init__(
        self,
        params: dict,
        residue_class: ResidueClass,
        n_max: int,
        violations: tuple[tuple[int, int, int], ...],  # (n, even, odd)
    ):
        super().__init__(params, residue_class, n_max, violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def verify_parity_identity(m: int, k: int, s: int, t: int, n_max: int) -> ParityIdentityReport:
    """Check even = odd at every class exponent up to n_max (inclusive).

    sum (even - odd) q^n is the normalized ``minus`` quotient, so the class
    (kn - rs for r > tk, kn - r(s+1) for r < tk) and its failures are
    verify_vanishing's at order n_max + 1.
    """
    at_least("n_max", n_max, 0)
    report = verify_vanishing(ShiftedQuotientParams(m, k, s, t, "minus"), n_max + 1)
    # the total count only splits a violation into (even, odd)
    total = _expand(parity_spec(m, k, s, t), n_max, 1) if report.violations else []
    return ParityIdentityReport(
        params={"m": m, "k": k, "s": s, "t": t},
        residue_class=report.zero_class,
        n_max=n_max,
        violations=tuple((e, *_parity_pair(total[e], c)) for e, c in report.violations),
    )


# -- enumeration --------------------------------------------------------------------


def enumerate_restricted(
    spec: RestrictedPartitionSpec, n: int, cap: int = ENUMERATION_CAP
) -> list[Partition]:
    """Every spec-partition of n, in ascending lexicographic part order.

    The count is computed first; if it exceeds the cap the enumeration is
    refused with TooLarge rather than silently truncated.
    """
    at_least("n", n, 0)
    at_least("cap", cap, 1)
    total = count_restricted(spec, n)
    if total > cap:
        raise TooLarge(f"{total} partitions of {n} exceed the cap of {cap}")
    rep, dist = spec.parts_up_to(n)
    sized = sorted([(p, True) for p in rep] + [(p, False) for p in dist])
    results: list[tuple[int, ...]] = []
    acc: list[int] = []

    def walk(idx: int, remaining: int) -> None:
        if remaining == 0:
            results.append(tuple(acc))
            return
        if idx == len(sized) or remaining < sized[idx][0]:
            return
        p, repeatable = sized[idx]
        walk(idx + 1, remaining)
        added = 0
        while remaining >= p and (repeatable or added < 1):
            acc.append(p)
            added += 1
            remaining -= p
            walk(idx + 1, remaining)
        del acc[len(acc) - added :]

    walk(0, n)
    assert len(results) == total
    return [Partition(parts) for parts in sorted(results)]
