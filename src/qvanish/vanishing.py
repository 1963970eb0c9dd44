"""One vanishing-coefficient theorem, its two classical embeddings, and verification.

The theorem (``ShiftedQuotientParams``, families ``plus`` and ``minus``): for
m, k > 1, 0 <= s < k, 1 <= t < m and r = sm + t coprime to k, the quotient
(q^{r-tk}, q^{mk-(r-tk)}; q^{mk}) / (q^r, q^{mk-r}; q^{mk}) has zero
coefficients on kn - rs; ``minus`` negates the denominator arguments and
needs odd k.  It is the one class that builds a quotient or a zero class.
The other two families are parameterizations of it, through ``shifted()``:

* ``AndrewsBressoudParams`` (k, r), coprime of opposite parity, is the tuple
  (2, k, (k-r-1)/2, 1): (q^r, q^{2k-r}; q^{2k}) / (q^{k-r}, q^{k+r}; q^{2k})
  with the classical zero class kn + r(k-r+1)/2.
* ``AlladiGordonParams`` (m, k, s), m < k, gcd(s, mk) = 1, is the tuple
  (m, k, s // m, s % m): (q^r, q^{mk-r}; q^{mk}) / (q^s, q^{mk-s}; q^{mk})
  with r = (k-1)s mod mk and the classical class rr' mod k, r' = ceil((k-1)s/mk).

Each class keeps its family's validation, ``r``, ``as_dict()`` (the reported
parameters, in field order) and ``grid()`` of candidates a scan visits.
``FAMILIES`` maps each scan family name to its class.

When r - tk < 0 the shifted quotient is normalized through
    (q^{-c}, q^{mk+c}; q^{mk}) = -q^{-c} (q^{mk-c}, q^c; q^{mk}),  c = tk - r,
(products._shifted_pair, shared with the 1psi1 closed form), so built
specs only ever carry positive offsets, with the sign and shift recorded in
the prefactor.  Verification and reported zero classes follow
the normalized (prefactor-stripped) expansion, whose exponents start at 0;
the normalization shifts the vanishing class from -rs to c - rs mod k.
The embedded families' ``spec()`` drops that prefactor, as their classical
quotients carry none; the numerator pair keeps the shifted order.

Every family quotient is one pair (x q^a, x q^{M-a}; q^M) over another, so
products.expand_product divides it out by the triple product: each pair is
a sparse theta series over (q^M; q^M), that factor cancels, and the
quotient is one sparse series divided by another.  The tests check this
against a plain linear expansion on every tuple of the sweep grids.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from math import gcd

from .errors import Frozen, InvalidParams, at_least
from .products import ProductSpec, _shifted_pair, expand_product, pochhammer

__all__ = [
    "AndrewsBressoudParams",
    "ShiftedQuotientParams",
    "AlladiGordonParams",
    "TheoremParams",
    "FAMILIES",
    "OBSERVED_CLASS_MIN_SAMPLES",
    "ResidueClass",
    "VanishingReport",
    "ScanResult",
    "build_spec",
    "zero_class",
    "verify_vanishing",
    "scan",
]

# Minimum checked exponents before a residue class may be labeled all-zero.
OBSERVED_CLASS_MIN_SAMPLES = 10


class ResidueClass(Frozen):
    """The set of integers congruent to residue mod modulus."""

    __slots__ = ("modulus", "residue")

    def __init__(self, modulus: int, residue: int):
        at_least("modulus", modulus, 1)
        super().__init__(modulus, residue % modulus)

    def contains(self, e: int) -> bool:
        return e % self.modulus == self.residue

    def __str__(self) -> str:
        return f"{self.modulus}n+{self.residue}" if self.residue else f"{self.modulus}n"


class ShiftedQuotientParams(Frozen):
    """(m, k, s, t) with derived r = sm + t coprime to k; sign plus or minus."""

    __slots__ = ("m", "k", "s", "t", "sign")

    def __init__(self, m: int, k: int, s: int, t: int, sign: str = "plus"):
        if m < 2 or k < 2:
            raise InvalidParams(f"need m, k > 1, got m={m}, k={k}")
        if not 0 <= s < k:
            raise InvalidParams(f"need 0 <= s < k, got s={s}, k={k}")
        if not 1 <= t < m:
            raise InvalidParams(f"need 1 <= t < m, got t={t}, m={m}")
        if sign not in ("plus", "minus"):
            raise InvalidParams(f"sign must be 'plus' or 'minus', got {sign!r}")
        r = s * m + t
        if gcd(r, k) != 1:
            raise InvalidParams(f"gcd(r, k) != 1 for r=sm+t={r}, k={k}")
        if sign == "minus" and k % 2 == 0:
            raise InvalidParams(f"the minus family requires odd k, got k={k}")
        super().__init__(m, k, s, t, sign)

    @property
    def r(self) -> int:
        return self.s * self.m + self.t

    @property
    def family(self) -> str:
        return self.sign

    def spec(self) -> ProductSpec:
        mk, r = self.m * self.k, self.r
        c, a = _shifted_pair(mk, self.t * self.k, r)
        den = pochhammer((r, mk - r), mk, 1 if self.sign == "plus" else -1)
        return ProductSpec(-1 if c else 1, -c, pochhammer((a, mk - a), mk), den)

    def zero_class(self) -> ResidueClass:
        # the -q^{-c} prefactor moves class -rs of the raw quotient to c - rs
        # on the normalized product
        c, _ = _shifted_pair(self.m * self.k, self.t * self.k, self.r)
        return ResidueClass(self.k, c - self.r * self.s)

    def as_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def grid(cls, ks: list[int], ms: list[int], family: str) -> Iterator[dict]:
        """Candidate (m, k, s, t) dicts in lexicographic order, sign = family."""
        for m in ms:
            for k in ks:
                for s in range(k):
                    for t in range(1, m):
                        yield {"m": m, "k": k, "s": s, "t": t, "sign": family}


class _Embedded(Frozen):
    """spec() and zero_class() of a family that is a shifted tuple in other terms."""

    __slots__ = ()

    def spec(self) -> ProductSpec:
        # the classical quotient has no prefactor: drop the -q^{-c} of the rewrite
        spec = self.shifted().spec()
        return ProductSpec(1, 0, spec.numerator, spec.denominator)

    def zero_class(self) -> ResidueClass:
        return self.shifted().zero_class()


class AndrewsBressoudParams(_Embedded):
    """(k, r) coprime of opposite parity, 1 <= r < k."""

    __slots__ = ("k", "r")
    family = "ab"

    def __init__(self, k: int, r: int):
        at_least("k", k, 2)
        if not 1 <= r < k:
            raise InvalidParams(f"need 1 <= r < k, got r={r}, k={k}")
        if gcd(r, k) != 1:
            raise InvalidParams(f"gcd(r, k) != 1 for r={r}, k={k}")
        if r % 2 == k % 2:
            raise InvalidParams(f"r and k must have opposite parity, got r={r}, k={k}")
        super().__init__(k, r)

    def shifted(self) -> ShiftedQuotientParams:
        # its r = 2s + 1 is k - r, odd since r and k have opposite parity
        return ShiftedQuotientParams(2, self.k, (self.k - self.r - 1) // 2, 1)

    def as_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def grid(cls, ks: list[int], ms: list[int], family: str) -> Iterator[dict]:
        """Candidate (k, r) dicts in lexicographic order; ms plays no part."""
        for k in ks:
            for r in range(1, k):
                yield {"k": k, "r": r}


class AlladiGordonParams(_Embedded):
    """(m, k, s) with 1 < m < k, gcd(s, km) = 1; r, r' derived, never stored."""

    __slots__ = ("m", "k", "s", "sign")
    family = "ag"

    def __init__(self, m: int, k: int, s: int, sign: str = "plus"):
        if not 1 < m < k:
            raise InvalidParams(f"need 1 < m < k, got m={m}, k={k}")
        if not 1 <= s < m * k:
            raise InvalidParams(f"need 1 <= s < mk, got s={s}, mk={m * k}")
        if gcd(s, k * m) != 1:
            raise InvalidParams(f"gcd(s, km) != 1 for s={s}, km={k * m}")
        if sign not in ("plus", "minus"):
            raise InvalidParams(f"sign must be 'plus' or 'minus', got {sign!r}")
        if sign == "minus" and k % 2 == 0:
            raise InvalidParams(f"the minus variant requires odd k, got k={k}")
        super().__init__(m, k, s, sign)

    @property
    def r_star(self) -> int:
        return (self.k - 1) * self.s

    @property
    def r(self) -> int:
        # mk never divides r* = (k-1)s: gcd(s, mk) = 1 would force mk | k-1 < mk.
        return self.r_star % (self.m * self.k)

    @property
    def r_prime(self) -> int:
        # ceil(r*/mk), already in [1, k-1] since k-1 <= r* <= (k-1)(mk-1)
        return -(-self.r_star // (self.m * self.k))

    def shifted(self) -> ShiftedQuotientParams:
        # its r = sm + t is s; gcd(s, m) = 1 keeps t = s % m >= 1
        return ShiftedQuotientParams(self.m, self.k, self.s // self.m, self.s % self.m, self.sign)

    def as_dict(self) -> dict:
        return {**self._asdict(), "r_star": self.r_star, "r_prime": self.r_prime}

    @classmethod
    def grid(cls, ks: list[int], ms: list[int], family: str) -> Iterator[dict]:
        """Candidate (m, k, s, sign) dicts in lexicographic order, both signs."""
        for m in ms:
            for k in ks:
                for s in range(1, m * k):
                    for sign in ("plus", "minus"):
                        yield {"m": m, "k": k, "s": s, "sign": sign}


TheoremParams = AndrewsBressoudParams | ShiftedQuotientParams | AlladiGordonParams


# scan family name -> parameter class
FAMILIES = {
    "ab": AndrewsBressoudParams,
    "plus": ShiftedQuotientParams,
    "minus": ShiftedQuotientParams,
    "ag": AlladiGordonParams,
}


def build_spec(params: TheoremParams) -> ProductSpec:
    """The Pochhammer quotient whose expansion the family constrains."""
    return params.spec()


def zero_class(params: TheoremParams) -> ResidueClass:
    """Predicted all-zero residue class of the normalized expansion."""
    return params.zero_class()


class VanishingReport(Frozen):
    """Outcome of checking one parameter tuple against its expansion.

    Exponents refer to the normalized expansion (build_spec with the
    prefactor stripped), which starts at q^0 and matches zero_class.
    """

    __slots__ = (
        "family", "params", "r", "spec", "order", "zero_class", "violations",
        "observed_zero_classes",
    )

    def __init__(
        self,
        family: str,
        params: dict,
        r: int,
        spec: ProductSpec,
        order: int,
        zero_class: ResidueClass,
        violations: tuple[tuple[int, int], ...],
        observed_zero_classes: tuple[ResidueClass, ...],
    ):
        super().__init__(
            family, params, r, spec, order, zero_class, violations, observed_zero_classes
        )

    @property
    def verified(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "r": self.r,
            "order": self.order,
            "zero_class": {"mod": self.zero_class.modulus, "res": self.zero_class.residue},
            "violations": [[e, str(c)] for e, c in self.violations],
            "observed_zero_classes": [
                {"mod": rc.modulus, "res": rc.residue} for rc in self.observed_zero_classes
            ],
        }

    def render_text(self) -> str:
        head = f"{self.family} {self.params} predicted class {self.zero_class} order {self.order}"
        if self.verified:
            observed = ", ".join(str(rc) for rc in self.observed_zero_classes) or "none"
            return f"{head}: verified (observed all-zero classes: {observed})"
        shown = ", ".join(f"q^{e} -> {c}" for e, c in self.violations[:3])
        return f"{head}: VIOLATED at {len(self.violations)} exponents (smallest: {shown})"


def verify_vanishing(params: TheoremParams, order: int) -> VanishingReport:
    """Expand the family's quotient and check the predicted class exhaustively.

    The normalized quotient is expanded by products.expand_product, through
    its theta pairs; the tests check that against a plain linear expansion.
    Every known exponent in the predicted class is checked; any nonzero
    coefficient there is recorded as a violation.
    Residue classes mod k in which every checked coefficient is zero are
    reported as observed, but only when at least OBSERVED_CLASS_MIN_SAMPLES
    exponents were seen.
    """
    at_least("order", order, 1)
    spec = build_spec(params)
    cls = zero_class(params)
    normalized = ProductSpec(1, 0, spec.numerator, spec.denominator)
    series = expand_product(normalized, order)
    # the normalized expansion starts at q^0, so coeffs[e] is the coefficient of q^e
    coeffs, k = series.coeffs, cls.modulus
    violations = [(e, coeffs[e]) for e in range(cls.residue, order, k) if coeffs[e]]
    observed = tuple(
        ResidueClass(k, res)
        for res in range(k)
        if len(coeffs[res::k]) >= OBSERVED_CLASS_MIN_SAMPLES and not any(coeffs[res::k])
    )
    return VanishingReport(
        family=params.family,
        params=params.as_dict(),
        r=params.r,
        spec=spec,
        order=order,
        zero_class=cls,
        violations=tuple(violations),
        observed_zero_classes=observed,
    )


class ScanResult(Frozen):
    """Reports for every valid tuple in a grid, plus the skipped combinations."""

    __slots__ = ("reports", "skipped")

    def __init__(self, reports: tuple[VanishingReport, ...], skipped: tuple[tuple[dict, str], ...]):
        super().__init__(reports, skipped)

    def __iter__(self) -> Iterator[VanishingReport]:
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)


def _verify_tuple(job: tuple[TheoremParams, int]) -> VanishingReport:
    params, order = job
    return verify_vanishing(params, order)


def scan(
    k_range: Iterable[int],
    m_range: Iterable[int],
    order: int,
    family: str,
    jobs: int = 1,
) -> ScanResult:
    """Verify every valid tuple of the family over the given ranges.

    Tuples violating the family's invariants are skipped and returned with
    the reason.  Output order is deterministic (lexicographic in the
    parameters).  jobs > 1 fans the expansions out over processes, at most
    one per CPU.
    """
    at_least("order", order, 1)
    at_least("jobs", jobs, 1)
    jobs = min(jobs, os.cpu_count() or 1)
    family = family.lower()
    cls = FAMILIES.get(family)
    if cls is None:
        raise InvalidParams(f"unknown family {family!r} (expected {', '.join(FAMILIES)})")
    valid: list[TheoremParams] = []
    skipped: list[tuple[dict, str]] = []
    for candidate in cls.grid(sorted(set(k_range)), sorted(set(m_range)), family):
        try:
            valid.append(cls(**candidate))
        except InvalidParams as ex:
            skipped.append((candidate, str(ex)))
    if jobs > 1 and len(valid) > 1:
        # imported here, not at the top: concurrent.futures would add about
        # 2.7 MB of resident memory to every import of the package
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = tuple(pool.map(_verify_tuple, [(p, order) for p in valid], chunksize=4))
    else:
        reports = tuple(verify_vanishing(p, order) for p in valid)
    return ScanResult(reports=reports, skipped=tuple(skipped))
