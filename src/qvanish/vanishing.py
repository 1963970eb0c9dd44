"""Theorem families asserting vanishing coefficient classes, plus verification.

Three parameter classes cover the four family names ``ab``, ``plus``,
``minus`` and ``ag``; each quotient comes with a predicted arithmetic
progression of exponents whose coefficients all vanish:

* ``AndrewsBressoudParams``: (q^r, q^{2k-r}; q^{2k}) / (q^{k-r}, q^{k+r}; q^{2k}),
  zero class kn + r(k-r+1)/2, for coprime r < k of opposite parity.
* ``ShiftedQuotientParams``: (q^{r-tk}, q^{mk-(r-tk)}; q^{mk}) over
  (q^r, q^{mk-r}; q^{mk}) with r = sm + t, where the numerator offsets are
  the denominator's shifted by tk.  The ``minus`` variant negates the
  denominator arguments and needs odd k.  Zero class kn - rs.
* ``AlladiGordonParams``: (q^r, q^{mk-r}; q^{mk}) / (q^s, q^{mk-s}; q^{mk})
  for m < k, with r, r' derived from s; zero class n = rr' mod k.  The
  ``minus`` variant negates the denominator arguments and needs odd k.

Each class is the one home of its family's rules: validation, ``spec()``
(the quotient), ``zero_class()``, ``as_dict()`` (the reported parameters, in
field order) and the ``grid()`` of candidates a scan visits.  ``FAMILIES``
maps each scan family name to its class.

When r - tk < 0 the shifted quotient is normalized through
    (q^{-c}, q^{mk+c}; q^{mk}) = -q^{-c} (q^{mk-c}, q^c; q^{mk}),  c = tk - r,
so built specs only ever carry positive offsets, with the sign and shift
recorded in the prefactor.  Verification and reported zero classes follow
the normalized (prefactor-stripped) expansion, whose exponents start at 0;
the normalization shifts the vanishing class from -rs to tk - r - rs mod k.

Every family quotient is one pair (x q^a, x q^{M-a}; q^M) over another, so
products.expand_product divides it out by the triple product: each pair is
a sparse theta series over (q^M; q^M), that factor cancels, and the
quotient is one sparse series divided by another.  The tests check this
against a plain linear expansion on every tuple of the sweep grids.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from math import gcd
from typing import Iterable, Iterator, Union

from .errors import Degenerate, InvalidParams
from .products import ProductSpec, expand_product, pochhammer

__all__ = [
    "AndrewsBressoudParams",
    "ShiftedQuotientParams",
    "AlladiGordonParams",
    "TheoremParams",
    "FAMILIES",
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


@dataclass(frozen=True, slots=True)
class ResidueClass:
    """The set of integers congruent to residue mod modulus."""

    modulus: int
    residue: int

    def __post_init__(self):
        if self.modulus < 1:
            raise InvalidParams(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def contains(self, e: int) -> bool:
        return e % self.modulus == self.residue

    def __str__(self) -> str:
        return f"{self.modulus}n+{self.residue}" if self.residue else f"{self.modulus}n"


@dataclass(frozen=True, slots=True)
class AndrewsBressoudParams:
    """(k, r) coprime of opposite parity, 1 <= r < k."""

    k: int
    r: int
    family = "ab"

    def __post_init__(self):
        if self.k < 2:
            raise InvalidParams(f"k must be >= 2, got {self.k}")
        if not 1 <= self.r < self.k:
            raise InvalidParams(f"need 1 <= r < k, got r={self.r}, k={self.k}")
        if gcd(self.r, self.k) != 1:
            raise InvalidParams(f"gcd(r, k) != 1 for r={self.r}, k={self.k}")
        if self.r % 2 == self.k % 2:
            raise InvalidParams(f"r and k must have opposite parity, got r={self.r}, k={self.k}")

    def spec(self) -> ProductSpec:
        k, r = self.k, self.r
        return ProductSpec(
            1, 0, pochhammer((r, 2 * k - r), 2 * k), pochhammer((k - r, k + r), 2 * k)
        )

    def zero_class(self) -> ResidueClass:
        # r(k-r+1) is even: opposite parity makes k-r+1 even when r is odd,
        # and r even covers the rest.
        return ResidueClass(self.k, (self.r * (self.k - self.r + 1)) // 2)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def grid(cls, ks: list[int], ms: list[int], family: str) -> Iterator[dict]:
        """Candidate (k, r) dicts in lexicographic order; ms plays no part."""
        for k in ks:
            for r in range(1, k):
                yield {"k": k, "r": r}


@dataclass(frozen=True, slots=True)
class ShiftedQuotientParams:
    """(m, k, s, t) with derived r = sm + t coprime to k; sign plus or minus."""

    m: int
    k: int
    s: int
    t: int
    sign: str = "plus"

    def __post_init__(self):
        if self.m < 2 or self.k < 2:
            raise InvalidParams(f"need m, k > 1, got m={self.m}, k={self.k}")
        if not 0 <= self.s < self.k:
            raise InvalidParams(f"need 0 <= s < k, got s={self.s}, k={self.k}")
        if not 1 <= self.t < self.m:
            raise InvalidParams(f"need 1 <= t < m, got t={self.t}, m={self.m}")
        if self.sign not in ("plus", "minus"):
            raise InvalidParams(f"sign must be 'plus' or 'minus', got {self.sign!r}")
        if gcd(self.r, self.k) != 1:
            raise InvalidParams(f"gcd(r, k) != 1 for r=sm+t={self.r}, k={self.k}")
        if self.sign == "minus" and self.k % 2 == 0:
            raise InvalidParams(f"the minus family requires odd k, got k={self.k}")

    @property
    def r(self) -> int:
        return self.s * self.m + self.t

    @property
    def family(self) -> str:
        return self.sign

    def _normalization(self) -> tuple[int, int]:
        """(c, a): the prefactor -q^{-c} of the rewrite (c = 0 when r > tk)
        and the numerator offset a of (q^a, q^{mk-a}; q^{mk})."""
        c = self.t * self.k - self.r
        if c == 0:
            # Unreachable for validated params: r = tk forces k | r, against gcd(r,k)=1.
            raise Degenerate(f"r = tk = {self.r}: the quotient is identically zero")
        if c < 0:
            return 0, -c
        return c, self.m * self.k - c

    def spec(self) -> ProductSpec:
        mk, r = self.m * self.k, self.r
        c, a = self._normalization()
        den = pochhammer((r, mk - r), mk, 1 if self.sign == "plus" else -1)
        return ProductSpec(-1 if c else 1, -c, pochhammer((a, mk - a), mk), den)

    def zero_class(self) -> ResidueClass:
        # the -q^{-c} prefactor moves class -rs of the raw quotient to c - rs
        # on the normalized product
        c, _ = self._normalization()
        return ResidueClass(self.k, c - self.r * self.s)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def grid(cls, ks: list[int], ms: list[int], family: str) -> Iterator[dict]:
        """Candidate (m, k, s, t) dicts in lexicographic order, sign = family."""
        for m in ms:
            for k in ks:
                for s in range(k):
                    for t in range(1, m):
                        yield {"m": m, "k": k, "s": s, "t": t, "sign": family}


@dataclass(frozen=True, slots=True)
class AlladiGordonParams:
    """(m, k, s) with 1 < m < k, gcd(s, km) = 1; r, r' derived, never stored."""

    m: int
    k: int
    s: int
    sign: str = "plus"
    family = "ag"

    def __post_init__(self):
        if not 1 < self.m < self.k:
            raise InvalidParams(f"need 1 < m < k, got m={self.m}, k={self.k}")
        if not 1 <= self.s < self.m * self.k:
            raise InvalidParams(f"need 1 <= s < mk, got s={self.s}, mk={self.m * self.k}")
        if gcd(self.s, self.k * self.m) != 1:
            raise InvalidParams(f"gcd(s, km) != 1 for s={self.s}, km={self.k * self.m}")
        if self.sign not in ("plus", "minus"):
            raise InvalidParams(f"sign must be 'plus' or 'minus', got {self.sign!r}")
        if self.sign == "minus" and self.k % 2 == 0:
            raise InvalidParams(f"the minus variant requires odd k, got k={self.k}")
        self.r_prime  # force the range guard

    @property
    def r_star(self) -> int:
        return (self.k - 1) * self.s

    @property
    def r(self) -> int:
        # mk never divides r* = (k-1)s: gcd(s, mk) = 1 would force mk | k-1 < mk.
        return self.r_star % (self.m * self.k)

    @property
    def r_prime(self) -> int:
        # ceil(r*/mk) lies in [1, k-1] already: k-1 <= r* <= (k-1)(mk-1), so the
        # mod-k reduction cannot produce 0; the guard stays per contract.
        mk = self.m * self.k
        rp = -(-self.r_star // mk) % self.k
        if not 1 <= rp < self.k:
            raise InvalidParams(
                f"derived r' = {rp} falls outside [1, k) for (m,k,s)=({self.m},{self.k},{self.s})"
            )
        return rp

    def spec(self) -> ProductSpec:
        mk, r, s = self.m * self.k, self.r, self.s
        den_sign = 1 if self.sign == "plus" else -1
        return ProductSpec(
            1, 0, pochhammer((r, mk - r), mk), pochhammer((s, mk - s), mk, den_sign)
        )

    def zero_class(self) -> ResidueClass:
        return ResidueClass(self.k, self.r * self.r_prime)

    def as_dict(self) -> dict:
        return {**asdict(self), "r_star": self.r_star, "r_prime": self.r_prime}

    @classmethod
    def grid(cls, ks: list[int], ms: list[int], family: str) -> Iterator[dict]:
        """Candidate (m, k, s, sign) dicts in lexicographic order, both signs."""
        for m in ms:
            for k in ks:
                for s in range(1, m * k):
                    for sign in ("plus", "minus"):
                        yield {"m": m, "k": k, "s": s, "sign": sign}


TheoremParams = Union[AndrewsBressoudParams, ShiftedQuotientParams, AlladiGordonParams]


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


@dataclass(frozen=True, slots=True)
class VanishingReport:
    """Outcome of checking one parameter tuple against its expansion.

    Exponents refer to the normalized expansion (build_spec with the
    prefactor stripped), which starts at q^0 and matches zero_class.
    """

    family: str
    params: dict
    r: int
    spec: ProductSpec
    order: int
    zero_class: ResidueClass
    violations: tuple[tuple[int, int], ...]
    observed_zero_classes: tuple[ResidueClass, ...]

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
    if order < 1:
        raise InvalidParams(f"order must be >= 1, got {order}")
    spec = build_spec(params)
    cls = zero_class(params)
    normalized = ProductSpec(1, 0, spec.numerator, spec.denominator)
    series = expand_product(normalized, order)
    k = cls.modulus
    violations = []
    nonzero_seen = [0] * k
    samples = [0] * k
    for e, c in series.items():
        res = e % k
        samples[res] += 1
        if c:
            nonzero_seen[res] = 1
            if res == cls.residue:
                violations.append((e, c))
    observed = tuple(
        ResidueClass(k, res)
        for res in range(k)
        if not nonzero_seen[res] and samples[res] >= OBSERVED_CLASS_MIN_SAMPLES
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


@dataclass(frozen=True, slots=True)
class ScanResult:
    """Reports for every valid tuple in a grid, plus the skipped combinations."""

    reports: tuple[VanishingReport, ...]
    skipped: tuple[tuple[dict, str], ...]

    def __iter__(self) -> Iterator[VanishingReport]:
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    @property
    def all_verified(self) -> bool:
        return all(rep.verified for rep in self.reports)


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
    if order < 1:
        raise InvalidParams(f"order must be >= 1, got {order}")
    if jobs < 1:
        raise InvalidParams(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    family = family.lower()
    cls = FAMILIES.get(family)
    if cls is None:
        raise InvalidParams(f"unknown family {family!r}; expected ab, plus, minus, or ag")
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
