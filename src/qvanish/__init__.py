"""Exact q-series engine for vanishing coefficients in infinite products.

The package expands quotients of q-Pochhammer symbols as truncated Laurent
series over exact integers, verifies that coefficients vanish on predicted
arithmetic progressions, double-checks the bilateral-series identities
behind those predictions, and counts the restricted partitions the results
are equivalent to.
"""

from __future__ import annotations

from .errors import (
    Degenerate,
    InvalidParams,
    NotAUnit,
    OutOfRange,
    QvanishError,
    TooLarge,
)
from .partitions import (
    ENUMERATION_CAP,
    ParityCountPair,
    ParityIdentityReport,
    Partition,
    RestrictedPartitionSpec,
    SignedTerm,
    count_parity_split,
    count_restricted,
    count_restricted_by_parity,
    count_restricted_table,
    enumerate_restricted,
    parity_spec,
    signed_sum,
    signed_sum_terms,
    verify_parity_identity,
)
from .products import (
    BilateralSpecialization,
    IdentityCheck,
    PochhammerFactor,
    ProductSpec,
    bilateral_product_spec,
    cancellation_check,
    compare_series,
    expand_factor,
    expand_paired,
    expand_product,
    jtp_product_spec,
    jtp_theta,
    lambert_series,
    pochhammer,
    verify_1psi1,
)
from .series import LaurentSeries
from .vanishing import (
    OBSERVED_CLASS_MIN_SAMPLES,
    AlladiGordonParams,
    AndrewsBressoudParams,
    ResidueClass,
    ScanResult,
    ShiftedQuotientParams,
    VanishingReport,
    build_spec,
    scan,
    verify_vanishing,
    zero_class,
)

__all__ = [
    "AlladiGordonParams",
    "AndrewsBressoudParams",
    "BilateralSpecialization",
    "Degenerate",
    "ENUMERATION_CAP",
    "IdentityCheck",
    "InvalidParams",
    "LaurentSeries",
    "NotAUnit",
    "OBSERVED_CLASS_MIN_SAMPLES",
    "OutOfRange",
    "ParityCountPair",
    "ParityIdentityReport",
    "Partition",
    "PochhammerFactor",
    "ProductSpec",
    "QvanishError",
    "ResidueClass",
    "RestrictedPartitionSpec",
    "ScanResult",
    "ShiftedQuotientParams",
    "SignedTerm",
    "TooLarge",
    "VanishingReport",
    "bilateral_product_spec",
    "build_spec",
    "cancellation_check",
    "compare_series",
    "count_parity_split",
    "count_restricted",
    "count_restricted_by_parity",
    "count_restricted_table",
    "enumerate_restricted",
    "expand_factor",
    "expand_paired",
    "expand_product",
    "jtp_product_spec",
    "jtp_theta",
    "lambert_series",
    "parity_spec",
    "pochhammer",
    "scan",
    "signed_sum",
    "signed_sum_terms",
    "verify_1psi1",
    "verify_parity_identity",
    "verify_vanishing",
    "zero_class",
]
