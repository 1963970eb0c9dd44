"""The package's public names: each module's __all__ is the one list, and
``qvanish`` re-exports the union of them as the very same objects."""

from __future__ import annotations

import qvanish
from qvanish import errors, partitions, products, series, vanishing

MODULES = (errors, partitions, products, series, vanishing)

# names the package has exported all along; none may drop out
EARLIER_EXPORTS = """
    AlladiGordonParams AndrewsBressoudParams BilateralSpecialization Degenerate
    ENUMERATION_CAP IdentityCheck InvalidParams LaurentSeries NotAUnit
    OBSERVED_CLASS_MIN_SAMPLES OutOfRange ParityCountPair ParityIdentityReport
    Partition PochhammerFactor ProductSpec QvanishError ResidueClass
    RestrictedPartitionSpec ScanResult ShiftedQuotientParams SignedTerm TooLarge
    VanishingReport bilateral_product_spec build_spec cancellation_check
    compare_series count_parity_split count_restricted count_restricted_by_parity
    count_restricted_table enumerate_restricted expand_factor expand_product
    jtp_product_spec jtp_theta lambert_series parity_spec pochhammer scan
    signed_sum signed_sum_terms verify_1psi1 verify_parity_identity
    verify_vanishing zero_class
""".split()


def test_package_exports_the_union_of_the_module_lists():
    union = {name for module in MODULES for name in module.__all__}
    assert qvanish.__all__ == sorted(union)
    assert len(EARLIER_EXPORTS) == 47
    assert set(EARLIER_EXPORTS) <= union
    assert {"FAMILIES", "TheoremParams"} <= union


def test_each_export_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qvanish, name) is getattr(module, name), (module.__name__, name)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from qvanish import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == qvanish.__all__
