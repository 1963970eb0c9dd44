"""Exact q-series engine for vanishing coefficients in infinite products.

The package expands quotients of q-Pochhammer symbols as truncated Laurent
series over exact integers, verifies that coefficients vanish on predicted
arithmetic progressions, double-checks the bilateral-series identities
behind those predictions, and counts the restricted partitions the results
are equivalent to.

Each module's ``__all__`` is the one list of its public names; the package
re-exports all of them, so ``from qvanish import FAMILIES`` works as well as
``from qvanish.vanishing import FAMILIES``.
"""

from . import errors, partitions, products, series, vanishing
from .errors import *
from .partitions import *
from .products import *
from .series import *
from .vanishing import *

__all__ = sorted(
    {*errors.__all__, *partitions.__all__, *products.__all__, *series.__all__, *vanishing.__all__}
)
