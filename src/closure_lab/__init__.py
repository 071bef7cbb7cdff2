"""Finite commutative ring lab.

Builds small commutative rings from a one-line spec grammar, decides
power-closure properties of their ideals ((m,n)-closed, weakly
(m,n)-closed, weakly prime/radical, n-absorbing), computes
von Neumann regularity profiles, and exhaustively verifies a catalog of
theorems about these notions over configurable instance families.
"""

import gc

from . import closure, rings
from .closure import (
    AbsorbingBudgetError,
    ClosednessReport,
    DEFAULT_ABSORBING_BUDGET,
    STATUS_CLOSED,
    STATUS_NOT_WEAKLY,
    STATUS_WEAKLY_ONLY,
    classify,
    is_mn_closed,
    is_n_absorbing,
    is_weakly_mn_closed,
    is_weakly_prime,
    is_weakly_radical,
    unbreakable_zero_elements,
)
from .families import (
    InstanceFamily,
    default_family,
    load_family,
    make_family,
    parse_family_config,
    tiny_family,
)
from .ideals import (
    Ideal,
    IdealEnumeration,
    enumerate_ideals,
    ideal_from_elements,
    ideal_from_generators,
    image_ideal,
    intersect_ideals,
    is_prime_ideal,
    is_proper,
    krull_dim,
    product_ideal,
    quotient_ring,
    split_product_ideal,
)
from .regularity import (
    ConsistencyError,
    VnrProfile,
    all_proper_ideals_closed,
    all_proper_ideals_weakly_closed,
    is_mn_regular_ring,
    is_mn_vnr,
    is_strongly_pi_regular,
    regularity_record,
    vnr_grid,
    vnr_profile_element,
    vnr_profile_ring,
)
from .rings import (
    DEFAULT_ORDER_CAP,
    FiniteRing,
    ForeignElementError,
    OrderCapError,
    build_ring,
    characteristic,
    element_arithmetic,
    nilpotency_index,
    nilradical,
    power,
    units,
    zero_divisors,
)
from .specs import (
    CyclicZ,
    Idealization,
    Product,
    Quotient,
    RingSpec,
    SpecError,
    SpecSyntaxError,
    format_ring_spec,
    parse_ring_spec,
    parse_ring_with_ideal,
)
from .theorems import (
    CATALOG,
    THEOREM_IDS,
    SEARCH_PREDICATES,
    TheoremVerdict,
    extend_ideal_to_idealization,
    replay_counterexample,
    search_counterexamples,
    verify_many,
    verify_theorem,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty the three module-level caches, all keyed on values: built
    rings (by spec), factorizations and signature grids.  Every table of a
    ring or of one of its ideals lives on the ring (`rings.per_ring`), so
    it goes with the ring; the collector runs last, because a ring and its
    lattice refer to each other and `cli.run` turns automatic collection
    off."""
    for cache in (rings._build_cached, rings._factorize, closure._signature_grid):
        cache.cache_clear()
    gc.collect()
