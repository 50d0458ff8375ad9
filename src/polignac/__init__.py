"""Primorial-wheel prospective primes: enumeration, mixed-radix coding,
gap censuses and lineages, and prime-pair lower bounds."""

from .arith import is_prime, mod_inverse, nth_prime, prime_count_pi, primorial
from .census import (
    GapCensus,
    PairLineage,
    PropagationCase,
    classify_propagation,
    derive_pairs,
    distribution_ratio,
    find_root_pair,
    gap_census,
    mhat_delta,
    predicted_derived_count,
    subset_gap_spectrum,
    table1,
)
from .codec import CoeffVector, decode, encode
from .primepairs import (
    BoundReport,
    actual_pair_count,
    bound_report,
    consecutive_primes_as_prospective,
    find_pair_above,
    growth_ratio,
    k_for_level,
    theorem3_lower_bound,
    verify_prospective_below_square,
)
from .wheel import (
    DisallowedIndex,
    enumerate_prospective,
    is_consecutive,
    is_prospective,
    mhat,
    next_prospective,
    propagate,
    subset_bounds,
    subset_extremes,
    subset_of,
    window_bounds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
