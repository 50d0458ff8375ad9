"""Counting identities, checked against brute force.

The level-k window holds exactly prod (P_i - 1) prospective primes, the
twin census equals prod_{i>=3} (P_i - 2), and a gap-g root pair at level
l spawns exactly prod_{i=l+1..k} (P_i - 1 or P_i - 2) descendants at
level k.  This script recomputes each of those by enumeration; the twin
census of the full window at level k is one pass over the level-(k - 1)
window, so it reaches k = 10 at the default sieve budget.

Run:  python3 demos/02_census_identities.py
"""

import math

from polignac.arith import nth_prime
from polignac.census import (
    derive_pairs,
    find_root_pair,
    gap_census,
    predicted_derived_count,
    subset_gap_spectrum,
)
from polignac.wheel import enumerate_prospective

print("window population vs prod (P_i - 1):")
for k in range(2, 7):
    observed = sum(1 for _ in enumerate_prospective(k))
    predicted = math.prod(nth_prime(i) - 1 for i in range(1, k + 1))
    print(f"  k={k}: {observed:>5} enumerated, {predicted:>5} predicted")

print("\ntwin pairs vs prod (P_i - 2):")
for k in range(3, 11):
    observed = gap_census(k).entries.get(2, 0)
    predicted = math.prod(nth_prime(i) - 2 for i in range(3, k + 1))
    print(f"  k={k:>2}: {observed:>9} counted, {predicted:>9} predicted")

print("\nlineage of the least gap-g pair from level 2 up to level 5:")
for g in (2, 4, 6):
    root = find_root_pair(2, g) or find_root_pair(3, g)
    l = 2 if find_root_pair(2, g) else 3
    lineage = derive_pairs(root, l, 5)
    print(
        f"  g={g}: root {root} at level {l} -> "
        f"{len(lineage.leaves)} pairs at level 5 "
        f"(predicted {predicted_derived_count(l, 5, g)})"
    )

print("\nsubset boundary gaps at level k: P_k - 2 gaps of P_k - 1 and")
print("exactly one of P_k + 1:")
for k in (3, 4, 5):
    print(f"  k={k}: {subset_gap_spectrum(k)}")
