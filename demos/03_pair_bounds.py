"""From prospective pairs to actual prime pairs.

A prospective prime of level k below P_{k+1}^2 has no room for a factor,
so it is prime.  Combining that with the lineage counting formula gives
a guaranteed number of gap-g prime pairs inside (P_k, P_{k+1}^2) with
k = pi(sqrt(P_l#)) — a lower bound this script compares with what the
sieve actually finds, then tracks how fast the bound grows per level.

Run:  python3 demos/03_pair_bounds.py
"""

from polignac.census import find_root_pair
from polignac.primepairs import (
    bound_report,
    growth_ratio,
    verify_prospective_below_square,
)

print("least composite prospective prime at level k (always P_{k+1}^2):")
for k in (3, 4, 5, 6):
    r = verify_prospective_below_square(k)
    print(f"  k={k}: {r.least_composite}  holds={r.holds}")

# r is the least level holding a gap-g pair, the root of the bound.
roots = {g: next(r for r in range(2, 6) if find_root_pair(r, g))
         for g in (2, 4, 6, 8, 10, 12)}
print("\nobserved / lower bound, gap-g pairs in (P_k, P_{k+1}^2), root level r:")
heads = [f"g={g} r={r}" for g, r in roots.items()]
print("       " + "".join(f"{head:>14}" for head in heads))
for l in range(5, 9):
    # One sieve pass over the window serves the whole row.
    reps = [bound_report(r, l, g) for g, r in roots.items()]
    cells = [f"{rep.observed}/{float(rep.bound):.1f}" for rep in reps]
    print(f"  l={l}: " + "".join(f"{cell:>14}" for cell in cells))

print("\nper-level growth factor of the bound (exceeds 1 from l=9 on,")
print("so the guaranteed pair count diverges):")
for l in (8, 9, 10, 12, 15, 20):
    print(f"  l={l}: x{growth_ratio(l):.1f}")
