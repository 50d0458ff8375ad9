"""Bounded verification sweep: every counting identity, spectrum shape,
and inequality the library promises, re-checked empirically up to a
maximum level.  Used by `polignac verify` and the test suite.  Two of
the checks are the paper's claims that nothing else computes: every
subset of the level-k window holds at least (P_{k-1} - 4) n(k - 2)
descendants of a root pair (``check_per_subset_minima``), and the sieve
finds k = pi(sqrt(P_l#)) (``check_bounds_vs_reality``).

Each ``check_*`` function takes the maximum level and returns None when
its check passes, or the failure's detail; ``run_all`` names each result
after its function, ``check_twin_counts`` giving ``twin-counts``."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .arith import map_segments, nth_prime, primorial
from .census import (
    derive_pairs,
    find_root_pair,
    gap_census,
    distribution_ratio,
    mhat_delta,
    predicted_derived_count,
    subset_gap_spectrum,
)
from .codec import decode, encode
from .primepairs import (
    bound_report,
    consecutive_primes_as_prospective,
    growth_ratio,
    k_for_level,
    verify_prospective_below_square,
)
from .wheel import enumerate_prospective, mhat, prospective_range, subset_of


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def check_prospective_counts(max_level: int) -> str | None:
    """|prospectives at level k| equals prod (P_i - 1)."""
    for k in range(2, min(max_level, 8) + 1):
        expected = math.prod(nth_prime(i) - 1 for i in range(1, k + 1))
        observed = sum(map_segments(*prospective_range(k), lambda start, offsets: len(offsets)))
        if observed != expected:
            return f"k={k}: {observed} != {expected}"
    return None


def check_twin_counts(max_level: int) -> str | None:
    """Twin census equals prod (P_i - 2), exactly."""
    for k in range(3, min(max_level, 8) + 1):
        expected = math.prod(nth_prime(i) - 2 for i in range(3, k + 1))
        observed = gap_census(k).entries.get(2, 0)
        if observed != expected:
            return f"k={k}: {observed} != {expected}"
    return None


def check_lineage_counts(max_level: int) -> str | None:
    """Exhaustive lineage sizes match the closed form."""
    for l in range(2, min(max_level, 6)):
        for k in range(l + 1, min(l + 3, max_level, 6) + 1):
            for g in (2, 4, 6, 8):
                root = find_root_pair(l, g)
                if root is None:
                    continue
                leaves = derive_pairs(root, l, k).leaves
                expected = predicted_derived_count(l, k, g)
                if len(leaves) != expected:
                    return f"l={l} k={k} g={g}: {len(leaves)} != {expected}"
    return None


def check_subset_gap_spectrum(max_level: int) -> str | None:
    """P_k - 2 boundary gaps of P_k - 1 and exactly one of P_k + 1."""
    for k in range(3, min(max_level, 8) + 1):
        p_k = nth_prime(k)
        spectrum = subset_gap_spectrum(k)
        if sorted(spectrum) != [p_k - 1] * (p_k - 2) + [p_k + 1]:
            return f"k={k}: {spectrum}"
    return None


def check_per_subset_minima(max_level: int) -> str | None:
    """Every subset of the level-k window holds at least
    (P_{k-1} - 4) * n(k - 2) descendants of the twin root (5, 7) of
    level 2, n(j) its descendant count at level j.  k stops at 7, a tree
    of 22 275 leaves, the widest the lineage cap of 2^15 leaves admits
    from (5, 7); its least subset holds 1 307 against the bound 1 215."""
    for k in range(5, min(max_level, 7) + 1):
        counts = [0] * nth_prime(k)
        for leaf in derive_pairs((5, 7), 2, k).leaves:
            counts[subset_of(leaf.pair[0], k)] += 1
        bound = (nth_prime(k - 1) - 4) * predicted_derived_count(2, k - 2, 2)
        if min(counts) < bound:
            return f"k={k}: {min(counts)} < {bound}"
    return None


def check_mhat_delta(max_level: int) -> str | None:
    """(mhat' - mhat) mod P_k identical across all gap-g pairs."""
    for k in range(4, min(max_level, 6) + 1):
        for g in range(2, 13, 2):
            expected = mhat_delta(k, g)
            for p, p2 in itertools.pairwise(enumerate_prospective(k - 1)):
                if p2 - p != g:
                    continue
                delta = (mhat(p2, k).value - mhat(p, k).value) % nth_prime(k)
                if delta != expected:
                    return f"k={k} g={g} pair=({p},{p2}): {delta} != {expected}"
    return None


def check_below_square(max_level: int) -> str | None:
    """Every prospective prime below P_{k+1}^2 is an actual prime and the
    least composite prospective is exactly the square."""
    for k in range(3, min(max_level, 8) + 1):
        report = verify_prospective_below_square(k)
        if not report.holds or report.least_composite != nth_prime(k + 1) ** 2:
            return f"k={k}: least={report.least_composite}"
    return None


def check_bounds_vs_reality(max_level: int) -> str | None:
    """Pair lower bounds hold against sieve counts where their premises
    do, and the sieve's k, the number of primes up to sqrt(P_l#), is
    pi(sqrt(P_l#)) by Lucy's recursion."""
    for l in range(3, min(max_level, 5) + 1):
        k = k_for_level(l)
        for g in (2, 4, 6):
            r = 2 if g == 2 else 3  # least level holding a gap-g pair, never above l
            report = bound_report(r, l, g)
            if not report.holds:
                return f"r={r} l={l} g={g}: {report.observed} < {report.bound}"
            if report.k != k:
                return f"l={l}: sieved k={report.k} != pi k={k}"
    return None


def check_consecutive_primes_prospective(max_level: int) -> str | None:
    """P_k, P_{k+1} adjacent in the level-(k-1) prospective stream."""
    for k in range(3, min(max_level, 8) + 1):
        if not consecutive_primes_as_prospective(k):
            return f"k={k}"
    return None


def check_ratio_monotonicity(max_level: int) -> str | None:
    """growth_ratio strictly increasing on 8..20; distribution_ratio
    below 1 on 4..20 and strictly increasing on 4..8 (it dips wherever
    the prime gap widens, so the monotone stretch is finite)."""
    growth = [growth_ratio(l) for l in range(8, 21)]
    if any(b <= a for a, b in zip(growth, growth[1:])):
        return "growth ratio not increasing"
    if any(distribution_ratio(k) >= 1 for k in range(4, 21)):
        return "distribution ratio >= 1"
    dist = [distribution_ratio(k) for k in range(4, 9)]
    if any(b <= a for a, b in zip(dist, dist[1:])):
        return "distribution ratio not increasing on 4..8"
    return None


def check_codec_roundtrip(max_level: int) -> str | None:
    """decode(encode(n)) == n for every coprime-to-6 window member."""
    k = min(max_level, 5)
    for n in range(5, 5 + primorial(k)):
        if math.gcd(n, 6) != 1:
            continue
        if decode(encode(n, k)) != n:
            return f"k={k} n={n}"
    return None


ALL_CHECKS: tuple[Callable[[int], str | None], ...] = (
    check_prospective_counts,
    check_twin_counts,
    check_lineage_counts,
    check_subset_gap_spectrum,
    check_per_subset_minima,
    check_mhat_delta,
    check_below_square,
    check_bounds_vs_reality,
    check_consecutive_primes_prospective,
    check_ratio_monotonicity,
    check_codec_roundtrip,
)


def run_all(max_level: int = 6) -> Iterator[CheckResult]:
    """Run every check up to max_level; below level 2 there is nothing
    to check, so that is refused before any check runs."""
    if max_level < 2:
        raise ValueError(f"max level must be >= 2, got {max_level}")
    for check in ALL_CHECKS:
        detail = check(max_level)
        name = check.__name__.removeprefix("check_").replace("_", "-")
        yield CheckResult(name, detail is None, detail or "")
