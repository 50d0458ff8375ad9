"""Bounded verification sweep: every counting identity, spectrum shape,
and inequality the library promises, re-checked empirically up to a
maximum level.  Used by `polignac verify` and the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .arith import nth_prime, primorial
from .census import (
    derive_pairs,
    consecutive_pairs,
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
    verify_prospective_below_square,
)
from .wheel import mhat, prospective_segments


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def check_prospective_counts(max_level: int) -> CheckResult:
    """|prospectives at level k| equals prod (P_i - 1)."""
    for k in range(2, min(max_level, 8) + 1):
        expected = math.prod(nth_prime(i) - 1 for i in range(1, k + 1))
        observed = sum(len(offsets) for _, offsets in prospective_segments(k))
        if observed != expected:
            return CheckResult(
                "prospective-counts", False, f"k={k}: {observed} != {expected}"
            )
    return CheckResult("prospective-counts", True)


def check_twin_counts(max_level: int) -> CheckResult:
    """Twin census equals prod (P_i - 2), exactly."""
    for k in range(3, min(max_level, 8) + 1):
        expected = math.prod(nth_prime(i) - 2 for i in range(3, k + 1))
        observed = gap_census(k).entries.get(2, 0)
        if observed != expected:
            return CheckResult(
                "twin-counts", False, f"k={k}: {observed} != {expected}"
            )
    return CheckResult("twin-counts", True)


def check_lineage_counts(max_level: int) -> CheckResult:
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
                    return CheckResult(
                        "lineage-counts",
                        False,
                        f"l={l} k={k} g={g}: {len(leaves)} != {expected}",
                    )
    return CheckResult("lineage-counts", True)


def check_subset_gap_spectrum(max_level: int) -> CheckResult:
    """P_k - 2 boundary gaps of P_k - 1 and exactly one of P_k + 1."""
    for k in range(3, min(max_level, 8) + 1):
        p_k = nth_prime(k)
        spectrum = subset_gap_spectrum(k)
        if sorted(spectrum) != [p_k - 1] * (p_k - 2) + [p_k + 1]:
            return CheckResult("subset-gap-spectrum", False, f"k={k}: {spectrum}")
    return CheckResult("subset-gap-spectrum", True)


def check_mhat_delta(max_level: int) -> CheckResult:
    """(mhat' - mhat) mod P_k identical across all gap-g pairs."""
    for k in range(4, min(max_level, 6) + 1):
        for g in range(2, 13, 2):
            expected = mhat_delta(k, g)
            for p, p2, gap in consecutive_pairs(k - 1):
                if gap != g:
                    continue
                delta = (mhat(p2, k).value - mhat(p, k).value) % nth_prime(k)
                if delta != expected:
                    return CheckResult(
                        "mhat-delta",
                        False,
                        f"k={k} g={g} pair=({p},{p2}): {delta} != {expected}",
                    )
    return CheckResult("mhat-delta", True)


def check_below_square(max_level: int) -> CheckResult:
    """Every prospective prime below P_{k+1}^2 is an actual prime and the
    least composite prospective is exactly the square."""
    for k in range(3, min(max_level, 8) + 1):
        report = verify_prospective_below_square(k)
        if not report.holds or report.least_composite != nth_prime(k + 1) ** 2:
            return CheckResult(
                "below-square", False, f"k={k}: least={report.least_composite}"
            )
    return CheckResult("below-square", True)


def check_bounds_vs_reality(max_level: int) -> CheckResult:
    """Pair lower bounds hold against sieve counts where their premises do."""
    for l in range(3, min(max_level, 5) + 1):
        for g in (2, 4, 6):
            r = 2 if g == 2 else 3  # least level holding a gap-g pair
            if r > l:
                continue
            report = bound_report(r, l, g)
            if not report.holds:
                return CheckResult(
                    "bounds-vs-reality",
                    False,
                    f"r={r} l={l} g={g}: {report.observed} < {report.bound}",
                )
    return CheckResult("bounds-vs-reality", True)


def check_consecutive_primes_prospective(max_level: int) -> CheckResult:
    """P_k, P_{k+1} adjacent in the level-(k-1) prospective stream."""
    for k in range(3, min(max_level, 8) + 1):
        if not consecutive_primes_as_prospective(k):
            return CheckResult("consecutive-primes-prospective", False, f"k={k}")
    return CheckResult("consecutive-primes-prospective", True)


def check_ratio_monotonicity(max_level: int) -> CheckResult:
    """growth_ratio strictly increasing on 8..20; distribution_ratio
    below 1 on 4..20 and strictly increasing on 4..8 (it dips wherever
    the prime gap widens, so the monotone stretch is finite)."""
    growth = [growth_ratio(l) for l in range(8, 21)]
    if any(b <= a for a, b in zip(growth, growth[1:])):
        return CheckResult("ratio-monotonicity", False, "growth ratio not increasing")
    if any(distribution_ratio(k) >= 1 for k in range(4, 21)):
        return CheckResult("ratio-monotonicity", False, "distribution ratio >= 1")
    dist = [distribution_ratio(k) for k in range(4, 9)]
    if any(b <= a for a, b in zip(dist, dist[1:])):
        return CheckResult(
            "ratio-monotonicity", False, "distribution ratio not increasing on 4..8"
        )
    return CheckResult("ratio-monotonicity", True)


def check_codec_roundtrip(max_level: int) -> CheckResult:
    """decode(encode(n)) == n for every coprime-to-6 window member."""
    k = min(max_level, 5)
    for n in range(5, 5 + primorial(k)):
        if math.gcd(n, 6) != 1:
            continue
        if decode(encode(n, k)) != n:
            return CheckResult("codec-roundtrip", False, f"k={k} n={n}")
    return CheckResult("codec-roundtrip", True)


ALL_CHECKS: tuple[Callable[[int], CheckResult], ...] = (
    check_prospective_counts,
    check_twin_counts,
    check_lineage_counts,
    check_subset_gap_spectrum,
    check_mhat_delta,
    check_below_square,
    check_bounds_vs_reality,
    check_consecutive_primes_prospective,
    check_ratio_monotonicity,
    check_codec_roundtrip,
)


def run_all(max_level: int = 6) -> Iterator[CheckResult]:
    for check in ALL_CHECKS:
        yield check(max_level)
