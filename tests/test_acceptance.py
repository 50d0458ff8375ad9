"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see
them).  Expected values are frozen from closed forms or independent
brute force; tolerances are fixed here, not tuned."""

import itertools
import json
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from polignac.arith import nth_prime, primorial
from polignac.census import (
    derive_pairs,
    find_root_pair,
    gap_census,
    predicted_derived_count,
    subset_gap_spectrum,
    table1,
)
from polignac.codec import decode, encode
from polignac.primepairs import (
    actual_pair_count,
    consecutive_primes_as_prospective,
    find_pair_above,
    growth_ratio,
    k_for_level,
    theorem3_lower_bound,
    verify_prospective_below_square,
)
from polignac.wheel import enumerate_prospective, mhat, subset_of

FIXTURE = Path(__file__).parent / "data" / "table1.json"

PROSPECTIVE_COUNTS = {3: 8, 4: 48, 5: 480, 6: 5760, 7: 92160, 8: 1658880}
TWIN_COUNTS = {3: 3, 4: 15, 5: 135, 6: 1485, 7: 22275, 8: 378675}


class Timer:
    def __init__(self, limit):
        self.limit = limit
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"took {elapsed:.1f}s, limit {self.limit}s"
        return elapsed


def report(name, detail=""):
    print(f"PASS  {name}" + (f"  [{detail}]" if detail else ""))


@pytest.fixture(scope="module")
def window_censuses():
    """One full-window sweep per level: prospective count + gap histogram."""
    result = {}
    for k in range(2, 9):
        count = 0
        gaps = Counter()
        prev = None
        for n in enumerate_prospective(k):
            count += 1
            if prev is not None:
                gaps[n - prev] += 1
            prev = n
        result[k] = (count, gaps)
    return result


def test_criterion_1_prospective_counts(window_censuses):
    timer = Timer(60)
    assert window_censuses[2][0] == 2
    for k, expected in PROSPECTIVE_COUNTS.items():
        assert window_censuses[k][0] == expected
        assert expected == math.prod(nth_prime(i) - 1 for i in range(1, k + 1))
    elapsed = timer.check()
    report("criterion-1 prospective counts k=2..8", f"{elapsed:.1f}s")


def test_criterion_2_twin_equality(window_censuses):
    timer = Timer(90)
    for k, expected in TWIN_COUNTS.items():
        assert window_censuses[k][1][2] == expected
        assert expected == math.prod(nth_prime(i) - 2 for i in range(3, k + 1))
    elapsed = timer.check()
    report("criterion-2 twin-pair equality k=3..8", f"{elapsed:.1f}s")


def test_criterion_3_lineage_counts():
    timer = Timer(60)
    checked = 0
    for l, k in ((2, 4), (2, 5), (3, 5), (4, 6)):
        for g in (2, 4, 6, 8):
            root = find_root_pair(l, g)
            if root is None:
                continue
            lineage = derive_pairs(root, l, k)
            assert len(lineage.leaves) == predicted_derived_count(l, k, g)
            checked += 1
    assert checked >= 8
    elapsed = timer.check()
    report("criterion-3 lineage counts", f"{checked} cases, {elapsed:.1f}s")


def test_criterion_4_table1_byte_exact():
    computed = json.dumps(table1().to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert computed.encode() == FIXTURE.read_bytes()
    table = table1()
    assert table.mhat_positions == (8, 0, 5)
    assert [m for m, v in enumerate(table.merged) if v == 14] == [0, 4, 7]
    report("criterion-4 table1 byte-exact vs fixture")


def test_criterion_5_subset_gap_spectra():
    for k in range(3, 9):
        p_k = nth_prime(k)
        spectrum = subset_gap_spectrum(k)
        assert sorted(spectrum) == [p_k - 1] * (p_k - 2) + [p_k + 1]
    report("criterion-5 subset-gap spectra k=3..8")


def test_criterion_6_per_subset_minima():
    for k, bound in ((5, 9), (6, 105)):
        assert (nth_prime(k - 1) - 4) * predicted_derived_count(2, k - 2, 2) == bound
        counts = Counter(subset_of(leaf.pair[0], k) for leaf in derive_pairs((5, 7), 2, k).leaves)
        assert len(counts) == nth_prime(k)
        assert min(counts.values()) >= bound
    report("criterion-6 per-subset minima S_5 >= 9, S_6 >= 105")


def test_criterion_7_growth_ratios():
    timer = Timer(1)
    for l, expected in ((9, 1.4), (10, 4.5), (15, 18.7)):
        assert growth_ratio(l) == pytest.approx(expected, abs=0.1)
    elapsed = timer.check()
    report("criterion-7 growth ratios 1.4/4.5/18.7", f"{elapsed:.2f}s")


def test_criterion_8_bound_vs_reality():
    # The bound presumes a gap-g pair at level r; level 2 only holds the
    # gap-2 pair (5, 7), so g = 4 and 6 anchor at r = 3, the least level
    # with such pairs.
    timer = Timer(10)
    checked = 0
    for l in (3, 4, 5):
        k = k_for_level(l)
        lo, hi = nth_prime(k), nth_prime(k + 1) ** 2
        for g, r in ((2, 2), (4, 3), (6, 3)):
            if r > l or find_root_pair(l, g) is None:
                continue
            bound = theorem3_lower_bound(r, l, g)
            observed = actual_pair_count(g, lo, hi)
            assert observed >= math.ceil(bound.exact), (l, g, observed, bound)
            checked += 1
    elapsed = timer.check()
    report("criterion-8 pair bound vs sieve", f"{checked} cases, {elapsed:.1f}s")


def test_criterion_9_primality_below_square():
    timer = Timer(60)
    for k in range(3, 9):
        result = verify_prospective_below_square(k)
        assert result.holds
        assert result.least_composite == nth_prime(k + 1) ** 2
    elapsed = timer.check()
    report("criterion-9 prospectives below square are prime", f"{elapsed:.1f}s")


def test_criterion_10_mhat_delta_constancy():
    from polignac.census import mhat_delta

    for k in range(4, 7):
        p_k = nth_prime(k)
        for g in range(2, 13, 2):
            expected = mhat_delta(k, g)
            for p, p2 in itertools.pairwise(enumerate_prospective(k - 1)):
                if p2 - p == g:
                    assert (mhat(p2, k).value - mhat(p, k).value) % p_k == expected
    report("criterion-10 delta-mhat constancy k=4..6, g<=12")


def test_criterion_11_codec_bijection():
    exhaustive = 0
    for n in range(5, 5 + primorial(5)):
        if math.gcd(n, 6) == 1:
            assert decode(encode(n, 5)) == n
            exhaustive += 1
    assert exhaustive == 770

    rng = random.Random(0xC0FFEE)
    hi = 4 + primorial(9)
    randomized = 0
    while randomized < 100_000:
        n = rng.randrange(1, (hi - 4) // 6) * 6 + rng.choice((5, 7))
        if n < 5 or n > hi:
            continue
        assert decode(encode(n, 9)) == n
        randomized += 1
    report("criterion-11 codec bijection", f"770 exhaustive + {randomized} random")


def test_criterion_12_section5_gap_coverage(window_censuses):
    gaps_needed = set()
    for k in range(3, 9):
        p_k = nth_prime(k)
        census_k = window_censuses[k][1]
        assert census_k[p_k - 1] > 0
        assert census_k[p_k + 1] > 0
        succ_gap = nth_prime(k + 1) - p_k
        assert window_censuses[k - 1][1][succ_gap] > 0
        gaps_needed |= {p_k - 1, p_k + 1, succ_gap}
    for g in sorted(gaps_needed):
        for m in (10**2, 10**3, 10**4):
            pair = find_pair_above(g, m, 10**6)
            assert pair is not None, (g, m)
            assert pair[0] > m and pair[1] - pair[0] == g
    report(
        "criterion-12 section-5 gap coverage",
        f"gaps {sorted(gaps_needed)}",
    )
