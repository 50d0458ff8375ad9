"""Segment-edge behaviour of the one sieve kernel.

The segment size, ``arith.SEGMENT_SIZE``, is shrunk to 64 values so
that small ranges cross many segment edges; every expected value comes
from the brute-force oracles in conftest, never from the code under
test."""

import bisect
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polignac import arith, wheel
from polignac.arith import nth_prime, prime_count_pi, primorial
from polignac.census import gap_census
from polignac.cli import main
from polignac.primepairs import actual_pair_count, find_pair_above
from conftest import oracle_primes, oracle_prospective

SEG = 64


@pytest.fixture
def small_segments(monkeypatch):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", SEG)


def oracle_census(k, lo=None, hi=None):
    members = oracle_prospective(k, lo, hi)
    return dict(Counter(b - a for a, b in zip(members, members[1:])))


def oracle_pairs(g, lo, hi):
    """Consecutive primes (q, q') in (lo, hi) with q' - q = g."""
    primes = [p for p in oracle_primes(max(hi, 2)) if lo < p < hi]
    return [(q, r) for q, r in zip(primes, primes[1:]) if r - q == g]


@pytest.mark.parametrize(
    "lo, hi",
    [
        (5, 5 + SEG - 1),  # exactly one segment
        (5, 5 + SEG),  # one value into the second segment
        (5 + SEG, 5 + 5 * SEG - 1),  # starts and ends on segment edges
        (101, 101 + 3 * SEG),
        (7, 12),  # narrower than a segment
        (2000, 2000),  # a single value
    ],
)
def test_gap_census_ranges_on_segment_edges(small_segments, lo, hi):
    assert gap_census(5, lo=lo, hi=hi).entries == oracle_census(5, lo, hi)


def test_gap_census_full_and_subsets(small_segments):
    assert gap_census(5).entries == oracle_census(5)
    width = primorial(4)
    for m in range(nth_prime(5)):
        lo, hi = 5 + m * width, 4 + (m + 1) * width
        assert gap_census(5, subset=m).entries == oracle_census(5, lo, hi)


def test_find_pair_above_straddles_segments(small_segments):
    # The search above 1543 strikes [1544, 1607] and then [1608, 1671]:
    # the first twin pair above 1543 is split by that edge.
    assert oracle_pairs(2, 1543, 2001)[0] == (1607, 1609)
    assert find_pair_above(2, 1543, 2000) == (1607, 1609)
    for g in (2, 4, 6, 8, 14):
        for m in range(100, 1700, 37):
            expected = oracle_pairs(g, m, 5001)
            want = expected[0] if expected else None
            assert find_pair_above(g, m, 5000) == want, (g, m)


def test_find_pair_above_below_root(small_segments):
    # M below sqrt(limit): the answer sits among the base primes.
    assert find_pair_above(2, 3, 10**4) == (5, 7)
    assert find_pair_above(4, 10, 10**4) == (13, 17)
    assert find_pair_above(6, 0, 10**3) == (23, 29)
    # sqrt(10^4) = 100: 97 is the last base prime, 101 opens the first
    # struck segment.
    assert find_pair_above(4, 90, 10**4) == (97, 101)


def test_find_pair_above_limit_not_above_m(small_segments):
    with pytest.raises(ValueError):
        find_pair_above(2, 100, 100)
    with pytest.raises(ValueError):
        find_pair_above(2, 100, 50)
    assert find_pair_above(2, 100, 102) is None  # 103 is past the limit


def test_actual_pair_count_across_segments(small_segments):
    for g in (2, 4, 6, 8):
        for lo, hi in (
            (0, 30), (47, 2809), (63, 3 * SEG + 1), (1000, 5000), (1542, 1700)
        ):
            assert actual_pair_count(g, lo, hi) == len(oracle_pairs(g, lo, hi))


def test_prime_count_pi_across_segments(small_segments):
    primes = oracle_primes(20000)
    for x in (0, 1, 2, 3, 4, SEG - 1, SEG, SEG + 1, 4095, 4096, 4097, 20000):
        assert prime_count_pi(x) == bisect.bisect_right(primes, x), x


# Prime segments strike odd integers only: 2 is emitted on its own,
# among the base primes from hi = 4 on and in the range pass below.
@pytest.mark.parametrize("segment", [16, 64])
@pytest.mark.parametrize(
    "lo", [0, 1, 2, 3, 4, 5, 10, 63, 64, 121, 1000, 1001]
)
def test_prime_segments_odd_only(monkeypatch, segment, lo):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    primes = oracle_primes(3000)
    for hi in (0, 1, 2, 3, 4, 5, 8, 9, 63, 64, 65, 120, 121, 1001, 1024, 2999, 3000):
        got = [int(p) for part in arith.prime_segments(lo, hi) for p in part]
        assert got == [p for p in primes if lo <= p <= hi], (lo, hi)


# A consumer may overwrite the arrays it is given (gap streams take
# their gaps in place): the base primes handed out first must not be
# the ones the later segments are struck with.
@pytest.mark.parametrize("segment", [16, 64])
def test_prime_segments_survive_consumer_writes(monkeypatch, segment):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    primes = oracle_primes(3000)
    for lo, hi in ((0, 3000), (2, 1000), (30, 2999), (54, 2916)):  # lo <= sqrt(hi)
        got = []
        for part in arith.prime_segments(lo, hi):
            got += part.tolist()
            part[:] = 0
        assert got == [p for p in primes if lo <= p <= hi], (lo, hi)


@st.composite
def segmented_values(draw):
    """(values, segments): increasing values, some past 2^63, cut at
    random into (start, int64 offsets) segments, empty and one-value
    segments included."""
    shift = draw(st.sampled_from([0, 1000, (1 << 63) - 40, (1 << 63) + 7]))
    rel = sorted(draw(st.sets(st.integers(0, 400), max_size=30)))
    cuts = sorted(draw(st.lists(st.integers(0, len(rel)), max_size=8)))
    segments = []
    for a, b in zip([0, *cuts], [*cuts, len(rel)]):
        part = rel[a:b]
        start = shift + (part[0] if part else 0) - draw(st.integers(0, 5))
        segments.append((start, np.array([shift + r - start for r in part], dtype=np.int64)))
    return [shift + r for r in rel], segments


@settings(max_examples=200, deadline=None)
@given(segmented_values())
def test_segment_gaps_match_diff(case):
    values, segments = case
    gaps, i = [], 0
    for base, chunk in arith.segment_gaps(segments):
        assert base == values[i]  # base is the value before chunk[0]
        gaps += chunk.tolist()
        i += len(chunk)
    rel = np.array(values, dtype=object) - (values[0] if values else 0)
    assert gaps == np.diff(rel.astype(np.int64)).tolist()


# A pass keeps one segment alive at a time: the driver, the gap stream
# and the consumer each drop a segment's array before the next one is
# struck.  Peaks are in segments of int64 (8 * SEGMENT_SIZE bytes).  A
# segment's mask takes 1/16 of one.  The level-8 census keeps the
# prod(1 - 1/p), p <= 19, ~ 0.17 of integers coprime to P_8#, and peaks
# near 0.24 with one segment alive, 0.41 with two; the pair count keeps
# the primes, ~ 0.06 near 10^7, and peaks near 0.15 with one, 0.22 with
# two.
@pytest.mark.parametrize(
    "call, bound",
    [
        (lambda: gap_census(8), 0.32),
        (lambda: actual_pair_count(2, 10**6, 10**7), 0.18),
    ],
    ids=["gap_census", "actual_pair_count"],
)
def test_one_segment_alive(monkeypatch, call, bound):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 2**18)
    call()  # fill the prime table outside the traced run
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 8 * arith.SEGMENT_SIZE


# Level 16 runs past 2^63 (P_16# ~ 3.3e19): values there no longer fit
# an int64, so segments must carry them as offsets from a Python int.
INT64_EDGE = 1 << 63
BIG_RANGES = [
    (INT64_EDGE - 500, INT64_EDGE + 500),  # straddles 2^63
    (INT64_EDGE + 1000, INT64_EDGE + 2000),  # wholly above it
]


@pytest.mark.parametrize("lo, hi", BIG_RANGES)
def test_prospective_past_int64(lo, hi):
    assert list(wheel.enumerate_prospective(16, lo, hi)) == (
        oracle_prospective(16, lo, hi)
    )
    assert gap_census(16, lo=lo, hi=hi).entries == oracle_census(16, lo, hi)


@pytest.mark.parametrize("lo, hi", BIG_RANGES)
def test_prospective_past_int64_across_segments(small_segments, lo, hi):
    assert list(wheel.enumerate_prospective(16, lo, hi)) == (
        oracle_prospective(16, lo, hi)
    )
    assert gap_census(16, lo=lo, hi=hi).entries == oracle_census(16, lo, hi)


def test_gen_past_int64(capsys):
    lo, hi = BIG_RANGES[0]
    assert main(["gen", "-k", "16", "--range", f"{lo}:{hi}"]) == 0
    assert capsys.readouterr().out.split() == [
        str(n) for n in oracle_prospective(16, lo, hi)
    ]


def test_prime_segments_refuse_past_int64():
    with pytest.raises(ValueError, match="int64"):
        next(arith.prime_segments(INT64_EDGE, INT64_EDGE + 10))


# The sieve budget is the only work limit: a level is never refused for
# being high, only a range for spanning more integers than the budget.
NARROW_RANGES = [
    (10, 10**9, 10**9 + 2000),
    (12, 10**12, 10**12 + 2000),
    (16, 10**18, 10**18 + 2000),
]


@pytest.mark.parametrize("k, lo, hi", NARROW_RANGES)
@pytest.mark.parametrize("segment", [SEG, None])
def test_narrow_range_at_high_level(monkeypatch, segment, k, lo, hi):
    if segment:
        monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    assert list(wheel.enumerate_prospective(k, lo, hi)) == oracle_prospective(k, lo, hi)
    assert gap_census(k, lo=lo, hi=hi).entries == oracle_census(k, lo, hi)


@pytest.mark.parametrize("budget", [SEG - 1, SEG, 3 * SEG + 5])
def test_gap_census_budget_is_exact(small_segments, budget):
    lo = 101
    assert gap_census(5, lo=lo, hi=lo + budget - 1, budget=budget).entries == (
        oracle_census(5, lo, lo + budget - 1)
    )
    with pytest.raises(ValueError, match="sieve budget"):
        gap_census(5, lo=lo, hi=lo + budget, budget=budget)


def test_prime_count_pi_budget_is_exact():
    # Lucy's recursion costs r * isqrt(r) units, r = isqrt(x): at
    # x = 10^4, 100 * 10 = 1000, and r stays 100 up to 101^2 - 1.
    primes = oracle_primes(101**2)
    for x in (10**4, 101**2 - 1):
        assert prime_count_pi(x, budget=1000) == bisect.bisect_right(primes, x)
        with pytest.raises(ValueError, match="sieve budget"):
            prime_count_pi(x, budget=999)
    assert prime_count_pi(101**2, budget=1010) == bisect.bisect_right(primes, 101**2)
    with pytest.raises(ValueError, match="sieve budget"):
        prime_count_pi(101**2, budget=1009)


def test_find_pair_above_refused_through_base_pass():
    # The range holds 100 integers, but its base primes run to 2^31.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="sieve budget"):
        find_pair_above(2, 2**62, 2**62 + 100)
    assert time.perf_counter() - start < 1.0
    # The base primes up to 10^4 sieve 9900 integers above 100.
    m = 10**8
    primes = [n for n in range(m + 1, m + 101) if all(n % d for d in range(2, 10**4 + 1))]
    twin = next((q, r) for q, r in zip(primes, primes[1:]) if r - q == 2)
    assert find_pair_above(2, m, m + 100, budget=9900) == twin
    with pytest.raises(ValueError, match="sieve budget"):
        find_pair_above(2, m, m + 100, budget=9899)
