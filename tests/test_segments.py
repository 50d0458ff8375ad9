"""Segment-edge behaviour of the one sieve kernel.

The segment size, ``arith.SEGMENT_SIZE``, is mostly shrunk to 64 values
so that small ranges cross many segment edges; the edges where segments
grow are checked at the real size too.  Every expected value comes from
the brute-force oracles in conftest, or trial division, never from the
code under test."""

import bisect
import functools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polignac import arith, primepairs, wheel
from polignac.arith import nth_prime, prime_count_pi, primorial
from polignac.census import find_root_pair, gap_census
from polignac.cli import main
from polignac.primepairs import (
    actual_pair_count, bound_report, find_pair_above, theorem3_lower_bound,
)
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
        got = [start + int(p) for start, part in arith.prime_segments(lo, hi) for p in part]
        assert got == [p for p in primes if lo <= p <= hi], (lo, hi)


# A consumer may overwrite the arrays it is given (gap streams take
# their gaps in place): the base primes handed out first must not be
# the ones the later segments are struck with, nor share their memory.
@pytest.mark.parametrize("segment", [16, 64, None])
def test_prime_segments_survive_consumer_writes(monkeypatch, segment):
    if segment:
        monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    primes = oracle_primes(3000)
    for lo, hi in ((0, 3000), (2, 1000), (30, 2999), (54, 2916)):  # lo <= sqrt(hi)
        got = []
        for start, part in arith.prime_segments(lo, hi):
            got += [start + p for p in part.tolist()]
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


# The same segments, read by the pair search through a source that hands
# back the part of each segment inside the range asked for: the first
# pair of every gap, and of a gap that never occurs, is the one np.diff
# finds.  A first window of 1 to 401 integers puts the search's second
# pass anywhere in the values.
@settings(max_examples=200, deadline=None)
@given(segmented_values(), st.integers(1, 401))
def test_segment_gaps_match_diff(case, window):
    values, segments = case

    def source(lo, hi, budget):
        for start, offsets in segments:
            kept = [o for o in offsets.tolist() if lo <= start + o <= hi]
            yield start, np.array(kept, dtype=np.int64)

    lo = values[0] - 50 if values else 0
    rel = np.array(values, dtype=object) - (values[0] if values else 0)
    gaps = np.diff(rel.astype(np.int64)).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "FIRST_SEGMENT", window)
        for g in {*gaps, 401}:
            want = (values[gaps.index(g)], values[gaps.index(g) + 1]) if g in gaps else None
            assert arith.first_pair_with_gap(source, lo, lo + 500, g, 501) == want, g


# A pass keeps one segment alive at a time: the driver's chunks in
# flight span one segment, and each is reduced and dropped before the
# next round is struck.  Peaks are in segments of int64 (8 * SEGMENT_SIZE bytes).  A
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
@pytest.mark.parametrize("workers", [1, 2], ids=lambda w: f"W{w}")
def test_one_segment_alive(monkeypatch, call, bound, workers):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 2**18)
    monkeypatch.setattr(arith, "_workers", lambda: workers)
    call()  # fill the prime table outside the traced run
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 8 * arith.SEGMENT_SIZE


# gen writes one chunk per segment, in every format, so its peak is a
# few segments however long its output is.  At SEGMENT_SIZE 2^14 the
# level-7 window is 32 segments, and each keeps ~ 0.18 of its integers,
# about 0.1 MiB of Python ints and strings; the output is 0.6 MiB of text
# or 1.2 MiB of json, which held whole peaks near 95 and 115 segments.
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_gen_streams_one_segment_at_a_time(monkeypatch, tmp_path, fmt):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 2**14)
    argv = ["gen", "-k", "7", "--format", fmt, "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # fill the prime table outside the traced run
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out").stat().st_size > 2**19
    assert peak < 5 * 8 * arith.SEGMENT_SIZE


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


# Refusal thresholds in closed form.  sieve_primes(L) strikes
# (isqrt(L), L], and the base passes below it span less.  prime_segments'
# range pass is [max(lo, isqrt(hi) + 1), hi], and its base pass is
# sieve_primes(isqrt(hi)).  Messages may name either pass; only whether a
# call is refused is checked.
THRESHOLD_BUDGETS = [1, 5, 10, 50, 100, 1000, 9899, 9900]
THRESHOLD_LIMITS = [2, 3, 100, 10**4, 10**6]


def sieve_span(limit):
    return limit - math.isqrt(limit)


@pytest.mark.parametrize("budget", THRESHOLD_BUDGETS)
def test_refusal_thresholds(budget):
    for limit in THRESHOLD_LIMITS:
        if sieve_span(limit) > budget:
            with pytest.raises(ValueError, match="sieve budget"):
                arith.sieve_primes(limit, budget)
        else:
            assert arith.sieve_primes(limit, budget).tolist() == oracle_primes(limit)
        root = math.isqrt(limit)
        for lo in sorted({0, limit // 2, max(limit - 10, 0)}):
            refused = limit - max(lo, root + 1) + 1 > budget or sieve_span(root) > budget
            if refused:
                with pytest.raises(ValueError, match="sieve budget"):
                    list(arith.prime_segments(lo, limit, budget))
            else:
                list(arith.prime_segments(lo, limit, budget))


def test_prime_segments_refuse_range_before_base(monkeypatch):
    # The range pass spans 2^28 + 1 integers: it is refused before the
    # base primes to sqrt(hi) are sieved.
    def no_base(*args):
        raise AssertionError("base primes sieved before the range was checked")

    monkeypatch.setattr(arith, "sieve_primes", no_base)
    with pytest.raises(ValueError, match="sieve budget"):
        next(arith.prime_segments(10**9, 10**9 + 2**28))


# Up to SEGMENT_SIZE, sieve_primes is one kernel call on one mask per
# level of its recursion, with no segmented pass.
def test_sieve_primes_base_case_needs_no_segments(monkeypatch):
    def no_pass(*args):
        raise AssertionError("a segmented pass ran")

    primes = oracle_primes(2**21)
    monkeypatch.setattr(arith, "map_segments", no_pass)
    for n in [*range(3000), 2**21 - 1, 2**21]:
        assert arith.sieve_primes(n).tolist() == primes[: bisect.bisect_right(primes, n)], n


def test_sieve_primes_large_path_across_segments(small_segments):
    primes = oracle_primes(5000)
    for n in (SEG + 1, 1000, 4096, 4999, 5000):
        assert arith.sieve_primes(n).tolist() == primes[: bisect.bisect_right(primes, n)], n


# Above SEGMENT_SIZE the result array is sized by Dusart's bound on
# pi(limit), so no prime count runs.
def test_sieve_primes_large_path_counts_no_primes(monkeypatch):
    def no_count(*args):
        raise AssertionError("pi(limit) counted to size the result")

    monkeypatch.setattr(arith, "prime_count_pi", no_count)
    assert arith.sieve_primes(2**21 + 1).tolist() == oracle_primes(2**21 + 1)


# Above SEGMENT_SIZE the segments are written into one array sized by a
# bound on pi(limit): the peak is the result and about one segment, not
# twice the result, as joining a list of segments would take.
def test_sieve_primes_large_path_peaks_near_its_result():
    tracemalloc.start()
    try:
        primes = arith.sieve_primes(3 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 1857859 and primes[-1] == 29999999
    assert peak <= primes.nbytes + 4 * 2**20


# Segmented passes per call, all by the one driver, map_segments: every
# base prime a call needs takes the one-mask path, so only a range past
# sqrt(hi) costs a pass.  bound_report makes two, the premise's root
# search and the window's count; a search whose pair lies in its first
# window makes one.
@pytest.mark.parametrize(
    "call, passes",
    [
        (lambda: bound_report(2, 8, 2), 2),
        (lambda: find_pair_above(4, 89108550, 99056789), 1),
        (lambda: theorem3_lower_bound(2, 6, 2), 0),
        (lambda: nth_prime(2000), 0),
    ],
    ids=["bound_report", "find_pair_above", "theorem3_lower_bound", "nth_prime"],
)
def test_strike_segments_passes(monkeypatch, call, passes):
    counted = []

    def counting(sieve):
        def counted_pass(*args):
            counted.append(args[:2])
            return sieve(*args)
        return counted_pass

    monkeypatch.setattr(arith, "_PRIMES", [])
    monkeypatch.setattr(arith, "_PRIMORIALS", [])
    primepairs._window_gaps.cache_clear()
    driver = counting(arith.map_segments)
    for module in (arith, wheel):
        monkeypatch.setattr(module, "map_segments", driver)
    call()
    assert len(counted) == passes, counted


# A search strikes only what it reads: a pass's first segment spans 2^12
# integers and each later one doubles, so a pair a few values in costs
# one small segment, not a whole SEGMENT_SIZE one.  The flags of every
# pass are counted, the base primes' included.
@pytest.mark.parametrize(
    "search",
    [
        lambda: find_root_pair(10, 2),
        lambda: find_pair_above(4, 89108550, 99056789),
    ],
    ids=["find_root_pair", "find_pair_above"],
)
def test_search_strikes_what_it_reads(monkeypatch, search):
    struck = []
    strike = arith._strike

    def counting(size, *args):
        struck.append(size)
        return strike(size, *args)

    search()  # fill the prime table outside the counted run
    monkeypatch.setattr(arith, "_strike", counting)
    search()
    assert 0 < sum(struck) <= 2 * 2**12, struck


# A search whose pair lies just past its first window reads the next
# window, which ends 2^15 integers in, not a round of SEGMENT_SIZE
# integers: level 10's first gap-24 pair, (4523, 4547), lies 4 518
# integers in.  Integers are counted as two per flag, the base primes'
# flags included.
def test_search_past_its_first_window_strikes_the_next_window(monkeypatch):
    struck = []
    strike = arith._strike

    def counting(size, *args):
        struck.append(size)
        return strike(size, *args)

    assert find_root_pair(10, 24) == (4523, 4547)  # fills the prime table outside the counted run
    monkeypatch.setattr(arith, "_strike", counting)
    assert find_root_pair(10, 24) == (4523, 4547)
    assert 0 < 2 * sum(struck) <= 2**15 + 2**12, struck


def test_find_pair_above_budget_is_a_prefix():
    # The search covers (M, min(limit, M + budget)]: a pair is found once
    # its upper member is inside, and refused one integer short, since
    # the limit lies beyond.  Where the pair lies, among the base primes
    # or in the range pass, does not matter.
    # m stays small so that the base primes' pass, to sqrt(m + budget),
    # fits the budget too.
    for g in (2, 4, 6, 8):
        for m in (0, 3, 10, 50, 90, 200):
            q, r = oracle_pairs(g, m, m + 5001)[0]
            assert find_pair_above(g, m, m + 5000, budget=r - m) == (q, r), (g, m)
            with pytest.raises(ValueError, match=f"above {m}; searching on to {m + 5000} "):
                find_pair_above(g, m, m + 5000, budget=r - m - 1)
    # A prefix reaching the limit answers None when it holds no pair.
    assert find_pair_above(2, 100, 102, budget=10**6) is None


# A search's second pass is refused at its own call, only after the
# first window of 2^12 integers missed.  Above m = 100015000 the base
# primes to sqrt(m + 4096) span 9 900 integers and those to
# sqrt(m + 9900) span 9 901: at budget 9 900 a pair in the first window
# is answered, and one past it refused.  A prefix past 2^63 whose first
# window lies below it is refused by its base primes' pass, to
# sqrt(2^63), at the default budget, before the int64 bound is reached.
def test_search_refusals_wait_for_the_second_pass():
    m = 100015000
    divisors = oracle_primes(10**4)
    window = [n for n in range(m + 1, m + 2**12 + 1) if all(n % d for d in divisors)]
    twin = next((q, r) for q, r in zip(window, window[1:]) if r - q == 2)
    assert find_pair_above(2, m, 10**9, budget=9900) == twin
    assert max(r - q for q, r in zip(window, window[1:])) < 200
    with pytest.raises(ValueError, match="sieving 101:10001 exceeds the sieve budget of 9900"):
        find_pair_above(200, m, 10**9, budget=9900)
    with pytest.raises(ValueError, match="sieve budget"):
        find_pair_above(2, INT64_EDGE - 5000, INT64_EDGE + 100)


# Chunk and window edges.  A pass cuts its range into chunks of
# SEGMENT_SIZE // W integers, W = 1 for a pass of more than
# _POOLED_PRIMES primes, so its chunks end every chunk integers past its
# first value.  A pair search reads windows that end FIRST_SEGMENT * 8^i
# integers in (2^12, 2^15, 2^18 and 2^21 at the real sizes) and then the
# rest of its prefix, each pass in chunks from its own start.  The
# doubling edges 2^12, 3 * 2^12, 7 * 2^12, ..., capped at SEGMENT_SIZE,
# and chunk edges from the first window's end, are probed too.  Ranges
# end one odd value short of an edge, on it, and one past it; a search's
# first pair ends just before an edge, straddles it, or starts just
# after it.
def growth_edges(segment, span):
    size, edge, edges = min(2**12, segment), 0, []
    while edge + size <= span:
        edge += size
        edges.append(edge)
        size = min(2 * size, segment)
    return edges


def chunk_integers(segment, primes):
    """Integers per chunk of a pass striking that many primes."""
    workers = arith._workers() if primes <= arith._POOLED_PRIMES else 1
    return 2 * max(segment // workers // 2, 1)


def pass_edges(segment, span, chunk, first=0):
    """The edges of a pass up to span, its first at first (0 for none),
    then every chunk integers, with the doubling edges."""
    edges = range(first or chunk, span + 1, chunk)
    return sorted({*edges, *growth_edges(segment, span)})


def search_edges(segment, span, chunk):
    """The edges of a pair search's passes up to span: windows that end
    FIRST_SEGMENT * 8^i integers in, up to the first that reaches
    segment, then one pass over the rest, each cut into chunks of chunk
    integers from its own start."""
    ends = [arith.FIRST_SEGMENT]
    while ends[-1] < segment:
        ends.append(8 * ends[-1])
    passes = zip([0, *ends], [*ends, span])
    return {edge for a, b in passes for edge in (*range(a + chunk, b, chunk), b) if edge <= span}


EDGE_CASES = [  # (SEGMENT_SIZE, integers spanned by the edges checked)
    (2**21, 2**19),  # the real size
    (2**22, 2**19),  # a patched size of 2^22
    (2**13, 2**17),  # 2^12-integer chunks at W = 2
    (2**15, 2**17),
    pytest.param(2**21, 2**22, marks=pytest.mark.slow),
    pytest.param(2**22, 2**23, marks=pytest.mark.slow),
]
CENSUS_LO = 1001  # odd, so the census pass starts at it


@functools.lru_cache(maxsize=None)
def edge_primes(span):
    return oracle_primes(2 * span + 10**5)


@functools.lru_cache(maxsize=None)
def edge_members(span):
    return oracle_prospective(8, CENSUS_LO, CENSUS_LO + span + 2)


@pytest.mark.parametrize("segment, span", EDGE_CASES)
def test_gap_census_on_growth_edges(monkeypatch, segment, span):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    members = edge_members(span)
    gaps = [b - a for a, b in zip(members, members[1:])]
    for edge in pass_edges(segment, span, chunk_integers(segment, 7)):
        for hi in (CENSUS_LO + edge - 3, CENSUS_LO + edge - 1, CENSUS_LO + edge + 1):
            n = bisect.bisect_right(members, hi)
            want = dict(Counter(gaps[: n - 1]))
            assert gap_census(8, lo=CENSUS_LO, hi=hi).entries == want, (edge, hi)


@pytest.mark.parametrize("segment, span", EDGE_CASES)
def test_actual_pair_count_on_growth_edges(monkeypatch, segment, span):
    # The range pass of (lo, hi) starts at lo + 1, past sqrt(hi).
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    primes = edge_primes(span)
    lo = span // 2 + 1000
    start = lo + 1
    base = bisect.bisect_right(primes, math.isqrt(start + span)) - 1  # odd ones
    for edge in pass_edges(segment, span, chunk_integers(segment, base)):
        for last in (start + edge - 3, start + edge - 1, start + edge + 1):
            a, b = bisect.bisect_right(primes, lo), bisect.bisect_left(primes, last + 1)
            inside = primes[a:b]
            gaps = Counter(r - q for q, r in zip(inside, inside[1:]))
            for g in (2, 4, 6):
                assert actual_pair_count(g, lo, last + 1) == gaps[g], (edge, last, g)


@pytest.mark.parametrize("segment, span", EDGE_CASES)
def test_find_pair_above_first_pair_on_growth_edges(monkeypatch, segment, span):
    # For each edge, the first gap-g pair (q, q + g) whose gap recurs no
    # closer than the edge: the search from m = q + g + 1 - edge starts
    # at q + g + 2 - edge, so the pair ends just before the edge; from
    # m = q + 1 - edge, q ends one piece and q + g opens the next; from
    # m = q - 1 - edge, q opens the piece after the edge.  The first
    # window, of 2^12 integers, is the first edge; each later window ends
    # eight times as far in, up to the first that reaches SEGMENT_SIZE,
    # and each pass's chunks, of more than _POOLED_PRIMES base primes,
    # are SEGMENT_SIZE integers from its own start.
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    primes = edge_primes(span)
    limit = primes[-1]
    edges = {*pass_edges(segment, span, segment, arith.FIRST_SEGMENT), *search_edges(segment, span, segment)}
    for edge in sorted(edges):
        last = {}
        for q, r in zip(primes, primes[1:]):
            g = r - q
            if q - edge > math.isqrt(limit) and q - last.get(g, -limit) >= edge + g:
                break
            last[g] = q
        else:
            raise AssertionError(f"no pair isolated by {edge} below {limit}")
        for m in (q + g + 1 - edge, q + 1 - edge, q - 1 - edge):
            assert find_pair_above(g, m, limit) == (q, r), (edge, g, m)


@functools.lru_cache(maxsize=None)
def trial_division_primes(lo, hi):
    return [n for n in range(max(lo, 2), hi + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]


# A range of 3001 integers is one segment of 1500 flags, or 94 of 32 at
# SEGMENT_SIZE 64.  Its base primes run to 3162 past 10^7 and to 31622
# past 10^9, so many, and most, are at or above a segment's flag count:
# they hit a segment at most once and are struck by the one scatter.
@pytest.mark.parametrize("segment", [None, SEG])
@pytest.mark.parametrize("lo, hi", [(10**7, 10**7 + 3000), (10**9, 10**9 + 3000)])
def test_prime_segments_one_hit_scatter(monkeypatch, segment, lo, hi):
    if segment:
        monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    got = [start + int(p) for start, part in arith.prime_segments(lo, hi) for p in part]
    assert got == trial_division_primes(lo, hi)


# The kernel strikes the leading primes that divide 3 * 5 * 7 * 11 * 13
# = 15015 and start below p on one block of 15015 flags, and tiles it
# over a longer mask.  Every mask must equal a strike of each prime, one
# slice at a time.  Firsts of p * p // 2 are the ones sieve_primes
# strikes from: at or above p, so those primes take plain strikes.
def sliced_strike(size, primes, firsts):
    flags = np.ones(size, dtype=bool)
    for p, first in zip(primes, firsts):
        flags[first::p] = False
    return flags


LEAD = [3, 5, 7, 11, 13]


@pytest.mark.parametrize("size", [1, 12, 15014, 15015, 15016, 30031, 2**16 + 7])
@pytest.mark.parametrize("lead", range(1, len(LEAD) + 1))
@pytest.mark.parametrize("larger", [[], [17, 19, 23, 15013, 70001]], ids=["lead", "larger"])
def test_tiled_strike_matches_slices(size, lead, larger):
    primes = LEAD[:lead] + larger
    rng = np.random.default_rng(size * 7 + lead)
    cases = [
        [0] * len(primes),
        [p - 1 for p in primes],
        [p * p // 2 for p in primes],  # no prime tiles
        [p * p // 2 if i == 1 else p - 1 for i, p in enumerate(primes)],  # 3 tiles only
        *(rng.integers(0, primes).tolist() for _ in range(4)),
    ]
    for firsts in cases:
        got = arith._strike(size, np.array(primes), np.array(firsts))
        assert np.array_equal(got, sliced_strike(size, primes, firsts)), firsts


# 13 joins the base primes at hi = 169; the longer ranges run segments
# past 15015 flags, where the base primes 3..13 are tiled.
@pytest.mark.parametrize("hi", [168, 169, 170, 2 * 15015 + 1, 2**17 + 3])
def test_prime_segments_where_13_joins_the_base(hi):
    primes = oracle_primes(hi)
    for lo in (0, 14, 101, hi // 2):
        got = [start + p for start, part in arith.prime_segments(lo, hi) for p in part.tolist()]
        assert got == [p for p in primes if lo <= p], (lo, hi)


# sieve_primes strikes each odd prime from p * p // 2: 3..13 stay prime.
@pytest.mark.parametrize("n", [13, 2 * 15015 + 1, 2**21])
def test_sieve_primes_keeps_the_tiled_primes(n):
    primes = arith.sieve_primes(n).tolist()
    assert primes == oracle_primes(n)
    assert primes[:6] == [2, *LEAD]
