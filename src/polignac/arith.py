"""Exact integer number theory: primes, primorials, deterministic
primality, and exact prime counting.

Everything here is pure and exact.  Python's native integers are
arbitrary precision, so primorials and counting products never overflow;
``primorial`` refuses every index above ``MAX_PRIMORIAL_INDEX``, and so
every wheel level above it.

All sieving goes through one kernel, ``_strike``, which clears every
p-th flag of a mask from each prime's first index on.  A prime at least
as large as a mask's flag count hits it at most once, so the kernel
strikes all such primes with one scatter and loops over the smaller
ones only.  On a mask of more than _TILE = 3 * 5 * 7 * 11 * 13 = 15015
flags, the leading primes that divide _TILE and start below p (every
prime of a ``strike_segments`` or ``map_segments`` pass, whose first
indices are reduced mod p) are struck once on a block of _TILE flags,
which is tiled over the mask.
Its callers strike odd primes only, as int64 arrays: the wheel's
P_2..P_k (every wheel holds 2), the odd base primes up to sqrt(hi) of a
prime range, and in ``sieve_primes`` the odd primes up to sqrt(limit).

Two functions cut a range into masks for the kernel, one flag per odd
integer, and both compute each prime's first index by one function,
``_first_indices``.  ``strike_segments`` is serial and streams: it cuts
a range into segments and yields the survivors of each in order as
int64 offsets from the segment's start, a Python int, so segments past
2^63 stay exact.  A pass's first segment spans ``FIRST_SEGMENT``
integers and each later one doubles, up to ``SEGMENT_SIZE``, so a
search that stops a few values in strikes one small segment; a full
segment's mask fits in half of a 2 MiB L2.  Searches
(``first_pair_with_gap``), ``gen`` and ``sieve_primes`` use it: a
search must strike only what it reads, and ``gen`` writes values in
order.

``map_segments`` serves the passes that read their whole range: the
gap censuses, the pair count and the prospective count.  It cuts the
range into fixed chunks of SEGMENT_SIZE // W integers, W the CPUs in
the process's affinity mask (read at the first such pass, never at
import), strikes each chunk and reduces it to a small result on one of
W threads (the caller's, and a pool of W - 1 started by the first
pooled pass and kept), and hands the results back in order.  numpy releases the
interpreter lock in ``np.flatnonzero``, the gap subtraction and
``np.bincount``, where a full segment's time goes, so the reduction
runs in the worker, and the W chunks in flight hold one segment's
worth.  A pass of one chunk, or W = 1, or of more than _POOLED_PRIMES
primes, runs on the caller's thread, with no pool and no import: the
kernel holds the lock between the slices of its loop, so a pass over
hundreds of base primes gains nothing from threads.  ``tally_gaps`` and
``prime_gap_tally`` reduce each chunk to a ``GapTally`` (its first and
last value, first and last gap, and the histograms of its gaps and, for
the one-step census, of the sums of adjacent gaps) and merge the
tallies in order, adding the gaps across the seams.  A worker calls no
public function.

Every pass's base primes come from ``sieve_primes``, which up to
SEGMENT_SIZE is one odd-only mask struck by one kernel call, and above
it writes the (start, offsets) segments of ``prime_segments`` into one
array sized by Dusart's bound on pi(limit).  ``nth_prime`` alone grows
the table of the first primes: a miss sieves for the asked index alone,
to Rosser's bound on the n-th prime or to the sieve budget, whichever
is less.  ``primorial`` fills its 25
products once, from the first 25 primes of that table, and sieves
nothing itself.  ``prime_count_pi`` sieves nothing: it runs
Lucy's recursion over the values x // i, one update per prime up to
icbrt(x), and reads Meissel's P2 term, the products of two primes above
icbrt(x), off the recursion's own arrays.

``segment_gaps`` turns a stream of segments into the gaps between
consecutive values, carried across segment edges; the pair searches in
``census`` and ``primepairs`` read it through ``first_pair_with_gap``.

The one work limit is the sieve budget.  A sieve pass may span at most
budget integers, checked once per pass by ``_require_span`` before the
pass allocates anything, so every window, subset, range and pair search
is refused by the same test; ``prime_segments`` checks its range pass
before it sieves its base primes, so a range past the budget is refused
before any sieve.  A pair search, ``first_pair_with_gap``, reads only the
first budget integers of its range, and is refused only when they hold
no pair and the range runs on.  A prime count may cost at most budget
units of r * isqrt(r), r = isqrt(x), about x^(3/4), checked before any
array is allocated.  The default, 2^28, admits the full level-9 window
(P_9# ~ 2.2e8) and refuses the level-10 one (~6.5e9); it admits pi(x)
up to x ~ 1.7e11.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import os
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

# Largest index ``primorial`` accepts, and so the highest wheel level:
# every level above it is refused.  P_25# ~ 2.3e36, 121 bits, and the 25
# products P_1# .. P_25# take about 1.1 KB.
MAX_PRIMORIAL_INDEX = 25

# Default for the most integers one sieve pass may cover.  On a 2-core
# Xeon the full level-9 census (P_9# ~ 2.2e8 integers) takes 0.6 s, and
# `polignac bounds -l 9`, which sieves odd integers to ~2.2e8, 1 s at
# 41 MB peak RSS.
SIEVE_BUDGET = 1 << 28

# Integers per sieve segment.  A full segment's odd-only mask holds 2^20
# one-byte flags, 1 MiB, half of a 2 MiB L2, so the mask a segment's
# primes stride over stays cache-resident.
SEGMENT_SIZE = 1 << 21

# Values in a sieve pass's first segment; each later segment doubles, up
# to SEGMENT_SIZE.
FIRST_SEGMENT = 1 << 12

# Strong-probable-prime bases: the first 13 primes.  Sorenson & Webster
# (2015) show they decide primality exactly below psi_13 (~3.3e24); the
# first 12 alone are exact only below psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_MR_LIMIT = 3317044064679887385961981  # psi_13

_INT64_MAX = int(np.iinfo(np.int64).max)

# Flags in the block that ``_strike`` strikes 3, 5, 7, 11 and 13 on
# before tiling it: a multiple of the period of every subset of them.
_TILE = 3 * 5 * 7 * 11 * 13

# Most primes a pooled pass strikes.  The kernel strikes each prime
# below a mask's flag count by one slice, and between slices it holds
# the interpreter lock, so threads that strike hundreds of primes wait
# on each other: at 443 base primes (a prime range up to ~10^7) two
# threads striking chunks of 2^19 flags took as long as one thread
# striking both.  Every prime range of more than one chunk strikes at
# least the 172 primes below sqrt(2^20); a wheel strikes at most 24.
_POOLED_PRIMES = 64

_T = TypeVar("_T")


def _strike(size: int, primes: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """Mask of size flags: False at first, first + p, first + 2p, ...
    for each prime p, in increasing order, and its first index.

    A prime struck from a first index below p clears every index
    congruent to it mod p, so its pattern repeats every p flags, and
    every p dividing _TILE repeats every _TILE flags.  On a mask of more
    than _TILE flags, the leading primes of that kind are struck on one
    block of _TILE flags, which one broadcast assignment copies over
    the mask: at most five, the odd primes up to 13, so only primes[:5]
    are tested.  (``np.resize`` holds the interpreter lock while it
    tiles, so a pool's threads would wait on it.)
    A prime struck from p * p // 2, as ``sieve_primes`` strikes, starts
    at or past p and keeps its plain strike, so it stays prime.  The
    other primes are struck as they come: a prime p >= size hits the
    mask at most once, at its first index if that is below size, so
    those primes are struck by one scatter, and only the primes below
    size take a slice each."""
    flags = np.ones(min(size, _TILE), dtype=bool)
    if size > _TILE:
        tiled = 0
        for p, first in zip(primes[:5].tolist(), firsts[:5].tolist()):
            if _TILE % p or first >= p:
                break
            flags[first::p] = False
            tiled += 1
        if tiled:
            block, flags = flags, np.empty(size, dtype=bool)
            whole = size - size % _TILE
            flags[:whole].reshape(-1, _TILE)[...] = block
            flags[whole:] = block[: size - whole]
        else:
            flags = np.ones(size, dtype=bool)
        primes, firsts = primes[tiled:], firsts[tiled:]
    small = int(np.searchsorted(primes, size))
    for p, first in zip(primes[:small].tolist(), firsts[:small].tolist()):
        flags[first::p] = False
    large = firsts[small:]
    flags[large[large < size]] = False
    return flags


def _require_span(lo: int, hi: int, budget: int) -> None:
    """Refuse a sieve pass over [lo, hi] that spans more than budget
    integers: the one test behind every sieve refusal."""
    if hi - lo + 1 > budget:
        raise ValueError(f"sieving {lo}:{hi} exceeds the sieve budget of {budget} integers")


def _first_indices(first: int, primes: np.ndarray) -> np.ndarray:
    """Index of each odd prime's first multiple in a mask whose flag i
    stands for the odd value first + 2i: the i solving first + 2i = 0
    (mod p), i = -first / 2 = -first * (p + 1) / 2 (mod p).  first may
    pass 2^63, so first mod p is taken 31 bits at a time, high bits
    first; with p < 2^32 (base primes of an int64 range, or a wheel's)
    no product passes 2^63."""
    firsts = np.zeros_like(primes)
    for shift in range(first.bit_length() // 31 * 31, -1, -31):
        firsts = (firsts << 31 | (first >> shift) & 0x7FFFFFFF) % primes
    return (primes - firsts) * ((primes + 1) // 2) % primes


def strike_segments(
    lo: int, hi: int, primes: np.ndarray, budget: int = SIEVE_BUDGET
) -> Iterator[tuple[int, np.ndarray]]:
    """Odd values in [lo, hi] divisible by none of the odd primes (an
    int64 array in increasing order, which the driver only reads), in
    increasing order, as one (start, offsets) pair per segment: the
    survivors are start + offsets, with start a Python int and offsets
    an int64 array, so segments past 2^63 stay exact.

    The first segment spans FIRST_SEGMENT integers (at most
    SEGMENT_SIZE) and each later one twice its predecessor, up to
    SEGMENT_SIZE, so a consumer that stops a few values in has struck
    little.  Flag i of a segment's mask stands for the odd value
    start + 2i, so a mask holds half as many flags as the segment spans
    integers.  A range of more than budget integers is refused by
    ``_require_span`` before the first segment is struck.  The generator
    keeps no reference to a yielded array, so a consumer that drops it
    frees the segment before the next one is struck.
    """
    _require_span(lo, hi, budget)
    first = lo | 1
    count = (hi - first) // 2 + 1  # odd values in [lo, hi]
    # The first indices are computed once; each segment starts size
    # flags on, so its indices are the last ones less size.
    firsts = _first_indices(first, primes)
    done, size = 0, min(FIRST_SEGMENT, SEGMENT_SIZE) // 2
    while done < count:
        size = min(size, count - done)
        offsets = np.flatnonzero(_strike(size, primes, firsts))
        offsets *= 2
        yield first + 2 * done, offsets
        del offsets  # free this segment before the next one is struck
        done += size
        firsts -= size
        firsts %= primes
        size = min(2 * size, SEGMENT_SIZE // 2)


@functools.cache
def _workers() -> int:
    """W, the CPUs in this process's affinity mask (every CPU where the
    platform has no mask), read once, at the first pooled pass."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_segments(
    lo: int,
    hi: int,
    primes: np.ndarray,
    reduce: Callable[[int, np.ndarray], _T],
    budget: int = SIEVE_BUDGET,
) -> Iterator[_T]:
    """reduce(start, offsets) for each chunk of the odd values in
    [lo, hi], in order: the chunk's values divisible by none of the odd
    primes are start + 2 * offsets, offsets the int64 flag indices that
    ``np.flatnonzero`` reads off the chunk's mask, which is freed before
    reduce runs (reduce may overwrite offsets).

    The range is cut into fixed chunks of SEGMENT_SIZE // W integers, W
    from ``_workers``, and each chunk is struck and reduced on one of W
    threads, so the chunks in flight hold one segment's worth of flags
    and of whatever reduce makes of them; reduce must free its arrays
    and return a small result, and must be safe to run on several
    threads at once.  The results come back in order, in rounds of W
    chunks.  A pass of one chunk, or W = 1, or of more than
    _POOLED_PRIMES primes runs on the caller's thread, with no pool, in
    chunks of SEGMENT_SIZE integers.  Nothing is ramped: a pass that
    reads its whole range has nothing to save by starting small, so
    searches stay on ``strike_segments``.  A range of more than budget
    integers is refused before anything is struck.
    """
    _require_span(lo, hi, budget)
    first = lo | 1
    count = (hi - first) // 2 + 1  # odd values in [lo, hi]
    workers = _workers() if len(primes) <= _POOLED_PRIMES else 1
    size = max(SEGMENT_SIZE // workers // 2, 1)  # flags per chunk

    def task(done: int) -> _T:
        start = first + 2 * done
        offsets = np.flatnonzero(_strike(min(size, count - done), primes, _first_indices(start, primes)))
        return reduce(start, offsets)  # the mask is freed

    chunks = range(0, max(count, 0), size)
    if workers == 1 or len(chunks) <= 1:
        return map(task, chunks)
    return _pooled(task, chunks, workers)


@functools.cache
def _helpers(count: int):
    """A pool of count threads, imported and started by the first pooled
    pass and kept for the process, so a process that makes no pooled
    pass starts no thread.  Threads started per pass cost about 0.2 ms
    a pass, and glibc gave a thread started before the last one had
    exited an arena of its own: window-census peak RSS went 35.7 or
    38.1 MB from run to run, against 34.7 MB serial."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(count)


# A forked child has none of its parent's threads: it starts its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helpers.cache_clear)


def _pooled(task: Callable[[int], _T], items: range, workers: int) -> Iterator[_T]:
    """task(item) for each item, in order, in rounds of workers items:
    the caller's thread runs the first item of a round, and the
    workers - 1 threads of ``_helpers`` the others.  A task's exception
    is raised here when its result is read."""
    pool = _helpers(workers - 1)
    for i in range(0, len(items), workers):
        helped = [pool.submit(task, item) for item in items[i + 1 : i + workers]]
        yield task(items[i])
        for future in helped:
            yield future.result()


class GapTally(NamedTuple):
    """The gaps between consecutive values of a range: its first and
    last value, its first and last gap (None with fewer than two
    values), and two histograms indexed by gap, of the gaps and of the
    sums of adjacent gaps (empty unless asked for)."""

    first: int | None
    last: int | None
    head: int | None
    tail: int | None
    singles: np.ndarray
    sums: np.ndarray


_NO_COUNTS = np.zeros(0, dtype=np.int64)


def _add_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of two histograms of any lengths, as a new array."""
    if len(a) < len(b):
        a, b = b, a
    total = a.copy()
    total[: len(b)] += b
    return total


def _tally_offsets(start: int, offsets: np.ndarray, step: int, sums: bool) -> GapTally | None:
    """The GapTally of the values start + step * offsets (None when
    there are none), with the gaps and their sums taken in place in
    offsets.  Their histograms are counted in units of step and spread
    out by step, so the offsets are never scaled."""
    if not len(offsets):
        return None
    first, last = start + step * int(offsets[0]), start + step * int(offsets[-1])
    gaps = offsets[:-1]
    np.subtract(offsets[1:], gaps, out=gaps)
    head = tail = None
    if len(gaps):
        head, tail = step * int(gaps[0]), step * int(gaps[-1])
    singles = _spread(np.bincount(gaps), step)
    pairs = _NO_COUNTS
    if sums and len(gaps) > 1:
        np.add(gaps[:-1], gaps[1:], out=gaps[:-1])
        pairs = _spread(np.bincount(gaps[:-1]), step)
    return GapTally(first, last, head, tail, singles, pairs)


def _spread(counts: np.ndarray, step: int) -> np.ndarray:
    """A histogram of values v moved to the values step * v."""
    if step == 1 or not len(counts):
        return counts
    spread = np.zeros(step * (len(counts) - 1) + 1, dtype=counts.dtype)
    spread[::step] = counts
    return spread


def _merge_gaps(tallies: Iterable[GapTally | None], sums: bool) -> GapTally:
    """The GapTally of consecutive runs of values, from theirs in order
    (None for a run with no value): the gap across each seam, from one
    run's last value to the next one's first, is added to the singles,
    and, with sums, its sums with the gaps on either side of it."""
    first = last = head = tail = None
    singles = pairs = _NO_COUNTS
    seams: list[int] = []
    seam_sums: list[int] = []
    for run in tallies:
        if run is None:
            continue
        singles = _add_counts(singles, run.singles)
        pairs = _add_counts(pairs, run.sums)
        if last is None:
            first, head = run.first, run.head
        else:
            seam = run.first - last
            seams.append(seam)
            if sums:
                seam_sums += [tail + seam] if tail is not None else []
                seam_sums += [seam + run.head] if run.head is not None else []
            head = seam if head is None else head
            tail = seam
        last = run.last
        tail = run.tail if run.tail is not None else tail
    singles = _add_counts(singles, np.bincount(seams))
    pairs = _add_counts(pairs, np.bincount(seam_sums))
    return GapTally(first, last, head, tail, singles, pairs)


def tally_gaps(
    lo: int, hi: int, primes: np.ndarray, budget: int = SIEVE_BUDGET, sums: bool = False
) -> GapTally:
    """The GapTally of the odd values in [lo, hi] divisible by none of
    the odd primes, with the sums of adjacent gaps when sums is set: one
    ``map_segments`` pass, each chunk tallied on its worker thread and
    the chunks merged here, in order."""
    tally = functools.partial(_tally_offsets, step=2, sums=sums)
    return _merge_gaps(map_segments(lo, hi, primes, tally, budget), sums)


def prime_segments(
    lo: int, hi: int, budget: int = SIEVE_BUDGET
) -> Iterator[tuple[int, np.ndarray]]:
    """Primes in [lo, hi], increasing, as (start, offsets) segments, the
    shape ``strike_segments`` yields: the primes are start + offsets.

    The primes up to sqrt(hi) that lie in the range come first, as one
    (0, primes) segment, from ``_prime_pass``.  Above sqrt(hi),
    ``strike_segments`` strikes the odd base primes from each segment,
    and its segments pass straight through.
    """
    if hi < 2:
        return
    head, range_lo, odd = _prime_pass(lo, hi, budget)
    yield 0, head
    yield from strike_segments(range_lo, hi, odd, budget)


def prime_gap_tally(lo: int, hi: int, budget: int = SIEVE_BUDGET) -> GapTally:
    """The GapTally of the primes in [lo, hi]: those up to sqrt(hi) from
    ``_prime_pass``, then one ``map_segments`` pass over the rest,
    merged in order."""
    if hi < 2:
        return _merge_gaps([], False)
    head, range_lo, odd = _prime_pass(lo, hi, budget)
    tally = functools.partial(_tally_offsets, step=2, sums=False)
    rest = map_segments(range_lo, hi, odd, tally, budget)
    return _merge_gaps(itertools.chain([_tally_offsets(0, head, 1, False)], rest), False)


def _prime_pass(lo: int, hi: int, budget: int) -> tuple[np.ndarray, int, np.ndarray]:
    """For the primes in [lo, hi], hi >= 2: (head, range_lo, odd), where
    head holds those up to sqrt(hi) (none when the range starts above
    sqrt(hi)), and the rest are the odd values in [range_lo, hi] that
    none of odd, the odd primes up to sqrt(hi), divides.

    Every such value starts above every base prime, so striking all
    multiples leaves exactly the odd primes; 2 reaches the range pass
    only when hi < 4, and is the head there.  Both passes are held to
    budget in integers spanned, the range's first: a range past the
    budget is refused before the int64 bound is checked and before any
    base prime is sieved.  odd is a copy, so a consumer may overwrite
    head."""
    root = math.isqrt(hi)
    range_lo = max(lo, root + 1)
    _require_span(range_lo, hi, budget)
    if hi > _INT64_MAX:
        raise ValueError(f"prime segments hold int64 values, got hi={hi}")
    base = sieve_primes(root, budget)
    odd = base[1:].copy()
    head = base[np.searchsorted(base, lo) :]
    if range_lo == 2:
        head = np.array([2], dtype=np.int64)
    return head, range_lo, odd


def segment_gaps(
    segments: Iterable[tuple[int, np.ndarray]],
) -> Iterator[tuple[int, np.ndarray]]:
    """Gaps between consecutive values of a stream of (start, offsets)
    segments, as (base, gaps) chunks in order: base is the value before
    gaps[0], a Python int, and the values of a chunk are base,
    base + gaps[0], base + gaps[0] + gaps[1], ...

    Each segment's gaps overwrite its own offsets (no second array).
    The last value of a segment is carried, and the gap from it to the
    next segment's first value goes out as a one-gap chunk, a view of
    the slot that the in-place subtraction frees.
    """
    last = None
    for start, offsets in segments:
        if not len(offsets):
            continue
        first, final = start + int(offsets[0]), start + int(offsets[-1])
        np.subtract(offsets[1:], offsets[:-1], out=offsets[:-1])
        if last is not None:
            offsets[-1] = first - last
            yield last, offsets[-1:]
        last = final
        yield first, offsets[:-1]
        del offsets  # free this segment before the next one is struck


def first_pair_with_gap(
    segments: Callable[[int, int, int], Iterable[tuple[int, np.ndarray]]],
    lo: int,
    end: int,
    g: int,
    budget: int,
) -> tuple[int, int] | None:
    """First consecutive pair (q, q + g) of the values in [lo, end], read
    from the budgeted prefix [lo, min(end, lo + budget - 1)], or None
    when the prefix is the whole range and holds no pair.

    segments(lo, hi, budget) gives the (start, offsets) segments of
    [lo, hi]; one pass streams their ``segment_gaps`` chunks and stops at
    the first chunk holding the gap.  When the prefix holds no pair and
    the range runs on past it, the search is refused.
    """
    hi = min(end, lo + budget - 1)
    for base, gaps in segment_gaps(segments(lo, hi, budget)):
        hits = np.flatnonzero(gaps == g)
        if len(hits):
            q = base + int(gaps[: hits[0]].sum())
            return q, q + g
    if hi < end:
        raise ValueError(
            f"no gap-{g} pair among the first {budget} integers above {lo - 1}; "
            f"searching on to {end} exceeds the sieve budget"
        )
    return None


def sieve_primes(limit: int, budget: int = SIEVE_BUDGET) -> np.ndarray:
    """All primes <= limit as an int64 array.

    Up to SEGMENT_SIZE this is one odd-only mask, flag i for 2i + 1,
    and one ``_strike`` call: each odd prime p <= isqrt(limit), from
    sieve_primes(isqrt(limit)), is struck from index p*p // 2.  Each
    level of the recursion is one kernel call on the square root of the
    level before.  Above SEGMENT_SIZE, where one mask is slower than
    segments and needs more memory, the segments of ``prime_segments``
    are written into one array sized by Dusart's bound,
    pi(x) <= x / ln x * (1 + 1.2762 / ln x) for x > 1, under 1 %
    above pi(x) from 2^21 to 10^8, and the filled prefix is returned, so
    the peak is the result and one segment, and no prime count runs.
    The first segment is drawn before the array is allocated, so the
    pass's refusals come first.  Either way the pass over
    (isqrt(limit), limit] is held to budget before anything is
    allocated.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit > SEGMENT_SIZE:
        segments = prime_segments(2, limit, budget)
        first = next(segments)  # the pass's refusals come before the array
        log = math.log(limit)
        primes = np.empty(int(limit / log * (1 + 1.2762 / log)) + 1, dtype=np.int64)
        done = 0
        for start, offsets in itertools.chain([first], segments):
            np.add(offsets, start, out=primes[done : done + len(offsets)])
            done += len(offsets)
        return primes[:done]
    root = math.isqrt(limit)
    _require_span(root + 1, limit, budget)
    odd = sieve_primes(root, budget)[1:]
    primes = 2 * np.flatnonzero(_strike((limit + 1) // 2, odd, odd * odd // 2)) + 1
    primes[0] = 2  # flag 0 stands for 1, which no prime strikes
    return primes


# The first primes in order, grown by ``nth_prime`` alone, and the
# primorials P_1# .. P_25#, filled once by ``primorial``.
_PRIMES: list[int] = []
_PRIMORIALS: list[int] = []


def nth_prime(i: int) -> int:
    """The i-th prime, 1-indexed (nth_prime(1) == 2).

    A miss fills the table by one sieve to Rosser's bound
    p_n < n (ln n + ln ln n) for n >= 6 (1941), with n = max(i, 6), or
    to SIEVE_BUDGET, read at the call, where that bound lies past it, so
    whether i is answered does not depend on what ran before, and every
    prime up to the budget is answered.  An i that the budget cannot
    hold is refused: at once when i is past Dusart's bound on the
    primes up to it, pi(x) <= x / ln x * (1 + 1.2762 / ln x), otherwise
    once the sieve comes up short."""
    if i < 1:
        raise ValueError(f"prime index must be >= 1, got {i}")
    if len(_PRIMES) < i:
        n = max(i, 6)
        limit = min(int(n * (math.log(n) + math.log(math.log(n)))) + 1, SIEVE_BUDGET)
        log = math.log(limit)
        if i > limit / log * (1 + 1.2762 / log) or len(primes := sieve_primes(limit)) < i:
            raise ValueError(
                f"sieving to the prime of index {i} exceeds the sieve budget of {SIEVE_BUDGET} integers"
            )
        _PRIMES[:] = primes.tolist()
    return _PRIMES[i - 1]


def primorial(k: int) -> int:
    """Product of the first k primes, for 1 <= k <= MAX_PRIMORIAL_INDEX.
    The first call fills all 25 products at once from the first 25
    primes of ``nth_prime``'s table; every later call is one lookup."""
    if k < 1:
        raise ValueError(f"primorial index must be >= 1, got {k}")
    if k > MAX_PRIMORIAL_INDEX:
        raise ValueError(
            f"primorial index {k} exceeds configured bound {MAX_PRIMORIAL_INDEX}"
        )
    if not _PRIMORIALS:
        nth_prime(MAX_PRIMORIAL_INDEX)
        _PRIMORIALS[:] = itertools.accumulate(_PRIMES[:MAX_PRIMORIAL_INDEX], operator.mul)
    return _PRIMORIALS[k - 1]


def is_prime(n: int) -> bool:
    """Deterministic primality by Miller-Rabin with a fixed witness set,
    exact for every n below psi_13 ~ 3.3e24; larger n are refused.  Trial
    division by the witnesses comes first, and decides every n below
    43^2 = 1849 on its own."""
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True  # no prime factor up to 41, the last witness, and below 43^2
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_count_pi(x: int, budget: int = SIEVE_BUDGET) -> int:
    """Exact count of primes <= x by Lucy's recursion, with no sieve.

    S(v) counts the integers in [2, v] left after striking the
    multiples of the primes below p, p itself kept; striking p takes
    S(v) -= S(v // p) - S(p - 1) for every v >= p^2, and once every
    p <= sqrt(x) is struck, S(x) = pi(x).  The recursion only ever reads
    the values v = x // i, which number about 2 r, r = isqrt(x): they
    are held as two int64 arrays, small[v] = S(v) for v <= r and
    large[i - 1] = S(x // i) for i <= r.

    Each prime p <= c = icbrt(x) is one vectorised update of both, and
    no prime above c is struck.  S(v) then counts the integers in
    [2, v] that are prime or have no prime factor <= c.  Since
    (c + 1)^3 > x, each such integer that is not prime is p q, with
    primes c < p <= q, so S(x) = pi(x) + P2, Meissel's term
    P2 = sum over primes c < p <= r of pi(x // p) - pi(p - 1)
    (Lagarias, Miller & Odlyzko, 1985; Deleglise & Rivat, 1996).  Every
    such product is at least (c + 1)^2, so S(v) = pi(v) for every
    v < (c + 1)^2: small[p - 1] = pi(p - 1), and, for every p > c,
    large[p - 1] = S(x // p) = pi(x // p), because x // p < (c + 1)^2.
    The primes in (c, r] are where small steps, so P2 is one sum over
    the two arrays.  The work, about r^(3/2), is held to budget as
    r * isqrt(r) before any array is allocated.
    """
    if x < 0:
        raise ValueError(f"pi(x) needs x >= 0, got {x}")
    if x > _INT64_MAX:
        raise ValueError(f"pi(x) counts in int64, got x={x}")
    r = math.isqrt(x)
    work = r * math.isqrt(r)
    if work > budget:
        raise ValueError(f"pi({x}) costs {work} units, past the sieve budget of {budget}")
    if x < 2:
        return 0
    c = round(x ** (1 / 3))
    c -= c**3 > x
    c += (c + 1) ** 3 <= x
    small = np.arange(-1, r, dtype=np.int64)
    large = x // np.arange(1, r + 1, dtype=np.int64) - 1
    for p in range(2, c + 1):
        if small[p] == small[p - 1]:
            continue  # p was struck: not a prime
        below = small[p - 1]
        # S(x // (i p)) for the i <= x // p^2: from large while i p <= r,
        # from small beyond, where x // (i p) = (x // p) // i <= r.
        count = min(r, x // (p * p))
        inner = min(count, r // p)
        large[:inner] -= large[p - 1 : inner * p : p] - below
        large[inner:count] -= small[(x // p) // np.arange(inner + 1, count + 1)] - below
        if p * p <= r:
            small[p * p :] -= small[np.arange(p * p, r + 1) // p] - below
    # small is final now: the primes in (c, r] are where it steps.
    primes = np.flatnonzero(small[c + 1 :] != small[c:-1]) + (c + 1)
    return int(large[0] - (large[primes - 1] - small[primes - 1]).sum())
