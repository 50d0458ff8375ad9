"""Exact integer number theory: primes, primorials, deterministic
primality, and exact prime counting.

Everything here is pure and exact.  Python's native integers are
arbitrary precision, so primorials and counting products never overflow;
a configurable bound on ``primorial`` still guards against runaway
growth from bad arguments.

All sieving goes through one kernel, ``_strike``, which clears every
p-th flag of a mask from each prime's first index on, and one driver,
``strike_segments``, which cuts a range into segments, gives the kernel
one flag per odd integer of each, and yields the survivors as int64
offsets from the segment's start, a Python int, so segments past 2^63
stay exact.  A pass's first segment spans ``FIRST_SEGMENT`` integers
and each later one doubles, up to ``SEGMENT_SIZE``, so a search that
stops a few values in strikes one small segment; a full segment's mask
fits in half of a 2 MiB L2.  A prime at least as large as a segment's
flag count hits it at most once, so the kernel strikes all such primes
with one scatter and loops over the smaller ones only.  On a mask of
more than _TILE = 3 * 5 * 7 * 11 * 13 = 15015 flags, the leading primes
that divide _TILE and start below p (every prime of a driver pass, whose
first indices are reduced mod p) are struck once on a block of _TILE
flags, which is tiled over the mask.  Its callers
strike odd primes only, as int64 arrays: the wheel's P_2..P_k (every
wheel holds 2), in ``prime_segments`` a copy of the odd base primes up
to sqrt(hi), and in ``sieve_primes`` the odd primes up to sqrt(limit).
Every pass's base primes come from ``sieve_primes``, which up to
SEGMENT_SIZE is one odd-only mask struck by one kernel call, and above
it writes the (start, offsets) segments of ``prime_segments`` into one
array sized by Dusart's bound on pi(limit).  ``nth_prime`` and
``primorial`` read a list of primes that ``sieve_primes`` fills, by one
sieve sized by Rosser's bound on the n-th prime.  ``prime_count_pi``
sieves nothing: it runs Lucy's recursion over the values x // i, one
update per prime up to icbrt(x), and reads Meissel's P2 term, the
products of two primes above icbrt(x), off the recursion's own arrays.

``segment_gaps`` turns a stream of segments into the gaps between
consecutive values, carried across segment edges; the gap censuses,
pair counts and pair searches in ``census`` and ``primepairs`` all read
it, the searches through ``first_pair_with_gap``.

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

import itertools
import math
import operator
from typing import Callable, Iterable, Iterator

import numpy as np

# Largest index ``primorial`` accepts, and so the highest wheel level.
# _PRIMORIALS keeps every prefix product P_1# .. P_k#, so its memory grows
# with the square of the index; P_25# ~ 2.3e39.
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


def _strike(size: int, primes: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """Mask of size flags: False at first, first + p, first + 2p, ...
    for each prime p, in increasing order, and its first index.

    A prime struck from a first index below p clears every index
    congruent to it mod p, so its pattern repeats every p flags, and
    every p dividing _TILE repeats every _TILE flags.  On a mask of more
    than _TILE flags, the leading primes of that kind are struck on one
    block of _TILE flags, which ``np.resize`` tiles to size flags: at
    most five, the odd primes up to 13, so only primes[:5] are tested.
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
        flags = np.resize(flags, size) if tiled else np.ones(size, dtype=bool)
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
    # p is first struck at the index i solving first + 2i = 0 (mod p):
    # i = -first / 2 = -first * (p + 1) / 2 (mod p).  first may pass
    # 2^63, so first mod p is taken 31 bits at a time, high bits first;
    # with p < 2^32 (base primes of an int64 range, or a wheel's) no
    # product passes 2^63.  Each segment starts size flags on, so its
    # indices are the last ones less size.
    firsts = np.zeros_like(primes)
    for shift in range(first.bit_length() // 31 * 31, -1, -31):
        firsts = (firsts << 31 | (first >> shift) & 0x7FFFFFFF) % primes
    firsts = (primes - firsts) * ((primes + 1) // 2) % primes
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


def prime_segments(
    lo: int, hi: int, budget: int = SIEVE_BUDGET
) -> Iterator[tuple[int, np.ndarray]]:
    """Primes in [lo, hi], increasing, as (start, offsets) segments, the
    shape ``strike_segments`` yields: the primes are start + offsets.

    The base primes up to sqrt(hi) come first, as one (0, primes)
    segment.  Above sqrt(hi), ``strike_segments`` strikes the odd base
    primes from each segment, and its segments pass straight through.
    Every such segment starts above every base prime, so striking all
    multiples leaves exactly the odd primes; 2 reaches the range pass
    only when hi < 4, and is added there.  Both passes are held to
    budget in integers spanned, the range's first: a range past the
    budget is refused before the int64 bound is checked and before any
    base prime is sieved.
    """
    if hi < 2:
        return
    root = math.isqrt(hi)
    range_lo = max(lo, root + 1)
    _require_span(range_lo, hi, budget)
    if hi > _INT64_MAX:
        raise ValueError(f"prime segments hold int64 values, got hi={hi}")
    base = sieve_primes(root, budget)
    # Copy the odd base primes before base is handed out: a consumer
    # may overwrite the array it is given.
    odd = base[1:].copy()
    if lo <= root:
        yield 0, base[np.searchsorted(base, lo) :]
    if range_lo == 2:
        yield 0, np.array([2], dtype=np.int64)
    yield from strike_segments(range_lo, hi, odd, budget)


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


# The first primes in order, and the primorials of the first ones; both
# grow on demand, the primes by one sieve per growth.
_PRIMES: list[int] = []
_PRIMORIALS: list[int] = []


def _sieve_first(count: int) -> None:
    """Fill the table with at least count primes by one sieve, to
    Rosser's bound p_n < n (ln n + ln ln n) for n >= 6 (1941).  n is at
    least twice the table's length, so repeated growth stays linear; a
    count whose sieve is past the budget is refused before it runs."""
    n = max(count, 2 * len(_PRIMES), 6)
    _PRIMES[:] = sieve_primes(int(n * (math.log(n) + math.log(math.log(n)))) + 1).tolist()


def nth_prime(i: int) -> int:
    """The i-th prime, 1-indexed (nth_prime(1) == 2)."""
    if i < 1:
        raise ValueError(f"prime index must be >= 1, got {i}")
    if len(_PRIMES) < i:
        _sieve_first(i)
    return _PRIMES[i - 1]


def primorial(k: int) -> int:
    """Product of the first k primes."""
    if k < 1:
        raise ValueError(f"primorial index must be >= 1, got {k}")
    if k > MAX_PRIMORIAL_INDEX:
        raise ValueError(
            f"primorial index {k} exceeds configured bound {MAX_PRIMORIAL_INDEX}"
        )
    if len(_PRIMORIALS) < k:
        _sieve_first(k)
        _PRIMORIALS[:] = itertools.accumulate(_PRIMES[:k], operator.mul)
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
