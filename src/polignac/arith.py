"""Exact integer number theory: primes, primorials, modular inverses,
deterministic primality, and exact prime counting.

Everything here is pure and exact.  Python's native integers are
arbitrary precision, so primorials and counting products never overflow;
a configurable bound on ``primorial`` still guards against runaway
growth from bad arguments.

All sieving goes through one kernel, ``_strike``, which clears every
p-th flag of a mask from each prime's first index on, and one driver,
``strike_segments``, which cuts a range into ``SEGMENT_SIZE`` segments,
gives the kernel one flag per odd integer of each, and yields the
survivors as int64 offsets from the segment's start, a Python int, so
segments past 2^63 stay exact.  Its callers strike odd primes only:
the wheel's P_2..P_k (every wheel holds 2), and in ``prime_segments``
the odd base primes up to sqrt(hi).  ``sieve_primes`` consumes prime
segments, and ``nth_prime`` and ``primorial`` read a list of primes
that ``sieve_primes`` fills.  ``prime_count_pi`` sieves nothing: it runs
Lucy's recursion over the values x // i.

``segment_gaps`` turns a stream of segments into the gaps between
consecutive values, carried across segment edges; the gap censuses,
pair counts and pair searches in ``census`` and ``primepairs`` all read
it, the searches through ``first_pair_with_gap``.

The one work limit is the sieve budget.  A sieve pass may span at most
budget integers, checked once per pass before the first segment is
struck, so every window, subset, range and pair search is refused by
the same test.  A prime count may cost at most budget units of r *
isqrt(r), r = isqrt(x), about x^(3/4), checked before any array is
allocated.  The default, 2^28, admits the full level-9 window (P_9# ~
2.2e8) and refuses the level-10 one (~6.5e9); it admits pi(x) up to
x ~ 1.7e11.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator

import numpy as np

# Largest primorial index handed out by default.  P_25# ~ 2.3e39; anything
# beyond that is almost certainly a caller bug at desk scale.
MAX_PRIMORIAL_INDEX = 25

# Default for the most integers one sieve pass may cover.  On a 2-core
# Xeon the full level-9 census (P_9# ~ 2.2e8 integers) takes 0.6 s, and
# `polignac bounds -l 9`, which sieves odd integers to ~2.2e8, 1 s at
# 41 MB peak RSS.
SIEVE_BUDGET = 1 << 28

# Values per sieve segment; keeps the working mask cache-resident.
SEGMENT_SIZE = 1 << 22

# Strong-probable-prime bases: the first 13 primes.  Sorenson & Webster
# (2015) show they decide primality exactly below psi_13 (~3.3e24); the
# first 12 alone are exact only below psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_MR_LIMIT = 3317044064679887385961981  # psi_13

_INT64_MAX = int(np.iinfo(np.int64).max)


def _strike(size: int, primes: Iterable[int], firsts: Iterable[int]) -> np.ndarray:
    """Mask of size flags: False at first, first + p, first + 2p, ...
    for each prime p and its first index."""
    flags = np.ones(size, dtype=bool)
    for p, first in zip(primes, firsts):
        flags[first::p] = False
    return flags


def strike_segments(
    lo: int, hi: int, primes: list[int], budget: int = SIEVE_BUDGET
) -> Iterator[tuple[int, np.ndarray]]:
    """Odd values in [lo, hi] divisible by none of the odd primes, in
    increasing order, as one (start, offsets) pair per SEGMENT_SIZE
    integers: the survivors are start + offsets, with start a Python int
    and offsets an int64 array, so segments past 2^63 stay exact.

    Flag i of a segment's mask stands for the odd value start + 2i, so
    a mask holds half as many flags as the segment spans integers.  A
    range of more than budget integers is refused before the first
    segment is struck.  The generator keeps no reference to a yielded
    array, so a consumer that drops it frees the segment before the
    next one is struck.
    """
    if hi - lo + 1 > budget:
        raise ValueError(f"sieving {lo}:{hi} exceeds the sieve budget of {budget} integers")
    first = lo | 1
    count = (hi - first) // 2 + 1  # odd values in [lo, hi]
    half = SEGMENT_SIZE // 2
    # p is first struck at the index i solving first + 2i = 0 (mod p):
    # i = -first / 2 = -first * (p + 1) / 2 (mod p).  Each segment
    # starts half flags on, so its indices are the last ones less half.
    modulus = np.array(primes, dtype=np.int64)
    firsts = np.array(
        [(-first % p) * ((p + 1) // 2) % p for p in primes], dtype=np.int64
    )
    for done in range(0, count, half):
        offsets = np.flatnonzero(_strike(min(half, count - done), primes, firsts.tolist()))
        offsets *= 2
        yield first + 2 * done, offsets
        del offsets  # free this segment before the next one is struck
        firsts -= half
        firsts %= modulus


def prime_segments(
    lo: int, hi: int, budget: int = SIEVE_BUDGET
) -> Iterator[np.ndarray]:
    """Primes in [lo, hi], increasing, as int64 arrays.

    The base primes up to sqrt(hi) come first, as one array.  Above
    sqrt(hi), ``strike_segments`` strikes the odd base primes from each
    segment.  Every such segment starts above every base prime, so
    striking all multiples leaves exactly the odd primes; 2 reaches the
    range pass only when hi < 4, and is added there.  Both passes, the
    base primes' and the range's, are held to budget in integers
    spanned.
    """
    if hi < 2:
        return
    if hi > _INT64_MAX:
        raise ValueError(f"prime segments hold int64 values, got hi={hi}")
    root = math.isqrt(hi)
    base = sieve_primes(root, budget)
    # Read the odd base primes before base is handed out: a consumer
    # may overwrite the array it is given.
    odd = base[1:].tolist()
    if lo <= root:
        yield base[np.searchsorted(base, lo) :]
    lo = max(lo, root + 1)
    if lo == 2:
        yield np.array([2], dtype=np.int64)
    for start, primes in strike_segments(lo, hi, odd, budget):
        primes += start
        yield primes
        del primes  # free this segment before the next one is struck


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
    chunks: Iterable[tuple[int, np.ndarray]], g: int
) -> tuple[int, int] | None:
    """First consecutive pair (q, q + g) in a stream of ``segment_gaps``
    chunks, or None; stops at the first chunk holding the gap."""
    for base, gaps in chunks:
        hits = np.flatnonzero(gaps == g)
        if len(hits):
            q = base + int(gaps[: hits[0]].sum())
            return q, q + g
    return None


def sieve_primes(limit: int, budget: int = SIEVE_BUDGET) -> np.ndarray:
    """All primes <= limit as an int64 array."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(list(prime_segments(2, limit, budget)))


# The first primes in order, and the primorials of the first ones; both
# grow on demand, the primes by re-sieving to twice the previous limit.
_PRIMES: list[int] = []
_PRIMORIALS: list[int] = []


def _sieve_first(count: int) -> None:
    limit = 2 * _PRIMES[-1] if _PRIMES else 64
    while len(_PRIMES) < count:
        _PRIMES[:] = sieve_primes(limit).tolist()
        limit *= 2


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
    exact for every n below psi_13 ~ 3.3e24; larger n are refused."""
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
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
    large[i - 1] = S(x // i) for i <= r, and each prime is one
    vectorised update of both.  The work, about r^(3/2), is held to
    budget as r * isqrt(r) before any array is allocated.
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
    small = np.arange(-1, r, dtype=np.int64)
    large = x // np.arange(1, r + 1, dtype=np.int64) - 1
    for p in range(2, r + 1):
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
    return int(large[0])


def mod_inverse(a: int, p: int) -> int:
    """b with a*b == 1 (mod p) for prime p, 0 < b < p."""
    a %= p
    if a == 0:
        raise ValueError(f"{a} has no inverse mod {p}")
    return pow(a, -1, p)
