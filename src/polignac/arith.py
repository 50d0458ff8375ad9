"""Exact integer number theory: primes, primorials, modular inverses,
deterministic primality, and exact prime counting.

Everything here is pure and exact.  Python's native integers are
arbitrary precision, so primorials and counting products never overflow;
a configurable bound on ``primorial`` still guards against runaway
growth from bad arguments.

All sieving goes through one kernel, ``_strike``, which clears the
multiples of a list of primes from one segment of integers.
``strike_segments`` drives it one ``SEGMENT_SIZE`` segment at a time
and yields each segment's survivors as int64 offsets from the segment's
start, a Python int, so segments past 2^63 stay exact.
``prime_segments`` feeds it the base primes up to sqrt(hi), and the
wheel feeds it the first k primes.  ``sieve_primes``, ``prime_count_pi``
and the pair searches in ``primepairs`` all consume those segments, and
``nth_prime`` and ``primorial`` read a list of primes that
``sieve_primes`` fills.

The one work limit is the sieve budget: the number of integers one
``strike_segments`` pass may cover.  It is checked there, once, before
the first segment is struck, so every window, subset, range and prime
count is refused by the same test.  The default, 2^28, admits the full
level-9 window (P_9# ~ 2.2e8) and refuses the level-10 one (~6.5e9).
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
# `polignac bounds -l 9`, which sieves to ~2.2e8, 2 s at 44 MB peak RSS.
SIEVE_BUDGET = 1 << 28

# Values per sieve segment; keeps the working mask cache-resident.
SEGMENT_SIZE = 1 << 22

# Strong-probable-prime bases: the first 13 primes.  Sorenson & Webster
# (2015) show they decide primality exactly below psi_13 (~3.3e24); the
# first 12 alone are exact only below psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_MR_LIMIT = 3317044064679887385961981  # psi_13

_INT64_MAX = int(np.iinfo(np.int64).max)


def _strike(lo: int, hi: int, primes: Iterable[int]) -> np.ndarray:
    """Mask over [lo, hi]: False at every multiple of a p in primes,
    p itself included."""
    flags = np.ones(hi - lo + 1, dtype=bool)
    for p in primes:
        flags[(-lo) % p :: p] = False
    return flags


def strike_segments(
    lo: int, hi: int, primes: list[int], budget: int = SIEVE_BUDGET
) -> Iterator[tuple[int, np.ndarray]]:
    """Values in [lo, hi] divisible by no p in primes, increasing, as
    one (start, offsets) pair per SEGMENT_SIZE segment: the survivors
    are start + offsets, with offsets an int64 array.

    A range of more than budget integers is refused before the first
    segment is struck.  The generator keeps no reference to a yielded
    array, so a consumer that drops it frees the segment before the
    next one is struck.
    """
    if hi - lo + 1 > budget:
        raise ValueError(f"sieving {lo}:{hi} exceeds the sieve budget of {budget} integers")
    while lo <= hi:
        seg_hi = min(lo + SEGMENT_SIZE - 1, hi)
        yield lo, np.flatnonzero(_strike(lo, seg_hi, primes))
        lo = seg_hi + 1


def prime_segments(
    lo: int, hi: int, budget: int = SIEVE_BUDGET
) -> Iterator[np.ndarray]:
    """Primes in [lo, hi], increasing, as int64 arrays.

    The base primes up to sqrt(hi) come first, as one array; above
    sqrt(hi) each SEGMENT_SIZE segment is struck with the base primes.
    Every such segment starts above every base prime, so striking all
    multiples leaves exactly the primes.  Both passes, the base primes'
    and the range's, are held to budget.
    """
    if hi < 2:
        return
    if hi > _INT64_MAX:
        raise ValueError(f"prime segments hold int64 values, got hi={hi}")
    root = math.isqrt(hi)
    base = sieve_primes(root, budget)
    if lo <= root:
        yield base[np.searchsorted(base, lo) :]
    for start, primes in strike_segments(max(lo, root + 1), hi, base.tolist(), budget):
        primes += start
        yield primes
        del primes  # free this segment before the next one is struck


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
    """Exact count of primes <= x via the segmented sieve, whose range
    pass covers the x - isqrt(x) integers above sqrt(x)."""
    if x < 0:
        raise ValueError(f"pi(x) needs x >= 0, got {x}")
    return sum(len(primes) for primes in prime_segments(2, x, budget))


def mod_inverse(a: int, p: int) -> int:
    """b with a*b == 1 (mod p) for prime p, 0 < b < p."""
    a %= p
    if a == 0:
        raise ValueError(f"{a} has no inverse mod {p}")
    return pow(a, -1, p)
