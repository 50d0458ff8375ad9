"""Exact integer number theory: primes, primorials, modular inverses,
deterministic primality, and exact prime counting.

Everything here is pure and exact.  Python's native integers are
arbitrary precision, so primorials and counting products never overflow;
a configurable bound on ``primorial`` still guards against runaway
growth from bad arguments.

All sieving goes through one kernel, ``_strike``, which clears every
p-th flag of a mask from each prime's first index on.  Two drivers
cut a range into ``SEGMENT_SIZE`` segments and hand it each segment:
``strike_segments`` gives it one flag per integer and the wheel's
primes, and yields the survivors as int64 offsets from the segment's
start, a Python int, so segments past 2^63 stay exact;
``prime_segments`` gives it one flag per odd integer and the odd base
primes up to sqrt(hi), so its masks hold half as many flags.
``sieve_primes`` and the pair searches in ``primepairs`` consume prime
segments, and ``nth_prime`` and ``primorial`` read a list of primes
that ``sieve_primes`` fills.  ``prime_count_pi`` sieves nothing: it runs
Lucy's recursion over the values x // i.

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


def _segments(lo: int, hi: int, budget: int) -> Iterator[tuple[int, int]]:
    """[lo, hi] cut into SEGMENT_SIZE segments, as (start, end) pairs.

    A range of more than budget integers is refused before the first
    segment is handed out.
    """
    if hi - lo + 1 > budget:
        raise ValueError(f"sieving {lo}:{hi} exceeds the sieve budget of {budget} integers")
    while lo <= hi:
        end = min(lo + SEGMENT_SIZE - 1, hi)
        yield lo, end
        lo = end + 1


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
    for start, end in _segments(lo, hi, budget):
        firsts = [(-start) % p for p in primes]
        yield start, np.flatnonzero(_strike(end - start + 1, primes, firsts))


def prime_segments(
    lo: int, hi: int, budget: int = SIEVE_BUDGET
) -> Iterator[np.ndarray]:
    """Primes in [lo, hi], increasing, as int64 arrays.

    The base primes up to sqrt(hi) come first, as one array.  Above
    sqrt(hi) each SEGMENT_SIZE segment is struck over its odd integers
    only, one flag per odd integer, with the odd base primes.  Every
    such segment starts above every base prime, so striking all
    multiples leaves exactly the primes; 2 reaches the range pass only
    when hi < 4, and is added there.  Both passes, the base primes' and
    the range's, are held to budget in integers spanned.
    """
    if hi < 2:
        return
    if hi > _INT64_MAX:
        raise ValueError(f"prime segments hold int64 values, got hi={hi}")
    root = math.isqrt(hi)
    base = sieve_primes(root, budget)
    if lo <= root:
        yield base[np.searchsorted(base, lo) :]
    odd = base[1:]  # the odd base primes, as int64
    # Index i of a segment's mask is the odd integer first + 2i, so p
    # is first struck at the i solving first + 2i = 0 (mod p):
    # i = -first / 2 = -first * (p + 1) / 2 (mod p).  Every product
    # stays below p^2 <= hi, inside int64.
    half = (odd + 1) // 2
    odd_primes = odd.tolist()
    for start, end in _segments(max(lo, root + 1), hi, budget):
        first = start | 1
        firsts = (-first % odd) * half % odd
        primes = np.flatnonzero(
            _strike((end - first) // 2 + 1, odd_primes, firsts.tolist())
        )
        primes *= 2
        primes += first
        if start == 2:
            primes = np.concatenate(([2], primes))
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
