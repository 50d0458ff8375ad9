"""Prospective primes on the primorial wheel.

A level-k window runs from 5 to 4 + P_k# and holds one full residue
cycle of the wheel over the first k primes.  A prospective prime at
level k is any window member coprime to P_k#.  ``window_bounds`` gives
the window, and ``subset_bounds`` each of its P_k subsets of width
P_{k-1}#.  Propagation carries a prospective prime from one level to
the next by adding m * P_k#, with exactly one residue m (the disallowed
index) producing a multiple of P_{k+1}.

A few values at a time are found without a sieve.  ``is_prospective``
tests one value with a single gcd.  ``next_prospective`` walks up to
the next value coprime to P_k#, and its mirror ``-next_prospective(-n,
k)`` walks down; Jacobsthal's function bounds both walks.
``is_consecutive`` checks a run of prospective primes by that walk, and
``subset_extremes`` finds a subset's ends by it.

Whole windows, subsets and ranges are sieved by ``arith``:
``prospective_range`` clamps a range to the window and gives the primes
P_2..P_k to strike (every wheel holds 2, so ``arith`` masks only odd
integers).  ``prospective_segments`` hands them to the serial
``arith.strike_segments``, whose segments grow from
``arith.FIRST_SEGMENT`` to ``arith.SEGMENT_SIZE`` integers, and yields
the survivors as one (start, offsets) pair per segment;
``enumerate_prospective`` adds the start back value by value, as Python
ints, so windows past 2^63 work.  The gap census hands them to
``arith.tally_gaps``, which strikes and tallies chunks on a pool.

Every level above ``arith.MAX_PRIMORIAL_INDEX`` (25) is refused, since
``arith.primorial`` refuses its index.  Up to it, no level is refused
for being high: what a window, subset or range costs is the integers it
spans, and the sieve budget of ``arith`` bounds that.
A narrow range at level 16 is cheap; the full level-10 window is refused
at the default budget.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .arith import SIEVE_BUDGET, nth_prime, primorial, strike_segments


def window_bounds(k: int) -> tuple[int, int]:
    """The level-k window [5, 4 + P_k#]."""
    return 5, 4 + primorial(k)


def subset_bounds(k: int, m: int) -> tuple[int, int]:
    """Bounds (lo, hi) of subset m, the level-k window's m-th stretch of
    width P_{k-1}#."""
    if not 0 <= m < nth_prime(k):
        raise ValueError(f"subset {m} outside [0, {nth_prime(k) - 1}] at level {k}")
    width = primorial(k - 1)
    return 5 + m * width, 4 + (m + 1) * width


class DisallowedIndex(NamedTuple):
    """The residue m at which propagation into `level` hits a multiple
    of P_level, together with the smallest alpha certifying it."""

    level: int
    value: int
    alpha: int


class Propagated(NamedTuple):
    value: int
    disallowed: bool


def is_prospective(n: int, k: int) -> bool:
    """True iff n sits in the level-k window and is coprime to P_k#."""
    if k < 2:
        raise ValueError(f"level must be >= 2, got {k}")
    if n < 5 or n > 4 + primorial(k):
        return False
    return math.gcd(n, primorial(k)) == 1


def next_prospective(n: int, k: int) -> int:
    """The least value >= n coprime to P_k#, inside the level-k window
    or not: coprimality is periodic, so the walk runs on past either
    end.  -m is coprime to P_k# when m is, so -next_prospective(-n, k)
    is the greatest such value <= n.  The walk takes fewer steps than
    Jacobsthal's j(P_k#), the longest run of values that all share a
    factor with P_k#, so it never hangs."""
    wheel = primorial(k)
    while math.gcd(n, wheel) != 1:
        n += 1
    return n


def is_consecutive(run: tuple[int, ...], k: int) -> bool:
    """True iff run is every prospective prime of level k from its first
    value to its last, in increasing order: each member sits in the
    window and is coprime to P_k#, and the walk up from one past each
    member stops at the next member.  Nothing is sieved; a valid run
    costs its own gaps, and an invalid one stops at its first skipped
    value."""
    return all(is_prospective(n, k) for n in run) and all(
        next_prospective(a + 1, k) == b for a, b in zip(run, run[1:])
    )


def prospective_range(
    k: int, lo: int | None = None, hi: int | None = None
) -> tuple[int, int, np.ndarray]:
    """(start, end, primes): the range [lo, hi] clamped to the level-k
    window, and the odd primes P_2..P_k whose multiples a sieve of it
    strikes (every wheel holds 2, so the sieve masks odd values only).
    A range that misses the window is refused, naming both."""
    if k < 2:
        raise ValueError(f"level must be >= 2, got {k}")
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"range {lo}:{hi} has lo > hi")
    first, last = window_bounds(k)
    start = first if lo is None else max(lo, first)
    end = last if hi is None else min(hi, last)
    if start > end:
        raise ValueError(f"range {lo}:{hi} misses the level-{k} window [{first}, {last}]")
    return start, end, np.array([nth_prime(i) for i in range(2, k + 1)], dtype=np.int64)


def prospective_segments(
    k: int,
    lo: int | None = None,
    hi: int | None = None,
    budget: int = SIEVE_BUDGET,
) -> Iterator[tuple[int, np.ndarray]]:
    """Prospective primes of level k in [lo, hi], increasing, as one
    (start, offsets) pair per segment of the range, as
    ``arith.strike_segments`` yields them (offsets may be empty), over
    ``prospective_range``."""
    return strike_segments(*prospective_range(k, lo, hi), budget)


def enumerate_prospective(k: int, lo: int | None = None, hi: int | None = None) -> Iterator[int]:
    """All prospective primes of level k in [lo, hi], increasing, as
    Python ints."""
    for start, offsets in prospective_segments(k, lo, hi):
        yield from (start + offset for offset in offsets.tolist())


def mhat(p_tilde: int, k_next: int) -> DisallowedIndex:
    """Disallowed index for propagating p_tilde from level k_next-1.

    Closed form: m-hat = -p_tilde * (P_k# mod P_{k+1})^-1 mod P_{k+1}.
    The search definition (smallest alpha making the quotient an
    integer in range) gives the same value; alpha is recovered from it.
    """
    p_next = nth_prime(k_next)
    step = primorial(k_next - 1) % p_next
    value = (-p_tilde) * pow(step, -1, p_next) % p_next
    alpha = (value * step + p_tilde % p_next) // p_next
    return DisallowedIndex(level=k_next, value=value, alpha=alpha)


def propagate(p_tilde: int, k: int, m: int) -> Propagated:
    """p_tilde + m * P_k#, landing in subset m of the level-(k+1) window.

    The result is flagged disallowed when P_{k+1} divides it, which
    happens for m = m-hat alone; the caller decides what to do.
    """
    p_next = nth_prime(k + 1)
    if not 0 <= m <= p_next - 1:
        raise ValueError(f"m={m} outside [0, {p_next - 1}] at level {k + 1}")
    value = p_tilde + m * primorial(k)
    return Propagated(value=value, disallowed=value % p_next == 0)


def subset_of(n: int, k: int) -> int:
    """Index m of the width-P_{k-1}# subset of the level-k window holding n."""
    lo, hi = window_bounds(k)
    if not lo <= n <= hi:
        raise ValueError(f"{n} outside level-{k} window [{lo}, {hi}]")
    return (n - 5) // primorial(k - 1)


def subset_extremes(k: int, m: int) -> tuple[int, int]:
    """(least, greatest) prospective prime in subset m of the level-k
    window: the walk up from its low end and down from its high end,
    each a few values long where a sieve would cover the subset's
    P_{k-1}# integers.  A subset with no prospective prime, [9, 10] at
    level 2, is refused."""
    lo, hi = subset_bounds(k, m)
    least = next_prospective(lo, k)
    if least > hi:
        raise ValueError(f"subset {m} of the level-{k} window holds no prospective prime")
    return least, -next_prospective(-hi, k)
