"""Prospective primes on the primorial wheel.

A level-k window runs from 5 to 4 + P_k# and holds one full residue
cycle of the wheel over the first k primes.  A prospective prime at
level k is any window member coprime to P_k#; it tiles into P_k subsets
of width P_{k-1}#.  Propagation carries a prospective prime from one
level to the next by adding m * P_k#, with exactly one residue m
(the disallowed index) producing a multiple of P_{k+1}.

Prospective primes are found by the one sieve driver,
``arith.strike_segments``: every wheel holds 2, so it masks only the
odd integers of each ``arith.SEGMENT_SIZE`` segment of the window and
strikes P_2..P_k from them, and ``prospective_segments`` yields the
survivors as one (start, offsets) pair per segment.  Array consumers
(the gap census, through ``arith.segment_gaps``) read the offsets
directly; ``enumerate_prospective`` adds the start back value by value,
as Python ints, so windows past 2^63 work.

No level is refused for being high: what a window, subset or range
costs is the integers it spans, and the sieve budget of
``arith.strike_segments`` bounds that.  A narrow range at level 16 is
cheap; the full level-10 window is refused at the default budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .arith import SIEVE_BUDGET, mod_inverse, nth_prime, primorial, strike_segments


@dataclass(frozen=True)
class WheelWindow:
    """The level-k window [5, 4 + P_k#] and its subset geometry."""

    k: int

    @property
    def lo(self) -> int:
        return 5

    @property
    def hi(self) -> int:
        return 4 + primorial(self.k)

    @property
    def subset_width(self) -> int:
        return primorial(self.k - 1)

    @property
    def subset_count(self) -> int:
        return nth_prime(self.k)

    def subset(self, m: int) -> tuple[int, int]:
        """Bounds (lo, hi) of subset m, the window's m-th stretch of
        width P_{k-1}#."""
        if not 0 <= m < self.subset_count:
            raise ValueError(
                f"subset {m} outside [0, {self.subset_count - 1}] at level {self.k}"
            )
        lo = self.lo + m * self.subset_width
        return lo, lo + self.subset_width - 1


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


def prospective_segments(
    k: int,
    lo: int | None = None,
    hi: int | None = None,
    budget: int = SIEVE_BUDGET,
) -> Iterator[tuple[int, np.ndarray]]:
    """Prospective primes of level k in [lo, hi], increasing, as one
    (start, offsets) pair per segment of the range, as
    ``arith.strike_segments`` yields them (offsets may be empty)."""
    if k < 2:
        raise ValueError(f"level must be >= 2, got {k}")
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"range {lo}:{hi} has lo > hi")
    window = WheelWindow(k)
    lo = window.lo if lo is None else max(lo, window.lo)
    hi = window.hi if hi is None else min(hi, window.hi)
    # Every wheel holds 2 (k >= 2), so the odd-only driver strikes P_2..P_k.
    return strike_segments(lo, hi, [nth_prime(i) for i in range(2, k + 1)], budget)


def enumerate_prospective(
    k: int,
    lo: int | None = None,
    hi: int | None = None,
    budget: int = SIEVE_BUDGET,
) -> Iterator[int]:
    """All prospective primes of level k in [lo, hi], increasing, as
    Python ints."""
    for start, offsets in prospective_segments(k, lo, hi, budget):
        yield from (start + offset for offset in offsets.tolist())


def mhat(p_tilde: int, k_next: int) -> DisallowedIndex:
    """Disallowed index for propagating p_tilde from level k_next-1.

    Closed form: m-hat = -p_tilde * (P_k# mod P_{k+1})^-1 mod P_{k+1}.
    The search definition (smallest alpha making the quotient an
    integer in range) gives the same value; alpha is recovered from it.
    """
    p_next = nth_prime(k_next)
    step = primorial(k_next - 1) % p_next
    value = (-p_tilde) * mod_inverse(step, p_next) % p_next
    alpha = (value * step + p_tilde % p_next) // p_next
    return DisallowedIndex(level=k_next, value=value, alpha=alpha)


def propagate(p_tilde: int, k: int, m: int) -> Propagated:
    """p_tilde + m * P_k#, landing in subset m of the level-(k+1) window.

    The result is flagged disallowed when m is the disallowed index,
    i.e. when P_{k+1} divides it; the caller decides what to do.
    """
    p_next = nth_prime(k + 1)
    if not 0 <= m <= p_next - 1:
        raise ValueError(f"m={m} outside [0, {p_next - 1}] at level {k + 1}")
    value = p_tilde + m * primorial(k)
    return Propagated(value=value, disallowed=(m == mhat(p_tilde, k + 1).value))


def subset_of(n: int, k: int) -> int:
    """Index m of the width-P_{k-1}# subset of the level-k window holding n."""
    window = WheelWindow(k)
    if not window.lo <= n <= window.hi:
        raise ValueError(f"{n} outside level-{k} window [{window.lo}, {window.hi}]")
    return (n - 5) // window.subset_width


def subset_extremes(k: int, m: int) -> tuple[int, int]:
    """(least, greatest) prospective prime in subset m of the level-k
    window.  Each end is scanned value by value: the scan stops at the
    first prospective prime, a few values in, where a sieve would cover
    the subset's P_{k-1}# integers."""
    lo, hi = WheelWindow(k).subset(m)
    least = next(n for n in range(lo, hi + 1) if is_prospective(n, k))
    greatest = next(n for n in range(hi, lo - 1, -1) if is_prospective(n, k))
    return least, greatest
