"""From prospective pairs to actual prime pairs.

Below P_{k+1}^2 a prospective prime of level k has no room for a
factor, so it is prime; consecutive prospective pairs in that range are
consecutive prime pairs.  This module verifies that fact level by
level, evaluates the lower bound on gap-g prime pairs inside
(P_k, P_{k+1}^2) with k = pi(sqrt(P_l#)), tracks the growth of that
bound from one level to the next, and searches for prime pairs above a
threshold.

Both sieve-bound computations read the gaps between consecutive primes
from ``arith.segment_gaps`` over the odd-only prime segments of
``arith.prime_segments``, for just the range they need, so pairs
straddling a segment edge are seen: pair counts add up ``gaps == g`` per
chunk, and the pair search stops at the first chunk holding a hit.
k = pi(sqrt(P_l#)) comes from ``arith.prime_count_pi``, which sieves
nothing, so only the pair count of ``bound_report`` is held to a sieve
budget.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .arith import (
    SIEVE_BUDGET, first_pair_with_gap, is_prime, nth_prime, prime_count_pi, prime_segments,
    primorial, segment_gaps,
)
from .census import predicted_derived_count
from .wheel import enumerate_prospective


def k_for_level(l: int) -> int:
    """Index k with P_k the largest prime whose square stays below P_l#:
    k = pi(floor(sqrt(P_l#)))."""
    return prime_count_pi(math.isqrt(primorial(l)))


def _prime_gaps(lo: int, hi: int, budget: int) -> Iterator[tuple[int, np.ndarray]]:
    """``arith.segment_gaps`` chunks of the consecutive primes in [lo, hi]."""
    # map, unlike a generator expression, holds no segment while the
    # next one is struck.
    segments = map(lambda primes: (0, primes), prime_segments(lo, hi, budget))
    return segment_gaps(segments)


def actual_pair_count(g: int, lo: int, hi: int, budget: int = SIEVE_BUDGET) -> int:
    """Consecutive-prime pairs (q, q') with q' - q = g and lo < q, q' < hi."""
    count = 0
    for _, gaps in _prime_gaps(lo + 1, hi - 1, budget):
        count += int(np.count_nonzero(gaps == g))
        del gaps  # free this segment before the next one is struck
    return count


class LowerBound(NamedTuple):
    exact: Fraction
    k: int  # pi(sqrt(P_l#))
    n_root: int  # descendants at level l of the level-r root pair


def theorem3_lower_bound(r: int, l: int, g: int) -> LowerBound:
    """Guaranteed number of gap-g prime pairs in (P_k, P_{k+1}^2),
    k = pi(sqrt(P_l#)), descended from one gap-g pair at level r.

    Premise (caller-verified via a census): level r actually holds a
    consecutive gap-g pair.
    """
    if not 2 <= r <= l:
        raise ValueError(f"need l >= r >= 2, got r={r}, l={l}")
    if g < 2 or g % 2:
        raise ValueError(f"gap must be even and >= 2, got {g}")
    n_l = 1 if l == r else predicted_derived_count(r, l, g)
    k = k_for_level(l)
    bound = Fraction(n_l)
    for j in range(l, k):
        p = nth_prime(j)
        bound *= Fraction(p - 4, p - 2)
        if g % p == 0:
            bound *= Fraction(p - 2, p - 1)
    return LowerBound(exact=bound, k=k, n_root=n_l)


@dataclass
class BoundReport:
    """Lower bound on gap-g prime pairs in (P_k, P_{k+1}^2) next to the
    observed count."""

    r: int
    l: int
    g: int
    k: int
    window: tuple[int, int]
    bound: Fraction
    observed: int
    n_root: int  # descendants at level l of the level-r root pair

    @property
    def holds(self) -> bool:
        return self.observed >= math.ceil(self.bound)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "l": self.l,
            "g": self.g,
            "k": self.k,
            "window": [str(self.window[0]), str(self.window[1])],
            "bound_exact": f"{_decimal(self.bound.numerator)}/{_decimal(self.bound.denominator)}",
            "bound": float(self.bound),
            "observed": str(self.observed),
            "n_root": str(self.n_root),
            "holds": self.holds,
        }


def _decimal(n: int) -> str:
    """n in decimal, past the interpreter's limit on int-to-str digits
    (4300 by default): the level-10 bound's numerator has 7 746.  The
    limit is lifted for this one conversion and then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def bound_report(r: int, l: int, g: int, budget: int = SIEVE_BUDGET) -> BoundReport:
    if l < 3:
        raise ValueError(f"level must be >= 3, got {l}")
    bound = theorem3_lower_bound(r, l, g)
    lo = nth_prime(bound.k)
    hi = nth_prime(bound.k + 1) ** 2
    observed = actual_pair_count(g, lo, hi, budget=budget)
    return BoundReport(
        r=r, l=l, g=g, k=bound.k, window=(lo, hi),
        bound=bound.exact, observed=observed, n_root=bound.n_root,
    )


def growth_ratio(l: int) -> float:
    """Factor by which the pair lower bound grows going from level l to
    l+1, with the tail product approximated conservatively; the
    approximation only makes sense from l = 8 up.

    (P_{l+1}-2) (P_l-2)/(P_l-4) (1 - 2 sqrt(P_{l+1}) / ln sqrt(P_{l+1}#))
    """
    if l < 8:
        raise ValueError(f"approximation invalid below l=8, got {l}")
    p_l = nth_prime(l)
    p_next = nth_prime(l + 1)
    log_half_primorial = 0.5 * sum(
        math.log(nth_prime(i)) for i in range(1, l + 2)
    )
    tail = 1.0 - 2.0 * math.sqrt(p_next) / log_half_primorial
    return (p_next - 2) * (p_l - 2) / (p_l - 4) * tail


def find_pair_above(
    g: int, m: int, search_limit: int, budget: int = SIEVE_BUDGET
) -> tuple[int, int] | None:
    """Least consecutive-prime pair with difference g whose lower member
    exceeds m, or None if none turns up below search_limit, which must
    exceed m."""
    if g < 2 or g % 2:
        raise ValueError(f"gap must be even and >= 2, got {g}")
    if search_limit <= m:
        raise ValueError(f"search limit {search_limit} must exceed {m}")
    return first_pair_with_gap(_prime_gaps(m + 1, search_limit, budget), g)


@dataclass
class SquareReport:
    level: int
    holds: bool
    least_composite: int  # least composite prospective prime at this level


def verify_prospective_below_square(k: int) -> SquareReport:
    """Check that every prospective prime of level k strictly between
    P_k and P_{k+1}^2 is prime, and locate the least composite
    prospective prime (which should be exactly P_{k+1}^2).

    Coprimality to P_k# extends periodically past the window, so the
    scan keeps going beyond it when the window ends before the square
    (which happens at k = 3)."""
    p_k = nth_prime(k)
    wheel = primorial(k)
    square = nth_prime(k + 1) ** 2
    n = p_k + 2
    while math.gcd(n, wheel) != 1 or is_prime(n):
        n += 2
    return SquareReport(level=k, holds=n >= square, least_composite=n)


def consecutive_primes_as_prospective(k: int) -> bool:
    """True iff P_k and P_{k+1} sit adjacent in the level-(k-1)
    prospective stream."""
    if nth_prime(k) <= 3:
        raise ValueError(f"need P_k > 3, got level {k}")
    p_k, p_next = nth_prime(k), nth_prime(k + 1)
    stream = list(enumerate_prospective(k - 1, p_k, p_next))
    return stream == [p_k, p_next]
