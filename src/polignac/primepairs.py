"""From prospective pairs to actual prime pairs.

Below P_{k+1}^2 a prospective prime of level k has no room for a
factor, so it is prime; consecutive prospective pairs in that range are
consecutive prime pairs.  This module verifies that fact level by
level, evaluates the lower bound on gap-g prime pairs inside
(P_k, P_{k+1}^2) with k = pi(sqrt(P_l#)), tracks the growth of that
bound from one level to the next, and searches for prime pairs above a
threshold.

The two level-by-level checks sieve nothing.  The values coprime to
P_k# above P_k come one at a time from ``wheel.next_prospective``, and
P_k, P_{k+1} are checked as a consecutive pair of level k - 1 by
``wheel.is_consecutive``.

Theorem 3's primes come from one sieve: P_1, ..., P_k are the primes
up to sqrt(P_l#), so k is their number.  ``bound_report`` first checks
the theorem's premise, a gap-g pair at level r, by the root search of
``census.find_root_pair``.  It then finds P_k and P_{k+1} with
``arith.is_prime`` on either side of sqrt(P_l#) and counts the window,
so a window past the sieve budget is refused before it or the primes to
sqrt(P_l#) are sieved.  ``k_for_level`` gives the same k by
``arith.prime_count_pi``, which sieves nothing and so reaches levels
whose sqrt(P_l#) is past the sieve budget; ``verify`` checks that the
two agree.

The pair count and the pair search read the gaps between consecutive
primes of just the range they need, so pairs straddling a segment edge
are seen.  The pair count reads its gap histogram from one
``arith.prime_gap_tally`` pass, which strikes hundreds of base primes
in any range of more than one chunk, and so runs on the caller's
thread (see ``arith.map_segments``).  The pair search is
``arith.first_pair_with_gap`` over the ``arith.prime_segments`` of the
first budget integers above M, and stops at the first segment with a
hit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import (
    SIEVE_BUDGET, first_pair_with_gap, is_prime, nth_prime, prime_count_pi, prime_gap_tally,
    prime_segments, primorial, sieve_primes,
)
from .census import find_root_pair, predicted_derived_count, require_gap
from .wheel import is_consecutive, next_prospective


def k_for_level(l: int) -> int:
    """Index k with P_k the largest prime whose square stays below P_l#:
    k = pi(floor(sqrt(P_l#)))."""
    return prime_count_pi(math.isqrt(primorial(l)))


def actual_pair_count(g: int, lo: int, hi: int, budget: int = SIEVE_BUDGET) -> int:
    """Consecutive-prime pairs (q, q') with q' - q = g and lo < q, q' < hi,
    read off the gap histogram of ``arith.prime_gap_tally``."""
    counts = prime_gap_tally(lo + 1, hi - 1, budget).singles
    return int(counts[g]) if 0 <= g < len(counts) else 0


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
    _require_root(r, l, g)
    return _lower_bound(r, l, g, sieve_primes(math.isqrt(primorial(l))))


def _require_root(r: int, l: int, g: int) -> None:
    if not 2 <= r <= l:
        raise ValueError(f"need l >= r >= 2, got r={r}, l={l}")
    require_gap(g)


def _lower_bound(r: int, l: int, g: int, primes: np.ndarray) -> LowerBound:
    """The bound from P_1, ..., P_k, the primes up to sqrt(P_l#); it
    multiplies P_l, ..., P_{k-1}."""
    n_l = 1 if l == r else predicted_derived_count(r, l, g)
    k = len(primes)
    factors = primes[l - 1 : k - 1].tolist()
    # One factor (p - 4) / (p - 2) per P_l <= p < P_k, times (p - 2) / (p - 1)
    # where p | g: both products are built whole and reduced once.
    bound = Fraction(
        n_l * _product([p - 4 for p in factors]),
        _product([p - 1 if g % p == 0 else p - 2 for p in factors]),
    )
    return LowerBound(exact=bound, k=k, n_root=n_l)


def _product(factors: list[int]) -> int:
    """The product of factors by a balanced tree: adjacent terms are
    multiplied pairwise, level by level, so each large product joins two
    operands of about the same size.  math.prod grows one operand a word
    at a time, which is quadratic in the number of factors."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        factors = paired + factors[len(paired) * 2 :]
    return factors[0] if factors else 1


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
    """The Theorem 3 bound next to the observed count.  The arguments are
    checked first, then the theorem's premise: level r must hold a
    consecutive gap-g pair, searched for by ``census.find_root_pair``,
    which reads the level-r window's first segment or a few more.  P_k
    and P_{k+1} are the primes on either side of sqrt(P_l#), found by
    ``is_prime``.  The count runs next, and refuses a window past the
    budget before that window is sieved; only then do P_1, ..., P_k come
    from one sieve to sqrt(P_l#) and the exact bound get built: past
    l = 10 the bound alone takes seconds to minutes, and a refusal must
    not wait for it."""
    if l < 3:
        raise ValueError(f"level must be >= 3, got {l}")
    _require_root(r, l, g)
    if find_root_pair(r, g, budget) is None:
        raise ValueError(f"no gap-{g} pair at level {r}")
    root = math.isqrt(primorial(l))
    p_k, p_next = root, root + 1
    while not is_prime(p_k):
        p_k -= 1
    while not is_prime(p_next):
        p_next += 1
    observed = actual_pair_count(g, p_k, p_next**2, budget=budget)
    bound = _lower_bound(r, l, g, sieve_primes(root, budget))
    return BoundReport(
        r=r, l=l, g=g, k=bound.k, window=(p_k, p_next**2),
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
    exceeds m and whose upper member is at most search_limit, or None if
    there is none; search_limit must exceed m.

    The first budget integers above m are searched by
    ``arith.first_pair_with_gap``, which refuses when they hold no pair
    and the limit lies beyond them.
    """
    require_gap(g)
    if search_limit <= m:
        raise ValueError(f"search limit {search_limit} must exceed {m}")
    return first_pair_with_gap(prime_segments, m + 1, search_limit, g, budget)


@dataclass
class SquareReport:
    level: int
    holds: bool
    least_composite: int  # least composite prospective prime at this level


def verify_prospective_below_square(k: int) -> SquareReport:
    """Check that every prospective prime of level k strictly between
    P_k and P_{k+1}^2 is prime, and locate the least composite
    prospective prime (which should be exactly P_{k+1}^2).

    The values coprime to P_k# above P_k come from
    ``wheel.next_prospective``, whose walk runs on past the window when
    it ends before the square (which happens at k = 3)."""
    n = next_prospective(nth_prime(k) + 1, k)
    while is_prime(n):
        n = next_prospective(n + 1, k)
    return SquareReport(level=k, holds=n >= nth_prime(k + 1) ** 2, least_composite=n)


def consecutive_primes_as_prospective(k: int) -> bool:
    """True iff P_k and P_{k+1} sit adjacent in the level-(k-1)
    prospective stream, as ``wheel.is_consecutive`` walks it."""
    if nth_prime(k) <= 3:
        raise ValueError(f"need P_k > 3, got level {k}")
    return is_consecutive((nth_prime(k), nth_prime(k + 1)), k - 1)
