"""Shared brute-force oracles, kept deliberately independent of the
library's sieving/enumeration paths."""

from itertools import compress
from math import gcd

import pytest

from polignac.arith import nth_prime, primorial


def oracle_primes(limit):
    """Primes <= limit by the plain sieve of Eratosthenes, one flag byte
    per integer."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), flags))


def oracle_prospective(k, lo=None, hi=None):
    """Prospective primes of level k by per-value trial division."""
    wheel = [nth_prime(i) for i in range(1, k + 1)]
    lo = 5 if lo is None else max(lo, 5)
    hi = 4 + primorial(k) if hi is None else min(hi, 4 + primorial(k))
    return [n for n in range(lo, hi + 1) if all(n % p for p in wheel)]


def mhat_by_alpha_search(p_tilde, k_next):
    """Definitional disallowed index: the m making propagation divisible
    by P_{k_next}, found by scanning alpha."""
    p = nth_prime(k_next)
    step = primorial(k_next - 1) % p
    residue = p_tilde % p
    for alpha in range(p):
        numerator = alpha * p - residue
        if numerator % step == 0 and 0 <= numerator // step <= p - 1:
            return numerator // step, alpha
    raise AssertionError("no disallowed index found")


def oracle_lineage(root, l, k):
    """Leaves of the gap-g lineage of root = (a, a + g) from level l to k,
    increasing, as (pair, steps) with one (level, m, disallowed) per level
    entered.  The leaves are the x = a (mod P_l#) of the level-k window
    with x and x + g coprime to P_{l+1}..P_k; the m are the mixed-radix
    digits of (x - a) / P_l#, and each step's disallowed pair is the
    alpha-search index of the ancestor x_j and of x_j + g."""
    a, b = root
    g = b - a
    cofactor = primorial(k) // primorial(l)
    leaves = []
    for t in range(cofactor):
        x = a + t * primorial(l)
        if gcd(x * (x + g), cofactor) != 1:
            continue
        steps, digits = [], t
        for j in range(l, k):
            ancestor = 5 + (x - 5) % primorial(j)
            digits, m = divmod(digits, nth_prime(j + 1))
            disallowed = tuple(mhat_by_alpha_search(q, j + 1)[0] for q in (ancestor, ancestor + g))
            steps.append((j + 1, m, disallowed))
        leaves.append(((x, x + g), tuple(steps)))
    return leaves


@pytest.fixture(scope="session")
def small_primes():
    return oracle_primes(10**6)
