import bisect
import contextlib
import math
import signal
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polignac import arith
from polignac.arith import (
    is_prime,
    nth_prime,
    prime_count_pi,
    primorial,
)
from polignac.primepairs import k_for_level
from conftest import oracle_primes


def test_nth_prime_examples():
    assert nth_prime(1) == 2
    assert nth_prime(4) == 7
    assert nth_prime(15) == 47


def test_nth_prime_against_sieve(small_primes):
    for i, p in enumerate(small_primes[:500], start=1):
        assert nth_prime(i) == p


def test_nth_prime_rejects_bad_index():
    with pytest.raises(ValueError):
        nth_prime(0)


def test_nth_prime_answers_what_an_empty_table_answers(monkeypatch):
    # A miss sieves for the asked index alone, whatever the table holds.
    # Under a 20 000 integer budget the table holds 1 102 primes after
    # nth_prime(1000); a sieve for twice the table, to 21 465, would be
    # refused, but index 1103 sieves to 9 875.
    sieve = arith.sieve_primes
    monkeypatch.setattr(arith, "_PRIMES", [])
    monkeypatch.setattr(
        arith, "sieve_primes", lambda limit, budget=20000: sieve(limit, min(budget, 20000))
    )
    assert nth_prime(1000) == 7919 and len(arith._PRIMES) == 1102
    assert nth_prime(1103) == 8849
    with pytest.raises(ValueError, match="exceeds the sieve budget of 20000"):
        nth_prime(3000)  # its own sieve, to 28 230, is past the budget


def test_nth_prime_answers_every_prime_inside_the_budget(monkeypatch):
    # Rosser's bound overshoots p_i: under a 20 000 integer budget it
    # passes 20 000 from i = 2 129 on, while p_2262 = 19 997 is the last
    # prime inside.  The sieve stops at the budget, so all of them are
    # answered, each from an empty table, and i = 2 263 is refused.
    # sieve_primes is held to the same budget, so a sieve past it fails.
    primes = oracle_primes(20000)
    assert len(primes) == 2262 and primes[-1] == 19997
    sieve = arith.sieve_primes
    monkeypatch.setattr(arith, "SIEVE_BUDGET", 20000)
    monkeypatch.setattr(
        arith, "sieve_primes", lambda limit, budget=20000: sieve(limit, min(budget, 20000))
    )
    for i in range(2129, 2263):
        monkeypatch.setattr(arith, "_PRIMES", [])
        assert nth_prime(i) == primes[i - 1], i
    monkeypatch.setattr(arith, "_PRIMES", [])
    with pytest.raises(ValueError, match="index 2263 exceeds the sieve budget of 20000 integers"):
        nth_prime(2263)
    # Past Dusart's bound on pi(20 000), 2 279.7, nothing is sieved.
    monkeypatch.setattr(arith, "sieve_primes", None)
    with pytest.raises(ValueError, match="index 2280 exceeds the sieve budget"):
        nth_prime(2280)


def test_primorial_examples():
    assert primorial(1) == 2
    assert primorial(4) == 210
    assert primorial(5) == 2310


def test_primorial_bound():
    with pytest.raises(ValueError):
        primorial(26)


def test_primorial_and_pi_refuse_below_their_range():
    with pytest.raises(ValueError, match=r"^primorial index must be >= 1, got 0$"):
        primorial(0)
    with pytest.raises(ValueError, match=r"^pi\(x\) needs x >= 0, got -1$"):
        prime_count_pi(-1)


def test_primorial_divisibility():
    for k in range(1, 12):
        value = primorial(k)
        for j in range(1, k + 1):
            assert value % nth_prime(j) == 0
        assert value % nth_prime(k + 1) != 0


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(961)  # 31^2
    assert is_prime(2003)


def test_is_prime_matches_trial_division_exhaustive(small_primes):
    prime_set = set(small_primes)
    for n in range(10**6 + 1):
        assert is_prime(n) == (n in prime_set)


def test_is_prime_below_43_squared_needs_no_miller_rabin(small_primes, monkeypatch):
    # Trial division by the witnesses, the primes up to 41, decides every
    # n below 43^2 = 1849: a composite there has a factor up to 41.
    def no_miller_rabin(n):
        raise AssertionError(f"Miller-Rabin ran on {n}")

    monkeypatch.setattr(arith, "_miller_rabin", no_miller_rabin)
    prime_set = set(small_primes)
    for n in range(43 * 43):
        assert is_prime(n) == (n in prime_set)


def test_is_prime_above_64_bits():
    assert is_prime((1 << 61) - 1)  # Mersenne prime
    assert not is_prime((1 << 64) + 1)  # 274177 * 67280421310721, Miller-Rabin


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang, when the body runs longer than `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_is_prime_psi12_needs_base_41():
    # 399165290221 * 798330580441: a strong pseudoprime to every base 2..37
    with deadline(1.0):
        assert not is_prime(318665857834031151167461)


def test_is_prime_large_prime_is_fast():
    with deadline(1.0):
        assert is_prime((1 << 64) + 13)  # least prime above 2^64
        assert is_prime((1 << 71) - 231)  # a prime just below 2^71


def test_is_prime_refuses_from_psi13():
    psi13 = 3317044064679887385961981
    with deadline(1.0):
        assert is_prime(psi13 - 168)  # the largest prime below psi_13
        with pytest.raises(ValueError):
            is_prime(psi13)


def test_pi_examples():
    assert prime_count_pi(2) == 1
    assert prime_count_pi(48) == 15
    assert prime_count_pi(714) == 127


def test_pi_against_sieve(small_primes):
    for x in (0, 1, 2, 10, 97, 1000, 65537, 10**6):
        assert prime_count_pi(x) == bisect.bisect_right(small_primes, x)


def test_pi_around_prime_squares(small_primes):
    # Lucy's recursion strikes p at p^2: check both sides of every square.
    for p in (q for q in small_primes if q <= 1000):
        for x in (p * p - 1, p * p, p * p + 1):
            assert prime_count_pi(x) == bisect.bisect_right(small_primes, x), x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_pi_matches_sieve_oracle(small_primes, x):
    assert prime_count_pi(x) == bisect.bisect_right(small_primes, x)


# pi(10^k), OEIS A006880.
PUBLISHED_PI = [0, 4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534, 455052511]


def test_pi_published_powers_of_ten():
    for k, count in enumerate(PUBLISHED_PI):
        assert prime_count_pi(10**k) == count, k


def test_pi_every_x_below_20000(small_primes):
    for x in range(2 * 10**4):
        assert prime_count_pi(x) == bisect.bisect_right(small_primes, x), x


@pytest.fixture(scope="module")
def primes_past_300_cubed():
    return oracle_primes(300**3 + 1)


def test_pi_around_cubes(primes_past_300_cubed):
    # The primes up to c = icbrt(x) are struck one by one and those above
    # it in one step: check both sides of every cube.
    for c in range(1, 301):
        for x in (c**3 - 1, c**3, c**3 + 1):
            assert prime_count_pi(x) == bisect.bisect_right(primes_past_300_cubed, x), x


def test_k_for_level_against_sieve(primes_past_300_cubed):
    # pi(isqrt(P_l#)): x = 5, 14, 48, ..., 14936 for l <= 9, and about
    # 2.7e6 at l = 12.
    primes = primes_past_300_cubed
    for l in range(3, 13):
        x = math.isqrt(math.prod(primes[:l]))
        assert k_for_level(l) == bisect.bisect_right(primes, x), l


def test_pi_memory_linear_in_root():
    # Lucy's two arrays take 16 r bytes, r = isqrt(x), and every
    # temporary of the count is O(r), so it stays within 128 r bytes,
    # 12.2 MiB at x = 10^10.
    tracemalloc.start()
    try:
        assert prime_count_pi(10**10) == PUBLISHED_PI[10]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 10**5


def test_pi_peak_is_lucy_arrays():
    # Lucy's two arrays take 16 r bytes, r = isqrt(x) = 10^5, and building
    # large from x // arange(1, r + 1) holds 16 r more for a moment.  P2 is
    # read off the two arrays, so no other array comes near them.
    tracemalloc.start()
    try:
        assert prime_count_pi(10**10) == PUBLISHED_PI[10]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 10**5


def test_pi_sieves_nothing(monkeypatch):
    # k_for_level reaches levels whose sqrt(P_l#) is past the sieve budget
    # only because pi strikes no mask at all.
    def refuse(*args, **kwargs):
        raise AssertionError("prime_count_pi sieved")

    for name in ("_strike", "strike_segments", "sieve_primes"):
        monkeypatch.setattr(arith, name, refuse)
    assert prime_count_pi(10**8) == PUBLISHED_PI[8]
    assert prime_count_pi(10**10) == PUBLISHED_PI[10]


def test_pi_budget():
    # The work unit is r * isqrt(r) with r = isqrt(x), about x^(3/4):
    # at 10^9 that is 31622 * 177.
    assert prime_count_pi(10**9, budget=31622 * 177) == PUBLISHED_PI[9]
    with pytest.raises(ValueError, match="sieve budget"):
        prime_count_pi(10**9, budget=31622 * 177 - 1)
    # The default 2^28 admits r up to 416179 (x < 1.73e11), and refusing
    # past it allocates nothing.
    assert 416179 * 645 <= 1 << 28 < 416180 * 645
    with deadline(1.0), pytest.raises(ValueError, match="sieve budget"):
        prime_count_pi(416180**2)
    with pytest.raises(ValueError, match="int64"):
        prime_count_pi(1 << 63, budget=1 << 100)
