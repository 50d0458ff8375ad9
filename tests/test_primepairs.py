import json
import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from polignac import arith, primepairs
from polignac.arith import nth_prime, primorial
from polignac.census import find_root_pair, gap_census
from polignac.cli import main
from polignac.primepairs import (
    actual_pair_count,
    bound_report,
    consecutive_primes_as_prospective,
    find_pair_above,
    growth_ratio,
    k_for_level,
    theorem3_lower_bound,
    verify_prospective_below_square,
)
from conftest import oracle_primes
from test_arith import deadline


def test_k_for_level_examples():
    assert k_for_level(3) == 3
    assert k_for_level(4) == 6
    assert k_for_level(5) == 15


@pytest.mark.parametrize("l", [3, 4, 5])
def test_square_sandwich(l):
    k = k_for_level(l)
    assert nth_prime(k) ** 2 < primorial(l) < nth_prime(k + 1) ** 2


def test_actual_pair_count_examples(small_primes):
    assert actual_pair_count(2, 5, 49) == 4
    assert actual_pair_count(6, 0, 30) == 1
    assert actual_pair_count(2, 3, 5) == 0


def test_actual_pair_count_against_oracle(small_primes):
    in_window = [p for p in small_primes if p < 3000]
    expected = sum(
        1
        for q, q2 in zip(in_window, in_window[1:])
        if q > 47 and q2 < 2809 and q2 - q == 2
    )
    assert actual_pair_count(2, 47, 2809) == expected


def test_theorem3_lower_bound_examples():
    assert float(theorem3_lower_bound(2, 5, 2).exact) == pytest.approx(43.6, abs=0.05)
    assert theorem3_lower_bound(2, 4, 2).exact == Fraction(15 * 3 * 7, 5 * 9)
    # 7 | 14: its factor is (7 - 4) / (7 - 1); n(4) = (5 - 2)(7 - 1) = 18.
    assert theorem3_lower_bound(2, 4, 14).exact == Fraction(18 * 3 * 7, 6 * 9)
    assert theorem3_lower_bound(2, 2, 2).exact == 1


@pytest.mark.parametrize("l", range(2, 11))
def test_theorem3_lower_bound_k_is_k_for_level(l):
    # k = pi(isqrt(P_l#)) at every level, l = 2 included, where
    # isqrt(6) = 2 gives k = 1 < l and the bound multiplies no primes.
    assert theorem3_lower_bound(2, l, 2).k == k_for_level(l)


@pytest.mark.parametrize("l", [6, 7, 8, 9, 10])
@pytest.mark.parametrize("r, g", [(2, 2), (3, 6), (4, 30)])
def test_theorem3_lower_bound_matches_oracle_product(r, l, g):
    # P_1..P_k are the oracle primes up to sqrt(P_l#); the bound is
    # n_l * prod (p - 4) / prod (p - 1 or p - 2) over P_l <= p < P_k.
    primes = oracle_primes(math.isqrt(math.prod(oracle_primes(30)[:l])))
    n_l = math.prod(p - 1 if g % p == 0 else p - 2 for p in primes[r:l])
    factors = primes[l - 1 : -1]
    want = Fraction(
        n_l * math.prod(p - 4 for p in factors),
        math.prod(p - 1 if g % p == 0 else p - 2 for p in factors),
    )
    bound = theorem3_lower_bound(r, l, g)
    assert (bound.exact, bound.k, bound.n_root) == (want, len(primes), n_l)


def test_theorem3_lower_bound_rejects_bad_args():
    with pytest.raises(ValueError):
        theorem3_lower_bound(3, 2, 2)
    with pytest.raises(ValueError):
        theorem3_lower_bound(2, 4, 3)


def test_bound_reports_hold():
    # r chosen as the least level whose window holds a gap-g pair
    for l in (3, 4, 5):
        for g, r in ((2, 2), (4, 3), (6, 3)):
            if r > l:
                continue
            report = bound_report(r, l, g)
            assert report.observed >= math.ceil(report.bound), (l, g)


def test_bound_report_rejects_level_below_3():
    with pytest.raises(ValueError):
        bound_report(2, 2, 2)


def test_bound_report_fields():
    report = bound_report(2, 5, 2)
    assert (report.r, report.l, report.g, report.k) == (2, 5, 2, 15)
    assert report.window == (47, 2809)
    assert report.n_root == 135
    payload = report.to_json_dict()
    assert payload["observed"] == str(report.observed)
    assert payload["k"] == 15


def counted_tallies(monkeypatch):
    """The calls bound_report makes to prime_gap_tally from now on, with
    its kept window cleared."""
    calls = []

    def counted(*args):
        calls.append(args)
        return tally(*args)

    tally = primepairs.prime_gap_tally
    monkeypatch.setattr(primepairs, "prime_gap_tally", counted)
    primepairs._window_gaps.cache_clear()
    return calls


def test_bound_report_sieves_each_window_once(monkeypatch):
    # Every gap asked of one level, each with the least level r holding a
    # gap-g pair as its root, is read off one pass over the window.
    calls = counted_tallies(monkeypatch)
    gaps = (2, 4, 6, 8, 10, 12)
    roots = {g: next(r for r in range(2, 6) if find_root_pair(r, g)) for g in gaps}
    for l in (5, 6, 7):
        reports = [bound_report(roots[g], l, g) for g in gaps]
        lo, hi = reports[0].window
        primes = [q for q in oracle_primes(hi - 1) if q > lo]
        found = Counter(b - a for a, b in zip(primes, primes[1:]))
        assert [report.observed for report in reports] == [found[g] for g in gaps], l
        assert len(calls) == l - 4, l


def test_bound_report_warm_window_changes_no_refusal(monkeypatch):
    calls = counted_tallies(monkeypatch)
    with pytest.raises(ValueError, match="sieve budget") as cold:
        bound_report(2, 8, 2, budget=10**6)
    report = bound_report(2, 8, 2)
    with pytest.raises(ValueError, match="sieve budget") as warm:
        bound_report(2, 8, 2, budget=10**6)
    assert str(warm.value) == str(cold.value)
    assert len(calls) == 3
    bound_report(3, 8, 4)
    assert len(calls) == 3
    # One window is kept: a call at l = 7 replaces level 8's.
    bound_report(2, 7, 2)
    bound_report(3, 8, 6)
    assert len(calls) == 5
    counts = primepairs._window_gaps(*report.window, primepairs.SIEVE_BUDGET)
    assert len(calls) == 5
    with pytest.raises(ValueError):
        counts[2] = 0


def test_bound_report_past_budget_refused_cheaply(monkeypatch):
    # At l = 13 and 14 the window (P_k, P_{k+1}^2) spans about 3e14 and
    # 1.3e16 integers, so the count is refused.  P_k and P_{k+1} (k ~ 1.1e6
    # and 6.5e6) come from is_prime on either side of sqrt(P_l#), and the
    # window is refused before anything is sieved: no table of a million
    # Python ints, and no int64 array of the primes up to sqrt(P_l#),
    # 9 MB at l = 13 and 52 MB at l = 14.
    def no_pass(*args):
        raise AssertionError("a sieve pass ran before the refusal")

    monkeypatch.setattr(arith, "_PRIMES", [])
    monkeypatch.setattr(arith, "_PRIMORIALS", [])
    monkeypatch.setattr(arith, "map_segments", no_pass)
    for l in (13, 14):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="sieve budget"):
                bound_report(2, l, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, l
    assert len(arith._PRIMES) < 100


def test_growth_ratio_paper_anchors():
    assert growth_ratio(9) == pytest.approx(1.4, abs=0.1)
    assert growth_ratio(10) == pytest.approx(4.5, abs=0.1)
    assert growth_ratio(15) == pytest.approx(18.7, abs=0.1)


def test_growth_ratio_monotone():
    values = [growth_ratio(l) for l in range(8, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_growth_ratio_rejects_small_level():
    with pytest.raises(ValueError):
        growth_ratio(7)


def test_find_pair_above_examples():
    assert find_pair_above(2, 100, 10**4) == (101, 103)
    assert find_pair_above(6, 0, 10**3) == (23, 29)
    assert find_pair_above(2, 3, 4) is None


def test_find_pair_above_is_least():
    pair = find_pair_above(4, 100, 10**4)
    assert pair == (103, 107)


def test_find_pair_above_budget_is_exact():
    # The search covers (M, M + budget]: the pair is found once its
    # upper member is inside and refused one integer short, and a
    # budget that covers the whole range answers None for an absent gap.
    primes = oracle_primes(2000)
    for g in (14, 22, 34):
        q, r = next((q, r) for q, r in zip(primes, primes[1:]) if r - q == g)
        for m in (0, q // 2):
            assert find_pair_above(g, m, 2000, budget=r - m) == (q, r)
            with pytest.raises(ValueError, match="sieve budget"):
                find_pair_above(g, m, 2000, budget=r - m - 1)
        assert find_pair_above(g, 0, r - 1, budget=r - 1) is None
        with pytest.raises(ValueError, match="sieve budget"):
            find_pair_above(g, 0, r - 1, budget=r - 2)


# P_1 = 2 is the one even P_k: a scan from P_k + 2 in steps of 2 read
# only even values and never returned.  The scan starts at the first odd
# value above P_k, and level 1 meets the same closed form, 9 = P_2^2.
@pytest.mark.parametrize("k", [1, 3, 4, 5, 6])
def test_below_square(k):
    with deadline(1.0):
        report = verify_prospective_below_square(k)
    assert report.holds
    assert report.least_composite == nth_prime(k + 1) ** 2


# Level 11 reads a range of a few dozen values from the level-10 window.
@pytest.mark.parametrize("k", [3, 4, 5, 6, 11, 16])
def test_consecutive_primes_as_prospective(k):
    assert consecutive_primes_as_prospective(k)


def test_consecutive_primes_as_prospective_refuses_level_2():
    with pytest.raises(ValueError, match=r"^need P_k > 3, got level 2$"):
        consecutive_primes_as_prospective(2)


def test_section5_gap_coverage():
    for k in range(3, 7):
        p_k = nth_prime(k)
        census_k = gap_census(k).entries
        assert p_k - 1 in census_k
        assert p_k + 1 in census_k
        assert nth_prime(k + 1) - p_k in gap_census(k - 1).entries


def twin_pairs_between(lo, hi, chunk=1 << 22):
    """Twin primes (q, q + 2) with lo < q and q + 2 < hi, lo >= 2, by an
    odd-only segmented sieve that shares no code with polignac.  Index i
    of a chunk's flags is the odd number c + 2i."""
    assert lo >= 2
    root = math.isqrt(hi)
    flags = np.ones(root + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    odd_primes = np.flatnonzero(flags)[1:].tolist()
    first, last = (lo + 1) | 1, (hi - 1) - ((hi - 1) % 2 == 0)
    twins, carry = 0, False
    for c in range(first, last + 1, 2 * chunk):
        size = min(chunk, (last - c) // 2 + 1)
        odd = np.ones(size, dtype=bool)
        for p in odd_primes:
            m = max(p * p, -(-c // p) * p)  # least multiple >= c, p^2, made odd
            if m % 2 == 0:
                m += p
            odd[(m - c) // 2 :: p] = False
        twins += int(np.count_nonzero(odd[:-1] & odd[1:])) + (carry and bool(odd[0]))
        carry = bool(odd[-1])
    return twins


def test_twin_counter_oracle():
    # Twin primes in (lo, hi) by trial division, on windows whose chunk
    # edges fall between the two members of a pair.
    for lo, hi, chunk in ((2, 500, 4), (100, 2000, 8), (1000, 10**4, 5), (10**4, 10**5, 1 << 22)):
        odd = [n for n in range(lo + 1, hi, 2) if all(n % d for d in range(3, math.isqrt(n) + 1, 2))]
        want = sum(1 for a, b in zip(odd, odd[1:]) if b - a == 2)
        assert twin_pairs_between(lo, hi, chunk) == want, (lo, hi)


@pytest.mark.slow
def test_theorem3_fails_at_level_10(capsys):
    # The transcribed Theorem 3 bound at l = 10 exceeds the twin pairs
    # actually found in its window, so `bounds` reports holds False and
    # exits 2.  The window spans 6.5e9 integers: minutes on one core.
    argv = ["--budget", "7000000000", "bounds", "-r", "2", "-l", "10", "-g", "2", "--format", "json"]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    lo, hi = map(int, payload["window"])
    observed = int(payload["observed"])
    assert observed == twin_pairs_between(lo, hi)
    assert payload["holds"] is False
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        bound = Fraction(payload["bound_exact"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert math.ceil(bound) > observed
