import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from polignac.arith import nth_prime, primorial
from polignac.census import gap_census
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
    assert theorem3_lower_bound(2, 2, 2).exact == 1


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


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_below_square(k):
    report = verify_prospective_below_square(k)
    assert report.holds
    assert report.least_composite == nth_prime(k + 1) ** 2


# Level 11 reads a range of a few dozen values from the level-10 window.
@pytest.mark.parametrize("k", [3, 4, 5, 6, 11, 16])
def test_consecutive_primes_as_prospective(k):
    assert consecutive_primes_as_prospective(k)


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
