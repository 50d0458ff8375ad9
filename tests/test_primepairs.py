import math
from fractions import Fraction

import pytest

from polignac.arith import nth_prime, primorial
from polignac.census import gap_census
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
