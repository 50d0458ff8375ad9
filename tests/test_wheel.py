import math

import numpy as np
import pytest

from polignac import wheel
from polignac.arith import nth_prime, primorial
from polignac.census import classify_propagation, subset_gap_spectrum
from polignac.primepairs import consecutive_primes_as_prospective, verify_prospective_below_square
from polignac.wheel import (
    enumerate_prospective,
    is_consecutive,
    is_prospective,
    mhat,
    next_prospective,
    propagate,
    subset_bounds,
    subset_extremes,
    subset_of,
    window_bounds,
)
from conftest import mhat_by_alpha_search, oracle_prospective


def test_window_geometry():
    # The P_k subsets tile the window, each P_{k-1}# wide.
    for k in range(2, 9):
        lo, hi = window_bounds(k)
        assert (lo, hi - lo + 1) == (5, primorial(k))
        subsets = [subset_bounds(k, m) for m in range(nth_prime(k))]
        assert subsets[0][0] == lo and subsets[-1][1] == hi
        assert all(b - a + 1 == primorial(k - 1) for a, b in subsets)
        assert all(b + 1 == c for (_, b), (c, _) in zip(subsets, subsets[1:]))
    for m in (-1, 7):
        with pytest.raises(ValueError, match=rf"^subset {m} outside \[0, 6\] at level 4$"):
            subset_bounds(4, m)


def test_is_prospective_examples():
    assert is_prospective(121, 4)
    assert not is_prospective(5, 3)
    assert is_prospective(209, 4)  # 11 * 19, coprime to 210


def test_is_prospective_outside_window():
    assert not is_prospective(4, 4)
    assert not is_prospective(215, 4)


def test_is_prospective_refuses_level_below_2():
    with pytest.raises(ValueError, match=r"^level must be >= 2, got 1$"):
        is_prospective(7, 1)


def test_enumerate_small_windows():
    assert list(enumerate_prospective(2)) == [5, 7]
    assert list(enumerate_prospective(3)) == [7, 11, 13, 17, 19, 23, 29, 31]
    assert len(list(enumerate_prospective(4))) == 48


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_enumerate_matches_trial_division(k):
    assert list(enumerate_prospective(k)) == oracle_prospective(k)


def test_enumerate_subrange():
    assert list(enumerate_prospective(4, 95, 130)) == oracle_prospective(4, 95, 130)


def test_enumerate_cap():
    with pytest.raises(ValueError):
        list(enumerate_prospective(10))


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_totient_count(k):
    expected = math.prod(nth_prime(i) - 1 for i in range(1, k + 1))
    assert sum(1 for _ in enumerate_prospective(k)) == expected


def test_mhat_table_values():
    assert mhat(113, 5).value == 8
    assert mhat(121, 5).value == 0
    assert mhat(127, 5).value == 5


def test_mhat_zero_alpha_iff_divisible():
    for p_tilde in oracle_prospective(4):
        d = mhat(p_tilde, 5)
        assert (d.alpha == 0) == (p_tilde % 11 == 0)


def test_mhat_matches_alpha_search():
    for k_next in range(5, 9):
        for p_tilde in oracle_prospective(4):
            value, alpha = mhat_by_alpha_search(p_tilde, k_next)
            d = mhat(p_tilde, k_next)
            assert (d.value, d.alpha) == (value, alpha)


def test_mhat_constant_on_residue_classes():
    p = nth_prime(5)
    by_class = {}
    for p_tilde in oracle_prospective(4):
        by_class.setdefault(p_tilde % p, set()).add(mhat(p_tilde, 5).value)
    assert all(len(v) == 1 for v in by_class.values())
    values = [next(iter(v)) for v in by_class.values()]
    assert len(set(values)) == len(values)


def test_propagate_table_values():
    assert propagate(113, 4, 1) == (323, False)
    assert propagate(113, 4, 8).disallowed
    assert propagate(127, 4, 10) == (2227, False)


def test_propagate_rejects_out_of_range():
    with pytest.raises(ValueError):
        propagate(113, 4, 11)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_propagate_exhaustive(k):
    p_next = nth_prime(k + 1)
    for p_tilde in enumerate_prospective(k):
        hat = mhat(p_tilde, k + 1).value
        for m in range(p_next):
            result = propagate(p_tilde, k, m)
            assert subset_of(result.value, k + 1) == m
            assert result.disallowed == (m == hat)
            if result.disallowed:
                assert result.value % p_next == 0
            else:
                assert is_prospective(result.value, k + 1)


def test_subset_of_examples():
    assert subset_of(5, 4) == 0
    assert subset_of(97, 4) == 3
    assert subset_of(2221, 5) == 10


def test_subset_of_out_of_window():
    with pytest.raises(ValueError):
        subset_of(3, 4)


def test_subset_extremes_examples():
    assert subset_extremes(4, 3) == (97, 121)
    assert subset_extremes(4, 2) == (67, 89)
    assert subset_extremes(5, 0) == (13, 211)
    assert subset_extremes(2, 0) == (5, 5)
    assert subset_extremes(2, 1) == (7, 7)


def test_subset_extremes_rejects_bad_subset():
    with pytest.raises(ValueError):
        subset_extremes(4, 7)
    # Subset 2 of the level-2 window is [9, 10]: 9 = 3^2 and 10 = 2 * 5.
    with pytest.raises(ValueError, match="subset 2 of the level-2 window holds no"):
        subset_extremes(2, 2)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_subset_extremes_match_enumeration_and_closed_forms(k):
    p_k = nth_prime(k)
    width = primorial(k - 1)
    at_minus_one = 0
    for m in range(p_k):
        members = list(enumerate_prospective(k, 5 + m * width, 4 + (m + 1) * width))
        least, greatest = subset_extremes(k, m)
        assert (least, greatest) == (members[0], members[-1])
        expected_min = nth_prime(k + 1) if m == 0 else p_k + m * width
        assert least == expected_min
        assert greatest in ((m + 1) * width + 1, (m + 1) * width - 1)
        if greatest == (m + 1) * width - 1:
            at_minus_one += 1
    assert at_minus_one == 1


# ---------------------------------------------------------------------------
# the walk

@pytest.mark.parametrize("k", range(1, 8))
def test_next_prospective_and_its_mirror_match_gcd(k):
    # Every n of two periods on either side of 0: the walks cross both
    # window ends, and agree with the definition by periodicity beyond.
    # The coprime values, from -2 P_k# - 1 to 2 P_k# + 1, answer by
    # binary search.
    period = primorial(k)
    values = np.arange(-2 * period, 2 * period)
    span = np.arange(-2 * period - 1, 2 * period + 2)
    coprime = span[np.gcd(span, period) == 1]
    up = [next_prospective(n, k) for n in values.tolist()]
    down = [-next_prospective(-n, k) for n in values.tolist()]
    assert np.array_equal(up, coprime[np.searchsorted(coprime, values, "left")])
    assert np.array_equal(down, coprime[np.searchsorted(coprime, values, "right") - 1])


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_is_consecutive_matches_oracle_runs(k):
    members = oracle_prospective(k)
    for length in (1, 2, 3):
        for i in range(len(members) - length + 1):
            assert is_consecutive(tuple(members[i : i + length]), k)
    for a, b, c in zip(members, members[1:], members[2:]):
        assert not is_consecutive((a, c), k)  # skips b
        assert not is_consecutive((a, b, b, c), k)
        assert not is_consecutive((b, a), k)
        assert not is_consecutive((a, c, b), k)
        assert not is_consecutive((a, b + 1), k)
    # Adjacent coprime values, a period either side of the window: a
    # pair is a run exactly when both sit in the window.
    period = primorial(k)
    coprime = [n for n in range(-period, 2 * period) if math.gcd(n, period) == 1]
    for a, b in zip(coprime, coprime[1:]):
        assert is_consecutive((a, b), k) == (5 <= a and b <= 4 + period), (a, b)


def test_walks_sieve_nothing(monkeypatch):
    # The per-value paths answer from the walk: with the sieve made to
    # raise, each gives what it gave with it.
    def calls():
        return (
            [subset_extremes(6, m) for m in range(nth_prime(6))],
            subset_gap_spectrum(7),
            [consecutive_primes_as_prospective(k) for k in range(3, 9)],
            [verify_prospective_below_square(k) for k in range(1, 9)],
            [classify_propagation((113, 121, 127), 4, m) for m in range(nth_prime(5))],
        )

    expected = calls()

    def refuse(*args):
        raise AssertionError("sieved")

    monkeypatch.setattr(wheel, "strike_segments", refuse)
    assert calls() == expected
