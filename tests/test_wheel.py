import math

import pytest

from polignac.arith import nth_prime, primorial
from polignac.wheel import (
    WheelWindow,
    enumerate_prospective,
    is_prospective,
    mhat,
    propagate,
    subset_extremes,
    subset_of,
)
from conftest import mhat_by_alpha_search, oracle_prospective


def test_window_geometry():
    for k in range(2, 9):
        window = WheelWindow(k)
        assert window.hi - window.lo + 1 == primorial(k)
        assert window.subset_count * window.subset_width == primorial(k)


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
        for m in range(p_next):
            result = propagate(p_tilde, k, m)
            assert subset_of(result.value, k + 1) == m
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
