import math
import random

import pytest

from polignac.arith import primorial
from polignac.codec import CoeffVector, decode, encode
from polignac.wheel import enumerate_prospective, is_prospective


def is_admissible(cv):
    """The codec's admissibility: the decoded value is prospective."""
    return is_prospective(decode(cv), cv.level)


def test_encode_examples():
    assert encode(113, 4) == CoeffVector(base=5, digits=(3, 3), level=4)
    assert encode(7, 4) == CoeffVector(base=7, digits=(0, 0), level=4)
    assert encode(2221, 5) == CoeffVector(base=7, digits=(4, 3, 10), level=5)


def test_decode_examples():
    assert decode(CoeffVector(5, (0, 0), 4)) == 5
    assert decode(CoeffVector(5, (3, 3), 4)) == 113
    assert decode(CoeffVector(7, (4, 3, 10), 5)) == 2221


def test_encode_rejects_non_coprime():
    with pytest.raises(ValueError):
        encode(12, 4)
    with pytest.raises(ValueError):
        encode(15, 4)


def test_encode_rejects_outside_window():
    with pytest.raises(ValueError):
        encode(215, 4)


def test_digit_range_enforced():
    with pytest.raises(ValueError):
        CoeffVector(5, (5, 0), 4)  # m_3 must be < 5
    with pytest.raises(ValueError):
        CoeffVector(6, (0, 0), 4)


def test_digit_count_enforced():
    with pytest.raises(ValueError, match=r"^level 4 needs 2 digits, got 1$"):
        CoeffVector(5, (0,), 4)


@pytest.mark.parametrize("k", [1, 0, -1])
def test_level_below_2_refused(k):
    # Refused first, in the wording of every other level refusal, not by
    # the digit count or the primorial index.
    with pytest.raises(ValueError, match=rf"^level must be >= 2, got {k}$"):
        encode(5, k)
    with pytest.raises(ValueError, match=rf"^level must be >= 2, got {k}$"):
        CoeffVector(5, (), k)


def test_is_admissible_examples():
    assert is_admissible(encode(121, 4))
    assert not is_admissible(encode(25, 3))
    assert not is_admissible(encode(121, 5))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_roundtrip_exhaustive(k):
    for n in range(5, 5 + primorial(k)):
        if math.gcd(n, 6) == 1:
            assert decode(encode(n, k)) == n


def test_roundtrip_randomized_level_9():
    rng = random.Random(20260823)
    hi = 4 + primorial(9)
    for _ in range(10_000):
        n = rng.randrange(5, hi + 1)
        n -= n % 6
        n += rng.choice((1, 5))
        if n < 5 or n > hi:
            continue
        assert decode(encode(n, 9)) == n


def test_encode_decode_identity_on_vectors():
    rng = random.Random(7)
    for _ in range(2000):
        k = rng.randint(3, 7)
        from polignac.arith import nth_prime

        digits = tuple(rng.randrange(nth_prime(j)) for j in range(3, k + 1))
        cv = CoeffVector(rng.choice((5, 7)), digits, k)
        assert encode(decode(cv), k) == cv


@pytest.mark.parametrize("k", [3, 4, 5])
def test_admissible_set_equals_prospective_stream(k):
    from polignac.arith import nth_prime
    from itertools import product

    radices = [range(nth_prime(j)) for j in range(3, k + 1)]
    admissible = sorted(
        decode(cv)
        for base in (5, 7)
        for digits in product(*radices)
        if is_admissible(cv := CoeffVector(base, tuple(digits), k))
    )
    assert admissible == list(enumerate_prospective(k))
