"""Mixed-radix coefficient representation of wheel numbers.

Every n in the level-k window with gcd(n, 6) = 1 decomposes uniquely as

    base + sum_{j=3..k} m_j * P_{j-1}#      base in {5, 7},  0 <= m_j < P_j

(base 5 for n = 5 mod 6, base 7 for n = 1 mod 6).  The digit vector is
admissible exactly when the decoded value is coprime to P_k#, i.e. the
number is a prospective prime at level k: is_prospective(decode(cv), k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import nth_prime, primorial


@dataclass(frozen=True)
class CoeffVector:
    base: int  # 5 or 7
    digits: tuple[int, ...]  # m_3 .. m_level
    level: int

    def __post_init__(self) -> None:
        if self.level < 2:
            raise ValueError(f"level must be >= 2, got {self.level}")
        if self.base not in (5, 7):
            raise ValueError(f"base must be 5 or 7, got {self.base}")
        if len(self.digits) != self.level - 2:
            raise ValueError(
                f"level {self.level} needs {self.level - 2} digits, "
                f"got {len(self.digits)}"
            )
        for j, digit in enumerate(self.digits, start=3):
            if not 0 <= digit <= nth_prime(j) - 1:
                raise ValueError(f"digit m_{j}={digit} outside [0, {nth_prime(j) - 1}]")


def encode(n: int, k: int) -> CoeffVector:
    """Digit vector of n at level k; n must lie in the window and be
    coprime to 6."""
    if k < 2:
        raise ValueError(f"level must be >= 2, got {k}")
    if math.gcd(n, 6) != 1:
        raise ValueError(f"{n} is divisible by 2 or 3; not representable")
    if not 5 <= n <= 4 + primorial(k):
        raise ValueError(f"{n} outside level-{k} window")
    base = 5 if n % 6 == 5 else 7
    rest = n - base
    digits = tuple(
        (rest // primorial(j - 1)) % nth_prime(j) for j in range(3, k + 1)
    )
    return CoeffVector(base=base, digits=digits, level=k)


def decode(cv: CoeffVector) -> int:
    """Inverse of encode; digit-range checks live in CoeffVector itself."""
    return cv.base + sum(
        digit * primorial(j - 1) for j, digit in enumerate(cv.digits, start=3)
    )
