"""Reference answers for every benchmark operation.

Nothing here imports polignac.  Each check recomputes the answer by a
route that shares no code with the path under test: closed forms for
full windows, a numpy gcd recount for ranges and subsets, Miller-Rabin
for anything a sieve returned, Lucy's prime-counting recursion for
pi(x), brute-force residue scans for disallowed indices, the frozen
table1 fixture, and parsed CLI output for subprocesses.

Each checker returns None when the answer is right and a one-line
cause when it is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

# Deterministic Miller-Rabin witnesses for every n < 3.3e24 (> 2^81).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def mr_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIMES = [2]


def first_primes(count: int) -> list[int]:
    """The first `count` primes by trial division against earlier ones."""
    n = _PRIMES[-1] + 1
    while len(_PRIMES) < count:
        if all(n % p for p in _PRIMES if p * p <= n):
            _PRIMES.append(n)
        n += 1
    return _PRIMES[:count]


def prime(i: int) -> int:
    """P_i, 1-indexed."""
    return first_primes(i)[i - 1]


def primorial(k: int) -> int:
    return math.prod(first_primes(k))


def odd_sieve(limit: int) -> np.ndarray:
    """Primes <= limit from an odd-only sieve (index i stands for 2i+1)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    half = np.ones((limit + 1) // 2, dtype=bool)
    half[0] = False
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if half[i]:
            p = 2 * i + 1
            half[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(half) + 1)).astype(np.int64)


def prime_pi(n: int) -> int:
    """pi(n) by Lucy_Hedgehog's recursion over the values n // i."""
    if n < 2:
        return 0
    r = math.isqrt(n)
    small = np.arange(-1, r, dtype=np.int64)  # small[v] = S(v), v <= r
    small[0] = 0
    large = np.zeros(r + 1, dtype=np.int64)  # large[i] = S(n // i)
    large[1:] = n // np.arange(1, r + 1, dtype=np.int64) - 1
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue
        sp = small[p - 1]
        p2 = p * p
        lim = min(r, n // p2)
        i = np.arange(1, lim + 1, dtype=np.int64)
        ip = i * p
        inner = np.where(ip <= r, large[np.minimum(ip, r)], small[np.minimum(n // ip, r)])
        large[1 : lim + 1] -= inner - sp
        if p2 <= r:
            v = np.arange(p2, r + 1, dtype=np.int64)
            small[p2:] -= small[v // p] - sp
    return int(large[1])


# ---------------------------------------------------------------------------
# prospective primes by gcd recount

def coprime_values(k: int, lo: int, hi: int) -> np.ndarray:
    """Members of [lo, hi] coprime to P_k#: candidates 6j+1 and 6j+5,
    then numpy gcd against P_k# / 6."""
    j = np.arange(max(lo, 0) // 6, hi // 6 + 1, dtype=np.int64)
    cand = np.empty(2 * len(j), dtype=np.int64)
    cand[0::2] = 6 * j + 1
    cand[1::2] = 6 * j + 5
    cand = cand[(cand >= lo) & (cand <= hi)]
    rest = primorial(k) // 6
    return cand[np.gcd(cand, rest) == 1]


def census_histogram(k: int, lo: int, hi: int) -> dict[int, int]:
    """gap -> count of adjacent level-k prospective primes in [lo, hi],
    clamped to the window [5, 4 + P_k#]."""
    lo, hi = max(lo, 5), min(hi, 4 + primorial(k))
    values = coprime_values(k, lo, hi)
    gaps = np.diff(values)
    counts = np.bincount(gaps) if len(gaps) else np.zeros(0, dtype=np.int64)
    return {int(g): int(c) for g, c in enumerate(counts) if c}


def check_census(k: int, lo: int, hi: int, full: bool, got: dict[int, int]) -> str | None:
    want = census_histogram(k, lo, hi)
    if full:
        pairs = math.prod(p - 1 for p in first_primes(k)) - 1
        twins = math.prod(p - 2 for p in first_primes(k)[2:])
        if sum(got.values()) != pairs or got.get(2, 0) != twins:
            return f"closed forms: pairs {sum(got.values())} != {pairs} or twins {got.get(2)} != {twins}"
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))[:4]
        return f"census differs from gcd recount: {diff}"
    return None


# ---------------------------------------------------------------------------
# sieve-bound answers

def check_pair_above(g: int, m: int, limit: int, got) -> str | None:
    """Walk upward from m with Miller-Rabin to the first consecutive
    prime pair (q, q + g), q > m."""
    q = m + 1
    while not mr_is_prime(q):
        q += 1
    while True:
        nxt = q + 1
        while not mr_is_prime(nxt):
            nxt += 1
        if nxt > limit:
            want = None
            break
        if nxt - q == g:
            want = [q, nxt]
            break
        q = nxt
    if (list(got) if got is not None else None) != want:
        return f"find_pair_above({g}, {m}, {limit}) = {got}, want {want}"
    return None


def check_prime_count(x: int, got: int) -> str | None:
    want = prime_pi(x)
    return None if got == want else f"pi({x}) = {got}, want {want}"


def lineage_count(l: int, k: int, g: int) -> int:
    return math.prod(
        p - 1 if g % p == 0 else p - 2 for p in first_primes(k)[l:]
    )


def lower_bound(r: int, l: int, g: int) -> tuple[int, Fraction]:
    """(k, bound) of the pair lower bound in (P_k, P_{k+1}^2)."""
    n_l = 1 if l == r else lineage_count(r, l, g)
    k = prime_pi(math.isqrt(primorial(l)))
    bound = Fraction(n_l)
    for p in first_primes(k - 1)[l - 1 :]:
        bound *= Fraction(p - 4, p - 2)
        if g % p == 0:
            bound *= Fraction(p - 2, p - 1)
    return k, bound


def check_theorem3(r: int, l: int, g: int, got: str) -> str | None:
    _, bound = lower_bound(r, l, g)
    want = f"{bound.numerator}/{bound.denominator}"
    return None if got == want else f"theorem3({r}, {l}, {g}) = {got}, want {want}"


def check_bound_report(r: int, l: int, g: int, got: dict) -> str | None:
    k, bound = lower_bound(r, l, g)
    lo, hi = prime(k), prime(k + 1) ** 2
    primes = odd_sieve(hi - 1)
    q, q2 = primes[:-1], primes[1:]
    observed = int(np.count_nonzero((q > lo) & (q2 < hi) & (q2 - q == g)))
    want = {
        "r": r, "l": l, "g": g, "k": k,
        "window": [str(lo), str(hi)],
        "bound_exact": f"{bound.numerator}/{bound.denominator}",
        "bound": float(bound),
        "observed": str(observed),
        "n_root": str(1 if l == r else lineage_count(r, l, g)),
        "holds": observed >= math.ceil(bound),
    }
    return None if got == want else f"bound_report({r}, {l}, {g}) = {got}, want {want}"


# ---------------------------------------------------------------------------
# point queries

def disallowed_index(p_tilde: int, k_next: int) -> tuple[int, int]:
    """(m, alpha) by definition: alpha is the least value making
    (alpha * P - p_tilde mod P) / (P_{k}# mod P) an integer m in [0, P)."""
    p = prime(k_next)
    step = primorial(k_next - 1) % p
    residue = p_tilde % p
    for alpha in range(p):
        numerator = alpha * p - residue
        if numerator % step == 0 and 0 <= numerator // step <= p - 1:
            return numerator // step, alpha
    raise ValueError(f"no disallowed index for {p_tilde} at level {k_next}")


def is_prospective(n: int, k: int) -> bool:
    return 5 <= n <= 4 + primorial(k) and math.gcd(n, primorial(k)) == 1


def coefficients(n: int, k: int) -> tuple[int, list[int]]:
    """Greedy top-down mixed-radix digits m_3..m_k of n - base."""
    base = 5 if n % 6 == 5 else 7
    rest = n - base
    digits = []
    for j in range(k, 2, -1):
        d, rest = divmod(rest, primorial(j - 1))
        digits.append(d)
    return base, digits[::-1]


def classify(triple: list[int], k: int, m: int) -> tuple[list[str], int | None]:
    """Roles and merged gap of propagating a consecutive triple with m."""
    hats = [disallowed_index(q, k + 1)[0] for q in triple]
    names = ("first-absorbed", "merged", "second-absorbed")
    roles = [name for name, hat in zip(names, hats) if m == hat]
    merged = triple[2] - triple[0] if "merged" in roles else None
    return roles or ["both-preserved"], merged


def check_lineage(root: list[int], l: int, k: int, leaves: list[list[int]]) -> str | None:
    g = root[1] - root[0]
    want = lineage_count(l, k, g)
    if len(leaves) != want:
        return f"lineage {root} {l}->{k}: {len(leaves)} leaves, want {want}"
    if len({tuple(p) for p in leaves}) != want:
        return f"lineage {root} {l}->{k}: duplicate leaves"
    for a, b in leaves:
        if b - a != g or not (is_prospective(a, k) and is_prospective(b, k)):
            return f"lineage {root} {l}->{k}: leaf ({a}, {b}) not a gap-{g} prospective pair"
        if any(is_prospective(n, k) for n in range(a + 1, b)):
            return f"lineage {root} {l}->{k}: leaf ({a}, {b}) not consecutive"
    return None


def check_point(kind: str, args: list, got) -> str | None:
    if kind in ("is_prime", "is_prime_big"):
        want = mr_is_prime(args[0])
    elif kind == "mhat":
        want = list(disallowed_index(*args))
    elif kind == "propagate":
        p, k, m = args
        value = p + m * primorial(k)
        want = [value, value % prime(k + 1) == 0]
    elif kind == "is_prospective":
        want = is_prospective(*args)
    elif kind == "codec":
        n, k = args
        base, digits = coefficients(n, k)
        want = [base, digits, n]
    elif kind == "classify":
        triple, k, m = args[:3], args[3], args[4]
        roles, merged = classify(triple, k, m)
        gaps = [triple[1] - triple[0], triple[2] - triple[1]]
        got_roles, got_gaps, got_merged = got
        if got_roles != roles or got_merged != merged:
            return f"classify {args}: {got_roles}/{got_merged}, want {roles}/{merged}"
        if roles == ["both-preserved"] and got_gaps != gaps:
            return f"classify {args}: gaps {got_gaps}, want {gaps}"
        return None
    elif kind == "lineage":
        return check_lineage(args[:2], args[2], args[3], got)
    elif kind == "theorem3":
        return check_theorem3(*args, got)
    elif kind == "table1":
        want = table1_fixture()
    else:
        return f"no oracle for {kind}"
    return None if got == want else f"{kind}{tuple(args)} = {got!r}, want {want!r}"


@lru_cache(maxsize=None)
def table1_fixture() -> str:
    root = Path(__file__).resolve().parent.parent
    return (root / "tests" / "data" / "table1.json").read_bytes().decode()


# ---------------------------------------------------------------------------
# CLI subprocesses

def check_cli(op: dict, got: dict) -> str | None:
    """Exit code, absence of a traceback, and parsed stdout."""
    if got.get("timeout"):
        return f"missed the {op['deadline_s']} s deadline"
    if "Traceback (most recent call last)" in got["stderr"]:
        return "raw traceback on stderr"
    if got["code"] != op["expect_exit"]:
        return f"exit {got['code']}, want {op['expect_exit']}"
    check = op.get("check")
    if check is None:
        return None
    out = got["stdout"]
    kind, params = check[0], check[1:]
    if kind == "gen_csv":
        k, lo, hi = params
        values = [int(v) for v in out.split()[1:]]
        want = coprime_values(k, max(lo, 5), min(hi, 4 + primorial(k))).tolist()
        return None if values == want else f"gen values differ ({len(values)} vs {len(want)})"
    if kind == "census_json":
        k, lo, hi, full = params
        entries = {int(g): int(c) for g, c in json.loads(out)["entries"].items()}
        return check_census(k, lo, hi, full, entries)
    if kind == "census_csv":
        k, lo, hi = params
        return check_census(k, lo, hi, False, _census_rows(out))
    if kind == "census_file":
        k, lo, hi, path = params
        text = Path(path).read_text()
        return check_census(k, lo, hi, False, _census_rows(text))
    if kind == "census_gap":
        k, g = params
        want = census_histogram(k, 5, 4 + primorial(k)).get(g, 0)
        return None if out == f"level {k}  gap {g}  count {want}\n" else f"census gap line {out!r}"
    if kind == "lineage_json":
        l, k, g = params
        payload = json.loads(out)
        leaves = [leaf["pair"] for leaf in payload["leaves"]]
        if payload["predicted"] != str(lineage_count(l, k, g)):
            return f"predicted {payload['predicted']}"
        return check_lineage(payload["root"], l, k, leaves)
    if kind == "subset_gaps":
        (k,) = params
        gaps = [int(v) for v in json.loads(out)["gaps"]]
        width = primorial(k - 1)
        values = coprime_values(k, 5, 4 + primorial(k))
        idx = (values - 5) // width
        first = values[np.searchsorted(idx, np.arange(1, prime(k)))]
        last = values[np.searchsorted(idx, np.arange(0, prime(k) - 1), side="right") - 1]
        want = (first - last).tolist()
        return None if gaps == want else f"subset gaps {gaps}, want {want}"
    if kind == "table1":
        return None if out == table1_fixture() else "table1 JSON differs from fixture bytes"
    if kind == "bounds":
        r, l, g = params
        return check_bound_report(r, l, g, json.loads(out))
    if kind == "ratio":
        (l,) = params
        want = _growth_ratio(l)
        got_ratio = json.loads(out)["ratio"]
        return None if got_ratio == round(want, 3) else f"ratio {got_ratio}, want {want:.3f}"
    if kind == "find_pair":
        g, m, limit = params
        pair = json.loads(out)["pair"] if out != "not-found\n" else None
        return check_pair_above(g, m, limit, None if pair is None else [int(v) for v in pair])
    if kind == "verify":
        lines = out.splitlines()
        bad = [line for line in lines if not line.startswith("pass")]
        return None if lines and not bad else f"verify lines {bad or lines}"
    return f"no CLI oracle for {kind}"


def _census_rows(text: str) -> dict[int, int]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return {int(row["gap"]): int(row["count"]) for row in rows}


def _growth_ratio(l: int) -> float:
    """Bound growth factor from level l to l+1, from its definition."""
    p_l, p_next = prime(l), prime(l + 1)
    half_log = 0.5 * sum(math.log(p) for p in first_primes(l + 1))
    return (p_next - 2) * (p_l - 2) / (p_l - 4) * (1.0 - 2.0 * math.sqrt(p_next) / half_log)
