"""Seeded operation lists for the four workloads.

A workload is a fixed list of operations (one "pass") built from the
seed alone; the worker repeats the pass for the measured time and sees
only the generated operations, never the seed.  Every pass of a run
uses the same inputs, so each answer is checked against its oracle once
and later passes must reproduce it.

Why each workload exists:

- window-census: gap censuses of the full level-8 window, a level-9
  subset, and level-9 ranges whose widths fall on both sides of the
  2^22-value marking segment.  Time goes to prospective enumeration and
  histogramming; the sieve and primepairs sit idle.
- pair-sieve: find_pair_above near 9e7 with limits up to 1e8,
  bound_report for l = 5..8 and prime_count_pi up to 1e8.  Bound by the
  sieve, and it sets peak memory; the wheel and census sit idle.
- point-queries: thousands of small exact calls (is_prime with a fixed
  share above 2^64 under a per-call deadline, mhat, propagate,
  is_prospective, codec round trips, lineages, classify_propagation,
  theorem3_lower_bound, table1).  Per-value work, and the only workload
  with enough operations for a p99.
- cli: fresh `python -m polignac.cli` subprocesses, one at a time,
  including refusals that must exit 1.  The only workload where argument
  parsing, rendering and checks run, and where interpreter and numpy
  import are paid by every operation.
"""

from __future__ import annotations

import math
import random

from oracles import coprime_values, disallowed_index, mr_is_prime, prime, prime_pi, primorial

SEGMENT_SIZE = 1 << 22  # the wheel's marking segment, for range widths
IS_PRIME_DEADLINE_S = 0.05
CLI_DEADLINE_S = 60.0

NAMES = ("window-census", "pair-sieve", "point-queries", "cli")


def build(name: str, seed: int, size: str = "full", out_dir: str = ".perfbench_out") -> dict:
    """{"ops", "tail_pct", "ints_per_pass", "params", "calibrate"}: the pass,
    the fixed tail percentile, integers covered per pass (or None), the
    parameters for the run record, and whether latencies are rescaled to
    the reference interpreter speed (see run.scaled_passes)."""
    rng = random.Random(f"{name}:{seed}")
    tiny = size == "tiny"
    if name == "window-census":
        return _window_census(rng, tiny)
    if name == "pair-sieve":
        return _pair_sieve(rng, tiny)
    if name == "point-queries":
        return _point_queries(rng, tiny)
    if name == "cli":
        return _cli(rng, tiny, f"{out_dir}/export-{seed}.csv")
    raise ValueError(f"unknown workload {name!r}")


def _window_census(rng: random.Random, tiny: bool) -> dict:
    full_k, k = (5, 6) if tiny else (8, 9)
    seg = 1 << 8 if tiny else SEGMENT_SIZE
    # The counts put the median in the middle of the (seg - seg/16) group
    # and the p75 inside the (seg + seg/16) group, not on a boundary.
    widths = [seg // 2] * 4 + [seg - seg // 16] * 6 + [seg + seg // 16] * 2
    window_hi = 4 + primorial(k)
    ops = [
        {"kind": "census", "args": [full_k, None, None, None]},
        {"kind": "census", "args": [k, rng.randrange(prime(k)), None, None]},
    ]
    for w in widths:
        lo = rng.randrange(5, window_hi - w + 2)
        ops.append({"kind": "census", "args": [k, None, lo, lo + w - 1]})
    ints = primorial(full_k) + primorial(k - 1) + sum(widths)
    params = {"full_level": full_k, "level": k, "range_widths": widths,
              "segment_size": seg}
    return {"ops": ops, "tail_pct": 75.0, "ints_per_pass": ints, "params": params,
            "calibrate": True}


def _pair_sieve(rng: random.Random, tiny: bool) -> dict:
    scale = 10**3 if tiny else 1
    levels = (3, 4) if tiny else (5, 6, 7, 8)
    gaps = (2, 4, 6, 8, 10, 12)
    ops = []
    big_m = rng.randrange(89_000_000, 90_000_000) // scale
    big_limit = rng.randrange(99_000_000, 100_000_001) // scale
    ops.append({"kind": "find_pair_above", "args": [rng.choice(gaps), big_m, big_limit]})
    for _ in range(3):
        m = rng.randrange(10_000_000, 11_000_000) // scale
        ops.append({"kind": "find_pair_above", "args": [rng.choice(gaps), m, m + 10_000_000 // scale]})
    ops.append({"kind": "prime_count_pi", "args": [rng.randrange(99_000_000, 100_000_001) // scale]})
    for _ in range(2):
        ops.append({"kind": "prime_count_pi", "args": [rng.randrange(24_000_000, 25_000_000) // scale]})
    for l in levels:
        for g in rng.sample((2, 4, 6), 2):
            ops.append({"kind": "bound_report", "args": [2 if g == 2 else 3, l, g]})
    ints = 0
    for op in ops:
        if op["kind"] == "find_pair_above":
            ints += op["args"][2]
        elif op["kind"] == "prime_count_pi":
            ints += op["args"][0]
        else:
            k = prime_pi(math.isqrt(primorial(op["args"][1])))
            ints += prime(k + 1) ** 2
    params = {"levels": list(levels), "gaps": list(gaps), "scale": scale}
    return {"ops": ops, "tail_pct": 75.0, "ints_per_pass": ints, "params": params,
            "calibrate": False}


def _prospective(rng: random.Random, k: int) -> int:
    """A uniformly placed level-k prospective prime."""
    wheel = primorial(k)
    n = rng.randrange(5, 5 + wheel)
    while math.gcd(n, wheel) != 1:
        n = n + 1 if n < 4 + wheel else 5
    return n


def _triple(rng: random.Random, k: int) -> list[int]:
    """Three consecutive level-k prospective primes."""
    wheel = primorial(k)
    n = rng.randrange(5, wheel - 40)
    out: list[int] = []
    while len(out) < 3:
        if math.gcd(n, wheel) == 1:
            out.append(n)
        n += 1
    return out


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if mr_is_prime(n):
            return n


def _point_queries(rng: random.Random, tiny: bool) -> dict:
    div = 20 if tiny else 1
    ops: list[dict] = []

    def add(kind, args, **extra):
        ops.append({"kind": kind, "args": args, **extra})

    for _ in range(1000 // div):
        add("is_prime", [rng.randrange(2, 1 << 63)])
    # Above 2^64 the library falls back to trial division: primes and
    # products of two large primes cannot finish, composites with a
    # small factor can.  Fixed counts keep the number of misses per pass
    # the same on every seed.
    big = [_random_prime(rng, 1 << 64, 1 << 72) for _ in range(6)]
    big += [_random_prime(rng, 1 << 33, 1 << 35) * _random_prime(rng, 1 << 33, 1 << 35)
            for _ in range(2)]
    for _ in range(8):
        q = _random_prime(rng, 41, 1 << 12)
        big.append(q * (rng.randrange((1 << 64) // q + 1, (1 << 72) // q) | 1))
    for n in big[: max(2, len(big) // div)]:
        add("is_prime_big", [n], deadline_s=IS_PRIME_DEADLINE_S, known_cause="missed",
            known_defect="is_prime falls back to trial division above 2^64")
    for _ in range(400 // div):
        k = rng.randrange(3, 12)
        add("mhat", [_prospective(rng, k), k + 1])
    for _ in range(200 // div):
        k = rng.randrange(3, 11)
        add("propagate", [_prospective(rng, k), k, rng.randrange(prime(k + 1))])
    for _ in range(200 // div):
        k = rng.randrange(2, 13)
        add("is_prospective", [rng.randrange(1, 7 + primorial(k)), k])
    for _ in range(200 // div):
        k = rng.randrange(3, 13)
        n = rng.randrange(5, 5 + primorial(k))
        while math.gcd(n, 6) != 1 or n > 4 + primorial(k):
            n = n + 1 if n < 4 + primorial(k) else 5
        add("codec", [n, k])
    for i in range(100 // div):
        k = rng.randrange(4, 8)
        triple = _triple(rng, k)
        hats = [disallowed_index(q, k + 1)[0] for q in triple]
        m = rng.randrange(prime(k + 1)) if i % 5 < 2 else hats[i % 5 - 2]
        add("classify", triple + [k, m])
    lineages = [(3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7)]
    # Six more 4->7 lineages put the p99 in the middle of their group
    # rather than among scattered cheap calls that happened to pay for a
    # garbage collection.
    for l, k in lineages * (1 if tiny else 4) + ([] if tiny else [(4, 7)] * 6):
        if tiny and k > 5:
            continue
        # Twin roots: the leaf count, and so the cost, of each (l, k)
        # class is then the same on every seed.
        values = coprime_values(l, 5, 4 + primorial(l)).tolist()
        twins = [a for a, b in zip(values, values[1:]) if b - a == 2]
        a = rng.choice(twins)
        add("lineage", [a, a + 2, l, k])
    for l in range(3, 7 if tiny else 10):
        for _ in range(1 if tiny else 4):
            r = rng.randrange(2, min(l, 4) + 1)
            add("theorem3", [r, l, rng.choice((2, 4, 6, 8, 10, 12))])
    for _ in range(1 if tiny else 4):
        add("table1", [])
    rng.shuffle(ops)
    params = {"is_prime_deadline_s": IS_PRIME_DEADLINE_S, "big_inputs": len(big),
              "lineages": lineages}
    return {"ops": ops, "tail_pct": 99.0, "ints_per_pass": None, "params": params,
            "calibrate": True}


def _cli(rng: random.Random, tiny: bool, export_path: str) -> dict:
    ops: list[dict] = []

    def add(argv, check=None, expect_exit=0, **known):
        ops.append({"kind": "cli", "args": argv, "check": check, "expect_exit": expect_exit,
                    "deadline_s": CLI_DEADLINE_S, **known})

    lo = rng.randrange(5, 2000)
    add(["gen", "-k", "5", "--range", f"{lo}:{lo + 300}", "--format", "csv"],
        ["gen_csv", 5, lo, lo + 300])
    full_k = 5 if tiny else 8
    add(["census", "-k", str(full_k), "--format", "json"],
        ["census_json", full_k, 5, 4 + primorial(full_k), True])
    k = 5 if tiny else 7
    m = rng.randrange(prime(k))
    width = primorial(k - 1)
    add(["census", "-k", str(k), "-m", str(m), "--format", "csv"],
        ["census_csv", k, 5 + m * width, 4 + (m + 1) * width])
    g = rng.choice((2, 4, 6, 8))
    add(["census", "-k", "6", "-g", str(g)], ["census_gap", 6, g])
    g = rng.choice((2, 4))
    k = rng.choice((5, 6))
    add(["lineage", "-r", "3", "-k", str(k), "-g", str(g), "--format", "json"],
        ["lineage_json", 3, k, g])
    k = rng.choice((5, 6))
    add(["subset-gaps", "-k", str(k), "--format", "json"], ["subset_gaps", k])
    add(["table1", "--format", "json"], ["table1"])
    l = rng.randrange(5, 8)
    add(["bounds", "-r", "2", "-l", str(l), "-g", "2", "--format", "json"],
        ["bounds", 2, l, 2])
    l = rng.randrange(8, 15)
    add(["ratios", "--l", str(l), "--format", "json"], ["ratio", l])
    g, m = rng.choice((2, 4, 6, 8, 10, 12)), rng.randrange(10**5, 10**6)
    add(["find-pair", "-g", str(g), "-M", str(m), "--limit", "2000000", "--format", "json"],
        ["find_pair", g, m, 2_000_000])
    if not tiny:
        add(["verify", "--all", "--max-level", "5"], ["verify"])
    k = 5
    add(["export", "census", "-k", str(k), "--format", "csv", "--out", export_path],
        ["census_file", k, 5, 4 + primorial(k), export_path])
    # Refusals: each must exit 1 with a message, never a traceback.
    add(["census", "-k", "4", "-m", "40"], expect_exit=1, known_cause="exit 0",
        known_defect="an out-of-range subset gives an empty census and exit 0")
    add(["export", "census"], expect_exit=1, known_cause="raw traceback",
        known_defect="export census without -k raises a raw TypeError")
    add(["gen", "-k", "12"], expect_exit=1)
    add(["lineage", "-r", "3", "-k", "9", "-g", "2"], expect_exit=1)
    add(["find-pair", "-g", "3"], expect_exit=1)
    params = {"deadline_s": CLI_DEADLINE_S, "export_path": export_path}
    return {"ops": ops, "tail_pct": 75.0, "ints_per_pass": None, "params": params,
            "calibrate": False}
