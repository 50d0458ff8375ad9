"""The pooled map over a pass's segments, ``arith.map_segments``.

Every sieve pass cuts its range into chunks of SEGMENT_SIZE // W
integers, W the CPUs in the process's affinity mask, and reduces each
chunk on a thread of a pool: censuses, pair counts and prospective
counts tally their chunks and merge the tallies in order, and searches,
enumeration and ``gen`` read each chunk's values as they come.  Each test fixes W by patching
``arith._workers`` and most shrink SEGMENT_SIZE, so that chunk edges
fall inside gaps and inside sums of adjacent gaps, and many chunks hold
one value or none.  Expected values come from the oracles in conftest,
never from the code under test."""

import functools
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import polignac
from polignac import arith, checks
from polignac.census import find_root_pair, gap_census
from polignac.cli import main
from polignac.primepairs import actual_pair_count, find_pair_above
from polignac.wheel import enumerate_prospective, prospective_range, subset_bounds
from conftest import oracle_primes, oracle_prospective, oracle_prospective_sieved

WORKERS = [1, 2, 3]


@pytest.fixture(params=WORKERS, ids=lambda w: f"W{w}")
def workers(request, monkeypatch):
    monkeypatch.setattr(arith, "_workers", lambda: request.param)
    return request.param


def gap_counts(members):
    return dict(Counter(b - a for a, b in zip(members, members[1:])))


@functools.lru_cache(maxsize=None)
def window_census(k):
    return gap_counts(oracle_prospective_sieved(k))


def oracle_pair_count(g, lo, hi):
    """Consecutive primes (q, q') in (lo, hi) with q' - q = g."""
    primes = [p for p in oracle_primes(max(hi, 2)) if lo < p < hi]
    return sum(r - q == g for q, r in zip(primes, primes[1:]))


def last_chunk_size(k, flags):
    """The least chunk size, in odd values, of at least a 64th of the
    level-(k - 1) window's odd values (so that a pass makes at most about
    64 chunks), whose last chunk holds that window's last flags odd
    values.  The window [5, 4 + P_{k-1}#] ends on P_{k-1}# - 1,
    P_{k-1}# + 1 and P_{k-1}# + 3, a multiple of 3: a last chunk of 1, 2
    or 3 odd values holds no value, one value, or two."""
    count = math.prod(oracle_primes(20)[: k - 1]) // 2  # odd values in the window
    return next(s for s in range(max(count // 64, flags), count + 1) if (count - 1) % s + 1 == flags)


LAST_CHUNK = {"last-empty": 1, "last-one": 2, "last-two": 3}


# At SEGMENT_SIZE 8 and W = 3 a chunk spans 2 integers, one odd value:
# every seam of the level-2..4 windows falls inside a gap and inside the
# sums of the gaps on either side of it.  The one-step census of level k
# reads the level-(k - 1) window, and carries its last two values across
# each chunk edge, from the two before its first that close the cycle:
# the LAST_CHUNK cases cut that window so that its last chunk holds no
# value, one value or two, at every W.  The level-2 window under k = 3
# holds the odd values 5, 7 and 9 only, and no cut into chunks from 5
# leaves one value in its last chunk.
@pytest.mark.parametrize(
    "k, segment",
    [(3, 8), (4, 8), (5, 8), (6, 16), (7, 64), (8, 2**10),
     *((k, last) for k in range(3, 9) for last in LAST_CHUNK if (k, last) != (3, "last-one"))],
)
def test_full_census(workers, monkeypatch, k, segment):
    if segment in LAST_CHUNK:
        segment = 2 * workers * last_chunk_size(k, LAST_CHUNK[segment])
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    assert gap_census(k).entries == window_census(k)


@pytest.mark.parametrize("segment", [8, 64])
def test_level2_window_and_subsets(workers, monkeypatch, segment):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    assert gap_census(2).entries == gap_counts(oracle_prospective(2))
    for m in range(13):
        lo, hi = subset_bounds(6, m)
        assert gap_census(6, subset=m).entries == gap_counts(oracle_prospective(6, lo, hi)), m


# Ranges that start and end on a chunk edge, one integer to either side
# of it, and inside a single chunk.
@pytest.mark.parametrize("segment", [8, 64])
def test_ranges_across_chunk_edges(workers, monkeypatch, segment):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    chunk = segment // workers
    lo = 101
    for hi in (lo, lo + 2, *(lo + j * chunk + d for j in (1, 2, 5, 17) for d in (-2, -1, 0, 1, 2))):
        assert gap_census(5, lo=lo, hi=hi).entries == gap_counts(oracle_prospective(5, lo, hi)), hi
    for start in (lo - 1, lo + chunk - 1, lo + chunk):
        hi = start + 9 * chunk
        assert gap_census(6, lo=start, hi=hi).entries == gap_counts(oracle_prospective(6, start, hi))


# Level 16 runs past 2^63: chunk starts there are Python ints.
@pytest.mark.parametrize("lo, hi", [((1 << 63) - 500, (1 << 63) + 500), ((1 << 63) + 1000, (1 << 63) + 2000)])
def test_ranges_past_int64(workers, monkeypatch, lo, hi):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 64)
    assert gap_census(16, lo=lo, hi=hi).entries == gap_counts(oracle_prospective(16, lo, hi))


# The pair count merges the base primes up to sqrt(hi), 2 and 3 among
# them (the one gap of 1), with the chunks of its range pass.
@pytest.mark.parametrize("segment", [8, 64, 2**12])
def test_actual_pair_count(workers, monkeypatch, segment):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    for lo, hi in ((0, 30), (1, 4), (2, 9), (47, 2809), (1000, 5000), (1542, 1700), (10**5, 10**5 + 3000)):
        for g in (1, 2, 4, 6, 8, 14):
            assert actual_pair_count(g, lo, hi) == oracle_pair_count(g, lo, hi), (g, lo, hi)


def test_prospective_counts(workers, monkeypatch):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 2**16)
    assert checks.check_prospective_counts(8) is None


def test_census_json_is_the_same_for_every_w(monkeypatch, capsys):
    outputs = []
    for w in WORKERS:
        monkeypatch.setattr(arith, "_workers", lambda w=w: w)
        assert main(["census", "-k", "9", "-m", "7", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == [outputs[0]] * len(WORKERS)
    lo, hi = subset_bounds(9, 7)
    want = gap_counts(oracle_prospective_sieved(9, lo, hi))
    assert json.loads(outputs[0])["entries"] == {str(g): str(n) for g, n in sorted(want.items())}


def first_pair(values, g):
    """The first consecutive pair of values with gap g, or None."""
    return next(((a, b) for a, b in zip(values, values[1:]) if b - a == g), None)


# A search reads a first window of FIRST_SEGMENT integers, then windows
# eight times as long up to SEGMENT_SIZE, then the rest of its prefix: a
# first window of 64 integers puts the later passes, in pooled chunks,
# inside every window below.  Gap 100 occurs in none of them,
# so its searches read the whole range.  The prime searches strike the
# 39 odd primes up to sqrt(30000), few enough to pool.
@pytest.mark.parametrize("segment", [64, 1024])
@pytest.mark.parametrize("window", [64, 2**12])
def test_searches(workers, monkeypatch, segment, window):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    monkeypatch.setattr(arith, "FIRST_SEGMENT", window)
    for l in (3, 4, 5, 6):
        members = oracle_prospective(l)
        for g in (2, 4, 6, 8, 10, 14, 22, 100):
            assert find_root_pair(l, g) == first_pair(members, g), (l, g)
    primes = oracle_primes(30000)
    for m in (0, 90, 1000, 20000, 29000):
        above = [p for p in primes if p > m]
        for g in (2, 4, 6, 8, 14, 34, 100):
            assert find_pair_above(g, m, 30000) == first_pair(above, g), (m, g)


@pytest.mark.parametrize("segment", [8, 64])
def test_enumerate_prospective(workers, monkeypatch, segment):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    for k in (2, 3, 4, 5, 6):
        assert list(enumerate_prospective(k)) == oracle_prospective(k), k
    for lo, hi in ((101, 2000), (1000, 1000 + segment), ((1 << 63) - 500, (1 << 63) + 500)):
        assert list(enumerate_prospective(16, lo, hi)) == oracle_prospective(16, lo, hi), lo


@pytest.mark.parametrize("segment", [8, 64])
@pytest.mark.parametrize("k, spec", [(5, None), (6, "1000:3000")])
def test_gen(workers, monkeypatch, capsys, segment, k, spec):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    lo, hi = map(int, spec.split(":")) if spec else (None, None)
    values = [str(v) for v in oracle_prospective(k, lo, hi)]
    text = "".join(f"{v}\n" for v in values)
    expected = {
        "text": text,
        "csv": "value\n" + text,
        "json": json.dumps({"level": k, "values": values}, sort_keys=True, indent=2) + "\n",
    }
    for fmt, want in expected.items():
        argv = ["gen", "-k", str(k), "--format", fmt] + (["--range", spec] if spec else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == want, fmt


# A search that stops inside a round leaves the rest of the round's
# chunks to the pool: at W = 3 and SEGMENT_SIZE 64 a chunk spans 20
# integers, and level 6's twin pair (17, 19) lies in the first.  An
# enumeration left half read keeps its own round.  Pooled passes after
# them, and the rest of the enumeration, must still be right.
def test_search_stopped_inside_a_round(workers, monkeypatch):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 64)
    assert find_root_pair(6, 2) == (17, 19)
    values, members = enumerate_prospective(6), oracle_prospective(6)
    assert list(itertools.islice(values, 50)) == members[:50]
    assert gap_census(7).entries == window_census(7)
    assert find_pair_above(2, 1000, 30000) == (1019, 1021)
    assert gap_census(6, subset=3).entries == gap_counts(oracle_prospective(6, *subset_bounds(6, 3)))
    assert list(values) == members[50:]


# Refusals come before any chunk is struck, and a worker's exception is
# raised to the caller as the serial pass raises it: the first failing
# chunk in order.
def test_refusals_before_any_chunk(workers, monkeypatch):
    def no_strike(*args):
        raise AssertionError("a chunk was struck")

    monkeypatch.setattr(arith, "_strike", no_strike)
    with pytest.raises(ValueError, match="sieve budget"):
        gap_census(9, subset=0, budget=10**6)
    with pytest.raises(ValueError, match="sieving 5:6469693234 exceeds"):
        gap_census(11)
    with pytest.raises(ValueError, match="misses the level-5 window"):
        gap_census(5, lo=10**6, hi=10**6 + 10)
    with pytest.raises(ValueError, match="lo > hi"):
        gap_census(5, lo=20, hi=10)
    with pytest.raises(ValueError, match="sieve budget"):
        actual_pair_count(2, 10**6, 10**7, budget=10**6)


def test_worker_exception_reaches_the_caller(workers, monkeypatch):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 64)
    _, _, primes = prospective_range(5)

    def reduce(start, offsets):
        if start > 1000:
            raise ValueError(f"chunk at {start}")
        return len(offsets)

    with pytest.raises(ValueError) as refused:
        sum(arith.map_segments(5, 2000, primes, reduce))
    first = min(start for start in range(5, 2000, 2 * (64 // workers // 2)) if start > 1000)
    assert str(refused.value) == f"chunk at {first}"


# A pass of one chunk runs on the caller's thread: at W = 2 a chunk
# spans 2^20 integers, and the level-7 window under the level-8 census
# spans 510 510.  So does a pass of more than _POOLED_PRIMES primes:
# the pair count up to 10^7 strikes the 445 primes up to 3162.
def test_one_chunk_runs_on_the_callers_thread(monkeypatch):
    monkeypatch.setattr(arith, "_workers", lambda: 2)
    strikers = set()
    strike = arith._strike

    def recording_strike(*args):
        strikers.add(threading.current_thread())
        return strike(*args)

    monkeypatch.setattr(arith, "_strike", recording_strike)
    gap_census(8)
    gap_census(9, lo=10**6, hi=10**6 + 2**19)
    actual_pair_count(2, 10**6, 10**6 + 2**20)
    assert actual_pair_count(2, 10**6, 10**7) == 50811
    assert strikers == {threading.main_thread()}


# The pool's threads are kept for the process; a forked child has none
# of them, and starts its own.  An alarm ends a child that waits on its
# parent's pool.
def test_forked_child_starts_its_own_pool(monkeypatch):
    monkeypatch.setattr(arith, "_workers", lambda: 2)
    want = gap_census(9, subset=2).entries
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            signal.alarm(30)
            ok = gap_census(9, subset=2).entries == want
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_one_chunk_imports_no_pool():
    probe = (
        "import sys\n"
        "from polignac import arith, census\n"
        "arith._workers = lambda: 2\n"
        "census.gap_census(8)\n"
        "print('concurrent.futures' in sys.modules)\n"
        "census.gap_census(9, subset=1)\n"
        "print('concurrent.futures' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(polignac.__file__).parent.parent)},
    ).stdout
    assert out.split() == ["False", "True"]


# perfbench's tracer, which rebinds the public functions, keeps its
# spans on one stack and is not thread-safe: a worker runs private code
# alone.  Every public function is rebound on every module that holds
# it, as the tracer rebinds them, to a recorder of the threads it runs
# on; _strike records that the chunks ran on more than one thread.
def test_workers_run_no_public_function(monkeypatch):
    monkeypatch.setattr(arith, "_workers", lambda: 2)
    off_main, strikers = [], set()
    modules = [getattr(polignac, name) for name in ("arith", "census", "codec", "primepairs", "wheel")]
    modules.append(checks)
    for module in modules:
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not callable(fn) or isinstance(fn, type):
                continue
            if getattr(fn, "__module__", "").startswith("polignac"):
                monkeypatch.setattr(module, name, recorder(name, fn, off_main))
    strike = arith._strike

    def recording_strike(*args):
        strikers.add(threading.get_ident())
        return strike(*args)

    monkeypatch.setattr(arith, "_strike", recording_strike)
    gap_census(9)
    gap_census(9, subset=3)
    assert checks.check_prospective_counts(8) is None
    assert len(strikers) == 2
    # A pair count pools only over few base primes: 15 below sqrt(3000).
    strikers.clear()
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 2**8)
    assert actual_pair_count(2, 1000, 3000) == oracle_pair_count(2, 1000, 3000)
    assert len(strikers) == 2
    assert off_main == []


def recorder(name, fn, off_main):
    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            off_main.append(name)
        return fn(*args, **kwargs)

    return recorded
