"""Property tests: random inputs against the conftest oracles.

Levels, values and ranges are drawn by hypothesis; the expected values
come from per-value trial division and the definitional alpha search,
never from the code under test.  Example counts are kept small so the
whole file runs in a few seconds."""

import contextlib
import io
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polignac import arith
from polignac.arith import primorial
from polignac.census import gap_census
from polignac.cli import main
from polignac.codec import decode, encode, is_admissible
from polignac.primepairs import bound_report
from polignac.wheel import enumerate_prospective, is_prospective, mhat
from conftest import mhat_by_alpha_search, oracle_prospective

FEW = settings(max_examples=40, deadline=None)


@st.composite
def window_member(draw):
    """(n, k): a level-k window member coprime to 6, n = 5 + 6j + 2b."""
    k = draw(st.integers(3, 25))
    j = draw(st.integers(0, primorial(k) // 6 - 1))
    return 5 + 6 * j + 2 * draw(st.integers(0, 1)), k


@FEW
@given(window_member())
def test_codec_round_trip(member):
    n, k = member
    assert math.gcd(n, 6) == 1 and 5 <= n <= 4 + primorial(k)
    cv = encode(n, k)
    assert decode(cv) == n
    assert is_admissible(cv) == (math.gcd(n, primorial(k)) == 1)


@FEW
@given(st.integers(3, 26), st.integers(1, 10**30))
def test_mhat_matches_alpha_search(k_next, p_tilde):
    d = mhat(p_tilde, k_next)
    assert (d.value, d.alpha) == mhat_by_alpha_search(p_tilde, k_next)


@st.composite
def level_range(draw):
    """(k, lo, hi, segment): a range of the level-k window up to three
    shrunk segments wide, so it falls short of, on, or across edges."""
    k = draw(st.integers(2, 16))
    segment = draw(st.sampled_from([16, 64]))
    window_hi = 4 + primorial(k)
    width = draw(st.integers(1, 3 * segment + 1))
    lo = draw(st.integers(5, max(5, window_hi - width + 1)))
    return k, lo, min(lo + width - 1, window_hi), segment


@FEW
@given(level_range())
def test_range_census_and_enumeration_match_oracle(case):
    k, lo, hi, segment = case
    members = oracle_prospective(k, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "SEGMENT_SIZE", segment)
        assert list(enumerate_prospective(k, lo, hi)) == members
        census = gap_census(k, lo=lo, hi=hi).entries
    assert census == dict(Counter(b - a for a, b in zip(members, members[1:])))
    assert all(is_prospective(n, k) for n in members)


# ---------------------------------------------------------------------------
# CLI JSON, parsed back, equals the library result

def cli_json(*argv):
    """Exit code and parsed stdout of `polignac <argv> --format json`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*map(str, argv), "--format", "json"])
    return code, json.loads(out.getvalue())


@st.composite
def census_scope(draw):
    """(k, flags, library kwargs): the full window, a subset or a range."""
    k = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["full", "subset", "range"]))
    if kind == "subset":
        m = draw(st.integers(0, arith.nth_prime(k) - 1))
        return k, ["-m", m], {"subset": m}
    if kind == "range":
        lo = draw(st.integers(0, 4 + primorial(k)))
        hi = draw(st.integers(lo, lo + 5000))
        return k, ["--range", f"{lo}:{hi}"], {"lo": lo, "hi": hi}
    return k, [], {}


@FEW
@given(census_scope())
def test_census_json_round_trip(case):
    k, flags, kwargs = case
    code, payload = cli_json("census", "-k", k, *flags)
    census = gap_census(k, **kwargs)
    assert code == 0
    assert (payload["level"], payload["scope"]) == (census.level, census.scope)
    assert {int(g): int(c) for g, c in payload["entries"].items()} == census.entries


@FEW
@given(level_range())
def test_gen_json_round_trip(case):
    k, lo, hi, _ = case
    code, payload = cli_json("gen", "-k", k, "--range", f"{lo}:{hi}")
    assert code == 0 and payload["level"] == k
    assert [int(v) for v in payload["values"]] == list(enumerate_prospective(k, lo, hi))


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 7).flatmap(
    lambda l: st.tuples(st.integers(2, l), st.just(l), st.sampled_from([2, 4, 6, 8]))
))
def test_bounds_json_round_trip(case):
    r, l, g = case
    code, payload = cli_json("bounds", "-r", r, "-l", l, "-g", g)
    report = bound_report(r, l, g)
    assert code == (0 if report.holds else 2)
    assert (payload["r"], payload["l"], payload["g"], payload["k"]) == (
        report.r, report.l, report.g, report.k
    )
    assert tuple(map(int, payload["window"])) == report.window
    assert Fraction(payload["bound_exact"]) == report.bound
    assert payload["bound"] == float(report.bound)
    assert int(payload["observed"]) == report.observed
    assert int(payload["n_root"]) == report.n_root
    assert payload["holds"] is report.holds
