import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from polignac import arith, census, checks
from polignac.arith import nth_prime, primorial
from polignac.census import (
    LineageLeaf,
    LineageStep,
    PropagationCase,
    TableCell,
    classify_propagation,
    derive_pairs,
    distribution_ratio,
    find_root_pair,
    gap_census,
    mhat_delta,
    predicted_derived_count,
    subset_gap_spectrum,
    table1,
)
from polignac.wheel import enumerate_prospective, is_prospective, mhat, prospective_segments, subset_of
from conftest import oracle_lineage, oracle_prospective

FIXTURE = Path(__file__).parent / "data" / "table1.json"


# ---------------------------------------------------------------------------
# pairs and censuses

def test_consecutive_pairs_small():
    # The gap stream the censuses read: (base, gaps) chunks.
    chunks = list(arith.segment_gaps(prospective_segments(3)))
    assert [g for _, gaps in chunks for g in gaps.tolist()] == [4, 2, 4, 2, 4, 6, 2]
    assert [(base, gaps.tolist()) for base, gaps in arith.segment_gaps(prospective_segments(2))] == [
        (5, [2])
    ]


def test_consecutive_pairs_range():
    pairs = list(itertools.pairwise(enumerate_prospective(4, 95, 130)))
    assert (113, 121) in pairs
    assert (121, 127) in pairs


def test_gap_census_examples():
    assert gap_census(3).entries == {2: 3, 4: 3, 6: 1}
    assert gap_census(2).entries == {2: 1}
    assert gap_census(4).entries[2] == 15


def test_gap_census_subset_scope():
    c = gap_census(4, subset=3)
    members = oracle_prospective(4, 95, 124)
    expected = Counter(b - a for a, b in zip(members, members[1:]))
    assert c.entries == dict(expected)
    assert c.scope == "subset:3"


def test_gap_census_against_oracle():
    members = oracle_prospective(5)
    expected = Counter(b - a for a, b in zip(members, members[1:]))
    assert gap_census(5).entries == dict(expected)


# A full window at level k >= 3 is one propagation step from the
# level-(k - 1) window.  Each census below is checked against the sieve
# of the explicit level-k range, or against closed forms.
@pytest.mark.parametrize("k", range(3, 10))
def test_full_census_equals_sieved_window(k):
    assert gap_census(k).entries == gap_census(k, lo=5, hi=4 + primorial(k)).entries


@pytest.fixture(scope="module")
def level10():
    return gap_census(10).entries


def test_level10_census_closed_forms(level10):
    # At the default budget: prod (P_i - 2) twins, prod (P_i - 1) - 1
    # pairs, and the gaps span the window's values, P_11 to P_10# + 1.
    assert level10[2] == math.prod(nth_prime(i) - 2 for i in range(3, 11)) == 214708725
    assert sum(level10.values()) == math.prod(nth_prime(i) - 1 for i in range(1, 11)) - 1
    assert sum(g * n for g, n in level10.items()) == primorial(10) + 1 - nth_prime(11) == 6469693200


@pytest.mark.parametrize("k", range(3, 12))
def test_one_step_condition_holds(k, level10):
    # The identity is exact while every level-(k - 1) gap is below 2 P_k;
    # the wrap gap P_k - 1 is.
    lower = level10 if k == 11 else gap_census(k - 1).entries
    assert max(lower) < 2 * nth_prime(k)


def test_full_census_sieves_only_the_level_below(monkeypatch):
    sieved = []

    def recording(k, *args, **kwargs):
        sieved.append(k)
        return prospective_segments(k, *args, **kwargs)

    monkeypatch.setattr(census, "prospective_segments", recording)
    gap_census(6)
    gap_census(6, subset=2)
    gap_census(6, lo=100, hi=200)
    gap_census(2)
    assert sieved == [5, 6, 6, 2]


def test_full_census_budget_is_one_pass_over_the_level_below():
    assert gap_census(7, budget=primorial(6)).entries == gap_census(7, lo=5, hi=4 + primorial(7)).entries
    with pytest.raises(ValueError, match="sieve budget"):
        gap_census(7, budget=primorial(6) - 1)
    # Level 11 is refused by its level-10 pass, before anything is sieved.
    with pytest.raises(ValueError, match=f"sieving 5:{4 + primorial(10)} exceeds"):
        gap_census(11)


def test_gap_census_entries_are_plain_ints():
    entries = gap_census(4).entries
    assert all(type(g) is int and type(c) is int for g, c in entries.items())


@pytest.mark.parametrize("m", [-1, 11, 40])
def test_gap_census_rejects_out_of_range_subset(m):
    with pytest.raises(ValueError):
        gap_census(5, subset=m)


# ---------------------------------------------------------------------------
# counting theorem

def test_predicted_derived_count_examples():
    assert predicted_derived_count(2, 4, 2) == 15
    assert predicted_derived_count(3, 4, 6) == 5
    assert predicted_derived_count(4, 5, 14) == 9


def test_predicted_derived_count_rejects_odd_gap():
    with pytest.raises(ValueError):
        predicted_derived_count(2, 4, 3)


def test_derive_pairs_examples():
    assert [leaf.pair for leaf in derive_pairs((5, 7), 2, 3).leaves] == [
        (11, 13), (17, 19), (29, 31)
    ]
    assert len(derive_pairs((5, 7), 2, 4).leaves) == 15
    assert len(derive_pairs((23, 29), 3, 4).leaves) == 5


def test_derive_pairs_cap(monkeypatch):
    # The cap is a leaf count, 2^15: 2 -> 6 (1 485 leaves) and 2 -> 7
    # (22 275) are expanded; 2 -> 8 (378 675) and 5 -> 9 (58 905, a span
    # of 4 levels) are refused before anything is struck.
    assert census.LINEAGE_CAP == 32768
    for k in (6, 7):
        assert len(derive_pairs((5, 7), 2, k).leaves) == predicted_derived_count(2, k, 2)

    def no_strike(*args):
        raise AssertionError("the digit space was struck before the refusal")

    monkeypatch.setattr(census, "_strike", no_strike)
    for root, l, k, size in (((5, 7), 2, 8, 378675), ((29, 31), 5, 9, 58905)):
        assert predicted_derived_count(l, k, 2) == size
        message = f"^{size} leaves exceed the lineage cap of 32768; use predicted_derived_count"
        with pytest.raises(ValueError, match=message):
            derive_pairs(root, l, k)


@pytest.mark.parametrize("l, k", [(3, 2), (3, 3), (1, 3)])
def test_derive_pairs_refuses_k_not_above_l(l, k):
    # (11, 13) lies outside the level-2 window [5, 10], a span of zero
    # levels is no lineage, and no wheel stops below level 2: each is
    # refused as predicted_derived_count refuses it.
    with pytest.raises(ValueError, match=rf"^need k > l >= 2, got l={l}, k={k}$"):
        derive_pairs((11, 13), l, k)


def test_derive_pairs_rejects_non_consecutive_root():
    with pytest.raises(ValueError):
        derive_pairs((113, 127), 4, 5)  # 121 lies between


def test_derive_pairs_rejects_decreasing_root():
    with pytest.raises(ValueError):
        derive_pairs((7, 5), 2, 3)


@pytest.mark.parametrize(
    "run, level",
    [((7, 5), 2), ((5, 5), 2), ((113, 127), 4), ((1, 11), 3), ((31, 37), 3)],
)
def test_consecutive_refusal_names_run_and_level(run, level):
    # Decreasing, repeated, skipping 121, below the window, past its end.
    with pytest.raises(ValueError, match=rf"^{re.escape(str(run))}.* level {level}$"):
        derive_pairs(run, level, level + 1)


def least_pairs(l):
    """Least consecutive prospective pair of level l for each gap."""
    members = oracle_prospective(l)
    first = {}
    for a, b in zip(members, members[1:]):
        first.setdefault(b - a, (a, b))
    return first


# A range is clamped to the window; one that misses it is refused by
# name, where it used to give an empty census.
@pytest.mark.parametrize("k, lo, hi", [(3, 0, 4), (3, 35, 10**6), (2, 11, None), (4, None, 4)])
def test_range_missing_window_refused(k, lo, hi):
    window = rf"the level-{k} window \[5, {4 + primorial(k)}\]"
    with pytest.raises(ValueError, match=rf"^range {lo}:{hi} misses {window}$"):
        gap_census(k, lo=lo, hi=hi)
    with pytest.raises(ValueError, match=window):
        next(enumerate_prospective(k, lo, hi))


@pytest.mark.parametrize("l, segment", [(4, None), (6, 64), (7, None)])
def test_find_root_pair_is_least(monkeypatch, l, segment):
    # The search streams the window segment by segment and stops at the
    # first segment holding the gap; 64-value segments put pairs across
    # edges and the least pair past the first segment.
    if segment:
        monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    first = least_pairs(l)
    for g in range(2, max(first) + 6, 2):
        assert find_root_pair(l, g) == first.get(g), g


@pytest.mark.parametrize("g", [3, 0, -2])
def test_find_root_pair_refuses_bad_gap_before_sieving(monkeypatch, g):
    def no_sieve(*args):
        raise AssertionError("sieved for a gap that cannot occur")

    monkeypatch.setattr(census, "prospective_segments", no_sieve)
    for l in (3, 10):
        with pytest.raises(ValueError, match=rf"^gap must be even and >= 2, got {g}$"):
            find_root_pair(l, g)


def test_find_root_pair_budget_is_exact():
    # A prefix of budget integers is [5, 4 + budget]: the pair is found
    # once its upper member is inside, and refused one integer short.
    first = least_pairs(7)
    for g in (14, 22, max(first)):
        a, b = first[g]
        assert find_root_pair(7, g, budget=b - 4) == (a, b)
        with pytest.raises(ValueError, match="sieve budget"):
            find_root_pair(7, g, budget=b - 5)
    # A window the budget covers whole answers None for an absent gap.
    assert find_root_pair(7, 40, budget=primorial(7)) is None
    with pytest.raises(ValueError, match="sieve budget"):
        find_root_pair(7, 40, budget=primorial(7) - 1)


def test_lineage_counts_match_closed_form():
    cases = [(2, 4), (2, 5), (3, 5), (4, 6)]
    for l, k in cases:
        for g in (2, 4, 6, 8):
            root = find_root_pair(l, g)
            if root is None:
                continue
            lineage = derive_pairs(root, l, k)
            assert len(lineage.leaves) == predicted_derived_count(l, k, g)


def test_lineage_leaves_are_consecutive_pairs():
    for g in (2, 4, 6):
        root = find_root_pair(3, g)
        if root is None:
            continue
        for leaf in derive_pairs(root, 3, 5).leaves:
            a, b = leaf.pair
            assert is_prospective(a, 5) and is_prospective(b, 5)
            assert b - a == g
            assert not any(is_prospective(n, 5) for n in range(a + 1, b))


def oracle_lineage_cases(max_leaves=2000):
    """(root, l, k): the least gap-g pair of level l = 2..5 for each g
    that occurs, up to three levels on while the tree stays small."""
    for l in range(2, 6):
        first = least_pairs(l)
        for g in (2, 4, 6, 8, 10, 12, 30):
            if g not in first:
                continue
            leaves = 1
            for k in range(l + 1, l + 4):
                p = nth_prime(k)
                leaves *= p - 1 if g % p == 0 else p - 2
                if leaves > max_leaves:
                    break
                yield first[g], l, k


def lineage_as_tuples(lineage):
    return [
        (leaf.pair, tuple((s.level, s.chosen_m, s.disallowed) for s in lineage.steps(leaf)))
        for leaf in lineage.leaves
    ]


@pytest.mark.parametrize("root, l, k", list(oracle_lineage_cases()), ids=str)
def test_lineage_matches_brute_force_oracle(root, l, k):
    lineage = derive_pairs(root, l, k)
    assert (lineage.root, lineage.root_level, lineage.target_level) == (root, l, k)
    assert lineage_as_tuples(lineage) == oracle_lineage(root, l, k)


@pytest.mark.parametrize("l, k", [(3, 7), pytest.param(4, 8, marks=pytest.mark.slow)])
def test_wide_lineage_matches_brute_force_oracle(l, k):
    # 7 425 and 25 245 leaves, spans of 4 levels: 4 -> 8 is the widest
    # tree any test expands, within the cap of 2^15 leaves.
    lineage = derive_pairs((11, 13), l, k)
    assert len(lineage.leaves) == predicted_derived_count(l, k, 2)
    assert lineage_as_tuples(lineage) == oracle_lineage((11, 13), l, k)


def test_lineage_records_are_frozen_hashable_tuples():
    # (11, 13) is its own first descendant at level 4, with m = 0; the
    # disallowed indices at P_4 = 7 are 11 * 3 and 13 * 3 mod 7, as
    # mhat(1, 4) = 3.
    lineage = derive_pairs((11, 13), 3, 4)
    leaf, other = lineage.leaves[:2]
    step = LineageStep(4, 0, (5, 4))
    assert (step.level, step.chosen_m, step.disallowed) == (4, 0, (5, 4))
    assert (leaf.pair, lineage.steps(leaf)) == ((11, 13), (step,))
    for record, name in ((step, "chosen_m"), (leaf, "pair")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    twin = LineageLeaf((11, 13))
    assert twin == leaf and hash(twin) == hash(leaf)
    assert lineage.steps(twin) == (LineageStep(4, 0, (5, 4)),)
    assert len({leaf, twin, other}) == 2


@pytest.mark.parametrize("root, l, k", [
    ((41, 43), 10, 11),  # a mask of P_11 = 31 flags: the one-hit scatter
    ((59, 61), 16, 17),  # 57 leaves from 59 + P_16#, past 2^63
    ((5, 7), 2, 7),  # P_3..P_7 twice each, 85 085 flags: repeated primes tiled
])
def test_digit_sieve_edges_match_brute_force_oracle(root, l, k):
    lineage = derive_pairs(root, l, k)
    assert len(lineage.leaves) == predicted_derived_count(l, k, root[1] - root[0])
    assert lineage_as_tuples(lineage) == oracle_lineage(root, l, k)


def test_derive_pairs_strikes_once_and_builds_no_steps(monkeypatch):
    def no_step(*args):
        raise AssertionError("a LineageStep was built")

    strikes = []

    def strike(*args):
        strikes.append(args[0])
        return arith._strike(*args)

    expected = [pair for pair, _ in oracle_lineage((5, 7), 2, 5)]
    monkeypatch.setattr(census, "LineageStep", no_step)
    monkeypatch.setattr(census, "_strike", strike)
    assert [leaf.pair for leaf in derive_pairs((5, 7), 2, 5).leaves] == expected
    assert strikes == [5 * 7 * 11]  # one flag per t below P_5# / P_2#


@pytest.mark.parametrize("pair", [
    (35, 37),  # 35 is a multiple of 5 and 7
    (13, 15),  # 13 is not 5 mod P_2# = 6
    (11, 15),  # a gap of 4, not 2
    (215, 217),  # 5 + P_4#: past the level-4 window
])
def test_lineage_steps_refuse_a_non_leaf(pair):
    lineage = derive_pairs((5, 7), 2, 4)
    assert pair not in {leaf.pair for leaf in lineage.leaves}
    with pytest.raises(ValueError, match=rf"^{re.escape(str(pair))} is not a leaf"):
        lineage.steps(LineageLeaf(pair))


def test_lineage_steps_avoid_disallowed():
    lineage = derive_pairs((5, 7), 2, 5)
    for leaf in lineage.leaves:
        for step in lineage.steps(leaf):
            assert step.chosen_m not in step.disallowed


def test_lineage_total_inequality():
    # total gap-g count at level k dominates root-count * per-root yield
    for l, k in ((3, 5), (3, 6), (4, 6)):
        lower = gap_census(l).entries
        upper = gap_census(k).entries
        for g, n_l in lower.items():
            assert upper.get(g, 0) >= n_l * predicted_derived_count(l, k, g)


def test_lineage_subset_distribution_next_level():
    # one pair per subset, missing exactly 2 subsets (or 1 when P_{k+1} | g)
    for l, g in ((2, 2), (3, 4), (3, 6)):
        root = find_root_pair(l, g)
        lineage = derive_pairs(root, l, l + 1)
        subsets = [subset_of(leaf.pair[0], l + 1) for leaf in lineage.leaves]
        assert len(subsets) == len(set(subsets))
        missing = nth_prime(l + 1) - len(subsets)
        assert missing == (1 if g % nth_prime(l + 1) == 0 else 2)


def test_lineage_disallowed_separately_distinct():
    # at one level, the per-component disallowed indices across a
    # lineage's pairs never repeat
    lineage = derive_pairs((5, 7), 2, 3)
    lower = [mhat(leaf.pair[0], 4).value for leaf in lineage.leaves]
    upper = [mhat(leaf.pair[1], 4).value for leaf in lineage.leaves]
    assert len(set(lower)) == len(lower)
    assert len(set(upper)) == len(upper)


# ---------------------------------------------------------------------------
# propagation cases

def test_classify_propagation_examples():
    merged = classify_propagation((113, 121, 127), 4, 0)
    assert merged.roles == (PropagationCase.MERGED,)
    assert merged.merged_gap == 14

    absorbed = classify_propagation((113, 121, 127), 4, 8)
    assert absorbed.roles == (PropagationCase.FIRST_ABSORBED,)
    assert absorbed.gaps == (None, 6)  # the gap beyond the triple is unknown

    preserved = classify_propagation((113, 121, 127), 4, 1)
    assert preserved.roles == (PropagationCase.BOTH_PRESERVED,)
    assert preserved.gaps == (8, 6)


def test_classify_propagation_case_counts():
    # distinct disallowed indices leave P_{k+1} - 3 both-preserved cases
    outcomes = [classify_propagation((113, 121, 127), 4, m) for m in range(11)]
    preserved = [
        o for o in outcomes if o.roles == (PropagationCase.BOTH_PRESERVED,)
    ]
    assert len(preserved) == nth_prime(5) - 3


def test_table1_is_the_four_cases_over_every_residue():
    # Two views of one propagate step: a gap row is blank exactly where
    # the case absorbs or merges that gap, and the disallowed cells sit
    # at the mhat positions.
    table = table1()
    first = {PropagationCase.FIRST_ABSORBED, PropagationCase.MERGED}
    second = {PropagationCase.MERGED, PropagationCase.SECOND_ABSORBED}
    for m in range(nth_prime(5)):
        roles = set(classify_propagation((113, 121, 127), 4, m).roles)
        assert (table.gap_first[m] is None) == bool(roles & first), m
        assert (table.gap_second[m] is None) == bool(roles & second), m
    blanks = tuple(row.index(TableCell(None, False)) for row in table.rows)
    assert blanks == table.mhat_positions == (8, 0, 5)
    assert [sum(cell.value is None for cell in row) for row in table.rows] == [1, 1, 1]


@pytest.mark.parametrize("m", [11, -1])
def test_classify_propagation_refuses_residue_out_of_range(m):
    with pytest.raises(ValueError, match=rf"^m={m} outside \[0, 10\] at level 5$"):
        classify_propagation((113, 121, 127), 4, m)


def test_classify_propagation_rejects_non_consecutive():
    # 121 skipped; not increasing; 119 = 7 * 17 not prospective; 6007
    # skipped at level 6; 10**12 even, in a run spanning far more
    # integers than the sieve budget, which is not consulted
    for triple, k in (
        ((113, 127, 131), 4), ((121, 113, 127), 4), ((113, 119, 127), 4),
        ((6001, 6011, 6023), 6), ((73, 79, 10**12), 20),
    ):
        message = f"^{re.escape(str(triple))} is not a run of consecutive prospective primes at level {k}$"
        with pytest.raises(ValueError, match=message):
            classify_propagation(triple, k, 0)


# ---------------------------------------------------------------------------
# subset structure

def test_subset_gap_spectrum_examples():
    assert sorted(subset_gap_spectrum(3)) == [4, 4, 4, 6]
    k4 = subset_gap_spectrum(4)
    assert sorted(k4) == [6, 6, 6, 6, 6, 8]
    assert k4.index(8) == 2  # the 8 sits between 89 and 97
    assert sorted(subset_gap_spectrum(5)) == [10] * 9 + [12]


# Level 10 and up: each subset end is scanned value by value, so no
# level limit applies.
@pytest.mark.parametrize("k", [3, 4, 5, 6, 10, 12])
def test_subset_gap_spectrum_shape(k):
    p_k = nth_prime(k)
    assert sorted(subset_gap_spectrum(k)) == [p_k - 1] * (p_k - 2) + [p_k + 1]


def test_per_subset_pair_census_examples(monkeypatch):
    # The descendants of the twin root (5, 7) per subset: at least
    # (P_4 - 4) n(3) = 3 * 3 = 9 in each of the 11 subsets at level 5, and
    # (P_5 - 4) n(4) = 7 * 15 = 105 in each of the 13 at level 6.
    for k, subsets, bound, least in ((5, 11, 9, 11), (6, 13, 105, 112)):
        counts = Counter(subset_of(leaf.pair[0], k) for leaf in derive_pairs((5, 7), 2, k).leaves)
        assert sorted(counts) == list(range(subsets))
        assert min(counts.values()) == least >= bound
    assert checks.check_per_subset_minima(6) is None
    # The check reads the bound from the closed form: raise the closed
    # form past the least count, and the check fails on it.
    monkeypatch.setattr(checks, "predicted_derived_count", lambda l, k, g: 4)
    assert checks.check_per_subset_minima(6) == "k=5: 11 < 12"


def test_mhat_delta_examples():
    assert mhat_delta(5, 8) == 3
    assert mhat_delta(5, 2) == 9
    assert mhat_delta(5, 22) == 0  # 11 | 22


@pytest.mark.parametrize("k", [4, 5, 6])
def test_mhat_delta_constant_across_pairs(k):
    p_k = nth_prime(k)
    for g in range(2, 13, 2):
        expected = mhat_delta(k, g)
        seen = False
        for p, p2 in itertools.pairwise(enumerate_prospective(k - 1)):
            if p2 - p != g:
                continue
            seen = True
            assert (mhat(p2, k).value - mhat(p, k).value) % p_k == expected
        if g in (2, 4, 6):
            assert seen


def test_distribution_ratio_examples():
    assert distribution_ratio(5) == Fraction(33, 45)
    assert distribution_ratio(6) == Fraction(91, 99)
    assert distribution_ratio(6) > distribution_ratio(5)


def test_distribution_ratio_refuses_level_below_4():
    with pytest.raises(ValueError, match=r"^level must be >= 4, got 3$"):
        distribution_ratio(3)


# ---------------------------------------------------------------------------
# the worked table

def test_table1_cells():
    table = table1()
    assert table.mhat_positions == (8, 0, 5)
    assert table.rows[0][9].value == 2003 and not table.rows[0][9].composite
    assert table.rows[1][7].value == 1591 and table.rows[1][7].composite
    assert [m for m, v in enumerate(table.merged) if v == 14] == [0, 4, 7]


def test_table1_matches_fixture_byte_exact():
    computed = json.dumps(table1().to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert computed.encode() == FIXTURE.read_bytes()


def test_table1_text_render_mentions_key_cells():
    text = table1().render_text()
    assert "2003" in text and "[961]" in text and "m^" in text
