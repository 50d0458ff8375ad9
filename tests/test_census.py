import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from polignac import arith
from polignac.arith import nth_prime, primorial
from polignac.census import (
    PropagationCase,
    classify_propagation,
    consecutive_pairs,
    derive_pairs,
    distribution_ratio,
    find_root_pair,
    gap_census,
    mhat_delta,
    per_subset_pair_census,
    predicted_derived_count,
    subset_gap_spectrum,
    table1,
)
from polignac.wheel import is_prospective, mhat, subset_of
from conftest import oracle_prospective

FIXTURE = Path(__file__).parent / "data" / "table1.json"


# ---------------------------------------------------------------------------
# pairs and censuses

def test_consecutive_pairs_small():
    pairs = list(consecutive_pairs(3))
    assert [g for _, _, g in pairs] == [4, 2, 4, 2, 4, 6, 2]
    assert list(consecutive_pairs(2)) == [(5, 7, 2)]


def test_consecutive_pairs_range():
    pairs = list(consecutive_pairs(4, 95, 130))
    assert (113, 121, 8) in pairs
    assert (121, 127, 6) in pairs


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


def test_derive_pairs_cap():
    with pytest.raises(ValueError):
        derive_pairs((5, 7), 2, 8)


def test_derive_pairs_rejects_non_consecutive_root():
    with pytest.raises(ValueError):
        derive_pairs((113, 127), 4, 5)  # 121 lies between


def test_derive_pairs_rejects_decreasing_root():
    with pytest.raises(ValueError):
        derive_pairs((7, 5), 2, 3)


def least_pairs(l):
    """Least consecutive prospective pair of level l for each gap."""
    members = oracle_prospective(l)
    first = {}
    for a, b in zip(members, members[1:]):
        first.setdefault(b - a, (a, b))
    return first


@pytest.mark.parametrize("l, segment", [(4, None), (6, 64), (7, None)])
def test_find_root_pair_is_least(monkeypatch, l, segment):
    # Windows wider than the first 4096-integer prefix make the search
    # double its prefix; 64-value segments put pairs across edges.
    if segment:
        monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    first = least_pairs(l)
    for g in range(2, max(first) + 6, 2):
        assert find_root_pair(l, g) == first.get(g), g


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


def test_lineage_steps_avoid_disallowed():
    lineage = derive_pairs((5, 7), 2, 5)
    for leaf in lineage.leaves:
        for step in leaf.steps:
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


def test_classify_propagation_with_neighbor():
    # 109 precedes 113 among level-4 prospectives
    outcome = classify_propagation((113, 121, 127), 4, 8, left_neighbor=109)
    assert outcome.gaps == (4 + 8, 6)


def test_classify_propagation_rejects_non_consecutive():
    # 121 skipped; not increasing; 119 = 7 * 17 not prospective
    for triple in ((113, 127, 131), (121, 113, 127), (113, 119, 127)):
        with pytest.raises(ValueError):
            classify_propagation(triple, 4, 0)


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


def test_per_subset_pair_census_examples():
    c5 = per_subset_pair_census(2, 5, 2)
    assert c5.bound == 9
    assert len(c5.counts) == 11
    assert c5.holds

    with pytest.raises(ValueError):
        per_subset_pair_census(2, 4, 2)

    c6 = per_subset_pair_census(2, 6, 2)
    assert c6.bound == 105
    assert len(c6.counts) == 13
    assert c6.holds


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
        for p, p2, gap in consecutive_pairs(k - 1):
            if gap != g:
                continue
            seen = True
            assert (mhat(p2, k).value - mhat(p, k).value) % p_k == expected
        if g in (2, 4, 6):
            assert seen


def test_distribution_ratio_examples():
    assert distribution_ratio(5) == Fraction(33, 45)
    assert distribution_ratio(6) == Fraction(91, 99)
    assert distribution_ratio(6) > distribution_ratio(5)


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
