"""Gap censuses, gap propagation, and pair-lineage counting.

Covers: gap histograms of consecutive prospective primes (read from
``arith.segment_gaps`` over ``wheel.prospective_segments``),
the four-case classification of what one propagation step does to a pair
of adjacent gaps, exhaustive lineage trees for a single root pair with
the closed-form count they must match, the search for a lineage's root
pair among the window's first budget integers (by
``arith.first_pair_with_gap``), subset boundary-gap spectra (from the
walk of ``wheel.subset_extremes``), and the constant separation of the
two disallowed indices attached to a gap-g pair.  The per-subset minimum
of a root pair's descendants is checked by
``checks.check_per_subset_minima``.

A run taken as consecutive, a lineage's root pair or a propagated
triple, is checked by ``wheel.is_consecutive``, which walks from member
to member and sieves nothing.

The four cases and the paper's worked Table 1 are two views of one step,
``wheel.propagate``: a case reads which members of a triple it marks
disallowed for one residue m, and Table 1 is ``propagate`` of the triple
(113, 121, 127) from level 4 over every residue m < P_5.

A full-window census at level k >= 3 is one propagation step, the first
step of Holt's recursion on gap shapes ("Combinatorics of the gaps
between primes").  The level-k window is P_k copies of the level-(k - 1)
one, and each value is a multiple of P_k in exactly one copy, so over
the cyclic level-(k - 1) gaps G_i

    C_k(g) = (P_k - 2) #{i : G_i = g} + #{i : G_i + G_{i+1} = g},

less one at the level-k wrap gap P_{k+1} - 1, exact while every
G_i < 2 P_k.  One pass over the level-(k - 1) window, P_k times fewer
integers, gives the level-k census; subsets and ranges are sieved.

A lineage tree grows level by level as LineageLeaf tuples, each node
built once.  mhat is linear, so one mhat call per level gives every
node's disallowed index; the nodes with the same index share one row of
LineageSteps.  A child x + m * P_j# lies in the m-th stretch of width
P_j#, so children emitted residue by residue over an increasing
frontier come out increasing, and the tree needs no sort.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np

from .arith import (
    SIEVE_BUDGET, first_pair_with_gap, is_prime, nth_prime, primorial, segment_gaps
)
from .wheel import (
    is_consecutive,
    mhat,
    propagate,
    prospective_segments,
    subset_bounds,
    subset_extremes,
    window_bounds,
)

# The most leaves a lineage tree may hold.  Its size is
# predicted_derived_count, a product of P_i - 2 factors that grows with
# the primes, so a span of a few levels can already hold millions.
LINEAGE_CAP = 1 << 15


# ---------------------------------------------------------------------------
# gap censuses

@dataclass
class GapCensus:
    """Histogram gap -> count of consecutive prospective pairs in a scope."""

    level: int
    scope: str
    entries: dict[int, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "scope": self.scope,
            "entries": {str(g): str(c) for g, c in sorted(self.entries.items())},
        }


def gap_census(
    k: int,
    subset: int | None = None,
    lo: int | None = None,
    hi: int | None = None,
    budget: int = SIEVE_BUDGET,
) -> GapCensus:
    """Exact gap histogram over the full window, one subset, or a range.

    A subset, a range and the full level-2 window are sieved: the chunks
    of ``arith.segment_gaps`` histogrammed with np.bincount.  A subset
    spans one copy of the level-(k - 1) window, so it costs what that
    window does.  The full window at level k >= 3 is not sieved: it
    follows from one pass over the level-(k - 1) window, P_k times
    fewer integers, by the identity of ``_one_step_census``,

        C_k(g) = (P_k - 2) #{i : G_i = g} + #{i : G_i + G_{i+1} = g},

    over the cyclic level-(k - 1) gaps G_i, less one at the level-k
    wrap gap P_{k+1} - 1.  It is exact while every G_i < 2 P_k: the
    largest gap is 40 at level 9 (2 P_10 = 58) and 46 at level 10
    (2 P_11 = 62).  That pass spans P_{k-1}# integers and is held to
    budget as one pass, so the default admits the level-10 census and
    refuses the level-11 one, naming the level-10 window.
    """
    if subset is not None:
        if lo is not None or hi is not None:
            raise ValueError("give either subset or an explicit range, not both")
        lo, hi = subset_bounds(k, subset)
        scope = f"subset:{subset}"
    elif lo is not None or hi is not None:
        scope = f"range:{lo}:{hi}"
    elif k >= 3:
        return GapCensus(level=k, scope="full", entries=_one_step_census(k, budget))
    else:
        scope = "full"
    counts = np.zeros(0, dtype=np.int64)
    for _, gaps in segment_gaps(prospective_segments(k, lo, hi, budget)):
        counts = _tally(counts, gaps)
        # Drop this segment's gaps before the next one is struck, so
        # only one segment's values are alive at a time.
        del gaps
    entries = {int(g): int(counts[g]) for g in np.flatnonzero(counts)}
    return GapCensus(level=k, scope=scope, entries=entries)


def _tally(counts: np.ndarray, values) -> np.ndarray:
    """counts, indexed by value, plus one for each of values."""
    tally = np.bincount(values, minlength=len(counts))
    tally[: len(counts)] += counts
    return tally


def _one_step_census(k: int, budget: int) -> dict[int, int]:
    """The full level-k census, k >= 3, from one pass over the
    level-(k - 1) window [5, 4 + P_{k-1}#].

    G_0 ... G_{n-1} are the cyclic level-(k - 1) gaps: those of that
    window, then the wrap gap P_k - 1 from its last value, P_{k-1}# + 1,
    to the next window's first, P_{k-1}# + P_k.  The level-k window is
    P_k copies of it, the m-th shifted by m P_{k-1}#, and each value is
    a multiple of P_k in exactly one copy, its mhat, which drops it.
    Two adjacent values share that copy only if P_k divides their gap,
    an even number, so only if the gap is at least 2 P_k.  While every
    G_i < 2 P_k, each gap survives in P_k - 2 copies, and each dropped
    value merges the two gaps beside it:

        C_k(g) = (P_k - 2) #{i : G_i = g} + #{i : G_i + G_{i+1} = g},

    with i + 1 taken mod n.  The window [5, 4 + P_k#] leaves out the one
    level-k wrap gap, P_{k+1} - 1.  A level-(k - 1) gap that P_k divides
    is refused.  Each chunk's gaps are tallied, then overwritten by the
    sums of adjacent gaps, and the last gap is carried to the next
    chunk, so no second array is made.
    """
    p = nth_prime(k)
    singles = pairs = np.zeros(0, dtype=np.int64)
    seams: list[int] = []  # the pair sums that straddle two chunks
    first = last = None
    for _, gaps in segment_gaps(prospective_segments(k - 1, budget=budget)):
        if not len(gaps):
            continue
        singles = _tally(singles, gaps)
        if last is None:
            first = int(gaps[0])
        else:
            seams.append(last + int(gaps[0]))
        last = int(gaps[-1])
        np.add(gaps[:-1], gaps[1:], out=gaps[:-1])
        pairs = _tally(pairs, gaps[:-1])
        del gaps
    wrap = p - 1
    singles = _tally(singles, [wrap])
    pairs = _tally(pairs, seams + [last + wrap, wrap + first])
    if singles[p::p].any():
        raise ValueError(f"a level-{k - 1} gap is a multiple of P_{k} = {p}: "
                         f"one propagation step cannot count level {k}")
    entries: Counter[int] = Counter()
    for weight, counts in ((p - 2, singles), (1, pairs)):
        for g in np.flatnonzero(counts).tolist():
            entries[g] += weight * int(counts[g])
    entries[nth_prime(k + 1) - 1] -= 1
    return {g: n for g, n in sorted(entries.items()) if n}


def require_gap(g: int) -> None:
    """Refuse a gap that is not even and >= 2: no other gap occurs
    between prospective primes of level 2 or more, or between odd primes."""
    if g < 2 or g % 2:
        raise ValueError(f"gap must be even and >= 2, got {g}")


def _require_consecutive(run: tuple[int, ...], k: int) -> None:
    """Refuse a run that is not every prospective prime of level k from
    its first value to its last, in increasing order, as
    ``wheel.is_consecutive`` walks it."""
    if not is_consecutive(run, k):
        raise ValueError(f"{run} is not a run of consecutive prospective primes at level {k}")


# ---------------------------------------------------------------------------
# propagation of a gap pair: the four cases

class PropagationCase(enum.Enum):
    BOTH_PRESERVED = "both-preserved"
    FIRST_ABSORBED = "first-absorbed"
    MERGED = "merged"
    SECOND_ABSORBED = "second-absorbed"


@dataclass(frozen=True)
class PropagationOutcome:
    """What one propagation step with residue m does to a consecutive
    triple's two gaps.

    When m hits none of the three disallowed indices the sole role is
    BOTH_PRESERVED and `gaps` carries (g, g').  An absorbed end gap
    extends by an unknown amount toward the neighbouring prospective
    prime outside the triple; that extension is reported as None.
    Coinciding disallowed indices yield several roles at once.
    """

    roles: tuple[PropagationCase, ...]
    gaps: tuple[int | None, ...]
    merged_gap: int | None = None


def classify_propagation(triple: tuple[int, int, int], k: int, m: int) -> PropagationOutcome:
    """Classify propagating a consecutive triple at level k with residue m:
    its roles are the members that ``propagate`` marks disallowed, and an
    m outside [0, P_{k+1} - 1] is refused there."""
    _require_consecutive(triple, k)
    p, p2, p3 = triple
    g, g2 = p2 - p, p3 - p2
    # The gap each role leaves, in role order: an absorbed end merges its
    # gap with the one beyond the triple, which the triple does not know.
    gap_of = {
        PropagationCase.FIRST_ABSORBED: None,
        PropagationCase.MERGED: g + g2,
        PropagationCase.SECOND_ABSORBED: None,
    }
    roles = tuple(
        role for role, q in zip(gap_of, triple) if propagate(q, k, m).disallowed
    )
    if not roles:
        return PropagationOutcome(
            roles=(PropagationCase.BOTH_PRESERVED,), gaps=(g, g2)
        )
    gaps = tuple(gap_of[role] for role in roles)
    # One absorbed end leaves the other gap untouched.
    if roles == (PropagationCase.FIRST_ABSORBED,):
        gaps += (g2,)
    elif roles == (PropagationCase.SECOND_ABSORBED,):
        gaps = (g,) + gaps
    merged = g + g2 if PropagationCase.MERGED in roles else None
    return PropagationOutcome(roles=roles, gaps=gaps, merged_gap=merged)


# ---------------------------------------------------------------------------
# lineage trees and counting

class LineageStep(NamedTuple):
    level: int  # level being entered
    chosen_m: int
    disallowed: tuple[int, int]  # per-component disallowed indices


class LineageLeaf(NamedTuple):
    pair: tuple[int, int]
    steps: tuple[LineageStep, ...]


@dataclass
class PairLineage:
    """Exhaustive propagation tree of one gap-g pair from root_level up
    to target_level, one LineageLeaf per surviving descendant pair."""

    root: tuple[int, int]
    root_level: int
    target_level: int
    leaves: list[LineageLeaf]


def _require_levels(l: int, k: int) -> None:
    if not 2 <= l < k:
        raise ValueError(f"need k > l >= 2, got l={l}, k={k}")


def predicted_derived_count(l: int, k: int, g: int) -> int:
    """Closed-form count of gap-g descendants one root pair at level l
    spawns at level k: one factor P_i - 1 or P_i - 2 per level, picked
    by whether P_i divides g."""
    require_gap(g)
    _require_levels(l, k)
    count = 1
    for i in range(l + 1, k + 1):
        p = nth_prime(i)
        count *= (p - 1) if g % p == 0 else (p - 2)
    return count


def derive_pairs(root: tuple[int, int], l: int, k: int) -> PairLineage:
    """All gap-g descendants of one consecutive pair, level l up to k,
    increasing; the leaf count must equal predicted_derived_count(l, k, g).

    Every node is a LineageLeaf, built once.  Entering level j + 1, both
    members of (x, x + g) take the same residue m, any but their two
    disallowed indices.  mhat is linear, so one call per level, for 1,
    gives x's index as x times it mod P_{j+1}, and x + g's is that plus
    the index of g, mhat_delta(j + 1, g); the nodes with the same index
    share one row of LineageSteps, None at the two disallowed m.  The
    child x + m * P_j# of a node x of the level-j window [5, 4 + P_j#]
    lies in the m-th stretch of width P_j#, so children emitted m by m
    over an increasing frontier are increasing: no sort.  Refused, before
    any node is built: l < 2 or k <= l (as predicted_derived_count
    refuses them), a root that is not a consecutive pair, and a tree of
    more than LINEAGE_CAP leaves.
    """
    _require_levels(l, k)
    _require_consecutive(root, l)
    g = root[1] - root[0]
    if (size := predicted_derived_count(l, k, g)) > LINEAGE_CAP:
        raise ValueError(
            f"{size} leaves exceed the lineage cap of {LINEAGE_CAP}; "
            "use predicted_derived_count for the size"
        )
    frontier = [LineageLeaf(root, ())]
    for j in range(l, k):
        p, step_size, unit = nth_prime(j + 1), primorial(j), mhat(1, j + 1).value
        hats = [a * unit % p for (a, _), _ in frontier]
        rows = {hat: _step_row(j + 1, p, (hat, (hat + g * unit) % p)) for hat in set(hats)}
        nodes = [(a, b, steps, rows[hat]) for ((a, b), steps), hat in zip(frontier, hats)]
        frontier = []
        for m in range(p):
            shift = m * step_size
            frontier += [
                LineageLeaf((a + shift, b + shift), steps + (step,))
                for a, b, steps, row in nodes
                if (step := row[m]) is not None
            ]
    return PairLineage(root=root, root_level=l, target_level=k, leaves=frontier)


def _step_row(level: int, p: int, disallowed: tuple[int, int]) -> list[LineageStep | None]:
    """The step taken with each residue m < p into level, None at the
    two disallowed m."""
    return [None if m in disallowed else LineageStep(level, m, disallowed) for m in range(p)]


def find_root_pair(l: int, g: int, budget: int = SIEVE_BUDGET) -> tuple[int, int] | None:
    """Least consecutive prospective pair with gap g at level l, or None
    when the window holds none.

    The window's first budget integers are searched by
    ``arith.first_pair_with_gap``, which refuses when that prefix holds
    no pair and the window runs on; a gap that is not even and >= 2 is
    refused before anything is sieved.
    """
    require_gap(g)
    return first_pair_with_gap(partial(prospective_segments, l), *window_bounds(l), g, budget)


# ---------------------------------------------------------------------------
# subset structure

def subset_gap_spectrum(k: int) -> list[int]:
    """The P_k - 1 boundary gaps between adjacent subsets of the level-k
    window: min of subset m minus max of subset m-1."""
    if k < 3:
        raise ValueError(f"level must be >= 3, got {k}")
    p_k = nth_prime(k)
    extremes = [subset_extremes(k, m) for m in range(p_k)]
    return [extremes[m][0] - extremes[m - 1][1] for m in range(1, p_k)]


def mhat_delta(k: int, g: int) -> int:
    """Constant separation (mhat' - mhat) mod P_k shared by every gap-g
    pair propagating into level k.  mhat is linear in p, so the
    separation of (p, p + g) is the disallowed index of g itself."""
    require_gap(g)
    return mhat(g, k).value


def distribution_ratio(k: int) -> Fraction:
    """Per-subset minimum over the even split, P_k(P_{k-1}-4) /
    ((P_k-2)(P_{k-1}-2)); strictly below 1, climbing toward it."""
    if k < 4:
        raise ValueError(f"level must be >= 4, got {k}")
    p_k, p_prev = nth_prime(k), nth_prime(k - 1)
    return Fraction(p_k * (p_prev - 4), (p_k - 2) * (p_prev - 2))


# ---------------------------------------------------------------------------
# the worked 113/121/127 propagation table

@dataclass(frozen=True)
class TableCell:
    value: int | None  # None at the disallowed residue
    composite: bool  # rendered bold in the original


@dataclass
class PropagationTable:
    """One full propagation of a consecutive triple into the next level:
    per-residue values with compositeness flags, the two per-step gap
    rows (blank where an end of the gap is disallowed), and the merged
    row marking residues where the two outer values are prime with no
    prime between them."""

    level: int
    roots: tuple[int, int, int]
    rows: list[list[TableCell]]
    mhat_positions: tuple[int, int, int]
    gap_first: list[int | None]
    gap_second: list[int | None]
    merged: list[int | None]

    def to_json_dict(self) -> dict:
        # The field names, TableCell's too, are the JSON keys.
        return asdict(self)

    def render_text(self) -> str:
        p_next = nth_prime(self.level + 1)
        headers = ["m="] + [str(m) for m in range(p_next)]
        lines = [headers]
        for root, row in zip(self.roots, self.rows):
            cells = [str(root)]
            for cell in row:
                if cell.value is None:
                    cells.append("m^")
                elif cell.composite:
                    cells.append(f"[{cell.value}]")
                else:
                    cells.append(str(cell.value))
            lines.append(cells)
        for label, row in (
            ("g", self.gap_first),
            ("g'", self.gap_second),
            ("g+g'", self.merged),
        ):
            lines.append([label] + ["" if v is None else str(v) for v in row])
        widths = [max(len(line[i]) for line in lines) for i in range(len(headers))]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(line, widths))
            for line in lines
        )


def table1() -> PropagationTable:
    """The worked propagation of the consecutive triple (113, 121, 127)
    from level 4 into level 5: ``propagate`` of each member with every
    residue m.  A gap is blank where either of its ends is disallowed,
    and the merged row holds g + g' where both outer values are prime and
    the middle one is disallowed or composite."""
    triple, k = (113, 121, 127), 4
    steps = [[propagate(q, k, m) for m in range(nth_prime(k + 1))] for q in triple]
    rows = [
        [TableCell(None, False) if s.disallowed else TableCell(s.value, not is_prime(s.value))
         for s in row]
        for row in steps
    ]
    gap_first, gap_second = (
        [None if a.disallowed or b.disallowed else b.value - a.value for a, b in zip(lower, upper)]
        for lower, upper in zip(steps, steps[1:])
    )
    prime = [[c.value is not None and not c.composite for c in row] for row in rows]
    merged = [triple[2] - triple[0] if a and c and not b else None for a, b, c in zip(*prime)]
    return PropagationTable(
        level=k, roots=triple, rows=rows, mhat_positions=tuple(mhat(q, k + 1).value for q in triple),
        gap_first=gap_first, gap_second=gap_second, merged=merged,
    )
