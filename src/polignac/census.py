"""Gap censuses, gap propagation, and pair-lineage counting.

Covers: consecutive-pair streams and their gap histograms (read from
``arith.segment_gaps`` over ``wheel.prospective_segments``),
the four-case classification of what one propagation step does to a pair
of adjacent gaps, exhaustive lineage trees for a single root pair with
the closed-form count they must match, the search for a lineage's root
pair over prefixes of the window, subset boundary-gap spectra,
per-subset minimum counts, and the constant separation of the two
disallowed indices attached to a gap-g pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .arith import (
    SIEVE_BUDGET, first_pair_with_gap, is_prime, nth_prime, primorial, segment_gaps
)
from .wheel import (
    WheelWindow,
    is_prospective,
    mhat,
    prospective_segments,
    subset_extremes,
    subset_of,
)

# Spans wider than this make the lineage tree explode (product of
# P_i - 2 factors); use predicted_derived_count instead.
LINEAGE_CAP = 4


# ---------------------------------------------------------------------------
# consecutive pairs and gap censuses

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


def consecutive_pairs(
    k: int, lo: int | None = None, hi: int | None = None
) -> Iterator[tuple[int, int, int]]:
    """Adjacent prospective primes of level k in [lo, hi] with their gaps.

    Pairs straddling subset boundaries are included; adjacency is taken
    within the requested range.
    """
    for base, gaps in segment_gaps(prospective_segments(k, lo, hi)):
        for gap in gaps.tolist():
            yield base, base + gap, gap
            base += gap


def gap_census(
    k: int,
    subset: int | None = None,
    lo: int | None = None,
    hi: int | None = None,
    budget: int = SIEVE_BUDGET,
) -> GapCensus:
    """Exact gap histogram over the full window, one subset, or a range:
    the chunks of ``arith.segment_gaps`` histogrammed with np.bincount.
    """
    if subset is not None:
        if lo is not None or hi is not None:
            raise ValueError("give either subset or an explicit range, not both")
        lo, hi = WheelWindow(k).subset(subset)
        scope = f"subset:{subset}"
    elif lo is not None or hi is not None:
        scope = f"range:{lo}:{hi}"
    else:
        scope = "full"
    counts = np.zeros(0, dtype=np.int64)
    for _, gaps in segment_gaps(prospective_segments(k, lo, hi, budget)):
        segment = np.bincount(gaps, minlength=len(counts))
        segment[: len(counts)] += counts
        counts = segment
        # Drop this segment's gaps before the next one is struck, so
        # only one segment's values are alive at a time.
        del gaps
    entries = {int(g): int(counts[g]) for g in np.flatnonzero(counts)}
    return GapCensus(level=k, scope=scope, entries=entries)


def _require_consecutive(run: tuple[int, ...], k: int) -> None:
    """Refuse a run that is not increasing, consecutive prospective
    primes of level k."""
    if any(a >= b for a, b in zip(run, run[1:])):
        raise ValueError(f"{run} is not increasing")
    for q in run:
        if not is_prospective(q, k):
            raise ValueError(f"{q} is not prospective at level {k}")
    if any(is_prospective(n, k) for n in range(run[0] + 1, run[-1]) if n not in run):
        raise ValueError(f"{run} is not consecutive at level {k}")


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
    prime outside the triple; that extension is reported as None unless
    the caller supplies the neighbour.  Coinciding disallowed indices
    yield several roles at once.
    """

    roles: tuple[PropagationCase, ...]
    gaps: tuple[int | None, ...]
    merged_gap: int | None = None


def classify_propagation(
    triple: tuple[int, int, int],
    k: int,
    m: int,
    left_neighbor: int | None = None,
    right_neighbor: int | None = None,
) -> PropagationOutcome:
    """Classify propagating a consecutive triple at level k with residue m."""
    _require_consecutive(triple, k)
    p, p2, p3 = triple
    p_next = nth_prime(k + 1)
    if not 0 <= m <= p_next - 1:
        raise ValueError(f"m={m} outside [0, {p_next - 1}]")
    g, g2 = p2 - p, p3 - p2
    hats = tuple(mhat(q, k + 1).value for q in (p, p2, p3))
    roles = []
    if m == hats[0]:
        roles.append(PropagationCase.FIRST_ABSORBED)
    if m == hats[1]:
        roles.append(PropagationCase.MERGED)
    if m == hats[2]:
        roles.append(PropagationCase.SECOND_ABSORBED)
    if not roles:
        return PropagationOutcome(
            roles=(PropagationCase.BOTH_PRESERVED,), gaps=(g, g2)
        )
    gaps: list[int | None] = []
    merged = None
    if PropagationCase.MERGED in roles:
        merged = g + g2
        gaps.append(merged)
    if PropagationCase.FIRST_ABSORBED in roles:
        ext = p - left_neighbor if left_neighbor is not None else None
        gaps.insert(0, ext + g if ext is not None else None)
    if PropagationCase.SECOND_ABSORBED in roles:
        ext = right_neighbor - p3 if right_neighbor is not None else None
        gaps.append(g2 + ext if ext is not None else None)
    if roles == [PropagationCase.FIRST_ABSORBED]:
        gaps.append(g2)
    if roles == [PropagationCase.SECOND_ABSORBED]:
        gaps.insert(0, g)
    return PropagationOutcome(roles=tuple(roles), gaps=tuple(gaps), merged_gap=merged)


# ---------------------------------------------------------------------------
# lineage trees and counting

@dataclass(frozen=True)
class LineageStep:
    level: int  # level being entered
    chosen_m: int
    disallowed: tuple[int, int]  # per-component disallowed indices


@dataclass(frozen=True)
class LineageLeaf:
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

    @property
    def gap(self) -> int:
        return self.root[1] - self.root[0]

    def to_json_dict(self) -> dict:
        return {
            "root": list(self.root),
            "root_level": self.root_level,
            "target_level": self.target_level,
            "gap": self.gap,
            "leaves": [
                {
                    "pair": list(leaf.pair),
                    "steps": [
                        {
                            "level": s.level,
                            "m": s.chosen_m,
                            "disallowed": list(s.disallowed),
                        }
                        for s in leaf.steps
                    ],
                }
                for leaf in self.leaves
            ],
        }


def predicted_derived_count(l: int, k: int, g: int) -> int:
    """Closed-form count of gap-g descendants one root pair at level l
    spawns at level k: one factor P_i - 1 or P_i - 2 per level, picked
    by whether P_i divides g."""
    if g < 2 or g % 2:
        raise ValueError(f"gap must be even and >= 2, got {g}")
    if not 2 <= l < k:
        raise ValueError(f"need k > l >= 2, got l={l}, k={k}")
    count = 1
    for i in range(l + 1, k + 1):
        p = nth_prime(i)
        count *= (p - 1) if g % p == 0 else (p - 2)
    return count


def derive_pairs(
    root: tuple[int, int],
    l: int,
    k: int,
    lineage_cap: int = LINEAGE_CAP,
) -> PairLineage:
    """All gap-g descendants of one consecutive pair, level l up to k.

    At each level both components get the same residue m, skipping the
    one or two disallowed values; leaf count must equal
    predicted_derived_count(l, k, g).
    """
    if k - l > lineage_cap:
        raise ValueError(
            f"span {k - l} exceeds lineage cap {lineage_cap}; "
            "use predicted_derived_count for the size"
        )
    _require_consecutive(root, l)
    frontier: list[LineageLeaf] = [LineageLeaf(pair=root, steps=())]
    for j in range(l, k):
        step_size = primorial(j)
        p_next = nth_prime(j + 1)
        grown: list[LineageLeaf] = []
        for node in frontier:
            a, b = node.pair
            hat_a = mhat(a, j + 1).value
            hat_b = mhat(b, j + 1).value
            for m in range(p_next):
                if m == hat_a or m == hat_b:
                    continue
                step = LineageStep(
                    level=j + 1, chosen_m=m, disallowed=(hat_a, hat_b)
                )
                grown.append(
                    LineageLeaf(
                        pair=(a + m * step_size, b + m * step_size),
                        steps=node.steps + (step,),
                    )
                )
        frontier = grown
    frontier.sort(key=lambda leaf: leaf.pair)
    return PairLineage(root=root, root_level=l, target_level=k, leaves=frontier)


def find_root_pair(l: int, g: int, budget: int = SIEVE_BUDGET) -> tuple[int, int] | None:
    """Least consecutive prospective pair with gap g at level l, or None
    when the window holds none.

    Prefixes of the window that double in size are searched in turn,
    each held to budget, so a pair near the start of a window too wide
    to sieve whole is still found.  When the widest prefix the budget
    admits holds no pair and the window runs on, the search is refused.
    """
    end = WheelWindow(l).hi
    width = 1 << 12
    while True:
        hi = min(4 + min(width, budget), end)
        chunks = segment_gaps(prospective_segments(l, None, hi, budget))
        pair = first_pair_with_gap(chunks, g)
        if pair is not None or hi == end:
            return pair
        if width >= budget:
            raise ValueError(
                f"no gap-{g} pair among the first {budget} integers of the level-{l} "
                f"window; searching on exceeds the sieve budget"
            )
        width *= 2


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


@dataclass
class PerSubsetCensus:
    """Lineage-derived gap-g pairs per subset of the level-k window,
    against the per-subset lower bound (P_{k-1} - 4) * n(k-2)."""

    root: tuple[int, int]
    root_level: int
    level: int
    gap: int
    counts: list[int]
    bound: int

    @property
    def holds(self) -> bool:
        return all(c >= self.bound for c in self.counts)


def per_subset_pair_census(
    l: int,
    k: int,
    g: int,
    root: tuple[int, int] | None = None,
    lineage_cap: int = LINEAGE_CAP,
) -> PerSubsetCensus:
    """Count one root pair's descendants landing in each subset of the
    level-k window (pair located by its lower component)."""
    if k <= l + 2:
        raise ValueError(f"need k > l + 2, got l={l}, k={k}")
    if root is None:
        root = find_root_pair(l, g)
        if root is None:
            raise ValueError(f"no gap-{g} pair at level {l}")
    lineage = derive_pairs(root, l, k, lineage_cap=lineage_cap)
    counts = [0] * nth_prime(k)
    for leaf in lineage.leaves:
        counts[subset_of(leaf.pair[0], k)] += 1
    bound = (nth_prime(k - 1) - 4) * predicted_derived_count(l, k - 2, g)
    return PerSubsetCensus(
        root=root, root_level=l, level=k, gap=g, counts=counts, bound=bound
    )


def mhat_delta(k: int, g: int) -> int:
    """Constant separation (mhat' - mhat) mod P_k shared by every gap-g
    pair propagating into level k.  mhat is linear in p, so the
    separation of (p, p + g) is the disallowed index of g itself."""
    if g < 2 or g % 2:
        raise ValueError(f"gap must be even and >= 2, got {g}")
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
        return {
            "level": self.level,
            "roots": list(self.roots),
            "mhat_positions": list(self.mhat_positions),
            "rows": [
                [
                    {"value": c.value, "composite": c.composite} if c.value is not None
                    else {"value": None, "composite": False}
                    for c in row
                ]
                for row in self.rows
            ],
            "gap_first": self.gap_first,
            "gap_second": self.gap_second,
            "merged": self.merged,
        }

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


def propagation_table(
    triple: tuple[int, int, int] = (113, 121, 127), k: int = 4
) -> PropagationTable:
    """Propagate a consecutive triple from level k into level k+1,
    residue by residue."""
    p, p2, p3 = triple
    g, g2 = p2 - p, p3 - p2
    p_next = nth_prime(k + 1)
    step = primorial(k)
    hats = tuple(mhat(q, k + 1).value for q in triple)
    rows: list[list[TableCell]] = []
    for root, hat in zip(triple, hats):
        row = []
        for m in range(p_next):
            if m == hat:
                row.append(TableCell(value=None, composite=False))
            else:
                value = root + m * step
                row.append(TableCell(value=value, composite=not is_prime(value)))
        rows.append(row)
    gap_first = [
        g if m not in (hats[0], hats[1]) else None for m in range(p_next)
    ]
    gap_second = [
        g2 if m not in (hats[1], hats[2]) else None for m in range(p_next)
    ]
    merged = []
    for m in range(p_next):
        outer_ok = (
            rows[0][m].value is not None
            and not rows[0][m].composite
            and rows[2][m].value is not None
            and not rows[2][m].composite
        )
        middle_gone = rows[1][m].value is None or rows[1][m].composite
        merged.append(g + g2 if outer_ok and middle_gone else None)
    return PropagationTable(
        level=k,
        roots=triple,
        rows=rows,
        mhat_positions=hats,
        gap_first=gap_first,
        gap_second=gap_second,
        merged=merged,
    )


def table1() -> PropagationTable:
    """The worked propagation of (113, 121, 127) from level 4 to 5."""
    return propagation_table()
