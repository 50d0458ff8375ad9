"""Gap censuses, gap propagation, and pair-lineage counting.

Covers: gap histograms of consecutive prospective primes (by
``arith.tally_gaps`` over ``wheel.prospective_range``, a pass of
``arith``'s one sieve driver, ``arith.map_segments``),
the four-case classification of what one propagation step does to a pair
of adjacent gaps, exhaustive lineage trees for a single root pair with
the closed-form count they must match, the search for a lineage's root
pair among the window's first budget integers (by
``arith.first_pair_with_gap`` over ``wheel.prospective_segments``, which
reads a first window of ``arith.FIRST_SEGMENT`` integers, and longer
windows and the rest of the prefix only on a miss), subset boundary-gap
spectra (from the walk of ``wheel.subset_extremes``), and the constant
separation of the two disallowed indices attached to a gap-g pair.  The per-subset minimum
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
G_i < 2 P_k.  One ``arith.map_segments`` pass over the level-(k - 1)
window, P_k times fewer integers, gives the level-k census.  Its
reduce, ``_cycle_counts``, is this module's own: it counts each chunk's
gaps and sums of adjacent gaps on the chunk's worker thread, and the
caller counts those across the seams, the wrap among them, from the
values it carries across them; ``arith``'s gap tally knows nothing of
sums.  Subsets and ranges are sieved.

A lineage tree is one sieve over the digit space.  The descendants of
a root (a, a + g) of level l at level k are the x = a + t P_l#, t below
P_k# / P_l#, that no P_{l+1}..P_k divides, nor x + g: two residue
classes of t per prime, struck by one ``arith._strike`` call, and the
survivors, read in order, are the leaves in increasing order.  A leaf
carries only its pair.  Its steps are the mixed-radix digits of t, read
off on demand by ``PairLineage.steps``, and mhat is linear, so each
step's disallowed pair is the ancestor times mhat(1) mod the level's
prime: one table of steps per level, built on the first call, serves
every leaf.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .arith import (
    SIEVE_BUDGET, _add_counts, _strike, first_pair_with_gap, is_prime, map_segments, nth_prime,
    primorial, tally_gaps,
)
from .wheel import (
    is_consecutive,
    is_prospective,
    mhat,
    propagate,
    prospective_range,
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

    A subset, a range and the full level-2 window are sieved: one
    ``arith.tally_gaps`` pass, whose chunks are histogrammed with
    np.bincount on the threads of its pool.  A subset
    spans one copy of the level-(k - 1) window, so it costs what that
    window does.  The full window at level k >= 3 is not sieved: it
    follows from one ``arith.map_segments`` pass over the level-(k - 1)
    window, P_k times fewer integers, whose chunks ``_cycle_counts``
    tallies on the same threads, by the identity of
    ``_one_step_census``,

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
    counts = tally_gaps(*prospective_range(k, lo, hi), budget).singles
    entries = {int(g): int(counts[g]) for g in np.flatnonzero(counts)}
    return GapCensus(level=k, scope=scope, entries=entries)


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
    is refused.

    One ``arith.map_segments`` pass counts each chunk's gaps and sums
    by ``_cycle_counts``, on the chunk's worker thread.  The gaps and
    sums across each seam come from the last two values before it and
    the first two after it.  Those before the first seam are the
    window's last two, P_{k-1}# - 1 and P_{k-1}# + 1, shifted back one
    period to -1 and 1, so the first seam is the wrap and the cycle
    closes with no gap added by hand.
    """
    p = nth_prime(k)
    singles = pairs = np.zeros(0, dtype=np.int64)
    seams, seam_sums, carry = [], [], [-1, 1]
    for head, tail, gaps, sums in map_segments(*prospective_range(k - 1), _cycle_counts, budget):
        if head:
            edge = carry + head
            seams.append((edge[2] - edge[1]) // 2)
            seam_sums += [(b - a) // 2 for a, b in zip(edge, edge[2:])]
            carry = (carry + tail)[-2:]
        singles, pairs = _add_counts(singles, gaps), _add_counts(pairs, sums)
    singles = _add_counts(singles, np.bincount(seams))
    pairs = _add_counts(pairs, np.bincount(seam_sums))
    if singles[p::p].any():
        raise ValueError(f"a level-{k - 1} gap is a multiple of P_{k} = {p}: "
                         f"one propagation step cannot count level {k}")
    entries: Counter[int] = Counter()
    for weight, counts in ((p - 2, singles), (1, pairs)):
        for half in np.flatnonzero(counts).tolist():
            entries[2 * half] += weight * int(counts[half])
    entries[nth_prime(k + 1) - 1] -= 1
    return {g: n for g, n in sorted(entries.items()) if n}


def _cycle_counts(start: int, offsets: np.ndarray) -> tuple[list, list, np.ndarray, np.ndarray]:
    """A chunk of the one-step census, its values start + 2 * offsets:
    its first two and last two values, and the histograms of its gaps
    and of the sums of adjacent gaps, in units of 2, both taken in place
    in offsets."""
    head, tail = ([start + 2 * o for o in part.tolist()] for part in (offsets[:2], offsets[-2:]))
    gaps = offsets[:-1]
    np.subtract(offsets[1:], gaps, out=gaps)
    singles = np.bincount(gaps)
    np.add(gaps[:-1], gaps[1:], out=gaps[:-1])
    return head, tail, singles, np.bincount(gaps[:-1])


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


@dataclass
class PairLineage:
    """Exhaustive propagation tree of one gap-g pair from root_level up
    to target_level, one LineageLeaf per surviving descendant pair."""

    root: tuple[int, int]
    root_level: int
    target_level: int
    leaves: list[LineageLeaf]

    @cached_property
    def _levels(self) -> list[tuple[int, int, int, list[list[LineageStep]]]]:
        """(P_{j+1}, mhat(1, j + 1), P_j#, rows) for each level j + 1
        entered, built once per lineage: rows[hat][m] is the step taken
        with residue m from an ancestor whose disallowed index is hat."""
        g, levels = self.root[1] - self.root[0], []
        for j in range(self.root_level, self.target_level):
            p, unit = nth_prime(j + 1), mhat(1, j + 1).value
            rows = [[LineageStep(j + 1, m, (hat, (hat + g * unit) % p)) for m in range(p)]
                    for hat in range(p)]
            levels.append((p, unit, primorial(j), rows))
        return levels

    def steps(self, leaf: LineageLeaf) -> tuple[LineageStep, ...]:
        """The steps from the root to leaf, one per level entered.

        A leaf x is a + t P_l#, and the m taken entering level j + 1 is
        the digit (t // (P_j# / P_l#)) mod P_{j+1}.  mhat is linear, so
        the ancestor x_j's disallowed index is x_j mhat(1, j + 1) mod
        P_{j+1}, and x_j + g's is that plus g mhat(1, j + 1).  A pair
        that is not a leaf, a gap-g pair of prospective primes of the
        target level congruent to the root mod P_l#, is refused."""
        (a, b), (x, y), k = self.root, leaf.pair, self.target_level
        step = primorial(self.root_level)
        if y - x != b - a or (x - a) % step or not (is_prospective(x, k) and is_prospective(y, k)):
            raise ValueError(f"{leaf.pair} is not a leaf of the lineage of {self.root} "
                             f"from level {self.root_level} to {k}")
        digits, ancestor, steps = (x - a) // step, a, []
        for p, unit, width, rows in self._levels:
            digits, m = divmod(digits, p)
            steps.append(rows[ancestor * unit % p][m])
            ancestor += m * width
        return tuple(steps)


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

    The descendants of (a, a + g) are the x = a + t P_l#, t below
    P_k# / P_l#, that no P_i, l < i <= k, divides, nor x + g.  Each P_i
    bars two classes of t, -a (P_l#)^-1 and -(a + g) (P_l#)^-1 mod P_i,
    one when P_i divides g, so one ``arith._strike`` call on a mask of
    one flag per t strikes every level at once, and its survivors, in
    increasing t, are the leaves in increasing order.  The leaves are
    built as Python ints, so trees past 2^63 stay exact; their steps are
    read off by ``PairLineage.steps``.  Refused, before anything is
    struck: l < 2 or k <= l (as predicted_derived_count refuses them), a
    root that is not a consecutive pair, and a tree of more than
    LINEAGE_CAP leaves.
    """
    _require_levels(l, k)
    _require_consecutive(root, l)
    a, b = root
    if (size := predicted_derived_count(l, k, b - a)) > LINEAGE_CAP:
        raise ValueError(f"{size} leaves exceed the lineage cap of {LINEAGE_CAP}; "
                         "use predicted_derived_count for the size")
    step = primorial(l)
    # One (P_i, first t) row per class; a set, as a = a + g mod P_i when P_i | g.
    struck = np.array([(p, -q * pow(step, -1, p) % p)
                       for p in map(nth_prime, range(l + 1, k + 1)) for q in {a % p, b % p}],
                      dtype=np.int64)
    flags = _strike(primorial(k) // step, struck[:, 0], struck[:, 1])
    pairs = [(a + t * step, b + t * step) for t in np.flatnonzero(flags).tolist()]
    # tuple.__new__ wraps each pair in C, where the constructor that
    # NamedTuple writes is a Python call per leaf: a third of the build.
    leaves = list(map(tuple.__new__, repeat(LineageLeaf), zip(pairs)))
    return PairLineage(root=root, root_level=l, target_level=k, leaves=leaves)


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
