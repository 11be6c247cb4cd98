"""Central-coordinator spectrum-sharing decisions.

For every potential primary link and every AC-cycle slot, the coordinator
compares the primary's tonemap against each node-disjoint candidate secondary
link: subcarriers where the candidate's modulation beats the primary's by at
least ``beta`` bits are eligible to be handed over, and the candidate's gain
is the modulation total it would add on those subcarriers minus what the
primary would give up. Candidates with positive gain are ranked by gain and
the best ``top_m`` are retained.

The table builder works on bitmasks: each (link, slot) is turned once into
Python-int masks ``eq[v]`` ("level == v") and ``ge[v]`` ("level >= v"), bit
``j - 1`` standing for subcarrier ``j``. A (primary, secondary, slot) triple
then costs a few dozen 917-bit ANDs, ORs and ``bit_count`` calls instead of a
917-step Python loop: the eligible set is ``OR_a (P_eq[a] & S_ge[a + beta])``
and the gain is the difference of the two modulation totals over it. A table
for n nodes thus costs O(L^2 * slots) such operations, L = n(n-1), plus one
mask build per (link, slot). A retained candidate keeps its eligible set as
that mask (``SSAllocation.shared``); its index tuple is a derived view that
neither the builder nor ``decision_table_csv`` builds.

Decisions are a pure function of (deployment, policy): node-order tie-breaks
make the table deterministic, and per-slot decisions are independent.
"""

import io
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Tuple

from .tonemap import MAX_MODULATION, SUBCARRIER_COUNT, DirectedLink
from .traceio import Deployment

# _LEVEL_BITS[v] translates a modulation byte to b"1" if it equals v, else b"0"
_LEVEL_BITS = tuple(
    bytes(0x31 if b == v else 0x30 for b in range(256))
    for v in range(MAX_MODULATION + 1)
)
# translates the binary digits b"0"/b"1" to the bytes 0/1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_SUBCARRIERS = range(1, SUBCARRIER_COUNT + 1)
# decimal text of each subcarrier index, in index order; selecting from it is
# cheaper than str(j) per index
_INDEX_STRINGS = tuple(map(str, _SUBCARRIERS))


@dataclass(frozen=True)
class SSPolicy:
    """Spectrum-sharing policy knobs.

    beta                minimum per-subcarrier advantage (bits) for a
                        subcarrier to be shareable
    top_m               how many ranked secondary candidates to retain
    max_share_fraction  cap on the fraction of the 917 subcarriers a primary
                        may hand away per slot (1.0 = no cap)
    """

    beta: int = 2
    top_m: int = 1
    max_share_fraction: float = 1.0

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.top_m < 1:
            raise ValueError("top_m must be >= 1")
        if not 0.0 <= self.max_share_fraction <= 1.0:
            raise ValueError("max_share_fraction must be in [0, 1]")


@dataclass(frozen=True)
class SSAllocation:
    """One ranked secondary candidate for a (primary link, slot) pair.

    ``shared`` is the shared subcarrier set as a bitmask, bit ``j - 1`` for
    subcarrier ``j``; ``shared_indices`` derives its ascending indices.
    Construction raises ValueError for a secondary that shares a node with
    the primary, a mask outside 1 .. 2**917 - 1, a gain <= 0 or a rank < 1.
    """

    primary: DirectedLink
    secondary: DirectedLink
    slot: int
    shared: int
    gain: int
    rank: int

    def __post_init__(self):
        if {self.secondary.tx, self.secondary.rx} & {self.primary.tx, self.primary.rx}:
            raise ValueError(
                f"secondary {self.secondary} shares a node with primary {self.primary}"
            )
        if not 0 < self.shared < 1 << SUBCARRIER_COUNT:
            raise ValueError(f"shared mask out of range 1..2**{SUBCARRIER_COUNT} - 1")
        if self.gain <= 0:
            raise ValueError("retained candidates must have positive gain")
        if self.rank < 1:
            raise ValueError("rank is 1-based")

    @property
    def shared_indices(self) -> Tuple[int, ...]:
        """Ascending 1-based indices of the shared subcarriers."""
        return tuple(compress(_SUBCARRIERS, _mask_selectors(self.shared)))


@dataclass(frozen=True)
class SSDecisionTable:
    """Ranked candidate lists keyed by (primary link, 1-based slot)."""

    entries: Dict[Tuple[DirectedLink, int], Tuple[SSAllocation, ...]]

    def __init__(self, entries):
        object.__setattr__(self, "entries", dict(entries))

    def candidates(self, primary: DirectedLink, slot: int) -> Tuple[SSAllocation, ...]:
        return self.entries.get((primary, slot), ())

    def __repr__(self) -> str:
        populated = sum(1 for v in self.entries.values() if v)
        return f"SSDecisionTable(entries={len(self.entries)}, populated={populated})"


def _slot_masks(vec: bytes):
    """Level masks of one tonemap slot; bit ``j - 1`` stands for subcarrier ``j``.

    Returns ``(eq, ge, levels)``: ``eq[v]`` marks the subcarriers at level
    ``v``, ``ge[v]`` those at level ``v`` or above (``ge[11]`` is empty), and
    ``levels`` lists ``(v, eq[v])`` for the non-zero levels present, so that
    ``sum(v * (m & x).bit_count() for v, m in levels)`` is the modulation
    total over the subcarriers in ``x``.
    """
    raw = vec[::-1]  # subcarrier 1 becomes the last, least significant, digit
    eq = [int(raw.translate(table), 2) for table in _LEVEL_BITS]
    ge = [0] * (MAX_MODULATION + 2)
    for v in range(MAX_MODULATION, -1, -1):
        ge[v] = ge[v + 1] | eq[v]
    levels = [(v, eq[v]) for v in range(1, MAX_MODULATION + 1) if eq[v]]
    return eq, ge, levels


def _lowest_bits(mask: int, count: int) -> int:
    """The ``count`` lowest set bits of ``mask`` (``count <= popcount``)."""
    lo, hi = 0, mask.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() >= count:
            hi = mid
        else:
            lo = mid + 1
    return mask & ((1 << lo) - 1)


def _mask_selectors(mask: int) -> bytes:
    """One byte per subcarrier from index 1 up: 1 where ``mask`` has its bit,
    else 0, ending at the highest set bit."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)


def build_decision_table(deployment: Deployment, policy: SSPolicy) -> SSDecisionTable:
    """Rank secondary candidates for every (primary link, slot) of a deployment.

    For each node-disjoint candidate link the eligible subcarriers come from
    the beta rule; if they exceed the share cap the smallest-difference ones
    are dropped first (ties toward keeping lower indices). Candidates with
    positive gain are sorted by descending gain, ties by the secondary's
    (tx, rx), and truncated to ``top_m``.

    Raises nothing of its own: a Deployment and an SSPolicy are checked when
    they are built.
    """
    beta = policy.beta
    cap = int(policy.max_share_fraction * SUBCARRIER_COUNT)
    slots = range(1, deployment.slot_count + 1)
    links = sorted(deployment.links)
    masks = [list(map(_slot_masks, deployment.links[link].slots)) for link in links]
    entries: Dict[Tuple[DirectedLink, int], Tuple[SSAllocation, ...]] = {}
    for primary, p_masks in zip(links, masks):
        secondaries = [
            (s, s_masks)
            for s, s_masks in zip(links, masks)
            if not {s.tx, s.rx} & {primary.tx, primary.rx}
        ]
        for slot in slots:
            p_eq = p_masks[slot - 1][0]
            # levels a whose subcarriers a secondary at a + beta or above takes
            p_levels = [
                (a, p_eq[a]) for a in range(MAX_MODULATION + 1 - beta) if p_eq[a]
            ]
            scored: List[Tuple[int, DirectedLink, int]] = []
            for secondary, s_masks in secondaries:
                s_eq, s_ge, s_levels = s_masks[slot - 1]
                kept = 0
                p_total = 0
                for a, level in p_levels:
                    piece = level & s_ge[a + beta]
                    if piece:
                        kept |= piece
                        p_total += a * piece.bit_count()
                if not kept:
                    continue
                if kept.bit_count() > cap:
                    # whole difference buckets from the largest down, then the
                    # lowest indices of the bucket that does not fit
                    kept = 0
                    g = 0
                    room = cap
                    for d in range(MAX_MODULATION, beta - 1, -1):
                        bucket = 0
                        for a, level in p_levels:
                            if a + d > MAX_MODULATION:
                                break
                            bucket |= level & s_eq[a + d]
                        size = bucket.bit_count()
                        if size > room:
                            kept |= _lowest_bits(bucket, room)
                            g += d * room
                            break
                        kept |= bucket
                        g += d * size
                        room -= size
                else:
                    g = -p_total
                    for v, level in s_levels:
                        g += v * (kept & level).bit_count()
                if g > 0:
                    scored.append((g, secondary, kept))
            scored.sort(key=lambda item: (-item[0], item[1]))
            entries[(primary, slot)] = tuple(
                SSAllocation(primary, secondary, slot, kept, g, rank)
                for rank, (g, secondary, kept) in enumerate(
                    scored[: policy.top_m], start=1
                )
            )
    return SSDecisionTable(entries)


def decision_table_csv(table: SSDecisionTable) -> str:
    """Debug CSV of a decision table, one row per retained candidate.

    Columns: primary_tx,primary_rx,slot,rank,secondary_tx,secondary_rx,gain,
    num_shared, then the shared indices in ascending order.
    """
    out = io.StringIO()
    out.write(
        "primary_tx,primary_rx,slot,rank,secondary_tx,secondary_rx,gain,num_shared,indices\n"
    )
    for (primary, slot), allocations in sorted(table.entries.items()):
        for alloc in allocations:
            row = [
                primary.tx,
                primary.rx,
                str(slot),
                str(alloc.rank),
                alloc.secondary.tx,
                alloc.secondary.rx,
                str(alloc.gain),
                str(alloc.shared.bit_count()),
            ]
            row.extend(compress(_INDEX_STRINGS, _mask_selectors(alloc.shared)))
            out.write(",".join(row) + "\n")
    return out.getvalue()
