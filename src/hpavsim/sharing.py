"""Central-coordinator spectrum-sharing decisions.

For every potential primary link and every AC-cycle slot, the coordinator
compares the primary's tonemap against each node-disjoint candidate secondary
link: subcarriers where the candidate's modulation beats the primary's by at
least ``beta`` bits are eligible to be handed over, and the candidate's gain
is the modulation total it would add on those subcarriers minus what the
primary would give up. Candidates with positive gain are ranked by gain and
the best ``top_m`` are retained.

The table builder works on bit planes, the tonemap view ``Tonemap.planes``:
per slot four Python ints, plane ``b`` marking the subcarriers whose level
has bit ``b`` set, bit ``j - 1`` standing for subcarrier ``j`` (levels are
at most 10, so four planes hold them). Each map builds its planes once and
keeps them, so the tables of a beta sweep share them. A (primary,
secondary, slot) triple then costs 26 917-bit XORs, ANDs, ORs and
``bit_count`` calls, whatever the levels in use, instead of a 917-step
Python loop. The primary's planes plus ``beta`` are added once per
(primary, slot) with a carry, giving Q; where that adder carries out, Q is
16 or more and no S reaches it, so ``~Q``'s planes are cleared there. One
carry chain per triple, ``S + ~Q + 1`` from plane 0 up, then does all the
arithmetic: its carry out is the eligible set ``kept`` (``S >= Q``), and on
``kept`` its digits are ``R = S - Q``, the difference ``S - P`` less
``beta``. The uncapped gain is ``sum_b 2**b * |kept & R_b| + beta * |kept|``,
five popcounts, and ``|kept|`` also serves the cap check.

The ranking is bounded: it holds at most ``top_m`` entries, best first,
inserted with ``insort`` (``_rank``), and a floor, the ``top_m``-th gain,
or 0 until ``top_m`` are ranked. Secondaries arrive in node order, which
breaks ties in gain, so while they are scanned the floor was set by an
earlier secondary and a gain equal to it loses: a candidate whose gain is
at most the floor is skipped, never tupled, sorted or deferred. On 8-node
complementary and notched traces at ``top_m`` 2, 5.5 to 7 of the 30
candidates per (primary, slot) reach ``_rank``; the rest are skipped.

A share cap keeps the largest differences, so a capped gain is never above
the uncapped one, and each of the ``|kept| - cap`` subcarriers it drops
differs by at least ``beta``: ``g - beta * (|kept| - cap)`` bounds it. A
candidate over the cap is skipped too if that bound is at most the floor,
and otherwise deferred with it. After the scan the deferred ones are split
in descending bound until a bound falls below the floor. A split can only
raise the floor, but it may set it from a later secondary than a deferred
one, so a bound equal to the floor is still split and may win its tie;
the rest can no longer rank. A deferred candidate keeps its R
planes, and a split walks the difference buckets, ``R = d - beta``, from
the largest ``d`` down once (``_split``): it counts the capped gain and
keeps the union of the buckets that fit whole, with the bucket that does
not and how many of its subcarriers fit. Only the at most ``top_m``
retained candidates cut that bucket to its lowest subcarriers for their
masks. A table for n nodes thus costs O(L^2 * slots) such operations,
L = n(n-1), plus the splits the bound lets through and, the first time a
map is read, four ``translate`` and ``int`` parses per (link, slot). A
retained candidate keeps its shared set as a mask (``SSAllocation.shared``);
``shared_total`` sums a tonemap over it as
``sum_b 2**b * |shared & plane_b|``, and no library path builds its derived
index tuple. ``SSPolicy``, ``SSAllocation`` and ``SSDecisionTable`` are
checked tuples (``tonemap.CheckedTuple``), so an allocation hashes and
compares in C.

``decision_table_csv`` renders a row's indices from the mask's bytes
between its lowest and its highest set bit: one lookup each in a table
holding, per byte position, the ``",j,k,..."`` text of all 256 byte
values. The table is about 2 MiB; it is built once per process, on the
first call, in about 7 ms.

Decisions are a pure function of (deployment, policy): node-order tie-breaks
make the table deterministic, and per-slot decisions are independent.
"""

from bisect import insort
from functools import lru_cache
from itertools import compress
from operator import getitem
from typing import Dict, List, NamedTuple, Tuple

from .tonemap import (
    MAX_MODULATION, SUBCARRIER_COUNT, CheckedTuple, DirectedLink, Tonemap, is_integer,
    is_number,
)
from .traceio import Deployment

_ALL = (1 << SUBCARRIER_COUNT) - 1
# translates the binary digits b"0"/b"1" to the bytes 0/1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_SUBCARRIERS = range(1, SUBCARRIER_COUNT + 1)
# bytes of a shared mask, least significant first (115 for 917 subcarriers)
_MASK_BYTES = -(-SUBCARRIER_COUNT // 8)


class _PolicyFields(NamedTuple):
    beta: int = 2
    top_m: int = 1
    max_share_fraction: float = 1.0


class SSPolicy(CheckedTuple, _PolicyFields):
    """Spectrum-sharing policy knobs.

    beta                minimum per-subcarrier advantage (bits) for a
                        subcarrier to be shareable
    top_m               how many ranked secondary candidates to retain
    max_share_fraction  cap on the fraction of the 917 subcarriers a primary
                        may hand away per slot (1.0 = no cap)

    A tuple of these three fields; construction, ``_make`` and ``_replace``
    raise ValueError for a field of the wrong type or out of range.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # beta's bits feed the table builder's plane adder
        for name in ("beta", "top_m"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.top_m < 1:
            raise ValueError("top_m must be >= 1")
        if not is_number(self.max_share_fraction):
            raise ValueError("max_share_fraction must be a number")
        if not 0.0 <= self.max_share_fraction <= 1.0:
            raise ValueError("max_share_fraction must be in [0, 1]")
        return self


class _AllocationFields(NamedTuple):
    primary: DirectedLink
    secondary: DirectedLink
    slot: int
    shared: int
    gain: int
    rank: int


class SSAllocation(CheckedTuple, _AllocationFields):
    """One ranked secondary candidate for a (primary link, slot) pair.

    ``shared`` is the shared subcarrier set as a bitmask, bit ``j - 1`` for
    subcarrier ``j``; ``shared_indices`` derives its ascending indices.
    A tuple of its six fields, so it equals the plain tuple of them.
    Construction, ``_make`` and ``_replace`` raise ValueError for a
    secondary that shares a node with the primary, a slot, mask, gain or
    rank that is not an int (a bool is not), a slot < 1, a mask outside
    1 .. 2**917 - 1, a gain <= 0 or a rank < 1.
    """

    __slots__ = ()

    def __new__(cls, primary: DirectedLink, secondary: DirectedLink, slot: int,
                shared: int, gain: int, rank: int):
        # a DirectedLink is the tuple (tx, rx), so ``in`` tests its two ends
        if secondary.tx in primary or secondary.rx in primary:
            raise ValueError(f"secondary {secondary} shares a node with primary {primary}")
        # is_integer's rule, so a bool or float never reaches the CSV; the one
        # type test keeps the builder's allocations cheap
        if not type(slot) is type(shared) is type(gain) is type(rank) is int:
            for name, value in (("slot", slot), ("shared", shared), ("gain", gain),
                                ("rank", rank)):
                if not is_integer(value):
                    raise ValueError(f"{name} must be an integer")
        # slot 0 would read the last slot's planes through planes[-1]
        if slot < 1:
            raise ValueError("slot is 1-based")
        if not 0 < shared <= _ALL:
            raise ValueError(f"shared mask out of range 1..2**{SUBCARRIER_COUNT} - 1")
        if gain <= 0:
            raise ValueError("retained candidates must have positive gain")
        if rank < 1:
            raise ValueError("rank is 1-based")
        return tuple.__new__(cls, (primary, secondary, slot, shared, gain, rank))

    @property
    def shared_indices(self) -> Tuple[int, ...]:
        """Ascending 1-based indices of the shared subcarriers."""
        return tuple(compress(_SUBCARRIERS, _mask_selectors(self.shared)))

    def shared_total(self, tonemap: Tonemap) -> int:
        """Summed modulation of ``tonemap`` over the shared subcarriers in
        this allocation's slot: the plane-weighted popcounts of the mask."""
        p0, p1, p2, p3 = tonemap.planes[self.slot - 1]
        shared = self.shared
        return ((p0 & shared).bit_count() + 2 * (p1 & shared).bit_count()
                + 4 * (p2 & shared).bit_count() + 8 * (p3 & shared).bit_count())


class _TableFields(NamedTuple):
    entries: Dict[Tuple[DirectedLink, int], Tuple[SSAllocation, ...]]


class SSDecisionTable(CheckedTuple, _TableFields):
    """Ranked candidate lists keyed by (primary link, 1-based slot).

    A tuple of its one field, ``entries``, which construction, ``_make``
    and ``_replace`` copy into a new dict.
    """

    __slots__ = ()

    def __new__(cls, entries):
        return tuple.__new__(cls, (dict(entries),))

    def candidates(self, primary: DirectedLink, slot: int) -> Tuple[SSAllocation, ...]:
        return self.entries.get((primary, slot), ())

    def __repr__(self) -> str:
        populated = sum(1 for v in self.entries.values() if v)
        return f"SSDecisionTable(entries={len(self.entries)}, populated={populated})"


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


def _rank(scored, entry, top_m):
    """Insert ``entry``, a ``(-gain, secondary, ...)`` tuple, into the
    best-first list ``scored`` and keep at most ``top_m`` entries; return the
    floor a later candidate must beat: the ``top_m``-th gain, or 0 while
    fewer are ranked."""
    insort(scored, entry)
    if len(scored) > top_m:
        scored.pop()
    return -scored[-1][0] if len(scored) == top_m else 0


def _split(eligible, digits, cap, differences):
    """The capped share of ``eligible`` as ``(gain, whole, cut, room)``: the
    difference buckets from the largest down that fit whole under ``cap``,
    their union ``whole``, then the first bucket ``cut`` that does not fit, of
    which the ``room`` lowest subcarriers do. ``digits`` are the planes of
    R = S - Q, so the bucket of difference ``d`` is where R = d - beta. The
    capped mask is ``whole | _lowest_bits(cut, room)``."""
    digit0, digit1, digit2, digit3 = [(r ^ _ALL, r) for r in digits]
    g = whole = 0
    room = cap
    for d, b0, b1, b2, b3 in differences:
        bucket = eligible & digit0[b0] & digit1[b1] & digit2[b2] & digit3[b3]
        size = bucket.bit_count()
        if size > room:
            return g + d * room, whole, bucket, room
        g += d * size
        whole |= bucket
        room -= size
    return g, whole, 0, 0


def _mask_selectors(mask: int) -> bytes:
    """One byte per subcarrier from index 1 up: 1 where ``mask`` has its bit,
    else 0, ending at the highest set bit."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)


def build_decision_table(deployment: Deployment, policy: SSPolicy) -> SSDecisionTable:
    """Rank secondary candidates for every (primary link, slot) of a deployment.

    For each node-disjoint candidate link the eligible subcarriers come from
    the beta rule; if they exceed the share cap the smallest-difference ones
    are dropped first (ties toward keeping lower indices). Candidates with
    positive gain are ranked by descending gain, ties by the secondary's
    (tx, rx), and the first ``top_m`` are retained.

    Each (primary, secondary, slot) triple runs one carry chain,
    ``S + ~Q + 1`` with ``Q = P + beta``: its carry out is the eligible set
    and its digits the differences less ``beta``, which give the gain. A
    candidate over the cap keeps those digits and is split into difference
    buckets only while its bound, the uncapped gain less ``beta`` per
    dropped subcarrier, can still reach the ``top_m``-th gain; a split
    counts the capped gain, and only the retained candidates cut their last
    bucket for their masks.

    The ranking keeps at most ``top_m`` entries and the floor they set, the
    ``top_m``-th gain (0 until ``top_m`` are ranked). While the secondaries
    are scanned in node order, a gain or bound at most the floor is skipped:
    the floor's secondary came earlier and wins a tie. The deferred splits
    run after the scan and may set the floor from a later secondary, so
    there a bound equal to the floor is still split (see the module
    docstring).

    Raises nothing of its own: a Deployment and an SSPolicy are checked when
    they are built.
    """
    beta = policy.beta
    cap = int(policy.max_share_fraction * SUBCARRIER_COUNT)
    slots = range(1, deployment.slot_count + 1)
    links = sorted(deployment.links)
    if beta > MAX_MODULATION:
        # no level is beta above another; the adder below would also lose
        # the bits of a beta of 16 or more
        return SSDecisionTable({(link, slot): () for link in links for slot in slots})
    beta_bits = [beta >> b & 1 for b in range(4)]
    # the differences a capped candidate may keep, largest first, with the
    # bits of R = d - beta that mark their buckets
    differences = [
        (r + beta, r & 1, r >> 1 & 1, r >> 2 & 1, r >> 3)
        for r in range(MAX_MODULATION - beta, -1, -1)
    ]
    top_m = policy.top_m
    planes = [deployment.links[link].planes for link in links]
    entries: Dict[Tuple[DirectedLink, int], Tuple[SSAllocation, ...]] = {}
    for primary, p_planes in zip(links, planes):
        ends = (primary.tx, primary.rx)
        secondaries = [
            (s, s_planes)
            for s, s_planes in zip(links, planes)
            if s.tx not in ends and s.rx not in ends
        ]
        for slot in slots:
            # Q = P + beta, one plane at a time with a carry; the last carry is
            # Q's plane 4, where S >= Q cannot hold, so ~Q is cleared there
            q = []
            carry = 0
            for p_b, one in zip(p_planes[slot - 1], beta_bits):
                if one:
                    q.append(p_b ^ carry ^ _ALL)
                    carry |= p_b
                else:
                    q.append(p_b ^ carry)
                    carry &= p_b
            q0 = q[0]
            nq0, nq1, nq2, nq3 = [(q_b | carry) ^ _ALL for q_b in q]
            # the best (-gain, secondary, whole, cut, room) so far, at most
            # top_m, best first (_rank); an uncut candidate keeps its eligible
            # set whole
            scored: List[Tuple[int, DirectedLink, int, int, int]] = []
            # the gain a candidate must beat to rank: the top_m-th, or 0 while
            # fewer are ranked
            floor = 0
            # (-bound, secondary, eligible set, R planes) of over-cap candidates
            deferred = []
            for secondary, s_planes in secondaries:
                s0, s1, s2, s3 = s_planes[slot - 1]
                # S + ~Q + 1, plane 0 up: its digits are R = S - Q and its
                # carry out is S >= Q; the carry in of 1 makes digit 0 s0 ^ q0
                r0 = s0 ^ q0
                c = s0 | nq0
                x = s1 ^ nq1
                r1 = x ^ c
                c = s1 & nq1 | c & x
                x = s2 ^ nq2
                r2 = x ^ c
                c = s2 & nq2 | c & x
                x = s3 ^ nq3
                r3 = x ^ c
                kept = s3 & nq3 | c & x
                if not kept:
                    continue
                # on kept, S - P = R + beta; a capped gain is never above it
                size = kept.bit_count()
                g = (
                    (kept & r0).bit_count()
                    + 2 * (kept & r1).bit_count()
                    + 4 * (kept & r2).bit_count()
                    + 8 * (kept & r3).bit_count()
                    + beta * size
                )
                # a tie with the floor loses: its secondary came earlier
                if g <= floor:
                    continue
                over = size - cap
                if over > 0:
                    # each subcarrier the cap drops differs by >= beta
                    bound = g - beta * over
                    if bound > floor:
                        deferred.append((-bound, secondary, kept, (r0, r1, r2, r3)))
                    continue
                floor = _rank(scored, (-g, secondary, kept, 0, 0), top_m)
            deferred.sort()
            for neg_bound, secondary, kept, r in deferred:
                # a split may set the floor from a later secondary, so a
                # bound equal to it may still win its tie
                if -neg_bound < floor:
                    break
                g, whole, cut, room = _split(kept, r, cap, differences)
                if g > 0:
                    floor = _rank(scored, (-g, secondary, whole, cut, room), top_m)
            entries[(primary, slot)] = tuple(
                SSAllocation(
                    primary, secondary, slot, whole | _lowest_bits(cut, room), -neg_g, rank
                )
                for rank, (neg_g, secondary, whole, cut, room) in enumerate(scored, start=1)
            )
    return SSDecisionTable(entries)


@lru_cache(maxsize=1)
def _byte_texts() -> Tuple[Tuple[str, ...], ...]:
    """Per mask byte position, the CSV text ``",j,k,..."`` of the subcarriers
    each byte value sets: ``_byte_texts()[pos][v]`` for the byte ``v`` that
    holds subcarriers ``8 * pos + 1 .. 8 * pos + 8``. Each position is the
    product of its low- and high-nibble texts."""
    table = []
    for pos in range(_MASK_BYTES):
        low, high = (
            [
                "".join(f",{first + b}" for b in range(4) if v >> b & 1)
                for v in range(16)
            ]
            for first in (8 * pos + 1, 8 * pos + 5)
        )
        table.append(tuple([lo + hi for hi in high for lo in low]))
    return tuple(table)


def decision_table_csv(table: SSDecisionTable) -> str:
    """Debug CSV of a decision table, one row per retained candidate.

    Columns: primary_tx,primary_rx,slot,rank,secondary_tx,secondary_rx,gain,
    num_shared, then the shared indices in ascending order.

    A row's indices are one lookup per byte of its mask in a table of the
    texts of all 256 byte values at each of the 115 byte positions, so a
    row costs 115 C-level lookups, not a walk over 917 subcarriers. The
    table is built on the first call (about 7 ms) and kept for the process
    (about 2 MiB).
    """
    texts = _byte_texts()
    pieces = [
        "primary_tx,primary_rx,slot,rank,secondary_tx,secondary_rx,gain,num_shared,indices\n"
    ]
    for (primary, slot), allocations in sorted(table.entries.items()):
        for _, secondary, _, shared, gain, rank in allocations:
            pieces.append(
                f"{primary.tx},{primary.rx},{slot},{rank},{secondary.tx},"
                f"{secondary.rx},{gain},{shared.bit_count()}"
            )
            # only the bytes from the lowest set bit's to the highest's hold
            # indices; the others would render as ""
            lo = ((shared & -shared).bit_length() - 1) >> 3
            hi = (shared.bit_length() + 7) >> 3
            pieces.extend(
                map(getitem, texts[lo:hi], (shared >> 8 * lo).to_bytes(hi - lo, "little"))
            )
            pieces.append("\n")
    return "".join(pieces)
