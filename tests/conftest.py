import io
from collections import defaultdict
from fractions import Fraction

from hpavsim import Deployment, DirectedLink, Tonemap
from hpavsim.macsim import (
    EVENT_SS_ABORT,
    EVENT_SS_ENGAGE,
    EVENT_TX_END_SUCCESS,
    EVENT_TX_START,
    ROLE_PRIMARY,
    ROLE_SECONDARY,
)
from hpavsim.rng import SplitMix64
from hpavsim.sharing import SSAllocation
from hpavsim.tonemap import (
    DEFAULT_SLOT_COUNT, MAX_MODULATION, MAX_MODULATION_TOTAL, SUBCARRIER_COUNT,
)
from hpavsim.traceio import LEGAL_MODULATIONS, snap_legal


def filled_tonemap(value, slot_count=DEFAULT_SLOT_COUNT):
    """Map with every subcarrier of every slot at ``value``."""
    return Tonemap(((value,) * SUBCARRIER_COUNT,) * slot_count)


def masked_rejection(rng, n):
    """``rng.randbelow(n)`` as its docstring states it, one word at a time:
    ``next_u64`` words, masked to the bit length of n - 1, until one falls
    below n."""
    if n == 1:
        return 0
    mask = (1 << (n - 1).bit_length()) - 1
    while True:
        v = rng.next_u64() & mask
        if v < n:
            return v


def spectrum_fraction(t, slot_index, active_subcarriers):
    """Fraction of the maximum modulation total carried by ``active_subcarriers``.

    ``active_subcarriers`` is any iterable of 1-based indices; the result is
    exact (a Fraction in [0, 1]) so that disjoint index sets add exactly.
    Raises ValueError for an index outside 1..917. The spectrum oracle of
    the MAC and sharing tests: it reads a slot's values by index, where the
    library sums bit planes and slot totals.
    """
    # a pad byte in front makes each 1-based index its own offset
    padded_slot = b"\0" + t.slot(slot_index)
    indices = tuple(active_subcarriers)
    if indices:
        low, high = min(indices), max(indices)
        if low < 1 or high > SUBCARRIER_COUNT:
            bad = low if low < 1 else high
            raise ValueError(f"subcarrier index {bad} out of range 1..{SUBCARRIER_COUNT}")
    return Fraction(sum(map(padded_slot.__getitem__, indices)), MAX_MODULATION_TOTAL)


def deployment_from_levels(levels, slot_count=5, nodes=None):
    """Build a deployment from {(tx, rx): flat modulation level} pairs."""
    links = {
        DirectedLink(tx, rx): filled_tonemap(level, slot_count)
        for (tx, rx), level in levels.items()
    }
    if nodes is None:
        nodes = sorted({n for pair in levels for n in pair})
    return Deployment(nodes, links)


def phy_rate_oracle(tmap, k, params):
    """``tonemap.phy_rate`` as it was first written, through the FEC rate as a
    Fraction; the float result must match it exactly."""
    total_bits = sum(tmap.slot(k))
    return float(
        total_bits
        * params.fec_rate
        * (1.0 - params.bit_error_rate)
        / (params.symbol_interval_us * 1e-6)
    )


def expected_throughput_oracle(tmap, params):
    rates = [phy_rate_oracle(tmap, k, params) for k in range(1, tmap.slot_count + 1)]
    return (1.0 - params.protocol_overhead) * (sum(rates) / len(rates))


def asymmetry_oracle(t_ab, t_ba):
    """Brute-force summed |a - b| over every (slot, subcarrier), averaged over
    slots."""
    total = sum(
        abs(a - b)
        for slot_ab, slot_ba in zip(t_ab.slots, t_ba.slots)
        for a, b in zip(slot_ab, slot_ba)
    )
    return Fraction(total, t_ab.slot_count)


def parse_values_oracle(values_s):
    """``(values, None)`` or ``(None, message)``: the PLCTM rule for a link
    line's value field, 917 comma-separated tokens each spelled as ``str(v)``
    spells a value v in 0..10, with the message the reader's
    TraceFormatError must carry."""
    tokens = values_s.split(",")
    if len(tokens) != SUBCARRIER_COUNT:
        return None, f"subcarrier count {len(tokens)}, expected {SUBCARRIER_COUNT}"
    spellings = [str(v) for v in range(MAX_MODULATION + 1)]
    for tok in tokens:
        if tok not in spellings:
            return None, f"bad modulation value {tok!r}, expected 0..{MAX_MODULATION}"
    return bytes(spellings.index(tok) for tok in tokens), None


def reference_generator_slots(n_nodes, profile, slot_count):
    """``{link: [slot bytes]}`` of ``generate_deployment(n_nodes, profile,
    slot_count)``, written out plainly: base rows as lists, notch bands by
    gap sampling, and one ``masked_rejection(rng, 2 * noise + 1)`` draw, the
    word-at-a-time ``randbelow``, per drawing (slot, subcarrier) entry, in
    subcarrier order."""
    nodes = [f"n{i + 1}" for i in range(n_nodes)]
    links = sorted(DirectedLink(a, b) for a in nodes for b in nodes if a != b)
    pairs = sorted({tuple(sorted((link.tx, link.rx))) for link in links})
    noise, kind = profile.asymmetry_noise, profile.profile_kind
    base = snap_legal(profile.base_quality)
    hi = snap_legal(min(MAX_MODULATION, profile.base_quality + 4))
    lo = snap_legal(max(0, profile.base_quality - 4))

    def notch_bands(rng):
        count, width = profile.notch_count, profile.notch_width
        if count == 0 or width == 0:
            return []
        cuts = sorted(masked_rejection(rng, SUBCARRIER_COUNT - count * width + 1)
                      for _ in range(count))
        return [(cut + i * width, width) for i, cut in enumerate(cuts)]

    out = {}
    for ordinal, link in enumerate(links):
        rng = SplitMix64(profile.seed, ordinal)
        tx, rx = nodes.index(link.tx), nodes.index(link.rx)
        if kind == "uniform":
            row = [base] * SUBCARRIER_COUNT
        elif kind == "complementary":
            row = [hi if (j < SUBCARRIER_COUNT // 2) == (tx % 2 == 0) else lo
                   for j in range(SUBCARRIER_COUNT)]
        elif kind == "asymmetric":
            step = LEGAL_MODULATIONS.index(base) + (2 if tx < rx else -2)
            row = [LEGAL_MODULATIONS[max(0, min(len(LEGAL_MODULATIONS) - 1, step))]] * SUBCARRIER_COUNT
        else:
            if noise:
                bands = notch_bands(rng)
            else:
                pair = tuple(sorted((link.tx, link.rx)))
                bands = notch_bands(SplitMix64(profile.seed, len(links) + pairs.index(pair)))
            row = [base] * SUBCARRIER_COUNT
            for start, width in bands:
                row[start : start + width] = [0] * width
        slots = []
        for _ in range(slot_count):
            values = []
            for b in row:
                if noise == 0 or (kind == "interference-notched" and b == 0):
                    values.append(b)
                else:
                    r = masked_rejection(rng, 2 * noise + 1)
                    values.append(snap_legal(min(MAX_MODULATION, max(0, b + r - noise))))
            slots.append(bytes(values))
        out[link] = slots
    return out


def brute_force_eligible(deployment, beta):
    """{(primary, slot): [(secondary, eligible)]} over every node-disjoint
    secondary, where ``eligible`` lists (difference, j) for each 1-based
    subcarrier j that the secondary beats the primary on by at least beta,
    largest difference first, then by j. It does not depend on the share cap,
    so one enumeration serves every cap of a (deployment, beta) case."""
    eligible = {}
    links = sorted(deployment.links)
    for primary in links:
        for slot in range(1, deployment.slot_count + 1):
            p = deployment.links[primary].slot(slot)
            candidates = []
            for secondary in links:
                if secondary.tx in (primary.tx, primary.rx):
                    continue
                if secondary.rx in (primary.tx, primary.rx):
                    continue
                s = deployment.links[secondary].slot(slot)
                diffs = [
                    (s[j - 1] - p[j - 1], j) for j in range(1, SUBCARRIER_COUNT + 1)
                    if s[j - 1] - p[j - 1] >= beta
                ]
                diffs.sort(key=lambda dj: (-dj[0], dj[1]))
                candidates.append((secondary, diffs))
            eligible[(primary, slot)] = candidates
    return eligible


def brute_force_table(deployment, policy, eligible=None):
    """Independent enumeration of every node-disjoint pair and the beta rule:
    a pair shares the cap's worth of its eligible subcarriers with the
    largest differences. ``eligible``, when given, is
    ``brute_force_eligible(deployment, policy.beta)``."""
    if eligible is None:
        eligible = brute_force_eligible(deployment, policy.beta)
    cap = int(policy.max_share_fraction * SUBCARRIER_COUNT)
    table = {}
    for key, candidates in eligible.items():
        rows = []
        for secondary, diffs in candidates:
            kept = diffs[:cap]
            g = sum(d for d, _ in kept)
            if g > 0:
                indices = tuple(sorted(j for _, j in kept))
                rows.append((-g, secondary.tx, secondary.rx, indices))
        rows.sort()
        table[key] = tuple(
            (DirectedLink(tx, rx), -neg_g, idx)
            for neg_g, tx, rx, idx in rows[: policy.top_m]
        )
    return table


def brute_force_csv(oracle):
    """The decision-table CSV of a ``brute_force_table`` result, written from
    its index tuples with ``str(j)`` per index."""
    lines = ["primary_tx,primary_rx,slot,rank,secondary_tx,secondary_rx,gain,"
             "num_shared,indices"]
    for primary, slot in sorted(oracle):
        for rank, (secondary, g, indices) in enumerate(oracle[(primary, slot)], start=1):
            row = [primary.tx, primary.rx, str(slot), str(rank), secondary.tx,
                   secondary.rx, str(g), str(len(indices))]
            lines.append(",".join(row + [str(j) for j in indices]))
    return "".join(line + "\n" for line in lines)


def ss_allocation(primary, secondary, slot, indices, gain=1, rank=1):
    """An SSAllocation sharing the 1-based subcarrier ``indices``: bit
    ``j - 1`` of its mask for each index ``j``."""
    shared = 0
    for j in indices:
        shared |= 1 << (j - 1)
    return SSAllocation(primary, secondary, slot, shared, gain, rank)


def tables_equal(table, oracle):
    if set(table.entries) != set(oracle):
        return False
    for key, allocations in table.entries.items():
        expected = oracle[key]
        if len(allocations) != len(expected):
            return False
        for alloc, (secondary, g, indices) in zip(allocations, expected):
            if (alloc.secondary, alloc.gain, alloc.shared_indices) != (
                secondary, g, indices,
            ):
                return False
    return True


def rebuild_spectrum_tallies(report, deployment, table, mac, policy):
    """Independent replay of a run's spectrum accounting from its event log.

    Every success frame's fraction is recomputed with ``spectrum_fraction``:
    an engaged secondary over its allocation's shared indices, the primary
    over the complement of them found by set difference (the full slot when
    nothing engaged). The window's AC slot comes from the primary's
    ``tx_start`` time; an engaged secondary must be among the window's first
    ``policy.top_m`` table candidates (all of them with ``policy`` None).
    Also checks each success event's ``spectrum_fraction`` against its frame.
    Returns {link: (sf_primary, sf_secondary)} for links with any spectrum.
    """
    width = mac.ac_cycle_us / deployment.slot_count
    sf_primary = defaultdict(Fraction)
    sf_secondary = defaultdict(Fraction)
    window = None
    engaged = None
    for e in report.events:
        if e.event == EVENT_TX_START and e.role == ROLE_PRIMARY:
            k = min(1 + int((e.time_us % mac.ac_cycle_us) / width), deployment.slot_count)
            window = (e.link, k)
            engaged = None
        elif e.event == EVENT_SS_ENGAGE:
            candidates = table.candidates(*window)
            if policy is not None:
                candidates = candidates[: policy.top_m]
            engaged = next(a for a in candidates if a.secondary == e.link)
        elif e.event == EVENT_SS_ABORT:
            engaged = None
        elif e.event == EVENT_TX_END_SUCCESS:
            link, k = window
            if e.role == ROLE_SECONDARY:
                assert e.link == engaged.secondary
                sf = spectrum_fraction(deployment.links[e.link], k, engaged.shared_indices)
                sf_secondary[e.link] += sf
            else:
                assert e.link == link
                shared = set(engaged.shared_indices) if engaged is not None else set()
                active = [j for j in range(1, SUBCARRIER_COUNT + 1) if j not in shared]
                sf = spectrum_fraction(deployment.links[link], k, active)
                sf_primary[link] += sf
            assert e.spectrum_fraction == float(sf)
    return {
        link: (sf_primary[link], sf_secondary[link])
        for link in set(sf_primary) | set(sf_secondary)
        if sf_primary[link] or sf_secondary[link]
    }


def run_times(report):
    """A run's total, idle and busy times as reprs, to compare them exactly."""
    return repr(report.total_sim_time_us), repr(report.idle_us), repr(report.busy_us)


def report_spectrum_tallies(report):
    """{link: (sf_primary, sf_secondary)} for links that carried any spectrum."""
    return {
        link: (t.sf_primary, t.sf_secondary)
        for link, t in report.tallies.items()
        if t.sf_primary or t.sf_secondary
    }


# Shared scenario for the spectrum-sharing acceptance corpus: 4 nodes on the
# complementary profile, ring-cross saturated flows so every primary link has
# exactly one node-disjoint flow-backed secondary candidate.
CORPUS_SEEDS = tuple(range(1, 11))
CORPUS_FLOWS = (
    DirectedLink("n1", "n3"),
    DirectedLink("n3", "n2"),
    DirectedLink("n2", "n4"),
    DirectedLink("n4", "n1"),
)
CORPUS_PROFILE_KW = dict(
    profile_kind="complementary", base_quality=6.0, asymmetry_noise=2
)
CORPUS_DURATION_US = 1_000_000
CORPUS_BETAS = (2, 4, 6, 8)
CORPUS_TOP_M = 2


def oracle_event_log_csv(report):
    """Independent event-log renderer: one str per field, joined per row."""
    out = io.StringIO()
    out.write("time_us,event,node,link_tx,link_rx,role,stage,bc,dc,spectrum_fraction\n")
    for e in report.events:
        out.write(
            ",".join(
                [
                    repr(e.time_us),
                    e.event,
                    e.node or "",
                    e.link.tx if e.link else "",
                    e.link.rx if e.link else "",
                    e.role or "",
                    "" if e.stage is None else str(e.stage),
                    "" if e.bc is None else str(e.bc),
                    "" if e.dc is None else str(e.dc),
                    "" if e.spectrum_fraction is None else repr(e.spectrum_fraction),
                ]
            )
            + "\n"
        )
    return out.getvalue()
