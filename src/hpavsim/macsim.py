"""Slot-based discrete-event simulator of the HomePlug AV CSMA/CA MAC, with
the coordinator-driven spectrum-sharing (SS) extension.

Global contention
-----------------
Every transmitting station holds (backoff stage, backoff counter BC, deferral
counter DC). Each idle slot decrements BC; a station whose BC is 0 at a slot
boundary transmits. When the medium turns busy, each backing-off station
handles one sensed-busy event: with DC = 0 it advances a stage (capped),
redraws BC uniform over [0, CW-1] and reloads DC; otherwise it spends one DC
and its BC stays frozen for the busy period. Two or more simultaneous
transmitters collide (medium busy for the collision duration, colliders
advance a stage); a single transmitter succeeds (medium busy for the success
duration, transmitter resets to stage 0). Stations are saturated: there is
always a next frame for the fixed flow target.

run_simulation is a contention pass, then accounting for the table. The
pass (_contend) is one loop, one pass per window, over flat per-station
lists: station i, the i-th in node order, is index i of the BC, DC and stage
lists and of every count list. No table enters it: a plan decides who gets
the spectrum, never who barges. It takes the idle run before the window in
one step: with no BC at 0, every BC drops by the least one, also where the
run's duration ends inside the run, since no BC is read after that. The
run's times still add the slot duration one slot at a time, so each is the
same float that stepping slot by slot gives. The window then logs the
transmissions that start, runs the sensed-busy pass once and ends in one of
two ways: a success or the one collision block. That block serves both a
window that opens with two or more transmitters and an SS window that a
barger hits at its first slot boundary; either way the busy period is
counted from the window's start.

The pass keeps its last result, tuples only (lru_cache, one entry), keyed on
its own arguments, which no table enters: the SS-on runs of a β sweep share
one pass, each after the first reusing it. A larger memo would serve only
repeated identical runs. A run that collects events makes its own pass,
past the memo.

Each backoff counter comes from the draw iterator of its stage, rng.below
over the stage's CW, and all of them share the run's one word stream
(SplitMix64.words): a run draws exactly the values, and consumes exactly the
words, that randbelow(CW) calls would, and a CW of 1 draws 0 without a word.

Spectrum sharing
----------------
When a decision table is supplied and exactly one transmission (the P-Link)
is in progress, the window runs the SS mechanism:

* The transmission announces its link; the ranked secondary candidates whose
  links carry a configured flow wait rank * rank_wait_slots_per_rank slot
  boundaries (at least one), then the first one engages (ties go to the
  lowest node identifier) if its boundary falls before the window closes: it
  transmits on its allocated subcarriers until the window closes and is
  tallied as one secondary success. The candidates that lose stay silent for
  the rest of the window.
* The primary's spectrum fraction for the window excludes the indices granted
  to whoever engaged; with no engagement it keeps the full spectrum.
* A station whose global BC sits at 0 during an SS window (possible only via
  a stage-escalation redraw when the window opened) claims the full spectrum
  at the first slot boundary: an S-Link that engaged there aborts first (its
  in-flight frame is lost and tallied as neither success nor collision), an
  engagement still pending never happens, and the new attempt collides with
  the P-Link per the normal rules. Without SS such a station simply waits for
  the medium to go idle.
* When reeval_period_us is set, one P-Link transmission per period runs with
  SS suspended (full-spectrum, no secondary), modeling the periodic
  full-spectrum re-evaluation; tonemaps are static in a run, so the
  suspension is pure opportunity cost.

The AC-line-cycle slot of a window (selecting the per-slot tonemap and table
entry) is the sub-interval of ac_cycle_us containing the window's start.

Spectrum accounting
-------------------
Tonemaps and table allocations are static within a run, so spectrum is
counted in integer modulation totals (bits per symbol summed over subcarriers)
rather than recomputed per frame. The pass counts each station's success
windows as primary per AC slot: wins, the SS windows that nobody barged, and
the full-spectrum ones. The accounting reads each station's full-slot total
per AC slot from Tonemap.totals and, in an SS run, builds its window plan
per AC slot: the one flow-backed candidate (among the first policy.top_m)
that engages when it is the primary, with its wait e, the secondary's total
over the shared mask and the primary's complement total, each summed by
SSAllocation.shared_total from the tonemap's bit planes.
A plan engages iff e * slot_duration_us < success_duration_us (the duration
rule; the test window by window, start + e * slot < start + success, differs
only where the two durations are less than one ulp of start apart). For n
wins an engaging plan gives the primary n * p_total and the secondary n
successes and n * s_total; otherwise, and for each full-spectrum window, the
primary gains its full-slot total. Each LinkTally is built once, with
sf_primary and sf_secondary as Fraction(sum, 9170), which equals the sum of
the per-frame fractions exactly. An event's spectrum_fraction is the frame's
total / 9170, the correctly rounded float of that fraction.

With collect_events=True a run also returns its events in emission order as
SimEvent tuples, which event_log_csv renders; with it False the engine builds
no event at all. Each event is built from all eight fields by _new_event,
which is tuple.__new__: it runs in C, past the NamedTuple's Python-level
__new__ and its defaults, and gives a SimEvent equal to the one the
NamedTuple constructor builds. event_log_csv renders each instant's time
once and each distinct tail (the fields after the time) once per call, so
rows with equal tails share one rendered text; a tail with a zero
spectrum_fraction is rendered on every row, as 0.0 and -0.0 render apart. A
field outside SimEvent's declared types may therefore render as an earlier
equal row's did: a stage of True after a row with stage 1 renders 1.

Every type here is a tuple of its fields. MacParams is a checked tuple
(tonemap.CheckedTuple); LinkTally, SimEvent and SimReportRaw are plain
NamedTuples, each built once by the engine.

Determinism: a run is a pure function of its arguments. All randomness comes
from one splitmix64 stream (stream 0: global contention), stations are
processed in node-identifier order everywhere, and simultaneous events are
emitted in that same order.
"""

from fractions import Fraction
from functools import lru_cache
from math import isfinite
from operator import mul
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .rng import SplitMix64, below
from .sharing import SSDecisionTable, SSPolicy
from .tonemap import (
    MAX_MODULATION_TOTAL, CheckedTuple, DirectedLink, is_integer, is_number,
)
from .traceio import Deployment

EVENT_TX_START = "tx_start"
EVENT_TX_END_SUCCESS = "tx_end_success"
EVENT_TX_END_COLLISION = "tx_end_collision"
EVENT_STAGE_ADVANCE = "stage_advance"
EVENT_SS_ENGAGE = "ss_engage"
EVENT_SS_ABORT = "ss_abort"
EVENT_REEVAL_START = "reeval_start"
EVENT_REEVAL_END = "reeval_end"

ROLE_PRIMARY = "primary"
ROLE_SECONDARY = "secondary"


class _MacFields(NamedTuple):
    collision_duration_us: float = 2920.64
    success_duration_us: float = 2542.64
    frame_length: float = 2050.0
    cw_schedule: Tuple[int, ...] = (8, 16, 32, 64)
    dc_schedule: Tuple[int, ...] = (0, 1, 3, 15)
    slot_duration_us: float = 35.84
    rank_wait_slots_per_rank: int = 1
    reeval_period_us: Optional[float] = None
    ac_cycle_us: float = 16666.67


class MacParams(CheckedTuple, _MacFields):
    """MAC timing constants and schedules; defaults follow HPAV CSMA/CA.

    frame_length is the unitless multiplier of the normalized-throughput
    formula. reeval_period_us None disables periodic full-spectrum
    re-evaluation. ac_cycle_us is the mains cycle (60 Hz USA) carved into the
    deployment's slot_count equal sub-intervals.

    A tuple of its nine fields, the schedules kept as tuples. Construction,
    ``_make`` and ``_replace`` raise ValueError for a field of the wrong
    type or out of range.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        cw_schedule, dc_schedule = tuple(self.cw_schedule), tuple(self.dc_schedule)
        # BCs and DCs are counted in whole slots and busy events
        for name, schedule in (("cw_schedule", cw_schedule), ("dc_schedule", dc_schedule)):
            if not all(map(is_integer, schedule)):
                raise ValueError(f"{name} entries must be integers")
        if not is_integer(self.rank_wait_slots_per_rank):
            raise ValueError("rank_wait_slots_per_rank must be an integer")
        if len(cw_schedule) != len(dc_schedule) or not cw_schedule:
            raise ValueError("cw_schedule and dc_schedule need equal length >= 1")
        if any(cw < 1 for cw in cw_schedule):
            raise ValueError("contention windows must be >= 1")
        if any(dc < 0 for dc in dc_schedule):
            raise ValueError("deferral counters must be >= 0")
        reeval = () if self.reeval_period_us is None else ("reeval_period_us",)
        for name in ("collision_duration_us", "success_duration_us", "frame_length",
                     "slot_duration_us", "ac_cycle_us") + reeval:
            value = getattr(self, name)
            if not is_number(value):
                raise ValueError(f"{name} must be a number")
            # NaN fails every comparison, so "<= 0" alone lets it through
            if not (value > 0 and isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if self.rank_wait_slots_per_rank < 0:
            raise ValueError("rank_wait_slots_per_rank must be >= 0")
        return tuple.__new__(cls, self[:3] + (cw_schedule, dc_schedule) + self[5:])


class LinkTally(NamedTuple):
    """Raw per-link counters of a run, built once by the accounting."""

    successes_primary: int = 0
    successes_secondary: int = 0
    collisions: int = 0
    sf_primary: Fraction = Fraction(0)
    sf_secondary: Fraction = Fraction(0)

    @property
    def successes(self) -> int:
        return self.successes_primary + self.successes_secondary

    @property
    def sf_total(self) -> Fraction:
        return self.sf_primary + self.sf_secondary


class SimEvent(NamedTuple):
    """One engine event. Its station is ``link.tx``, since a station
    transmits one flow; the re-evaluation events have no link.

    The engine builds events only when run_simulation is called with
    collect_events=True, each through _new_event with all eight fields.
    """

    time_us: float
    event: str
    link: Optional[DirectedLink] = None
    role: Optional[str] = None
    stage: Optional[int] = None
    bc: Optional[int] = None
    dc: Optional[int] = None
    spectrum_fraction: Optional[float] = None


class SimReportRaw(NamedTuple):
    """Raw tallies of one run; input to the metrics layer.

    run_simulation builds ``tallies`` in (tx, rx) order, the order in which
    every reader walks it, so none sorts it again.
    """

    tallies: Dict[DirectedLink, LinkTally]
    total_sim_time_us: float
    requested_duration_us: float
    idle_us: float
    busy_us: float
    events: Optional[List[SimEvent]] = None


def run_simulation(
    deployment: Deployment,
    table: Optional[SSDecisionTable],
    mac: MacParams,
    policy: Optional[SSPolicy],
    flows: Iterable[DirectedLink],
    duration_us: float,
    seed: int,
    collect_events: bool = False,
) -> SimReportRaw:
    """Simulate saturated flows over one collision domain.

    With ``table`` None the run is plain HPAV CSMA/CA; otherwise the SS
    mechanism applies. The result is a pure function of the arguments
    (`seed` included); independent runs may execute concurrently. The run
    is a contention pass, memoized with one entry keyed on the flows, the
    MacParams, the duration, the seed, the slot count and whether SS is on
    (no table enters the key), so that a sweep's SS-on runs share it (an
    events run makes its own), then accounting for the table, whose plans
    engage by the duration rule ``e * slot_duration_us < success_duration_us``.

    ``policy`` only cuts each table entry to its first ``policy.top_m``
    candidates: None uses every candidate, and it is ignored when ``table``
    is None. build_decision_table has already cut the entries to its own
    policy's ``top_m``, so the parameter is redundant; it stays until
    ``perfbench`` stops passing it (ROADMAP item 1).

    A window that starts before ``duration_us`` runs to completion, so
    ``total_sim_time_us`` in the report may exceed the request by up to one
    busy period; all throughput figures normalize by the actual total.

    ``flows`` may be any iterable of links; it is read once, into (tx, rx)
    order, the order of the report's ``tallies``.

    Raises ValueError for an empty flow list, a duration that is not a
    finite number >= 0, a seed that is not an int (or is a bool), a flow
    over an untraced link or two flows from one station (of several bad
    flows, the first in node order); the deployment and the table's
    allocations were checked when they were built.
    """
    # Station i, the i-th in node order, is index i of every per-station list.
    link = tuple(sorted(flows))  # its saturated flow; a link sorts as (tx, rx)
    if not link:
        raise ValueError("empty flow list")
    if not is_number(duration_us):
        raise ValueError("duration_us must be a number")
    # an infinite duration never ends the run, and a NaN one ends it at once
    if not (duration_us >= 0 and isfinite(duration_us)):
        raise ValueError("duration_us must be finite and >= 0")
    # True would run as seed 1, and a float or a string would fail inside
    # SplitMix64 with TypeError
    if not is_integer(seed):
        raise ValueError("seed must be an integer")
    links = deployment.links
    seen_tx = set()
    for flow in link:
        if flow not in links:
            raise ValueError(f"flow over missing link {flow}")
        if flow.tx in seen_tx:
            raise ValueError(f"station {flow.tx!r} has more than one flow")
        seen_tx.add(flow.tx)
    duration_us = float(duration_us)
    slot_count = deployment.slot_count
    full = [links[f].totals for f in link]  # per AC slot
    plans = None
    if table is not None:
        top_m = policy.top_m if policy is not None else None
        wait = mac.rank_wait_slots_per_rank
        station_index = {f: i for i, f in enumerate(link)}
        # per station and AC slot, the window plan as primary: the candidate
        # that engages, as (first eligible slot boundary, station index,
        # s_total, p_total), or None
        plans = []
        for i, p in enumerate(link):
            row = []
            for k in range(1, slot_count + 1):
                # of the flow-backed candidates, the first eligible boundary
                # wins, then the lowest node; only the winner's totals are summed
                alloc = min((a for a in table.candidates(p, k)[:top_m]
                             if a.secondary in station_index),
                            key=lambda a: (max(1, a.rank * wait), a.secondary.tx), default=None)
                e = alloc and max(1, alloc.rank * wait)
                # the duration rule: it engages iff its boundary is inside the window
                row.append((e, station_index[alloc.secondary],
                            alloc.shared_total(links[alloc.secondary]),
                            full[i][k - 1] - alloc.shared_total(links[p]))
                           if e and e * mac.slot_duration_us < mac.success_duration_us else None)
            plans.append(row)
    args = (link, mac, duration_us, seed, slot_count, table is not None)
    log: Optional[List[SimEvent]] = [] if collect_events else None
    collisions, wins, fulls, t, idle_us, busy_us = (
        _contend(*args) if log is None else _contend.__wrapped__(*args, log, plans, full))
    # accounting; wins stay 0 with SS off, where there are no plans
    p_sum = [sum(map(mul, counts, totals)) for counts, totals in zip(fulls, full)]
    successes_secondary = [0] * len(link)
    s_sum = [0] * len(link)
    for i, row in enumerate(wins):
        for k, n in enumerate(row):
            if n:
                plan = plans[i][k]
                if plan is None:
                    p_sum[i] += n * full[i][k]
                else:
                    _, s, s_total, p_total = plan
                    p_sum[i] += n * p_total
                    successes_secondary[s] += n
                    s_sum[s] += n * s_total
    return SimReportRaw(
        tallies={
            f: LinkTally(sum(wins[i]) + sum(fulls[i]), successes_secondary[i], collisions[i],
                         Fraction(p_sum[i], MAX_MODULATION_TOTAL),
                         Fraction(s_sum[i], MAX_MODULATION_TOTAL))
            for i, f in enumerate(link)
        },
        total_sim_time_us=t,
        requested_duration_us=duration_us,
        idle_us=idle_us,
        busy_us=busy_us,
        events=log,
    )


# _new_event(SimEvent, fields) builds an event from a tuple of all eight
# fields, in C; SimEvent's own __new__ is Python code that fills in defaults
_new_event = tuple.__new__


@lru_cache(maxsize=1)
def _contend(link, mac, duration_us, seed, slot_count, ss, log=None, plans=None, full=None):
    """run_simulation's contention pass over ``link``, the flows in node
    order, as the tuples (collisions, wins, fulls) per station and the
    floats (t, idle_us, busy_us). The memo's key is the flows, the
    MacParams, the duration, the seed, the slot count and whether SS is
    on; no table enters it. Called past the memo as ``_contend.__wrapped__``
    with ``log`` a list, it also logs the run's events, with each window's
    plan and full-slot total from ``plans`` and ``full``."""
    collision_us, success_us, _, cw, dcs, slot_us, _, reeval_period_us, ac_cycle_us = mac
    words = SplitMix64(seed, 0).words()
    # per stage, the next backoff draw below its CW, all from the one stream
    draws = [below(c, words).__next__ for c in cw]
    last_stage = len(cw) - 1
    draw0, dc0 = draws[0], dcs[0]
    stations = range(len(link))
    stage = [0] * len(link)
    dc = [dc0] * len(link)
    bc = [draw0() for _ in link]
    collisions = [0] * len(link)
    # per station and AC slot, the success windows as primary: SS windows
    # that nobody barged, and full-spectrum ones
    wins = [[0] * slot_count for _ in link]
    fulls = [[0] * slot_count for _ in link]
    slot_width = ac_cycle_us / slot_count
    last_slot = slot_count - 1
    t = idle_us = busy_us = 0.0
    next_reeval = reeval_period_us if ss else None

    while t < duration_us:
        m = min(bc)
        if m:
            # an idle run of m slots, added up one slot at a time; the BCs
            # are not read again when the run's duration ends inside it
            for _ in range(m):
                t += slot_us
                idle_us += slot_us
                if t >= duration_us:
                    break
            for i in stations:
                bc[i] -= m
            if t >= duration_us:
                break
        start = t
        # the transmitters are exactly the stations whose BC is 0
        ready = bc.count(0)
        if ready == 1:
            tx = bc.index(0)
            colliders = None
        else:
            colliders = [i for i in stations if not bc[i]]  # in node order
        reeval = ready == 1 and next_reeval is not None and start >= next_reeval
        if reeval:
            next_reeval = start + reeval_period_us
            if log is not None:
                log.append(_new_event(SimEvent, (start, EVENT_REEVAL_START, None, None,
                                                 None, None, None, None)))
        if log is not None:
            for i in stations:
                if not bc[i]:
                    log.append(_new_event(SimEvent, (start, EVENT_TX_START, link[i],
                                                     ROLE_PRIMARY, stage[i], bc[i], dc[i], None)))

        # One sensed-busy event for every station not transmitting, before any
        # redraw.
        for i in stations:
            if not bc[i]:
                continue
            if dc[i]:
                dc[i] -= 1  # BC stays frozen for this busy period
            else:
                st = stage[i] = min(stage[i] + 1, last_stage)
                bc[i] = b = draws[st]()
                dc[i] = dcs[st]
                if log is not None:
                    log.append(_new_event(SimEvent, (start, EVENT_STAGE_ADVANCE, link[i], None,
                                                     st, b, dc[i], None)))

        hit = start  # where a collision begins
        if colliders is None:
            end = start + success_us
            k = min(int((start % ac_cycle_us) / slot_width), last_slot)
            first = start + slot_us
            plan = None  # the logged engagement, if any
            if ss and not reeval and first < end:
                # Global BCs stay frozen for the whole window, so the stations
                # that barge (BC 0 after the sensed-busy pass) are fixed at the
                # first boundary: a barge ends the window whatever the plan.
                barged = bc.count(0) > 1
                if log is not None:
                    # the plan's candidate engages unless a barger pre-empts it
                    plan = plans[tx][k]
                    if plan is not None and (plan[0] == 1 or not barged):
                        log.append(_new_event(SimEvent, (
                            start + plan[0] * slot_us, EVENT_SS_ENGAGE, link[plan[1]],
                            ROLE_SECONDARY, None, None, None, None)))
                    else:
                        plan = None
                if barged:
                    hit = first
                    colliders = [i for i in stations if not bc[i]]  # tx and bargers
                    # an in-flight secondary frame is lost: neither success
                    # nor collision
                    if log is not None:
                        if plan is not None:
                            log.append(_new_event(SimEvent, (
                                first, EVENT_SS_ABORT, link[plan[1]], ROLE_SECONDARY,
                                None, None, None, None)))
                        for i in colliders:
                            if i != tx:
                                log.append(_new_event(SimEvent, (
                                    first, EVENT_TX_START, link[i], ROLE_PRIMARY,
                                    stage[i], bc[i], dc[i], None)))
                else:
                    wins[tx][k] += 1
            else:
                fulls[tx][k] += 1

        if colliders is None:
            # saturated: the transmitter resets to stage 0 and redraws for the
            # next frame at the moment its transmission completes
            stage[tx] = 0
            bc[tx] = b = draw0()
            dc[tx] = dc0
            if log is not None:
                p_total = full[tx][k]
                if plan is not None:
                    _, s, s_total, p_total = plan
                    log.append(_new_event(SimEvent, (
                        end, EVENT_TX_END_SUCCESS, link[s], ROLE_SECONDARY,
                        None, None, None, s_total / MAX_MODULATION_TOTAL)))
                log.append(_new_event(SimEvent, (
                    end, EVENT_TX_END_SUCCESS, link[tx], ROLE_PRIMARY,
                    0, b, dc0, p_total / MAX_MODULATION_TOTAL)))
                if reeval:
                    log.append(_new_event(SimEvent, (end, EVENT_REEVAL_END, None, None,
                                                     None, None, None, None)))
        else:
            # Two or more transmitters at the window's start, or a barge at
            # its first boundary: the colliders, in node order, advance a stage.
            end = hit + collision_us
            for i in colliders:
                collisions[i] += 1
                if log is not None:
                    log.append(_new_event(SimEvent, (end, EVENT_TX_END_COLLISION, link[i],
                                                     ROLE_PRIMARY, stage[i], bc[i], dc[i],
                                                     None)))
            for i in colliders:
                st = stage[i] = min(stage[i] + 1, last_stage)
                bc[i] = b = draws[st]()
                dc[i] = dcs[st]
                if log is not None:
                    log.append(_new_event(SimEvent, (end, EVENT_STAGE_ADVANCE, link[i], None,
                                                     st, b, dc[i], None)))
        busy_us += end - start
        t = end

    return (tuple(collisions), tuple(map(tuple, wins)), tuple(map(tuple, fulls)),
            t, idle_us, busy_us)


def normalized_throughput(report: SimReportRaw, link: DirectedLink, mac: MacParams) -> float:
    """100 * (sum of success spectrum fractions) * frame_length / total time."""
    if link not in report.tallies:
        raise ValueError(f"unknown link {link}")
    if report.total_sim_time_us == 0:
        return 0.0
    tally = report.tallies[link]
    return 100.0 * float(tally.sf_total) * mac.frame_length / report.total_sim_time_us


def event_log_csv(report: SimReportRaw) -> str:
    """Event log as CSV; requires the run to have collected events.

    A None field renders empty and any other value as str renders it (repr
    for time_us and spectrum_fraction), so a stage, bc or dc of 0 renders 0.
    The node column is the event's station, its link's transmitter, so it
    repeats link_tx.

    Each row is two pieces of the one joined text: its time stamp, rendered
    once per instant, and its tail (every field after the time), rendered
    once per call for each distinct tail, so rows with equal tails share one
    rendered text. A tail whose spectrum_fraction is zero is rendered on
    every row, since 0.0 and -0.0 are equal but render apart. The one
    difference from rendering each row alone: a field outside SimEvent's
    declared types may render as an earlier row's equal value did, for
    example a stage of True after a row with stage 1 renders 1.
    """
    if report.events is None:
        raise ValueError("run_simulation(collect_events=True) required for an event log")
    rows = ["time_us,event,node,link_tx,link_rx,role,stage,bc,dc,spectrum_fraction\n"]
    append = rows.append
    # Events of one instant come in a row and share their time object, and a
    # run has few distinct tails; (last, stamp) is always an object and its repr.
    tails = {}
    last, stamp = None, "None"
    for e in report.events:
        t = e[0]
        if t is not last:
            last, stamp = t, repr(t)
        append(stamp)
        key = e[1:]
        tail = tails.get(key)
        if tail is None:
            _, event, link, role, stage, bc, dc, sf = e
            tx, rx = link or ("", "")
            tail = (
                f",{event},{tx},{tx},{rx},{role or ''},{'' if stage is None else stage},"
                f"{'' if bc is None else bc},{'' if dc is None else dc},"
                f"{'' if sf is None else repr(sf)}\n"
            )
            if sf != 0:
                tails[key] = tail
        append(tail)
    return "".join(rows)
