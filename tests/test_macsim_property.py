"""Property test: MAC runs conserve time, repeat exactly, do not change when
the event log is off, engage secondaries only inside their window, keep at
most one secondary on the medium, end each collision one collision duration
after its last tx_start with the colliders in node order, run each
re-evaluation window as one success with no secondary, and tally spectrum as
the event-log replay in ``conftest.rebuild_spectrum_tallies`` does; every
station's (stage, DC) follows the sensed-busy rule; every backoff counter a
run draws is the next masked-rejection draw of its seed's stream; the
memoized contention pass gives every run what a fresh pass gives; and
event_log_csv renders each run's log as the per-field oracle does."""

import math
import random

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hpavsim import (
    Deployment, DirectedLink, MacParams, SSPolicy, Tonemap, build_decision_table,
    event_log_csv, macsim, run_simulation,
)
from hpavsim.macsim import (
    EVENT_REEVAL_END, EVENT_REEVAL_START, EVENT_SS_ABORT, EVENT_SS_ENGAGE,
    EVENT_STAGE_ADVANCE, EVENT_TX_END_COLLISION, EVENT_TX_END_SUCCESS, EVENT_TX_START,
    ROLE_PRIMARY, ROLE_SECONDARY,
)
from hpavsim.rng import SplitMix64
from hpavsim.tonemap import SUBCARRIER_COUNT

from conftest import (
    masked_rejection, oracle_event_log_csv, rebuild_spectrum_tallies,
    report_spectrum_tallies, run_times,
)

SCHEDULES = (
    {},  # the HPAV default
    {"dc_schedule": (10**9,) * 4},  # no escalation on a sensed-busy event: no barge
    {"cw_schedule": (1024, 2048, 4096, 8192)},  # long idle runs, few windows
    # stage 0 transmits at once and every sensed-busy event escalates, so
    # multi-transmitter collisions and barges are both common
    {"cw_schedule": (1, 2, 4, 8), "dc_schedule": (0, 0, 0, 0)},
)


@st.composite
def scenarios(draw):
    """A 4- or 5-node deployment (each link drawing its subcarriers from its
    own small palette of levels), at most one flow per transmitter, and the
    SS knobs."""
    nodes = tuple(f"n{i}" for i in range(1, draw(st.integers(4, 5)) + 1))
    links = [DirectedLink(tx, rx) for tx in nodes for rx in nodes if tx != rx]
    slot_count = draw(st.integers(1, 3))
    palettes = draw(
        st.lists(
            st.lists(st.integers(0, 10), min_size=1, max_size=4),
            min_size=len(links),
            max_size=len(links),
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dep = Deployment(nodes, {
        link: Tonemap(
            [rng.choices(palette, k=SUBCARRIER_COUNT) for _ in range(slot_count)]
        )
        for link, palette in zip(links, palettes)
    })
    # per transmitter: no flow, or a flow to one of the other nodes
    targets = draw(
        st.lists(st.integers(0, len(nodes) - 1), min_size=len(nodes), max_size=len(nodes))
    )
    flows = [
        DirectedLink(tx, [n for n in nodes if n != tx][t - 1])
        for tx, t in zip(nodes, targets) if t > 0
    ]
    if not flows:
        flows = [DirectedLink(nodes[0], nodes[1])]
    table_policy = SSPolicy(beta=draw(st.integers(0, 6)), top_m=draw(st.integers(1, 3)))
    # builds() fills every NamedTuple field it is not given, defaults or not
    run_policy = draw(st.one_of(
        st.none(), st.builds(SSPolicy, beta=st.just(0), top_m=st.integers(1, 3),
                             max_share_fraction=st.just(1.0))
    ))
    reeval = draw(st.one_of(st.none(), st.sampled_from([20_000.0, 50_000.0])))
    # 40 and 80 push rank-2 and rank-1 waits past the 70-boundary window
    wait = draw(st.sampled_from([0, 1, 2, 40, 80]))
    schedule = draw(st.sampled_from(SCHEDULES))
    mac = MacParams(rank_wait_slots_per_rank=wait, reeval_period_us=reeval, **schedule)
    return dep, flows, table_policy, run_policy, mac


def ring_scenario(schedule, tonemap_seed=5):
    """A fixed 5-node ring with SS and 20 ms re-evaluation under ``schedule``.

    The generated examples move whenever the test's source changes; these
    explicit ones keep both ways into the collision block (a window that
    opens with several transmitters, a barge) and re-evaluation covered.
    """
    nodes = ("n1", "n2", "n3", "n4", "n5")
    rng = random.Random(tonemap_seed)
    dep = Deployment(nodes, {
        DirectedLink(tx, rx): Tonemap(
            [rng.choices(range(11), k=SUBCARRIER_COUNT) for _ in range(2)]
        )
        for tx in nodes for rx in nodes if tx != rx
    })
    flows = [DirectedLink(tx, rx) for tx, rx in zip(nodes, nodes[1:] + nodes[:1])]
    mac = MacParams(reeval_period_us=20_000.0, **schedule)
    return dep, flows, SSPolicy(beta=2, top_m=2), None, mac


# No shrink phase: each shrink step re-runs the simulations, which made a
# failure take minutes to report; the failing example is reported unshrunk.
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(scenario=scenarios(), seed=st.integers(0, 2**32 - 1),
       duration=st.sampled_from([120_000, 3584, 1, 0]))
@example(scenario=ring_scenario(SCHEDULES[0]), seed=1, duration=120_000)
@example(scenario=ring_scenario(SCHEDULES[3]), seed=1, duration=120_000)
def test_run_invariants(scenario, seed, duration):
    dep, flows, table_policy, run_policy, mac = scenario
    table = build_decision_table(dep, table_policy)
    for t, policy in ((None, None), (table, run_policy)):
        args = (dep, t, mac, policy, flows, duration, seed)
        report = run_simulation(*args, collect_events=True)
        # float µs accumulate in different orders, so equal up to rounding
        assert math.isclose(
            report.idle_us + report.busy_us, report.total_sim_time_us, rel_tol=1e-9
        )
        again = run_simulation(*args, collect_events=True)
        assert again.tallies == report.tallies
        assert event_log_csv(again) == event_log_csv(report)
        quiet = run_simulation(*args)
        assert quiet.tallies == report.tallies
        assert run_times(quiet) == run_times(report)
        window_start = None
        active_secondary = 0
        last_collision_end = (-1.0, "")
        in_reeval = False
        for e in report.events:
            if e.event == EVENT_TX_START and e.role == ROLE_PRIMARY:
                window_start = e.time_us
            elif e.event == EVENT_SS_ENGAGE:
                assert not in_reeval
                # the engagement precedes any barger's tx_start in its window
                assert window_start < e.time_us < window_start + mac.success_duration_us
                active_secondary += 1
            elif e.event == EVENT_SS_ABORT:
                active_secondary -= 1
            elif e.event == EVENT_TX_END_SUCCESS and e.role == ROLE_SECONDARY:
                active_secondary -= 1
            elif e.event == EVENT_TX_END_COLLISION:
                assert not in_reeval
                # the last tx_start is a barger's at the first boundary, if any
                assert e.time_us == window_start + mac.collision_duration_us
                assert last_collision_end < (e.time_us, e.node)
                last_collision_end = (e.time_us, e.node)
            elif e.event in (EVENT_REEVAL_START, EVENT_REEVAL_END):
                assert in_reeval == (e.event == EVENT_REEVAL_END)
                in_reeval = not in_reeval
            assert 0 <= active_secondary <= 1
        assert (
            rebuild_spectrum_tallies(report, dep, t, mac, policy)
            == report_spectrum_tallies(report)
        )


def replay_contention(report, flows, mac):
    """Replay each station's (stage, DC) through a run's event log and check
    every ``tx_start`` and ``stage_advance`` against it.

    A window opens with the ``tx_start``s at its start. Then every station
    not transmitting handles one sensed-busy event: at DC 0 it logs a
    ``stage_advance`` at the start, in node order, with the stage advanced
    and capped, BC below the new CW and DC reloaded; otherwise it spends one
    DC. A success resets the transmitter to stage 0; colliders log their
    state at the end and then advance a stage the same way.
    """
    cw, dcs = mac.cw_schedule, mac.dc_schedule
    last_stage = len(cw) - 1
    nodes = sorted(f.tx for f in flows)
    stage = dict.fromkeys(nodes, 0)
    dc = dict.fromkeys(nodes, dcs[0])

    def advance(e):
        stage[e.node] = min(stage[e.node] + 1, last_stage)
        dc[e.node] = dcs[stage[e.node]]
        assert (e.stage, e.dc) == (stage[e.node], dc[e.node]), e
        assert 0 <= e.bc < cw[e.stage], e

    start = None  # the open window's start, None between windows
    transmitters = None  # the start's tx_start nodes, until the sensed-busy pass
    expected = []  # stations whose sensed-busy stage_advance is still to come
    for e in report.events:
        if e.event == EVENT_TX_START and (start is None or e.time_us == start):
            if start is None:
                start, transmitters = e.time_us, set()
            transmitters.add(e.node)
            assert (e.stage, e.bc, e.dc) == (stage[e.node], 0, dc[e.node]), e
            continue
        if transmitters is not None:
            for node in nodes:
                if node in transmitters:
                    continue
                if dc[node] == 0:
                    expected.append(node)
                else:
                    dc[node] -= 1
            transmitters = None
        if e.event == EVENT_STAGE_ADVANCE and e.time_us == start:
            assert expected and e.node == expected.pop(0), e
            advance(e)
            continue
        assert not expected, (e, expected)
        if e.event == EVENT_TX_START:  # a barger at the first boundary
            assert (e.stage, e.bc, e.dc) == (stage[e.node], 0, dc[e.node]), e
        elif e.event == EVENT_TX_END_SUCCESS and e.role == ROLE_PRIMARY:
            stage[e.node], dc[e.node] = 0, dcs[0]
            assert (e.stage, e.dc) == (0, dcs[0]) and 0 <= e.bc < cw[0], e
            start = None
        elif e.event == EVENT_TX_END_COLLISION:
            assert (e.stage, e.bc, e.dc) == (stage[e.node], 0, dc[e.node]), e
            start = None
        elif e.event == EVENT_STAGE_ADVANCE:  # a collider's, at the window's end
            advance(e)
    assert not expected and transmitters is None


# Kept apart from test_run_invariants: editing that test's source re-rolls
# its generated examples.
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(scenario=scenarios(), seed=st.integers(0, 2**32 - 1),
       duration=st.sampled_from([120_000, 3584, 1, 0]))
@example(scenario=ring_scenario(SCHEDULES[0]), seed=1, duration=120_000)
@example(scenario=ring_scenario(SCHEDULES[3]), seed=1, duration=120_000)
def test_sensed_busy_rule(scenario, seed, duration):
    dep, flows, table_policy, run_policy, mac = scenario
    table = build_decision_table(dep, table_policy)
    for t, policy in ((None, None), (table, run_policy)):
        report = run_simulation(dep, t, mac, policy, flows, duration, seed,
                                collect_events=True)
        replay_contention(report, flows, mac)


def replay_backoff(report, flows, mac, seed):
    """Replay every backoff counter a run draws from a fresh
    ``SplitMix64(seed, 0)`` stream by ``conftest.masked_rejection``,
    independent of how the engine, or ``randbelow``, draws them.

    The run draws one initial BC per station, in node order; the stations
    with the least one open the first window. After that every draw is
    logged where it happens, in emission order: a ``stage_advance`` (sensed
    busy at DC 0, or a collider's) and a primary ``tx_end_success`` (the
    transmitter back at stage 0).
    """
    rng = SplitMix64(seed, 0)
    cw = mac.cw_schedule
    initial = {node: masked_rejection(rng, cw[0]) for node in sorted(f.tx for f in flows)}
    starts = [e for e in report.events if e.event == EVENT_TX_START]
    if starts:
        least = min(initial.values())
        assert {e.node for e in starts if e.time_us == starts[0].time_us} == {
            node for node, bc in initial.items() if bc == least
        }
    for e in report.events:
        if e.event == EVENT_STAGE_ADVANCE or (
            e.event == EVENT_TX_END_SUCCESS and e.role == ROLE_PRIMARY
        ):
            assert e.bc == masked_rejection(rng, cw[e.stage]), e


# Stage 0 of both extra schedules draws no word; (1, 3, 5, 7) rejects words
# at every later stage and (1, 2, 4, 8) at none.
EXTRA_CW = ((1, 3, 5, 7), (1, 2, 4, 8))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(scenario=scenarios(), seed=st.integers(0, 2**32 - 1),
       duration=st.sampled_from([120_000, 3584, 1, 0]),
       cw=st.sampled_from((None,) + EXTRA_CW))
@example(scenario=ring_scenario(SCHEDULES[0]), seed=1, duration=120_000, cw=None)
@example(scenario=ring_scenario(SCHEDULES[3]), seed=1, duration=120_000, cw=None)
@example(scenario=ring_scenario(SCHEDULES[0]), seed=1, duration=120_000, cw=EXTRA_CW[0])
@example(scenario=ring_scenario(SCHEDULES[0]), seed=1, duration=120_000, cw=EXTRA_CW[1])
def test_backoff_draws_replay(scenario, seed, duration, cw):
    dep, flows, table_policy, run_policy, mac = scenario
    if cw is not None:
        mac = mac._replace(cw_schedule=cw)
    table = build_decision_table(dep, table_policy)
    for t, policy in ((None, None), (table, run_policy)):
        report = run_simulation(dep, t, mac, policy, flows, duration, seed,
                                collect_events=True)
        replay_backoff(report, flows, mac, seed)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(scenario=scenarios(), seed=st.integers(0, 2**32 - 1),
       duration=st.sampled_from([120_000, 3584]))
@example(scenario=ring_scenario(SCHEDULES[0]), seed=1, duration=120_000)
@example(scenario=ring_scenario(SCHEDULES[3]), seed=1, duration=120_000)
def test_event_log_matches_per_field_oracle(scenario, seed, duration):
    dep, flows, table_policy, run_policy, mac = scenario
    table = build_decision_table(dep, table_policy)
    for t, policy in ((None, None), (table, run_policy)):
        report = run_simulation(dep, t, mac, policy, flows, duration, seed,
                                collect_events=True)
        assert event_log_csv(report) == oracle_event_log_csv(report)


def fingerprint(report):
    """A run's tallies, time reprs and event-log bytes (None without events)."""
    return (report.tallies, run_times(report),
            None if report.events is None else event_log_csv(report))


# Kept apart from test_run_invariants, so that its examples stay as they are.
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(scenario=scenarios(), seed=st.integers(0, 2**32 - 1),
       duration=st.sampled_from([120_000, 3584, 1, 0]))
@example(scenario=ring_scenario(SCHEDULES[0]), seed=1, duration=120_000)
@example(scenario=ring_scenario(SCHEDULES[3]), seed=1, duration=120_000)
def test_contention_memo_is_transparent(scenario, seed, duration):
    dep, flows, table_policy, run_policy, mac = scenario
    table_a = build_decision_table(dep, table_policy)
    table_b = build_decision_table(dep, SSPolicy(beta=table_policy.beta + 2, top_m=1))
    # SS off, SS on with two tables, SS on with events, then SS off again
    calls = [(None, None, False), (table_a, run_policy, False), (table_b, None, False),
             (table_a, run_policy, True), (None, None, False)]
    macsim._contend.cache_clear()
    memoized = [run_simulation(dep, t, mac, policy, flows, duration, seed, collect_events=ev)
                for t, policy, ev in calls]
    for (t, policy, ev), report in zip(calls, memoized):
        macsim._contend.cache_clear()
        fresh = run_simulation(dep, t, mac, policy, flows, duration, seed, collect_events=ev)
        assert fingerprint(report) == fingerprint(fresh)


def test_deployments_with_equal_runs_share_contention():
    # same nodes, flows, MAC, seed and slot count; other tonemaps
    runs = []
    for tonemap_seed in (5, 6):
        dep, flows, policy, _, mac = ring_scenario(SCHEDULES[0], tonemap_seed)
        runs.append((dep, build_decision_table(dep, policy), mac, policy, flows, 120_000, 1))
    macsim._contend.cache_clear()
    shared = [run_simulation(*args) for args in runs]
    assert macsim._contend.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert run_times(shared[0]) == run_times(shared[1])
    assert shared[0].tallies != shared[1].tallies
    for args, report in zip(runs, shared):
        macsim._contend.cache_clear()
        assert fingerprint(report) == fingerprint(run_simulation(*args))
