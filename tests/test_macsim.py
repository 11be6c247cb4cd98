import hashlib
import math
import sys
import threading
from fractions import Fraction

import pytest

from hpavsim import (
    Deployment,
    DirectedLink,
    GeneratorProfile,
    MacParams,
    SSPolicy,
    build_decision_table,
    event_log_csv,
    generate_deployment,
    normalized_throughput,
    run_simulation,
    Tonemap,
    macsim,
)
from hpavsim.macsim import (
    EVENT_REEVAL_END,
    EVENT_REEVAL_START,
    EVENT_SS_ABORT,
    EVENT_SS_ENGAGE,
    EVENT_STAGE_ADVANCE,
    EVENT_TX_END_COLLISION,
    EVENT_TX_END_SUCCESS,
    EVENT_TX_START,
    ROLE_PRIMARY,
    ROLE_SECONDARY,
    LinkTally,
    SimEvent,
    SimReportRaw,
)
from hpavsim.rng import SplitMix64
from hpavsim.sharing import SSAllocation
from hpavsim.tonemap import SUBCARRIER_COUNT

from conftest import (
    CORPUS_FLOWS,
    CORPUS_PROFILE_KW,
    oracle_event_log_csv,
    rebuild_spectrum_tallies,
    report_spectrum_tallies,
    run_times,
    spectrum_fraction,
    ss_allocation,
)


MAC = MacParams()


def uniform_two_node():
    return generate_deployment(2, GeneratorProfile("uniform", base_quality=10, seed=0))


def complementary_corpus(seed):
    return generate_deployment(4, GeneratorProfile(seed=seed, **CORPUS_PROFILE_KW))


def ss_scenario(seed, beta=2, top_m=2):
    dep = complementary_corpus(seed)
    policy = SSPolicy(beta=beta, top_m=top_m)
    table = build_decision_table(dep, policy)
    return dep, table, policy


def dense_ring_scenario():
    dep = generate_deployment(8, GeneratorProfile(
        "complementary", base_quality=6, asymmetry_noise=2, seed=3))
    policy = SSPolicy(beta=2, top_m=2)
    ring = [DirectedLink(f"n{i}", f"n{i % 8 + 1}") for i in range(1, 9)]
    return dep, build_decision_table(dep, policy), policy, ring


class TestGoldenTrace:
    def test_first_ten_events_match_hand_trace(self):
        # Single saturated flow, no SS, seed 42. The global stream's first
        # backoff draws are 1, 7, 5, 6, 7 (randbelow(8) on splitmix64 stream
        # 0), so the station alternates bc idle slots with 2542.64 us
        # transmissions; stepping the machine by hand gives:
        #   t0 = 1*35.84                          = 35.84      tx_start
        #   t0 + 2542.64                          = 2578.48    tx_end_success
        #   + 7 slots                             = 2829.36    tx_start
        #   ... and so on with 5, 6, 7 idle slots between successes.
        stream = SplitMix64(42, 0)
        draws = [stream.randbelow(8) for _ in range(5)]
        assert draws == [1, 7, 5, 6, 7]

        dep = uniform_two_node()
        report = run_simulation(
            dep, None, MAC, None, [DirectedLink("n1", "n2")], 15_000, seed=42,
            collect_events=True,
        )
        t = 0.0
        expected = []
        for bc in draws:
            for _ in range(bc):
                t += MAC.slot_duration_us
            expected.append((t, EVENT_TX_START, 0))
            t += MAC.success_duration_us
            expected.append((t, EVENT_TX_END_SUCCESS, 1.0))

        events = report.events[:10]
        assert [e.event for e in events] == [kind for _, kind, _ in expected]
        for event, (when, kind, sf) in zip(events, expected):
            assert event.time_us == when
            assert event.link.tx == "n1"
            assert event.stage == 0 and event.dc == 0
            if kind == EVENT_TX_START:
                assert event.bc == 0
            else:
                assert event.spectrum_fraction == sf

    def test_golden_trace_counters(self):
        dep = uniform_two_node()
        report = run_simulation(
            dep, None, MAC, None, [DirectedLink("n1", "n2")], 15_000, seed=42,
            collect_events=True,
        )
        # redraw after each success is visible on the end event
        redraws = [
            e.bc for e in report.events if e.event == EVENT_TX_END_SUCCESS
        ]
        assert redraws[:5] == [7, 5, 6, 7, 3]


class TestBasicContract:
    def test_zero_duration_all_counts_zero(self):
        dep = uniform_two_node()
        report = run_simulation(dep, None, MAC, None, [DirectedLink("n1", "n2")], 0, seed=1)
        tally = report.tallies[DirectedLink("n1", "n2")]
        assert tally.successes == tally.collisions == 0
        assert report.total_sim_time_us == 0
        assert normalized_throughput(report, DirectedLink("n1", "n2"), MAC) == 0.0

    def test_determinism_bit_for_bit(self):
        dep, table, policy = ss_scenario(seed=5)
        kwargs = dict(
            deployment=dep, table=table, mac=MAC, policy=policy,
            flows=list(CORPUS_FLOWS), duration_us=150_000, seed=11,
            collect_events=True,
        )
        a = run_simulation(**kwargs)
        b = run_simulation(**kwargs)
        assert a.tallies == b.tallies
        assert a.events == b.events
        assert a.total_sim_time_us == b.total_sim_time_us
        assert event_log_csv(a) == event_log_csv(b)

    def test_conservation_of_time(self):
        dep, table, policy = ss_scenario(seed=2)
        report = run_simulation(
            dep, table, MAC, policy, list(CORPUS_FLOWS), 300_000, seed=3
        )
        assert report.busy_us + report.idle_us == pytest.approx(
            report.total_sim_time_us, abs=MAC.slot_duration_us
        )
        assert report.total_sim_time_us >= 300_000

    def test_flow_validation(self):
        dep = uniform_two_node()
        # flows are read once, so a one-shot iterable is checked as a list is
        for given in (list, iter):
            with pytest.raises(ValueError, match="^empty flow list$"):
                run_simulation(dep, None, MAC, None, given([]), 1000, seed=1)
            with pytest.raises(ValueError, match="^flow over missing link "):
                run_simulation(dep, None, MAC, None, given([DirectedLink("n1", "n9")]), 1000,
                               seed=1)
        with pytest.raises(ValueError, match="more than one flow"):
            dep4 = complementary_corpus(1)
            run_simulation(
                dep4, None, MAC, None,
                [DirectedLink("n1", "n2"), DirectedLink("n1", "n3")], 1000, seed=1,
            )

    # flows are read once, so a one-shot iterable runs the stations a list
    # does, at duration 0 as well as past it
    @pytest.mark.parametrize("duration", [0, 120_000])
    def test_flows_may_be_a_one_shot_iterable(self, duration):
        dep, table, policy = ss_scenario(seed=4)
        flows = list(CORPUS_FLOWS)
        runs = [
            run_simulation(dep, table, MAC, policy, given, duration, seed=9)
            for given in (flows, iter(flows), (f for f in flows))
        ]
        assert set(runs[0].tallies) == set(flows)
        for report in runs[1:]:
            assert report.tallies == runs[0].tallies
            assert report.total_sim_time_us == runs[0].total_sim_time_us
            assert (report.idle_us, report.busy_us) == (runs[0].idle_us, runs[0].busy_us)

    # a NaN duration gave an empty 0 us report and True ran one slot
    @pytest.mark.parametrize("duration, message", [
        (math.nan, "finite and >= 0"), (-math.inf, "finite and >= 0"),
        (True, "a number"), ("1000", "a number"),
    ])
    def test_duration_validation(self, duration, message):
        with pytest.raises(ValueError, match=f"^duration_us must be {message}$"):
            run_simulation(uniform_two_node(), None, MAC, None, [DirectedLink("n1", "n2")],
                           duration, seed=1)

    # True ran as seed 1, and 1.5 or "x" raised TypeError inside SplitMix64
    @pytest.mark.parametrize("seed", [True, 1.5, "x"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            run_simulation(uniform_two_node(), None, MAC, None, [DirectedLink("n1", "n2")],
                           1000, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_the_ends_of_the_range_run(self, seed):
        report = run_simulation(uniform_two_node(), None, MAC, None,
                                [DirectedLink("n1", "n2")], 10_000, seed=seed)
        assert report.tallies[DirectedLink("n1", "n2")].successes > 0

    def test_invalid_deployment_rejected(self):
        dep = uniform_two_node()
        link = DirectedLink("n1", "n2")
        slots = [list(slot) for slot in dep.links[link].slots]
        slots[2][10] = 11
        # an invalid map or deployment cannot be built, so it never reaches a run
        with pytest.raises(ValueError, match="value 11 at slot 3, subcarrier 11"):
            Tonemap(slots)
        with pytest.raises(ValueError, match="no reverse-direction tonemap"):
            Deployment(dep.nodes, {link: dep.links[link]})

    def test_unknown_link_in_throughput(self):
        dep = uniform_two_node()
        report = run_simulation(dep, None, MAC, None, [DirectedLink("n1", "n2")], 1000, seed=1)
        with pytest.raises(ValueError, match="unknown link"):
            normalized_throughput(report, DirectedLink("n2", "n1"), MAC)


class TestDeferralCounters:
    def test_stage_escalation_follows_dc_schedule(self):
        # seed 19: n1 wins the first 8 windows, so n2 sits in backoff sensing
        # busy 8 times. With DC schedule [0,1,3,15] its escalations must land
        # on sensed-busy windows 1 (dc 0 spent), 3 (after one dc), and 7
        # (after three), reaching stages 1, 2, 3 with dc reloads 1, 3, 15.
        dep = uniform_two_node()
        flows = [DirectedLink("n1", "n2"), DirectedLink("n2", "n1")]
        report = run_simulation(dep, None, MAC, None, flows, 40_000, seed=19,
                                collect_events=True)
        starts = [e for e in report.events if e.event == EVENT_TX_START]
        assert all(e.link.tx == "n1" for e in starts[:8])
        assert not any(e.event == EVENT_TX_END_COLLISION for e in report.events)
        window_number = {e.time_us: i + 1 for i, e in enumerate(starts[:8])}
        advances = [
            e for e in report.events
            if e.event == EVENT_STAGE_ADVANCE and e.link.tx == "n2"
        ][:3]
        assert [window_number[e.time_us] for e in advances] == [1, 3, 7]
        assert [e.stage for e in advances] == [1, 2, 3]
        assert [e.dc for e in advances] == [1, 3, 15]

    def test_stage_capped_at_last(self):
        dep = uniform_two_node()
        flows = [DirectedLink("n1", "n2"), DirectedLink("n2", "n1")]
        report = run_simulation(dep, None, MAC, None, flows, 1_000_000, seed=19,
                                collect_events=True)
        assert max(
            e.stage for e in report.events if e.event == EVENT_STAGE_ADVANCE
        ) == len(MAC.cw_schedule) - 1


class TestMediumOccupancy:
    def test_no_ss_windows_never_overlap(self):
        dep = complementary_corpus(1)
        report = run_simulation(
            dep, None, MAC, None, list(CORPUS_FLOWS), 300_000, seed=7,
            collect_events=True,
        )
        successes = [e for e in report.events if e.event == EVENT_TX_END_SUCCESS]
        assert successes and all(e.role == "primary" for e in successes)
        # reconstruct windows: every new transmission group must start at or
        # after the previous window closed, and success windows hold exactly
        # one transmitter
        last_end = 0.0
        transmitters = 0
        for e in report.events:
            if e.event == EVENT_TX_START:
                assert e.time_us >= last_end
                transmitters += 1
            elif e.event in (EVENT_TX_END_SUCCESS, EVENT_TX_END_COLLISION):
                if e.event == EVENT_TX_END_SUCCESS:
                    assert transmitters == 1
                transmitters -= 1 if transmitters else 0
                if transmitters == 0:
                    last_end = e.time_us

    def test_ss_secondary_overlaps_primary(self):
        # two node-disjoint complementary flows: both links record successes
        # and the secondary's success lands inside the primary's window
        dep = complementary_corpus(1)
        flows = [DirectedLink("n1", "n3"), DirectedLink("n2", "n4")]
        policy = SSPolicy(beta=2, top_m=2)
        table = build_decision_table(dep, policy)
        report = run_simulation(dep, table, MAC, policy, flows, 500_000, seed=1,
                                collect_events=True)
        assert report.tallies[DirectedLink("n1", "n3")].successes_secondary > 0
        assert report.tallies[DirectedLink("n2", "n4")].successes_secondary > 0
        engages = [e for e in report.events if e.event == EVENT_SS_ENGAGE]
        assert engages
        # an engagement strictly inside some primary window
        primary_windows = [
            (s.time_us, s.time_us + MAC.success_duration_us)
            for s in report.events
            if s.event == EVENT_TX_START
        ]
        assert any(
            any(start < t < end for start, end in primary_windows)
            for t in (e.time_us for e in engages)
        )

    def test_ss_at_most_one_primary_plus_one_secondary(self):
        dep, table, policy = ss_scenario(seed=4)
        report = run_simulation(
            dep, table, MAC, policy, list(CORPUS_FLOWS), 400_000, seed=4,
            collect_events=True,
        )
        active_secondary = 0
        for e in report.events:
            if e.event == EVENT_SS_ENGAGE:
                active_secondary += 1
            elif e.event == EVENT_SS_ABORT:
                active_secondary -= 1
            elif e.event == EVENT_TX_END_SUCCESS and e.role == "secondary":
                active_secondary -= 1
            assert 0 <= active_secondary <= 1

    def test_secondary_fraction_only_over_allocated_indices(self):
        dep, table, policy = ss_scenario(seed=3)
        report = run_simulation(
            dep, table, MAC, policy, list(CORPUS_FLOWS), 300_000, seed=3,
            collect_events=True,
        )
        allocations = {
            (alloc.secondary, key[1]): alloc
            for key, cands in table.entries.items()
            for alloc in cands
        }
        checked = 0
        for e in report.events:
            if e.event == EVENT_TX_END_SUCCESS and e.role == "secondary":
                matches = [
                    float(spectrum_fraction(dep.links[e.link], slot, alloc.shared_indices))
                    for (link, slot), alloc in allocations.items()
                    if link == e.link
                ]
                assert e.spectrum_fraction in matches
                checked += 1
        assert checked > 0


class TestAbortAndBarge:
    def test_aborted_frame_counts_neither_success_nor_collision(self):
        dep, table, policy = ss_scenario(seed=1)
        report = run_simulation(
            dep, table, MAC, policy, list(CORPUS_FLOWS), 300_000, seed=1,
            collect_events=True,
        )
        aborts = [e for e in report.events if e.event == EVENT_SS_ABORT]
        assert aborts, "expected at least one barge-induced abort in this run"
        for link, tally in report.tallies.items():
            secondary_ends = sum(
                1 for e in report.events
                if e.event == EVENT_TX_END_SUCCESS
                and e.role == "secondary" and e.link == link
            )
            collision_ends = sum(
                1 for e in report.events
                if e.event == EVENT_TX_END_COLLISION and e.link == link
            )
            assert tally.successes_secondary == secondary_ends
            assert tally.collisions == collision_ends

    def test_barge_collides_with_primary(self):
        dep, table, policy = ss_scenario(seed=1)
        report = run_simulation(
            dep, table, MAC, policy, list(CORPUS_FLOWS), 300_000, seed=1,
            collect_events=True,
        )
        aborts = [e for e in report.events if e.event == EVENT_SS_ABORT]
        after = [e for e in report.events if e.time_us >= aborts[0].time_us][:8]
        kinds = [e.event for e in after]
        assert EVENT_TX_START in kinds  # the barger claims the full spectrum
        assert EVENT_TX_END_COLLISION in kinds


class TestReevaluation:
    def test_periodic_full_spectrum_suspension(self):
        dep, table, policy = ss_scenario(seed=2)
        mac = MacParams(reeval_period_us=100_000.0)
        report = run_simulation(
            dep, table, mac, policy, list(CORPUS_FLOWS), 1_000_000, seed=2,
            collect_events=True,
        )
        starts = [e for e in report.events if e.event == EVENT_REEVAL_START]
        ends = [e for e in report.events if e.event == EVENT_REEVAL_END]
        assert len(starts) >= 8  # roughly one per period over ten periods
        assert len(starts) == len(ends)
        for s, e in zip(starts, ends):
            inside = [
                x for x in report.events
                if s.time_us <= x.time_us < e.time_us and x.event == EVENT_SS_ENGAGE
            ]
            assert inside == []
            assert e.time_us - s.time_us == pytest.approx(mac.success_duration_us)

    def test_reeval_windows_use_full_spectrum(self):
        dep, table, policy = ss_scenario(seed=2)
        mac = MacParams(reeval_period_us=50_000.0)
        report = run_simulation(
            dep, table, mac, policy, list(CORPUS_FLOWS), 400_000, seed=2,
            collect_events=True,
        )
        full_sf = {
            (link, k): float(spectrum_fraction(dep.links[link], k, range(1, 918)))
            for link in dep.links
            for k in range(1, dep.slot_count + 1)
        }
        reeval_starts = {e.time_us for e in report.events if e.event == EVENT_REEVAL_START}
        checked = 0
        for i, e in enumerate(report.events):
            if e.event == EVENT_TX_START and e.time_us in reeval_starts:
                end = next(
                    x for x in report.events[i:]
                    if x.event == EVENT_TX_END_SUCCESS and x.link == e.link
                )
                assert any(
                    end.spectrum_fraction == full_sf[(e.link, k)]
                    for k in range(1, dep.slot_count + 1)
                )
                checked += 1
        assert checked > 0


class TestSpectrumAccounting:
    """Tallies equal a replay of the event log through spectrum_fraction."""

    def check(self, dep, table, mac, policy, flows, duration_us, seed):
        report = run_simulation(
            dep, table, mac, policy, flows, duration_us, seed, collect_events=True
        )
        rebuilt = rebuild_spectrum_tallies(report, dep, table, mac, policy)
        assert rebuilt == report_spectrum_tallies(report)
        return report

    @staticmethod
    def count(report, event):
        return sum(1 for e in report.events if e.event == event)

    def test_ss_on_with_engagements(self):
        dep, table, policy = ss_scenario(seed=4)
        report = self.check(dep, table, MAC, policy, list(CORPUS_FLOWS), 400_000, 4)
        assert self.count(report, EVENT_SS_ENGAGE) > 0
        assert all(
            isinstance(t.sf_primary, Fraction) for t in report.tallies.values()
        )

    def test_ss_off(self):
        dep = complementary_corpus(2)
        self.check(dep, None, MAC, None, list(CORPUS_FLOWS), 300_000, 2)

    def test_dense_ring_with_aborts_barges_and_reevaluation(self):
        dep, table, policy, ring = dense_ring_scenario()
        mac = MacParams(reeval_period_us=100_000.0)
        report = self.check(dep, table, mac, policy, ring, 300_000, 3)
        assert self.count(report, EVENT_SS_ABORT) > 0
        assert self.count(report, EVENT_TX_END_COLLISION) > 0
        assert self.count(report, EVENT_REEVAL_START) > 0

    def test_reeval_period(self):
        dep, table, policy = ss_scenario(seed=2)
        mac = MacParams(reeval_period_us=50_000.0)
        report = self.check(dep, table, mac, policy, list(CORPUS_FLOWS), 400_000, 2)
        assert self.count(report, EVENT_REEVAL_START) >= 7

    def test_run_top_m_below_table_top_m(self):
        dep, table, _ = ss_scenario(seed=1, top_m=2)
        assert max(len(c) for c in table.entries.values()) == 2
        run_policy = SSPolicy(beta=2, top_m=1)
        report = self.check(dep, table, MAC, run_policy, list(CORPUS_FLOWS), 300_000, 1)
        assert self.count(report, EVENT_SS_ENGAGE) > 0

    def test_candidates_without_flows(self):
        dep, table, policy = ss_scenario(seed=1)
        flows = [DirectedLink("n1", "n3"), DirectedLink("n2", "n4")]
        assert any(
            alloc.secondary not in flows
            for (primary, _), cands in table.entries.items() if primary in flows
            for alloc in cands
        )
        report = self.check(dep, table, MAC, policy, flows, 300_000, 1)
        assert self.count(report, EVENT_SS_ENGAGE) > 0

    @pytest.mark.parametrize("shared, message", [
        # an index tuple goes through the helper; index 0 has no mask bit, so
        # the helper's shift by -1 fails before the constructor runs
        pytest.param((5, 0), "negative shift count", id="0"),
        pytest.param((5, 918), "out of range", id="918"),
        pytest.param(0, "out of range", id="empty"),
        pytest.param(1 << 917, "out of range", id="2**917"),
    ])
    def test_allocation_index_out_of_range(self, shared, message):
        # an allocation is checked when it is built, so no run meets a bad index
        primary, secondary = DirectedLink("n1", "n3"), DirectedLink("n2", "n4")
        with pytest.raises(ValueError, match=message):
            if isinstance(shared, tuple):
                ss_allocation(primary, secondary, 1, shared)
            else:
                SSAllocation(primary, secondary, 1, shared, gain=1, rank=1)


def ss_replay(off, deployment, table, mac, top_m, flows):
    """The tallies an SS-on run must reach when it follows the SS-off run
    ``off`` window for window, rebuilt from ``off``'s event log.

    Each primary success in AC slot k gains the flow-backed candidate among
    the entry's first ``top_m`` that engages first (the least
    max(1, rank * wait), then the lowest node), if its boundary falls before
    the window closes: the secondary is credited ``spectrum_fraction`` over
    the shared indices and the primary over the complement of them. Only the
    table, the tonemaps and the log are read, never the engine's plans.
    """
    width = mac.ac_cycle_us / deployment.slot_count
    wait = mac.rank_wait_slots_per_rank
    links = deployment.links
    # per flow, the counters its LinkTally is built from once, at the end
    counts = {f: LinkTally()._asdict() for f in flows}
    # (primary, k) -> its full-slot fraction and its engagement as (wait,
    # secondary, the secondary's fraction, the primary's) or None
    plans = {}
    start = None
    for e in off.events:
        if e.event == EVENT_TX_START:
            start = e.time_us
        elif e.event == EVENT_TX_END_COLLISION:
            counts[e.link]["collisions"] += 1
        elif e.event == EVENT_TX_END_SUCCESS:
            k = min(1 + int((start % mac.ac_cycle_us) / width), deployment.slot_count)
            if (e.link, k) not in plans:
                backed = [a for a in table.candidates(e.link, k)[:top_m] if a.secondary in counts]
                alloc = min(backed, key=lambda a: (max(1, a.rank * wait), a.secondary.tx),
                            default=None)
                full = spectrum_fraction(links[e.link], k, range(1, SUBCARRIER_COUNT + 1))
                if alloc is None:
                    plan = None
                else:
                    shared = set(alloc.shared_indices)
                    complement = [j for j in range(1, SUBCARRIER_COUNT + 1) if j not in shared]
                    plan = (max(1, alloc.rank * wait), alloc.secondary,
                            spectrum_fraction(links[alloc.secondary], k, shared),
                            spectrum_fraction(links[e.link], k, complement))
                plans[e.link, k] = full, plan
            full, plan = plans[e.link, k]
            primary = counts[e.link]
            primary["successes_primary"] += 1
            if plan is not None and start + plan[0] * mac.slot_duration_us < (
                start + mac.success_duration_us
            ):
                _, secondary, sf_secondary, sf_primary = plan
                counts[secondary]["successes_secondary"] += 1
                counts[secondary]["sf_secondary"] += sf_secondary
                primary["sf_primary"] += sf_primary
            else:
                primary["sf_primary"] += full
    return {f: LinkTally(**c) for f, c in counts.items()}


class TestSSReplayOracle:
    """An SS-on run is its SS-off run plus the table's engagements, exactly.

    With a DC that never runs out no station escalates on a sensed-busy
    event, so nobody barges: the SS-on run follows the SS-off run window for
    window, with the same collisions, primary successes and times, and
    ss_replay rebuilds its tallies from the SS-off log.
    """

    NO_DEFERRAL = (10**9,) * 4
    PROFILES = {
        "complementary": CORPUS_PROFILE_KW,
        "notched": dict(profile_kind="interference-notched", base_quality=6.0,
                        notch_count=4, notch_width=40, asymmetry_noise=2),
    }

    # (beta, top_m, rank_wait_slots_per_rank); a wait of 40 lets only rank-1
    # candidates engage inside the 70-boundary window
    @pytest.mark.parametrize("beta, top_m, wait", [
        (2, 2, 1), (4, 1, 1), (0, 3, 0), (2, 2, 40),
    ])
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_ss_on_run_equals_replay_of_ss_off_run(self, profile, beta, top_m, wait):
        mac = MacParams(dc_schedule=self.NO_DEFERRAL, rank_wait_slots_per_rank=wait)
        policy = SSPolicy(beta=beta, top_m=top_m)
        flows = list(CORPUS_FLOWS)
        engaged = 0
        for seed in range(1, 7):
            dep = generate_deployment(4, GeneratorProfile(seed=seed, **self.PROFILES[profile]))
            table = build_decision_table(dep, policy)
            off = run_simulation(dep, None, mac, None, flows, 2_000_000, seed,
                                 collect_events=True)
            on = run_simulation(dep, table, mac, policy, flows, 2_000_000, seed)
            expected = ss_replay(off, dep, table, mac, top_m, flows)
            assert on.tallies == expected, seed
            assert run_times(on) == run_times(off), seed
            engaged += sum(t.successes_secondary for t in expected.values())
        assert engaged > 0


class TestContentionMemo:
    """A run's contention pass is memoized with one entry and shared by the
    SS-on runs of a sweep; the accounting engages by the duration rule."""

    BETAS = (2, 4, 6, 8)

    def sweep(self, seed, duration_us=300_000):
        """An SS-off run, then one SS-on run per β, as ``hpavsim sweep`` does."""
        dep = complementary_corpus(seed)
        flows = list(CORPUS_FLOWS)
        reports = [run_simulation(dep, None, MAC, None, flows, duration_us, seed)]
        for beta in self.BETAS:
            policy = SSPolicy(beta=beta, top_m=2)
            reports.append(run_simulation(dep, build_decision_table(dep, policy), MAC,
                                          policy, flows, duration_us, seed))
        return [(r.tallies, run_times(r)) for r in reports]

    def test_beta_sweep_makes_two_contention_misses(self):
        macsim._contend.cache_clear()
        self.sweep(seed=4)
        info = macsim._contend.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (2, len(self.BETAS) - 1, 1)

    # one valid value per MacParams field, other than its default
    ALTERNATES = {
        "collision_duration_us": 3000.0,
        "success_duration_us": 2600.0,
        "frame_length": 1000.0,
        "cw_schedule": (8, 16, 32, 128),
        "dc_schedule": (0, 1, 3, 7),
        "slot_duration_us": 40.0,
        "rank_wait_slots_per_rank": 40,
        "reeval_period_us": 100_000.0,
        "ac_cycle_us": 20_000.0,
    }

    @pytest.mark.parametrize("field", MacParams._fields)
    def test_every_mac_field_keys_the_pass(self, field):
        dep, table, policy = ss_scenario(seed=4)
        rest = (policy, list(CORPUS_FLOWS), 300_000, 3)
        mac = MAC._replace(**{field: self.ALTERNATES[field]})
        twin = MacParams(**mac._asdict())
        assert twin == mac and twin is not mac
        macsim._contend.cache_clear()
        run_simulation(dep, table, MAC, *rest)
        report = run_simulation(dep, table, mac, *rest)
        assert macsim._contend.cache_info()[:2] == (0, 2)  # (hits, misses)
        again = run_simulation(dep, table, twin, *rest)
        assert macsim._contend.cache_info()[:2] == (1, 2)
        macsim._contend.cache_clear()
        fresh = run_simulation(dep, table, mac, *rest)
        outcome = (report.tallies, run_times(report))
        assert outcome == (again.tallies, run_times(again)) == (fresh.tallies, run_times(fresh))

    def test_rank_wait_is_credited_per_run(self):
        # a rank-2 candidate engages at a wait of 1 slot per rank, but not at 40
        dep, table, policy = ss_scenario(seed=4)
        rest = (policy, list(CORPUS_FLOWS), 300_000, 3)
        near, far = (run_simulation(dep, table, MacParams(rank_wait_slots_per_rank=wait), *rest)
                     for wait in (1, 40))
        assert near.tallies != far.tallies

    @pytest.mark.parametrize("wait, engages", [(2, False), (1, True)])
    def test_engagement_follows_the_duration_rule(self, wait, engages):
        # a window of two slots: a rank-1 candidate engages 1 boundary in,
        # and a plan that waits 2 boundaries (rank 1 at wait 2, or rank 2)
        # reaches the window's end, so it never engages
        mac = MacParams(success_duration_us=2 * MAC.slot_duration_us,
                        rank_wait_slots_per_rank=wait)
        dep, table, policy = ss_scenario(seed=4, top_m=2)
        assert any(len(c) == 2 for c in table.entries.values())
        report = run_simulation(dep, table, mac, policy, list(CORPUS_FLOWS), 300_000, 3,
                                collect_events=True)
        quiet = run_simulation(dep, table, mac, policy, list(CORPUS_FLOWS), 300_000, 3)
        assert quiet.tallies == report.tallies
        secondaries = sum(t.successes_secondary for t in report.tallies.values())
        engagements = [e for e in report.events if e.event == EVENT_SS_ENGAGE]
        assert (secondaries > 0) == engages
        assert bool(engagements) == engages

    def test_concurrent_sweeps_equal_serial_ones(self):
        # two threads thrash the one-entry memo; each still gets its own runs
        serial = {seed: self.sweep(seed) for seed in (1, 2)}
        results = {}
        threads = [threading.Thread(target=lambda s=seed: results.update({s: self.sweep(s)}))
                   for seed in serial]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside each run
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial


def engine_digest(report):
    """sha256 of a run's event-log CSV plus its times and exact tallies."""
    lines = [event_log_csv(report)]
    lines += [repr(report.total_sim_time_us), repr(report.idle_us), repr(report.busy_us)]
    for link, t in report.tallies.items():
        lines.append(
            f"{link.tx},{link.rx},{t.successes_primary},{t.successes_secondary},"
            f"{t.collisions},{t.sf_primary},{t.sf_secondary}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestEngineDigest:
    """Byte-exact engine output for fixed runs.

    The digests were recorded from earlier engines: long_rank_wait from the
    one that stepped every SS window slot by slot, the cw_* ones from the one
    that drew each backoff counter with SplitMix64.randbelow, the rest from
    the one that kept its run state in link-keyed maps. Any drift in event
    order, RNG use, spectrum totals or tallies shows here.
    """

    # ss_on and policy_none agree: the table keeps 2 candidates per entry and
    # a run without a policy uses all of them
    EXPECTED = {
        "ss_off": "7ea4afa2d892f3fbfea3882a5264cbb0abf7e3970e5f772fc1c23f7155145ff5",
        "ss_on": "2ca6758c9495d4264a53cd789e3af95d813c4e63fc2d47135061fc71b3e8a6bf",
        "policy_none": "2ca6758c9495d4264a53cd789e3af95d813c4e63fc2d47135061fc71b3e8a6bf",
        "run_top_m_1": "f705d45565708845e2bbd76e26756d934b679ee1289d4af83523a73834457eab",
        "dense_ring": "c649f2d931f083d48b44a87e1a90ab6a20d78611829bb0cdfd1e52865dd366f7",
        "long_rank_wait": "dc4fbfb10c50cd45c09ad4350c1bf22ce53e2735305308d7f446b9b34c2a0b33",
        "no_rank_wait": "77e6f557e00f5049b50600ea41ad53b340c95d15714e5a126c67ea6074bf95ba",
        "cw_1_3_5_7": "2eecfbfc4601cb5a092f3eadcc41b016216f956f1a97bc6c7f3609f4397e3b4f",
        "cw_1_2_4_8": "33bff80d947f848fb4104eb2c37b7da141d9359b27e98834767e2c0af621b256",
    }

    @pytest.mark.parametrize("case", sorted(EXPECTED))
    def test_digest(self, case):
        mac = MAC
        flows = list(CORPUS_FLOWS)
        if case == "ss_off":
            dep, table, policy = complementary_corpus(2), None, None
        elif case == "dense_ring":
            dep, table, policy, flows = dense_ring_scenario()
            mac = MacParams(reeval_period_us=100_000.0)
        elif case == "long_rank_wait":
            # a rank-2 wait of 80 boundaries outlasts the 70-boundary window,
            # so only rank-1 candidates engage, each 40 slots in (24 times)
            dep, table, policy, flows = dense_ring_scenario()
            mac = MacParams(rank_wait_slots_per_rank=40, reeval_period_us=100_000.0)
        elif case == "no_rank_wait":
            # both flow-backed candidates of every window are eligible at
            # once, so the engagement tie-break decides
            dep, table, policy = ss_scenario(seed=4, top_m=2)
            flows = [DirectedLink("n1", "n3"), DirectedLink("n3", "n1"),
                     DirectedLink("n2", "n4"), DirectedLink("n4", "n2")]
            mac = MacParams(rank_wait_slots_per_rank=0)
        elif case == "cw_1_3_5_7":
            # stage 0 draws no word and every later CW rejects words, so any
            # change in how a backoff counter is drawn shifts the stream
            dep, table, policy, flows = dense_ring_scenario()
            mac = MacParams(cw_schedule=(1, 3, 5, 7), reeval_period_us=100_000.0)
        elif case == "cw_1_2_4_8":
            # stage 0 draws no word and the later CWs are powers of two
            dep, table, policy = ss_scenario(seed=4, top_m=2)
            mac = MacParams(cw_schedule=(1, 2, 4, 8))
        else:
            dep, table, policy = ss_scenario(seed=4, top_m=2)
            if case == "policy_none":
                policy = None
            elif case == "run_top_m_1":
                policy = SSPolicy(beta=2, top_m=1)
        report = run_simulation(
            dep, table, mac, policy, flows, 300_000, 3, collect_events=True
        )
        assert engine_digest(report) == self.EXPECTED[case]
        # the event log never changes a run
        quiet = run_simulation(dep, table, mac, policy, flows, 300_000, 3)
        assert quiet.tallies == report.tallies
        assert run_times(quiet) == run_times(report)


def slot_times(n):
    """The time of n idle slots from 0, added one slot at a time."""
    t = 0.0
    for _ in range(n):
        t += MAC.slot_duration_us
    return t


class TestIdleRunDigest:
    """Byte-exact engine output where idle runs are cut short or run long.

    The digests were recorded from the engine that stepped every idle slot on
    its own. Seed 10 draws the initial BCs (7, 4, 6, 6), so its first
    transmission is 4 slots in: the short runs end inside that idle run, or
    exactly at its end, before anything transmits. The long-idle runs end
    inside an idle run too, 13.8 ms after their last transmission.
    """

    LONG_IDLE = MacParams(cw_schedule=(1024, 2048, 4096, 8192))
    # DC never reaches 0: stations escalate only on their own collisions
    NO_DEFERRAL = MacParams(dc_schedule=(10**9,) * 4)
    # case -> (SS on, MAC parameters, duration µs, seed)
    CASES = {
        "end_1us": (False, MAC, 1.0, 10),
        "end_one_slot": (False, MAC, 35.84, 10),
        "end_one_slot_short_of_first_tx": (False, MAC, slot_times(3), 10),
        "end_at_first_tx": (False, MAC, slot_times(4), 10),
        "long_idle_ss_off": (False, LONG_IDLE, 150_000, 3),
        "long_idle_ss_on": (True, LONG_IDLE, 150_000, 3),
        "no_deferral_ss_off": (False, NO_DEFERRAL, 300_000, 3),
        "no_deferral_ss_on": (True, NO_DEFERRAL, 300_000, 3),
    }
    # end_1us and end_one_slot agree: both runs take one idle slot
    EXPECTED = {
        "end_1us": "5e69ec586daa1f65143e199498861e775b79ae44e7a9ffc11e174c969db46b14",
        "end_one_slot": "5e69ec586daa1f65143e199498861e775b79ae44e7a9ffc11e174c969db46b14",
        "end_one_slot_short_of_first_tx": "c907fd37faeb4f6e1d85f788ba4cf3a9b1efcd161a09f652634fb0863ca9fcbf",
        "end_at_first_tx": "8fb99744e66ef9f380e4ae2330a940b7f4aa43dd9ad9634f74a90ae20df78cc5",
        "long_idle_ss_off": "ac5f7700a607b80068b6b842ad98cce9c7a1986b6beb994a4d99623f4061b211",
        "long_idle_ss_on": "ca11cc35f53de43b642d0c5f25a9a73ce5b5131cc12a865451e42ff3949614d9",
        "no_deferral_ss_off": "5ac5d78ee66b0447157423f058fd2d49cef508c0197e70af4591ebafa8705014",
        "no_deferral_ss_on": "c3fbb3bd15c88a551356aff93a949455bda84288707180fd807ebd61265d21b8",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest(self, case):
        ss, mac, duration_us, seed = self.CASES[case]
        if ss:
            dep, table, policy = ss_scenario(seed=4, top_m=2)
        else:
            dep, table, policy = complementary_corpus(2), None, None
        flows = list(CORPUS_FLOWS)
        report = run_simulation(
            dep, table, mac, policy, flows, duration_us, seed, collect_events=True
        )
        assert engine_digest(report) == self.EXPECTED[case]
        quiet = run_simulation(dep, table, mac, policy, flows, duration_us, seed)
        assert quiet.tallies == report.tallies
        assert run_times(quiet) == run_times(report)


class TestNormalizedThroughput:
    def test_hand_arithmetic_reference(self):
        link = DirectedLink("a", "b")
        report = SimReportRaw(
            tallies={link: LinkTally(successes_primary=100, sf_primary=Fraction(50))},
            total_sim_time_us=1_000_000.0,
            requested_duration_us=1_000_000.0,
            idle_us=0.0,
            busy_us=0.0,
        )
        assert normalized_throughput(report, link, MAC) == pytest.approx(10.25)

    def test_zero_successes(self):
        link = DirectedLink("a", "b")
        report = SimReportRaw({link: LinkTally()}, 1_000.0, 1_000.0, 0.0, 0.0)
        assert normalized_throughput(report, link, MAC) == 0.0

    def test_scale_invariance(self):
        link = DirectedLink("a", "b")
        single = SimReportRaw(
            {link: LinkTally(successes_primary=10, sf_primary=Fraction(5))},
            500_000.0, 500_000.0, 0.0, 0.0,
        )
        double = SimReportRaw(
            {link: LinkTally(successes_primary=20, sf_primary=Fraction(10))},
            1_000_000.0, 1_000_000.0, 0.0, 0.0,
        )
        assert normalized_throughput(single, link, MAC) == normalized_throughput(
            double, link, MAC
        )


class TestEventLog:
    def test_csv_columns_and_event_vocabulary(self):
        dep, table, policy = ss_scenario(seed=1)
        report = run_simulation(
            dep, table, MAC, policy, list(CORPUS_FLOWS), 200_000, seed=1,
            collect_events=True,
        )
        text = event_log_csv(report)
        lines = text.splitlines()
        assert lines[0] == "time_us,event,node,link_tx,link_rx,role,stage,bc,dc,spectrum_fraction"
        allowed = {
            EVENT_TX_START, EVENT_TX_END_SUCCESS, EVENT_TX_END_COLLISION,
            EVENT_STAGE_ADVANCE, EVENT_SS_ENGAGE, EVENT_SS_ABORT,
            EVENT_REEVAL_START, EVENT_REEVAL_END,
        }
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 10
            assert fields[1] in allowed
        times = [float(l.split(",")[0]) for l in lines[1:]]
        assert times == sorted(times)

    def test_matches_per_field_oracle(self):
        a, b = DirectedLink("n1", "n2"), DirectedLink("n3", "n4")
        later = float("35.84")  # equal to the literal, but another object
        events = [
            SimEvent(0.0, EVENT_REEVAL_START),
            SimEvent(0.0, EVENT_TX_START, a, ROLE_PRIMARY, 0, 0, 0),
            SimEvent(-0.0, EVENT_STAGE_ADVANCE, b, None, 1, 9, 1),
            SimEvent(35.84, EVENT_SS_ENGAGE, b, ROLE_SECONDARY),
            SimEvent(later, EVENT_SS_ABORT, b, ROLE_SECONDARY),
            SimEvent(later, "custom", a, None, None, 0, None, 0.0),
            SimEvent(later, "custom", a, ROLE_PRIMARY, 2, None, 0, -0.0),
            SimEvent(2578.48, EVENT_TX_END_SUCCESS, b, ROLE_SECONDARY,
                     None, None, None, 0.25),
            SimEvent(2578.48, EVENT_TX_END_SUCCESS, a, ROLE_PRIMARY,
                     0, 3, 0, 0.4569247546346783),
            SimEvent(2578.48, EVENT_TX_END_SUCCESS, a, ROLE_PRIMARY,
                     0, 3, 0, 0.25),
            SimEvent(2614.32, EVENT_TX_END_COLLISION, a, ROLE_PRIMARY,
                     3, 63, 15, 1e-05),
            SimEvent(2614.32, EVENT_REEVAL_END, spectrum_fraction=0.0),
        ]
        report = SimReportRaw({}, 2614.32, 2614.32, 0.0, 2614.32, events=events)
        text = event_log_csv(report)
        assert text == oracle_event_log_csv(report)
        assert text.splitlines()[2:4] == [
            "0.0,tx_start,n1,n1,n2,primary,0,0,0,",
            "-0.0,stage_advance,n3,n3,n4,,1,9,1,",
        ]

        dep, table, policy, ring = dense_ring_scenario()
        report = run_simulation(
            dep, table, MacParams(reeval_period_us=100_000.0), policy, ring, 300_000, 3,
            collect_events=True,
        )
        assert event_log_csv(report) == oracle_event_log_csv(report)

    def test_rows_sharing_a_tail_match_the_oracle(self):
        # every row has the fields of the first after the time, except for
        # its fraction: zeros of either sign, NaNs, and equal floats that are
        # other objects, at times that are equal floats but other objects
        a = DirectedLink("n1", "n2")
        nan = float("nan")
        later = float("35.84")  # equal to the literal, but another object
        times = [0.0, 0.0, 0.0, 0.0, 35.84, later, later, 71.68, 71.68, 71.68, 107.52]
        fracs = [0.0, -0.0, -0.0, 0.0, nan, nan, float("nan"),
                 0.25, float("0.25"), 0.0, 0.25]
        events = [SimEvent(t, EVENT_TX_END_SUCCESS, a, ROLE_PRIMARY, 0, 3, 0, sf)
                  for t, sf in zip(times, fracs)]
        report = SimReportRaw({}, 107.52, 107.52, 0.0, 107.52, events=events)
        text = event_log_csv(report)
        assert text == oracle_event_log_csv(report)
        assert [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]] == [
            "0.0", "-0.0", "-0.0", "0.0", "nan", "nan", "nan", "0.25", "0.25", "0.0", "0.25",
        ]

    def test_no_event_built_without_collection(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("event built")

        dep, table, policy, ring = dense_ring_scenario()
        args = (dep, table, MacParams(reeval_period_us=100_000.0), policy, ring, 300_000, 3)
        expected = run_simulation(*args)
        # the engine builds every event through this one constructor
        monkeypatch.setattr(macsim, "_new_event", refuse)
        macsim._contend.cache_clear()  # run the loop, not the memo
        assert run_simulation(*args).tallies == expected.tallies
        with pytest.raises(RuntimeError, match="event built"):
            run_simulation(*args, collect_events=True)

    def test_log_requires_collection(self):
        dep = uniform_two_node()
        report = run_simulation(dep, None, MAC, None, [DirectedLink("n1", "n2")], 1000, seed=1)
        with pytest.raises(ValueError, match="collect_events"):
            event_log_csv(report)


class TestMacParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MacParams(cw_schedule=(8, 16), dc_schedule=(0,))
        with pytest.raises(ValueError):
            MacParams(slot_duration_us=0)
        with pytest.raises(ValueError):
            MacParams(reeval_period_us=0)
        with pytest.raises(ValueError):
            MacParams(cw_schedule=(0,), dc_schedule=(0,))
        # counters are whole numbers: a float CW has no bit length to draw
        # with, a fractional DC never reaches 0 and a fractional wait engages
        # off a slot boundary
        for field, kwargs in [
            ("cw_schedule", dict(cw_schedule=(8.0, 16, 32, 64))),
            ("cw_schedule", dict(cw_schedule=(True, 16, 32, 64))),
            ("dc_schedule", dict(dc_schedule=(0.5, 1, 3, 15))),
            ("dc_schedule", dict(dc_schedule=(0, 1, 3, False))),
            ("rank_wait_slots_per_rank", dict(rank_wait_slots_per_rank=1.5)),
            ("rank_wait_slots_per_rank", dict(rank_wait_slots_per_rank=True)),
        ]:
            with pytest.raises(ValueError, match=f"{field} .*integer"):
                MacParams(**kwargs)

    # a bool passed the positive-and-finite check as 0 or 1, and a string
    # failed it with TypeError
    @pytest.mark.parametrize("value", [True, "x"])
    @pytest.mark.parametrize("field", ["collision_duration_us", "success_duration_us",
                                       "frame_length", "slot_duration_us", "ac_cycle_us",
                                       "reeval_period_us"])
    def test_validation_needs_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a number$"):
            MacParams(**{field: value})

    # NaN fails every comparison, so a "<= 0" check lets it through: a NaN
    # slot or cycle length died mid-run converting NaN to an int, and a NaN
    # or infinite duration gave a NaN or infinite total_sim_time_us
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["collision_duration_us", "success_duration_us",
                                       "frame_length", "slot_duration_us", "ac_cycle_us",
                                       "reeval_period_us"])
    def test_non_finite_duration_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            MacParams(**{field: value})
