import itertools
import math
from fractions import Fraction

import pytest

from hpavsim import (
    Deployment,
    DirectedLink,
    GeneratorProfile,
    MacParams,
    asymmetry_distribution,
    compare_runs,
    fairness_report,
    fsse,
    generate_deployment,
    jain_index,
)
from hpavsim.macsim import LinkTally, SimReportRaw, normalized_throughput
from hpavsim.metrics import fairness_csv, pair_asymmetries
from hpavsim.tonemap import asymmetry

from conftest import deployment_from_levels, filled_tonemap

MAC = MacParams()


def report_from_sf(sf_by_link, total_us=1_000_000.0):
    tallies = {
        link: LinkTally(successes_primary=1, sf_primary=Fraction(sf))
        for link, sf in sf_by_link.items()
    }
    return SimReportRaw(tallies, total_us, total_us, 0.0, 0.0)


class TestJain:
    def test_equal_allocation(self):
        assert jain_index([50, 50, 50, 50]) == 1.0

    def test_single_active_node(self):
        assert jain_index([10, 0, 0, 0]) == 0.25

    def test_scale_invariance(self):
        values = [3.0, 7.0, 1.5, 9.0]
        scaled = [v * 17.3 for v in values]
        assert jain_index(scaled) == pytest.approx(jain_index(values))

    def test_permutation_invariance_and_bounds(self):
        values = [1.0, 5.0, 2.0]
        assert jain_index(values) == pytest.approx(jain_index(values[::-1]))
        assert 1 / 3 <= jain_index(values) <= 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([0, 0])
        with pytest.raises(ValueError):
            jain_index([-1, 2])


class TestFsse:
    def test_equal_allocation_equals_network_total(self):
        assert fsse({"a": 25, "b": 25, "c": 25, "d": 25}) == 100

    def test_any_zero_node_zeroes_it(self):
        assert fsse({"a": 10, "b": 0}) == 0

    def test_min_anchored(self):
        assert fsse({"a": 30, "b": 10, "c": 10, "d": 10}) == 40

    def test_never_exceeds_total(self):
        per_node = {"a": 4.0, "b": 9.0, "c": 5.5}
        assert fsse(per_node) <= sum(per_node.values())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fsse({})


class TestCompareRuns:
    def test_identical_reports_zero_gains(self):
        links = {DirectedLink("a", "b"): 0.5, DirectedLink("b", "a"): 0.25}
        base = report_from_sf(links)
        ss = report_from_sf(links)
        gain = compare_runs(base, ss, MAC)
        assert gain.aggregate_gain_pct == 0.0
        assert gain.jfi_delta == 0.0 and gain.fsse_delta == 0.0
        assert all(g.gain_pct == 0.0 for g in gain.per_link.values())

    def test_twenty_two_percent_regime(self):
        # aggregate 100 -> 122 must read +22%
        base = report_from_sf({DirectedLink("a", "b"): Fraction(100, 205)}, total_us=1000.0)
        ss = report_from_sf({DirectedLink("a", "b"): Fraction(122, 205)}, total_us=1000.0)
        gain = compare_runs(base, ss, MAC)
        assert gain.aggregate_base == pytest.approx(100.0)
        assert gain.aggregate_ss == pytest.approx(122.0)
        assert gain.aggregate_gain_pct == pytest.approx(22.0)

    def test_per_link_hand_arithmetic(self):
        a, b = DirectedLink("a", "b"), DirectedLink("b", "a")
        gain = compare_runs(
            report_from_sf({a: 0.4, b: 0.2}),
            report_from_sf({a: 0.5, b: 0.1}),
            MAC,
        )
        assert gain.per_link[a].gain_pct == pytest.approx(25.0)
        assert gain.per_link[b].gain_pct == pytest.approx(-50.0)

    # every figure against arithmetic done here on the tallies: throughput is
    # 100 * (primary + secondary spectrum fraction) * frame_length / time
    def test_gains_and_deltas_from_known_tallies(self):
        ab, bc, ca = DirectedLink("a", "b"), DirectedLink("b", "c"), DirectedLink("c", "a")
        total_us = 400_000.0
        base_sf = {ab: Fraction(3, 2), bc: Fraction(1, 2), ca: Fraction(1)}
        ss_sf = {ab: (Fraction(3, 2), Fraction(1, 4)), bc: (Fraction(1, 2), Fraction(3, 4)),
                 ca: (Fraction(3, 4), Fraction(0))}
        base = SimReportRaw({
            link: LinkTally(successes_primary=3, collisions=1, sf_primary=sf)
            for link, sf in base_sf.items()
        }, total_us, total_us, 0.0, 0.0)
        ss = SimReportRaw({
            link: LinkTally(successes_primary=3, successes_secondary=2, sf_primary=p,
                            sf_secondary=s)
            for link, (p, s) in ss_sf.items()
        }, total_us + 1000.0, total_us, 0.0, 0.0)

        def thr(sf, time_us):
            return 100 * sf * Fraction(MAC.frame_length) / Fraction(time_us)

        x_base = [thr(base_sf[link], total_us) for link in (ab, bc, ca)]
        x_ss = [thr(sum(ss_sf[link]), total_us + 1000.0) for link in (ab, bc, ca)]

        def jfi(x):
            return sum(x) ** 2 / (len(x) * sum(v * v for v in x))

        gain = compare_runs(base, ss, MAC)
        for link, b, s in zip((ab, bc, ca), x_base, x_ss):
            assert gain.per_link[link].base == pytest.approx(float(b), rel=1e-12)
            assert gain.per_link[link].ss == pytest.approx(float(s), rel=1e-12)
            assert gain.per_link[link].gain_pct == pytest.approx(float(100 * (s - b) / b),
                                                                 rel=1e-12)
        assert gain.aggregate_gain_pct == pytest.approx(
            float(100 * (sum(x_ss) - sum(x_base)) / sum(x_base)), rel=1e-12)
        assert gain.jfi_delta == pytest.approx(float(jfi(x_ss) - jfi(x_base)), rel=1e-12)
        assert gain.fsse_delta == pytest.approx(float(3 * min(x_ss) - 3 * min(x_base)),
                                                rel=1e-12)
        assert gain.fsse_delta != 0

    def test_zero_base_links(self):
        # a link that starts from nothing gains without bound, unless it still
        # carries nothing
        grows, idle = DirectedLink("a", "b"), DirectedLink("b", "a")
        steady = DirectedLink("c", "a")
        gain = compare_runs(
            report_from_sf({grows: 0, idle: 0, steady: Fraction(1, 2)}),
            report_from_sf({grows: Fraction(1, 4), idle: 0, steady: Fraction(1, 2)}),
            MAC,
        )
        assert gain.per_link[grows].gain_pct == math.inf
        assert gain.per_link[idle].gain_pct == 0.0
        assert gain.per_link[steady].gain_pct == 0.0
        assert gain.aggregate_gain_pct == pytest.approx(50.0)

    def test_link_set_mismatch_rejected(self):
        base = report_from_sf({DirectedLink("a", "b"): 0.5})
        ss = report_from_sf({DirectedLink("b", "a"): 0.5})
        with pytest.raises(ValueError, match="link-set mismatch"):
            compare_runs(base, ss, MAC)

    def test_duration_mismatch_rejected(self):
        link = DirectedLink("a", "b")
        base = report_from_sf({link: 0.5}, total_us=1000.0)
        ss = report_from_sf({link: 0.5}, total_us=2000.0)
        with pytest.raises(ValueError, match="duration"):
            compare_runs(base, ss, MAC)


class TestFairnessReport:
    def test_per_node_sums_flows(self):
        a, b = DirectedLink("a", "b"), DirectedLink("b", "a")
        report = report_from_sf({a: Fraction(1, 2), b: Fraction(1, 4)})
        fair = fairness_report(report, MAC)
        assert set(fair.per_node_throughput) == {"a", "b"}
        assert fair.aggregate_throughput == pytest.approx(
            sum(fair.per_node_throughput.values())
        )
        assert fairness_csv(fair).splitlines()[0] == "metric,value"

    def test_node_throughput_is_its_flows(self):
        # one flow per station, so a node's figure is its flow's, exactly
        a, b = DirectedLink("a", "b"), DirectedLink("b", "c")
        report = report_from_sf({a: Fraction(1, 3), b: Fraction(2, 7)})
        fair = fairness_report(report, MAC)
        assert fair.per_node_throughput == {
            "a": normalized_throughput(report, a, MAC),
            "b": normalized_throughput(report, b, MAC),
        }

    def test_two_flows_from_one_station_rejected(self):
        # the one flow's figure is each link's in compare_runs, so a second
        # flow from a station may not overwrite the first
        report = report_from_sf({DirectedLink("a", "b"): Fraction(1, 3),
                                 DirectedLink("a", "c"): Fraction(2, 7),
                                 DirectedLink("b", "a"): Fraction(1, 5)})
        for call in (lambda: fairness_report(report, MAC),
                     lambda: compare_runs(report, report, MAC)):
            with pytest.raises(ValueError, match="^a station has more than one flow$"):
                call()


class TestAsymmetryDistribution:
    def test_symmetric_deployment_all_zero(self):
        dep = generate_deployment(3, GeneratorProfile("uniform", base_quality=8, seed=2))
        assert asymmetry_distribution(dep) == [0.0] * 3

    def test_documented_maximum_pair(self):
        dep = deployment_from_levels({("a", "b"): 10, ("b", "a"): 0})
        assert asymmetry_distribution(dep) == [1.0]

    def test_three_pair_hand_values(self):
        dep = deployment_from_levels(
            {
                ("a", "b"): 10, ("b", "a"): 8,   # |10-8|*917 / 9170 = 0.2
                ("a", "c"): 6, ("c", "a"): 6,    # 0
                ("b", "c"): 4, ("c", "b"): 9,    # 0.5
            }
        )
        assert asymmetry_distribution(dep) == [
            pytest.approx(0.2), pytest.approx(0.0), pytest.approx(0.5)
        ]

    def test_pairs_in_node_order_however_inserted(self):
        dep = generate_deployment(
            4, GeneratorProfile("asymmetric", base_quality=6, asymmetry_noise=3, seed=11)
        )
        backwards = Deployment(dep.nodes, dict(reversed(dep.links.items())))
        expected = [
            (a, b, asymmetry(dep.links[DirectedLink(a, b)], dep.links[DirectedLink(b, a)]))
            for a, b in itertools.combinations(sorted(dep.nodes), 2)
        ]
        assert list(pair_asymmetries(backwards)) == list(pair_asymmetries(dep)) == expected

    def test_missing_reverse_rejected(self):
        # the constructor refuses a deployment asymmetry_distribution could
        # not pair up
        with pytest.raises(ValueError, match="no reverse-direction tonemap"):
            Deployment(("a", "b"), {DirectedLink("a", "b"): filled_tonemap(1)})

    def test_values_within_unit_interval(self):
        dep = generate_deployment(
            4, GeneratorProfile("asymmetric", base_quality=6, asymmetry_noise=3, seed=11)
        )
        values = asymmetry_distribution(dep)
        assert values and all(0.0 <= v <= 1.0 for v in values)
