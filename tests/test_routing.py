import math

import pytest

from hpavsim import (
    DirectedLink,
    LinkGraph,
    PhyParams,
    Route,
    best_route,
    build_graph,
    expected_throughput,
)
from hpavsim.routing import route_csv

from conftest import deployment_from_levels


def graph(edges):
    nodes = sorted({n for pair in edges for n in pair})
    return LinkGraph(nodes, {DirectedLink(a, b): r for (a, b), r in edges.items()})


def weak_direct_deployment():
    # direct a->c carries 1 bit everywhere; relay hops carry the full 10
    return deployment_from_levels(
        {
            ("a", "c"): 1, ("c", "a"): 1,
            ("a", "b"): 10, ("b", "a"): 10,
            ("b", "c"): 10, ("c", "b"): 10,
        }
    )


class TestBuildGraph:
    def test_zero_threshold_keeps_every_link(self):
        dep = weak_direct_deployment()
        g = build_graph(dep, PhyParams(), 0.0)
        assert set(g.edges) == set(dep.links)

    def test_threshold_above_everything_empties(self):
        dep = weak_direct_deployment()
        g = build_graph(dep, PhyParams(), 1e12)
        assert g.edges == {}

    def test_weak_link_pruned_between_rates(self):
        dep = weak_direct_deployment()
        params = PhyParams()
        weak = expected_throughput(dep.links[DirectedLink("a", "c")], params)
        strong = expected_throughput(dep.links[DirectedLink("a", "b")], params)
        cut = (weak + strong) / 2
        g = build_graph(dep, params, cut)
        assert DirectedLink("a", "c") not in g.edges
        assert DirectedLink("a", "b") in g.edges

    def test_edge_at_exactly_the_threshold_kept(self):
        dep = weak_direct_deployment()
        params = PhyParams()
        weak = expected_throughput(dep.links[DirectedLink("a", "c")], params)
        g = build_graph(dep, params, weak)
        assert set(g.edges) == set(dep.links)

    def test_weights_are_expected_throughput(self):
        dep = weak_direct_deployment()
        params = PhyParams()
        g = build_graph(dep, params, 0.0)
        link = DirectedLink("b", "c")
        assert g.edges[link] == expected_throughput(dep.links[link], params)

    # NaN fails every comparison, so it would prune every link unreported; a
    # string would fail in the comparison with TypeError
    @pytest.mark.parametrize("min_rate", [math.nan, "5", None, True])
    def test_threshold_must_be_a_number_not_nan(self, min_rate):
        with pytest.raises(ValueError, match="^min_rate must be a number other than NaN"):
            build_graph(weak_direct_deployment(), PhyParams(), min_rate)

    @pytest.mark.parametrize("min_rate", [-math.inf, -1.0])
    def test_negative_threshold_keeps_every_link(self, min_rate):
        dep = weak_direct_deployment()
        assert set(build_graph(dep, PhyParams(), min_rate).edges) == set(dep.links)

    def test_infinite_threshold_keeps_no_link(self):
        assert build_graph(weak_direct_deployment(), PhyParams(), math.inf).edges == {}


class TestBestRoute:
    def test_relay_beats_weak_direct(self):
        g = graph({("a", "c"): 5e6, ("a", "b"): 50e6, ("b", "c"): 50e6})
        route = best_route(g, "a", "c")
        assert route.path == ("a", "b", "c")
        assert route.throughput_bps == pytest.approx(25e6)
        assert route.throughput_bps / 5e6 == pytest.approx(5.0)

    def test_single_edge_graph(self):
        g = graph({("a", "b"): 7e6})
        route = best_route(g, "a", "b")
        assert route.path == ("a", "b")
        assert route.throughput_bps == pytest.approx(7e6)

    def test_equal_parallel_relays_tie_break_lexicographic(self):
        g = graph({
            ("a", "m"): 40e6, ("m", "d"): 40e6,
            ("a", "b"): 40e6, ("b", "d"): 40e6,
        })
        assert best_route(g, "a", "d").path == ("a", "b", "d")

    def test_direct_never_better_than_returned(self):
        g = graph({("a", "c"): 30e6, ("a", "b"): 50e6, ("b", "c"): 50e6})
        route = best_route(g, "a", "c")
        assert route.throughput_bps >= 30e6
        assert route.path == ("a", "c")  # 30 > harmonic(50, 50) = 25

    def test_equal_rate_hops_divide_rate(self):
        g = graph({("a", "b"): 60e6, ("b", "c"): 60e6, ("c", "d"): 60e6})
        route = best_route(g, "a", "d")
        assert route.throughput_bps == pytest.approx(20e6)

    def test_adding_edge_never_hurts(self):
        edges = {("a", "b"): 10e6, ("b", "c"): 10e6}
        before = best_route(graph(edges), "a", "c").throughput_bps
        edges[("a", "c")] = 2e6
        after = best_route(graph(edges), "a", "c").throughput_bps
        assert after >= before

    def test_unreachable_destination(self):
        g = graph({("a", "b"): 1e6, ("c", "d"): 1e6})
        with pytest.raises(ValueError, match="unreachable"):
            best_route(g, "a", "d")

    def test_same_endpoints_rejected(self):
        g = graph({("a", "b"): 1e6})
        with pytest.raises(ValueError, match="must differ"):
            best_route(g, "a", "a")
        with pytest.raises(ValueError, match="unknown node"):
            best_route(g, "a", "z")

    # an infinite rate costs its hop 0, which the estimate 1/cost cannot
    # take; a NaN or negative rate would come back as the estimate
    @pytest.mark.parametrize("rate", [math.inf, math.nan, -1.0, "1e6", None, True])
    def test_rates_must_be_finite_numbers(self, rate):
        with pytest.raises(ValueError, match=r"^rate of a->b must be a finite number >= 0"):
            graph({("a", "b"): rate, ("b", "a"): 1e6})


class TestRouteCsv:
    def test_single_row_format(self):
        g = graph({("a", "b"): 50e6, ("b", "c"): 50e6})
        route = best_route(g, "a", "c")
        text = route_csv(route)
        assert text == "src,dst,hops,path,estimate_bps\na,c,2,a>b>c,25000000\n"

    def test_estimate_rounds_to_nearest(self):
        # 1 / (1/10e6 + 1/20e6) = 6666666.67 bit/s: rounded, not truncated
        g = graph({("a", "b"): 10e6, ("b", "c"): 20e6})
        route = best_route(g, "a", "c")
        assert route.throughput_bps == pytest.approx(20e6 / 3)
        text = route_csv(route)
        assert text == "src,dst,hops,path,estimate_bps\na,c,2,a>b>c,6666667\n"

    def test_ends_come_from_the_path(self):
        text = route_csv(Route(("d", "a", "c"), 1e6))
        assert text == "src,dst,hops,path,estimate_bps\nd,c,2,d>a>c,1000000\n"
