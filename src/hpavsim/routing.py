"""Offline multi-hop route planner over tonemap-derived link rates.

Edges are weighted by expected throughput; a path's end-to-end estimate is
the harmonic combination 1 / sum(1/rate) of its hop rates, i.e. transmission
time is additive because every hop shares the one PLC medium. The planner
returns the path maximizing that estimate, with ties broken toward the
lexicographically smallest node sequence.

``LinkGraph`` is a checked tuple (``tonemap.CheckedTuple``); ``Route`` is a
plain ``typing.NamedTuple``.
"""

import heapq
import math
from typing import Dict, NamedTuple, Tuple

from .tonemap import CheckedTuple, DirectedLink, PhyParams, expected_throughput, is_number
from .traceio import Deployment


class _GraphFields(NamedTuple):
    nodes: Tuple[str, ...]
    edges: Dict[DirectedLink, float]  # bits/second


class LinkGraph(CheckedTuple, _GraphFields):
    """Directed links and their rates in bits/second.

    A tuple of ``nodes`` (kept as a tuple) and ``edges`` (copied into a new
    dict). Construction, ``_make`` and ``_replace`` raise ValueError for a
    rate that is not a finite number >= 0."""

    __slots__ = ()

    def __new__(cls, nodes, edges):
        edges = dict(edges)
        for link, rate in edges.items():
            # best_route costs a hop 1/rate: an infinite rate would cost 0,
            # and a NaN or negative one would turn up as the route's estimate
            if not (is_number(rate) and rate >= 0 and math.isfinite(rate)):
                raise ValueError(f"rate of {link} must be a finite number >= 0, got {rate!r}")
        return tuple.__new__(cls, (tuple(nodes), edges))


class Route(NamedTuple):
    path: Tuple[str, ...]
    throughput_bps: float

    @property
    def hops(self) -> int:
        return len(self.path) - 1


def build_graph(
    deployment: Deployment, params: PhyParams, min_rate: float = 0.0
) -> LinkGraph:
    """Directed graph of all traced links whose expected throughput reaches
    ``min_rate``. Raises ValueError for a ``min_rate`` that is not a number
    or is NaN; any other value, infinite or negative, is a plain threshold."""
    # NaN fails every comparison, so it would prune every link unreported
    if not is_number(min_rate) or math.isnan(min_rate):
        raise ValueError(f"min_rate must be a number other than NaN, got {min_rate!r}")
    edges = {}
    for link, tmap in deployment.links.items():
        rate = expected_throughput(tmap, params)
        if rate >= min_rate:
            edges[link] = rate
    return LinkGraph(deployment.nodes, edges)


def best_route(graph: LinkGraph, src: str, dst: str) -> Route:
    """Highest-throughput path from src to dst.

    Dijkstra over per-bit transmission time (1/rate per hop); zero-rate edges
    are usable only when nothing better exists and yield a 0.0 estimate.
    A ``LinkGraph``'s rates are finite, so every hop costs ``1/rate > 0``
    or ``inf`` and a route's cost is never 0.
    Raises ValueError for unknown endpoints, src == dst, or no path.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    if src not in graph.nodes or dst not in graph.nodes:
        missing = src if src not in graph.nodes else dst
        raise ValueError(f"unknown node {missing!r}")

    adjacency: Dict[str, list] = {}
    for link, rate in graph.edges.items():
        cost = math.inf if rate == 0 else 1.0 / rate
        adjacency.setdefault(link.tx, []).append((link.rx, cost))

    # heap orders by (cost, path); the path tuple makes equal-cost ties
    # resolve to the lexicographically smallest node sequence
    heap = [(0.0, (src,))]
    settled = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            return Route(path, 0.0 if cost == math.inf else 1.0 / cost)
        for neighbor, hop_cost in adjacency.get(node, ()):
            if neighbor not in settled:
                heapq.heappush(heap, (cost + hop_cost, path + (neighbor,)))
    raise ValueError(f"destination {dst!r} unreachable from {src!r}")


def route_csv(route: Route) -> str:
    """Single-row route CSV: src,dst,hops,path,estimate_bps, the ends taken
    from the route's own path."""
    src, dst = route.path[0], route.path[-1]
    path = ">".join(route.path)
    return (
        "src,dst,hops,path,estimate_bps\n"
        f"{src},{dst},{route.hops},{path},{round(route.throughput_bps)}\n"
    )
