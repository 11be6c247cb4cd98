"""Fairness and comparison metrics over simulation reports.

Per-node throughput is the sum of normalized throughputs of the flows a node
transmits. Jain's index is (sum x)^2 / (n * sum x^2); the fairly-shared
spectrum efficiency (FSSE) is n times the minimum per-node throughput, which
equals the network total exactly when allocation is perfectly even and is
anchored to the worst-off node otherwise.

The reports are plain ``typing.NamedTuple`` records: tuples of their
fields, built once and immutable.
"""

import io
import math
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .macsim import MacParams, SimReportRaw, normalized_throughput
from .tonemap import MAX_MODULATION_TOTAL, DirectedLink, asymmetry
from .traceio import Deployment


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index of non-negative scores; 1.0 iff all equal."""
    if not values:
        raise ValueError("jain_index needs at least one value")
    if any(v < 0 for v in values):
        raise ValueError("jain_index requires non-negative values")
    square_sum = sum(v * v for v in values)
    if square_sum == 0:
        raise ValueError("jain_index requires at least one positive value")
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


def fsse(per_node: Dict[str, float]) -> float:
    """Fairly-shared spectrum efficiency: node count times the minimum."""
    if not per_node:
        raise ValueError("fsse needs a non-empty map")
    return len(per_node) * min(per_node.values())


class FairnessReport(NamedTuple):
    jfi: float
    fsse: float
    per_node_throughput: Dict[str, float]
    aggregate_throughput: float


def fairness_report(report: SimReportRaw, mac: MacParams) -> FairnessReport:
    """Node-level fairness figures of one run: a node's throughput is its
    one flow's. Raises ValueError for a report with two flows from one
    station, which ``run_simulation`` refuses to run."""
    per_node: Dict[str, float] = {
        link.tx: normalized_throughput(report, link, mac) for link in report.tallies
    }
    if len(per_node) != len(report.tallies):
        raise ValueError("a station has more than one flow")
    return FairnessReport(
        jfi=jain_index(list(per_node.values())),
        fsse=fsse(per_node),
        per_node_throughput=per_node,
        aggregate_throughput=sum(per_node.values()),
    )


def fairness_csv(report: FairnessReport) -> str:
    out = io.StringIO()
    out.write("metric,value\n")
    out.write(f"jfi,{report.jfi!r}\n")
    out.write(f"fsse,{report.fsse!r}\n")
    out.write(f"aggregate_throughput,{report.aggregate_throughput!r}\n")
    for node in sorted(report.per_node_throughput):
        out.write(f"throughput_{node},{report.per_node_throughput[node]!r}\n")
    return out.getvalue()


class LinkGain(NamedTuple):
    base: float
    ss: float
    gain_pct: float


class GainReport(NamedTuple):
    """SS-on vs SS-off comparison of two runs over the same scenario; each
    run's own JFI and FSSE come from ``fairness_report``."""

    per_link: Dict[DirectedLink, LinkGain]
    aggregate_base: float
    aggregate_ss: float
    aggregate_gain_pct: float
    jfi_delta: float
    fsse_delta: float


def _pct_gain(base: float, new: float) -> float:
    if base == 0:
        return 0.0 if new == 0 else math.inf
    return 100.0 * (new - base) / base


def compare_runs(base: SimReportRaw, ss: SimReportRaw, mac: MacParams) -> GainReport:
    """Percentage throughput gains and fairness deltas of SS-on over SS-off.
    A link's throughput is its transmitter's in each run's
    ``fairness_report``."""
    if set(base.tallies) != set(ss.tallies):
        raise ValueError("link-set mismatch between the two reports")
    if base.requested_duration_us != ss.requested_duration_us:
        raise ValueError("reports were produced for different durations")
    fair_base = fairness_report(base, mac)
    fair_ss = fairness_report(ss, mac)
    per_link = {}
    for link in sorted(base.tallies):
        thr_base = fair_base.per_node_throughput[link.tx]
        thr_ss = fair_ss.per_node_throughput[link.tx]
        per_link[link] = LinkGain(thr_base, thr_ss, _pct_gain(thr_base, thr_ss))
    return GainReport(
        per_link=per_link,
        aggregate_base=fair_base.aggregate_throughput,
        aggregate_ss=fair_ss.aggregate_throughput,
        aggregate_gain_pct=_pct_gain(
            fair_base.aggregate_throughput, fair_ss.aggregate_throughput
        ),
        jfi_delta=fair_ss.jfi - fair_base.jfi,
        fsse_delta=fair_ss.fsse - fair_base.fsse,
    )


def pair_asymmetries(deployment: Deployment) -> Iterator[Tuple[str, str, Fraction]]:
    """``(a, b, asymmetry)`` of every traced unordered node pair, a < b,
    ordered by pair identifiers; the asymmetry is exact."""
    pairs = sorted({tuple(sorted((l.tx, l.rx))) for l in deployment.links})
    for a, b in pairs:
        forward = deployment.links[DirectedLink(a, b)]
        backward = deployment.links[DirectedLink(b, a)]
        yield a, b, asymmetry(forward, backward)


def asymmetry_distribution(deployment: Deployment) -> List[float]:
    """Normalized (0..1) asymmetry of every traced unordered node pair,
    ordered by pair identifiers."""
    return [float(v / MAX_MODULATION_TOTAL) for _, _, v in pair_asymmetries(deployment)]
