"""Trace-driven HomePlug AV network simulator and analysis library.

Tonemap-based link metrics, a coordinator-driven fine-grained spectrum-sharing
strategy, the HPAV CSMA/CA MAC model used to evaluate it, fairness metrics,
and an offline multi-hop route planner, tied together by the ``hpavsim`` CLI.
"""

from .macsim import (
    MacParams,
    SimEvent,
    SimReportRaw,
    event_log_csv,
    normalized_throughput,
    run_simulation,
)
from .metrics import (
    FairnessReport,
    GainReport,
    asymmetry_distribution,
    compare_runs,
    fairness_report,
    fsse,
    jain_index,
)
from .routing import LinkGraph, Route, best_route, build_graph
from .sharing import (
    SSAllocation,
    SSDecisionTable,
    SSPolicy,
    build_decision_table,
    decision_table_csv,
)
from .tonemap import (
    DirectedLink,
    PhyParams,
    Tonemap,
    asymmetry,
    expected_throughput,
    phy_rate,
)
from .traceio import (
    Deployment,
    GeneratorProfile,
    TraceFormatError,
    generate_deployment,
    load_trace,
    parse_trace,
    save_trace,
    serialize_trace,
)

__version__ = "1.0.0"

__all__ = [
    "DirectedLink", "PhyParams", "Tonemap", "asymmetry", "expected_throughput",
    "phy_rate",
    "Deployment", "GeneratorProfile", "TraceFormatError", "generate_deployment",
    "load_trace", "parse_trace", "save_trace", "serialize_trace",
    "SSAllocation", "SSDecisionTable", "SSPolicy", "build_decision_table",
    "decision_table_csv",
    "MacParams", "SimEvent", "SimReportRaw", "event_log_csv",
    "normalized_throughput", "run_simulation",
    "FairnessReport", "GainReport", "asymmetry_distribution", "compare_runs",
    "fairness_report", "fsse", "jain_index",
    "LinkGraph", "Route", "best_route", "build_graph",
]
