"""In-memory spans around the benchmark's calls into hpavsim, and the
per-layer metrics derived from them.

A span is ``(name, start, end, unit, parent)``: ``name`` is
``<module>.<function>[.<mode>]``, times are ``time.perf_counter`` seconds,
``unit`` is the id of the workload unit the call belongs to and ``parent`` is
the index of the enclosing span in ``Tracer.spans`` (-1 for a unit span).
Counts (links generated, bytes parsed, frames simulated, ...) are recorded at
the same call sites so that rates are measured where the work happens.
"""

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("traceio", "sharing", "macsim", "metrics", "tonemap", "routing", "cli")

# unit of every per-layer metric, in BENCHMARK.json order
PER_LAYER = {
    "traceio.generate_deployment.calls": "count",
    "traceio.generate_deployment.busy_s": "s",
    "traceio.generate_deployment.links_per_s": "links/s",
    "traceio.serialize_trace.busy_s": "s",
    "traceio.serialize_trace.mb_per_s": "MB/s",
    "traceio.parse_trace.busy_s": "s",
    "traceio.parse_trace.mb_per_s": "MB/s",
    "traceio.save_trace.busy_s": "s",
    "sharing.build_decision_table.calls": "count",
    "sharing.build_decision_table.busy_s": "s",
    "sharing.build_decision_table.p50_ms": "ms",
    "sharing.triples": "count",
    "sharing.triples_per_s": "triples/s",
    "sharing.retained_ratio": "ratio",
    "sharing.decision_table_csv.busy_s": "s",
    "macsim.run_simulation.ss_off.busy_s": "s",
    "macsim.run_simulation.ss_on.busy_s": "s",
    "macsim.sim_s_per_busy_s.ss_off": "s/s",
    "macsim.sim_s_per_busy_s.ss_on": "s/s",
    "macsim.frames": "count",
    "macsim.host_us_per_frame": "us",
    "macsim.idle_frac": "ratio",
    "macsim.ss_engage_ratio": "ratio",
    "macsim.event_log_csv.busy_s": "s",
    "metrics.compare_runs.busy_s": "s",
    "metrics.asymmetry_distribution.busy_s": "s",
    "tonemap.expected_throughput.busy_s": "s",
    "tonemap.phy_rate.busy_s": "s",
    "routing.build_graph.busy_s": "s",
    "routing.best_route.calls": "count",
    "routing.best_route.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "layer.traceio.busy_frac": "ratio",
    "layer.sharing.busy_frac": "ratio",
    "layer.macsim.busy_frac": "ratio",
    "layer.metrics.busy_frac": "ratio",
    "layer.tonemap.busy_frac": "ratio",
    "layer.routing.busy_frac": "ratio",
    "layer.cli.busy_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans and counts when enabled; a disabled tracer only calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.counts = Counter()
        self._unit = None
        self._parent = -1

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        result = fn(*args, **kwargs)
        end = perf_counter()
        self.spans.append((name, start, end, self._unit, self._parent))
        return result

    def add(self, key, value):
        if self.enabled:
            self.counts[key] += value

    def begin_unit(self, unit_id):
        if self.enabled:
            self._unit = unit_id
            self._parent = len(self.spans)
            self.spans.append(["unit", perf_counter(), None, unit_id, -1])

    def end_unit(self):
        if self.enabled:
            self.spans[self._parent][2] = perf_counter()
            self.spans[self._parent] = tuple(self.spans[self._parent])
            self._unit, self._parent = None, -1

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, unit, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "unit": unit, "parent": parent}) + "\n")


def _div(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, untraced_pass_s, traced_pass_s) -> dict:
    """Per-layer values from the spans and counts of the traced units.

    busy_s and calls are per unit; rates are totals over totals. The pass
    times are the reference seconds per unit of the untraced and traced
    passes over the same inputs, for ``trace.overhead_frac``.
    """
    busy = defaultdict(float)
    calls = Counter()
    durations = defaultdict(list)
    unit_s = 0.0
    units = 0
    for name, start, end, _unit, _parent in tracer.spans:
        if name == "unit":
            unit_s += end - start
            units += 1
            continue
        busy[name] += end - start
        calls[name] += 1
        durations[name].append(end - start)
    c = tracer.counts
    table = "sharing.build_decision_table"
    sim_busy = busy["macsim.run_simulation.ss_off"] + busy["macsim.run_simulation.ss_on"]
    m = {}
    for name in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "busy_s":
            m[name] = _div(busy[head], units)
        elif tail == "calls":
            m[name] = _div(calls[head], units)
    m["traceio.generate_deployment.links_per_s"] = _div(
        c["links_generated"], busy["traceio.generate_deployment"])
    for fn in ("serialize_trace", "parse_trace"):
        m[f"traceio.{fn}.mb_per_s"] = _div(
            c[f"{fn}.bytes"] / 1e6, busy[f"traceio.{fn}"])
    m[f"{table}.p50_ms"] = (
        1e3 * statistics.median(durations[table]) if durations[table] else 0.0)
    m["sharing.triples"] = _div(c["triples"], units)
    m["sharing.triples_per_s"] = _div(c["triples"], busy[table])
    m["sharing.retained_ratio"] = _div(c["retained"], c["triples"])
    for mode in ("ss_off", "ss_on"):
        m[f"macsim.sim_s_per_busy_s.{mode}"] = _div(
            c[f"sim_us.{mode}"] / 1e6, busy[f"macsim.run_simulation.{mode}"])
    m["macsim.frames"] = _div(c["frames"], units)
    m["macsim.host_us_per_frame"] = _div(1e6 * sim_busy, c["frames"])
    m["macsim.idle_frac"] = _div(c["idle_us"], c["sim_us.ss_off"] + c["sim_us.ss_on"])
    m["macsim.ss_engage_ratio"] = _div(c["secondary_ss_on"], c["primary_ss_on"])
    layer_busy = Counter()
    for name, seconds in busy.items():
        layer_busy[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        m[f"layer.{layer}.busy_frac"] = _div(layer_busy[layer], unit_s)
    m["trace.coverage_frac"] = _div(sum(layer_busy.values()), unit_s)
    m["trace.overhead_frac"] = _div(
        statistics.median(traced_pass_s), statistics.median(untraced_pass_s)) - 1.0
    return m
