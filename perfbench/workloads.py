"""The benchmark's three trace-driven workloads.

Each workload has a ``setup`` that builds a small pool of inputs from the
workload seed, a ``unit`` that is the timed body for one pool item, and a
``check`` that verifies the unit's outputs untimed. A round of the benchmark
is one pass over the pool, so every round does the same work.

All calls into hpavsim go through ``tr.call`` with the span name
``<module>.<function>``; ``lib`` is the freshly imported package, passed in so
that the imports themselves are part of the measured set-up.
"""

import hashlib
import math
import os

SWEEP_FLOWS = (("n1", "n3"), ("n3", "n2"), ("n2", "n4"), ("n4", "n1"))
SWEEP_BETAS = (2, 4, 6, 8)
TOP_M = 2
NOTCHES = {"notch_count": 4, "notch_width": 40}


def derive(seed, *parts) -> int:
    """32-bit generator or simulation seed for one purpose of one workload seed."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# helpers shared by the workloads
# --------------------------------------------------------------------------


def _parse(lib, tr, text):
    tr.add("parse_trace.bytes", len(text))
    return tr.call("traceio.parse_trace", lib.traceio.parse_trace, text)


def _serialize(lib, tr, deployment):
    text = tr.call("traceio.serialize_trace", lib.traceio.serialize_trace, deployment)
    tr.add("serialize_trace.bytes", len(text))
    return text


def _generate(lib, tr, n_nodes, profile):
    tr.add("links_generated", n_nodes * (n_nodes - 1))
    return tr.call("traceio.generate_deployment", lib.traceio.generate_deployment,
                   n_nodes, profile)


def _table(lib, tr, deployment, policy):
    table = tr.call("sharing.build_decision_table", lib.sharing.build_decision_table,
                    deployment, policy)
    n = len(deployment.nodes)
    # node-disjoint (primary, secondary, slot) triples the coordinator evaluates
    tr.add("triples", n * (n - 1) * (n - 2) * (n - 3) * deployment.slot_count)
    tr.add("retained", sum(len(allocs) for allocs in table.entries.values()))
    return table


def _simulate(lib, tr, deployment, table, mac, policy, flows, duration_us, seed,
              collect_events=False):
    mode = "ss_off" if table is None else "ss_on"
    report = tr.call(f"macsim.run_simulation.{mode}", lib.macsim.run_simulation,
                     deployment, table, mac, policy, flows, duration_us, seed,
                     collect_events=collect_events)
    tallies = report.tallies.values()
    tr.add(f"sim_us.{mode}", report.total_sim_time_us)
    tr.add("idle_us", report.idle_us)
    tr.add("frames", sum(t.successes_primary + t.successes_secondary + t.collisions
                         for t in tallies))
    if table is not None:
        tr.add("primary_ss_on", sum(t.successes_primary for t in tallies))
        tr.add("secondary_ss_on", sum(t.successes_secondary for t in tallies))
    return report


def _roundtrip_problems(lib, text, deployment):
    if lib.traceio.serialize_trace(deployment) != text:
        return ["re-serialized trace differs from its source text"]
    return []


def _time_problems(report):
    if not math.isclose(report.idle_us + report.busy_us, report.total_sim_time_us,
                        rel_tol=1e-9):
        return [f"idle {report.idle_us!r} + busy {report.busy_us!r} != total "
                f"{report.total_sim_time_us!r}"]
    return []


def _table_problems(table, policy):
    problems = []
    cap = policy.max_share_fraction * 917
    for (primary, slot), allocs in table.entries.items():
        if len(allocs) > policy.top_m:
            problems.append(f"{primary} slot {slot}: {len(allocs)} > top_m candidates")
        for rank, alloc in enumerate(allocs, start=1):
            ends = {primary.tx, primary.rx}
            if alloc.primary != primary or alloc.slot != slot:
                problems.append(f"{primary} slot {slot}: allocation filed under wrong key")
            if {alloc.secondary.tx, alloc.secondary.rx} & ends:
                problems.append(f"{primary} slot {slot}: secondary {alloc.secondary} "
                                "shares a node")
            if alloc.gain <= 0:
                problems.append(f"{primary} slot {slot}: gain {alloc.gain} <= 0")
            if alloc.rank != rank:
                problems.append(f"{primary} slot {slot}: rank {alloc.rank} at {rank}")
            if len(alloc.shared_indices) > cap:
                problems.append(f"{primary} slot {slot}: share cap exceeded")
    return problems


def _tallies_text(lib, report, mac):
    lines = [f"{report.total_sim_time_us!r},{report.idle_us!r},{report.busy_us!r}"]
    for link in sorted(report.tallies):
        t = report.tallies[link]
        thr = lib.macsim.normalized_throughput(report, link, mac)
        lines.append(f"{link.tx},{link.rx},{t.successes_primary},{t.successes_secondary},"
                     f"{t.collisions},{float(t.sf_primary)!r},{float(t.sf_secondary)!r},"
                     f"{thr!r}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# ss_sweep: the paper's beta-sweep study on 4-node complementary traces
# --------------------------------------------------------------------------


class SsSweep:
    name = "ss_sweep"
    pool = 2

    def __init__(self, size, work_dir):
        self.duration_us = 10_000_000 if size == "full" else 200_000

    def setup(self, lib, seed):
        items = []
        for k in range(self.pool):
            profile = lib.traceio.GeneratorProfile(
                "complementary", base_quality=6, asymmetry_noise=2,
                seed=derive(seed, self.name, k, "trace"))
            deployment = lib.traceio.generate_deployment(4, profile)
            items.append({"text": lib.traceio.serialize_trace(deployment),
                          "sim_seed": derive(seed, self.name, k, "sim")})
        return items

    def unit(self, lib, tr, item):
        deployment = _parse(lib, tr, item["text"])
        flows = [lib.tonemap.DirectedLink(*f) for f in SWEEP_FLOWS]
        mac = lib.macsim.MacParams()
        args = (flows, self.duration_us, item["sim_seed"])
        base = _simulate(lib, tr, deployment, None, mac, None, *args)
        rows, runs, tables = [], [], []
        for beta in SWEEP_BETAS:
            policy = lib.sharing.SSPolicy(beta=beta, top_m=TOP_M)
            table = _table(lib, tr, deployment, policy)
            ss = _simulate(lib, tr, deployment, table, mac, policy, *args)
            gain = tr.call("metrics.compare_runs", lib.metrics.compare_runs, base, ss, mac)
            rows.append(f"{beta},{gain.aggregate_gain_pct!r},{gain.jfi_delta!r},"
                        f"{gain.fsse_delta!r}")
            runs.append(ss)
            tables.append((table, policy))
        table, policy = tables[0]
        events = _simulate(lib, tr, deployment, table, mac, policy, *args,
                           collect_events=True)
        events_csv = tr.call("macsim.event_log_csv", lib.macsim.event_log_csv, events)
        return {"deployment": deployment, "mac": mac, "base": base, "runs": runs,
                "tables": tables, "rows": rows, "events": events,
                "events_csv": events_csv}

    def check(self, lib, item, out):
        problems = _roundtrip_problems(lib, item["text"], out["deployment"])
        reports = [out["base"]] + out["runs"] + [out["events"]]
        for report in reports:
            problems += _time_problems(report)
        for table, policy in out["tables"]:
            problems += _table_problems(table, policy)
        if out["events"].tallies != out["runs"][0].tallies:
            problems.append("the event-collecting run's tallies differ from beta=2")
        digests = {
            "trace": digest(item["text"]),
            "sweep": digest("\n".join(out["rows"])),
            "tallies": digest("\n".join(_tallies_text(lib, r, out["mac"]) for r in reports)),
            "events": digest(out["events_csv"]),
        }
        return digests, problems


# --------------------------------------------------------------------------
# coordinator_scale: the SS coordinator on 8-node traces
# --------------------------------------------------------------------------


class CoordinatorScale:
    name = "coordinator_scale"
    kinds = (("complementary", {}), ("interference-notched", NOTCHES))  # one per item
    pool = len(kinds)
    reeval_period_us = 100_000

    def __init__(self, size, work_dir):
        self.nodes = 8 if size == "full" else 5
        self.duration_us = 2_000_000 if size == "full" else 200_000

    def setup(self, lib, seed):
        items = []
        for k, (kind, knobs) in enumerate(self.kinds):
            profile = lib.traceio.GeneratorProfile(
                kind, base_quality=6, asymmetry_noise=2,
                seed=derive(seed, self.name, k, "trace"), **knobs)
            deployment = lib.traceio.generate_deployment(self.nodes, profile)
            items.append({"text": lib.traceio.serialize_trace(deployment),
                          "sim_seed": derive(seed, self.name, k, "sim")})
        return items

    def unit(self, lib, tr, item):
        deployment = _parse(lib, tr, item["text"])
        policies = [lib.sharing.SSPolicy(beta=2, top_m=TOP_M),
                    lib.sharing.SSPolicy(beta=6, top_m=TOP_M),
                    lib.sharing.SSPolicy(beta=2, top_m=TOP_M, max_share_fraction=0.5)]
        tables, csvs = [], []
        for policy in policies:
            table = _table(lib, tr, deployment, policy)
            csvs.append(tr.call("sharing.decision_table_csv",
                                lib.sharing.decision_table_csv, table))
            tables.append((table, policy))
        n = len(deployment.nodes)
        ring = [lib.tonemap.DirectedLink(f"n{i}", f"n{i % n + 1}") for i in range(1, n + 1)]
        mac = lib.macsim.MacParams(reeval_period_us=self.reeval_period_us)
        table, policy = tables[0]
        report = _simulate(lib, tr, deployment, table, mac, policy, ring,
                           self.duration_us, item["sim_seed"])
        return {"deployment": deployment, "tables": tables, "csvs": csvs,
                "mac": mac, "report": report}

    def check(self, lib, item, out):
        problems = _roundtrip_problems(lib, item["text"], out["deployment"])
        problems += _time_problems(out["report"])
        for table, policy in out["tables"]:
            problems += _table_problems(table, policy)
        digests = {
            "trace": digest(item["text"]),
            "tables": digest("".join(out["csvs"])),
            "tallies": digest(_tallies_text(lib, out["report"], out["mac"])),
        }
        return digests, problems


# --------------------------------------------------------------------------
# trace_io: traces generated, written, read back and analysed; no MAC
# --------------------------------------------------------------------------


class TraceIo:
    name = "trace_io"
    pool = 2
    profiles = (
        ("uniform", {}),
        ("complementary", {"asymmetry_noise": 2}),
        ("interference-notched", dict(NOTCHES, asymmetry_noise=1)),
        ("asymmetric", {}),
    )

    def __init__(self, size, work_dir):
        self.nodes = 6 if size == "full" else 4
        self.work_dir = work_dir

    def setup(self, lib, seed):
        return [{"seeds": [derive(seed, self.name, k, kind)
                           for kind, _ in self.profiles],
                 "slot": k} for k in range(self.pool)]

    def unit(self, lib, tr, item):
        params = lib.tonemap.PhyParams()
        results = []
        for (kind, knobs), gen_seed in zip(self.profiles, item["seeds"]):
            profile = lib.traceio.GeneratorProfile(kind, base_quality=6, seed=gen_seed,
                                                   **knobs)
            original = _generate(lib, tr, self.nodes, profile)
            text = _serialize(lib, tr, original)
            deployment = _parse(lib, tr, text)
            analysis = []
            for link in sorted(deployment.links):
                tmap = deployment.links[link]
                analysis.append(tr.call("tonemap.expected_throughput",
                                        lib.tonemap.expected_throughput, tmap, params))
                analysis.extend(tr.call("tonemap.phy_rate", lib.tonemap.phy_rate,
                                        tmap, k, params)
                                for k in range(1, tmap.slot_count + 1))
            analysis.extend(tr.call("metrics.asymmetry_distribution",
                                    lib.metrics.asymmetry_distribution, deployment))
            graph = tr.call("routing.build_graph", lib.routing.build_graph,
                            deployment, params)
            routes = [tr.call("routing.best_route", lib.routing.best_route, graph, a, b)
                      for a in deployment.nodes for b in deployment.nodes if a != b]
            base = os.path.join(self.work_dir, f"{item['slot']}-{kind}")
            tr.call("traceio.save_trace", lib.traceio.save_trace, deployment,
                    base + ".plctm")
            codes = [
                tr.call("cli.main", lib.cli.main,
                        ["analyze", "--trace", base + ".plctm", "--out", base + ".links.csv",
                         "--asym-out", base + ".asym.csv"]),
                tr.call("cli.main", lib.cli.main,
                        ["route", "--trace", base + ".plctm", "--src", "n1",
                         "--dst", f"n{self.nodes}", "--out", base + ".route.csv"]),
            ]
            results.append({"original": original, "text": text, "deployment": deployment,
                            "analysis": analysis, "routes": routes, "codes": codes,
                            "base": base})
        return results

    def check(self, lib, item, out):
        problems = []
        traces, analyses, cli_outputs = [], [], []
        for r in out:
            if r["deployment"] != r["original"]:
                problems.append(f"{r['base']}: parsed trace differs from the original")
            problems += _roundtrip_problems(lib, r["text"], r["deployment"])
            if r["codes"] != [0, 0]:
                problems.append(f"{r['base']}: cli exit codes {r['codes']}")
            traces.append(r["text"])
            analyses.append(repr(r["analysis"]))
            analyses.append(repr([(x.path, x.throughput_bps) for x in r["routes"]]))
            for suffix in (".links.csv", ".asym.csv", ".route.csv"):
                with open(r["base"] + suffix, encoding="utf-8") as fh:
                    cli_outputs.append(fh.read())
        digests = {
            "traces": digest("".join(traces)),
            "analysis": digest("\n".join(analyses)),
            "cli": digest("".join(cli_outputs)),
        }
        return digests, problems


WORKLOADS = {w.name: w for w in (SsSweep, CoordinatorScale, TraceIo)}
