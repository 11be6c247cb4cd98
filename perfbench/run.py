"""hpavsim benchmark: seeded, trace-driven workloads timed end to end and per layer.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload ss_sweep --seed 1608 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes over the same inputs and reports the
per-layer metrics derived from the spans. ``--workload all`` runs every
workload, untraced then traced, each in its own process so that peak RSS is
per workload, and prints one table. ``--smoke`` does that at tiny size and
checks the output against BENCHMARK.json. ``--record-golden`` prints the
output digests of the default and held-out seeds for ``golden.json``.

The benchmark is one process with one thread and a closed loop: each call
into hpavsim starts after the previous one returned. End-to-end times are in
reference seconds (see ``hostspeed``); wall seconds go to the run stamp.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from time import perf_counter

from hostspeed import SpeedSampler
from spans import PER_LAYER, Tracer, per_layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
GOLDEN = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 1608
HELD_OUT_SEED = 6574
SETUP_REPEATS = 3
MODULES = ("traceio", "sharing", "macsim", "metrics", "tonemap", "routing", "cli")

# unit of every end-to-end metric, in BENCHMARK.json order
END_TO_END = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MiB"}


def import_lib():
    """Import hpavsim afresh, so every set-up repeat pays for the imports."""
    for name in [m for m in sys.modules if m == "hpavsim" or m.startswith("hpavsim.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"hpavsim.{m}") for m in MODULES})


def read_loadavg() -> float:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return float(fh.read().split()[0])


def run_stamp() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu_model": cpu,
            "nproc": len(os.sched_getaffinity(0))}


def load_golden(name, seed, size):
    if size != "full" or not os.path.exists(GOLDEN):
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def report_failure(unit_id, what):
    print(f"perfbench: unit {unit_id} failed: {what}", file=sys.stderr)


def measure(name, seed, seconds, trace, size):
    """Set up, run whole rounds for up to ``seconds`` (at least one), check every unit."""
    golden = load_golden(name, seed, size)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as work_dir, \
            SpeedSampler() as speed:
        workload = WORKLOADS[name](size, work_dir)
        setup_wall_s, setup_s = [], []
        for _ in range(SETUP_REPEATS):
            mark, t0 = speed.mark(), perf_counter()
            lib = import_lib()
            items = workload.setup(lib, seed)
            setup_wall_s.append(perf_counter() - t0)
            setup_s.append(speed.scaled(setup_wall_s[-1], mark))

        tracers = [Tracer(False)] + ([Tracer(True)] if trace else [])
        # per pass: mean seconds per unit, wall and in reference seconds
        pass_wall_s = {False: [], True: []}
        pass_s = {False: [], True: []}
        first_digests = {}
        attempted = failed = unit_id = rounds = 0
        start = perf_counter()
        while True:
            # traced and untraced passes take turns going first
            tracers.reverse()
            for tr in tracers:
                wall_s, ref_s = [], []
                for k, item in enumerate(items):
                    attempted += 1
                    unit_id += 1
                    tr.begin_unit(unit_id)
                    mark, t0 = speed.mark(), perf_counter()
                    try:
                        out = workload.unit(lib, tr, item)
                    except Exception:  # a failed unit is counted, the run goes on
                        out = None
                        problems = [traceback.format_exc()]
                    wall_s.append(perf_counter() - t0)
                    ref_s.append(speed.scaled(wall_s[-1], mark))
                    tr.end_unit()
                    if out is not None:
                        problems = check_unit(workload, lib, k, item, out, golden,
                                              first_digests)
                        del out  # the next unit starts without this one's outputs alive
                    if problems:
                        failed += 1
                        report_failure(unit_id, "; ".join(problems[:5]))
                pass_wall_s[tr.enabled].append(statistics.mean(wall_s))
                pass_s[tr.enabled].append(statistics.mean(ref_s))
            rounds += 1
            elapsed = perf_counter() - start
            # stop before a round that would end past the time budget
            if elapsed + elapsed / rounds > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        traced = next(tr for tr in tracers if tr.enabled)
        values = per_layer_metrics(traced, pass_s[False], pass_s[True])
        units = PER_LAYER
        traced.write(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl"))
    else:
        values = {"setup_s": statistics.median(setup_s),
                  "work_s": statistics.median(pass_s[False]),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    samples = {"probe_median_s": statistics.median(speed.samples),
               "setup_wall_s": setup_wall_s, "setup_s": setup_s,
               "untraced_pass_wall_s": pass_wall_s[False], "untraced_pass_s": pass_s[False],
               "traced_pass_wall_s": pass_wall_s[True], "traced_pass_s": pass_s[True]}
    return result, samples


def check_unit(workload, lib, k, item, out, golden, first_digests):
    try:
        digests, problems = workload.check(lib, item, out)
    except Exception:
        return [traceback.format_exc()]
    if first_digests.setdefault(k, digests) != digests:
        problems.append(f"pool item {k} gave different outputs on a repeat")
    if golden is not None and golden[k] != digests:
        bad = sorted(key for key in digests if golden[k].get(key) != digests[key])
        problems.append(f"pool item {k}: outputs differ from golden.json in {bad}")
    return problems


def run_one(args):
    size = "tiny" if args.tiny else "full"
    stamp = run_stamp()
    stamp["loadavg_1m_before"] = read_loadavg()
    result, samples = measure(args.workload, args.seed, args.seconds, args.trace, size)
    stamp["loadavg_1m_after"] = read_loadavg()
    stamp.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, size=size, samples=samples)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"ratio ({result['failed']}/{result['attempted']})")
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "result": result}, fh, indent=1)
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, tiny):
    """Each workload untraced then traced, one child process at a time."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            if tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {name} --trace {trace} exited "
                                 f"{proc.returncode}")
            results[(name, trace)] = json.loads(lines[-1])
    for (name, trace), r in results.items():
        for metric, m in r["metrics"].items():
            print(f"{name:18} {metric:42} {m['value']:14.6g} {m['unit']}")
        if trace == 0:
            print(f"{name:18} {'failed_frac':42} {r['failed'] / r['attempted']:14.6g} ratio")
    return results


def smoke(seed):
    """Tiny-size run of every workload, checked against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    results = run_all(seed, 0, tiny=True)
    problems = []
    for (name, trace), r in results.items():
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        if set(r) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{name}/{trace}: result keys {sorted(r)}")
        if r["failed"] != 0 or not r["correct"]:
            problems.append(f"{name}/{trace}: failed_frac {r['failed']}/{r['attempted']}")
        for m in wanted:
            got = r["metrics"].get(m["name"])
            if got is None or got.get("unit") != m["unit"]:
                problems.append(f"{name}/{trace}: {m['name']} missing or wrong unit {got}")
            elif not trace and not got["value"] > 0:
                problems.append(f"{name}/{trace}: end-to-end {m['name']} is not positive")
        extra = set(r["metrics"]) - {m["name"] for m in wanted}
        if extra:
            problems.append(f"{name}/{trace}: metrics not in BENCHMARK.json {sorted(extra)}")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def record_golden():
    """Output digests of every pool item at the default and held-out seeds."""
    golden = {}
    lib = import_lib()
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as work_dir:
            workload = cls("full", work_dir)
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                entries = []
                for item in workload.setup(lib, seed):
                    out = workload.unit(lib, Tracer(False), item)
                    digests, problems = workload.check(lib, item, out)
                    if problems:
                        raise SystemExit(f"perfbench: {name} seed {seed}: {problems}")
                    entries.append(digests)
                golden.setdefault(name, {})[str(seed)] = entries
    print(json.dumps(golden, indent=1, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure whole rounds for up to this many seconds "
                             "(at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "hpavsim")):
        print(f"perfbench: no hpavsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.smoke:
        return smoke(args.seed)
    if args.record_golden:
        return record_golden()
    if args.workload == "all":
        results = run_all(args.seed, args.seconds, args.tiny)
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for (name, _), r in results.items()
                        for metric, m in r["metrics"].items()},
        }))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
