"""Command-line front end: reproducible experiments emitting CSV.

Subcommands: generate, analyze, simulate, sweep, route. Every value flag can
also come from a flat ``key = value`` config file via --config, with explicit
flags taking precedence. The single ``seed`` value drives both the deployment
generator (when no --trace is given) and the MAC simulation, so a command
line fully determines its outputs.

Exit codes: 0 success, 1 usage, 2 input parse/validation, 3 runtime failure.
"""

import argparse
import sys
from typing import Dict, List, Optional

from .macsim import MacParams, event_log_csv, normalized_throughput, run_simulation
from .metrics import compare_runs, fairness_csv, fairness_report
from .routing import best_route, build_graph, route_csv
from .sharing import SSPolicy, build_decision_table
from .tonemap import (
    MAX_MODULATION_TOTAL,
    DirectedLink,
    PhyParams,
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
    save_trace,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3

CONFIG_KEYS = (
    "nodes", "profile", "base_quality", "notch_count", "notch_width",
    "asymmetry_noise", "seed", "slots", "beta", "top_m", "max_share_fraction",
    "duration_us", "ss", "flows", "reeval_period_us", "out",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hpavsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="flat key=value file supplying any flag")

    def add_generator(p):
        p.add_argument("--nodes", type=int, help="number of nodes (>= 2)")
        p.add_argument("--profile", help="uniform | complementary | interference-notched | asymmetric")
        p.add_argument("--base-quality", dest="base_quality", type=float,
                       help="mean modulation level 0..10 (default 6)")
        p.add_argument("--notch-count", dest="notch_count", type=int)
        p.add_argument("--notch-width", dest="notch_width", type=int)
        p.add_argument("--asymmetry-noise", dest="asymmetry_noise", type=int)
        p.add_argument("--slots", type=int, help="AC-cycle sub-intervals (default 5)")
        p.add_argument("--seed", type=int, help="64-bit seed (default 0)")

    def add_scenario(p):
        p.add_argument("--trace", help="PLCTM trace path (otherwise generate from flags)")
        add_generator(p)
        p.add_argument("--flows", help="saturated flows, e.g. n1>n3,n2>n4")
        p.add_argument("--duration-us", dest="duration_us", type=int,
                       help="simulated time in integer microseconds")
        p.add_argument("--top-m", dest="top_m", type=int, help="candidates kept per link (default 1)")
        p.add_argument("--max-share-fraction", dest="max_share_fraction", type=float,
                       help="share cap in [0,1] (default 1.0 = off)")
        p.add_argument("--reeval-period-us", dest="reeval_period_us", type=int,
                       help="full-spectrum re-evaluation period (default off)")

    g = sub.add_parser("generate", help="write a synthetic PLCTM trace")
    add_config(g)
    add_generator(g)
    g.add_argument("--out", help="output trace path (required)")

    a = sub.add_parser("analyze", help="per-link rates and asymmetry of a trace")
    add_config(a)
    a.add_argument("--trace", help="PLCTM trace path")
    a.add_argument("--out", help="per-link rate CSV path (stdout if omitted)")
    a.add_argument("--asym-out", dest="asym_out", help="asymmetry CSV path (stdout if omitted)")

    s = sub.add_parser("simulate", help="run the MAC simulation once")
    add_config(s)
    add_scenario(s)
    s.add_argument("--ss", choices=("on", "off"), help="spectrum sharing (default off)")
    s.add_argument("--beta", type=int, help="sharing threshold in bits (default 2)")
    s.add_argument("--out", help="per-link result CSV path (stdout if omitted)")
    s.add_argument("--fairness-out", dest="fairness_out", help="fairness CSV path")
    s.add_argument("--events", action="store_true", help="also write the event log")
    s.add_argument("--events-out", dest="events_out", help="event log CSV path")

    w = sub.add_parser("sweep", help="compare SS against baseline across beta values")
    add_config(w)
    add_scenario(w)
    w.add_argument("--beta", help="comma-separated beta list, e.g. 2,4,6,8")
    w.add_argument("--out", help="sweep CSV path (stdout if omitted)")

    r = sub.add_parser("route", help="best multi-hop route over a trace")
    add_config(r)
    r.add_argument("--trace", help="PLCTM trace path")
    r.add_argument("--src", required=True)
    r.add_argument("--dst", required=True)
    r.add_argument("--min-rate", dest="min_rate", type=float, default=0.0,
                   help="prune edges below this rate in bits/second")
    r.add_argument("--out", help="route CSV path (stdout if omitted)")

    return parser


# --------------------------------------------------------------------------
# config handling
# --------------------------------------------------------------------------


def _read_config(path: str) -> Dict[str, str]:
    config: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise _UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            config[key] = value
    return config


def _pick(args, config: Dict[str, str], key: str, convert, default=None):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        try:
            return convert(config[key])
        except ValueError as exc:
            raise _UsageError(f"config key {key}: {exc}") from None
    return default


def _parse_flows(text: str) -> List[DirectedLink]:
    flows = []
    for part in text.split(","):
        ends = part.strip().split(">")
        if len(ends) != 2 or not ends[0] or not ends[1]:
            raise _UsageError(f"bad flow {part!r}, expected tx>rx")
        if ends[0] == ends[1]:
            raise _UsageError(f"flow endpoints must differ in {part!r}")
        flows.append(DirectedLink(ends[0], ends[1]))
    if not flows:
        raise _UsageError("empty flow list")
    return flows


def _resolve_profile(args, config) -> GeneratorProfile:
    kind = _pick(args, config, "profile", str)
    if kind is None:
        raise _UsageError("a generator --profile (or --trace) is required")
    try:
        return GeneratorProfile(
            profile_kind=kind,
            base_quality=_pick(args, config, "base_quality", float, 6.0),
            notch_count=_pick(args, config, "notch_count", int, 0),
            notch_width=_pick(args, config, "notch_width", int, 0),
            asymmetry_noise=_pick(args, config, "asymmetry_noise", int, 0),
            seed=_pick(args, config, "seed", int, 0),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _generate(args, config) -> Deployment:
    """The synthetic deployment the generator flags describe."""
    n_nodes = _pick(args, config, "nodes", int)
    if n_nodes is None:
        raise _UsageError("a generator --nodes (or --trace) is required")
    if n_nodes < 2:
        raise _UsageError("--nodes must be >= 2")
    profile = _resolve_profile(args, config)
    slots = _pick(args, config, "slots", int, 5)
    try:
        return generate_deployment(n_nodes, profile, slots)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _resolve_deployment(args, config) -> Deployment:
    trace = getattr(args, "trace", None)
    return load_trace(trace) if trace else _generate(args, config)


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_generate(args, config) -> int:
    deployment = _generate(args, config)
    out = _pick(args, config, "out", str)
    if out is None:
        raise _UsageError("--out trace path is required")
    save_trace(deployment, out)
    for key in sorted(deployment.metadata):
        print(f"{key} {deployment.metadata[key]}")
    print(f"nodes {len(deployment.nodes)}")
    print(f"links {len(deployment.links)}")
    print(f"slots {deployment.slot_count}")
    return EXIT_OK


def cmd_analyze(args, config) -> int:
    deployment = _resolve_deployment(args, config)
    params = PhyParams()
    slot_count = deployment.slot_count
    header = ["link_tx", "link_rx", "expected_throughput_bps"] + [
        f"phy_rate_slot_{k}_bps" for k in range(1, slot_count + 1)
    ]
    lines = [",".join(header)]
    for link in sorted(deployment.links):
        tmap = deployment.links[link]
        row = [link.tx, link.rx, str(round(expected_throughput(tmap, params)))]
        row += [str(round(phy_rate(tmap, k, params))) for k in range(1, slot_count + 1)]
        lines.append(",".join(row))
    _write(_pick(args, config, "out", str), "\n".join(lines) + "\n")

    pairs = sorted({tuple(sorted((l.tx, l.rx))) for l in deployment.links})
    asym_lines = ["node_a,node_b,asymmetry,normalized"]
    for a, b in pairs:
        value = asymmetry(deployment.links[DirectedLink(a, b)],
                          deployment.links[DirectedLink(b, a)])
        # the normalized column is metrics.asymmetry_distribution's expression
        norm = float(value / MAX_MODULATION_TOTAL)
        asym_lines.append(f"{a},{b},{float(value)!r},{norm!r}")
    _write(args.asym_out, "\n".join(asym_lines) + "\n")
    return EXIT_OK


def _scenario(args, config):
    deployment = _resolve_deployment(args, config)
    flows_text = _pick(args, config, "flows", str)
    if flows_text is None:
        raise _UsageError("--flows is required")
    flows = _parse_flows(flows_text)
    duration = _pick(args, config, "duration_us", int)
    if duration is None or duration <= 0:
        raise _UsageError("--duration-us must be a positive integer")
    seed = _pick(args, config, "seed", int, 0)
    reeval = _pick(args, config, "reeval_period_us", int)
    if reeval is not None and reeval <= 0:
        raise _UsageError("--reeval-period-us must be positive")
    mac = MacParams(reeval_period_us=reeval)
    top_m = _pick(args, config, "top_m", int, 1)
    share = _pick(args, config, "max_share_fraction", float, 1.0)
    return deployment, flows, duration, seed, mac, top_m, share


def _make_policy(beta: int, top_m: int, share: float) -> SSPolicy:
    try:
        return SSPolicy(beta=beta, top_m=top_m, max_share_fraction=share)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _link_results_csv(report, mac) -> str:
    lines = [
        "link_tx,link_rx,successes_primary,successes_secondary,collisions,"
        "sf_primary,sf_secondary,normalized_throughput"
    ]
    for link in sorted(report.tallies):
        t = report.tallies[link]
        thr = normalized_throughput(report, link, mac)
        lines.append(
            f"{link.tx},{link.rx},{t.successes_primary},{t.successes_secondary},"
            f"{t.collisions},{float(t.sf_primary)!r},{float(t.sf_secondary)!r},{thr!r}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args, config) -> int:
    deployment, flows, duration, seed, mac, top_m, share = _scenario(args, config)
    ss_mode = _pick(args, config, "ss", str, "off")
    if ss_mode not in ("on", "off"):
        raise _UsageError(f"--ss must be on or off, got {ss_mode!r}")
    policy = _make_policy(_pick(args, config, "beta", int, 2), top_m, share)
    table = build_decision_table(deployment, policy) if ss_mode == "on" else None
    collect = bool(args.events or args.events_out)
    report = run_simulation(
        deployment, table, mac, policy, flows, duration, seed, collect_events=collect
    )
    _write(_pick(args, config, "out", str), _link_results_csv(report, mac))
    _write(args.fairness_out, fairness_csv(fairness_report(report, mac)))
    if collect:
        _write(args.events_out, event_log_csv(report))
    return EXIT_OK


def cmd_sweep(args, config) -> int:
    deployment, flows, duration, seed, mac, top_m, share = _scenario(args, config)
    beta_text = _pick(args, config, "beta", str)
    if not beta_text:
        raise _UsageError("--beta list is required, e.g. 2,4,6,8")
    try:
        betas = [int(b) for b in beta_text.split(",") if b.strip() != ""]
    except ValueError:
        raise _UsageError(f"bad --beta list {beta_text!r}") from None
    if not betas:
        raise _UsageError("--beta list is empty")
    base = run_simulation(deployment, None, mac, None, flows, duration, seed)
    lines = ["beta,aggregate_gain_pct,jfi_delta,fsse_delta"]
    for beta in betas:
        p = _make_policy(beta, top_m, share)
        ss = run_simulation(
            deployment, build_decision_table(deployment, p), mac, p, flows,
            duration, seed,
        )
        gain = compare_runs(base, ss, mac)
        lines.append(
            f"{beta},{gain.aggregate_gain_pct!r},{gain.jfi_delta!r},{gain.fsse_delta!r}"
        )
    _write(_pick(args, config, "out", str), "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_route(args, config) -> int:
    if args.src == args.dst:
        raise _UsageError("--src and --dst must differ")
    deployment = _resolve_deployment(args, config)
    graph = build_graph(deployment, PhyParams(), args.min_rate)
    for name in (args.src, args.dst):
        if name not in graph.nodes:
            raise ValueError(f"unknown node {name!r}")
    try:
        route = best_route(graph, args.src, args.dst)
    except ValueError as exc:
        # only unreachability is left once the endpoints are known nodes
        print(f"hpavsim route: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _write(_pick(args, config, "out", str), route_csv(route, args.src, args.dst))
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "route": cmd_route,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config) if getattr(args, "config", None) else {}
        return _COMMANDS[args.command](args, config)
    except _UsageError as exc:
        print(f"hpavsim {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceFormatError as exc:
        print(f"hpavsim {args.command}: bad trace: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"hpavsim {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"hpavsim {args.command}: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"hpavsim {args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
