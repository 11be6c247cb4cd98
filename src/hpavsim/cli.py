"""Command-line front end: reproducible experiments emitting CSV.

Subcommands: generate, analyze, simulate, sweep, route. With --config, each
``key = value`` line of a flat file (keys in CONFIG_KEYS) is read as the flag
``--key=value`` placed before the command line's own flags: explicit flags
win, and a config value gets the flag's type check, choices and default. A
key the command has no flag for is skipped. The single ``seed`` value drives both the deployment generator (when
simulate or sweep gets no --trace) and the MAC simulation, so a command line
fully determines its outputs.

Exit codes: 0 success, 1 usage, 2 input parse/validation, 3 runtime failure.
"""

import argparse
import sys
from functools import lru_cache
from typing import List, Optional

from .macsim import MacParams, event_log_csv, normalized_throughput, run_simulation
from .metrics import compare_runs, fairness_csv, fairness_report, pair_asymmetries
from .routing import best_route, build_graph, route_csv
from .sharing import SSPolicy, build_decision_table, decision_table_csv
from .tonemap import (
    MAX_MODULATION_TOTAL,
    DirectedLink,
    PhyParams,
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


class _RuntimeFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    # Each option's dest is argparse's default for its flag, so config key
    # ``top_m`` is flag ``--top-m``.
    parser = _Parser(prog="hpavsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help):
        # a flag is taken only as spelled: no prefix of it stands in for it
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="key = value file, each line read as --key=value")
        return p

    def add_generator(p):
        p.add_argument("--nodes", type=int, help="number of nodes (>= 2)")
        p.add_argument("--profile", help="uniform | complementary | interference-notched | asymmetric")
        p.add_argument("--base-quality", type=float, default=6.0,
                       help="mean modulation level 0..10 (default %(default)s)")
        p.add_argument("--notch-count", type=int, default=0)
        p.add_argument("--notch-width", type=int, default=0)
        p.add_argument("--asymmetry-noise", type=int, default=0,
                       help="max per-subcarrier perturbation 0..10 (default %(default)s)")
        p.add_argument("--slots", type=int, default=5,
                       help="AC-cycle sub-intervals (default %(default)s)")
        p.add_argument("--seed", type=int, default=0, help="64-bit seed (default %(default)s)")

    def add_scenario(p):
        p.add_argument("--trace", help="PLCTM trace path (otherwise generate from flags)")
        add_generator(p)
        p.add_argument("--flows", help="saturated flows, e.g. n1>n3,n2>n4")
        p.add_argument("--duration-us", type=int, help="simulated time in integer microseconds")
        p.add_argument("--top-m", type=int, default=1,
                       help="candidates kept per link (default %(default)s)")
        p.add_argument("--max-share-fraction", type=float, default=1.0,
                       help="share cap in [0,1] (default %(default)s = off)")
        p.add_argument("--reeval-period-us", type=int,
                       help="full-spectrum re-evaluation period (default off)")

    g = add_command("generate", "write a synthetic PLCTM trace")
    add_generator(g)
    g.add_argument("--out", help="output trace path (required)")

    a = add_command("analyze", "per-link rates and asymmetry of a trace")
    a.add_argument("--trace", required=True, help="PLCTM trace path")
    a.add_argument("--out", help="per-link rate CSV path (stdout if omitted)")
    a.add_argument("--asym-out", help="asymmetry CSV path (stdout if omitted)")

    s = add_command("simulate", "run the MAC simulation once")
    add_scenario(s)
    s.add_argument("--ss", choices=("on", "off"), default="off",
                   help="spectrum sharing (default %(default)s)")
    s.add_argument("--beta", type=int, default=2,
                   help="sharing threshold in bits (default %(default)s)")
    s.add_argument("--out", help="per-link result CSV path (stdout if omitted)")
    s.add_argument("--fairness-out", help="fairness CSV path")
    s.add_argument("--events-out", help="event log CSV path")
    s.add_argument("--table-out", help="SS decision table CSV path (needs --ss on)")

    w = add_command("sweep", "compare SS against baseline across beta values")
    add_scenario(w)
    w.add_argument("--beta", help="comma-separated beta list, e.g. 2,4,6,8")
    w.add_argument("--out", help="sweep CSV path (stdout if omitted)")

    r = add_command("route", "best multi-hop route over a trace")
    r.add_argument("--trace", required=True, help="PLCTM trace path")
    r.add_argument("--src", required=True)
    r.add_argument("--dst", required=True)
    r.add_argument("--min-rate", type=float, default=0.0,
                   help="prune edges below this rate in bits/second")
    r.add_argument("--out", help="route CSV path (stdout if omitted)")

    return parser


# --------------------------------------------------------------------------
# config handling
# --------------------------------------------------------------------------


def _config_flags(path: str, args) -> List[str]:
    """The ``key = value`` lines of a config file as ``--key=value`` flags,
    skipping the keys that ``args``' command has no flag for."""
    argv = []
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
            if key in vars(args):
                argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


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


def _generate(args) -> Deployment:
    """The synthetic deployment the generator flags describe."""
    if args.nodes is None:
        raise _UsageError("a generator --nodes (or --trace) is required")
    if args.profile is None:
        raise _UsageError("a generator --profile (or --trace) is required")
    try:
        profile = GeneratorProfile(
            profile_kind=args.profile,
            base_quality=args.base_quality,
            notch_count=args.notch_count,
            notch_width=args.notch_width,
            asymmetry_noise=args.asymmetry_noise,
            seed=args.seed,
        )
        return generate_deployment(args.nodes, profile, args.slots)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.out is None:
        raise _UsageError("--out trace path is required")
    deployment = _generate(args)
    save_trace(deployment, args.out)
    for key in sorted(deployment.metadata):
        print(f"{key} {deployment.metadata[key]}")
    print(f"nodes {len(deployment.nodes)}")
    print(f"links {len(deployment.links)}")
    print(f"slots {deployment.slot_count}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    deployment = load_trace(args.trace)
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
    _write(args.out, "\n".join(lines) + "\n")

    asym_lines = ["node_a,node_b,asymmetry,normalized"]
    for a, b, value in pair_asymmetries(deployment):
        norm = float(value / MAX_MODULATION_TOTAL)
        asym_lines.append(f"{a},{b},{float(value)!r},{norm!r}")
    _write(args.asym_out, "\n".join(asym_lines) + "\n")
    return EXIT_OK


def _scenario(args):
    """The deployment, flows and MAC parameters of a simulate or sweep run."""
    deployment = load_trace(args.trace) if args.trace else _generate(args)
    if args.flows is None:
        raise _UsageError("--flows is required")
    flows = _parse_flows(args.flows)
    if args.duration_us is None or args.duration_us <= 0:
        raise _UsageError("--duration-us must be a positive integer")
    if args.reeval_period_us is not None and args.reeval_period_us <= 0:
        raise _UsageError("--reeval-period-us must be positive")
    return deployment, flows, MacParams(reeval_period_us=args.reeval_period_us)


def _ss_policy(args, beta: int) -> SSPolicy:
    try:
        return SSPolicy(beta=beta, top_m=args.top_m,
                        max_share_fraction=args.max_share_fraction)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _require_throughput(report, duration_us) -> None:
    """Fairness figures need some throughput; a run in which no frame
    succeeded, or none carried data, has none."""
    tallies = report.tallies.values()
    if not any(t.sf_total for t in tallies):
        what = ("no successful frame carried data" if any(t.successes for t in tallies)
                else "no frame succeeded")
        raise _RuntimeFailure(f"{what} in the {duration_us} us run; fairness is undefined")


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


def cmd_simulate(args) -> int:
    if args.table_out is not None and args.ss == "off":
        raise _UsageError("--table-out needs --ss on")
    deployment, flows, mac = _scenario(args)
    policy = _ss_policy(args, args.beta)
    table = build_decision_table(deployment, policy) if args.ss == "on" else None
    collect = args.events_out is not None
    report = run_simulation(
        deployment, table, mac, policy, flows, args.duration_us, args.seed,
        collect_events=collect,
    )
    _require_throughput(report, args.duration_us)
    # every text is built before any is written, so a failure writes nothing
    outputs = [
        (args.out, _link_results_csv(report, mac)),
        (args.fairness_out, fairness_csv(fairness_report(report, mac))),
    ]
    if collect:
        outputs.append((args.events_out, event_log_csv(report)))
    if args.table_out is not None:
        outputs.append((args.table_out, decision_table_csv(table)))
    for path, text in outputs:
        _write(path, text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    deployment, flows, mac = _scenario(args)
    if not args.beta:
        raise _UsageError("--beta list is required, e.g. 2,4,6,8")
    try:
        betas = [int(b) for b in args.beta.split(",") if b.strip() != ""]
    except ValueError:
        raise _UsageError(f"bad --beta list {args.beta!r}") from None
    if not betas:
        raise _UsageError("--beta list is empty")
    base = run_simulation(deployment, None, mac, None, flows, args.duration_us, args.seed)
    _require_throughput(base, args.duration_us)
    lines = ["beta,aggregate_gain_pct,jfi_delta,fsse_delta"]
    for beta in betas:
        p = _ss_policy(args, beta)
        ss = run_simulation(
            deployment, build_decision_table(deployment, p), mac, p, flows,
            args.duration_us, args.seed,
        )
        _require_throughput(ss, args.duration_us)
        gain = compare_runs(base, ss, mac)
        lines.append(
            f"{beta},{gain.aggregate_gain_pct!r},{gain.jfi_delta!r},{gain.fsse_delta!r}"
        )
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_route(args) -> int:
    if args.src == args.dst:
        raise _UsageError("--src and --dst must differ")
    deployment = load_trace(args.trace)
    graph = build_graph(deployment, PhyParams(), args.min_rate)
    for name in (args.src, args.dst):
        if name not in graph.nodes:
            raise ValueError(f"unknown node {name!r}")
    try:
        route = best_route(graph, args.src, args.dst)
    except ValueError as exc:
        # only unreachability is left once the endpoints are known nodes
        raise _RuntimeFailure(str(exc)) from None
    _write(args.out, route_csv(route))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # argv[0] is the command; the explicit flags come later and so win
            args = parser.parse_args(argv[:1] + _config_flags(args.config, args) + argv[1:])
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"hpavsim {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _RuntimeFailure as exc:
        print(f"hpavsim {args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
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
