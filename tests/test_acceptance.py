"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The spectrum-sharing trend criteria (3-5) share one corpus of runs:
ten seeded complementary 4-node deployments, ring-cross saturated flows,
1e6 us per run, beta swept over {2, 4, 6, 8}.
"""

import time
from fractions import Fraction

import pytest

from hpavsim import (
    DirectedLink,
    GeneratorProfile,
    MacParams,
    PhyParams,
    SSPolicy,
    Tonemap,
    asymmetry,
    best_route,
    build_decision_table,
    build_graph,
    compare_runs,
    expected_throughput,
    generate_deployment,
    normalized_throughput,
    parse_trace,
    phy_rate,
    run_simulation,
    serialize_trace,
)
from hpavsim import cli
from hpavsim.macsim import EVENT_TX_END_SUCCESS, EVENT_TX_START
from hpavsim.rng import SplitMix64
from hpavsim.tonemap import SUBCARRIER_COUNT

from conftest import (
    CORPUS_BETAS,
    CORPUS_DURATION_US,
    CORPUS_FLOWS,
    CORPUS_PROFILE_KW,
    CORPUS_SEEDS,
    CORPUS_TOP_M,
    brute_force_table,
    deployment_from_levels,
    spectrum_fraction,
    tables_equal,
)

MAC = MacParams()


def verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    """Base and SS runs for criteria 3-5, plus the wall time they cost."""
    t0 = time.perf_counter()
    rows = []
    for seed in CORPUS_SEEDS:
        deployment = generate_deployment(4, GeneratorProfile(seed=seed, **CORPUS_PROFILE_KW))
        base = run_simulation(
            deployment, None, MAC, None, list(CORPUS_FLOWS), CORPUS_DURATION_US, seed
        )
        gains = {}
        for beta in CORPUS_BETAS:
            policy = SSPolicy(beta=beta, top_m=CORPUS_TOP_M)
            table = build_decision_table(deployment, policy)
            ss = run_simulation(
                deployment, table, MAC, policy, list(CORPUS_FLOWS), CORPUS_DURATION_US, seed
            )
            gains[beta] = compare_runs(base, ss, MAC)
        rows.append((seed, gains))
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


def random_tonemap(rng, slot_count=5):
    # each slot is 917 successive randbelow(11) draws, taken as one byte run
    return Tonemap(
        tuple(rng.randbelow_bytes(11, SUBCARRIER_COUNT) for _ in range(slot_count))
    )


def test_criterion_1_formula_oracles():
    t0 = time.perf_counter()
    rng = SplitMix64(20240, 0)
    params = PhyParams()
    ok = True
    for _ in range(50):
        tmap = random_tonemap(rng)
        other = random_tonemap(rng)
        for k in range(1, 6):
            total = sum(tmap.slot(k))
            exact = Fraction(total) * params.fec_rate / Fraction(46, 10**6)
            ok &= abs(phy_rate(tmap, k, params) - float(exact)) <= 1e-9 * float(exact or 1)
        slot_rates = [
            float(Fraction(sum(tmap.slot(k))) * params.fec_rate / Fraction(46, 10**6))
            for k in range(1, 6)
        ]
        expected = 0.6 * sum(slot_rates) / 5
        ok &= abs(expected_throughput(tmap, params) - expected) <= 1e-9 * (expected or 1)
        brute_asym = Fraction(
            sum(
                abs(a - b)
                for sa, sb in zip(tmap.slots, other.slots)
                for a, b in zip(sa, sb)
            ),
            5,
        )
        ok &= asymmetry(tmap, other) == brute_asym
        # subcarrier j is active where the j-th of 917 randbelow(4) draws is 0
        draws = rng.randbelow_bytes(4, SUBCARRIER_COUNT)
        indices = [j for j, v in enumerate(draws, start=1) if v == 0]
        brute_sf = Fraction(sum(tmap.slot(3)[j - 1] for j in indices), 9170)
        ok &= spectrum_fraction(tmap, 3, indices) == brute_sf
    elapsed = time.perf_counter() - t0
    verdict(1, "formula oracles", ok and elapsed < 1.0, f"{elapsed:.2f}s < 1s, 50 maps")


def test_criterion_2_decision_table_enumeration():
    t0 = time.perf_counter()
    ok = True
    for seed in range(1, 21):
        deployment = generate_deployment(4, GeneratorProfile(seed=seed, **CORPUS_PROFILE_KW))
        for policy in (SSPolicy(beta=2, top_m=2), SSPolicy(beta=6, top_m=1)):
            table = build_decision_table(deployment, policy)
            ok &= tables_equal(table, brute_force_table(deployment, policy))
    elapsed = time.perf_counter() - t0
    verdict(2, "SS decisions vs exhaustive enumeration", ok and elapsed < 10.0,
            f"{elapsed:.2f}s < 10s, 20 seeds x 2 policies")


def test_criterion_3_beta_monotone_gain(corpus):
    ok = True
    for seed, gains in corpus["rows"]:
        series = [gains[b].aggregate_gain_pct for b in CORPUS_BETAS]
        ok &= all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
    elapsed = corpus["elapsed"]
    verdict(3, "aggregate gain non-increasing in beta", ok and elapsed < 120.0,
            f"corpus {elapsed:.1f}s < 120s, every seed")


def test_criterion_4_gain_regime(corpus):
    all_positive = all(
        gains[2].aggregate_gain_pct > 0 for _, gains in corpus["rows"]
    )
    strong_seed = any(
        gains[2].aggregate_gain_pct > 20.0
        and max(g.gain_pct for g in gains[2].per_link.values()) > 100.0
        for _, gains in corpus["rows"]
    )
    best = max(gains[2].aggregate_gain_pct for _, gains in corpus["rows"])
    verdict(4, "SS gain regime at beta=2", all_positive and strong_seed,
            f"all seeds positive, best aggregate {best:.1f}%")


def test_criterion_5_fairness_direction(corpus):
    n = len(corpus["rows"])
    jfi_means = [
        sum(gains[b].jfi_delta for _, gains in corpus["rows"]) / n for b in CORPUS_BETAS
    ]
    fsse_means = [
        sum(gains[b].fsse_delta for _, gains in corpus["rows"]) / n for b in CORPUS_BETAS
    ]
    ok = jfi_means[0] >= 0 and fsse_means[0] >= 0
    ok &= all(a >= b - 1e-12 for a, b in zip(jfi_means, jfi_means[1:]))
    ok &= all(a >= b - 1e-12 for a, b in zip(fsse_means, fsse_means[1:]))
    verdict(5, "fairness deltas >= 0 and non-increasing in beta", ok,
            f"jfi {['%.4f' % v for v in jfi_means]}, fsse {['%.2f' % v for v in fsse_means]}")


def test_criterion_6_contention_degradation():
    t0 = time.perf_counter()
    per_station = []
    for n in (2, 3, 4, 6, 8):
        deployment = generate_deployment(
            n, GeneratorProfile("uniform", base_quality=10, seed=5)
        )
        flows = [DirectedLink(f"n{i + 1}", f"n{(i + 1) % n + 1}") for i in range(n)]
        report = run_simulation(deployment, None, MAC, None, flows, 1_000_000, seed=5)
        per_station.append(
            sum(normalized_throughput(report, f, MAC) for f in flows) / n
        )
    elapsed = time.perf_counter() - t0
    ok = all(a > b for a, b in zip(per_station, per_station[1:]))
    verdict(6, "per-station throughput decreases with n", ok and elapsed < 60.0,
            f"{elapsed:.1f}s < 60s, {['%.2f' % v for v in per_station]}")


def test_criterion_7_mac_golden_trace():
    # hand-executed machine for one saturated flow, seed 42: the global
    # stream draws backoffs 1, 7, 5, 6, 7; each window is bc idle slots of
    # 35.84 us followed by a 2542.64 us transmission
    stream = SplitMix64(42, 0)
    draws = [stream.randbelow(8) for _ in range(5)]
    deployment = generate_deployment(2, GeneratorProfile("uniform", base_quality=10, seed=0))
    report = run_simulation(
        deployment, None, MAC, None, [DirectedLink("n1", "n2")], 15_000, seed=42,
        collect_events=True,
    )
    t = 0.0
    expected = []
    for bc in draws:
        for _ in range(bc):
            t += MAC.slot_duration_us
        expected.append((t, EVENT_TX_START))
        t += MAC.success_duration_us
        expected.append((t, EVENT_TX_END_SUCCESS))
    ok = draws == [1, 7, 5, 6, 7] and len(report.events) >= 10
    for event, (when, kind) in zip(report.events[:10], expected):
        ok &= event.time_us == when and event.event == kind
        ok &= event.stage == 0 and event.dc == 0
        if kind == EVENT_TX_END_SUCCESS:
            ok &= event.spectrum_fraction == 1.0
    verdict(7, "MAC golden trace, first 10 events", ok, "times, stages, counters exact")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    scenarios = {
        "generate": lambda d: [
            "generate", "--nodes", "4", "--profile", "complementary",
            "--base-quality", "6", "--asymmetry-noise", "2", "--seed", "7",
            "--out", str(d / "trace.plctm"),
        ],
        "analyze": lambda d: [
            "analyze", "--trace", str(d / "trace.plctm"),
            "--out", str(d / "links.csv"), "--asym-out", str(d / "asym.csv"),
        ],
        "simulate": lambda d: [
            "simulate", "--trace", str(d / "trace.plctm"),
            "--flows", "n1>n3,n3>n2,n2>n4,n4>n1", "--duration-us", "200000",
            "--seed", "3", "--ss", "on", "--beta", "2", "--top-m", "2",
            "--out", str(d / "thr.csv"), "--fairness-out", str(d / "fair.csv"),
            "--events-out", str(d / "events.csv"),
        ],
        "sweep": lambda d: [
            "sweep", "--trace", str(d / "trace.plctm"),
            "--flows", "n1>n3,n3>n2,n2>n4,n4>n1", "--duration-us", "200000",
            "--seed", "3", "--beta", "2,4,6,8", "--top-m", "2",
            "--out", str(d / "sweep.csv"),
        ],
        "route": lambda d: [
            "route", "--trace", str(d / "trace.plctm"), "--src", "n1",
            "--dst", "n2", "--out", str(d / "route.csv"),
        ],
    }
    ok = True
    details = []
    for name, build in scenarios.items():
        outputs = []
        for run_dir in (tmp_path / f"{name}-1", tmp_path / f"{name}-2"):
            run_dir.mkdir()
            if name != "generate":
                rc = cli.main(scenarios["generate"](run_dir))
                assert rc == 0
                capsys.readouterr()
            rc = cli.main(build(run_dir))
            stdout = capsys.readouterr().out
            assert rc == 0
            blob = stdout.encode()
            for path in sorted(run_dir.iterdir()):
                blob += path.name.encode() + path.read_bytes()
            outputs.append(blob)
        same = outputs[0] == outputs[1]
        ok &= same
        details.append(f"{name}:{'ok' if same else 'DIFFERS'}")
    verdict(8, "CLI byte-identical reruns", ok, " ".join(details))


def test_criterion_9_routing_inversion():
    deployment = deployment_from_levels(
        {
            ("n1", "n3"): 1, ("n3", "n1"): 1,
            ("n1", "n2"): 10, ("n2", "n1"): 10,
            ("n2", "n3"): 10, ("n3", "n2"): 10,
        }
    )
    params = PhyParams()
    graph = build_graph(deployment, params, 0.0)
    route = best_route(graph, "n1", "n3")
    direct = expected_throughput(deployment.links[DirectedLink("n1", "n3")], params)
    ratio = route.throughput_bps / direct
    ok = route.path == ("n1", "n2", "n3") and ratio >= 4.0
    verdict(9, "relay beats weak direct link", ok, f"ratio {ratio:.2f}x >= 4x")


def test_criterion_10_trace_round_trip():
    t0 = time.perf_counter()
    kinds = ("uniform", "complementary", "interference-notched", "asymmetric")
    ok = True
    count = 0
    for seed in range(25):
        for kind in kinds:
            profile = GeneratorProfile(
                kind, base_quality=6, notch_count=2, notch_width=30,
                asymmetry_noise=seed % 3, seed=seed,
            )
            deployment = generate_deployment(2 + seed % 3, profile)
            text = serialize_trace(deployment)
            parsed = parse_trace(text)
            ok &= parsed == deployment
            ok &= serialize_trace(parsed) == text
            count += 1
    elapsed = time.perf_counter() - t0
    verdict(10, "PLCTM round-trip byte-exact", ok and count == 100,
            f"{count} deployments, {elapsed:.1f}s")
