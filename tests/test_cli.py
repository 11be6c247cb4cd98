import glob
import os
import stat
import subprocess
import sys

import pytest

from hpavsim import (
    Deployment, DirectedLink, MacParams, SSPolicy, build_decision_table, cli, compare_runs,
    fairness_report, load_trace, run_simulation, save_trace,
)
from hpavsim.metrics import fairness_csv
from hpavsim.sharing import decision_table_csv
from hpavsim.tonemap import SUBCARRIER_COUNT

from conftest import deployment_from_levels

FLOWS = "n1>n3,n3>n2,n2>n4,n4>n1"


def run(args):
    return cli.main(args)


def run_process(args, stdout_path=None):
    """The stdout bytes of ``hpavsim args`` run in a fresh interpreter whose
    stdout is a pipe or, given ``stdout_path``, that file."""
    # the fresh interpreter imports the package these tests import
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = [sys.executable, "-m", "hpavsim.cli", *args]
    if stdout_path is None:
        return subprocess.run(argv, stdout=subprocess.PIPE, env=env, check=True,
                              timeout=60).stdout
    with open(stdout_path, "wb") as fh:
        subprocess.run(argv, stdout=fh, env=env, check=True, timeout=60)
    return stdout_path.read_bytes()


def gen_args(out, profile="complementary", seed="7", extra=()):
    return [
        "generate", "--nodes", "4", "--profile", profile, "--base-quality", "6",
        "--asymmetry-noise", "2", "--seed", seed, "--out", str(out), *extra,
    ]


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "d.plctm"
    assert run(gen_args(path)) == 0
    return path


class TestGenerate:
    def test_output_parses_and_summarizes(self, tmp_path, capsys):
        path = tmp_path / "d.plctm"
        assert run(gen_args(path)) == 0
        out = capsys.readouterr().out
        assert "profile complementary" in out and "links 12" in out
        dep = load_trace(path)
        assert len(dep.links) == 12

    def test_single_node_usage_error(self, tmp_path, capsys):
        rc = run(["generate", "--nodes", "1", "--profile", "uniform",
                  "--out", str(tmp_path / "x.plctm")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a.plctm", tmp_path / "b.plctm"
        assert run(gen_args(a)) == 0
        assert run(gen_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_usage_error(self, capsys):
        # stdout carries the metadata summary, so the trace needs a path
        rc = run(["generate", "--nodes", "2", "--profile", "uniform"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "hpavsim generate: error: --out trace path is required\n"

    def test_missing_out_checked_before_generating(self, monkeypatch, capsys):
        def generate_deployment(*args):
            raise AssertionError("generated a deployment with no --out to write it to")

        monkeypatch.setattr(cli, "generate_deployment", generate_deployment)
        rc = run(["generate", "--nodes", "12", "--profile", "complementary",
                  "--asymmetry-noise", "2"])
        assert rc == 1
        assert capsys.readouterr().err == "hpavsim generate: error: --out trace path is required\n"

    def test_out_help_says_required(self, capsys):
        with pytest.raises(SystemExit):
            run(["generate", "--help"])
        help_text = capsys.readouterr().out
        assert "output trace path (required)" in help_text
        assert "stdout" not in help_text

    def test_notch_and_slot_flags(self, tmp_path, capsys):
        path = tmp_path / "n.plctm"
        assert run(["generate", "--nodes", "3", "--profile", "interference-notched",
                    "--notch-count", "2", "--notch-width", "10", "--slots", "2",
                    "--seed", "5", "--out", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert {"notch_count 2", "notch_width 10", "slots 2"} <= set(lines)
        dep = load_trace(path)
        assert dep.slot_count == 2
        # two zeroed bands of ten subcarriers in every slot, base level elsewhere
        for tmap in dep.links.values():
            for slot in tmap.slots:
                assert slot.count(0) == 20 and slot.count(6) == SUBCARRIER_COUNT - 20
                assert all(len(band) % 10 == 0 for band in slot.split(b"\x06") if band)

    def test_noise_above_ladder_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.plctm"
        rc = run(["generate", "--nodes", "2", "--profile", "uniform",
                  "--asymmetry-noise", "11", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "hpavsim generate: error: asymmetry_noise must be in 0..10\n"
        assert not out.exists()

    def test_summary_in_key_order_however_metadata_is_inserted(self, tmp_path, monkeypatch,
                                                               capsys):
        path = tmp_path / "d.plctm"
        assert run(gen_args(path)) == 0
        expected = (capsys.readouterr().out, path.read_bytes())
        generate = cli.generate_deployment

        def backwards(*args):
            dep = generate(*args)
            return Deployment(dep.nodes, dep.links, dict(reversed(dep.metadata.items())))

        monkeypatch.setattr(cli, "generate_deployment", backwards)
        assert run(gen_args(path)) == 0
        assert (capsys.readouterr().out, path.read_bytes()) == expected
        summary = expected[0].splitlines()
        assert summary[:8] == sorted(summary[:8])
        assert summary[8:] == ["nodes 4", "links 12", "slots 5"]

    def test_noise_help_gives_range(self, capsys):
        with pytest.raises(SystemExit):
            run(["generate", "--help"])
        assert "perturbation 0..10" in capsys.readouterr().out

    def test_invalid_profile_usage_error(self, tmp_path):
        rc = run(["generate", "--nodes", "2", "--profile", "nope",
                  "--out", str(tmp_path / "x.plctm")])
        assert rc == 1


class TestAnalyze:
    def test_symmetric_trace_zero_asymmetry(self, tmp_path):
        path = tmp_path / "u.plctm"
        save_trace(deployment_from_levels({("n1", "n2"): 10, ("n2", "n1"): 10}), path)
        links_out = tmp_path / "links.csv"
        asym_out = tmp_path / "asym.csv"
        assert run(["analyze", "--trace", str(path), "--out", str(links_out),
                    "--asym-out", str(asym_out)]) == 0
        rows = asym_out.read_text().splitlines()[1:]
        assert all(row.split(",")[3] == "0.0" for row in rows)

    def test_full_modulation_rate_column(self, tmp_path):
        path = tmp_path / "u.plctm"
        save_trace(deployment_from_levels({("n1", "n2"): 10, ("n2", "n1"): 10}), path)
        links_out = tmp_path / "links.csv"
        assert run(["analyze", "--trace", str(path), "--out", str(links_out),
                    "--asym-out", str(tmp_path / "a.csv")]) == 0
        header, first = links_out.read_text().splitlines()[:2]
        assert header.split(",")[3] == "phy_rate_slot_1_bps"
        assert first.split(",")[3] == "151884058"

    def test_failure_writes_no_output(self, trace_path, tmp_path, monkeypatch, capsys):
        # the rate CSV is built before the asymmetry step fails, and is not
        # written either
        def fail(deployment):
            raise ValueError("no asymmetry")

        monkeypatch.setattr(cli, "pair_asymmetries", fail)
        links_out, asym_out = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["analyze", "--trace", str(trace_path), "--out", str(links_out),
                    "--asym-out", str(asym_out)]) == 2
        assert capsys.readouterr().err == "hpavsim analyze: invalid input: no asymmetry\n"
        assert not links_out.exists()
        assert not asym_out.exists()

    @pytest.mark.parametrize("existing", [None, b"old rates\n"], ids=["new", "existing"])
    def test_unwritable_output_writes_nothing(self, trace_path, tmp_path, capsys, existing):
        # the rate CSV can be written, the asymmetry CSV's directory is
        # missing: neither is moved into place and no temporary file is left
        out = tmp_path / "out"
        out.mkdir()
        if existing is not None:
            (out / "a.csv").write_bytes(existing)
        missing = out / "nodir" / "b.csv"
        assert run(["analyze", "--trace", str(trace_path), "--out", str(out / "a.csv"),
                    "--asym-out", str(missing)]) == 3
        assert capsys.readouterr().err == (
            f"hpavsim analyze: cannot write {missing}: No such file or directory\n"
        )
        if existing is None:
            assert list(out.iterdir()) == []
        else:
            assert list(out.iterdir()) == [out / "a.csv"]
            assert (out / "a.csv").read_bytes() == existing

    def test_outputs_have_the_mode_of_a_plain_write(self, trace_path, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("")
        out = tmp_path / "a.csv"
        assert run(["analyze", "--trace", str(trace_path), "--out", str(out),
                    "--asym-out", str(tmp_path / "b.csv")]) == 0
        assert out.stat().st_mode == plain.stat().st_mode

    def test_device_output_written_in_place(self, trace_path, tmp_path, monkeypatch):
        replace = os.replace

        def guarded(src, dst):
            # moving a temporary file over the device would replace it
            assert dst != os.devnull
            replace(src, dst)

        monkeypatch.setattr(os, "replace", guarded)
        assert run(["analyze", "--trace", str(trace_path), "--out", os.devnull,
                    "--asym-out", str(tmp_path / "b.csv")]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert glob.glob(glob.escape(os.devnull) + ".*") == []
        assert (tmp_path / "b.csv").read_text().startswith("node_a,node_b,")

    def test_fifo_output_receives_its_text(self, trace_path, tmp_path, capsys):
        fifo = tmp_path / "a.csv"
        os.mkfifo(fifo)
        # a reader opened first, non-blocking, lets the write open the FIFO
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(["analyze", "--trace", str(trace_path), "--out", str(fifo)]) == 0
            received = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received.startswith("link_tx,link_rx,")
        assert capsys.readouterr().out.startswith("node_a,node_b,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "d.plctm"]

    def test_symlinked_output_written_through(self, trace_path, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("old rates\n")
        link = tmp_path / "a.csv"
        link.symlink_to(real)
        assert run(["analyze", "--trace", str(trace_path), "--out", str(link),
                    "--asym-out", str(tmp_path / "b.csv")]) == 0
        assert link.is_symlink()
        assert real.read_text().startswith("link_tx,link_rx,")
        assert run(["analyze", "--trace", str(trace_path), "--out", str(link),
                    "--asym-out", str(real)]) == 1

    @pytest.mark.parametrize("second", ["x.csv", "./x.csv"])
    def test_two_outputs_naming_one_file_usage_error(self, trace_path, tmp_path, monkeypatch,
                                                     capsys, second):
        monkeypatch.chdir(tmp_path)
        assert run(["analyze", "--trace", str(trace_path), "--out", "x.csv",
                    "--asym-out", second]) == 1
        assert capsys.readouterr() == (
            "", "hpavsim analyze: error: two output flags name one file\n"
        )
        assert list(tmp_path.iterdir()) == [trace_path]

    def test_missing_file_exit_two(self, tmp_path, capsys):
        rc = run(["analyze", "--trace", str(tmp_path / "missing.plctm"),
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err

    def test_malformed_trace_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.plctm"
        bad.write_text("plctm 2\nslots 5\nsubcarriers 917\nnodes a b\n")
        rc = run(["analyze", "--trace", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic_csvs(self, trace_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            fair = tmp_path / f"{name}-fair.csv"
            assert run([
                "simulate", "--trace", str(trace_path), "--flows", FLOWS,
                "--duration-us", "150000", "--seed", "3", "--ss", "off",
                "--out", str(out), "--fairness-out", str(fair),
            ]) == 0
            outs.append(out.read_bytes() + fair.read_bytes())
        assert outs[0] == outs[1]

    def test_ss_on_beats_off(self, trace_path, tmp_path):
        aggregates = {}
        for mode in ("off", "on"):
            fair = tmp_path / f"{mode}.csv"
            assert run([
                "simulate", "--trace", str(trace_path), "--flows", FLOWS,
                "--duration-us", "400000", "--seed", "3", "--ss", mode,
                "--beta", "2", "--top-m", "2",
                "--out", str(tmp_path / f"thr-{mode}.csv"), "--fairness-out", str(fair),
            ]) == 0
            line = [l for l in fair.read_text().splitlines() if l.startswith("aggregate")][0]
            aggregates[mode] = float(line.split(",")[1])
        assert aggregates["on"] > aggregates["off"]

    def test_reports_in_node_order_however_flows_are_given(self, trace_path):
        dep = load_trace(trace_path)
        mac = MacParams()
        flows = sorted(DirectedLink(*f.split(">")) for f in FLOWS.split(","))
        policy = SSPolicy(beta=2, top_m=2)
        table = build_decision_table(dep, policy)
        texts = []
        for given in (flows, flows[::-1]):
            base = run_simulation(dep, None, mac, None, given, 200_000, 3)
            report = run_simulation(dep, table, mac, policy, given, 200_000, 3)
            fair = fairness_report(report, mac)
            assert list(report.tallies) == flows
            assert list(fair.per_node_throughput) == [f.tx for f in flows]
            assert list(compare_runs(base, report, mac).per_link) == flows
            texts.append((cli._link_results_csv(report, mac), fairness_csv(fair)))
        assert texts[0] == texts[1]

    def test_results_csv_is_the_run_tallies(self, trace_path, tmp_path):
        # each column read from its own LinkTally field, on an SS run whose
        # secondaries succeed, so a column built from another field differs
        out = tmp_path / "thr.csv"
        assert run([
            "simulate", "--trace", str(trace_path), "--flows", FLOWS,
            "--duration-us", "200000", "--seed", "3", "--ss", "on",
            "--beta", "2", "--top-m", "2", "--out", str(out),
        ]) == 0
        dep = load_trace(trace_path)
        mac = MacParams()
        flows = [DirectedLink(*f.split(">")) for f in FLOWS.split(",")]
        table = build_decision_table(dep, SSPolicy(beta=2, top_m=2))
        report = run_simulation(dep, table, mac, None, flows, 200000, 3)
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "link_tx,link_rx,successes_primary,successes_secondary,collisions,"
            "sf_primary,sf_secondary,normalized_throughput"
        )
        assert len(lines) == 1 + len(flows)
        secondaries = 0
        for line, link in zip(lines[1:], sorted(flows)):
            t = report.tallies[link]
            tx, rx, primary, secondary, collisions, sf_p, sf_s, thr = line.split(",")
            assert (tx, rx) == (link.tx, link.rx)
            assert (int(primary), int(secondary), int(collisions)) == (
                t.successes_primary, t.successes_secondary, t.collisions,
            )
            assert (float(sf_p), float(sf_s)) == (float(t.sf_primary), float(t.sf_secondary))
            assert float(thr) == (100.0 * float(t.sf_primary + t.sf_secondary)
                                  * mac.frame_length / report.total_sim_time_us)
            secondaries += t.successes_secondary
        assert secondaries > 0

    @pytest.mark.parametrize("period", ("0", "-5"))
    def test_non_positive_reeval_period_usage_error(self, trace_path, tmp_path, capsys,
                                                    period):
        out = tmp_path / "x.csv"
        rc = run(["simulate", "--trace", str(trace_path), "--flows", FLOWS,
                  "--duration-us", "1000", "--reeval-period-us", period,
                  "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "hpavsim simulate: error: --reeval-period-us must be positive\n"
        )
        assert not out.exists()

    def test_zero_duration_usage_error(self, trace_path, tmp_path, capsys):
        rc = run(["simulate", "--trace", str(trace_path), "--flows", FLOWS,
                  "--duration-us", "0", "--seed", "1",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_invalid_flows_exit_two(self, trace_path, tmp_path):
        rc = run(["simulate", "--trace", str(trace_path), "--flows", "n1>n9",
                  "--duration-us", "1000", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_event_log_written(self, trace_path, tmp_path):
        events = tmp_path / "events.csv"
        assert run([
            "simulate", "--trace", str(trace_path), "--flows", FLOWS,
            "--duration-us", "50000", "--seed", "1", "--ss", "on",
            "--out", str(tmp_path / "t.csv"), "--fairness-out", str(tmp_path / "f.csv"),
            "--events-out", str(events),
        ]) == 0
        header = events.read_text().splitlines()[0]
        assert header == "time_us,event,node,link_tx,link_rx,role,stage,bc,dc,spectrum_fraction"

    # the event log is written only to an --events-out path, never to stdout
    @pytest.mark.parametrize("events", (["--events"], ["--events", "--events-out", "e.csv"]))
    def test_events_flag_usage_error(self, trace_path, tmp_path, capsys, events):
        argv = ["simulate", "--trace", str(trace_path), "--flows", FLOWS,
                "--duration-us", "50000", "--out", str(tmp_path / "t.csv"),
                "--fairness-out", str(tmp_path / "f.csv"), *events]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        assert "error: unrecognized arguments: --events" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [trace_path]
        assert run(argv[:-len(events)]) == 0
        assert capsys.readouterr().out == ""

    # each is a unique prefix of --duration-us or --events-out, and is not
    # read as that flag
    @pytest.mark.parametrize("flag", (["--dur", "20000"], ["--events", "e.csv"]))
    def test_abbreviated_flag_rejected(self, trace_path, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--trace", str(trace_path), "--flows", FLOWS,
                "--out", "t.csv", "--fairness-out", "f.csv", *flag]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        assert f"error: unrecognized arguments: {' '.join(flag)}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [trace_path]


    def test_no_successful_frame_runtime_exit(self, tmp_path, capsys):
        # one microsecond ends the run before any frame can succeed; nothing
        # may be written, not even the results CSV ahead of the fairness one
        out, fair = tmp_path / "thr.csv", tmp_path / "fair.csv"
        rc = run(["simulate", "--nodes", "4", "--profile", "complementary",
                  "--flows", "n1>n2,n3>n4", "--duration-us", "1", "--ss", "on",
                  "--out", str(out), "--fairness-out", str(fair),
                  "--table-out", str(tmp_path / "table.csv")])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no frame succeeded in the 1 us run" in captured.err
        assert list(tmp_path.iterdir()) == []
        # to stdout as well
        rc = run(["simulate", "--nodes", "4", "--profile", "complementary",
                  "--flows", "n1>n2,n3>n4", "--duration-us", "1"])
        assert rc == 3
        assert capsys.readouterr().out == ""

    def test_successes_without_data_runtime_exit(self, tmp_path, capsys):
        path = tmp_path / "zero.plctm"
        save_trace(deployment_from_levels({("n1", "n2"): 0, ("n2", "n1"): 0}), path)
        out = tmp_path / "thr.csv"
        rc = run(["simulate", "--trace", str(path), "--flows", "n1>n2",
                  "--duration-us", "100000", "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no successful frame carried data in the 100000 us run" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("extra", ([], ["--max-share-fraction", "0.5"]))
    def test_table_out_is_decision_table_csv(self, trace_path, tmp_path, extra):
        table_out = tmp_path / "table.csv"
        assert run([
            "simulate", "--trace", str(trace_path), "--flows", FLOWS,
            "--duration-us", "50000", "--seed", "1", "--ss", "on", "--beta", "3",
            "--top-m", "2", *extra, "--out", str(tmp_path / "t.csv"),
            "--fairness-out", str(tmp_path / "f.csv"), "--table-out", str(table_out),
        ]) == 0
        policy = SSPolicy(beta=3, top_m=2,
                          max_share_fraction=float(extra[1]) if extra else 1.0)
        expected = decision_table_csv(build_decision_table(load_trace(trace_path), policy))
        assert expected.count("\n") > 1
        assert table_out.read_bytes() == expected.encode()

    def test_table_out_with_ss_off_usage_error(self, trace_path, tmp_path, capsys):
        table_out = tmp_path / "table.csv"
        out = tmp_path / "t.csv"
        rc = run(["simulate", "--trace", str(trace_path), "--flows", FLOWS,
                  "--duration-us", "50000", "--ss", "off", "--out", str(out),
                  "--table-out", str(table_out)])
        assert rc == 1
        assert "--table-out needs --ss on" in capsys.readouterr().err
        assert not table_out.exists()
        assert not out.exists()


class TestSweep:
    def test_no_successful_frame_runtime_exit(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run(["sweep", "--nodes", "4", "--profile", "complementary",
                  "--flows", "n1>n2,n3>n4", "--duration-us", "1", "--beta", "2,4",
                  "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no frame succeeded in the 1 us run" in captured.err
        assert not out.exists()

    def test_ss_run_without_throughput_runtime_exit(self, tmp_path, capsys):
        # at seed 89 the SS-off run's first frame succeeds, but with SS on a
        # station barges into it and the 1 us run ends on that collision: the
        # sweep passes its baseline check and fails the SS run's
        path = tmp_path / "d.plctm"
        assert run(gen_args(path, seed="3")) == 0
        capsys.readouterr()
        scenario = ["--trace", str(path), "--flows", "n1>n2,n3>n4",
                    "--duration-us", "1", "--seed", "89"]
        assert run(["simulate", *scenario, "--ss", "off"]) == 0
        capsys.readouterr()
        out = tmp_path / "sweep.csv"
        rc = run(["sweep", *scenario, "--beta", "2", "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "hpavsim sweep: no frame succeeded in the 1 us run; fairness is undefined\n"
        )
        assert not out.exists()

    def test_gain_non_increasing_in_beta(self, trace_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run([
            "sweep", "--trace", str(trace_path), "--flows", FLOWS,
            "--duration-us", "400000", "--seed", "3", "--beta", "2,4,6,8",
            "--top-m", "2", "--out", str(out),
        ]) == 0
        rows = out.read_text().splitlines()[1:]
        gains = [float(r.split(",")[1]) for r in rows]
        assert len(gains) == 4
        assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))

    def test_duplicate_betas_duplicate_rows(self, trace_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run([
            "sweep", "--trace", str(trace_path), "--flows", FLOWS,
            "--duration-us", "100000", "--seed", "3", "--beta", "4,4",
            "--out", str(out),
        ]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2 and rows[0] == rows[1]

    def test_single_beta_matches_simulate_comparison(self, trace_path, tmp_path):
        from hpavsim import (
            MacParams, SSPolicy, build_decision_table, compare_runs, run_simulation,
        )
        from hpavsim.cli import _parse_flows

        out = tmp_path / "sweep.csv"
        assert run([
            "sweep", "--trace", str(trace_path), "--flows", FLOWS,
            "--duration-us", "100000", "--seed", "3", "--beta", "4",
            "--top-m", "2", "--out", str(out),
        ]) == 0
        row = out.read_text().splitlines()[1].split(",")

        dep = load_trace(trace_path)
        mac = MacParams()
        policy = SSPolicy(beta=4, top_m=2)
        flows = _parse_flows(FLOWS)
        base = run_simulation(dep, None, mac, None, flows, 100000, 3)
        ss = run_simulation(dep, build_decision_table(dep, policy), mac, policy,
                            flows, 100000, 3)
        gain = compare_runs(base, ss, mac)
        assert float(row[1]) == gain.aggregate_gain_pct
        assert float(row[2]) == gain.jfi_delta
        assert float(row[3]) == gain.fsse_delta

    def test_empty_beta_list_usage_error(self, trace_path, tmp_path):
        rc = run(["sweep", "--trace", str(trace_path), "--flows", FLOWS,
                  "--duration-us", "1000", "--beta", ",",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestRoute:
    @pytest.fixture
    def weak_direct_trace(self, tmp_path):
        path = tmp_path / "weak.plctm"
        save_trace(
            deployment_from_levels(
                {
                    ("a", "c"): 1, ("c", "a"): 1,
                    ("a", "b"): 10, ("b", "a"): 10,
                    ("b", "c"): 10, ("c", "b"): 10,
                }
            ),
            path,
        )
        return path

    def test_two_hop_selected(self, weak_direct_trace, capsys):
        assert run(["route", "--trace", str(weak_direct_trace),
                    "--src", "a", "--dst", "c"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[3] == "a>b>c"

    def test_strong_direct_selected(self, trace_path, capsys):
        assert run(["route", "--trace", str(trace_path),
                    "--src", "n1", "--dst", "n2"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[2] == "1"

    def test_same_endpoints_usage_error(self, weak_direct_trace):
        assert run(["route", "--trace", str(weak_direct_trace),
                    "--src", "a", "--dst", "a"]) == 1

    def test_unreachable_runtime_exit(self, tmp_path, capsys):
        path = tmp_path / "split.plctm"
        save_trace(
            deployment_from_levels(
                {("a", "b"): 10, ("b", "a"): 10, ("c", "d"): 10, ("d", "c"): 10}
            ),
            path,
        )
        rc = run(["route", "--trace", str(path), "--src", "a", "--dst", "d",
                  "--min-rate", "1"])
        assert rc == 3
        assert "unreachable" in capsys.readouterr().err

    def test_nan_min_rate_invalid_input(self, trace_path, capsys):
        # unchecked, NaN would prune every edge and read as unreachable (exit 3)
        rc = run(["route", "--trace", str(trace_path), "--src", "n1", "--dst", "n3",
                  "--min-rate", "nan"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid input: min_rate must be a number other than NaN" in err


# An output flag naming stdout's own file writes to stdout in its turn:
# moving a temporary file over a regular file that is stdout would lose
# what is written to stdout after it.
@pytest.mark.parametrize("command, flag, to_file", [
    ("analyze", "--out", True),
    ("analyze", "--asym-out", False),
    ("route", "--out", False),
], ids=["analyze-out-file", "analyze-asym-out-pipe", "route-out-pipe"])
def test_output_naming_stdout_goes_to_stdout_in_turn(trace_path, tmp_path, command, flag,
                                                     to_file):
    args = [command, "--trace", str(trace_path)]
    if command == "route":
        args += ["--src", "n1", "--dst", "n3"]
    stdout_paths = [tmp_path / "plain.txt", tmp_path / "o.txt"] if to_file else [None, None]
    plain = run_process(args, stdout_paths[0])
    named = run_process(args + [flag, "/dev/stdout"], stdout_paths[1])
    assert named == plain
    assert named.startswith(b"src,dst," if command == "route" else b"link_tx,link_rx,")
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["d.plctm", "o.txt", "plain.txt"] if to_file else ["d.plctm"])


class TestConfig:
    def test_config_supplies_flags_and_cli_overrides(self, tmp_path, capsys):
        trace = tmp_path / "d.plctm"
        assert run(gen_args(trace, seed="7")) == 0
        capsys.readouterr()
        config = tmp_path / "run.cfg"
        config.write_text(
            "flows = n1>n3,n3>n2,n2>n4,n4>n1\n"
            "duration_us = 50000\n"
            "seed = 3\n"
            "ss = on\n"
            "beta = 2\n"
            "# comment line\n"
        )
        out_a = tmp_path / "a.csv"
        assert run(["simulate", "--trace", str(trace), "--config", str(config),
                    "--out", str(out_a), "--fairness-out", str(tmp_path / "fa.csv")]) == 0
        # explicit --seed overrides the config's
        out_b = tmp_path / "b.csv"
        assert run(["simulate", "--trace", str(trace), "--config", str(config),
                    "--seed", "4", "--out", str(out_b),
                    "--fairness-out", str(tmp_path / "fb.csv")]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_unknown_config_key_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus = 1\n")
        rc = run(["generate", "--nodes", "2", "--profile", "uniform",
                  "--config", str(config), "--out", str(tmp_path / "x.plctm")])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_generator_from_config_only(self, tmp_path, capsys):
        config = tmp_path / "gen.cfg"
        config.write_text(
            "nodes = 4\nprofile = complementary\nbase_quality = 6\n"
            "asymmetry_noise = 2\nseed = 9\n"
        )
        out = tmp_path / "g.plctm"
        assert run(["generate", "--config", str(config), "--out", str(out)]) == 0
        assert load_trace(out).metadata["seed"] == "9"

    @pytest.mark.parametrize("key, value", [("ss", "maybe"), ("nodes", "four")])
    def test_bad_config_value_fails_as_the_flag_does(self, trace_path, tmp_path, capsys,
                                                     key, value):
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key} = {value}\n")
        base = ["simulate", "--trace", str(trace_path), "--flows", FLOWS,
                "--duration-us", "1000", "--out", str(tmp_path / "x.csv")]
        errs = []
        for extra in (["--config", str(config)], [f"--{key}", value]):
            with pytest.raises(SystemExit) as exc:
                run([*base, *extra])
            assert exc.value.code == 1
            errs.append(capsys.readouterr().err)
        assert f"argument --{key}: invalid" in errs[0]
        assert errs[0] == errs[1]

    def test_generate_skips_keys_it_has_no_flag_for(self, tmp_path, capsys):
        config = tmp_path / "all.cfg"
        config.write_text(
            "nodes = 4\nprofile = complementary\nbase_quality = 6\n"
            f"asymmetry_noise = 2\nseed = 7\nflows = {FLOWS}\nduration_us = 1000\n"
        )
        from_config, from_flags = tmp_path / "c.plctm", tmp_path / "f.plctm"
        assert run(["generate", "--config", str(config), "--out", str(from_config)]) == 0
        assert run(gen_args(from_flags)) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_explicit_top_m_beats_config(self, trace_path, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"flows = {FLOWS}\nduration_us = 30000\nseed = 3\nss = on\ntop_m = 1\n")

        def simulate(name, *extra):
            out = tmp_path / f"{name}.csv"
            assert run(["simulate", "--trace", str(trace_path), *extra, "--out", str(out),
                        "--fairness-out", str(tmp_path / f"{name}-fair.csv")]) == 0
            return out.read_bytes()

        flags = ["--flows", FLOWS, "--duration-us", "30000", "--seed", "3", "--ss", "on"]
        top_2 = simulate("flags", *flags, "--top-m", "2")
        assert simulate("both", "--config", str(config), "--top-m", "2") == top_2
        assert simulate("config", "--config", str(config)) != top_2

    @pytest.mark.parametrize("command", [["analyze"], ["route", "--src", "n1", "--dst", "n2"]])
    def test_trace_commands_need_trace_with_generator_config(self, tmp_path, capsys,
                                                             command):
        config = tmp_path / "gen.cfg"
        config.write_text("nodes = 4\nprofile = complementary\nseed = 9\n")
        with pytest.raises(SystemExit) as exc:
            run([*command, "--config", str(config)])
        assert exc.value.code == 1
        assert "required: --trace" in capsys.readouterr().err


class TestParser:
    def test_two_calls_build_one_parser(self, tmp_path):
        cli._build_parser.cache_clear()
        assert run(gen_args(tmp_path / "a.plctm")) == 0
        assert run(gen_args(tmp_path / "b.plctm")) == 0
        assert cli._build_parser.cache_info().misses == 1
