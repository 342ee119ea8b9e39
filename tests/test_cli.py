"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import main
from repro.mobility import MobilityDataset


@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "raw.csv"
    code = main(
        [
            "generate",
            "--users", "6",
            "--days", "3",
            "--period", "180",
            "--seed", "5",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_output_readable(self, raw_csv):
        dataset = MobilityDataset.from_csv(raw_csv)
        assert len(dataset) == 6
        assert dataset.n_records > 1000

    def test_deterministic(self, tmp_path, raw_csv):
        other = tmp_path / "again.csv"
        main(
            [
                "generate",
                "--users", "6",
                "--days", "3",
                "--period", "180",
                "--seed", "5",
                "--out", str(other),
            ]
        )
        assert other.read_text() == raw_csv.read_text()


class TestProtect:
    @pytest.mark.parametrize(
        "mechanism_args",
        [
            ["--mechanism", "speed-smoothing", "--epsilon-m", "150"],
            ["--mechanism", "geo-indistinguishability", "--epsilon", "0.01"],
            ["--mechanism", "spatial-cloaking", "--cell-m", "500"],
            ["--mechanism", "temporal-downsampling", "--window-s", "600"],
            ["--mechanism", "identity"],
        ],
    )
    def test_each_mechanism(self, raw_csv, tmp_path, mechanism_args):
        out = tmp_path / "prot.csv"
        code = main(
            ["protect", "--input", str(raw_csv), "--out", str(out), *mechanism_args]
        )
        assert code == 0
        protected = MobilityDataset.from_csv(out)
        assert len(protected) >= 1


class TestAttack:
    def test_poi_attack_runs(self, raw_csv, capsys):
        code = main(["attack", "--input", str(raw_csv)])
        assert code == 0
        output = capsys.readouterr().out
        assert "candidate POIs" in output

    def test_linkage_with_background(self, raw_csv, capsys):
        code = main(
            ["attack", "--input", str(raw_csv), "--background", str(raw_csv)]
        )
        assert code == 0
        assert "re-identification" in capsys.readouterr().out


class TestEvaluate:
    def test_metrics_printed(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "prot.csv"
        main(
            [
                "protect",
                "--input", str(raw_csv),
                "--mechanism", "speed-smoothing",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        code = main(["evaluate", "--raw", str(raw_csv), "--protected", str(out)])
        assert code == 0
        output = capsys.readouterr().out
        assert "hotspot F1" in output
        assert "OD trip matrix" in output
        assert "spatial distortion" in output


class TestCampaign:
    def test_campaign_runs_and_exports(self, tmp_path, capsys):
        out = tmp_path / "collected.csv"
        code = main(
            [
                "campaign",
                "--users", "5",
                "--days", "1",
                "--period", "600",
                "--incentive", "reward",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "campaign:" in output
        assert "acceptance" in output
        collected = MobilityDataset.from_csv(out)
        assert len(collected) >= 1

    def test_lossy_campaign(self, capsys):
        code = main(
            ["campaign", "--users", "4", "--days", "1", "--loss", "0.2", "--seed", "2"]
        )
        assert code == 0
        assert "transport loss" in capsys.readouterr().out


class TestStats:
    def test_summary_printed(self, raw_csv, capsys):
        code = main(["stats", "--input", str(raw_csv)])
        assert code == 0
        output = capsys.readouterr().out
        assert "users=6" in output
        assert "rgyr=" in output

    def test_geojson_export(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "traces.geojson"
        code = main(["stats", "--input", str(raw_csv), "--geojson", str(out)])
        assert code == 0
        import json

        loaded = json.loads(out.read_text())
        assert len(loaded["features"]) == 6


class TestPublish:
    def test_successful_publication(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "published.csv"
        code = main(
            [
                "publish",
                "--input", str(raw_csv),
                "--max-poi-recall", "0.3",
                "--out", str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "chosen:" in output
        published = MobilityDataset.from_csv(out)
        assert all(user.startswith("pseudo-") for user in published.users)

    def test_zero_bar_still_publishable_by_smoothing(self, raw_csv, tmp_path, capsys):
        """Even a zero-recall bar is satisfiable on a small population —
        coarse smoothing legitimately drives the attack to zero — so the
        CLI must publish rather than fail."""
        out = tmp_path / "published.csv"
        code = main(
            [
                "publish",
                "--input", str(raw_csv),
                "--max-poi-recall", "0.0",
                "--out", str(out),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "speed-smoothing" in output
        assert out.exists()

    def test_lenient_flag_always_publishes(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "published-lenient.csv"
        code = main(
            [
                "publish",
                "--input", str(raw_csv),
                "--lenient",
                "--max-poi-recall", "0.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()


class TestFederationCommands:
    def test_stats_reports_balance_and_stability(self, capsys):
        code = main(["federation", "stats", "--devices", "500", "--hives", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "ring: 4 hives" in output
        assert "re-homes" in output
        assert "all onto the new member: True" in output

    def test_run_federated_campaign(self, capsys):
        code = main(
            [
                "federation", "run",
                "--users", "8",
                "--days", "1",
                "--hives", "2",
                "--period", "900",
                "--seed", "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "federation health" in output
        assert "2 up, 0 down" in output
        assert "federated task federated-campaign" in output

    def test_run_with_failure_injection(self, capsys):
        code = main(
            [
                "federation", "run",
                "--users", "6",
                "--days", "1",
                "--hives", "3",
                "--period", "900",
                "--fail-hive", "hive-1",
                "--fail-at-hours", "6",
                "--fail-for-hours", "6",
                "--seed", "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "federation health" in output
        assert "3 up, 0 down" in output  # recovered by end of campaign

    def test_query_counts_match_input(self, raw_csv, capsys):
        dataset = MobilityDataset.from_csv(raw_csv)
        code = main(
            ["federation", "query", "--input", str(raw_csv), "--hives", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert f"matched {dataset.n_records} records" in output
        assert "hive-0" in output

    def test_query_writes_csv(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "federated.csv"
        code = main(
            [
                "federation", "query",
                "--input", str(raw_csv),
                "--hives", "2",
                "--t0", "0",
                "--t1", "43200",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == "user,time,lat,lon,value"


class TestStreamCommands:
    def test_views_prints_closed_windows(self, raw_csv, capsys):
        code = main(
            [
                "stream", "views",
                "--input", str(raw_csv),
                "--window", "21600",
                "--last", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "records into" in output
        assert "ingested/window" in output
        assert "cells" in output

    def test_views_sliding_overlap(self, raw_csv, capsys):
        code = main(
            [
                "stream", "views",
                "--input", str(raw_csv),
                "--window", "21600",
                "--slide", "7200",
                "--last", "2",
            ]
        )
        assert code == 0
        assert "ingested/window" in capsys.readouterr().out

    def test_alerts_exit_code_signals_firing(self, raw_csv, capsys):
        # An absurd rate floor fires on every window -> exit 1.
        code = main(
            [
                "stream", "alerts",
                "--input", str(raw_csv),
                "--window", "21600",
                "--rate-below", "1000",
            ]
        )
        assert code == 1
        output = capsys.readouterr().out
        assert "[rate-below]" in output

        # No query fired -> exit 0.
        code = main(
            [
                "stream", "alerts",
                "--input", str(raw_csv),
                "--window", "21600",
                "--rate-below", "0.00001",
            ]
        )
        assert code == 0
        assert "0 alerts" in capsys.readouterr().out

    def test_watch_streams_windows_live(self, raw_csv, capsys):
        code = main(
            [
                "stream", "watch",
                "--input", str(raw_csv),
                "--window", "21600",
                "--limit", "4",
                "--coverage-stalled", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("ingested/window") >= 4
        assert "watched" in output


class TestServeCommand:
    def test_serve_pushes_to_all_clients(self, capsys):
        code = main(
            [
                "serve",
                "--users", "6",
                "--days", "1",
                "--clients", "2",
                "--window", "21600",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        # The health report grew a serving-tier line...
        assert "server: " in output
        assert "middleware denials" in output
        # ...and both dashboard sessions drained their pushes.
        assert "served 2 dashboard clients" in output
        assert "0 dropped (slow consumers)" in output


class TestTaskCommands:
    @pytest.fixture()
    def good_spec(self, tmp_path):
        spec = tmp_path / "good_task.py"
        spec.write_text(
            "from repro.apisense import SensingTask\n"
            "\n"
            "def _setup(ctx):\n"
            "    ctx.every(60.0, lambda c: c.save({'battery': c.battery.level}))\n"
            "    ctx.on_battery_below(0.5, lambda c: None)\n"
            "\n"
            "TASK = (SensingTask.builder('spec-task')\n"
            "        .sensors('gps', 'battery')\n"
            "        .every(60)\n"
            "        .script(_setup)\n"
            "        .build())\n"
        )
        return spec

    def test_vet_acceptable_spec(self, good_spec, capsys):
        code = main(["task", "vet", "--spec", str(good_spec)])
        assert code == 0
        output = capsys.readouterr().out
        assert "dry run of task 'spec-task'" in output
        assert "ACCEPTABLE" in output
        assert "timer#0" in output

    def test_vet_rejects_crashing_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad_task.py"
        spec.write_text(
            "from repro.apisense import SensingTask\n"
            "\n"
            "def _setup(ctx):\n"
            "    def bad(c):\n"
            "        raise RuntimeError('kaput')\n"
            "    ctx.every(60.0, bad)\n"
            "\n"
            "def build_task():\n"
            "    return (SensingTask.builder('bad-task')\n"
            "            .sensors('gps').every(60).script(_setup).build())\n"
        )
        code = main(["task", "vet", "--spec", str(spec)])
        assert code == 1
        output = capsys.readouterr().out
        assert "REJECTED" in output
        assert "kaput" in output

    def test_describe_lists_handlers(self, good_spec, capsys):
        code = main(["task", "describe", "--spec", str(good_spec)])
        assert code == 0
        output = capsys.readouterr().out
        assert "spec-task" in output
        assert "v2 event script" in output
        assert "battery_below" in output

    def test_vet_example_spec(self, capsys):
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples" / "adaptive_scripting.py"
        code = main(["task", "vet", "--spec", str(example)])
        assert code == 0
        assert "ACCEPTABLE" in capsys.readouterr().out

    def test_missing_spec_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["task", "vet", "--spec", str(tmp_path / "nope.py")])

    def test_explicit_attribute(self, good_spec, capsys):
        code = main(["task", "describe", "--spec", f"{good_spec}:TASK"])
        assert code == 0
        assert "spec-task" in capsys.readouterr().out

    def test_legacy_hook_spec_vets(self, tmp_path, capsys):
        spec = tmp_path / "legacy_task.py"
        spec.write_text(
            "from repro.apisense import SensingTask\n"
            "TASK = SensingTask(name='legacy', sensors=('gps',),\n"
            "                   script=lambda values: values)\n"
        )
        code = main(["task", "vet", "--spec", str(spec)])
        assert code == 0
        assert "ACCEPTABLE" in capsys.readouterr().out


class TestPrivacyCommands:
    def test_demo_secure_equals_plaintext(self, capsys):
        code = main(
            [
                "privacy", "demo",
                "--devices", "10",
                "--dropouts", "2",
                "--key-bits", "128",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "secure sum over 8 survivors" in output
        assert "killed mid-session" in output

    def test_demo_forced_masking(self, capsys):
        code = main(
            [
                "privacy", "demo",
                "--devices", "8",
                "--dropouts", "1",
                "--protocol", "masking",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "0 paillier / 8 masking" in output
        assert "Shamir" in output

    def test_federation_query_secure_cross_check(self, raw_csv, capsys):
        code = main(
            [
                "federation", "query",
                "--input", str(raw_csv),
                "--hives", "3",
                "--secure",
                "--key-bits", "128",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "secure aggregate of ingested" in output
        assert "-> match" in output


class TestObsTimeseriesCommands:
    def test_history_lists_scraped_series(self, raw_csv, capsys):
        code = main(
            [
                "obs", "history",
                "--input", str(raw_csv),
                "--window", "21600",
                "--cadence", "3600",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "scraped" in output
        assert "repro_pipeline_records_accepted_total" in output

    def test_history_queries_one_family(self, raw_csv, capsys):
        code = main(
            [
                "obs", "history",
                "--input", str(raw_csv),
                "--window", "21600",
                "--cadence", "3600",
                "--name", "repro_pipeline_records_accepted_total",
                "--query-window", "43200",
                "--last", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "delta" in output
        assert "rate" in output
        assert "the last 43200s" in output

    def test_slo_evaluates_the_stock_set(self, raw_csv, capsys):
        code = main(
            [
                "obs", "slo",
                "--input", str(raw_csv),
                "--window", "21600",
                "--cadence", "3600",
            ]
        )
        output = capsys.readouterr().out
        assert "evaluated 3 SLOs" in output
        assert "ingest-availability" in output
        assert "flush-latency" in output
        assert "view-freshness" in output
        # A healthy replay must end with every SLO ok (exit 0).
        assert code == 0

    def test_watch_pushes_frames_over_the_server(self, raw_csv, capsys):
        code = main(
            [
                "obs", "watch",
                "--input", str(raw_csv),
                "--window", "21600",
                "--cadence", "21600",
                "--limit", "2",
                "--names", "repro_pipeline",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "frame @ t=" in output
        assert "watched" in output
        assert "over the server channel" in output

    def test_dump_and_top_emit_json(self, raw_csv, capsys):
        import json

        code = main(
            [
                "obs", "dump",
                "--input", str(raw_csv),
                "--window", "21600",
                "--json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(
            row["name"] == "repro_pipeline_records_accepted_total"
            for row in rows
        )
        code = main(
            [
                "obs", "top",
                "--input", str(raw_csv),
                "--window", "21600",
                "--json",
            ]
        )
        assert code == 0
        stages = json.loads(capsys.readouterr().out)
        assert stages and {"stage", "count", "p50", "p99"} <= set(stages[0])

    def test_removed_bench_diff_verb_is_refused(self, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["obs", "bench-diff"])
        assert refused.value.code == 2
        assert "invalid choice: 'bench-diff'" in capsys.readouterr().err

    def test_sample_rate_is_an_option_of_trace_only(self, raw_csv, capsys):
        replay = ["--input", str(raw_csv), "--window", "21600"]
        for verb in ("dump", "top", "history", "slo", "watch"):
            with pytest.raises(SystemExit) as refused:
                main(["obs", verb, *replay, "--sample-rate", "0.5"])
            assert refused.value.code == 2
            assert "unrecognized arguments: --sample-rate" in capsys.readouterr().err
        assert main(["obs", "trace", *replay, "--sample-rate", "0.5"]) == 0
        assert "sample rate 0.5" in capsys.readouterr().out
