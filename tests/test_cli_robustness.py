"""The CLI as a well-behaved process citizen.

Input the parser cannot check but the library refuses ends like a usage
error (exit 2, one ``repro: error:`` line, no traceback), and a command
that replays a workload in-process leaves the default obs context —
registry, tracer switches, clocks, instance counters — as it found it.
"""

import pytest

from repro import obs
from repro.cli import main


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("robust") / "raw.csv"
    argv = ["generate", "--users", "3", "--days", "1", "--period", "900"]
    assert main([*argv, "--out", str(path)]) == 0
    return str(path)


REFUSED = {
    "federation-query-no-hives": (
        ["federation", "query", "--input", "{csv}", "--hives", "0"],
        "empty ring",
    ),
    "federation-stats-no-hives": (["federation", "stats", "--hives", "0"], "empty ring"),
    "privacy-demo-no-devices": (["privacy", "demo", "--devices", "0"], "at least one participant"),
    "stream-views-zero-window": (
        ["stream", "views", "--input", "{csv}", "--window", "0"],
        "pane size must be positive",
    ),
    "stream-views-slide-over-window": (
        ["stream", "views", "--input", "{csv}", "--window", "3600", "--slide", "7200"],
        "exceeds size",
    ),
    "obs-trace-rate-above-one": (
        ["obs", "trace", "--input", "{csv}", "--sample-rate", "2"],
        "sample_rate must be in [0, 1]",
    ),
    "store-stats-no-shards": (
        ["store", "stats", "--input", "{csv}", "--shards", "0"],
        "shard count must be positive",
    ),
    "federation-run-unknown-hive": (
        ["federation", "run", "--users", "2", "--days", "1", "--fail-hive", "nope"],
        "unknown federated hive 'nope'",
    ),
    "stats-missing-file": (
        ["stats", "--input", "{missing}"],
        "No such file or directory",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_input_is_a_usage_error(case, csv_path, tmp_path, capsys):
    argv, message = REFUSED[case]
    argv = [
        arg.format(csv=csv_path, missing=tmp_path / "missing.csv") for arg in argv
    ]
    capsys.readouterr()
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("repro: error: ")
    assert message in last


REPLAYS = [
    ["store", "stats"],
    ["stream", "views"],
    ["stream", "alerts", "--rate-below", "1000"],
    ["stream", "watch"],
    ["obs", "dump"],
    ["obs", "top"],
    ["obs", "trace", "--sample-rate", "0.5"],
    ["obs", "history", "--cadence", "3600"],
    ["obs", "slo", "--cadence", "3600"],
    ["obs", "watch", "--cadence", "21600"],
]


@pytest.fixture()
def process_obs():
    """Process-wide obs state no CLI default matches: tracing on at a
    quarter, a clock reading 7 s, one pipeline label already handed out."""
    obs.reset(metrics=True, tracing=True)
    obs.configure(sample_rate=0.25, clock=lambda: 7.0)
    obs.metrics_registry().next_instance("pipeline")
    yield
    obs.reset()


@pytest.mark.parametrize("argv", REPLAYS, ids=" ".join)
def test_replay_leaves_process_obs_state_alone(argv, csv_path, process_obs, capsys):
    registry, tracer = obs.metrics_registry(), obs.tracer()
    window = [] if argv[0] == "store" else ["--window", "21600"]
    main([*argv, "--input", csv_path, *window])
    assert obs.metrics_registry() is registry
    assert obs.tracer() is tracer
    assert (tracer.enabled, tracer.sample_rate) == (True, 0.25)
    clock = [s for s in registry.exposition() if s.name == "repro_sim_time_seconds"]
    assert [s.value for s in clock] == [7.0]
    with tracer.span("probe") as probe:
        pass
    assert probe.span.sim_time == 7.0
    assert obs.metrics_registry().next_instance("pipeline") == "pipeline-2"
