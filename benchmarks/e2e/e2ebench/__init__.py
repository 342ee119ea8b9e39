"""The end-to-end benchmark's library; ``../run.py`` is the command.

``BENCHMARK.json`` at the repository root declares every metric's name
and unit and the bounds of the three metrics every workload reports.
The constants here are what its fixed key set has no room for.
"""

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 2014
#: Second seed the correctness checks are shown to pass on; claims made
#: while developing on :data:`DEFAULT_SEED` are re-measured on this one.
HOLDOUT_SEED = 7919

#: Regression bounds of the end-to-end metrics only some workloads can
#: report.  ``BENCHMARK.json`` lists them under ``per_layer`` (an
#: ``end_to_end`` entry must be reported by every workload), so the
#: ``--aa`` self-check applies these bounds itself.  ISSUE 11 asked for
#: 10 % (15 % on the p99); single runs on the shared VM this was built
#: on differ by more than that (README, "Run-to-run spread"), and 25 %
#: is the widest the issue allows.
WORKLOAD_BOUNDS = {
    "pushes_per_s": 0.25,
    "push_p50_ms": 0.25,
    "push_p99_ms": 0.25,
    "upload_rtt_p50_ms": 0.25,
    "query_p50_ms": 0.25,
    "scan_cycle_p50_ms": 0.25,
    "publish_s": 0.25,
}
