"""Tier-1 smoke test of the end-to-end benchmark (no timing assertions).

Later PRs may not edit ``benchmarks/e2e/``, so a PR that renames a
public function the benchmark calls must find out here, in tier-1, not
when its numbers are due.  Every workload runs at ~1/50 scale in a
fresh interpreter through the real command; the correctness checks it
carries must pass and the names it emits must be the ones
``BENCHMARK.json`` declares.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # whatever pytest's import mode is
from e2ebench import HOLDOUT_SEED, WORKLOAD_BOUNDS  # noqa: E402

ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(workload: str, trace: int, seed: int = 2014) -> tuple[dict, dict]:
    """``(contract object, full detail)`` of one smoke-scale run.

    Two measured rounds either way (one untraced + one traced, or two
    untraced), so "all rounds of one seed agree" is always exercised.
    """
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", "smoke",
            "--rounds", "1" if trace else "2",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.fixture(scope="module")
def traced_runs() -> dict[str, tuple[dict, dict]]:
    return {workload: run(workload, trace=1) for workload in WORKLOADS}


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1] == "benchmarks/e2e/run.py"
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(unit) for unit in {**END_TO_END, **PER_LAYER}.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


def test_every_declared_workload_has_a_module_and_the_reverse():
    modules = {
        path.stem
        for path in (HERE / "e2ebench" / "workloads").glob("*.py")
        if path.stem != "__init__"
    }
    assert modules == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_is_correct_and_emits_the_declared_names(workload, traced_runs):
    contract, detail = traced_runs[workload]
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert contract["correct"] is True, detail["failures"]
    assert contract["failed"] == 0 and contract["attempted"] >= 1
    assert detail["failures"] == []
    # --trace 1: exactly the per-layer metrics, with the declared units.
    assert {n: m["unit"] for n, m in contract["metrics"].items()} == PER_LAYER
    # The same run measured every end-to-end metric too, and none is 0.
    assert set(END_TO_END) <= set(detail["metrics"])
    assert all(detail["metrics"][name]["value"] > 0 for name in END_TO_END)
    assert set(detail["metrics"]) <= set(END_TO_END) | set(PER_LAYER)
    assert all(NAME.fullmatch(name) for name in detail["metrics"])
    assert detail["metrics"]["ledger.coverage_pct"]["value"] > 50.0
    assert len(detail["round_wall_s"]) == len(detail["traced_wall_s"]) == 1


def test_every_declared_metric_is_measured_by_some_workload(traced_runs):
    measured = set()
    for _, detail in traced_runs.values():
        measured |= set(detail["metrics"])
    assert measured == set(END_TO_END) | set(PER_LAYER)


def test_untraced_run_prints_exactly_the_end_to_end_metrics():
    contract, detail = run("ingest_firehose", trace=0, seed=HOLDOUT_SEED)
    assert contract["correct"] is True and contract["failed"] == 0
    assert {n: m["unit"] for n, m in contract["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in contract["metrics"].values())
    assert len(detail["round_wall_s"]) == 2 and detail["traced_wall_s"] == []


def test_bounds_of_the_workload_metrics_name_declared_metrics():
    assert set(WORKLOAD_BOUNDS) <= set(PER_LAYER)
    assert all(0 < bound <= 0.25 for bound in WORKLOAD_BOUNDS.values())
