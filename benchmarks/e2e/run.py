#!/usr/bin/env python3
"""End-to-end benchmark of the six-tier platform and PRIVAPI.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/e2e/run.py            # every workload, one interpreter each
    python3 benchmarks/e2e/run.py --aa       # self-check: 3 suites a side; exit 1 beyond bounds

``README.md`` beside this file has the workloads, the metrics and how
to read a traced run.  The last line of a ``--workload`` run is the
result object the benchmark contract asks for; the line before it is
the same run in full (every metric measured, sample counts, failures).
"""

import time

_STARTED = time.perf_counter()  # before the heavy imports: they are set-up

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Suites per side of ``--aa``.  One was not enough on the VM this was
#: built on: a slow minute of the host landing on one run of a pair put
#: every timing of that workload 30-50 % apart (README, "--aa").
AA_SUITES = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_args(spec: dict) -> argparse.Namespace:
    from e2ebench import DEFAULT_SEED

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]],
        help="run this workload in this interpreter (default: all, one child each)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measured wall per run; rounds are added while they fit",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: alternate untraced/traced rounds and report the per-layer ledger",
    )
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: ~1/50 of the records, for the tier-1 smoke test",
    )
    parser.add_argument(
        "--rounds", type=int, help="exactly this many measured rounds, ignoring --seconds"
    )
    parser.add_argument("--out", help="also write the full result(s) here as JSON")
    parser.add_argument("--trace-out", help="write the traced rounds' spans here")
    parser.add_argument(
        "--aa", action="store_true",
        help=f"self-check: run the suite {AA_SUITES} times for each of two sides, "
             "alternating, and compare the sides to every end-to-end bound",
    )
    args = parser.parse_args()
    if args.scale == "smoke" and args.rounds is None:
        args.rounds = 1
    return args


# ----------------------------------------------------------------------
# One workload, this interpreter
# ----------------------------------------------------------------------


def run_single(args: argparse.Namespace, spec: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} not found: the benchmark builds the "
              "platform from the checkout's src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from e2ebench.harness import run_workload
    from e2ebench.spans import write_trace

    workload = importlib.import_module(f"e2ebench.workloads.{args.workload}")
    report = run_workload(
        workload,
        workload.shape(args.scale),
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        rounds=args.rounds,
        keep_spans=args.trace_out is not None,
        import_s=time.perf_counter() - _STARTED,
    )

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failures = list(report.failures)
    undeclared = sorted(set(report.metrics) - set(units))
    if undeclared:
        failures.append(f"metrics missing from BENCHMARK.json: {undeclared}")
    if args.trace:
        # A per-layer metric of a layer this workload never enters is 0.
        values = {m["name"]: report.metrics.get(m["name"], 0.0) for m in spec["per_layer"]}
    else:
        values = {m["name"]: report.metrics[m["name"]] for m in spec["end_to_end"]}
    contract = {
        "correct": not failures,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    detail = {
        "workload": report.workload,
        "seed": report.seed,
        "scale": args.scale,
        "loop": report.loop,
        "round_wall_s": report.round_wall_s,
        "traced_wall_s": report.traced_wall_s,
        "ops_attempted": report.attempted,
        "ops_failed": report.failed,
        "correct": not failures,
        "failures": failures,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")}
            for name, value in report.metrics.items()
        },
        "sample_counts": report.sample_counts,
    }

    print(f"{report.workload}  seed={report.seed}  scale={args.scale}")
    print(f"  {report.loop}")
    print("  round walls (s), the fastest is reported:  untraced "
          + " ".join(f"{w:.3f}" for w in report.round_wall_s)
          + ("  traced " + " ".join(f"{w:.3f}" for w in report.traced_wall_s)
             if report.traced_wall_s else ""))
    for name, value in report.metrics.items():
        n = report.sample_counts.get(name)
        print(f"  {name:<32} {value:>14.4f} {units.get(name, '?'):<8}"
              + (f" n={n}" if n else ""))
    print(f"  ops_attempted={report.attempted} ops_failed={report.failed}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    if args.trace_out:
        write_trace(args.trace_out, report.recorders)
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(detail))
    print(json.dumps(contract))
    return 0 if not failures and report.failed == 0 else 1


# ----------------------------------------------------------------------
# The suite: every workload in a fresh interpreter
# ----------------------------------------------------------------------


def run_suite(args: argparse.Namespace, spec: dict) -> tuple[dict[str, dict], bool]:
    """Returns ``({workload: detail}, every child passed)``."""
    details: dict[str, dict] = {}
    passed = True
    for entry in spec["workloads"]:
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", entry["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--scale", args.scale,
        ]
        if args.rounds is not None:
            command += ["--rounds", str(args.rounds)]
        child = subprocess.run(command, capture_output=True, text=True)
        lines = child.stdout.splitlines()
        try:
            # The last two lines are the detail and the contract object.
            details[entry["name"]] = json.loads(lines[-2])
            print("\n".join(lines[:-2]))
        except (IndexError, ValueError):
            passed = False  # the child died before it could report
            print(child.stdout)
        if child.returncode != 0:
            passed = False
            print(f"{entry['name']} exited {child.returncode}\n{child.stderr}",
                  file=sys.stderr)
    return details, passed


def compare_aa(sides: tuple[list[dict], list[dict]], spec: dict) -> bool:
    """Print the two sides; False if they differ by more than a bound.

    A side's value is the best of its suites, as a run's value is that
    of its fastest round: the host's disturbance only ever adds time.
    """
    from e2ebench import WORKLOAD_BOUNDS

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} | WORKLOAD_BOUNDS
    best = {
        m["name"]: max if m["better"] == "higher" else min
        for m in spec["end_to_end"] + spec["per_layer"]
    }
    within = True
    print(f"\nbest of {len(sides[0])} suites a side\n"
          f"{'workload':<18}{'metric':<20}{'side 1':>14}{'side 2':>14}"
          f"{'diff':>9}{'bound':>8}")
    for entry in spec["workloads"]:
        workload = entry["name"]
        if not all(workload in suite for side in sides for suite in side):
            continue  # a child died; run_suite has already failed the check
        for name, bound in bounds.items():
            if name not in sides[0][0][workload]["metrics"]:
                continue
            a, b = (
                best[name](suite[workload]["metrics"][name]["value"] for suite in side)
                for side in sides
            )
            diff = abs(b - a) / abs(a)
            within = within and diff <= bound
            print(f"{workload:<18}{name:<20}{a:>14.4f}{b:>14.4f}{diff:>8.1%}"
                  f"{bound:>8.0%}{'' if diff <= bound else '  BEYOND BOUND'}")
    return within


def main() -> int:
    spec = load_spec()
    args = parse_args(spec)
    if args.workload:
        return run_single(args, spec)
    # Alternating sides, so a slow stretch of the machine lands on both.
    sides: tuple[list[dict], list[dict]] = ([], [])
    passed = True
    for index in range(2 * AA_SUITES if args.aa else 1):
        details, suite_passed = run_suite(args, spec)
        sides[index % 2].append(details)
        passed = passed and suite_passed
    if args.aa:
        passed = compare_aa(sides, spec) and passed
    if args.out:
        Path(args.out).write_text(json.dumps(sides[0] + sides[1], indent=2) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
