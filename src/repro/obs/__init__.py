"""``repro.obs`` — unified observability for the whole platform.

One process-wide :class:`MetricsRegistry` (labeled counters, gauges,
fixed-bucket histograms, Prometheus-style text exposition) and one
:class:`Tracer` (spans into a bounded drop-oldest :class:`TraceLog`)
serve every tier: ingest, store, streams, federation, privacy, server.

Metrics are **on** by default (cheap: pre-resolved children, one int
add per event, and counts the components already keep are read, not
mirrored); tracing is **off** by default (opt in per run via
:func:`configure`). Both are live toggles — ``configure(metrics=False)``
stops every histogram and the clock reads around it without rewiring
anything, while counters and gauges keep counting.

Typical use::

    from repro import obs

    obs.configure(tracing=True, sample_rate=0.05)
    ... drive the platform ...
    print(obs.render_prometheus())          # full exposition
    for row in obs.hot_paths():             # obs top
        print(row.to_text())
    paths = obs.tracing.record_paths(obs.tracer().log)

Tests call :func:`reset` to start from a fresh registry/tracer; a
self-contained run inside a long-lived process (a CLI replay) uses
:func:`scoped`, which puts the previous pair back when it is done.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs import instruments, registry, tracing
from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry, Sample, StageTiming
from repro.obs.slo import (
    DEFAULT_BURN_RULES,
    BurnRateRule,
    ObsAlert,
    SLODefinition,
    SLOStatus,
    SLOTracker,
    availability_sli,
    freshness_sli,
    latency_sli,
)
from repro.obs.timeseries import (
    MetricsScraper,
    ScrapeFrame,
    Series,
    TimeSeriesStore,
    series_id,
)
from repro.obs.tracing import Span, TraceLog, Tracer, record_paths, trace_tree

__all__ = [
    "MetricsRegistry",
    "Tracer",
    "TraceLog",
    "Span",
    "Sample",
    "StageTiming",
    "DEFAULT_BUCKETS",
    "record_paths",
    "trace_tree",
    "configure",
    "reset",
    "scoped",
    "metrics_registry",
    "tracer",
    "render_prometheus",
    "hot_paths",
    "next_instance",
    "instruments",
    "registry",
    "tracing",
    # metrics over time
    "MetricsScraper",
    "TimeSeriesStore",
    "ScrapeFrame",
    "Series",
    "series_id",
    # SLOs
    "SLODefinition",
    "SLOStatus",
    "SLOTracker",
    "ObsAlert",
    "BurnRateRule",
    "DEFAULT_BURN_RULES",
    "availability_sli",
    "latency_sli",
    "freshness_sli",
]

_registry = MetricsRegistry(enabled=True)
_tracer = Tracer(enabled=False)
_instance_counters: dict[str, int] = {}


def metrics_registry() -> MetricsRegistry:
    """The process-wide registry every tier instruments against."""
    return _registry


def tracer() -> Tracer:
    """The process-wide tracer every tier emits spans through."""
    return _tracer


def configure(
    metrics: bool | None = None,
    tracing: bool | None = None,
    sample_rate: float | None = None,
    trace_capacity: int | None = None,
    clock: Callable[[], float] | None = None,
) -> None:
    """Flip observability switches on the process-wide instances.

    Only the arguments given are touched, so callers can toggle one
    axis (say, tracing) without disturbing the rest.
    """
    if metrics is not None:
        _registry.enabled = metrics
    if tracing is not None:
        _tracer.enabled = tracing
    if sample_rate is not None:
        if not 0.0 <= sample_rate <= 1.0:
            from repro.errors import ObsError

            raise ObsError(f"sample_rate must be in [0, 1]: {sample_rate}")
        _tracer.sample_rate = sample_rate
    if trace_capacity is not None:
        _tracer.log = TraceLog(capacity=trace_capacity)
    if clock is not None:
        _registry.set_clock(clock)
        _tracer.set_clock(clock)


def reset(metrics: bool = True, tracing: bool = False) -> None:
    """Fresh registry + tracer (tests; long-lived REPLs between runs).

    Components wired against the *old* registry keep their old children
    — re-construct the platform after a reset, as tests do.
    """
    global _registry, _tracer
    _registry = MetricsRegistry(enabled=metrics)
    _tracer = Tracer(enabled=tracing)
    _instance_counters.clear()


@contextmanager
def scoped(
    tracing: bool = False,
    sample_rate: float | None = None,
    clock: Callable[[], float] | None = None,
) -> Iterator[None]:
    """A fresh registry + tracer (and instance counters) for one block.

    Inside, :func:`configure` and every component built there reach only
    the fresh pair.  On exit, also on an error, the previous pair comes
    back untouched (switches, sample rate, clocks), as do the counters.
    """
    global _registry, _tracer
    previous = _registry, _tracer, dict(_instance_counters)
    reset(tracing=tracing)
    try:
        configure(sample_rate=sample_rate, clock=clock)
        yield
    finally:
        _registry, _tracer = previous[0], previous[1]
        _instance_counters.clear()
        _instance_counters.update(previous[2])


def next_instance(prefix: str) -> str:
    """Allocate a stable per-process instance label (``pipeline-1``...)."""
    n = _instance_counters.get(prefix, 0) + 1
    _instance_counters[prefix] = n
    return f"{prefix}-{n}"


def render_prometheus() -> str:
    """The process-wide registry's full text exposition."""
    return _registry.render_prometheus()


def hot_paths() -> list[StageTiming]:
    """Every timed stage, hottest first — the ``obs top`` table."""
    return _registry.stage_timings()
