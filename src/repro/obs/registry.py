"""The metrics registry: labeled counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the *observable* surface of one
deployment: every tier registers its instruments here (labeled at least
by an ``instance`` unique in the registry), the ``obs`` surfaces and
scrapers read it, and :meth:`MetricsRegistry.render_prometheus` exposes
the deployment in the Prometheus text format — over the serving tier's
``obs`` surface or the ``python -m repro obs dump`` CLI.

Design constraints, in order:

- **one count per event** — a count a component already keeps in its
  ``*Stats`` object is exposed as a read view of that int
  (:meth:`_Family.read`), never mirrored, so the exposition and the
  component agree whatever the switch says;
- **the switch gates only timing** — ``configure(metrics=False)`` stops
  histograms observing (and the components skip the clock reads around
  them); counters and gauges always count;
- **cheap when enabled** — instrument *children* are resolved once at
  wiring time (``family.labels(...)``) and held by the instrumented
  component, so the hot path is an attribute load + int add, never a
  dict lookup by label values;
- **sim-clock aware** — the registry can carry the deployment's
  simulator clock; the exposition then reports ``repro_sim_time_seconds``
  so scrapes are placeable on the simulated axis, and instruments that
  measure *simulated* durations share one clock source.

Wall-clock durations (flush timing, scan timing...) use
``time.perf_counter`` — they measure the reproduction's real hot paths,
which is what the HPRM-style latency decomposition needs.
"""

from __future__ import annotations

import bisect
import math
import weakref
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import ObsError

#: Default latency buckets (seconds): 100us .. 10s, roughly log-spaced.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    10.0,
)

_KINDS = ("counter", "gauge", "histogram")


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ObsError(f"invalid metric name {name!r}")


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    return "{" + ",".join(parts) + "}" if parts else ""


def bucket_quantile(
    q: float, edges: Sequence[float], cumulative: Iterable[float], total: float
) -> float:
    """The q-quantile of ``total`` observations counted ``cumulative`` at or
    below each finite ``le`` edge: the q-th observation's bucket edge,
    linearly interpolated inside it (past the last edge, that edge)."""
    if not 0.0 <= q <= 1.0:
        raise ObsError(f"quantile must be in [0, 1]: {q}")
    if total <= 0:
        return 0.0
    rank = q * total
    seen = 0.0
    lower = 0.0
    for edge, upto in zip(edges, cumulative):
        in_bucket = upto - seen
        if upto >= rank and in_bucket > 0:
            fraction = (rank - seen) / in_bucket
            return lower + (edge - lower) * min(1.0, max(0.0, fraction))
        seen = upto
        lower = edge
    return edges[-1] if edges else 0.0


class _Child:
    """Base of all per-label-set instruments."""

    __slots__ = ("_registry", "labels")

    def __init__(self, registry: "MetricsRegistry", labels: tuple[tuple[str, str], ...]):
        self._registry = registry
        self.labels = labels


class _Reading(_Child):
    """A counter's or gauge's number: held here, or read from a function."""

    __slots__ = ("_value", "_fn")

    def __init__(self, registry, labels):
        super().__init__(registry, labels)
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the value from ``fn`` at observation time: a component's
        own int (capture its small stats object, never the component or
        its data — the registry outlives it) or a live level."""
        self._fn = fn

    def read_weakly(self, component: object, attr: str) -> None:
        """Read a live level, ``component.attr``, without keeping the
        component alive: the view reads 0 once it is collected."""
        ref = weakref.ref(component)
        self._fn = lambda: getattr(ref(), attr, 0)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Counter(_Reading):
    """A monotonically increasing count."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(f"counters only go up; inc({amount})")
        self._value += amount


class Gauge(_Reading):
    """A value that goes up and down — settable or callback-backed."""

    __slots__ = ()

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram(_Child):
    """Fixed-bucket distribution: cumulative counts + sum + count."""

    __slots__ = ("buckets", "bucket_counts", "_sum", "_count")

    def __init__(self, registry, labels, buckets: Sequence[float]):
        super().__init__(registry, labels)
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +inf tail
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate; see :func:`bucket_quantile`."""
        counts = accumulate(self.bucket_counts)
        return bucket_quantile(q, self.buckets, counts, self._count)


class _Family:
    """One registered metric: a name, a kind, and its labeled children."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ):
        self._registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: dict[tuple[tuple[str, str], ...], _Child] = {}

    def labels(self, **labels: str) -> Counter | Gauge | Histogram:
        """The child instrument for one label set (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ObsError(
                f"{self.name} takes labels {self.labelnames}, got {tuple(labels)}"
            )
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter(self._registry, key)
            elif self.kind == "gauge":
                child = Gauge(self._registry, key)
            else:
                assert self.buckets is not None
                child = Histogram(self._registry, key, self.buckets)
            self._children[key] = child
            self._registry.version += 1
        return child

    def read(self, stats: object, field: str, **labels: str) -> None:
        """Make the child for ``labels`` a read view of ``stats.field``: the
        one count the component keeps, never mirrored."""
        self.labels(**labels).set_function(partial(getattr, stats, field))

    def children(self) -> Iterator[tuple[tuple[tuple[str, str], ...], _Child]]:
        yield from sorted(self._children.items())


class Sample:
    """One exposition row: a fully-expanded series name, labels, value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...], value: float):
        self.name = name
        self.labels = labels
        self.value = value

    @property
    def series(self) -> str:
        """The rendered series identity (``name{label="v",...}``)."""
        return self.name + _render_labels(self.labels)

    def to_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class StageTiming:
    """One row of the hot-path table (``obs top``)."""

    __slots__ = ("stage", "count", "total_seconds", "p50", "p99")

    def __init__(self, stage: str, count: int, total: float, p50: float, p99: float):
        self.stage = stage
        self.count = count
        self.total_seconds = total
        self.p50 = p50
        self.p99 = p99

    @property
    def mean(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """The JSON row (``obs top --json``, the server's ``obs top``)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def to_text(self) -> str:
        return (
            f"{self.stage:<44} {self.count:>9} calls  "
            f"total {self.total_seconds * 1e3:>9.1f}ms  "
            f"mean {self.mean * 1e6:>8.1f}us  "
            f"p50 {self.p50 * 1e6:>8.1f}us  p99 {self.p99 * 1e6:>9.1f}us"
        )


class MetricsRegistry:
    """One deployment's instrument registry with a text exposition."""

    def __init__(self, enabled: bool = True, clock: Callable[[], float] | None = None):
        self.enabled = enabled
        self._clock = clock
        self._families: dict[str, _Family] = {}
        self._instances: dict[str, int] = {}
        #: Topology counter: bumped whenever a family or child appears,
        #: so scrapers can cache their flat reader lists and only
        #: rebuild when the set of live series actually changed.
        self.version = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> _Family:
        assert kind in _KINDS
        _validate_name(name)
        names = tuple(labelnames)
        existing = self._families.get(name)
        if existing is not None:
            # Idempotent on purpose: every component instance wires the
            # same families; only a *shape* change is a bug.
            if existing.kind != kind or set(existing.labelnames) != set(names):
                raise ObsError(
                    f"metric {name!r} already registered as {existing.kind}"
                    f"{existing.labelnames}; cannot re-register as {kind}{names}"
                )
            return existing
        family = _Family(
            self,
            name,
            kind,
            help,
            names,
            tuple(buckets) if buckets is not None else None,
        )
        self._families[name] = family
        self.version += 1
        return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _Family:
        return self._register(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _Family:
        return self._register(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> _Family:
        if not buckets or list(buckets) != sorted(buckets):
            raise ObsError(f"histogram buckets must be sorted and non-empty: {buckets}")
        return self._register(name, "histogram", help, labelnames, buckets)

    def next_instance(self, prefix: str) -> str:
        """An ``instance`` label unique in this registry (``pipeline-1``...)."""
        n = self._instances[prefix] = self._instances.get(prefix, 0) + 1
        return f"{prefix}-{n}"

    def set_clock(self, clock: Callable[[], float] | None) -> None:
        """Bind the deployment's simulator clock (sim-time exposition)."""
        self._clock = clock

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def families(self) -> list[str]:
        return sorted(self._families)

    def family(self, name: str) -> _Family:
        if name not in self._families:
            raise ObsError(f"unknown metric {name!r}")
        return self._families[name]

    def value(self, name: str, labels: Mapping[str, str] | None = None) -> float:
        """One counter/gauge child's value; 0.0 when the child never fired."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        key = _label_key(labels or {})
        child = family._children.get(key)
        if child is None:
            return 0.0
        if isinstance(child, Histogram):
            return float(child.count)
        return child.value

    def total(self, name: str, **match: str) -> float:
        """Sum of a family's children whose labels include ``match``."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        want = set(_label_key(match))
        total = 0.0
        for key, child in family._children.items():
            if want <= set(key):
                total += child.count if isinstance(child, Histogram) else child.value
        return total

    def stage_timings(self) -> list[StageTiming]:
        """Every ``*_seconds`` histogram child as a hot-path row, hottest
        (largest total time) first — the ``obs top`` table."""
        rows = []
        for name in self.families:
            family = self._families[name]
            if family.kind != "histogram" or not name.endswith("_seconds"):
                continue
            for key, child in family.children():
                assert isinstance(child, Histogram)
                if not child.count:
                    continue
                rows.append(
                    StageTiming(
                        stage=name + _render_labels(key),
                        count=child.count,
                        total=child.sum,
                        p50=child.quantile(0.50),
                        p99=child.quantile(0.99),
                    )
                )
        rows.sort(key=lambda r: r.total_seconds, reverse=True)
        return rows

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------

    def exposition(self) -> list["Sample"]:
        """Every live series as a structured :class:`Sample` row.

        This is the machine-readable twin of :meth:`render_prometheus`
        (``obs dump --json``, the scraper, the serving tier's ``obs``
        surface all read it): counters and gauges emit one row per
        child, and every histogram family expands to the
        Prometheus-conventional series — cumulative ``<name>_bucket``
        rows per ``le`` edge (``+Inf`` included) **plus** the
        ``<name>_sum`` and ``<name>_count`` rows, so rate/quantile math
        over scrapes never needs the raw bucket layout.
        """
        samples: list[Sample] = []
        if self._clock is not None:
            samples.append(Sample("repro_sim_time_seconds", (), float(self._clock())))
        for name in self.families:
            for key, child in self._families[name].children():
                samples.extend(Sample(*row) for row in _rows(name, key, child))
        return samples

    def render_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        lines: list[str] = []
        if self._clock is not None:
            lines.append("# TYPE repro_sim_time_seconds gauge")
            lines.append(f"repro_sim_time_seconds {_format(self._clock())}")
        for name in self.families:
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, child in family.children():
                for series, labels, value in _rows(name, key, child):
                    lines.append(f"{series}{_render_labels(labels)} {_format(value)}")
        return "\n".join(lines) + "\n"


def _rows(
    name: str, key: tuple[tuple[str, str], ...], child: _Child
) -> Iterator[tuple[str, tuple[tuple[str, str], ...], float]]:
    """One child's exposition rows: ``(series name, labels, value)``."""
    if not isinstance(child, Histogram):
        yield name, key, float(child.value)
        return
    cumulative = 0
    for edge, in_bucket in zip(child.buckets, child.bucket_counts):
        cumulative += in_bucket
        yield f"{name}_bucket", key + (("le", _format(edge)),), float(cumulative)
    cumulative += child.bucket_counts[-1]
    yield f"{name}_bucket", key + (("le", "+Inf"),), float(cumulative)
    yield f"{name}_sum", key, float(child.sum)
    yield f"{name}_count", key, float(child.count)


def _format(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
