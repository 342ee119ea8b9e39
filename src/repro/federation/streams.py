"""Federation-wide live dashboards: merging member window snapshots.

A federated deployment runs one stream engine per member Hive; each
engine closes windows over its own slice of the crowd.  Because
placement homes every device on exactly one member, same-window member
snapshots partition the crowd's records — so folding them (count-sum,
cell-union, user-activity-sum, quantile-bucket-sum) reconstructs
exactly the view a single monolithic Hive's engine would have
materialized, percentile sketches included.

:class:`FederatedStreamMerger` does that fold at read time: no snapshot
shipping, no coordination — it reads the members' retained window
histories and merges on demand, mirroring how
:class:`~repro.federation.query.FederatedDataset` treats the batch
store.  Members close windows independently (their watermarks advance
with their own traffic), so merging anchors on the newest window
boundary **every** member has closed.
"""

from __future__ import annotations

import hashlib
import struct
import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping

from repro import obs as _obs
from repro.crypto import FixedPointCodec, MaskedAggregation, MaskingParticipant
from repro.errors import StreamError
from repro.obs.instruments import MergerInstruments
from repro.streams.engine import StreamEngine
from repro.streams.queries import StreamAlert
from repro.streams.views import WindowSnapshot, merge_snapshots

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.router import FederationRouter

#: Component order of the secure window fold (additive stats only).
SECURE_WINDOW_COMPONENTS = ("records", "value_count", "value_sum")


@dataclass(frozen=True)
class SecureWindowTotals:
    """One window's federation-wide additive totals, securely folded.

    Only the exactly-additive window state travels the masking protocol
    (record count, scalar-value count and sum) — cells and sketches are
    set/bucket-structured and stay member-local.  ``protocol`` records how
    the fold ran: ``"masking"`` for a real multi-member round,
    ``"plaintext"`` when a single member held the window (masking a
    cohort of one would hide nothing from anyone).
    """

    task: str
    view: str
    start: float
    end: float
    members: tuple[str, ...]
    records: int
    value_count: int
    value_sum: float
    protocol: str

    @property
    def rate(self) -> float:
        duration = self.end - self.start
        return self.records / duration if duration else 0.0

    @property
    def mean_value(self) -> float:
        return self.value_sum / self.value_count if self.value_count else 0.0

    def to_text(self) -> str:
        return (
            f"[{self.start:.0f},{self.end:.0f})s {self.task}/{self.view} (secure, "
            f"{len(self.members)} hives, {self.protocol}): {self.records} rec "
            f"({self.rate:.2f}/s), value mean {self.mean_value:.3f}"
        )


class FederatedStreamMerger:
    """One live windowed view over every member Hive's stream engine."""

    def __init__(
        self, engines: Mapping[str, StreamEngine], obs: _obs.Obs | None = None
    ):
        if not engines:
            raise StreamError("federated stream merger needs at least one engine")
        self._engines = dict(engines)
        obs = obs or _obs.default()
        self.obs = MergerInstruments(obs.registry)
        self._tracer = obs.tracer

    @classmethod
    def from_router(cls, router: "FederationRouter") -> "FederatedStreamMerger":
        """The live view of a federation's current members."""
        return cls(
            {name: router.hive(name).streams for name in router.member_names},
            obs=router.obs_context,
        )

    @property
    def member_names(self) -> list[str]:
        return sorted(self._engines)

    def engine(self, name: str) -> StreamEngine:
        if name not in self._engines:
            raise StreamError(f"unknown federation member {name!r}")
        return self._engines[name]

    @property
    def tasks(self) -> list[str]:
        names: set[str] = set()
        for engine in self._engines.values():
            names.update(engine.tasks)
        return sorted(names)

    @property
    def views(self) -> list[str]:
        """View names registered on every member (mergeable views)."""
        common: set[str] | None = None
        for engine in self._engines.values():
            names = set(engine.views)
            common = names if common is None else common & names
        return sorted(common or ())

    # ------------------------------------------------------------------
    # Merge path
    # ------------------------------------------------------------------

    def common_boundary(self, task: str, view: str) -> float | None:
        """The newest window end every member holding the view has closed.

        Members that never materialized (task, view) — e.g. no device of
        that task homed there yet — don't hold the federation back and
        are simply skipped.  A member that *has* ingested the task's
        records but not closed any window yet is pending, not idle:
        merging without it would under-count, so it pins the boundary to
        ``None`` until its first close.
        """
        ends = []
        for engine in self._engines.values():
            if view not in engine.views:
                continue
            latest = engine.latest(task, view)
            if latest is None:
                if task in engine.tasks:
                    return None  # ingested but nothing closed: wait
                continue
            ends.append(latest.end)
        return min(ends) if ends else None

    def merged(
        self, task: str, view: str, end: float | None = None
    ) -> WindowSnapshot:
        """Fold the members' snapshots of one window into one view.

        ``end`` selects the window by its close boundary (default: the
        newest boundary all members have reached, see
        :meth:`common_boundary`).  Members whose retained history does
        not include that window contribute nothing (their slice of the
        crowd was idle or the window aged out of their history).
        """
        if end is None:
            end = self.common_boundary(task, view)
            if end is None:
                raise StreamError(
                    f"no member has closed a window of {task!r}/{view!r} yet"
                )
        timed = self.obs.registry.enabled
        started = _time.perf_counter() if timed else 0.0
        pieces = []
        for engine in self._engines.values():
            if view not in engine.views:
                continue
            for snapshot in engine.snapshots(task, view):
                if snapshot.end == end:
                    pieces.append(snapshot)
                    break
        if not pieces:
            raise StreamError(
                f"no member retains the {task!r}/{view!r} window ending at {end}"
            )
        with self._tracer.span(
            "federation.merge", task=task, view=view, end=end, members=len(pieces)
        ):
            merged = merge_snapshots(pieces)
        self.obs.merges.inc()
        if timed:
            self.obs.merge_seconds.observe(_time.perf_counter() - started)
        return merged

    def history(self, task: str, view: str) -> list[WindowSnapshot]:
        """Every fully-merged retained window, oldest first.

        Only boundaries up to :meth:`common_boundary` are returned — a
        window some member has not closed yet would under-count.
        """
        horizon = self.common_boundary(task, view)
        if horizon is None:
            return []
        ends: set[float] = set()
        for engine in self._engines.values():
            if view not in engine.views:
                continue
            ends.update(
                s.end for s in engine.snapshots(task, view) if s.end <= horizon
            )
        return [self.merged(task, view, end=end) for end in sorted(ends)]

    # ------------------------------------------------------------------
    # Secure merge path (the privacy tier)
    # ------------------------------------------------------------------

    def secure_totals(
        self,
        task: str,
        view: str,
        end: float | None = None,
        *,
        decimals: int = 3,
        group_seed: bytes | None = None,
    ) -> SecureWindowTotals:
        """Fold one window's additive totals without reading pane state.

        Each member Hive acts as one masking participant: it blinds its
        per-window partials (record count, value count, value sum) with
        the pairwise masks before anything leaves the hive, so the
        merger — and every other hive — sees only uniformly masked
        integers whose sum unmasks to the federation totals.  The result
        matches :meth:`merged` exactly on counts and within fixed-point
        tolerance on ``value_sum``.

        ``group_seed`` is the cohort secret (shared at federation join
        time in a deployment); the default derives one from the (task,
        view) identity, and per-window/per-component mask streams are
        separated through the round id.
        """
        if end is None:
            end = self.common_boundary(task, view)
            if end is None:
                raise StreamError(
                    f"no member has closed a window of {task!r}/{view!r} yet"
                )
        pieces = list(self.iter_member_snapshots(task, view, end))
        if not pieces:
            raise StreamError(
                f"no member retains the {task!r}/{view!r} window ending at {end}"
            )
        members = tuple(name for name, _ in pieces)
        start = pieces[0][1].start
        if len(pieces) == 1:
            # A cohort of one cannot hide anything from itself; report
            # the member's own totals and say so.
            only = pieces[0][1]
            return SecureWindowTotals(
                task=task, view=view, start=start, end=end, members=members,
                records=only.records, value_count=only.value_count,
                value_sum=only.value_sum, protocol="plaintext",
            )
        codec = FixedPointCodec(decimals)
        seed = group_seed or f"fed-stream\x00{task}\x00{view}".encode()
        n = len(pieces)
        # Distinct mask streams per (window, component): the same cohort
        # seed serves every round without mask reuse.  The window tag
        # hashes the *exact* float boundary — truncating/rounding it
        # would collide fractional ends (e.g. 100.0 vs 100.5) and mask
        # reuse across windows leaks per-hive plaintext deltas.
        window_tag = int.from_bytes(
            hashlib.sha256(struct.pack(">d", end)).digest()[:7], "big"
        )
        round_base = window_tag * len(SECURE_WINDOW_COMPONENTS)
        totals: list[float] = []
        for offset, component in enumerate(SECURE_WINDOW_COMPONENTS):
            aggregation = MaskedAggregation(n, codec=codec)
            for position, (_name, snapshot) in enumerate(pieces):
                participant = MaskingParticipant(position, n, seed, codec=codec)
                aggregation.accept(
                    participant.masked_value(
                        float(getattr(snapshot, component)),
                        round_id=round_base + offset,
                    )
                )
            totals.append(aggregation.result_sum())
        return SecureWindowTotals(
            task=task,
            view=view,
            start=start,
            end=end,
            members=members,
            records=int(round(totals[0])),
            value_count=int(round(totals[1])),
            value_sum=totals[2],
            protocol="masking",
        )

    def secure_dashboard(self, view: str) -> str:
        """The live dashboard built from secure folds only."""
        lines = [
            f"federated secure dashboard ({len(self._engines)} hives, view {view!r})"
        ]
        for task in self.tasks:
            try:
                totals = self.secure_totals(task, view)
            except StreamError:
                lines.append(f"  {task}: no closed window yet")
                continue
            lines.append("  " + totals.to_text())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Alerts / dashboard
    # ------------------------------------------------------------------

    def alerts(self) -> list[tuple[str, StreamAlert]]:
        """Every member's retained alerts as (member, alert), by time."""
        merged: list[tuple[str, StreamAlert]] = []
        for name in sorted(self._engines):
            merged.extend((name, alert) for alert in self._engines[name].alerts.alerts())
        merged.sort(key=lambda pair: pair[1].time)
        return merged

    @property
    def unacknowledged_alerts(self) -> int:
        return sum(e.alerts.unacknowledged for e in self._engines.values())

    def dashboard(self, view: str) -> str:
        """One federation-wide live dashboard: every task's latest merged window."""
        lines = [
            f"federated live dashboard ({len(self._engines)} hives, view {view!r})"
        ]
        for task in self.tasks:
            try:
                snapshot = self.merged(task, view)
            except StreamError:
                lines.append(f"  {task}: no closed window yet")
                continue
            lines.append("  " + snapshot.to_text())
        unacked = self.unacknowledged_alerts
        lines.append(f"  alerts: {unacked} unacknowledged across the federation")
        return "\n".join(lines)

    def iter_member_snapshots(
        self, task: str, view: str, end: float
    ) -> Iterator[tuple[str, WindowSnapshot]]:
        """The per-member slices of one window (debugging / imbalance)."""
        for name in sorted(self._engines):
            engine = self._engines[name]
            if view not in engine.views:
                continue
            for snapshot in engine.snapshots(task, view):
                if snapshot.end == end:
                    yield name, snapshot
                    break
