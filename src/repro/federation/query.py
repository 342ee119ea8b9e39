"""The federated query plane: one view over every member's store.

Data collected by a federated crowd never congregates in one store —
each member Hive's :class:`~repro.store.DatasetStore` holds its shard of
the crowd's records.  :class:`FederatedDataset` gives readers back the
single-store API: a :meth:`~FederatedDataset.scan` fans the filtered
columnar scan out across every member store and merges the results
(re-interning user ids into one shared table), and
:meth:`~FederatedDataset.aggregate` folds the members' streaming
aggregates into one :class:`FederatedTaskAggregate`.

Because placement homes each device on exactly one member, the same
record is never stored twice — merged counts equal what a single
monolithic Hive would have collected, which is the federation's no-loss
/ no-duplication invariant (asserted by ``tests/federation/test_query.py``
and, at 1/2/4/8 hives, ``tests/federation/test_scaleout.py``).  The lag
percentiles are read off the sum of the members' lag sketches, so they
too are what one store holding every record would report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import StoreError
from repro.privacy.secure_aggregation import (
    ParticipantProfile,
    SecureAggregationPolicy,
    SecureAggregationSession,
    histogram_components,
)
from repro.store.dataset_store import ColumnarBatch, DatasetStore
from repro.store.summary import Summary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.router import FederationRouter
    from repro.obs import Obs
    from repro.simulation import FaultInjector


class FederatedTaskAggregate(Summary):
    """One task's all-time summaries merged across members
    (:meth:`~repro.store.summary.Summary.merge`); ``per_member`` holds
    each member's own."""

    __slots__ = ("per_member",)

    @property
    def users(self) -> frozenset[str]:
        return frozenset(self.user_counts)

    def to_text(self) -> str:
        lines = [
            f"federated task {self.task}: {self.records} records from "
            f"{self.n_users} users across {len(self.per_member)} hives, "
            f"{self.coverage_cells} coverage cells, "
            f"lag mean {self.lag_mean:.1f}s / p95 {self.lag_p95:.1f}s"
        ]
        for name in sorted(self.per_member):
            member = self.per_member[name]
            lines.append(
                f"  {name}: {member.records} records, {member.n_users} users, "
                f"{member.coverage_cells} cells, p95 {member.lag_p95:.1f}s"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class FederatedSecureAggregate:
    """Aggregates of one task computed without any aggregator seeing
    per-participant data (see :meth:`FederatedDataset.secure_aggregate`).

    ``records``/``value_count`` are exact (integers survive the
    fixed-point codec); ``value_sum`` matches the plaintext sum within
    codec tolerance (``0.5 * contributors / 10**decimals``).
    """

    task: str
    records: int
    value_count: int
    value_sum: float
    histogram: Mapping[str, int] | None
    contributors: int
    dropped: tuple[str, ...]
    protocol_split: Mapping[str, int]
    members: tuple[str, ...]

    @property
    def mean_value(self) -> float:
        return self.value_sum / self.value_count if self.value_count else 0.0

    def to_text(self) -> str:
        split = ", ".join(
            f"{name}:{count}" for name, count in sorted(self.protocol_split.items())
        )
        lines = [
            f"secure aggregate of {self.task}: {self.records} records from "
            f"{self.contributors} contributors across {len(self.members)} hives "
            f"({split}; {len(self.dropped)} dropped), "
            f"value sum {self.value_sum:.3f} / mean {self.mean_value:.3f}"
        ]
        if self.histogram is not None:
            for label, count in self.histogram.items():
                lines.append(f"  {label}: {count}")
        return "\n".join(lines)


class FederatedDataset:
    """Read-side federation: scans and aggregates over member stores."""

    def __init__(self, stores: Mapping[str, DatasetStore], obs: Obs | None = None):
        if not stores:
            raise StoreError("federated dataset needs at least one member store")
        self._stores = dict(stores)
        self._obs = obs  # for the secure-aggregation sessions it runs

    @classmethod
    def from_router(cls, router: "FederationRouter") -> "FederatedDataset":
        """The query view of a federation's current members.

        Down members are included: their stores are durable and the
        query plane reads storage, not processes.
        """
        return cls(
            {name: router.hive(name).store for name in router.member_names},
            obs=router.obs_context,
        )

    @property
    def member_names(self) -> list[str]:
        return sorted(self._stores)

    def store(self, name: str) -> DatasetStore:
        if name not in self._stores:
            raise StoreError(f"unknown federation member {name!r}")
        return self._stores[name]

    @property
    def tasks(self) -> list[str]:
        names: dict[str, None] = {}
        for store in self._stores.values():
            for task in store.tasks:
                names.setdefault(task, None)
        return list(names)

    @property
    def n_records(self) -> int:
        return sum(store.n_records for store in self._stores.values())

    # ------------------------------------------------------------------
    # Scan path
    # ------------------------------------------------------------------

    def scan(
        self,
        task: str,
        t0: float | None = None,
        t1: float | None = None,
        bbox=None,
        user: str | None = None,
    ) -> ColumnarBatch:
        """Fan a filtered columnar scan out and merge the results.

        Same filter semantics as :meth:`DatasetStore.scan`; the merged
        batch re-interns user ids into one federation-wide table (each
        member numbers its users independently).
        """
        merged_users: dict[str, int] = {}
        pieces: list[tuple[np.ndarray, ...]] = []
        for name in sorted(self._stores):
            batch = self._stores[name].scan(task, t0=t0, t1=t1, bbox=bbox, user=user)
            if not len(batch):
                continue
            remap = np.array(
                [
                    merged_users.setdefault(member_user, len(merged_users))
                    for member_user in batch.user_table
                ],
                dtype=np.int64,
            )
            pieces.append(
                (batch.time, batch.lat, batch.lon, batch.value, remap[batch.user_id])
            )
        if not pieces:
            empty = np.empty(0, dtype=np.float64)
            return ColumnarBatch(
                time=empty,
                lat=empty,
                lon=empty,
                value=empty,
                user_id=np.empty(0, dtype=np.int64),
                user_table=tuple(merged_users),
            )
        return ColumnarBatch(
            time=np.concatenate([p[0] for p in pieces]),
            lat=np.concatenate([p[1] for p in pieces]),
            lon=np.concatenate([p[2] for p in pieces]),
            value=np.concatenate([p[3] for p in pieces]),
            user_id=np.concatenate([p[4] for p in pieces]),
            user_table=tuple(merged_users),
        )

    def scan_time(self, task: str, t0: float, t1: float) -> ColumnarBatch:
        return self.scan(task, t0=t0, t1=t1)

    def scan_bbox(self, task: str, bbox) -> ColumnarBatch:
        return self.scan(task, bbox=bbox)

    def scan_user(self, task: str, user: str) -> ColumnarBatch:
        return self.scan(task, user=user)

    # ------------------------------------------------------------------
    # Aggregate path
    # ------------------------------------------------------------------

    def aggregate(self, task: str) -> FederatedTaskAggregate:
        """Merge the members' all-time summaries of one task.

        :meth:`~repro.store.summary.Summary.merge`, the fold that also
        assembles windows, merges every field exactly: users by name,
        cells by union, lag percentiles off the summed sketch buckets.
        Raises :class:`StoreError` when no member has data for the task.
        """
        summaries = {name: store.aggregates.get(task) for name, store in self._stores.items()}
        per_member = {name: s for name, s in summaries.items() if s is not None}
        if not per_member:
            raise StoreError(f"no aggregates for unknown task {task!r}")
        cell_degs = {self._stores[name].aggregates.cell_deg for name in per_member}
        if len(cell_degs) > 1:
            raise StoreError(
                f"members disagree on coverage cell size for {task!r}: "
                f"{sorted(cell_degs)}; coverage cells cannot be merged"
            )
        merged = FederatedTaskAggregate.merge(per_member.values(), task=task)
        merged.per_member = per_member
        return merged

    # ------------------------------------------------------------------
    # Secure aggregate path (the privacy tier)
    # ------------------------------------------------------------------

    def secure_aggregate(
        self,
        task: str,
        *,
        bin_edges: Sequence[float] | None = None,
        policy: SecureAggregationPolicy | None = None,
        profiles: Mapping[str, ParticipantProfile] | None = None,
        rng: random.Random | None = None,
        faults: "FaultInjector | None" = None,
        fault_prefix: str = "device:",
        down: "set[str] | frozenset[str]" = frozenset(),
    ) -> FederatedSecureAggregate:
        """Counts / sums / means / histograms, aggregator-obliviously.

        Every (member, user) pair with data for ``task`` becomes one
        protocol participant contributing its private partial vector —
        record count, scalar-value count and sum, plus one histogram
        bin-count per ``bin_edges`` bin (numpy convention: last bin
        closed).  The protocols guarantee the folding parties see only
        ciphertexts / masked integers; the decrypted federation totals
        equal the plaintext :meth:`aggregate`/:meth:`scan` results
        within fixed-point tolerance.

        ``profiles`` (user id -> :class:`ParticipantProfile`, e.g. from
        :meth:`repro.apisense.hive.Hive.secure_participants`) feeds the
        per-device protocol selection; users without a profile are
        treated as strong devices.  Dropouts come from ``down`` (user
        ids) and from ``faults`` (components ``{fault_prefix}{user}``);
        the returned totals cover the survivors only, and
        ``dropped`` lists who fell out.
        """
        components = ["records", "value_count", "value_sum"]
        if bin_edges is not None:
            components.extend(histogram_components(bin_edges))
        profiles = profiles or {}

        participants: list[ParticipantProfile] = []
        contributions: dict[str, list[float]] = {}
        expanded_down: set[str] = set()
        for name in sorted(self._stores):
            batch = self._stores[name].scan(task)
            if not len(batch):
                continue
            for uid in np.unique(batch.user_id):
                user = batch.user_table[int(uid)]
                mask = batch.user_id == uid
                values = batch.value[mask]
                finite = values[np.isfinite(values)]
                vector = [
                    float(mask.sum()),
                    float(len(finite)),
                    float(finite.sum()) if len(finite) else 0.0,
                ]
                if bin_edges is not None:
                    counts, _ = np.histogram(finite, bins=np.asarray(bin_edges, dtype=float))
                    vector.extend(float(c) for c in counts)
                base = profiles.get(user)
                pid = f"{name}:{user}"
                participants.append(
                    ParticipantProfile(
                        participant_id=pid,
                        battery=base.battery if base else None,
                        supports_paillier=base.supports_paillier if base else True,
                        member=name,
                    )
                )
                contributions[pid] = vector
                if user in down or pid in down:
                    expanded_down.add(pid)
                elif faults is not None and faults.is_down(f"{fault_prefix}{user}"):
                    expanded_down.add(pid)
        if not contributions:
            raise StoreError(f"no member holds records for task {task!r}")

        session = SecureAggregationSession(
            task,
            participants,
            components=components,
            policy=policy,
            rng=rng,
            obs=self._obs,
        )
        result = session.run(contributions, down=expanded_down)

        histogram = None
        if bin_edges is not None:
            histogram = {
                label: int(round(result.sums[label]))
                for label in components[3:]
            }
        return FederatedSecureAggregate(
            task=task,
            records=int(round(result.sums["records"])),
            value_count=int(round(result.sums["value_count"])),
            value_sum=result.sums["value_sum"],
            histogram=histogram,
            contributors=result.contributors,
            dropped=result.dropped,
            protocol_split=result.protocol_split,
            members=tuple(self.member_names),
        )
