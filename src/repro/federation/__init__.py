"""The federation tier: multi-Hive scale-out (paper Section 2).

"One of the benefits of building a common platform like APISENSE lies in
the federation of communities of mobile users."  A single Hive owns one
community, one ingest pipeline and one columnar store; the federation
tier composes many such Hives into one logical platform:

- :class:`~repro.federation.ring.ConsistentHashRing` places devices onto
  Hives deterministically and stays stable under membership change (a
  join/leave re-homes only ~1/N of the crowd);
- :class:`~repro.federation.router.FederationRouter` runs the control
  plane: membership (join/leave), failure/rejoin injection with
  automatic re-homing of orphaned devices, task syndication and
  membership gossip carried over the same lossy
  :class:`~repro.apisense.transport.Transport` as everything else;
- :class:`~repro.federation.query.FederatedDataset` is the query plane:
  one scan/aggregate view fanned out over every member Hive's
  :class:`~repro.store.DatasetStore` and merged;
- :class:`~repro.federation.streams.FederatedStreamMerger` is the live
  plane: the members' windowed stream views (see :mod:`repro.streams`)
  folded into one federation-wide dashboard at read time (count-sum,
  cell-union, quantile-bucket-sum);
- :func:`~repro.federation.health.federation_snapshot` aggregates the
  member dashboards into one :class:`~repro.federation.health.
  FederationHealthReport`.

There is no single data point of coordination: placement is a pure
function of the ring (every member can compute it), data stays in the
owning Hive's store, and queries merge at read time.
"""

from repro.federation.health import (
    FederationHealthReport,
    MemberHealth,
    federation_snapshot,
)
from repro.federation.query import (
    FederatedDataset,
    FederatedSecureAggregate,
    FederatedTaskAggregate,
)
from repro.federation.ring import ConsistentHashRing, PlacementDiff
from repro.federation.streams import FederatedStreamMerger, SecureWindowTotals
from repro.federation.router import (
    ControlPlaneStats,
    FederatedSyndicationReceipt,
    FederationRouter,
    MembershipEvent,
    MigrationEvent,
)

__all__ = [
    "ConsistentHashRing",
    "PlacementDiff",
    "FederationRouter",
    "MembershipEvent",
    "MigrationEvent",
    "ControlPlaneStats",
    "FederatedSyndicationReceipt",
    "FederatedDataset",
    "FederatedSecureAggregate",
    "FederatedStreamMerger",
    "FederatedTaskAggregate",
    "SecureWindowTotals",
    "FederationHealthReport",
    "MemberHealth",
    "federation_snapshot",
]
