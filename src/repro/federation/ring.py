"""Consistent-hash placement of devices onto Hives.

The classic construction: each Hive contributes ``replicas`` virtual
nodes hashed onto a 32-bit ring, and a key is owned by the first virtual
node clockwise from its hash.  The properties that matter here:

- **deterministic** — placement is a pure function of (members,
  replicas, key); every member of the federation computes the same
  answer without coordination, and identical runs place identically;
- **stable** — adding or removing one Hive re-homes only the keys whose
  clockwise successor changed, ~1/N of the crowd, instead of reshuffling
  everyone the way ``hash(key) % N`` would.

Hashing uses :func:`zlib.crc32` like the store's shard routing — fast,
seedless, and stable across processes and Python versions (``hash()`` is
salted per process and would break determinism).
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import PlatformError


def _hash32(key: str) -> int:
    return zlib.crc32(key.encode())


@dataclass(frozen=True)
class PlacementDiff:
    """Which keys moved across one membership change."""

    moved: dict[str, tuple[str, str]] = field(default_factory=dict)

    @property
    def n_moved(self) -> int:
        return len(self.moved)


class ConsistentHashRing:
    """A consistent-hash ring of named nodes with virtual replicas."""

    def __init__(self, replicas: int = 128):
        if replicas <= 0:
            raise PlatformError(f"replicas must be positive: {replicas}")
        self.replicas = replicas
        self._nodes: set[str] = set()
        #: Sorted virtual-node hashes and the parallel owner list.
        self._hashes: list[int] = []
        self._owners: list[str] = []

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise PlatformError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = _hash32(f"{node}\x00vnode\x00{replica}")
            index = bisect.bisect(self._hashes, point)
            # CRC collisions between distinct vnodes are resolved by
            # insertion order; they only shift a hair of keyspace.
            self._hashes.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise PlatformError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        kept = [
            (point, owner)
            for point, owner in zip(self._hashes, self._owners)
            if owner != node
        ]
        self._hashes = [point for point, _ in kept]
        self._owners = [owner for _, owner in kept]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def place(self, key: str) -> str:
        """The node owning ``key`` (first virtual node clockwise)."""
        if not self._nodes:
            raise PlatformError("cannot place on an empty ring")
        index = bisect.bisect(self._hashes, _hash32(key))
        if index == len(self._hashes):  # wrap around the ring
            index = 0
        return self._owners[index]

    def placement(self, keys: Iterable[str]) -> dict[str, str]:
        """Batch placement: ``{key: node}``."""
        return {key: self.place(key) for key in keys}

    def diff(self, keys: Iterable[str], other: "ConsistentHashRing") -> PlacementDiff:
        """Keys whose owner differs between this ring and ``other``."""
        moved: dict[str, tuple[str, str]] = {}
        for key in keys:
            old = self.place(key)
            new = other.place(key)
            if old != new:
                moved[key] = (old, new)
        return PlacementDiff(moved=moved)

    def spread(self, keys: Iterable[str]) -> dict[str, int]:
        """Keys per node (load-balance check); includes empty nodes."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.place(key)] += 1
        return counts
