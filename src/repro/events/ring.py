"""Consistent-hash ring for topic-sharded broker placement.

The cluster engine partitions the broker's topic space across N shard
processes. Placement must be *stable* — every process in the cluster
(parent, workers, shards) must independently agree on which shard owns a
topic — so the ring hashes with MD5 rather than Python's ``hash()``,
which is salted per process (PYTHONHASHSEED) and would route the same
topic to different shards from different processes.

Classic Karger-style ring: each node is planted at ``vnodes`` points on
a 2^64 ring; a key is owned by the first node clockwise from the key's
hash. Virtual nodes smooth the partition sizes. A ring without one node
gives each key that node did not own to the same owner, so
:meth:`HashRing.preference` predicts where a key lands when a node is
gone (the cluster's restart path walks it past dead workers).

Routing note: wildcard subscriptions (``*``/``#`` patterns) cannot be
hashed to one shard — the cluster registers those on *every* shard and
relies on publishes hashing to exactly one shard to avoid duplicate
delivery.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import SafeWebError

__all__ = ["HashRing", "stable_hash"]


def stable_hash(key: str) -> int:
    """A 64-bit hash that is identical in every Python process."""
    digest = hashlib.md5(key.encode("utf-8", "surrogateescape")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring mapping string keys to named nodes."""

    DEFAULT_VNODES = 64

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise SafeWebError("vnodes must be >= 1")
        self._vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._keys: List[int] = []
        self._nodes: Dict[str, bool] = {}
        for node in nodes:
            self.add_node(node)

    # -- membership ----------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise SafeWebError(f"ring already contains node {node!r}")
        self._nodes[node] = True
        for replica in range(self._vnodes):
            self._points.append((stable_hash(f"{node}#{replica}"), node))
        self._rebuild()

    def _rebuild(self) -> None:
        self._points.sort()
        self._keys = [point for point, _node in self._points]

    # -- lookup --------------------------------------------------------------

    def node_for(self, key: str) -> str:
        """The node owning *key* (first clockwise from the key's hash)."""
        if not self._points:
            raise SafeWebError("hash ring is empty")
        index = bisect.bisect(self._keys, stable_hash(key))
        if index == len(self._keys):
            index = 0
        return self._points[index][1]

    def preference(self, key: str, count: int = 2) -> List[str]:
        """The first *count* distinct nodes clockwise from *key*.

        The head is :meth:`node_for`; the tail is where the key lands on a
        ring without the earlier nodes — the restart path's fallback order.
        """
        if not self._points:
            raise SafeWebError("hash ring is empty")
        found: List[str] = []
        start = bisect.bisect(self._keys, stable_hash(key))
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in found:
                found.append(node)
                if len(found) >= count:
                    break
        return found

    def partition(self, keys: Sequence[str]) -> Dict[str, List[str]]:
        """Group *keys* by owning node (every node present in the result)."""
        buckets: Dict[str, List[str]] = {node: [] for node in self.nodes}
        for key in keys:
            buckets[self.node_for(key)].append(key)
        return buckets
