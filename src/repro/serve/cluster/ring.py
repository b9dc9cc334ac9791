"""Consistent-hash ring + sticky session directory.

The ring answers "which worker *would* own this tag"; the directory
answers "which worker *does* own it". The distinction carries the
whole failover story: placement is consistent-hashed once, then
sticky, so a recovery can move a dead worker's tags to its buddy
without the ring's opinion yanking them back — and a later ring
change (the replacement worker joining) deliberately does NOT reshard
live sessions, because a session's state lives where its store
shipped, not where the hash says it should.

Stdlib only; hashing is :func:`hashlib.blake2b` over the tag/vnode
label so placement is stable across processes and Python runs
(``hash()`` is salted per process and would reshuffle the cluster on
every restart).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Set


def _point(label: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(label, digest_size=8).digest(), "big")


class HashRing:
    """Consistent hashing with virtual nodes."""

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._points: List[int] = []  # sorted hash points
        self._owners: Dict[int, int] = {}  # point → node
        self.nodes: Set[int] = set()

    def add(self, node: int) -> None:
        if node in self.nodes:
            return
        self.nodes.add(node)
        for replica in range(self.vnodes):
            point = _point(b"%d:%d" % (node, replica))
            if point in self._owners:
                continue  # vanishing collision odds; first owner keeps it
            bisect.insort(self._points, point)
            self._owners[point] = node

    def remove(self, node: int) -> None:
        if node not in self.nodes:
            return
        self.nodes.discard(node)
        stale = [p for p, owner in self._owners.items() if owner == node]
        for point in stale:
            del self._owners[point]
            index = bisect.bisect_left(self._points, point)
            del self._points[index]

    def lookup(self, key: int) -> int:
        """The node owning *key* (clockwise successor of its point)."""
        if not self._points:
            raise LookupError("hash ring is empty")
        point = _point(b"tag:%d" % key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]


class SessionDirectory:
    """Sticky tag→worker placement over a :class:`HashRing`.

    ``lookup`` consults the sticky map first; only a never-seen tag
    asks the ring. Recovery drives the explicit transitions:
    :meth:`freeze` marks a dead worker's tags unroutable (the router
    refuses their connections, so a reconnect cannot race the
    promotion and land a duplicate tag), :meth:`reassign` moves them
    to the buddy and unfreezes.
    """

    def __init__(self, ring: Optional[HashRing] = None) -> None:
        self.ring = ring or HashRing()
        self.assignments: Dict[int, int] = {}  # tag → worker
        self.frozen: Set[int] = set()
        self.stats = {"placements": 0, "reassignments": 0}

    def lookup(self, tag: int) -> int:
        """Owning worker for *tag*; raises ``LookupError`` while the
        tag is frozen (mid-recovery) or the ring is empty."""
        if tag in self.frozen:
            raise LookupError(f"tag {tag:#x} is frozen (recovery in flight)")
        worker = self.assignments.get(tag)
        if worker is None:
            worker = self.ring.lookup(tag)
            self.assignments[tag] = worker
            self.stats["placements"] += 1
        return worker

    def tags_of(self, worker: int) -> List[int]:
        return [t for t, w in self.assignments.items() if w == worker]

    def freeze(self, tags: Iterable[int]) -> None:
        self.frozen.update(tags)

    def reassign(self, tags: Iterable[int], worker: int) -> None:
        for tag in tags:
            self.assignments[tag] = worker
            self.frozen.discard(tag)
            self.stats["reassignments"] += 1
