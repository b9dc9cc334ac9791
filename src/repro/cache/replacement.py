"""Replacement policies.

CABLE is decoupled from replacement policy (§II-C) — it tracks remote
evictions precisely via the replacement-way info carried in requests —
so the substrate supports several policies to demonstrate that
independence in tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.util.rng import make_rng


class ReplacementPolicy(ABC):
    """Chooses a victim way within one set."""

    name: str = "abstract"

    @abstractmethod
    def victim(self, set_index: int, ways: Sequence) -> int:
        """Pick a way to evict from a full set. ``ways`` holds the
        resident :class:`~repro.cache.line.CacheLine` objects; the
        cache fills empty ways itself before it asks."""

    def touch(self, set_index: int, way: int) -> None:
        """Record an access (default: no state)."""

    def installed(self, set_index: int, way: int) -> None:
        """Record an installation (default: same as touch)."""
        self.touch(set_index, way)


class LruPolicy(ReplacementPolicy):
    """Least-recently-used via the lines' access stamps."""

    name = "lru"

    def victim(self, set_index: int, ways: Sequence) -> int:
        oldest_way = 0
        oldest_stamp = None
        for way, line in enumerate(ways):
            if oldest_stamp is None or line.last_access < oldest_stamp:
                oldest_stamp = line.last_access
                oldest_way = way
        return oldest_way


class FifoPolicy(ReplacementPolicy):
    """Round-robin within each set."""

    name = "fifo"

    def __init__(self) -> None:
        self._next: dict = {}

    def victim(self, set_index: int, ways: Sequence) -> int:
        way = self._next.get(set_index, 0)
        self._next[set_index] = (way + 1) % len(ways)
        return way


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim (deterministically seeded)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = make_rng(seed, "random-replacement")

    def victim(self, set_index: int, ways: Sequence) -> int:
        return self._rng.randrange(len(ways))


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    policies = {
        "lru": LruPolicy,
        "fifo": FifoPolicy,
        "random": lambda: RandomPolicy(seed),
    }
    try:
        return policies[name]()
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}") from None
