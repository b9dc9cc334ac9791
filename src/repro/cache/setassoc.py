"""Set-associative cache with explicit LineIDs.

A *LineID* in the paper is the (index, way) pair locating a line inside
a cache (HomeLID for the home cache, RemoteLID for the remote cache,
§Table I). LineIDs are what the hash table stores and what crosses the
link as reference pointers, so the cache exposes them directly and
supports data-array reads by LineID without a tag check — the cheap
access the search pipeline relies on (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.cache.line import CacheLine, CoherenceState
from repro.cache.replacement import LruPolicy, ReplacementPolicy
from repro.util.bits import bits_for


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/line-size triple with derived index math."""

    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError("cache size must be a whole number of sets")
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets & (sets - 1):
            raise ValueError("set count must be a power of two")
        # The derived widths are consulted on every LineID pack/unpack
        # in the search pipeline; compute them once (the dataclass is
        # frozen, hence the object.__setattr__).
        object.__setattr__(self, "_sets", sets)
        object.__setattr__(self, "_index_bits", bits_for(sets))
        object.__setattr__(self, "_way_bits", bits_for(self.ways))

    @property
    def sets(self) -> int:
        return self._sets

    @property
    def index_bits(self) -> int:
        return self._index_bits

    @property
    def way_bits(self) -> int:
        return self._way_bits

    @property
    def lines(self) -> int:
        return self._sets * self.ways

    @property
    def lineid_bits(self) -> int:
        """Width of a LineID (index + way) for this geometry."""
        return self._index_bits + self._way_bits


class LineId(int):
    """A packed (index, way) pair.

    Subclassing int keeps LineIDs hashable and cheap while letting the
    code unpack them symbolically.
    """

    __slots__ = ()

    @staticmethod
    def pack(index: int, way: int, way_bits: int) -> "LineId":
        return LineId((index << way_bits) | way)

    def unpack(self, way_bits: int) -> Tuple[int, int]:
        return int(self) >> way_bits, int(self) & ((1 << way_bits) - 1)


class SetAssociativeCache:
    """A set-associative cache storing :class:`CacheLine` objects.

    A line address's set is its low bits (``addr & (sets - 1)``; the
    set count is a power of two) and its tag is the full line address
    (see :class:`CacheLine`). The hot paths below do this arithmetic,
    and LineID packing, inline with shifts and masks.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: Optional[ReplacementPolicy] = None,
        name: str = "cache",
    ) -> None:
        self.geometry = geometry
        self.policy = policy or LruPolicy()
        self.name = name
        self._set_mask = geometry.sets - 1
        self._way_bits = geometry.way_bits
        self._way_mask = (1 << geometry.way_bits) - 1
        self._sets: List[List[Optional[CacheLine]]] = [
            [None] * geometry.ways for _ in range(geometry.sets)
        ]
        self._clock = 0
        self.stats = {"hits": 0, "misses": 0, "evictions": 0, "data_reads": 0}

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def index_of(self, line_addr: int) -> int:
        """Set index for a line address."""
        return line_addr & self._set_mask

    def lineid(self, index: int, way: int) -> LineId:
        return LineId((index << self._way_bits) | way)

    def lineid_of_addr(self, line_addr: int) -> Optional[LineId]:
        hit = self.lookup(line_addr, touch=False)
        if hit is None:
            return None
        return self.lineid(line_addr & self._set_mask, hit[0])

    # ------------------------------------------------------------------
    # Lookup / install / evict
    # ------------------------------------------------------------------

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[Tuple[int, CacheLine]]:
        """Tag-check lookup; returns (way, line) on hit."""
        index = line_addr & self._set_mask
        for way, line in enumerate(self._sets[index]):
            if line is not None and line.tag == line_addr:
                if touch:
                    self._clock += 1
                    line.last_access = self._clock
                    self.policy.touch(index, way)
                    self.stats["hits"] += 1
                return way, line
        if touch:
            self.stats["misses"] += 1
        return None

    def choose_victim_way(self, line_addr: int) -> int:
        """Pick the way a new line for *line_addr* would displace.

        This is the *way-replacement info* that remote caches embed in
        their requests (§II-C); the home cache uses it to track remote
        evictions without explicit notices.
        """
        index = line_addr & self._set_mask
        ways = self._sets[index]
        for way, line in enumerate(ways):
            if line is None:
                return way  # empty ways are always preferred
        return self.policy.victim(index, ways)

    def install(
        self,
        line_addr: int,
        data: bytes,
        state: CoherenceState = CoherenceState.SHARED,
        dirty: bool = False,
        way: Optional[int] = None,
    ) -> Tuple[int, Optional[CacheLine]]:
        """Install a line, returning (way, displaced_line_or_None)."""
        if len(data) != self.geometry.line_bytes:
            raise ValueError(
                f"line data is {len(data)}B, geometry wants {self.geometry.line_bytes}B"
            )
        index = line_addr & self._set_mask
        if way is None:
            way = self.choose_victim_way(line_addr)
        if not 0 <= way < self.geometry.ways:
            raise ValueError(f"way {way} out of range")
        victim = self._sets[index][way]
        if victim is not None:
            self.stats["evictions"] += 1
        self._clock += 1
        self._sets[index][way] = CacheLine(
            tag=line_addr,
            data=data,
            state=state,
            dirty=dirty,
            last_access=self._clock,
        )
        self.policy.installed(index, way)
        return way, victim

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Remove a line by address, returning it if present."""
        hit = self.lookup(line_addr, touch=False)
        if hit is None:
            return None
        way, line = hit
        self._sets[line_addr & self._set_mask][way] = None
        return line

    def evict_lineid(self, lid: LineId) -> Optional[CacheLine]:
        """Remove a line by LineID, returning it if present."""
        index, way = lid.unpack(self._way_bits)
        line = self._sets[index][way]
        self._sets[index][way] = None
        return line

    # ------------------------------------------------------------------
    # Data-array access (no tag check) — the cheap read of §III-C
    # ------------------------------------------------------------------

    def read_by_lineid(self, lid: LineId) -> Optional[CacheLine]:
        index = lid >> self._way_bits
        if not 0 <= index <= self._set_mask:
            return None
        ways = self._sets[index]
        way = lid & self._way_mask
        if way >= len(ways):
            return None
        self.stats["data_reads"] += 1
        return ways[way]

    def peek(self, index: int, way: int) -> Optional[CacheLine]:
        """Inspect without counting a data read (tests/diagnostics)."""
        return self._sets[index][way]

    # ------------------------------------------------------------------
    # Iteration / contents
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[LineId, CacheLine]]:
        for index, ways in enumerate(self._sets):
            for way, line in enumerate(ways):
                if line is not None:
                    yield self.lineid(index, way), line

    def resident_addresses(self) -> List[int]:
        return [line.tag for __, line in self]

    def occupancy(self) -> int:
        return sum(1 for __ in self)

    def contains(self, line_addr: int) -> bool:
        return self.lookup(line_addr, touch=False) is not None
