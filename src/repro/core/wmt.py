"""The Way-Map Table (§III-D, Fig 9).

The WMT lives at the *home* cache and shadows the remote cache's
layout: one entry per remote (set, way). Each entry holds a
*normalized HomeLID* — (alias, home way), where the alias is the home
set index with the remote index bits stripped — plus a valid bit.

Two translations come out of this single structure:

- **HomeLID → RemoteLID** (compression path): derive the remote index
  from the home index's low bits, normalize the HomeLID, and search
  the WMT row; a hit's position *is* the remote way (Fig 9). A miss
  means the line is not guaranteed resident remotely and cannot be a
  reference.
- **RemoteLID → HomeLID** (write-back path, §III-G): the remote cache
  has no WMT and just sends its own LineID; the home cache reads
  WMT[index][way] and denormalizes.

Because it is installed/invalidated from the way-replacement info in
every request, the WMT tracks remote contents precisely, which is what
decouples CABLE from the replacement policy (§II-C).
"""

from __future__ import annotations

import struct
from typing import Callable, List, NamedTuple, Optional

from repro.cache.setassoc import CacheGeometry, LineId
from repro.core.errors import SnapshotCorruptionError


class NormalizedHomeLid(NamedTuple):
    """(alias, home way): a HomeLID with the remote index bits removed.

    A NamedTuple rather than a dataclass: WMT rows are compared against
    a wanted entry on every reference-translation probe, and tuple
    equality runs in C.
    """

    alias: int
    home_way: int


class WayMapTable:
    """Home-side shadow of the remote cache's (set, way) layout."""

    def __init__(self, home: CacheGeometry, remote: CacheGeometry) -> None:
        if home.sets < remote.sets:
            raise ValueError("home cache must have at least as many sets as remote")
        if home.sets % remote.sets:
            raise ValueError("home/remote set counts must nest (powers of two)")
        self.home = home
        self.remote = remote
        self.alias_bits = home.index_bits - remote.index_bits
        self._remote_index_mask = remote.sets - 1
        # Width constants consulted on every translation (hot path).
        self._home_way_bits = home.way_bits
        self._home_way_mask = (1 << home.way_bits) - 1
        self._remote_way_bits = remote.way_bits
        self._remote_index_bits = remote.index_bits
        self._entries: List[List[Optional[NormalizedHomeLid]]] = [
            [None] * remote.ways for _ in range(remote.sets)
        ]
        self.stats = {"installs": 0, "invalidations": 0, "hits": 0, "misses": 0}
        #: Durability hook (:class:`repro.state.manager.EndpointStateManager`):
        #: when set, every effective mutation is reported as
        #: ``journal(op, *args)``. One attribute check on the hot path.
        self.journal: Optional[Callable] = None

    # ------------------------------------------------------------------
    # Geometry / overhead
    # ------------------------------------------------------------------

    @property
    def entry_bits(self) -> int:
        """Bits per WMT entry: alias + home way + valid."""
        return self.alias_bits + self.home.way_bits + 1

    @property
    def storage_bits(self) -> int:
        return self.entry_bits * self.remote.sets * self.remote.ways

    def overhead_vs_home_data(self) -> float:
        """WMT storage as a fraction of home-cache data (Table III)."""
        return self.storage_bits / (self.home.size_bytes * 8)

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------

    def normalize(self, home_lid: LineId) -> NormalizedHomeLid:
        home_index, home_way = home_lid.unpack(self._home_way_bits)
        return NormalizedHomeLid(home_index >> self._remote_index_bits, home_way)

    def denormalize(self, entry: NormalizedHomeLid, remote_index: int) -> LineId:
        home_index = (entry.alias << self._remote_index_bits) | remote_index
        return LineId.pack(home_index, entry.home_way, self._home_way_bits)

    def remote_index_of(self, home_lid: LineId) -> int:
        home_index, __ = home_lid.unpack(self._home_way_bits)
        return home_index & self._remote_index_mask

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------

    def remote_lid_for(self, home_lid: LineId) -> Optional[LineId]:
        """HomeLID → RemoteLID, or None when not resident remotely."""
        home_index = home_lid >> self._home_way_bits
        remote_index = home_index & self._remote_index_mask
        wanted = (
            home_index >> self._remote_index_bits,
            home_lid & self._home_way_mask,
        )
        for way, entry in enumerate(self._entries[remote_index]):
            if entry == wanted:
                self.stats["hits"] += 1
                return LineId.pack(remote_index, way, self._remote_way_bits)
        self.stats["misses"] += 1
        return None

    def home_lid_for(self, remote_lid: LineId) -> Optional[LineId]:
        """RemoteLID → HomeLID (write-back translation, §III-G)."""
        remote_index, remote_way = remote_lid.unpack(self.remote.way_bits)
        entry = self._entries[remote_index][remote_way]
        if entry is None:
            return None
        return self.denormalize(entry, remote_index)

    # ------------------------------------------------------------------
    # Maintenance (driven by sync events)
    # ------------------------------------------------------------------

    def install(self, home_lid: LineId, remote_lid: LineId) -> Optional[LineId]:
        """Record that the home line now resides at *remote_lid*.

        Returns the HomeLID previously tracked in that remote slot (the
        displaced line), which sync uses to invalidate its signatures.
        """
        remote_index, remote_way = remote_lid.unpack(self.remote.way_bits)
        if (remote_index & self._remote_index_mask) != self.remote_index_of(home_lid):
            raise ValueError("home line cannot map to that remote set")
        previous = self._entries[remote_index][remote_way]
        displaced = self.denormalize(previous, remote_index) if previous else None
        self._entries[remote_index][remote_way] = self.normalize(home_lid)
        self.stats["installs"] += 1
        if self.journal is not None:
            self.journal("wmt_install", int(home_lid), int(remote_lid))
        return displaced

    def invalidate_remote(self, remote_lid: LineId) -> Optional[LineId]:
        """Clear a remote slot, returning the HomeLID it tracked."""
        remote_index, remote_way = remote_lid.unpack(self.remote.way_bits)
        previous = self._entries[remote_index][remote_way]
        self._entries[remote_index][remote_way] = None
        if previous is None:
            return None
        self.stats["invalidations"] += 1
        if self.journal is not None:
            self.journal("wmt_inval_remote", int(remote_lid))
        return self.denormalize(previous, remote_index)

    def invalidate_home(self, home_lid: LineId) -> Optional[LineId]:
        """Clear the slot tracking *home_lid* (home-side eviction)."""
        remote_index = self.remote_index_of(home_lid)
        wanted = self.normalize(home_lid)
        for way, entry in enumerate(self._entries[remote_index]):
            if entry == wanted:
                self._entries[remote_index][way] = None
                self.stats["invalidations"] += 1
                if self.journal is not None:
                    self.journal("wmt_inval_home", int(home_lid))
                return LineId.pack(remote_index, way, self.remote.way_bits)
        return None

    def occupancy(self) -> int:
        return sum(
            1 for row in self._entries for entry in row if entry is not None
        )

    # ------------------------------------------------------------------
    # Durability (snapshot / restore, repro.state)
    # ------------------------------------------------------------------

    _SNAP_HEADER = struct.Struct("<HH")
    _SNAP_ENTRY = struct.Struct("<iH")  # alias (-1 = invalid), home way

    def snapshot_state(self) -> bytes:
        """Serialize the full table for a durability snapshot."""
        parts = [self._SNAP_HEADER.pack(self.remote.sets, self.remote.ways)]
        pack = self._SNAP_ENTRY.pack
        for row in self._entries:
            for entry in row:
                if entry is None:
                    parts.append(pack(-1, 0))
                else:
                    parts.append(pack(entry.alias, entry.home_way))
        return b"".join(parts)

    def restore_state(self, data: bytes) -> None:
        """Rebuild the table from :meth:`snapshot_state` output."""
        header = self._SNAP_HEADER
        entry_struct = self._SNAP_ENTRY
        expected = header.size + entry_struct.size * self.remote.sets * self.remote.ways
        if len(data) != expected:
            raise SnapshotCorruptionError(
                f"WMT snapshot is {len(data)} bytes, expected {expected}"
            )
        sets, ways = header.unpack_from(data, 0)
        if sets != self.remote.sets or ways != self.remote.ways:
            raise SnapshotCorruptionError(
                f"WMT snapshot geometry {sets}x{ways} does not match "
                f"{self.remote.sets}x{self.remote.ways}"
            )
        offset = header.size
        entries: List[List[Optional[NormalizedHomeLid]]] = []
        for _ in range(sets):
            row: List[Optional[NormalizedHomeLid]] = []
            for _ in range(ways):
                alias, home_way = entry_struct.unpack_from(data, offset)
                offset += entry_struct.size
                row.append(
                    None if alias < 0 else NormalizedHomeLid(alias, home_way)
                )
            entries.append(row)
        self._entries = entries

    def reset_state(self) -> None:
        """Wipe to cold state (endpoint crash, before restore)."""
        self._entries = [
            [None] * self.remote.ways for _ in range(self.remote.sets)
        ]
