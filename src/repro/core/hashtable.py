"""The signature hash table (§III-B).

A standard (non-CAM) SRAM structure mapping ``hash(signature) →
bucket of LineIDs``. It is deliberately inexact: different signatures
can land in the same bucket (hash collisions, Fig 7), and buckets only
hold two LineIDs by default, so lookups return *candidates* that the
search pipeline must verify against real data.

Sizing is expressed as a scale relative to "full-sized" — as many
entries as there are lines in the home cache (§IV-D). Fig 21 sweeps
the scale from 2× down to 1/2048× and relies on the graceful
degradation this FIFO-per-bucket design provides.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.setassoc import LineId
from repro.core.errors import SnapshotCorruptionError
from repro.obs.registry import METRICS

# Pre-bound registry mirrors. Lookups (≤16 per search) are left
# unmirrored on purpose — the search pipeline publishes probe counts in
# bulk — so the hot path pays nothing for observability here.
_CTR_INSERTS = METRICS.counter("hashtable.inserts")
_CTR_BUCKET_EVICTIONS = METRICS.counter("hashtable.bucket_evictions")


def _round_up_pow2(value: int) -> int:
    return 1 << max(value - 1, 0).bit_length()


class SignatureHashTable:
    """Bucketed signature → LineID index with FIFO bucket replacement."""

    def __init__(self, entries: int, bucket_entries: int = 2) -> None:
        if entries < 1:
            raise ValueError("hash table needs at least one entry")
        if bucket_entries < 1:
            raise ValueError("buckets need at least one slot")
        self.entries = _round_up_pow2(entries)
        self.bucket_entries = bucket_entries
        self._mask = self.entries - 1
        self._buckets: Dict[int, List[LineId]] = {}
        self.stats = {
            "inserts": 0,
            "bucket_evictions": 0,
            "lookups": 0,
            "hits": 0,
            "removals": 0,
            "stale_removals": 0,
        }
        #: Durability hook (:mod:`repro.state`): reports effective
        #: single-entry mutations. Bulk scrubs
        #: (:meth:`remove_lineid_everywhere`, :meth:`clear`) are *not*
        #: journaled — they happen during repair/resync, after which the
        #: manager cuts a fresh checkpoint; a replay that misses them
        #: only resurrects stale-but-in-range entries, which I3
        #: tolerates by design.
        self.journal: Optional[Callable] = None

    @classmethod
    def sized_for(
        cls, home_cache_lines: int, scale: float = 1.0, bucket_entries: int = 2
    ) -> "SignatureHashTable":
        """Build a table scaled relative to "full-sized" (§IV-D)."""
        entries = max(1, int(home_cache_lines * scale))
        return cls(entries=entries, bucket_entries=bucket_entries)

    def _slot(self, signature: int) -> int:
        # The signature is already an H3 hash; fold it onto the table.
        return (signature ^ (signature >> 16)) & self._mask

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, signature: int, lid: LineId) -> None:
        """Record that the line at *lid* produced *signature*.

        A LineID already present in the bucket is refreshed (moved to
        the newest slot) rather than duplicated; otherwise the oldest
        occupant falls out FIFO-style.
        """
        slot = self._slot(signature)
        bucket = self._buckets.setdefault(slot, [])
        if lid in bucket:
            bucket.remove(lid)
        bucket.append(lid)
        self.stats["inserts"] += 1
        if METRICS.enabled:
            _CTR_INSERTS.inc()
        while len(bucket) > self.bucket_entries:
            bucket.pop(0)
            self.stats["bucket_evictions"] += 1
            if METRICS.enabled:
                _CTR_BUCKET_EVICTIONS.inc()
        if self.journal is not None:
            self.journal("hash_insert", signature, int(lid))

    def remove(self, signature: int, lid: LineId) -> bool:
        """Remove *lid* from *signature*'s bucket if present (§III-F).

        Returns True when an entry was actually removed. A miss is
        normal — the entry may have aged out of the bucket already.
        """
        slot = self._slot(signature)
        bucket = self._buckets.get(slot)
        if bucket and lid in bucket:
            bucket.remove(lid)
            self.stats["removals"] += 1
            if self.journal is not None:
                self.journal("hash_remove", signature, int(lid))
            return True
        self.stats["stale_removals"] += 1
        return False

    def remove_lineid_everywhere(self, lid: LineId) -> int:
        """Scrub a LineID from all buckets (slow path; tests and the
        non-inclusive extension use it, hardware would not)."""
        removed = 0
        for bucket in self._buckets.values():
            while lid in bucket:
                bucket.remove(lid)
                removed += 1
        return removed

    def clear(self) -> None:
        self._buckets.clear()

    def reconfigure(self, entries: int, bucket_entries: int) -> None:
        """Re-shape the table in place (online knob tuning, §IV-D sweep).

        Drops every bucket — the caller must rebuild the index from
        cache ground truth afterwards and cut a fresh durability
        checkpoint (reshaping bypasses the journal, and old snapshots
        no longer match the new shape). Mutating in place rather than
        swapping the object keeps every live reference (pipelines,
        durability managers, journal shippers) valid.
        """
        if entries < 1:
            raise ValueError("hash table needs at least one entry")
        if bucket_entries < 1:
            raise ValueError("buckets need at least one slot")
        self.entries = _round_up_pow2(entries)
        self.bucket_entries = bucket_entries
        self._mask = self.entries - 1
        self._buckets.clear()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, signature: int) -> Tuple[LineId, ...]:
        """All candidate LineIDs in *signature*'s bucket (maybe stale,
        maybe collided — the search pipeline verifies)."""
        self.stats["lookups"] += 1
        bucket = self._buckets.get(self._slot(signature))
        if bucket:
            self.stats["hits"] += 1
            return tuple(bucket)
        return ()

    def occupancy(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def __contains__(self, signature: int) -> bool:
        bucket = self._buckets.get(self._slot(signature))
        return bool(bucket)

    # ------------------------------------------------------------------
    # Durability (snapshot / restore, repro.state)
    # ------------------------------------------------------------------

    _SNAP_HEADER = struct.Struct("<IHI")  # entries, bucket_entries, buckets
    _SNAP_BUCKET = struct.Struct("<IH")  # slot, occupant count
    _SNAP_LID = struct.Struct("<I")

    def snapshot_state(self) -> bytes:
        occupied = [
            (slot, bucket)
            for slot, bucket in sorted(self._buckets.items())
            if bucket
        ]
        parts = [
            self._SNAP_HEADER.pack(self.entries, self.bucket_entries, len(occupied))
        ]
        for slot, bucket in occupied:
            parts.append(self._SNAP_BUCKET.pack(slot, len(bucket)))
            for lid in bucket:
                parts.append(self._SNAP_LID.pack(int(lid) & 0xFFFFFFFF))
        return b"".join(parts)

    def restore_state(self, data: bytes) -> None:
        try:
            self._restore_state(data)
        except (struct.error, ValueError) as exc:
            raise SnapshotCorruptionError(
                f"hash-table snapshot unparseable: {exc}"
            ) from exc

    def _restore_state(self, data: bytes) -> None:
        entries, bucket_entries, count = self._SNAP_HEADER.unpack_from(data, 0)
        if entries != self.entries or bucket_entries != self.bucket_entries:
            raise SnapshotCorruptionError(
                f"hash-table snapshot shape {entries}/{bucket_entries} does "
                f"not match {self.entries}/{self.bucket_entries}"
            )
        offset = self._SNAP_HEADER.size
        buckets: Dict[int, List[LineId]] = {}
        for _ in range(count):
            slot, occupants = self._SNAP_BUCKET.unpack_from(data, offset)
            offset += self._SNAP_BUCKET.size
            bucket: List[LineId] = []
            for _ in range(occupants):
                (lid,) = self._SNAP_LID.unpack_from(data, offset)
                offset += self._SNAP_LID.size
                bucket.append(LineId(lid))
            buckets[slot] = bucket
        if offset != len(data):
            raise SnapshotCorruptionError(
                f"{len(data) - offset} trailing bytes in hash-table snapshot"
            )
        self._buckets = buckets

    def reset_state(self) -> None:
        self._buckets.clear()
