"""Snapshot container + per-structure serialization (repro.state).

Property tests for the two guarantees the restore path leans on:

- **round-trip** — ``restore_state(snapshot_state(x))`` into a fresh
  structure reproduces ``x`` exactly (canonical-bytes equality), for
  the WMT, the signature hash table and the eviction buffer;
- **no half-trust** — any single flipped byte anywhere in a snapshot
  container raises :class:`SnapshotCorruptionError`; a snapshot is
  trusted completely or discarded completely.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.setassoc import CacheGeometry, LineId
from repro.core.errors import SnapshotCorruptionError
from repro.core.evictbuf import EvictionBuffer
from repro.core.hashtable import SignatureHashTable
from repro.core.wmt import WayMapTable
from repro.state.snapshot import MAGIC, read_snapshot, write_snapshot

HOME = CacheGeometry(16 * 1024, 8)  # 32 sets × 8 ways
REMOTE = CacheGeometry(4 * 1024, 4)  # 16 sets × 4 ways


def lid(geom: CacheGeometry, index: int, way: int) -> LineId:
    return LineId.pack(index, way, geom.way_bits)


# ---------------------------------------------------------------------------
# Structure strategies: each draws a populated instance
# ---------------------------------------------------------------------------


@st.composite
def wmts(draw):
    wmt = WayMapTable(HOME, REMOTE)
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, 1),  # alias (32 home sets over 16 remote)
                st.integers(0, HOME.ways - 1),
                st.integers(0, REMOTE.sets - 1),
                st.integers(0, REMOTE.ways - 1),
            ),
            max_size=24,
        )
    )
    for alias, home_way, remote_index, remote_way in pairs:
        home_index = remote_index + alias * REMOTE.sets
        wmt.install(
            lid(HOME, home_index, home_way), lid(REMOTE, remote_index, remote_way)
        )
    return wmt


@st.composite
def hash_tables(draw):
    table = SignatureHashTable(entries=64, bucket_entries=2)
    inserts = draw(
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 255)),
            max_size=32,
        )
    )
    for signature, raw_lid in inserts:
        table.insert(signature, LineId(raw_lid))
    return table


@st.composite
def evict_buffers(draw):
    buf = EvictionBuffer(capacity=8)
    records = draw(
        st.lists(
            st.tuples(
                st.integers(0, 63),
                st.integers(0, 2**20),
                st.binary(min_size=0, max_size=64),
            ),
            max_size=12,
        )
    )
    for raw_lid, addr, data in records:
        buf.record(LineId(raw_lid), addr, data)
    acked = draw(st.integers(0, len(records)))
    buf.acknowledge(acked)
    return buf


STRUCTURES = st.one_of(wmts(), hash_tables(), evict_buffers())


def fresh_like(structure):
    if isinstance(structure, WayMapTable):
        return WayMapTable(HOME, REMOTE)
    if isinstance(structure, SignatureHashTable):
        return SignatureHashTable(entries=64, bucket_entries=2)
    return EvictionBuffer(capacity=8)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(structure=STRUCTURES, epoch=st.integers(0, 2**32 - 1))
    def test_restore_of_snapshot_is_identity(self, structure, epoch):
        blob = write_snapshot(epoch, {"s": structure.snapshot_state()})
        read_epoch, sections = read_snapshot(blob)
        assert read_epoch == epoch
        other = fresh_like(structure)
        other.restore_state(sections["s"])
        assert other.snapshot_state() == structure.snapshot_state()

    @settings(max_examples=30, deadline=None)
    @given(structure=STRUCTURES)
    def test_reset_then_restore_still_identity(self, structure):
        image = structure.snapshot_state()
        structure.reset_state()
        structure.restore_state(image)
        assert structure.snapshot_state() == image


class TestFlippedByteDetected:
    @settings(max_examples=120, deadline=None)
    @given(
        structure=STRUCTURES,
        data=st.data(),
        mask=st.integers(1, 255),
    )
    def test_any_single_flipped_byte_raises(self, structure, data, mask):
        blob = write_snapshot(3, {"s": structure.snapshot_state()})
        position = data.draw(st.integers(0, len(blob) - 1))
        damaged = bytearray(blob)
        damaged[position] ^= mask
        with pytest.raises(SnapshotCorruptionError):
            read_snapshot(bytes(damaged))

    @settings(max_examples=30, deadline=None)
    @given(structure=STRUCTURES, cut=st.integers(0, 40))
    def test_truncation_raises(self, structure, cut):
        blob = write_snapshot(1, {"s": structure.snapshot_state()})
        cut = min(cut + 1, len(blob))
        with pytest.raises(SnapshotCorruptionError):
            read_snapshot(blob[:-cut])

    def test_trailing_garbage_raises(self):
        blob = write_snapshot(1, {"s": b"payload"})
        with pytest.raises(SnapshotCorruptionError):
            read_snapshot(blob + b"\x00")

    def test_bad_magic_raises(self):
        blob = write_snapshot(1, {"s": b"payload"})
        assert blob[:4] == MAGIC
        with pytest.raises(SnapshotCorruptionError):
            read_snapshot(b"XXXX" + blob[4:])


class TestSectionIndependence:
    def test_multiple_sections_round_trip(self):
        sections = {"a": b"", "b": b"\x01" * 100, "c": b"xyz"}
        epoch, out = read_snapshot(write_snapshot(7, sections))
        assert epoch == 7
        assert out == sections

    def test_shape_mismatch_rejected(self):
        small = SignatureHashTable(entries=32)
        big = SignatureHashTable(entries=64)
        with pytest.raises(SnapshotCorruptionError):
            big.restore_state(small.snapshot_state())
