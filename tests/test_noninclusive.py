"""Non-inclusive extension (§IV-C)."""

import random
import struct

import pytest

from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.core.config import CableConfig
from repro.core.noninclusive import NonInclusiveCableLink, NonInclusivePair
from repro.core.payload import PayloadKind


def build(writeback_mode="nodict", home_kb=8, remote_kb=4, seed=0):
    rng = random.Random(seed)
    archetype = struct.pack(
        "<16I", *(rng.getrandbits(32) | 0x01000000 for _ in range(16))
    )
    store = {}

    def read(addr):
        if addr not in store:
            line = bytearray(archetype)
            struct.pack_into("<I", line, 56, addr)
            store[addr] = bytes(line)
        return store[addr]

    def write(addr, data):
        store[addr] = data

    home = SetAssociativeCache(CacheGeometry(home_kb * 1024, 8), name="home")
    remote = SetAssociativeCache(CacheGeometry(remote_kb * 1024, 4), name="remote")
    pair = NonInclusivePair(home, remote, read, write)
    link = NonInclusiveCableLink(
        CableConfig(), pair, writeback_mode=writeback_mode
    )
    link.backing_store = store
    return link


class TestNonInclusion:
    def test_home_eviction_keeps_remote_copy(self):
        """The defining difference from the inclusive pair: a hot line
        stays remote-resident via hits (which never touch home LRU)
        while home pressure evicts the home copy."""
        link = build(home_kb=8, remote_kb=4)
        rng = random.Random(1)
        hot = list(range(32))
        for _ in range(4000):
            if rng.random() < 0.7:
                link.access(rng.choice(hot))
            else:
                link.access(rng.randrange(600))
        assert link.pair.remote_only_lines() > 0
        assert link.pair.stats["back_invalidations"] == 0

    def test_all_transfers_still_verified(self):
        """Correctness must survive home evictions: stale WMT entries
        would point references at wrong data, and verification (plus
        the address check) would explode."""
        link = build()
        rng = random.Random(2)
        for i in range(4000):
            addr = rng.randrange(700)
            write = rng.random() < 0.3
            data = None
            if write:
                data = bytearray(link.pair.backing_read(addr))
                struct.pack_into("<I", data, 0, i)
                data = bytes(data)
            link.access(addr, is_write=write, write_data=data)
        assert link.totals["fills"] > 0

    def test_dirty_remote_survivor_refetched_correctly(self):
        """A dirty remote line whose home copy was evicted: the next
        home fetch must see the remote's data, not stale backing."""
        link = build(home_kb=16, remote_kb=8)
        pair = link.pair
        target = 0
        dirty = b"\x5A" * 64
        link.access(target, is_write=True, write_data=dirty)
        # Evict target from home only: keep it hot in the remote cache
        # (remote hits never touch home LRU) while pressuring its set.
        sets = pair.home.geometry.sets
        n = 0
        while pair.home.contains(target) and n < 64:
            n += 1
            link.access(target + n * sets)
            link.access(target)  # remote hit: keeps the remote copy MRU
        if pair.home.contains(target):
            pytest.skip("could not create home eviction under LRU")
        # The dirty data lives only in the remote cache now — the
        # directory's owner. Nothing was lost.
        hit = pair.remote.lookup(target, touch=False)
        assert hit is not None and hit[1].data == dirty
        # Force the remote to evict it: the write-back must land the
        # dirty data back at the home side (cache or backing store).
        rsets = pair.remote.geometry.sets
        for i in range(100, 100 + 4 * pair.remote.geometry.ways):
            link.access(target + i * rsets)
        assert not pair.remote.contains(target)
        home_hit = pair.home.lookup(target, touch=False)
        recovered = (
            home_hit[1].data if home_hit is not None
            else link.backing_store.get(target)
        )
        assert recovered == dirty


class TestWritebackModes:
    def _run(self, link, seed=3):
        rng = random.Random(seed)
        for i in range(2500):
            addr = rng.randrange(400)
            write = rng.random() < 0.4
            data = None
            if write:
                data = bytearray(link.pair.backing_read(addr))
                struct.pack_into("<I", data, 4, i)
                data = bytes(data)
            link.access(addr, is_write=write, write_data=data)

    def test_raw_writebacks(self):
        link = build(writeback_mode="raw")
        transfers = []
        link.listeners.append(transfers.append)
        self._run(link)
        wbs = [t for t in transfers if t.direction == "writeback"]
        assert wbs
        assert all(t.payload.kind is PayloadKind.UNCOMPRESSED for t in wbs)

    def test_nodict_writebacks_never_reference(self):
        link = build(writeback_mode="nodict")
        transfers = []
        link.listeners.append(transfers.append)
        self._run(link)
        wbs = [t for t in transfers if t.direction == "writeback"]
        assert wbs
        assert all(
            t.payload.kind is not PayloadKind.WITH_REFERENCES for t in wbs
        )

    def test_nodict_beats_raw(self):
        raw = build(writeback_mode="raw")
        nodict = build(writeback_mode="nodict")
        self._run(raw)
        self._run(nodict)
        assert nodict.totals["writeback_bits"] < raw.totals["writeback_bits"]

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            build(writeback_mode="zlib")

    def test_fills_still_use_references(self):
        link = build()
        self._run(link)
        assert link.home_encoder.stats["with_references"] > 0
