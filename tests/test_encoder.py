"""CABLE endpoints end-to-end: encode, decode, write-backs, sync."""

import random
import struct

import pytest

from repro.cache.hierarchy import InclusivePair
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.core.config import CableConfig
from repro.core.encoder import (
    CableHomeEncoder,
    CableLinkPair,
    CableRemoteDecoder,
    DecompressionError,
)
from repro.core.payload import PayloadKind
from repro.core.sync import audit
from repro.fault.plan import RecoveryPolicy
from repro.link.wire import decode_frame, wire_format_for


def family_backing(seed=0, families=8, mutations=1):
    """Backing store of near-duplicate family lines."""
    rng = random.Random(seed)
    archetypes = [
        struct.pack("<16I", *(rng.getrandbits(32) | 0x01000000 for _ in range(16)))
        for _ in range(families)
    ]
    store = {}

    def read(addr):
        if addr not in store:
            base = bytearray(archetypes[addr % families])
            r = random.Random(seed * 1000 + addr)
            for _ in range(r.randint(0, mutations)):
                struct.pack_into("<I", base, r.randrange(16) * 4, r.getrandbits(32))
            store[addr] = bytes(base)
        return store[addr]

    def write(addr, data):
        store[addr] = data

    return read, write, store


def recorded(link):
    """Every transfer record *link* produces from now on."""
    records = []
    link.listeners.append(records.append)
    return records


def build_link(config=None, home_kb=16, remote_kb=4, **backing_kwargs):
    read, write, store = family_backing(**backing_kwargs)
    home = SetAssociativeCache(CacheGeometry(home_kb * 1024, 8), name="home")
    remote = SetAssociativeCache(CacheGeometry(remote_kb * 1024, 4), name="remote")
    pair = InclusivePair(home, remote, read, write)
    link = CableLinkPair(config or CableConfig(), pair)
    link.backing_store = store
    return link


class TestBasicOperation:
    def test_all_transfers_verified(self):
        link = build_link()
        rng = random.Random(1)
        for _ in range(3000):
            link.access(rng.randrange(400), is_write=rng.random() < 0.2)
        assert link.totals["fills"] > 0
        # CableLinkPair verifies every decode; reaching here means all
        # reconstructions were exact.

    def test_references_actually_used(self):
        link = build_link()
        rng = random.Random(2)
        for _ in range(3000):
            link.access(rng.randrange(400))
        assert link.home_encoder.stats["with_references"] > 0
        assert link.compression_ratio > 1.5

    def test_writeback_compression(self):
        link = build_link(remote_kb=2)
        rng = random.Random(3)
        for i in range(3000):
            addr = rng.randrange(400)
            write = rng.random() < 0.4
            data = None
            if write:
                data = bytearray(link.backing_store.get(addr) or bytes(64))
                struct.pack_into("<I", data, 0, i)
                data = bytes(data)
            link.access(addr, is_write=write, write_data=data)
        assert link.totals["writebacks"] > 0
        assert link.remote_decoder.stats["writeback_encodes"] > 0

    def test_disabled_link_sends_raw(self):
        read, write, __ = family_backing()
        home = SetAssociativeCache(CacheGeometry(16 * 1024, 8))
        remote = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
        pair = InclusivePair(home, remote, read, write)
        link = CableLinkPair(CableConfig(), pair, enabled=False)
        transfers = recorded(link)
        for addr in range(50):
            link.access(addr)
        assert all(t.payload.kind is PayloadKind.UNCOMPRESSED for t in transfers)
        assert link.compression_ratio < 1.01


class TestSynchronization:
    def test_audit_after_random_stream(self):
        link = build_link(remote_kb=2)
        rng = random.Random(4)
        for _ in range(4000):
            link.access(rng.randrange(600), is_write=rng.random() < 0.3)
        report = audit(link)
        assert report.ok, report.violations[:5]
        assert report.wmt_entries_checked > 0

    def test_audit_with_heavy_home_pressure(self):
        """Home barely bigger than remote: back-invalidations exercised."""
        link = build_link(home_kb=8, remote_kb=4)
        rng = random.Random(5)
        for _ in range(4000):
            link.access(rng.randrange(800), is_write=rng.random() < 0.25)
        assert link.pair.stats["back_invalidations"] > 0
        report = audit(link)
        assert report.ok, report.violations[:5]

    @pytest.mark.parametrize("engine", ["lbe", "cpack", "gzip", "oracle"])
    def test_every_engine_decodes_correctly(self, engine):
        link = build_link(CableConfig(engine=engine))
        rng = random.Random(6)
        for _ in range(1200):
            link.access(rng.randrange(300), is_write=rng.random() < 0.2)
        assert audit(link).ok

    def test_upgrade_prevents_stale_references(self):
        """After a write hit, the stale home copy must never seed a
        decode: run a write-heavy stream and rely on verification."""
        link = build_link()
        rng = random.Random(7)
        for i in range(3000):
            addr = rng.randrange(120)  # small set: many upgrade events
            write = rng.random() < 0.5
            data = None
            if write:
                data = bytearray(64)
                struct.pack_into("<16I", data, 0, *([i] * 16))
                data = bytes(data)
            link.access(addr, is_write=write, write_data=data)
        assert audit(link).ok


class TestPayloadMix:
    def test_zero_lines_take_no_reference_path(self):
        store = {}

        def read(addr):
            return store.setdefault(addr, b"\x00" * 64)

        home = SetAssociativeCache(CacheGeometry(16 * 1024, 8))
        remote = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
        pair = InclusivePair(home, remote, read, lambda a, d: None)
        link = CableLinkPair(CableConfig(), pair)
        transfers = recorded(link)
        for addr in range(100):
            link.access(addr)
        kinds = {t.payload.kind for t in transfers}
        assert kinds == {PayloadKind.NO_REFERENCE}
        assert link.compression_ratio > 30

    def test_incompressible_lines_sent_raw(self):
        rng = random.Random(8)
        store = {}

        def read(addr):
            if addr not in store:
                store[addr] = bytes(rng.randrange(256) for _ in range(64))
            return store[addr]

        home = SetAssociativeCache(CacheGeometry(16 * 1024, 8))
        remote = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
        pair = InclusivePair(home, remote, read, lambda a, d: None)
        link = CableLinkPair(CableConfig(), pair)
        transfers = recorded(link)
        for addr in range(100):
            link.access(addr)
        uncompressed = sum(
            1 for t in transfers if t.payload.kind is PayloadKind.UNCOMPRESSED
        )
        assert uncompressed > 50


class TestStatsBookkeeping:
    def test_totals_consistent(self):
        """One record per transfer, in both link modes, and the records
        add up to the totals; only the framed pair's records carry the
        frame that decoded."""
        for config in (CableConfig(), CableConfig(recovery=RecoveryPolicy())):
            link = build_link(config)
            framed = link.recovery_layer is not None
            transfers = recorded(link)
            rng = random.Random(9)
            for _ in range(1500):
                link.access(rng.randrange(300), is_write=rng.random() < 0.2)
            totals = link.totals
            assert totals["fills"] + totals["writebacks"] == len(transfers)
            assert totals["fills"] == sum(t.direction == "fill" for t in transfers)
            assert totals["raw_bits"] == 512 * len(transfers)
            assert link.compressed_bits == sum(t.size_bits for t in transfers)
            assert totals["overhead_bits"] == sum(t.overhead_bits for t in transfers)
            if not framed:
                assert totals["overhead_bits"] == 0
                assert all(t.frame is None for t in transfers)
                continue
            assert link.health["transfers"] == len(transfers)
            assert totals["overhead_bits"] > 0
            policy = link.recovery_layer.policy
            fmt = wire_format_for(link.config, link.home_encoder.engine)
            for t in transfers:
                seq, frame, bits = t.frame
                got_seq, decoded = decode_frame(
                    frame,
                    bits,
                    link.config.engine,
                    fmt,
                    crc_bits=policy.crc_bits,
                    seq_bits=policy.seq_bits,
                    expected_seq=seq,
                )
                assert got_seq == seq
                assert decoded.kind is t.payload.kind
