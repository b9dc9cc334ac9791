"""Fault injection and link recovery (repro.fault, repro.link.recovery).

The robustness contract under test: with the wire, the transport and
the link metadata all being sabotaged, corruption is **never silent**
— every fault is either absorbed by the recovery protocol (CRC/NACK →
retransmit → raw fallback) or surfaces as a typed error, and the
§III-F auditor can always repair whatever state the faults wrecked.
"""

import random
import struct

import pytest

from repro.cache.hierarchy import InclusivePair
from repro.cache.setassoc import CacheGeometry, LineId, SetAssociativeCache
from repro.compression.registry import make_engine
from repro.core.config import CableConfig
from repro.core.encoder import CableLinkPair
from repro.core.errors import (
    CrcMismatchError,
    DecompressionError,
    LinkRecoveryError,
    SequenceError,
    StaleReferenceError,
    WireDecodeError,
)
from repro.core.payload import Payload, PayloadKind
from repro.core.sync import audit
from repro.fault.campaign import build_campaign_link, run_campaign
from repro.fault.plan import FaultPlan, RecoveryPolicy
from repro.link.recovery import CircuitBreaker, LinkHealth, ReliableLink
from repro.link.wire import WireFormat, decode_frame, encode_frame

LINE = bytes(range(64))


def raw_payload(data=LINE, addr=0x40):
    return Payload(
        kind=PayloadKind.UNCOMPRESSED, line_addr=addr, line_bytes=64, raw=data
    )


def referencing_payload(data=LINE, addr=0x40):
    ref = bytes(64)
    block = make_engine("lbe").compress_with_references(data, [ref])
    return Payload(
        kind=PayloadKind.WITH_REFERENCES,
        line_addr=addr,
        line_bytes=64,
        remote_lids=(LineId(5),),
        block=block,
        ref_addrs=(0x123,),
    )


# ---------------------------------------------------------------------------
# Frame layer
# ---------------------------------------------------------------------------


class TestFrameLayer:
    def test_sequence_mismatch_raises(self):
        writer = encode_frame(raw_payload(), seq=3)
        with pytest.raises(SequenceError):
            decode_frame(
                writer.getvalue(), writer.bit_count, "lbe", WireFormat(),
                expected_seq=4,
            )

    def test_every_single_bit_flip_detected(self):
        writer = encode_frame(raw_payload())
        data, bits = writer.getvalue(), writer.bit_count
        for bit in range(bits):
            damaged = bytearray(data)
            damaged[bit >> 3] ^= 0x80 >> (bit & 7)
            with pytest.raises(WireDecodeError):
                decode_frame(bytes(damaged), bits, "lbe", WireFormat())

    def test_crc_checked_before_parsing(self):
        """Corrupted frames die on the CRC, not inside a codec."""
        writer = encode_frame(raw_payload())
        data = bytearray(writer.getvalue())
        data[10] ^= 0xFF
        with pytest.raises(CrcMismatchError):
            decode_frame(bytes(data), writer.bit_count, "lbe", WireFormat())


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    POLICY = RecoveryPolicy(
        breaker_threshold=0.5,
        breaker_window=8,
        breaker_min_samples=4,
        breaker_cooldown=3,
    )

    def test_needs_min_samples(self):
        breaker = CircuitBreaker(self.POLICY)
        assert not breaker.record(False)
        assert not breaker.record(False)
        assert not breaker.record(False)
        assert not breaker.is_open

    def test_trips_at_threshold_then_rearms(self):
        breaker = CircuitBreaker(self.POLICY)
        for __ in range(2):
            breaker.record(True)
        assert breaker.record(False) or breaker.record(False)
        assert breaker.is_open and breaker.trips == 1
        # Cooldown: stays open for cooldown-1 raw transfers, then re-arms.
        assert not breaker.tick_open()
        assert not breaker.tick_open()
        assert breaker.tick_open()
        assert not breaker.is_open and breaker.recoveries == 1

    def test_window_cleared_on_trip(self):
        """After re-arm the breaker needs fresh evidence to re-trip."""
        breaker = CircuitBreaker(self.POLICY)
        for __ in range(4):
            breaker.record(False)
        assert breaker.is_open
        while not breaker.tick_open():
            pass
        assert not breaker.record(False)  # 1 sample < min_samples
        assert not breaker.is_open


# ---------------------------------------------------------------------------
# Reliable link protocol (scripted faults)
# ---------------------------------------------------------------------------


class _ScriptedChannel:
    """decide() pops from a script; None afterwards."""

    def __init__(self, *fates):
        self._fates = list(fates)

    def decide(self):
        return self._fates.pop(0) if self._fates else None


class _ScriptedWire:
    """Corrupts the first *n* frames by flipping one payload bit."""

    def __init__(self, n):
        self.remaining = n

    def corrupt(self, data, bit_count):
        if self.remaining <= 0:
            return data, bit_count
        self.remaining -= 1
        damaged = bytearray(data)
        damaged[1] ^= 0x01
        return bytes(damaged), bit_count


def make_link(policy=None, wire=None, channel=None):
    health = LinkHealth()
    link = ReliableLink(
        policy or RecoveryPolicy(),
        WireFormat(),
        "lbe",
        health,
        wire_faults=wire,
        channel_faults=channel,
    )
    return link, health


class TestReliableLink:
    def test_clean_delivery(self):
        link, health = make_link()
        delivery = link.deliver(
            "fill", raw_payload(), lambda p: p.raw, lambda: raw_payload()
        )
        assert delivery.data == LINE
        assert delivery.attempts == 1 and not delivery.degraded
        # Framing overhead only: sequence tag + CRC.
        assert delivery.overhead_bits == 4 + 16
        assert health["deliveries"] == 1 and health["nacks"] == 0

    def test_drop_triggers_retransmit(self):
        link, health = make_link(channel=_ScriptedChannel("drop"))
        delivery = link.deliver(
            "fill", raw_payload(), lambda p: p.raw, lambda: raw_payload()
        )
        assert delivery.data == LINE
        assert delivery.attempts == 2 and delivery.degraded
        assert health["retries"] == 1

    def test_corruption_nacks_then_recovers(self):
        link, health = make_link(wire=_ScriptedWire(2))
        delivery = link.deliver(
            "fill", raw_payload(), lambda p: p.raw, lambda: raw_payload()
        )
        assert delivery.data == LINE
        assert delivery.attempts == 3
        assert health["nacks"] == 2 and health["crc_failures"] == 2

    def test_reorder_rejected_by_sequence(self):
        link, health = make_link(
            channel=_ScriptedChannel(None, "reorder")
        )
        first = link.deliver(
            "fill", raw_payload(), lambda p: p.raw, lambda: raw_payload()
        )
        second = link.deliver(
            "fill", raw_payload(LINE[::-1]), lambda p: p.raw,
            lambda: raw_payload(LINE[::-1]),
        )
        assert first.data == LINE and second.data == LINE[::-1]
        assert health["seq_rejects"] == 1

    def test_stale_reference_falls_back_to_raw(self):
        link, health = make_link()

        def decode(payload):
            if payload.kind is not PayloadKind.UNCOMPRESSED:
                raise StaleReferenceError("reference evicted mid-flight")
            return payload.raw

        delivery = link.deliver(
            "fill", referencing_payload(), decode, lambda: raw_payload()
        )
        assert delivery.data == LINE
        assert delivery.payload.kind is PayloadKind.UNCOMPRESSED
        assert health["raw_fallbacks"] == 1 and health["nacks"] == 1

    def test_exhaustion_is_loud(self):
        policy = RecoveryPolicy(max_retries=1, max_raw_retries=2)
        link, health = make_link(
            policy=policy,
            channel=_ScriptedChannel(*["drop"] * 10),
        )
        with pytest.raises(LinkRecoveryError):
            link.deliver(
                "fill", raw_payload(), lambda p: p.raw, lambda: raw_payload()
            )
        assert health["link_failures"] == 1

    def test_compressed_retries_then_raw_budget(self):
        """Exhausting compressed retries switches to raw with a fresh
        budget — the raw fallback is not charged the old failures."""
        policy = RecoveryPolicy(max_retries=1, max_raw_retries=3)
        link, health = make_link(
            policy=policy, channel=_ScriptedChannel(*["drop"] * 4)
        )
        delivery = link.deliver(
            "fill", referencing_payload(),
            lambda p: p.raw if p.kind is PayloadKind.UNCOMPRESSED else LINE,
            lambda: raw_payload(),
        )
        assert delivery.data == LINE
        assert health["raw_fallbacks"] == 1


# ---------------------------------------------------------------------------
# End-to-end: the §IV-A race closed inside the protocol
# ---------------------------------------------------------------------------


class TestInFlightEvictionRecovery:
    def _build(self, **plan_overrides):
        plan = FaultPlan(seed=11, **plan_overrides)
        return build_campaign_link(plan, RecoveryPolicy(), seed=11)

    def test_silent_evictions_recovered(self):
        """References evicted mid-flight (buffer entry lost too) force
        the NACK → retransmit-as-RAW path; every line still lands."""
        link = self._build(silent_evict_rate=0.3)
        rng = random.Random(12)
        for i in range(600):
            addr = rng.randrange(300)
            link.access(addr)
        health = link.health
        assert health["silent_evictions"] > 20
        assert health["silent_corruptions"] == 0
        # Some victims were buffered (rescue path), and with buffer
        # entries also lost, at least one transfer needed the raw path.
        assert health["silent_evictions_buffered"] > 0

    def test_stale_wmt_entries_never_corrupt(self):
        link = self._build(stale_wmt_rate=0.3)
        rng = random.Random(13)
        for i in range(600):
            link.access(rng.randrange(300))
        assert link.health["stale_wmt"] > 20
        assert link.health["silent_corruptions"] == 0

    def test_resync_repairs_sabotaged_state(self):
        link = self._build(silent_evict_rate=0.4, stale_wmt_rate=0.4)
        rng = random.Random(14)
        for i in range(400):
            link.access(rng.randrange(300))
        report = link.lifecycle.resync()
        assert report.repairs > 0
        assert audit(link).ok


# ---------------------------------------------------------------------------
# The campaign: ≥10k faults, all categories, zero silent corruptions
# ---------------------------------------------------------------------------


class TestFaultCampaign:
    def test_campaign_no_silent_corruption(self):
        """The acceptance campaign: ≥10,000 injected faults spanning
        every category; completes with zero silent corruptions and a
        repairable final state."""
        plan = FaultPlan.uniform(0.12, seed=0xCAB1E)
        report = run_campaign(plan, accesses=7000)
        assert report.faults_injected >= 10_000
        # Every category fired.
        for category in (
            "bitflips",
            "truncations",
            "drops",
            "reorders",
            "delays",
            "stale_wmt",
            "silent_evictions",
            "hash_corruptions",
        ):
            assert report.fault_stats[category] > 0, category
        assert report.silent_corruptions == 0
        assert report.final_audit_ok
        assert report.ok
        # The protocol actually worked for its living.
        assert report.health["nacks"] > 100
        assert report.health["raw_fallbacks"] > 0

    def test_campaign_deterministic(self):
        plan = FaultPlan.uniform(0.08, seed=42)
        first = run_campaign(plan, accesses=600)
        second = run_campaign(plan, accesses=600)
        assert first.health == second.health
        assert first.fault_stats == second.fault_stats

    def test_breaker_trips_and_rearms_under_fire(self):
        plan = FaultPlan.uniform(0.15, seed=7)
        policy = RecoveryPolicy(
            breaker_threshold=0.25,
            breaker_window=16,
            breaker_min_samples=8,
            breaker_cooldown=16,
        )
        report = run_campaign(plan, policy=policy, accesses=1500)
        assert report.health["breaker_trips"] > 0
        assert report.health["breaker_recoveries"] > 0
        assert report.health["breaker_raw_transfers"] > 0
        assert report.silent_corruptions == 0


# ---------------------------------------------------------------------------
# Typed error hierarchy (satellite: bare ValueError replacement)
# ---------------------------------------------------------------------------


class TestErrorHierarchy:
    def test_wire_errors_are_decompression_errors(self):
        assert issubclass(WireDecodeError, DecompressionError)
        assert issubclass(CrcMismatchError, WireDecodeError)
        assert issubclass(SequenceError, WireDecodeError)
        assert issubclass(StaleReferenceError, DecompressionError)
        assert issubclass(LinkRecoveryError, DecompressionError)

    def test_stale_reference_from_decoder(self):
        """The remote decoder's missing-reference failure is typed (the
        recovery layer dispatches on it for the raw fallback)."""
        rng = random.Random(20)
        archetype = struct.pack(
            "<16I", *(rng.getrandbits(32) | 0x01000000 for _ in range(16))
        )
        store = {}

        def read(addr):
            if addr not in store:
                line = bytearray(archetype)
                struct.pack_into("<I", line, 60, addr)
                store[addr] = bytes(line)
            return store[addr]

        home = SetAssociativeCache(CacheGeometry(16 * 1024, 8))
        remote = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
        pair = InclusivePair(home, remote, read, lambda a, d: None)
        link = CableLinkPair(CableConfig(), pair)
        transfers = []
        link.listeners.append(transfers.append)
        for i in range(400):
            link.access(rng.randrange(120))
        # Find a transfer that used references, then evict its
        # reference from the remote cache *and* drain the eviction
        # buffer — decoding must now fail loudly and typed.
        payload = next(
            t.payload
            for t in reversed(transfers)
            if t.payload.kind is PayloadKind.WITH_REFERENCES
        )
        for lid in payload.remote_lids:
            remote.evict_lineid(lid)
        link.remote_decoder.evict_buffer.acknowledge(
            link.remote_decoder.evict_buffer.last_seq
        )
        with pytest.raises(StaleReferenceError):
            link.remote_decoder.decode(payload)
