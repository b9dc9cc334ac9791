"""Link-recovery protocol: CRC frames, NACK/retransmit, raw fallback
and a degradation circuit breaker.

This layer turns the trust-everything synchronous pipe of
:class:`~repro.core.encoder.CableLinkPair` into a protocol that
survives a lossy wire and sabotaged metadata:

1. every payload crosses the link as real bits inside a CRC-guarded,
   sequence-tagged frame (:func:`repro.link.wire.encode_frame`);
2. any :class:`~repro.core.errors.WireDecodeError` at the receiver is
   a **NACK** — the sender retransmits the same frame, up to
   ``max_retries`` times;
3. a :class:`~repro.core.errors.StaleReferenceError` (the §IV-A
   in-flight-eviction race, or a stale WMT translation) switches the
   sender to **retransmit-as-RAW**: the line goes again uncompressed,
   with no references to go stale. This closes the race *inside the
   protocol* — no cooperation from tests or callers needed;
4. a per-link **circuit breaker** watches the recoverable-failure rate
   over a sliding window; past the threshold it trips, degrading the
   link to uncompressed transmission (which cannot suffer decode
   failures) for a cooldown, optionally resynchronizing WMT/hash state
   through the §III-F auditor, then re-arms.

Exhausting the raw budget raises
:class:`~repro.core.errors.LinkRecoveryError` — the one *unrecoverable*
outcome, and it is loud. Nothing in this layer can deliver wrong bytes
silently short of a CRC collision, whose probability per corrupted
frame is 2^-crc_bits.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Dict, Optional, Tuple

from repro.core.errors import (
    CrcMismatchError,
    LinkRecoveryError,
    SnapshotCorruptionError,
    StaleReferenceError,
    WireDecodeError,
)
from repro.core.payload import Payload, PayloadKind
from repro.fault.injectors import (
    ChannelFaultInjector,
    StateFaultInjector,
    WireFaultInjector,
)
from repro.fault.plan import FaultPlan, RecoveryPolicy
from repro.cache.setassoc import LineId
from repro.link.wire import (
    EPOCH_KIND_EPOCH,
    EPOCH_KIND_HELLO,
    DecodedPayload,
    WireFormat,
    decode_epoch_frame,
    decode_frame,
    encode_epoch_frame,
    encode_frame,
)
from repro.obs.registry import METRICS
from repro.obs.tracer import trace


class LinkHealth:
    """Per-link health counters, flowing into metrics/experiments.

    The per-link ``counts`` dict stays the source of truth (golden
    outputs and the resilience tables read it); when observability is
    on, every bump is mirrored into the process registry as a
    ``link.<field>`` counter so campaigns, benchmarks and experiments
    all report through one scrape surface.
    """

    FIELDS = (
        "transfers",
        "deliveries",
        "crc_failures",
        "decode_errors",
        "seq_rejects",
        "nacks",
        "retries",
        "raw_fallbacks",
        "breaker_trips",
        "breaker_recoveries",
        "breaker_raw_transfers",
        "resyncs",
        "resync_repairs",
        "link_failures",
        "overhead_bits",
        "silent_corruptions",
        # -- crash recovery (repro.state + epoch resync) ----------------
        "endpoint_crashes",
        "snapshot_restores",
        "snapshot_corruptions_detected",
        "journal_replays",
        "journal_records_replayed",
        "full_rebuilds",
        "handshake_bits",
        "replay_traffic_bits",
        "rebuild_traffic_bits",
        "resync_traffic_bits",
        "recovery_transfers",
        # -- replication / failover (repro.replica) ---------------------
        "failovers",
        "hot_promotions",
        "warm_promotions",
        "replication_lost_records",
    )

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {field: 0 for field in self.FIELDS}
        self._obs = METRICS
        self._mirrors = {
            field: METRICS.counter(f"link.{field}") for field in self.FIELDS
        }

    def bump(self, field: str, amount: int = 1) -> None:
        self.counts[field] += amount
        if self._obs.enabled:
            self._mirrors[field].inc(amount)

    def __getitem__(self, field: str) -> int:
        return self.counts[field]

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)


class CircuitBreaker:
    """Sliding-window failure-rate breaker with cooldown re-arm.

    ``closed`` → compressed transmission, outcomes recorded; when the
    failure rate over the last ``breaker_window`` transfers reaches
    ``breaker_threshold`` (with at least ``breaker_min_samples``
    observations) the breaker **trips** ``open``: the link degrades to
    uncompressed payloads until ``breaker_cooldown`` has elapsed on the
    breaker's clock, then re-arms with a cleared window.

    The cooldown is measured against an injectable monotonic *clock*
    (``clock()`` → int). The default advances by one per observed
    transfer (``record``/``tick_open``), giving the classic
    "cooldown counted in transfers" behaviour; a simulation can inject
    its cycle counter instead. No wall-clock is ever read, so breaker
    timing is deterministic under test.
    """

    def __init__(
        self,
        policy: RecoveryPolicy,
        clock: Optional[Callable[[], int]] = None,
    ) -> None:
        self.policy = policy
        self._window: deque = deque(maxlen=policy.breaker_window)
        self._events = 0
        self.clock: Callable[[], int] = (
            clock if clock is not None else self._event_clock
        )
        self._opened_at = 0
        self.is_open = False
        self.trips = 0
        self.recoveries = 0
        self.last_open_duration = 0

    def _event_clock(self) -> int:
        return self._events

    @property
    def failure_rate(self) -> float:
        if not self._window:
            return 0.0
        return sum(1 for ok in self._window if not ok) / len(self._window)

    def record(self, ok: bool) -> bool:
        """Record one closed-state transfer outcome; True if it tripped."""
        self._events += 1
        self._window.append(ok)
        if (
            len(self._window) >= self.policy.breaker_min_samples
            and self.failure_rate >= self.policy.breaker_threshold
        ):
            self.is_open = True
            self._opened_at = self.clock()
            self._window.clear()
            self.trips += 1
            return True
        return False

    def tick_open(self) -> bool:
        """Observe one open-state (raw) transfer; True if it re-armed."""
        self._events += 1
        elapsed = self.clock() - self._opened_at
        if elapsed >= self.policy.breaker_cooldown:
            self.is_open = False
            self.recoveries += 1
            self.last_open_duration = elapsed
            return True
        return False

    # ------------------------------------------------------------------
    # Durability (snapshot / restore, repro.state) — the breaker is
    # home-endpoint state: losing it across a crash would silently
    # reopen a degraded link at full compression.
    # ------------------------------------------------------------------

    _SNAP_HEADER = struct.Struct("<BIIQQQH")
    # is_open, trips, recoveries, events, opened_at, last_open, window

    def snapshot_state(self) -> bytes:
        return self._SNAP_HEADER.pack(
            1 if self.is_open else 0,
            self.trips,
            self.recoveries,
            self._events,
            self._opened_at,
            self.last_open_duration,
            len(self._window),
        ) + bytes(1 if ok else 0 for ok in self._window)

    def restore_state(self, data: bytes) -> None:
        try:
            (
                is_open,
                trips,
                recoveries,
                events,
                opened_at,
                last_open,
                window_len,
            ) = self._SNAP_HEADER.unpack_from(data, 0)
        except struct.error as exc:
            raise SnapshotCorruptionError(
                f"breaker snapshot unparseable: {exc}"
            ) from exc
        if window_len > self.policy.breaker_window:
            raise SnapshotCorruptionError(
                f"breaker snapshot window {window_len} exceeds policy "
                f"{self.policy.breaker_window}"
            )
        if len(data) != self._SNAP_HEADER.size + window_len:
            raise SnapshotCorruptionError(
                f"breaker snapshot is {len(data)} bytes, expected "
                f"{self._SNAP_HEADER.size + window_len}"
            )
        window = data[self._SNAP_HEADER.size :]
        self.is_open = bool(is_open)
        self.trips = trips
        self.recoveries = recoveries
        self._events = events
        self._opened_at = opened_at
        self.last_open_duration = last_open
        self._window.clear()
        self._window.extend(bool(b) for b in window)

    def reset_state(self) -> None:
        """Cold state (endpoint crash, before restore)."""
        self._window.clear()
        self._events = 0
        self._opened_at = 0
        self.is_open = False
        self.trips = 0
        self.recoveries = 0
        self.last_open_duration = 0


@dataclass
class Delivery:
    """Outcome of one reliable transfer."""

    data: bytes
    #: The payload form that finally got through (raw after fallback).
    payload: Payload
    #: Frames put on the wire (1 = clean first try).
    attempts: int
    #: Wire bits beyond the first frame's payload bits: framing
    #: (seq+crc) plus every retransmitted frame in full.
    overhead_bits: int
    #: True when any NACK/drop occurred (feeds the circuit breaker).
    degraded: bool
    #: ``(seq, bytes, bits)`` of the frame that decoded — the exact
    #: wire image a transport ships on (the serve layer does).
    frame: Tuple[int, bytes, int]


class ReliableLink:
    """Frame/transmit/decode with NACK-retransmit and raw fallback."""

    def __init__(
        self,
        policy: RecoveryPolicy,
        fmt: WireFormat,
        engine_name: str,
        health: LinkHealth,
        wire_faults: Optional[WireFaultInjector] = None,
        channel_faults: Optional[ChannelFaultInjector] = None,
        state_faults: Optional[StateFaultInjector] = None,
    ) -> None:
        self.policy = policy
        self.fmt = fmt
        self.engine_name = engine_name
        self.health = health
        self.wire_faults = wire_faults
        self.channel_faults = channel_faults
        self.state_faults = state_faults
        self._seq: Dict[str, int] = {}
        self._last_frame: Dict[str, tuple] = {}
        self._obs = METRICS
        self._stage_deliver = METRICS.stage("link.deliver")
        self._stage_retransmit = METRICS.stage("link.retransmit")

    # ------------------------------------------------------------------

    def _rebuild(self, decoded: DecodedPayload, sent: Payload) -> Payload:
        """Lift wire-decoded bits back into a decodable Payload.

        ``ref_addrs`` is model metadata (hardware gets the equivalent
        guarantee from the EvictSeq protocol, see
        :class:`~repro.core.payload.Payload`), so it is carried from
        the sender's payload rather than the wire — but only when the
        wire agrees about which references are in play.
        """
        if decoded.kind is PayloadKind.UNCOMPRESSED:
            return Payload(
                kind=PayloadKind.UNCOMPRESSED,
                line_addr=sent.line_addr,
                line_bytes=self.fmt.line_bytes,
                raw=decoded.raw,
                remotelid_bits=self.fmt.remotelid_bits,
            )
        ref_addrs = (
            sent.ref_addrs
            if decoded.remote_lids == sent.remote_lids
            else ()
        )
        return Payload(
            kind=decoded.kind,
            line_addr=sent.line_addr,
            line_bytes=self.fmt.line_bytes,
            remote_lids=decoded.remote_lids,
            block=decoded.block,
            remotelid_bits=self.fmt.remotelid_bits,
            ref_addrs=ref_addrs,
        )

    def deliver(
        self,
        direction: str,
        payload: Payload,
        decode_fn: Callable[[Payload], bytes],
        make_raw: Callable[[], Payload],
    ) -> Delivery:
        """Transmit *payload* until it decodes, falling back to raw.

        *decode_fn* reconstructs the line at the receiving endpoint;
        *make_raw* builds the uncompressed fallback payload from the
        sender's copy of the line.
        """
        policy = self.policy
        health = self.health
        self.health.bump("transfers")
        obs_enabled = self._obs.enabled
        if obs_enabled:
            t0 = perf_counter_ns()
        current = payload
        raw_mode = current.kind is PayloadKind.UNCOMPRESSED
        budget = policy.max_raw_retries if raw_mode else policy.max_retries
        attempts = 0
        overhead_bits = 0
        degraded = False

        def consume_budget() -> None:
            nonlocal budget, raw_mode, current
            budget -= 1
            if budget >= 0:
                return
            if raw_mode:
                health.bump("link_failures")
                raise LinkRecoveryError(
                    f"{direction} of line {payload.line_addr:#x} undeliverable: "
                    f"retries and raw fallback exhausted"
                )
            self._fall_back_to_raw(make_raw)
            raw_mode = True
            current = self._raw_payload
            budget = policy.max_raw_retries

        while True:
            seq = self._seq.get(direction, 0)
            writer = encode_frame(
                current,
                self.fmt,
                self.engine_name,
                seq=seq,
                crc_bits=policy.crc_bits,
                seq_bits=policy.seq_bits,
            )
            frame, frame_bits = writer.getvalue(), writer.bit_count
            attempts += 1
            if attempts == 1:
                overhead_bits += policy.seq_bits + policy.crc_bits
            else:
                health.bump("retries")
                overhead_bits += frame_bits

            fate = (
                self.channel_faults.decide() if self.channel_faults else None
            )
            delayed = fate == "delay"
            if self.state_faults is not None:
                # Mid-flight metadata faults: the §IV-A window is open
                # while this frame is on the wire (wider when delayed).
                self.state_faults.perturb(inflight=current, delayed=delayed)
            if fate == "drop":
                # The frame vanishes; the sender's timeout retransmits.
                degraded = True
                consume_budget()
                continue
            if fate == "reorder" and direction in self._last_frame:
                # A stale copy of the previous frame overtakes this
                # one; the receiver rejects it by sequence tag.
                stale_data, stale_bits = self._last_frame[direction]
                try:
                    decode_frame(
                        stale_data,
                        stale_bits,
                        self.engine_name,
                        self.fmt,
                        crc_bits=policy.crc_bits,
                        seq_bits=policy.seq_bits,
                        expected_seq=seq,
                    )
                except WireDecodeError:
                    health.bump("seq_rejects")

            rx_data, rx_bits = frame, frame_bits
            if self.wire_faults is not None:
                rx_data, rx_bits = self.wire_faults.corrupt(frame, frame_bits)
            try:
                __, decoded = decode_frame(
                    rx_data,
                    rx_bits,
                    self.engine_name,
                    self.fmt,
                    crc_bits=policy.crc_bits,
                    seq_bits=policy.seq_bits,
                    expected_seq=seq,
                )
                data = decode_fn(self._rebuild(decoded, current))
            except WireDecodeError as exc:
                degraded = True
                health.bump("nacks")
                health.bump(
                    "crc_failures"
                    if isinstance(exc, CrcMismatchError)
                    else "decode_errors"
                )
                consume_budget()
                continue
            except StaleReferenceError:
                # §IV-A: a reference is gone (eviction buffer included)
                # or a WMT translation went stale. NACK, then resend
                # the line raw — the fallback cannot go stale.
                degraded = True
                health.bump("nacks")
                health.bump("decode_errors")
                if not raw_mode:
                    self._fall_back_to_raw(make_raw)
                    raw_mode = True
                    current = self._raw_payload
                    budget = policy.max_raw_retries
                else:
                    consume_budget()
                continue

            self._last_frame[direction] = (frame, frame_bits)
            self._seq[direction] = (seq + 1) % (1 << policy.seq_bits)
            health.bump("deliveries")
            health.bump("overhead_bits", overhead_bits)
            if obs_enabled:
                elapsed = perf_counter_ns() - t0
                self._stage_deliver.observe(elapsed)
                if attempts > 1:
                    # Degraded deliveries get their own distribution so
                    # retransmit latency is visible next to the clean
                    # path, not averaged into it.
                    self._stage_retransmit.observe(elapsed)
            return Delivery(
                data=data,
                payload=current,
                attempts=attempts,
                overhead_bits=overhead_bits,
                degraded=degraded,
                frame=(seq, frame, frame_bits),
            )

    def _fall_back_to_raw(self, make_raw: Callable[[], Payload]) -> None:
        self.health.bump("raw_fallbacks")
        self._raw_payload = make_raw()


class RecoveryLayer:
    """Everything one CableLinkPair needs for lossy-link operation."""

    def __init__(
        self,
        policy: RecoveryPolicy,
        fmt: WireFormat,
        engine_name: str,
        faults: Optional[FaultPlan] = None,
        breaker_clock: Optional[Callable[[], int]] = None,
    ) -> None:
        self.policy = policy
        self.health = LinkHealth()
        self.breaker = CircuitBreaker(policy, clock=breaker_clock)
        wire_inj = channel_inj = None
        self.state_faults: Optional[StateFaultInjector] = None
        if faults is not None and faults.any_faults:
            wire_inj = WireFaultInjector(faults)
            channel_inj = ChannelFaultInjector(faults)
            self.state_faults = StateFaultInjector(faults)
        self.wire_faults = wire_inj
        self.channel_faults = channel_inj
        self.link = ReliableLink(
            policy,
            fmt,
            engine_name,
            self.health,
            wire_faults=wire_inj,
            channel_faults=channel_inj,
            state_faults=self.state_faults,
        )

    def bind(self, pair) -> None:
        if self.state_faults is not None:
            self.state_faults.bind(pair)

    @property
    def faults_injected(self) -> int:
        total = 0
        for injector in (self.wire_faults, self.channel_faults, self.state_faults):
            if injector is not None:
                total += injector.faults_injected
        return total

    def fault_stats(self) -> Dict[str, int]:
        stats: Dict[str, int] = {}
        for injector in (self.wire_faults, self.channel_faults, self.state_faults):
            if injector is not None:
                stats.update(injector.stats)
        return stats


# ======================================================================
# Epoch-based crash resynchronization
# ======================================================================


class EpochResync:
    """The reconnect handshake after an endpoint restart.

    The restarted endpoint sends a HELLO frame carrying the epoch and
    journal length its restore reached; the surviving peer answers
    with an EPOCH frame carrying the progress it last observed (every
    journaled op rode a delivered frame, so the peer's view *is* the
    pre-crash truth). The journal-replay restore is trusted only when
    the two agree exactly **and** the restore itself reported
    completeness — any mismatch (lost journal tail, poisoned journal,
    epoch gap past ``max_epoch_gap``) degrades to the incremental
    audit-rebuild path, where every entry is re-verified against data
    before it can back a DIFF.

    Both handshake frames are real encoded bits (CRC-guarded, see
    :func:`repro.link.wire.encode_epoch_frame`) and their cost is
    charged to the link's recovery-traffic counters.
    """

    def __init__(self, policy: RecoveryPolicy, health: LinkHealth) -> None:
        self.policy = policy
        self.health = health

    def reconnect(self, restored, expected) -> str:
        """Run the handshake; returns ``"replay"`` or ``"rebuild"``.

        *restored* is the :class:`repro.state.manager.RestoreResult`
        plus the manager's post-restore progress (``(epoch, records)``
        via ``manager.expected_progress()``); *expected* is the
        progress the surviving peer last observed.
        """
        with trace("link.epoch_handshake"):
            return self._reconnect(restored, expected)

    def _reconnect(self, restored, expected) -> str:
        manager_progress, result = restored
        policy = self.policy
        hello = encode_epoch_frame(
            EPOCH_KIND_HELLO,
            manager_progress[0],
            manager_progress[1],
            result.complete,
            policy.crc_bits,
            policy.seq_bits,
        )
        reply = encode_epoch_frame(
            EPOCH_KIND_EPOCH,
            expected[0],
            expected[1],
            True,
            policy.crc_bits,
            policy.seq_bits,
        )
        # Model the receive side of both frames (exercises the codec;
        # a corrupted handshake would surface here as a loud error).
        for writer in (hello, reply):
            decode_epoch_frame(
                writer.getvalue(),
                writer.bit_count,
                policy.crc_bits,
                policy.seq_bits,
            )
        handshake = hello.bit_count + reply.bit_count
        health = self.health
        health.bump("handshake_bits", handshake)
        health.bump("resync_traffic_bits", handshake)
        health.bump("snapshot_restores")
        health.bump("snapshot_corruptions_detected", result.corrupt_skipped)
        if result.complete and manager_progress == expected:
            health.bump("journal_replays")
            health.bump("journal_records_replayed", result.records_replayed)
            health.bump("replay_traffic_bits", result.replay_bits)
            health.bump("resync_traffic_bits", result.replay_bits)
            return "replay"
        health.bump("full_rebuilds")
        return "rebuild"


class ResyncSession:
    """Incremental ground-truth rebuild of home-side metadata.

    Walks the remote cache ``chunk_sets`` sets at a time — one chunk
    per live transfer, so recovery interleaves with traffic instead of
    stalling the link. For every resident remote line the home cache
    is probed for the same address; a SHARED pair is byte-verified
    (its data crosses the link, charged to ``rebuild_traffic_bits``)
    before the WMT entry is installed and its index-time signatures
    re-inserted on both sides. Entries the walk has not reached yet
    simply are not referencable — compression loss, never corruption.

    The session operates on a :class:`~repro.core.encoder.CableLinkPair`
    duck-typed (this module cannot import it — layering).
    """

    def __init__(self, pair, health: LinkHealth, chunk_sets: int) -> None:
        self.pair = pair
        self.health = health
        self.chunk_sets = max(1, chunk_sets)
        remote_geometry = pair.pair.remote.geometry
        self.total_sets = remote_geometry.sets
        self._way_bits = remote_geometry.way_bits
        self._ways = remote_geometry.ways
        self._line_bits = remote_geometry.line_bytes * 8
        self.next_set = 0
        self.done = False
        self.verified_lines = 0
        self.steps = 0

    def step(self) -> bool:
        """Process one chunk; returns True when the walk completed."""
        if self.done:
            return True
        with trace("link.resync.step"):
            return self._step()

    def _step(self) -> bool:
        self.steps += 1
        self.health.bump("recovery_transfers")
        pair = self.pair
        encoder = pair.home_encoder
        decoder = pair.remote_decoder
        wmt = encoder.wmt
        home, remote = pair.pair.home, pair.pair.remote
        end = min(self.next_set + self.chunk_sets, self.total_sets)
        for set_index in range(self.next_set, end):
            for way in range(self._ways):
                remote_lid = LineId.pack(set_index, way, self._way_bits)
                line = remote.read_by_lineid(remote_lid)
                if line is None:
                    if wmt.home_lid_for(remote_lid) is not None:
                        wmt.invalidate_remote(remote_lid)
                    continue
                hit = home.lookup(line.tag, touch=False)
                if hit is None:
                    continue  # I4 hole; never advertise it
                home_way, home_line = hit
                home_lid = home.lineid(home.index_of(line.tag), home_way)
                usable = (
                    home_line.state is not None
                    and home_line.state.usable_as_reference
                )
                if usable:
                    # Byte-verify before trusting: the line's data is
                    # shipped across for comparison.
                    self.health.bump("rebuild_traffic_bits", self._line_bits)
                    self.health.bump("resync_traffic_bits", self._line_bits)
                    if home_line.data != line.data:
                        continue  # divergent — not reference-safe
                    self.verified_lines += 1
                wmt.install(home_lid, remote_lid)
                if usable:
                    for signature in encoder.extractor.index_signatures(
                        line.data
                    ):
                        encoder.hash_table.insert(signature, home_lid)
                        decoder.hash_table.insert(signature, remote_lid)
        self.next_set = end
        if self.next_set >= self.total_sets:
            self.done = True
        return self.done
