"""CABLE link endpoints: the home encoder and the remote decoder.

The home encoder owns the structures Fig 4 places at the home cache —
the signature hash table, the WMT and the search pipeline — and turns
outbound lines into :class:`~repro.core.payload.Payload` objects. The
remote decoder owns the remote-side hash table (used for write-back
compression, §III-G) and the eviction buffer, and reconstructs lines
from payloads by reading its own data array.

:class:`CableLinkPair` bundles both endpoints around an
:class:`~repro.cache.hierarchy.InclusivePair` and keeps them
synchronized through the pair's coherence events (see
:mod:`repro.core.sync`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from time import perf_counter_ns
from typing import Callable, List, Optional, Tuple

from repro.cache.hierarchy import InclusivePair, TransferEvent
from repro.cache.setassoc import LineId, SetAssociativeCache
from repro.compression.base import ReferenceCompressor
from repro.compression.registry import make_engine
from repro.core.config import CableConfig
from repro.core.errors import DecompressionError, StaleReferenceError
from repro.core.evictbuf import EvictionBuffer
from repro.core.hashtable import SignatureHashTable
from repro.core.payload import Payload, PayloadKind, choose_payload
from repro.core.search import SearchPipeline, SearchResult
from repro.core.signature import SignatureExtractor
from repro.core.wmt import WayMapTable
from repro.link.recovery import Delivery, RecoveryLayer
from repro.link.wire import wire_format_for
from repro.obs.registry import METRICS
from repro.obs.report import publish_kernel_gauges
from repro.obs.tracer import trace
from repro.tune.plan import GEOMETRY_KNOBS, TUNABLE_KNOBS

__all__ = [
    "CableHomeEncoder",
    "CableLinkPair",
    "CableRemoteDecoder",
    "DecompressionError",  # canonical home is repro.core.errors
    "EncodeOutcome",
    "FailoverOutcome",
    "TransferRecord",
]


@dataclass(frozen=True)
class FailoverOutcome:
    """What one standby promotion achieved."""

    #: True when both sides promoted replay-grade (clean standby, no
    #: backlog lost); False when the auditor had to reconcile.
    hot: bool
    #: Journaled records the asynchronous replication lag cost us.
    lost_records: int


def _make_reference_engine(name: str) -> ReferenceCompressor:
    engine = make_engine(name)
    if not isinstance(engine, ReferenceCompressor):
        raise ValueError(f"engine {name!r} cannot be seeded with references")
    return engine


@dataclass
class EncodeOutcome:
    """A payload plus the search diagnostics that produced it."""

    payload: Payload
    search: Optional[SearchResult] = None

    @property
    def size_bits(self) -> int:
        return self.payload.size_bits


class _CableEndpoint:
    """What both endpoints build alike over their own cache — the
    signature extractor, a hash table sized for that cache, the
    reference engine and the search pipeline — and the one compress
    step they share (§III-C/E)."""

    def __init__(self, config: CableConfig, cache: SetAssociativeCache) -> None:
        self.config = config
        self.extractor = SignatureExtractor(config)
        self.hash_table = SignatureHashTable.sized_for(
            cache.geometry.lines,
            scale=config.hash_table_scale,
            bucket_entries=config.hash_bucket_entries,
        )
        self.engine = _make_reference_engine(config.engine)
        self.pipeline = SearchPipeline(
            config,
            self.extractor,
            self.hash_table,
            cache,
            self._referencable,
        )
        self._obs = METRICS
        self._stage_diff = METRICS.stage("encode.diff")

    def _compress(self, line_addr: int, data: bytes, exclude) -> EncodeOutcome:
        """Search for references (skipping the line's own slot
        *exclude*), compress without and with them, and apply the
        §III-E selection rule."""
        search = self.pipeline.search(data, exclude=exclude)
        enabled = self._obs.enabled
        if enabled:
            t1 = perf_counter_ns()
        no_ref = self.engine.compress_with_references(data, ())
        with_refs = None
        if search.references:
            refs = search.references
            block = self.engine.compress_with_references(
                data, [r.data for r in refs]
            )
            with_refs = (
                block,
                tuple(r.remote_lid for r in refs),
                tuple(r.line_addr for r in refs),
            )
        if enabled:
            self._stage_diff.observe(perf_counter_ns() - t1)
        payload = choose_payload(
            line_addr,
            data,
            with_refs,
            no_ref,
            self.config.no_reference_threshold,
            self.config.remotelid_bits,
        )
        return EncodeOutcome(payload=payload, search=search)


class CableHomeEncoder(_CableEndpoint):
    """Home-side endpoint: search, compress, point, transmit."""

    def __init__(
        self,
        config: CableConfig,
        home_cache: SetAssociativeCache,
        remote_geometry,
    ) -> None:
        self.home_cache = home_cache
        self.wmt = WayMapTable(home_cache.geometry, remote_geometry)
        super().__init__(config, home_cache)
        self.stats = {
            "encodes": 0,
            "with_references": 0,
            "no_reference": 0,
            "uncompressed": 0,
            "reference_count": 0,
        }
        self._stage_encode = METRICS.stage("encode.fill")
        self._stage_index = METRICS.stage("signature.index")
        self._stage_decode_wb = METRICS.stage("decode.writeback")
        self._ctr_kinds = {
            kind.value: METRICS.counter(f"encode.kind.{kind.value}")
            for kind in PayloadKind
        }
        self._ctr_indexed = METRICS.counter("signature.lines_indexed")
        publish_kernel_gauges()

    def _referencable(self, home_lid: LineId) -> Optional[LineId]:
        """A home line is referencable iff the WMT proves it resides in
        the remote cache (state checks happen in the search pipeline)."""
        return self.wmt.remote_lid_for(home_lid)

    # ------------------------------------------------------------------
    # Compression path (home → remote)
    # ------------------------------------------------------------------

    def encode(
        self, line_addr: int, data: bytes, home_lid: Optional[LineId]
    ) -> EncodeOutcome:
        """Compress one outbound line.

        ``home_lid`` excludes the line's own slot from the reference
        search; pass None when the line is not resident (should not
        happen on the fill path of an inclusive hierarchy).
        """
        enabled = self._obs.enabled
        if enabled:
            t0 = perf_counter_ns()
        outcome = self._compress(line_addr, data, home_lid)
        payload = outcome.payload
        self.stats["encodes"] += 1
        self.stats[payload.kind.value] += 1
        self.stats["reference_count"] += len(payload.remote_lids)
        if enabled:
            self._stage_encode.observe(perf_counter_ns() - t0)
            self._ctr_kinds[payload.kind.value].inc()
        return outcome

    # ------------------------------------------------------------------
    # Write-back path (remote → home): decode using the WMT
    # ------------------------------------------------------------------

    def decode_writeback(self, payload: Payload) -> bytes:
        """Reconstruct a written-back line from remote-LID pointers.

        The remote cache has no WMT; it sends its own LineIDs, which
        the home cache translates through its WMT to locate the
        reference data in its own array (§III-G).
        """
        if payload.kind is PayloadKind.UNCOMPRESSED:
            return payload.raw
        enabled = self._obs.enabled
        if enabled:
            t0 = perf_counter_ns()
        references: List[bytes] = []
        for i, remote_lid in enumerate(payload.remote_lids):
            home_lid = self.wmt.home_lid_for(remote_lid)
            if home_lid is None:
                raise StaleReferenceError(
                    f"write-back reference {remote_lid} is not tracked in the WMT"
                )
            line = self.home_cache.read_by_lineid(home_lid)
            if line is None:
                raise StaleReferenceError(
                    f"WMT points at an empty home slot {home_lid}"
                )
            if payload.ref_addrs and line.tag != payload.ref_addrs[i]:
                raise StaleReferenceError(
                    "write-back reference desynchronized: "
                    f"expected line {payload.ref_addrs[i]:#x}, found {line.tag:#x}"
                )
            references.append(line.data)
        data = self.engine.decompress_with_references(payload.block, references)
        if enabled:
            self._stage_decode_wb.observe(perf_counter_ns() - t0)
        return data

    # ------------------------------------------------------------------
    # Synchronization hooks (driven by repro.core.sync)
    # ------------------------------------------------------------------

    def on_fill_sent(self, event: TransferEvent) -> None:
        """After a fill leaves: index shared lines, update the WMT."""
        displaced = self.wmt.install(event.home_lid, event.remote_lid)
        if displaced is not None:
            # Way-replacement info said this slot held another of our
            # lines; scrub its signatures (normally the remote_evict
            # event has already done this — belt and braces).
            self.invalidate_home_line(displaced, data=None)
        if event.state is not None and event.state.usable_as_reference:
            enabled = self._obs.enabled
            if enabled:
                t0 = perf_counter_ns()
            for signature in self.extractor.index_signatures(event.data):
                self.hash_table.insert(signature, event.home_lid)
            if enabled:
                self._stage_index.observe(perf_counter_ns() - t0)
                self._ctr_indexed.inc()

    def on_remote_evict(self, event: TransferEvent) -> None:
        """The remote lost a line: WMT slot out, signatures out."""
        home_lid = self.wmt.invalidate_remote(event.remote_lid)
        if home_lid is not None:
            self.invalidate_home_line(home_lid, data=event.data)

    def on_upgrade(self, event: TransferEvent) -> None:
        """Shared→Modified: the home copy is stale; forget it."""
        self.invalidate_home_line(event.home_lid, data=event.data)

    def on_home_evict(self, event: TransferEvent) -> None:
        if event.home_lid is not None:
            self.invalidate_home_line(event.home_lid, data=event.data)
            self.wmt.invalidate_home(event.home_lid)

    def invalidate_home_line(self, home_lid: LineId, data: Optional[bytes]) -> None:
        """Remove a line's signatures from the hash table (§III-F).

        Recomputes the index-time signatures from the line's data and
        removes the LineID from those buckets. Staleness is tolerated:
        a missed removal only leaves a harmless stale candidate that
        the search pipeline will reject by CBV/WMT checks.
        """
        if data is None:
            cached = self.home_cache.read_by_lineid(home_lid)
            if cached is None:
                self.hash_table.remove_lineid_everywhere(home_lid)
                return
            data = cached.data
        for signature in self.extractor.index_signatures(data):
            self.hash_table.remove(signature, home_lid)


class CableRemoteDecoder(_CableEndpoint):
    """Remote-side endpoint: decompress fills, compress write-backs."""

    def __init__(self, config: CableConfig, remote_cache: SetAssociativeCache) -> None:
        self.remote_cache = remote_cache
        super().__init__(config, remote_cache)
        self.evict_buffer = EvictionBuffer(
            config.eviction_buffer_entries, config.eviction_buffer_policy
        )
        self.stats = {"decodes": 0, "rescued_references": 0, "writeback_encodes": 0}
        self._stage_decode = METRICS.stage("decode.fill")
        self._stage_encode_wb = METRICS.stage("encode.writeback")
        self._ctr_rescued = METRICS.counter("decode.rescued_references")

    def _referencable(self, remote_lid: LineId) -> Optional[LineId]:
        """For write-back search the remote references its own slots;
        inclusivity guarantees the home cache also holds them."""
        return remote_lid

    # ------------------------------------------------------------------
    # Decompression path (home → remote)
    # ------------------------------------------------------------------

    def decode(self, payload: Payload) -> bytes:
        self.stats["decodes"] += 1
        if payload.kind is PayloadKind.UNCOMPRESSED:
            return payload.raw
        enabled = self._obs.enabled
        if enabled:
            t0 = perf_counter_ns()
        references: List[bytes] = []
        for i, remote_lid in enumerate(payload.remote_lids):
            references.append(self._read_reference(payload, i, remote_lid))
        data = self.engine.decompress_with_references(payload.block, references)
        if enabled:
            self._stage_decode.observe(perf_counter_ns() - t0)
        return data

    def _read_reference(self, payload: Payload, i: int, remote_lid: LineId) -> bytes:
        line = self.remote_cache.read_by_lineid(remote_lid)
        expected_addr = payload.ref_addrs[i] if payload.ref_addrs else None
        if line is not None and (expected_addr is None or line.tag == expected_addr):
            return line.data
        # Race (§IV-A): the reference was evicted while the response
        # was in flight — recover it from the eviction buffer.
        if expected_addr is not None:
            rescued = self.evict_buffer.rescue(remote_lid, expected_addr)
            if rescued is not None:
                self.stats["rescued_references"] += 1
                if self._obs.enabled:
                    self._ctr_rescued.inc()
                return rescued
        raise StaleReferenceError(
            f"reference {remote_lid} missing from remote cache and eviction buffer"
        )

    # ------------------------------------------------------------------
    # Write-back compression (remote → home, §III-G)
    # ------------------------------------------------------------------

    def encode_writeback(self, line_addr: int, data: bytes, remote_lid) -> EncodeOutcome:
        self.stats["writeback_encodes"] += 1
        enabled = self._obs.enabled
        if enabled:
            t0 = perf_counter_ns()
        outcome = self._compress(line_addr, data, remote_lid)
        if enabled:
            self._stage_encode_wb.observe(perf_counter_ns() - t0)
        return outcome

    # ------------------------------------------------------------------
    # Synchronization hooks
    # ------------------------------------------------------------------

    def on_fill_received(self, event: TransferEvent) -> None:
        """Index newly received shared lines for write-back search."""
        if event.state is not None and event.state.usable_as_reference:
            for signature in self.extractor.index_signatures(event.data):
                self.hash_table.insert(signature, event.remote_lid)

    def on_remote_evict(self, event: TransferEvent) -> None:
        self.evict_buffer.record(event.remote_lid, event.line_addr, event.data)
        for signature in self.extractor.index_signatures(event.data):
            self.hash_table.remove(signature, event.remote_lid)

    def on_upgrade(self, event: TransferEvent) -> None:
        for signature in self.extractor.index_signatures(event.data):
            self.hash_table.remove(signature, event.remote_lid)


@dataclass
class TransferRecord:
    """One finished transfer — what :attr:`CableLinkPair.listeners`
    receive."""

    direction: str  # "fill" or "writeback"
    line_addr: int
    #: The payload form that got through (raw after a fallback).
    payload: Payload
    #: The line as the sender held it.
    data: bytes
    search: Optional[SearchResult] = None
    #: Wire bits beyond the payload: framing plus retransmissions.
    overhead_bits: int = 0
    #: ``(seq, bytes, bits)`` of the frame that decoded; None when the
    #: pair runs unframed.
    frame: Optional[Tuple[int, bytes, int]] = None

    @property
    def size_bits(self) -> int:
        return self.payload.size_bits


class CableLinkPair:
    """Both CABLE endpoints wired around an inclusive cache pair.

    Drive it with :meth:`access`; every fill and write-back is
    compressed, transmitted, decompressed and *verified* against the
    original data — a failed verification raises
    :class:`DecompressionError` and indicates a synchronization bug —
    then handed, as one :class:`TransferRecord`, to :attr:`listeners`.
    """

    def __init__(
        self,
        config: CableConfig,
        pair: InclusivePair,
        verify: bool = True,
        enabled: bool = True,
        silent_evictions: bool = False,
        breaker_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """``silent_evictions`` models §IV-B's 1-to-1 / linearly
        interleaved configurations: the remote never sends explicit
        eviction notices for fill displacements; the home tracks them
        purely from the way-replacement info embedded in each request
        (the WMT-displacement path of ``on_fill_sent``).

        ``breaker_clock`` is forwarded to the circuit breaker so
        campaigns can pin breaker cooldowns to a deterministic
        simulated clock instead of wall time.
        """
        self.config = config
        self.pair = pair
        self.verify = verify
        self.enabled = enabled
        self.silent_evictions = silent_evictions
        self.home_encoder = CableHomeEncoder(
            config, pair.home, pair.remote.geometry
        )
        self.remote_decoder = CableRemoteDecoder(config, pair.remote)
        #: Called with every :class:`TransferRecord`, after the
        #: transfer's §III-F sync — the one way to observe transfers.
        self.listeners: List[Callable[[TransferRecord], None]] = []
        self.totals = {
            "fill_bits": 0,
            "writeback_bits": 0,
            "raw_bits": 0,
            "overhead_bits": 0,
            "fills": 0,
            "writebacks": 0,
        }
        self._obs = METRICS
        self._ctr_transfers = {
            direction: METRICS.counter(f"link.{direction}s")
            for direction in ("fill", "writeback")
        }
        self._ctr_payload_bits = METRICS.counter("link.payload_bits")
        self._ctr_raw_bits = METRICS.counter("link.raw_bits")
        # Lossy-link mode: a FaultPlan, RecoveryPolicy or
        # DurabilityPolicy on the config switches transfers onto the
        # framed wire path with NACK/retransmit recovery
        # (repro.link.recovery).
        recovery = config.recovery
        if recovery is None and (
            (config.faults is not None and config.faults.any_faults)
            or config.durability is not None
        ):
            from repro.fault.plan import RecoveryPolicy

            recovery = RecoveryPolicy()
        self.recovery_layer: Optional[RecoveryLayer] = None
        if recovery is not None:
            fmt = wire_format_for(config, self.home_encoder.engine)
            self.recovery_layer = RecoveryLayer(
                recovery,
                fmt,
                config.engine,
                config.faults,
                breaker_clock=breaker_clock,
            )
            self.recovery_layer.bind(self)
        # Crash durability (repro.state): per-endpoint snapshot+journal
        # managers guarding the volatile mirrored metadata.
        self.home_state = None
        self.remote_state = None
        self._resync_session = None
        if config.durability is not None:
            self._arm_durability(config.durability)
        # Replication slot (repro.replica): the journal shipper keeping
        # a warm standby of both endpoints — an in-process WarmStandby
        # (arm_replication) or a cluster worker's SessionShipper. All
        # the pair ever calls on it is pump(force) and reseed().
        self.replica = None
        pair.add_observer(self._on_event)

    def _arm_durability(self, policy) -> None:
        from repro.state.manager import EndpointStateManager

        home_geometry = self.pair.home.geometry
        homelid_bits = home_geometry.lineid_bits
        remotelid_bits = self.config.remotelid_bits
        costs = {
            "wmt_install": homelid_bits + remotelid_bits,
            "wmt_inval_remote": remotelid_bits,
            "wmt_inval_home": homelid_bits,
            "hash_insert": 32 + homelid_bits,
            "hash_remove": 32 + homelid_bits,
            "evict_record": 32 + remotelid_bits + 32,
            "evict_ack": 32,
        }
        self.home_state = EndpointStateManager(
            "home",
            policy,
            {
                "wmt": self.home_encoder.wmt,
                "hash": self.home_encoder.hash_table,
                "breaker": self.recovery_layer.breaker,
            },
            costs,
        )
        remote_costs = dict(costs)
        remote_costs["hash_insert"] = 32 + remotelid_bits
        remote_costs["hash_remove"] = 32 + remotelid_bits
        self.remote_state = EndpointStateManager(
            "remote",
            policy,
            {
                "hash": self.remote_decoder.hash_table,
                "evictbuf": self.remote_decoder.evict_buffer,
            },
            remote_costs,
        )
        self.home_state.attach()
        self.remote_state.attach()

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _on_event(self, event: TransferEvent) -> None:
        if event.kind == "remote_evict":
            self.remote_decoder.on_remote_evict(event)
            if self.silent_evictions and event.displaced_addr is not None:
                # §IV-B: no explicit notice for fill displacements —
                # the home infers them from the request's
                # way-replacement info when the fill is processed.
                return
            self.home_encoder.on_remote_evict(event)
        elif event.kind == "fill" or event.kind == "writeback":
            self._transfer(event.kind, event)
        elif event.kind == "upgrade":
            self.home_encoder.on_upgrade(event)
            self.remote_decoder.on_upgrade(event)
        elif event.kind == "home_evict":
            self.home_encoder.on_home_evict(event)

    def _transfer(self, direction: str, event: TransferEvent) -> None:
        """Carry one line across the link (§III-E/F).

        Compress it (raw while the breaker is open), deliver it —
        through :class:`~repro.link.recovery.ReliableLink`'s framed
        NACK/retransmit protocol when a recovery layer is armed, by
        direct decode otherwise — verify, tick the breaker, run the
        post-transfer synchronization and account one record.
        """
        fill = direction == "fill"
        layer = self.recovery_layer
        if layer is not None and layer.breaker.is_open:
            layer.health.bump("breaker_raw_transfers")
            payload, search = self._raw_payload(event), None
        else:
            payload, search = self._encode(direction, event)
        decode = (
            self.remote_decoder.decode if fill else self.home_encoder.decode_writeback
        )
        overhead_bits, frame = 0, None
        if layer is not None:
            delivery = layer.link.deliver(
                direction, payload, decode, lambda: self._raw_payload(event)
            )
            data, payload = delivery.data, delivery.payload
            overhead_bits, frame = delivery.overhead_bits, delivery.frame
        elif self.verify and (fill or self.enabled):
            data = decode(payload)
        else:
            data = event.data
            if fill:
                self.remote_decoder.stats["decodes"] += 1
        if self.verify and data != event.data:
            if layer is not None:
                layer.health.bump("silent_corruptions")
            what = "fill for" if fill else "write-back of"
            raise DecompressionError(
                f"{what} line {event.line_addr:#x} decompressed incorrectly"
            )
        if layer is not None:
            self._breaker_tick(delivery)
        if fill:
            # Post-transfer synchronization (§III-F): both sides index
            # the line and the home side updates its WMT.
            self.home_encoder.on_fill_sent(event)
            self.remote_decoder.on_fill_received(event)
        self._account(
            TransferRecord(
                direction=direction,
                line_addr=event.line_addr,
                payload=payload,
                data=event.data,
                search=search,
                overhead_bits=overhead_bits,
                frame=frame,
            )
        )
        self._step_resync()

    def _encode(self, direction: str, event: TransferEvent):
        """The outbound payload and its search diagnostics (None when
        the line goes raw)."""
        if not self.enabled:
            return self._raw_payload(event), None
        if direction == "fill":
            outcome = self.home_encoder.encode(
                event.line_addr, event.data, event.home_lid
            )
        else:
            outcome = self.remote_decoder.encode_writeback(
                event.line_addr, event.data, event.remote_lid
            )
        return outcome.payload, outcome.search

    def _raw_payload(self, event: TransferEvent) -> Payload:
        return Payload(
            kind=PayloadKind.UNCOMPRESSED,
            line_addr=event.line_addr,
            line_bytes=len(event.data),
            raw=event.data,
            remotelid_bits=self.config.remotelid_bits,
        )

    def _breaker_tick(self, delivery: Delivery) -> None:
        """Feed one transfer outcome to the circuit breaker."""
        layer = self.recovery_layer
        breaker = layer.breaker
        if breaker.is_open:
            if breaker.tick_open():
                layer.health.bump("breaker_recoveries")
        elif breaker.record(not delivery.degraded):
            layer.health.bump("breaker_trips")
            if layer.policy.failover_on_trip and self.replica is not None:
                # A tripping primary is a failing primary: promote the
                # warm standby instead of limping through cooldown.
                self.failover()
            elif layer.policy.resync_on_trip:
                # A real link would retrain; the model re-audits and
                # repairs WMT/hash state so the post-cooldown window
                # starts from synchronized metadata.
                self.resync()

    def resync(self):
        """Audit and repair both endpoints' metadata (§III-F auditor).

        Returns the :class:`repro.core.sync.AuditReport`; when a
        recovery layer is active its health counters record the pass.
        """
        from repro.core.sync import audit  # lazy: sync imports this module

        with trace("link.resync"):
            report = audit(self, repair=True)
        if self.recovery_layer is not None:
            self.recovery_layer.health.bump("resyncs")
            self.recovery_layer.health.bump("resync_repairs", report.repairs)
        if report.repairs:
            self._rebaseline()
        return report

    def _rebaseline(self) -> None:
        """Follow a journal-bypassing bulk mutation (audit repair, hash
        reshape, warm promotion): checkpoint both durability managers
        so a later replay starts from the new image, and reseed the
        replica slot so its standby does too — a standby left on the
        old image would replay later batches on top of it and could
        still claim the primary's progress."""
        for manager in (self.home_state, self.remote_state):
            if manager is not None:
                manager.checkpoint()
        if self.replica is not None:
            self.replica.reseed()

    # ------------------------------------------------------------------
    # Crash / restart (repro.state + epoch resync)
    # ------------------------------------------------------------------

    #: Volatile structures wiped by a warm restart of each endpoint
    #: (cache data arrays survive; they are the ground truth).
    _VOLATILE = {
        "home": ("wmt", "hash", "breaker"),
        "remote": ("hash", "evictbuf"),
    }

    def crash_endpoint(self, side: str, sabotage=(), sabotage_rng=None) -> str:
        """Kill one endpoint's metadata mid-run and bring it back.

        *side* is ``"home"`` or ``"remote"``. *sabotage* lists
        persistent-store faults applied before the restart:
        ``"snapshot"`` (flip a byte of the newest snapshot, needs
        *sabotage_rng*), ``"journal_poison"`` (torn journal device) and
        ``"journal_tail"`` (silently lose the newest records).

        Returns the recovery path taken: ``"replay"`` (snapshot +
        journal replay verified by the epoch handshake), ``"rebuild"``
        (handshake refused the restore; incremental audit-rebuild) or
        ``"ground-truth"`` (no durability manager; stop-the-world
        rebuild from the cache arrays).
        """
        if side not in self._VOLATILE:
            raise ValueError(f"unknown endpoint {side!r}")
        layer = self.recovery_layer
        if layer is None:
            raise RuntimeError(
                "crash_endpoint requires the framed link "
                "(set config.durability, config.recovery or config.faults)"
            )
        layer.health.bump("endpoint_crashes")
        manager = self.home_state if side == "home" else self.remote_state
        expected = None
        if manager is not None:
            # What the peer knows: every journaled op rode a delivered
            # frame, so the pre-sabotage progress is the peer's view.
            expected = manager.expected_progress()
            for kind in sabotage:
                if kind == "snapshot":
                    manager.corrupt_newest_snapshot(sabotage_rng)
                elif kind == "journal_poison":
                    manager.poison_journal()
                elif kind == "journal_tail":
                    count = (
                        sabotage_rng.randrange(1, 9) if sabotage_rng else 4
                    )
                    manager.drop_journal_tail(count)
                else:
                    raise ValueError(f"unknown sabotage {kind!r}")
        self._wipe_volatile(side)
        if manager is None:
            return self._recover_ground_truth(side)
        from repro.link.recovery import EpochResync

        restored = manager.restore()
        handshake = EpochResync(layer.policy, layer.health)
        path = handshake.reconnect(
            (manager.expected_progress(), restored), expected
        )
        if path == "replay":
            return path
        # The handshake refused the restored image: drop it and rebuild
        # from ground truth, then re-baseline the manager.
        self._wipe_volatile(side)
        if side == "remote":
            self._rebuild_remote_metadata()
            manager.checkpoint()
        else:
            self._resync_session = self._make_resync_session()
        return path

    def _wipe_volatile(self, side: str) -> None:
        structures = {
            "wmt": self.home_encoder.wmt,
            "breaker": self.recovery_layer.breaker,
        }
        if side == "home":
            structures["hash"] = self.home_encoder.hash_table
        else:
            structures = {
                "hash": self.remote_decoder.hash_table,
                "evictbuf": self.remote_decoder.evict_buffer,
            }
        for name in self._VOLATILE[side]:
            structures[name].reset_state()

    def _make_resync_session(self):
        from repro.link.recovery import ResyncSession

        durability = self.config.durability
        chunk = durability.resync_chunk_sets if durability else 4
        return ResyncSession(self, self.recovery_layer.health, chunk)

    def _recover_ground_truth(self, side: str) -> str:
        """No durability manager: stop-the-world rebuild from the cache
        arrays — the baseline the snapshot+journal path is measured
        against."""
        self.recovery_layer.health.bump("full_rebuilds")
        if side == "remote":
            self._rebuild_remote_metadata()
        else:
            session = self._make_resync_session()
            while not session.step():
                pass
        return "ground-truth"

    def _rebuild_remote_metadata(self) -> None:
        """Reindex the remote hash table from the remote cache's own
        lines (local work — no link traffic). The eviction buffer
        stays cold: lost entries surface as failed rescues → RAW,
        never as silent corruption."""
        decoder = self.remote_decoder
        for remote_lid, line in self.pair.remote:
            if line.state is not None and line.state.usable_as_reference:
                for signature in decoder.extractor.index_signatures(line.data):
                    decoder.hash_table.insert(signature, remote_lid)

    def _step_resync(self) -> None:
        session = self._resync_session
        if session is None:
            return
        if session.step():
            self._resync_session = None
            if self.home_state is not None:
                self.home_state.checkpoint()

    def drain_resync(self) -> int:
        """Finish any in-flight incremental rebuild (end of run)."""
        steps = 0
        while self._resync_session is not None:
            self._step_resync()
            steps += 1
        return steps

    # ------------------------------------------------------------------
    # Online reconfiguration (repro.tune)
    # ------------------------------------------------------------------

    #: Config fields :meth:`apply_config` may change on a live pair.
    #: Everything else is baked into construction (cache geometry,
    #: fault/recovery/durability wiring, the H3 matrices behind
    #: ``hash_seed``) and would need a rebuild, not a knob turn. The
    #: knob sets are owned by :mod:`repro.tune.plan`, so an arm can
    #: only name knobs this method accepts.
    _TUNABLE = TUNABLE_KNOBS - {"enabled"}
    #: Fields whose change invalidates memoized *index* signatures.
    _INDEX_MEMO_FIELDS = frozenset(
        {"signature_offsets", "signatures_per_line", "trivial_threshold_bits"}
    )
    #: Fields that re-shape the signature hash tables.
    _GEOMETRY_FIELDS = GEOMETRY_KNOBS

    def apply_knobs(self, **overrides) -> frozenset:
        """Convenience wrapper: ``apply_config`` from keyword overrides."""
        return self.apply_config(self.config.with_overrides(**overrides))

    def apply_config(self, target: CableConfig) -> frozenset:
        """Switch the live pair to *target*'s knob settings.

        This is the single safe point for online tuning
        (:mod:`repro.tune`): callers invoke it only at epoch
        boundaries. The protocol, in order: flush the replica slot's
        backlog (so the standby's journal, in-process or on a buddy
        worker, ends at a consistent pre-change point), rebind the
        config on both endpoints and drop every config-derived memo,
        swap compressor engines (and the wire format with them), then
        re-shape and rebuild the hash tables from cache ground truth if
        the geometry moved — with journaling suspended, followed by
        :meth:`_rebaseline`, exactly the bulk-mutation rule the
        durability managers document.

        Returns the set of field names that actually changed (empty
        when *target* equals the current config — a no-op).
        """
        changed = frozenset(
            f.name
            for f in fields(CableConfig)
            if getattr(target, f.name) != getattr(self.config, f.name)
        )
        if not changed:
            return changed
        illegal = changed - self._TUNABLE
        if illegal:
            raise ValueError(
                f"config fields {sorted(illegal)} cannot change on a live pair"
            )
        if self.replica is not None:
            self.replica.pump(force=True)
        self.config = target
        for endpoint in (self.home_encoder, self.remote_decoder):
            endpoint.config = target
            endpoint.extractor.config = target
            endpoint.pipeline.config = target
            if changed & self._INDEX_MEMO_FIELDS:
                endpoint.extractor._index_memo.clear()
            if "trivial_threshold_bits" in changed:
                endpoint.extractor._search_memo.clear()
        if "engine" in changed:
            self.home_encoder.engine = _make_reference_engine(target.engine)
            self.remote_decoder.engine = _make_reference_engine(target.engine)
            if self.recovery_layer is not None:
                link = self.recovery_layer.link
                link.fmt = wire_format_for(target, self.home_encoder.engine)
                link.engine_name = target.engine
        if changed & self._GEOMETRY_FIELDS:
            self._reshape_hash_tables(target)
        return changed

    def _reshape_hash_tables(self, target: CableConfig) -> None:
        """Re-shape both signature hash tables and rebuild them from
        cache ground truth (local work, no link traffic)."""
        managers = [
            manager
            for manager in (self.home_state, self.remote_state)
            if manager is not None
        ]
        for manager in managers:
            manager.suspended = True
        try:
            self.home_encoder.hash_table.reconfigure(
                max(1, int(self.pair.home.geometry.lines * target.hash_table_scale)),
                target.hash_bucket_entries,
            )
            self.remote_decoder.hash_table.reconfigure(
                max(1, int(self.pair.remote.geometry.lines * target.hash_table_scale)),
                target.hash_bucket_entries,
            )
            self._rebuild_home_metadata()
            self._rebuild_remote_metadata()
        finally:
            for manager in managers:
                manager.suspended = False
        self._rebaseline()

    def _rebuild_home_metadata(self) -> None:
        """Reindex the home hash table from the WMT's ground truth.

        Unlike the crash-recovery resync walk this trusts the live WMT
        (nothing crashed — the table was merely re-shaped), so no
        byte-verification traffic is charged: for every remote-resident
        line whose home copy is reference-usable, re-insert its
        index-time signatures under the home LID.
        """
        encoder = self.home_encoder
        wmt = encoder.wmt
        home = self.pair.home
        for remote_lid, line in self.pair.remote:
            home_lid = wmt.home_lid_for(remote_lid)
            if home_lid is None:
                continue
            home_line = home.read_by_lineid(home_lid)
            if (
                home_line is None
                or home_line.state is None
                or not home_line.state.usable_as_reference
            ):
                continue
            for signature in encoder.extractor.index_signatures(line.data):
                encoder.hash_table.insert(signature, home_lid)

    # ------------------------------------------------------------------
    # Warm-standby replication / failover (repro.replica)
    # ------------------------------------------------------------------

    def arm_replication(self, policy=None, ship_fault=None):
        """Attach an in-process warm standby to both endpoints' journals.

        *policy* is a :class:`repro.replica.plan.ReplicationPolicy`
        (defaulted); *ship_fault* optionally sabotages every shipped
        batch (see :class:`repro.replica.standby.WarmStandby`).
        Requires the durability managers — replication ships the
        journal they maintain. Returns the standby, which occupies the
        :attr:`replica` slot.
        """
        from repro.replica.plan import ReplicationPolicy
        from repro.replica.standby import WarmStandby

        if self.home_state is None or self.remote_state is None:
            raise RuntimeError(
                "replication requires durability (set config.durability)"
            )
        self.replica = WarmStandby(
            {"home": self.home_state, "remote": self.remote_state},
            policy or ReplicationPolicy(),
            ship_fault,
        )
        return self.replica

    def failover(self) -> "FailoverOutcome":
        """Kill the primary's metadata and promote the warm standby.

        Unlike :meth:`crash_endpoint`, nothing is restored from the
        primary's persistent store — the machine is gone. Both sides'
        volatile structures are wiped and replaced with the standby's
        mirror image; the existing HELLO/EPOCH handshake then
        adjudicates the image exactly as it would a crash restore: a
        *clean* standby (every shipped record applied in order, empty
        backlog) is replay-grade — the journal tee guarantees it saw
        every op the peer's frames carried — while a lossy one (lag at
        kill, un-healed gap) is not trusted and the promotion is
        reconciled against cache ground truth by the §III-F auditor.
        Each manager checkpoints on the promoted image, bumping the
        epoch — live sessions observe the bump and stale resumes are
        redirected through the resync-before-grant path. Finally the
        standby reseeds exactly once, the old primary rejoining as the
        new standby.
        """
        from repro.link.recovery import EpochResync
        from repro.replica.standby import WarmStandby
        from repro.state.manager import RestoreResult

        replica = self.replica
        if not isinstance(replica, WarmStandby):
            raise RuntimeError("failover requires arm_replication() first")
        layer = self.recovery_layer
        if layer is None:
            raise RuntimeError("failover requires the framed link")
        layer.health.bump("failovers")
        lost_total = 0
        hot = True
        for side in ("home", "remote"):
            manager = self.home_state if side == "home" else self.remote_state
            expected = manager.expected_progress()
            lost, clean, sections = replica.kill_primary(side)
            lost_total += lost
            self._wipe_volatile(side)
            manager.suspended = True
            try:
                for name, image in sections.items():
                    manager.structures[name].restore_state(image)
            finally:
                manager.suspended = False
            standby = replica.standbys[side]
            promoted = RestoreResult(
                base_epoch=standby.applied_progress[0],
                records_replayed=standby.stats["records_applied"],
                replay_bits=standby.stats["bits_applied"],
                complete=clean,
            )
            progress = expected if clean else standby.applied_progress
            handshake = EpochResync(layer.policy, layer.health)
            if handshake.reconnect((progress, promoted), expected) != "replay":
                hot = False
            manager.checkpoint()
        layer.health.bump("replication_lost_records", lost_total)
        layer.health.bump("hot_promotions" if hot else "warm_promotions")
        # A warm image predates the lost journal tail: the auditor
        # repairs it against the surviving cache arrays, and a
        # repairing resync re-baselines — reseeding the standby — by
        # itself. Otherwise the reseed is all that is left to do.
        if hot or not self.resync().repairs:
            replica.reseed()
        if METRICS.enabled:
            METRICS.counter(
                "replica.promotions_hot" if hot else "replica.promotions_warm"
            ).inc()
        return FailoverOutcome(hot=hot, lost_records=lost_total)

    @property
    def health(self) -> dict:
        """Recovery + fault-injection counters (empty without a layer)."""
        if self.recovery_layer is None:
            return {}
        counts = self.recovery_layer.health.as_dict()
        counts.update(self.recovery_layer.fault_stats())
        counts["faults_injected"] = self.recovery_layer.faults_injected
        return counts

    def _account(self, record: TransferRecord) -> None:
        """Count one finished transfer, then hand it to every listener."""
        direction = record.direction
        payload_bits = record.payload.size_bits
        raw_bits = len(record.data) * 8
        totals = self.totals
        totals[f"{direction}s"] += 1
        totals[f"{direction}_bits"] += payload_bits
        totals["raw_bits"] += raw_bits
        totals["overhead_bits"] += record.overhead_bits
        if self._obs.enabled:
            self._ctr_transfers[direction].inc()
            self._ctr_payload_bits.inc(payload_bits)
            self._ctr_raw_bits.inc(raw_bits)
        for listener in self.listeners:
            listener(record)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def access(self, line_addr: int, is_write: bool = False, write_data=None):
        """One remote-side access; compression rides the events."""
        return self.pair.access(line_addr, is_write=is_write, write_data=write_data)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def compressed_bits(self) -> int:
        return self.totals["fill_bits"] + self.totals["writeback_bits"]

    @property
    def compression_ratio(self) -> float:
        """Raw payload compression ratio across all transfers."""
        if self.compressed_bits == 0:
            return 1.0
        return self.totals["raw_bits"] / self.compressed_bits
