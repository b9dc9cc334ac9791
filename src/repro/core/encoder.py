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
:mod:`repro.core.sync`). What happens to the endpoints' metadata
between transfers — durability, crash restart, reconfiguration and
failover — is the pair's :class:`~repro.link.lifecycle.LinkLifecycle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, List, Optional, Tuple

from repro.cache.hierarchy import InclusivePair, TransferEvent
from repro.cache.setassoc import LineId, SetAssociativeCache
from repro.compression.registry import make_reference_engine
from repro.core.config import CableConfig
from repro.core.errors import DecompressionError, StaleReferenceError
from repro.core.evictbuf import EvictionBuffer
from repro.core.hashtable import SignatureHashTable
from repro.core.payload import Payload, PayloadKind, choose_payload
from repro.core.search import SearchPipeline, SearchResult
from repro.core.signature import SignatureExtractor
from repro.core.wmt import WayMapTable
from repro.link.lifecycle import LinkLifecycle
from repro.link.recovery import Delivery, RecoveryLayer
from repro.link.wire import wire_format_for
from repro.obs.registry import METRICS
from repro.obs.report import publish_kernel_gauges

__all__ = [
    "CableHomeEncoder",
    "CableLinkPair",
    "CableRemoteDecoder",
    "DecompressionError",  # canonical home is repro.core.errors
    "EncodeOutcome",
    "TransferRecord",
]


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
        self.engine = make_reference_engine(config.engine)
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
        #: Durability, crash restart, reconfiguration and failover.
        self.lifecycle = LinkLifecycle(self)
        pair.add_observer(self._on_event)

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
        self.lifecycle.step()

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
            self.lifecycle.on_breaker_trip()

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
