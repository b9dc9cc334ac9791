"""Off-chip memory-link simulation (use case ① of Fig 1).

Trace-driven model of the paper's primary configuration: an on-chip
LLC (the *remote* cache) backed by an off-chip DRAM-buffer L4 (the
*home* cache, inclusive, 4× the LLC by default), joined by a 16-bit
9.6GHz link. Every fill and write-back crossing the link is encoded by
the selected scheme:

- ``"raw"`` — no compression (the baseline of every figure);
- ``"cpack"``, ``"bdi"``, ``"cpack128"``, ``"lbe256"``, ``"gzip"``,
  ``"zero"`` — stream link compressors (one independent codec state
  per direction, carried across the stream);
- ``"cable"`` — the full CABLE machinery
  (:class:`repro.core.encoder.CableLinkPair`) with the engine chosen
  by ``cable.engine`` (CABLE+LBE by default, Fig 20 sweeps others).

Results report both the *payload* compression ratio and the
*effective* (flit-quantized) bandwidth ratio the paper plots, plus
the event counts the timing/energy models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.cache.hierarchy import InclusivePair, TransferEvent
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.compression.registry import make_engine
from repro.core.config import CableConfig
from repro.core.encoder import CableLinkPair, DecompressionError, TransferRecord
from repro.fault.plan import FaultPlan, RecoveryPolicy
from repro.state.plan import DurabilityPolicy
from repro.link.channel import LinkModel
from repro.link.toggles import ToggleCounter
from repro.core.payload import Payload, PayloadKind
from repro.obs.registry import METRICS
from repro.obs.tracer import trace
from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.trace.stream import SharedBackingStore, WorkloadModel
from repro.tune.controller import KnobController
from repro.tune.plan import TuningPlan

_MB = 1024 * 1024

#: Stream schemes and whether their codec state spans the stream.
STREAM_SCHEMES = ("zero", "bdi", "cpack", "cpack128", "lbe256", "gzip")


def scale_profile(profile: BenchmarkProfile, ws_scale: float) -> BenchmarkProfile:
    """Shrink/grow a profile's footprint, keeping family density.

    Working-set and family sizes scale together so the expected number
    of resident family members per LLC line stays what it is at full
    size; ``members_per_family`` is preserved (it is a property of the
    program's data structures, not its footprint).
    """
    from dataclasses import replace as dc_replace

    return dc_replace(
        profile,
        working_set_lines=max(64, int(profile.working_set_lines * ws_scale)),
    )


@dataclass(frozen=True)
class MemLinkConfig:
    """Parameters of one memory-link simulation."""

    scheme: str = "cable"
    cable: CableConfig = field(default_factory=CableConfig)
    llc_bytes: int = 1 * _MB
    llc_ways: int = 8
    l4_bytes: int = 4 * _MB
    l4_ways: int = 16
    line_bytes: int = 64
    link: LinkModel = field(default_factory=LinkModel)
    accesses: int = 20_000
    warmup_fraction: float = 0.25
    seed: int = 0
    verify: bool = True
    count_toggles: bool = False
    #: Scales each benchmark's working-set (and family) footprint.
    #: Use it together with smaller caches to run the same
    #: cache-pressure regime quickly (tests set ws_scale =
    #: llc_bytes / 1MB to mirror the paper's 1MB-per-thread ratio).
    ws_scale: float = 1.0
    #: When running scaled-down (llc_bytes below the paper's 1MB per
    #: thread), shrink gzip's stream window proportionally so the
    #: window:LLC dictionary-size ratio — the quantity every
    #: CABLE-vs-gzip comparison hinges on — is preserved. Full-size
    #: runs keep the paper's 32KB window.
    scale_gzip_window: bool = True
    llc_reference_bytes: int = 1 * _MB
    #: Fault injection / link recovery (cable scheme only): when set,
    #: these override the corresponding fields of ``cable`` so sweeps
    #: can vary fault rates without rebuilding the whole CableConfig.
    faults: Optional[FaultPlan] = None
    recovery: Optional[RecoveryPolicy] = None
    #: Durability (cable scheme only): arms snapshot+journal endpoint
    #: state managers on the link; overrides ``cable.durability``.
    durability: Optional[DurabilityPolicy] = None
    #: Scripted endpoint kills: (access_index, side) pairs, applied
    #: right after the given access. Requires a recovery layer (set
    #: ``durability`` or ``faults``/``recovery``).
    crash_points: Tuple[Tuple[int, str], ...] = ()
    #: Look-ahead window (accesses) for the batched signature-
    #: extraction warm (cable scheme only): upcoming lines are peeked
    #: and run through :meth:`SignatureExtractor.warm_batch` in one
    #: vectorized pass before the access loop consumes them. Purely a
    #: throughput knob — extraction is a pure function of line bytes,
    #: so results are byte-identical with it on, off (≤1), or resized.
    batch_lines: int = 64
    #: Online adaptive knob tuning (cable scheme only): a
    #: :class:`repro.tune.plan.TuningPlan` arms a per-benchmark
    #: :class:`~repro.tune.controller.KnobController` when counting
    #: starts (so warmup payloads match untuned runs exactly); the
    #: controller's roll-up lands in ``MemLinkResult.tuning``.
    tuning: Optional[TuningPlan] = None

    def scaled(self, **kwargs) -> "MemLinkConfig":
        return replace(self, **kwargs)


@dataclass
class MemLinkResult:
    """Everything one run produces."""

    benchmark: str
    scheme: str
    accesses: int = 0
    instructions: float = 0.0
    llc_hits: int = 0
    llc_misses: int = 0
    l4_hits: int = 0
    l4_misses: int = 0
    writebacks: int = 0
    transfers: int = 0
    raw_bits: int = 0
    payload_bits: int = 0
    flits: int = 0
    raw_flits: int = 0
    search_data_reads: int = 0
    encodes: int = 0
    decodes: int = 0
    with_references: int = 0
    reference_count: int = 0
    toggles_raw: int = 0
    toggles_compressed: int = 0
    #: Recovery-protocol bits (framing + retransmissions); nonzero only
    #: when the cable scheme runs with a recovery layer.
    overhead_bits: int = 0
    #: Link health + fault-injection counters (see
    #: :class:`repro.link.recovery.LinkHealth`); covers the whole run
    #: including warmup — recovery behaviour has no warmup phase.
    health: Dict[str, int] = field(default_factory=dict)
    per_transfer_bits: List[int] = field(default_factory=list)
    link: LinkModel = field(default_factory=LinkModel)
    #: Knob-controller roll-up (arm pulls, best arm, regret); None
    #: unless the run was configured with a tuning plan.
    tuning: Optional[Dict[str, object]] = None

    @property
    def raw_ratio(self) -> float:
        """Payload (pre-flit) compression ratio."""
        if self.payload_bits == 0:
            return 1.0
        return self.raw_bits / self.payload_bits

    @property
    def effective_ratio(self) -> float:
        """Flit-quantized bandwidth ratio — what the paper plots."""
        if self.flits == 0:
            return 1.0
        return self.raw_flits / self.flits

    @property
    def llc_miss_rate(self) -> float:
        total = self.llc_hits + self.llc_misses
        return self.llc_misses / total if total else 0.0

    @property
    def offchip_bytes(self) -> float:
        """Compressed bytes crossing the link (flit-quantized)."""
        return self.flits * self.link.width_bits / 8

    @property
    def offchip_raw_bytes(self) -> float:
        return self.raw_flits * self.link.width_bits / 8

    @property
    def toggle_reduction(self) -> float:
        if self.toggles_raw == 0:
            return 0.0
        return 1.0 - self.toggles_compressed / self.toggles_raw


class _StreamCodec:
    """A stream link compressor on one direction, with verification."""

    def __init__(self, engine_name: str, verify: bool, window_bytes=None) -> None:
        if window_bytes is not None:
            from repro.compression.lzss import LzssCompressor

            self.encoder = LzssCompressor(window_bytes=window_bytes)
            self.decoder = LzssCompressor(window_bytes=window_bytes)
        else:
            self.encoder = make_engine(engine_name)
            self.decoder = make_engine(engine_name)
        self.verify = verify

    def transfer(self, data: bytes) -> int:
        """Compress one line; returns payload bits (with 1-bit flag)."""
        block = self.encoder.compress(data)
        raw_bits = len(data) * 8
        if block.size_bits >= raw_bits:
            # Sent uncompressed; the decoder window must stay in sync,
            # which engines do by decompressing their own block.
            if self.verify or self.decoder.stateful:
                decoded = self.decoder.decompress(block)
                if self.verify and decoded != data:
                    raise DecompressionError("stream codec round-trip failed")
            return 1 + raw_bits
        if self.verify or self.decoder.stateful:
            decoded = self.decoder.decompress(block)
            if self.verify and decoded != data:
                raise DecompressionError("stream codec round-trip failed")
        return 1 + block.size_bits


class MemLinkSimulation:
    """One benchmark × one scheme on the memory link."""

    def __init__(self, benchmark, config: MemLinkConfig) -> None:
        self.config = config
        profile = benchmark if isinstance(benchmark, BenchmarkProfile) else get_profile(benchmark)
        if config.ws_scale != 1.0:
            profile = scale_profile(profile, config.ws_scale)
        self.profile = profile
        self.workload = WorkloadModel(profile, seed=config.seed)
        self.backing = SharedBackingStore([self.workload])
        self.home = SetAssociativeCache(
            CacheGeometry(config.l4_bytes, config.l4_ways, config.line_bytes),
            name="l4",
        )
        self.remote = SetAssociativeCache(
            CacheGeometry(config.llc_bytes, config.llc_ways, config.line_bytes),
            name="llc",
        )
        self.pair = InclusivePair(
            self.home, self.remote, self.backing.read, self.backing.write
        )
        self.result = MemLinkResult(
            benchmark=profile.name, scheme=config.scheme, link=config.link
        )
        self._line_bits = config.line_bytes * 8
        self._raw_flits_per_line = config.link.flits_for(self._line_bits)
        self._counting = False
        self._toggle_raw: Optional[ToggleCounter] = None
        self._toggle_comp: Optional[ToggleCounter] = None
        if config.count_toggles:
            self._toggle_raw = ToggleCounter(config.link.width_bits)
            self._toggle_comp = ToggleCounter(config.link.width_bits)

        self.cable: Optional[CableLinkPair] = None
        self._fill_codec: Optional[_StreamCodec] = None
        self._wb_codec: Optional[_StreamCodec] = None
        scheme = config.scheme
        if scheme == "cable":
            cable_cfg = config.cable
            overrides = {}
            if config.faults is not None:
                overrides["faults"] = config.faults
            if config.recovery is not None:
                overrides["recovery"] = config.recovery
            if config.durability is not None:
                overrides["durability"] = config.durability
            if config.crash_points and config.recovery is None and (
                config.faults is None or not config.faults.any_faults
            ) and config.durability is None and cable_cfg.recovery is None:
                # Scripted kills need the recovery layer armed even
                # when no probabilistic faults were requested.
                overrides["recovery"] = RecoveryPolicy()
            if overrides:
                cable_cfg = cable_cfg.with_overrides(**overrides)
            self.cable = CableLinkPair(cable_cfg, self.pair, verify=config.verify)
            self.cable.listeners.append(self._observe_cable)
        elif scheme == "raw":
            self.pair.add_observer(self._observe_raw)
        elif scheme in STREAM_SCHEMES:
            window = None
            if scheme == "gzip" and config.scale_gzip_window:
                scale = config.llc_bytes / config.llc_reference_bytes
                if scale < 1.0:
                    window = max(1024, int(32 * 1024 * scale))
            self._fill_codec = _StreamCodec(scheme, config.verify, window)
            self._wb_codec = _StreamCodec(scheme, config.verify, window)
            self.pair.add_observer(self._observe_stream)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")

    # ------------------------------------------------------------------
    # Observers (one per scheme family)
    # ------------------------------------------------------------------

    def _record(
        self, payload_bits: int, data: bytes, payload=None, overhead_bits: int = 0
    ) -> None:
        if not self._counting:
            return
        result = self.result
        result.transfers += 1
        result.raw_bits += len(data) * 8
        result.payload_bits += payload_bits
        result.flits += self.config.link.flits_for(payload_bits)
        result.raw_flits += self._raw_flits_per_line
        result.per_transfer_bits.append(payload_bits)
        if overhead_bits:
            # Retransmissions and frame headers cross the wire as their
            # own flits; they cost bandwidth the effective ratio sees.
            result.overhead_bits += overhead_bits
            result.flits += self.config.link.flits_for(overhead_bits)
        if self._toggle_raw is not None:
            self._toggle_raw.record_raw(data)
            if payload is not None:
                self._toggle_comp.record_payload(payload)

    def _observe_raw(self, event: TransferEvent) -> None:
        if event.kind not in ("fill", "writeback"):
            return
        payload = None
        if self._toggle_comp is not None:
            payload = Payload(
                kind=PayloadKind.UNCOMPRESSED,
                line_addr=event.line_addr,
                line_bytes=len(event.data),
                raw=event.data,
            )
        # An uncompressed link carries no flag bit — raw lines exactly.
        self._record(len(event.data) * 8, event.data, payload)

    def _observe_stream(self, event: TransferEvent) -> None:
        if event.kind == "fill":
            codec = self._fill_codec
        elif event.kind == "writeback":
            codec = self._wb_codec
        else:
            return
        bits = codec.transfer(event.data)
        self._record(bits, event.data, None)
        if self._toggle_comp is not None and self._counting:
            # Toggle content for stream schemes: a stateless re-encode
            # (reusing the live encoder would disturb its window). The
            # bit content differs slightly from the stream encoding but
            # has the same entropy character.
            engine = make_engine(self.config.scheme)
            payload = Payload(
                kind=PayloadKind.NO_REFERENCE,
                line_addr=event.line_addr,
                line_bytes=len(event.data),
                block=engine.compress(event.data),
            )
            self._toggle_comp.record_payload(payload)

    def _observe_cable(self, record: TransferRecord) -> None:
        """The cable's transfer listener. Each record carries the
        framing and retransmission bits of its own transfer, so
        recovery overhead lands on the transfer that caused it."""
        self._record(
            record.payload.size_bits, record.data, record.payload, record.overhead_bits
        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self) -> MemLinkResult:
        with trace("sim.run"):
            return self._run()

    def _run(self) -> MemLinkResult:
        config = self.config
        warmup = int(config.accesses * config.warmup_fraction)
        crash_at: Dict[int, List[str]] = {}
        for index, side in config.crash_points:
            crash_at.setdefault(index, []).append(side)
        accesses = self.workload.accesses(config.accesses)
        if self.cable is not None and config.batch_lines > 1:
            accesses = self._lookahead_blocks(accesses, config.batch_lines)
        tuner: Optional[KnobController] = None
        for i, access in enumerate(accesses):
            if i == warmup:
                self._start_counting()
                if self.cable is not None and config.tuning is not None:
                    # Armed exactly at counting start: warmup payloads
                    # stay byte-identical to an untuned run.
                    tuner = KnobController(
                        self.cable,
                        config.tuning,
                        seed_context=(self.profile.name, config.seed),
                    )
            self.pair.access(
                access.line_addr,
                is_write=access.is_write,
                write_data=access.write_data,
            )
            if tuner is not None:
                tuner.on_access()
            if i in crash_at and self.cable is not None:
                for side in crash_at[i]:
                    self.cable.lifecycle.crash_endpoint(side)
        if tuner is not None:
            tuner.finish()
            self.result.tuning = tuner.rollup()
        if self.cable is not None:
            self.cable.lifecycle.drain_resync()
        self._finish()
        return self.result

    def _lookahead_blocks(self, accesses, block: int):
        """Yield accesses unchanged, batch-warming extraction ahead.

        For each upcoming block the *likely* link contents are
        prefetched through the extractor memo in one vectorized pass:
        a write access's post-write line (indexed at the home side
        later) and, for reads, the backing copy of the line (what a
        fill carries unless a dirtier home copy exists). The warm is a
        pure memoization — a mispredicted line wastes a memo slot but
        can never change a payload, because extraction depends only on
        the line bytes, not on encoder state.
        """
        extractor = self.cable.home_encoder.extractor
        peek = self.backing.peek
        while True:
            chunk = list(islice(accesses, block))
            if not chunk:
                return
            extractor.warm_batch(
                [
                    access.write_data
                    if access.write_data is not None
                    else peek(access.line_addr)
                    for access in chunk
                ]
            )
            yield from chunk

    def _start_counting(self) -> None:
        self._counting = True
        self._hits0 = self.pair.stats["remote_hits"]
        self._misses0 = self.pair.stats["remote_misses"]
        self._l4h0 = self.pair.stats["home_hits"]
        self._l4m0 = self.pair.stats["home_misses"]
        self._wb0 = self.pair.stats["writebacks"]
        if self.cable is not None:
            self._reads0 = self.home.stats["data_reads"] + self.remote.stats["data_reads"]
            self._enc0 = self.cable.home_encoder.stats["encodes"]
            self._dec0 = self.cable.remote_decoder.stats["decodes"]
            self._wref0 = self.cable.home_encoder.stats["with_references"]
            self._refn0 = self.cable.home_encoder.stats["reference_count"]

    def _finish(self) -> None:
        if not self._counting:
            # Tiny runs may never leave warmup; count everything then.
            self._start_counting()
            self._hits0 = self._misses0 = self._l4h0 = self._l4m0 = self._wb0 = 0
            if self.cable is not None:
                self._reads0 = self._enc0 = self._dec0 = self._wref0 = self._refn0 = 0
        result = self.result
        stats = self.pair.stats
        result.llc_hits = stats["remote_hits"] - self._hits0
        result.llc_misses = stats["remote_misses"] - self._misses0
        result.l4_hits = stats["home_hits"] - self._l4h0
        result.l4_misses = stats["home_misses"] - self._l4m0
        result.writebacks = stats["writebacks"] - self._wb0
        result.accesses = result.llc_hits + result.llc_misses
        result.instructions = result.accesses / self.profile.llc_apki * 1000.0
        if self.cable is not None:
            result.search_data_reads = (
                self.home.stats["data_reads"]
                + self.remote.stats["data_reads"]
                - self._reads0
            )
            result.encodes = self.cable.home_encoder.stats["encodes"] - self._enc0
            result.decodes = self.cable.remote_decoder.stats["decodes"] - self._dec0
            result.with_references = (
                self.cable.home_encoder.stats["with_references"] - self._wref0
            )
            result.reference_count = (
                self.cable.home_encoder.stats["reference_count"] - self._refn0
            )
            if self.cable.recovery_layer is not None:
                result.health = self.cable.health
        else:
            result.encodes = result.transfers
            result.decodes = result.transfers
        if self._toggle_raw is not None:
            result.toggles_raw = self._toggle_raw.toggles
            result.toggles_compressed = self._toggle_comp.toggles
        if METRICS.enabled:
            # End-of-run roll-up: gauges mirror the run's headline
            # numbers onto the same scrape surface as the stage
            # histograms and link counters.
            METRICS.gauge("sim.accesses").set(result.accesses)
            METRICS.gauge("sim.transfers").set(result.transfers)
            METRICS.gauge("sim.flits").set(result.flits)
            METRICS.gauge("sim.raw_flits").set(result.raw_flits)
            METRICS.gauge("sim.payload_bits").set(result.payload_bits)
            METRICS.gauge("sim.raw_bits").set(result.raw_bits)


def run_memlink(benchmark, config: Optional[MemLinkConfig] = None, **overrides) -> MemLinkResult:
    """Convenience wrapper: simulate one benchmark on the memory link."""
    config = config or MemLinkConfig()
    if overrides:
        config = config.scaled(**overrides)
    return MemLinkSimulation(benchmark, config).run()


def run_suite(
    benchmarks,
    config: Optional[MemLinkConfig] = None,
    schemes=("cable",),
    **overrides,
) -> Dict[str, Dict[str, MemLinkResult]]:
    """Simulate a benchmark × scheme grid; results[benchmark][scheme]."""
    config = config or MemLinkConfig()
    if overrides:
        config = config.scaled(**overrides)
    results: Dict[str, Dict[str, MemLinkResult]] = {}
    for benchmark in benchmarks:
        row: Dict[str, MemLinkResult] = {}
        for scheme in schemes:
            row[scheme] = run_memlink(benchmark, config.scaled(scheme=scheme))
        results[benchmark] = row
    return results
