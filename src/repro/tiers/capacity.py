"""Capacity-mode compressed cache tier.

CRAM's observation: the same compression that saves link bandwidth can
buy *capacity* if lines are stored compressed and packed several per
physical slot — provided the tag/metadata overhead and the
line-outgrows-its-slot path are accounted honestly rather than
idealized away.

:class:`CapacityCache` models one such cache at segment granularity:

- a set owns ``ways × segments_per_line`` data segments and up to
  ``ways × tags_per_slot`` tag entries; a stored line consumes
  ``ceil(compressed_bytes / segment_bytes)`` segments (a full line's
  worth when incompressible — the raw fallback);
- install evicts LRU lines until both the segment budget and the tag
  budget hold, writing dirty victims back through a callback;
- a write that grows a resident line past the free segments takes the
  **fallback path**: evict other lines to make room (counted — this
  is the slot-overflow cost CRAM charges);
- :meth:`audit` proves the invariants the property suite leans on: no
  address stored twice, segment/tag budgets respected, and every
  stored image round-trips to the bytes it encodes.

The tier simulation in :class:`CapacityTierSimulation` drives the
cache from a workload; misses fill over the link carrying the *same*
compressed image that is then stored (compress once, ship, store), and
dirty evictions ship their stored image back. Metadata overhead is
explicit: capacity mode pays ``tags_per_slot×`` tag entries plus a
size field per entry, and the net capacity gain reported deflates the
raw occupancy gain by that overhead.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.compression.registry import make_engine
from repro.obs.registry import METRICS
from repro.sim.leg import LegRecord
from repro.sim.memlink import resolve_profile
from repro.tiers.base import TierResult
from repro.tiers.plan import CapacityTierConfig
from repro.trace.stream import SharedBackingStore, WorkloadModel


def make_storage_engine(name: str):
    """A *stateless* engine instance for in-slot storage.

    Stored images are decompressed out of order, straight from the
    slot, so any engine whose decode depends on stream history is
    unusable here. The window engines are built in per-line mode;
    inherently stateful engines are rejected.
    """
    if name == "cpack":
        from repro.compression.cpack import CpackCompressor

        return CpackCompressor(persistent=False)
    if name == "cpack128":
        from repro.compression.cpack import CpackCompressor

        return CpackCompressor(dictionary_bytes=128, persistent=False)
    if name == "lbe256":
        from repro.compression.lbe import LbeCompressor

        return LbeCompressor(persistent=False)
    engine = make_engine(name)
    if engine.stateful:
        raise ValueError(
            f"engine {name!r} is stateful; capacity-mode storage needs "
            "per-line (stateless) compression"
        )
    return engine


@dataclass
class _StoredLine:
    """One resident line: its shipped/stored image and bookkeeping."""

    data: bytes  # uncompressed truth, for round-trip verification
    image_bits: int  # stored compressed size (or raw when incompressible)
    segments: int
    dirty: bool
    compressed: bool


class CapacityCache:
    """Segment-packed compressed cache with explicit budgets."""

    def __init__(
        self,
        config: CapacityTierConfig,
        writeback: Optional[Callable[[int, "_StoredLine"], None]] = None,
    ) -> None:
        self.config = config
        self.engine = make_storage_engine(config.engine)
        line_bytes = config.line_bytes
        self.sets = config.cache_bytes // (config.ways * line_bytes)
        if self.sets < 1:
            raise ValueError("cache too small for its geometry")
        self.segment_budget = config.ways * config.segments_per_line
        self.tag_budget = config.ways * (
            config.tags_per_slot if config.capacity_mode else 1
        )
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.sets)]
        self._writeback = writeback or (lambda addr, line: None)
        self.stats = {
            "hits": 0,
            "misses": 0,
            "installs": 0,
            "evictions": 0,
            "writebacks": 0,
            "fallbacks": 0,
            "verify_failures": 0,
        }

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------

    def _index(self, line_addr: int) -> int:
        return line_addr % self.sets

    def _segments_for(self, image_bits: int) -> int:
        image_bytes = -(-image_bits // 8)
        return -(-image_bytes // self.config.segment_bytes)

    def _encode(self, data: bytes) -> Tuple[int, int, bool]:
        """(image_bits, segments, compressed?) for storing *data*."""
        raw_bits = len(data) * 8
        if not self.config.capacity_mode:
            return raw_bits, self.config.segments_per_line, False
        block = self.engine.compress(data)
        if block.size_bits >= raw_bits:
            return raw_bits, self.config.segments_per_line, False
        return block.size_bits, self._segments_for(block.size_bits), True

    def _used_segments(self, entries: OrderedDict) -> int:
        return sum(line.segments for line in entries.values())

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def lookup(self, line_addr: int) -> Optional[bytes]:
        entries = self._sets[self._index(line_addr)]
        line = entries.get(line_addr)
        if line is None:
            self.stats["misses"] += 1
            return None
        entries.move_to_end(line_addr)
        self.stats["hits"] += 1
        if line.compressed and self.config.verify:
            # Round-trip the stored image against the line's truth.
            decoded = self.engine.decompress(self.engine.compress(line.data))
            if decoded != line.data:
                self.stats["verify_failures"] += 1
        return line.data

    def _evict_lru(self, entries: OrderedDict, exclude: Optional[int] = None) -> bool:
        for addr in entries:
            if addr == exclude:
                continue
            line = entries.pop(addr)
            self.stats["evictions"] += 1
            if line.dirty:
                self.stats["writebacks"] += 1
                self._writeback(addr, line)
            return True
        return False

    def install(self, line_addr: int, data: bytes, dirty: bool = False) -> _StoredLine:
        """Install a (miss-filled) line, evicting until budgets hold."""
        entries = self._sets[self._index(line_addr)]
        if line_addr in entries:
            raise ValueError(f"line {line_addr:#x} already resident")
        image_bits, segments, compressed = self._encode(data)
        while (
            self._used_segments(entries) + segments > self.segment_budget
            or len(entries) + 1 > self.tag_budget
        ):
            if not self._evict_lru(entries):
                raise RuntimeError("empty set cannot make room")  # unreachable
        line = _StoredLine(data, image_bits, segments, dirty, compressed)
        entries[line_addr] = line
        self.stats["installs"] += 1
        return line

    def write(self, line_addr: int, data: bytes) -> Optional[_StoredLine]:
        """Update a resident line in place; None when not resident.

        Re-compresses the new contents. Growth past the set's free
        segments takes the fallback path: other lines are evicted to
        make room, and the event is counted.
        """
        entries = self._sets[self._index(line_addr)]
        line = entries.get(line_addr)
        if line is None:
            return None
        image_bits, segments, compressed = self._encode(data)
        grew = segments > line.segments
        if grew:
            # The line's own old segments are reusable; free the rest.
            needed = self._used_segments(entries) - line.segments + segments
            overflowed = needed > self.segment_budget
            while (
                self._used_segments(entries) - line.segments + segments
                > self.segment_budget
            ):
                if not self._evict_lru(entries, exclude=line_addr):
                    raise RuntimeError("line cannot fit its own set")  # unreachable
            if overflowed:
                self.stats["fallbacks"] += 1
        line.data = data
        line.image_bits = image_bits
        line.segments = segments
        line.compressed = compressed
        line.dirty = True
        entries.move_to_end(line_addr)
        return line

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_lines(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def resident_addresses(self) -> List[int]:
        out: List[int] = []
        for entries in self._sets:
            out.extend(entries)
        return out

    def audit(self) -> None:
        """Raise AssertionError if any packing invariant is violated."""
        seen: Dict[int, int] = {}
        for index, entries in enumerate(self._sets):
            used = 0
            assert len(entries) <= self.tag_budget, (
                f"set {index}: {len(entries)} tags > budget {self.tag_budget}"
            )
            for addr, line in entries.items():
                assert addr not in seen, (
                    f"line {addr:#x} stored in sets {seen[addr]} and {index}"
                )
                assert self._index(addr) == index, (
                    f"line {addr:#x} stored in wrong set {index}"
                )
                seen[addr] = index
                assert 1 <= line.segments <= self.config.segments_per_line
                assert self._segments_for(line.image_bits) <= line.segments
                used += line.segments
                if line.compressed:
                    block = self.engine.compress(line.data)
                    assert block.size_bits == line.image_bits, (
                        f"line {addr:#x}: stored {line.image_bits}b, "
                        f"re-encode {block.size_bits}b"
                    )
                    assert self.engine.decompress(block) == line.data, (
                        f"line {addr:#x}: stored image does not round-trip"
                    )
            assert used <= self.segment_budget, (
                f"set {index}: {used} segments > budget {self.segment_budget}"
            )


class CapacityTierSimulation:
    """One benchmark through the capacity-mode cache + its fill link."""

    def __init__(self, benchmark, config: CapacityTierConfig) -> None:
        self.config = config
        self.profile = profile = resolve_profile(benchmark, config.ws_scale)
        self.workload = WorkloadModel(profile, seed=config.seed)
        self.backing = SharedBackingStore([self.workload])
        self.cache = CapacityCache(config, writeback=self._on_writeback)
        self.result = TierResult(
            tier="capacity",
            benchmark=profile.name,
            scheme=config.engine if config.capacity_mode else "raw",
        )
        self._counting = False
        self._occupancy_samples = 0
        self._occupancy_sum = 0

    def _ship(self, kind: str, addr: int, line) -> None:
        """One stored image crossing the link (compress once: the
        shipped payload *is* the stored image, plus a 1-bit
        compressed/raw flag)."""
        if self._counting:
            record = LegRecord(kind, addr, line.data, line.image_bits + 1)
            self.result.add(self.config.link, record)

    def _on_writeback(self, addr: int, line) -> None:
        self._ship("writeback", addr, line)
        self.backing.write(addr, line.data)
        if self.config.verify:
            if self.backing.peek(addr) != line.data:
                self.result.verify_failures += 1

    def run(self) -> TierResult:
        config = self.config
        warmup = int(config.accesses * config.warmup_fraction)
        stats0 = dict(self.cache.stats)
        for i, access in enumerate(self.workload.accesses(config.accesses)):
            if i == warmup:
                self._counting = True
                stats0 = dict(self.cache.stats)
            addr = access.line_addr
            data = self.cache.lookup(addr)
            if data is None:
                fill_data = self.backing.read(addr)
                line = self.cache.install(addr, fill_data)
                self._ship("fill", addr, line)
            if access.is_write and access.write_data is not None:
                self.cache.write(addr, access.write_data)
                self.backing.write(addr, access.write_data)
            if self._counting:
                self._occupancy_samples += 1
                self._occupancy_sum += self.cache.resident_lines()
        if not self._counting:
            self._counting = True
            stats0 = {key: 0 for key in self.cache.stats}
        self.cache.audit()
        return self._finish(stats0)

    def _finish(self, stats0: Dict[str, int]) -> TierResult:
        config = self.config
        result = self.result
        stats = self.cache.stats
        result.hits = stats["hits"] - stats0["hits"]
        result.misses = stats["misses"] - stats0["misses"]
        result.accesses = result.hits + result.misses
        result.verify_failures += stats["verify_failures"] - stats0["verify_failures"]
        result.busy_ns = (
            config.link.transfer_time_s(result.flits * config.link.width_bits) * 1e9
        )
        physical_lines = self.cache.sets * config.ways
        avg_resident = (
            self._occupancy_sum / self._occupancy_samples
            if self._occupancy_samples
            else 0.0
        )
        raw_gain = avg_resident / physical_lines if physical_lines else 0.0
        # Metadata accounting: capacity mode pays tags_per_slot× tag
        # entries, each grown by a size field; the baseline pays one
        # plain entry per way. Net gain deflates by the extra state.
        entry_bits = config.tag_bits + config.state_bits
        meta_base = self.cache.sets * config.ways * entry_bits
        per_entry = entry_bits + config.size_field_bits
        meta_capacity = (
            self.cache.sets * config.ways * config.tags_per_slot * per_entry
            if config.capacity_mode
            else meta_base
        )
        cache_bits = config.cache_bytes * 8
        net_gain = raw_gain * (cache_bits + meta_base) / (cache_bits + meta_capacity)
        result.extras["cap_gain"] = round(raw_gain, 3)
        result.extras["net_gain"] = round(net_gain, 3)
        result.extras["meta_ovh_pct"] = round(
            100.0 * (meta_capacity - meta_base) / cache_bits, 2
        )
        result.extras["meta_bits"] = meta_capacity
        result.extras["fallbacks"] = stats["fallbacks"] - stats0["fallbacks"]
        result.extras["evictions"] = stats["evictions"] - stats0["evictions"]
        result.extras["avg_resident"] = round(avg_resident, 1)
        if METRICS.enabled:
            METRICS.counter("tier.capacity.fallbacks").inc(
                result.extras["fallbacks"]
            )
        result.publish_metrics()
        return result


def run_capacity_tier(
    benchmark, config: Optional[CapacityTierConfig] = None, **overrides
) -> TierResult:
    config = config or CapacityTierConfig()
    if overrides:
        config = config.scaled(**overrides)
    return CapacityTierSimulation(benchmark, config).run()
