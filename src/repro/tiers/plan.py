"""Configuration dataclasses for the memory-tier scenarios.

Three tier models, three configs. Each mirrors
:class:`repro.sim.memlink.MemLinkConfig` in spirit — frozen, with a
``scaled(**overrides)`` helper so sweeps and tests can derive variants
— but carries the knobs its tier actually has. The CXL and DRAM-cache
``scheme`` is any of :data:`repro.sim.leg.LINK_SCHEMES`, built by
:class:`repro.sim.leg.LinkLeg` as every link simulator's is; the
capacity tier ships its own stored images:

- :class:`CxlTierConfig` — a CXL far-memory expander: asymmetric
  read/write channels, device-side service latencies, an issue rate
  that turns the access stream into arrival times for the queue model;
- :class:`DramCacheTierConfig` — a DRAM cache with frequency-based
  admission and lazy (batched) tag update, à la Banshee;
- :class:`CapacityTierConfig` — a compressed cache packing multiple
  lines per physical slot (CRAM-style capacity mode), with explicit
  tag/metadata overhead parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.config import CableConfig
from repro.link.channel import LinkModel
from repro.tune.plan import TuningPlan

_KB = 1024


@dataclass(frozen=True)
class CxlTierConfig:
    """One CXL far-memory expander simulation.

    The host LLC is the *remote* cache; the expander's device-side
    buffer cache (inclusive, larger) is the *home* cache. Fills cross
    the device→host (read) channel, write-backs the host→device
    (write) channel — with the paper's encoder sitting on both. The
    two channels are asymmetric in width and the device services reads
    and writes at different latencies, which is what makes p99 fill
    latency an interesting column.
    """

    scheme: str = "cable"
    cable: CableConfig = field(default_factory=CableConfig)
    llc_bytes: int = 32 * _KB
    llc_ways: int = 8
    #: Device-side buffer cache; inclusive of the host LLC.
    buffer_bytes: int = 128 * _KB
    buffer_ways: int = 16
    line_bytes: int = 64
    #: Device→host channel (fills / read responses). Far-memory links
    #: are bandwidth-starved relative to the paper's 9.6GHz memory
    #: link, so the CXL channels run at 1.2GHz: a raw 64B line takes
    #: ~27ns on the 16-bit read channel — the same order as the
    #: device's media latency, which is what makes compression move
    #: the fill-latency tail.
    read_link: LinkModel = field(
        default_factory=lambda: LinkModel(width_bits=16, frequency_hz=1.2e9)
    )
    #: Host→device channel (requests / write-backs) — narrower, as CXL
    #: asymmetric-bandwidth profiles are (~53ns per raw line).
    write_link: LinkModel = field(
        default_factory=lambda: LinkModel(width_bits=8, frequency_hz=1.2e9)
    )
    #: Device media service latencies (model ns). Far memory reads
    #: slower than it writes-posted.
    read_latency_ns: float = 180.0
    write_latency_ns: float = 80.0
    #: Host request header crossing the write channel per read request.
    request_bits: int = 64
    #: Access arrival spacing: access *i* arrives at ``i *
    #: issue_interval_ns`` model time. The default keeps the expander
    #: below saturation for typical miss rates (misses arrive a few
    #: hundred ns apart), so queueing delay reflects bursts rather
    #: than unbounded backlog.
    issue_interval_ns: float = 250.0
    accesses: int = 4000
    warmup_fraction: float = 0.25
    seed: int = 0
    verify: bool = True
    ws_scale: float = 1.0
    tuning: Optional[TuningPlan] = None

    def scaled(self, **overrides) -> "CxlTierConfig":
        return replace(self, **overrides)

    def __post_init__(self) -> None:
        if self.buffer_bytes < self.llc_bytes:
            raise ValueError("device buffer must be at least LLC-sized (inclusive)")
        if self.issue_interval_ns <= 0:
            raise ValueError("issue_interval_ns must be positive")


@dataclass(frozen=True)
class DramCacheTierConfig:
    """One DRAM-cache tier simulation.

    The DRAM cache is the *remote* cache; a backing-side window cache
    (inclusive) is the *home*. The encoder compresses fill/write-back
    traffic between them. Placement is software-managed: a line must
    earn ``admit_threshold`` touches on its saturating frequency
    counter before a miss is allowed to fill the DRAM cache — colder
    misses bypass straight to backing memory, sparing DRAM-cache
    bandwidth (Banshee's bandwidth-aware placement). Tag updates are
    *lazy*: the in-memory tag/counter structure is written once per
    admission decision instead of on every access, and the saving is
    accounted explicitly.
    """

    scheme: str = "cable"
    cable: CableConfig = field(default_factory=CableConfig)
    cache_bytes: int = 32 * _KB
    cache_ways: int = 8
    #: Backing-side window cache (inclusive of the DRAM cache).
    window_bytes: int = 128 * _KB
    window_ways: int = 16
    line_bytes: int = 64
    link: LinkModel = field(default_factory=LinkModel)
    #: Frequency-based admission: touches needed before a miss fills.
    admit_threshold: int = 2
    counter_bits: int = 4
    #: Counters halve every this-many accesses (frequency decay).
    decay_interval: int = 512
    #: Tag-entry write size (tag + counter + state) for the lazy
    #: vs. eager tag-update accounting.
    tag_entry_bits: int = 40
    accesses: int = 4000
    warmup_fraction: float = 0.25
    seed: int = 0
    verify: bool = True
    ws_scale: float = 1.0
    tuning: Optional[TuningPlan] = None

    def scaled(self, **overrides) -> "DramCacheTierConfig":
        return replace(self, **overrides)

    def __post_init__(self) -> None:
        if self.window_bytes < self.cache_bytes:
            raise ValueError("backing window must be at least DRAM-cache-sized")
        if self.admit_threshold < 1:
            raise ValueError("admit_threshold must be >= 1")
        if not (1 <= self.counter_bits <= 16):
            raise ValueError("counter_bits out of range")


@dataclass(frozen=True)
class CapacityTierConfig:
    """One capacity-mode compressed-cache simulation.

    Lines are stored *compressed* in the cache itself, packed multiple
    per physical slot at segment granularity, so effective capacity
    grows with compressibility (CRAM). The same compressed image that
    is stored is what crossed the link — compress once, ship, store.
    Growing past the slot on a write takes the fallback path
    (make-room evictions), and the extra tags and per-line size fields
    capacity mode needs are charged explicitly so the net gain is
    honest.
    """

    #: Storage/link engine. Must be stateless per line (compressed
    #: images are decompressed out of order, straight from the slot).
    engine: str = "bdi"
    cache_bytes: int = 32 * _KB
    ways: int = 8
    line_bytes: int = 64
    #: Data segment granularity inside a slot.
    segment_bytes: int = 8
    #: Tag entries per physical way (capacity mode); 1 = baseline.
    tags_per_slot: int = 4
    tag_bits: int = 28
    #: Valid + dirty state per tag entry.
    state_bits: int = 2
    #: When False, run the uncompressed baseline (one line per way,
    #: base tag store) for the miss-rate comparison.
    capacity_mode: bool = True
    link: LinkModel = field(default_factory=LinkModel)
    accesses: int = 4000
    warmup_fraction: float = 0.25
    seed: int = 0
    verify: bool = True
    ws_scale: float = 1.0

    def scaled(self, **overrides) -> "CapacityTierConfig":
        return replace(self, **overrides)

    def __post_init__(self) -> None:
        if self.line_bytes % self.segment_bytes:
            raise ValueError("segment_bytes must divide line_bytes")
        if self.tags_per_slot < 1:
            raise ValueError("tags_per_slot must be >= 1")

    @property
    def segments_per_line(self) -> int:
        return self.line_bytes // self.segment_bytes

    @property
    def size_field_bits(self) -> int:
        """Bits to encode a stored line's segment count (1..segments)."""
        return max(1, self.segments_per_line.bit_length())
