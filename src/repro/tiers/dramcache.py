"""DRAM-cache tier with software-managed placement.

Topology: a DRAM cache (remote) in front of backing memory, with a
backing-side window cache (home, inclusive) completing the pair the
encoder runs on — CABLE compresses the fill/write-back traffic between
DRAM cache and backing.

Placement is Banshee-style bandwidth-aware software management:

- **Frequency-based admission.** Each backing line carries a
  saturating touch counter, decayed (halved) every
  ``decay_interval`` accesses. A miss whose line is not resident
  anywhere fills the DRAM cache only once its counter reaches
  ``admit_threshold``; colder misses *bypass* — served raw from
  backing without disturbing DRAM-cache contents or spending link
  compression state on a line that won't be reused.
- **Residency first.** If the line is resident in either cache of the
  pair, the access always takes the pair path regardless of counters —
  the freshest copy may be a dirty cached line, so bypassing residents
  would serve stale data. Only true misses consult the policy.
- **Lazy tag update.** The in-DRAM tag/counter array is rewritten once
  per *admission decision* (Banshee batches tag updates to spare DRAM
  bandwidth) rather than on every access. Both costs are accounted:
  ``tag_bits_lazy`` (charged, rolled into ``overhead_bits``) vs the
  eager hypothetical, and the saving reported as ``tag_saved_pct``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.hierarchy import InclusivePair
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.obs.registry import METRICS
from repro.sim.leg import LinkLeg
from repro.sim.memlink import resolve_profile
from repro.tiers.base import TierResult
from repro.tiers.plan import DramCacheTierConfig
from repro.trace.stream import SharedBackingStore, WorkloadModel
from repro.tune.controller import KnobController


class DramCacheTierSimulation:
    """One benchmark × one scheme on the DRAM-cache fill link."""

    def __init__(self, benchmark, config: DramCacheTierConfig) -> None:
        self.config = config
        self.profile = profile = resolve_profile(benchmark, config.ws_scale)
        self.workload = WorkloadModel(profile, seed=config.seed)
        self.backing = SharedBackingStore([self.workload])
        self.home = SetAssociativeCache(
            CacheGeometry(config.window_bytes, config.window_ways, config.line_bytes),
            name="backing-window",
        )
        self.remote = SetAssociativeCache(
            CacheGeometry(config.cache_bytes, config.cache_ways, config.line_bytes),
            name="dram-cache",
        )
        self.pair = InclusivePair(
            self.home, self.remote, self.backing.read, self.backing.write
        )
        self.leg = LinkLeg(
            config.scheme,
            self.pair,
            self._tally,
            cable_config=config.cable,
            verify=config.verify,
        )
        self.result = TierResult(
            tier="dram", benchmark=profile.name, scheme=config.scheme
        )
        self._line_bits = config.line_bytes * 8
        self._counting = False
        self._counters: Dict[int, int] = {}
        self._counter_max = (1 << config.counter_bits) - 1
        # Policy + tag accounting (counted window only).
        self._admitted = 0
        self._bypassed = 0
        self._bypass_bits = 0
        self._tag_writes_lazy = 0
        self._tag_writes_eager = 0

    # ------------------------------------------------------------------
    # Placement policy
    # ------------------------------------------------------------------

    def _should_admit(self, line_addr: int) -> bool:
        count = self._counters.get(line_addr, 0)
        if count < self._counter_max:
            self._counters[line_addr] = count + 1
        return count + 1 >= self.config.admit_threshold

    def _decay(self) -> None:
        self._counters = {
            addr: count >> 1 for addr, count in self._counters.items() if count > 1
        }

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _tally(self, record) -> None:
        """The leg's transfer listener."""
        if self._counting:
            self.result.add(self.config.link, record)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self) -> TierResult:
        config = self.config
        warmup = int(config.accesses * config.warmup_fraction)
        hits0 = misses0 = wb0 = 0
        tuner: Optional[KnobController] = None
        for i, access in enumerate(self.workload.accesses(config.accesses)):
            if i == warmup:
                self._counting = True
                hits0 = self.pair.stats["remote_hits"]
                misses0 = self.pair.stats["remote_misses"]
                wb0 = self.pair.stats["writebacks"]
                if self.leg.cable is not None and config.tuning is not None:
                    tuner = KnobController(
                        self.leg.cable,
                        config.tuning,
                        seed_context=(self.profile.name, config.seed, "dram"),
                    )
            if i and i % config.decay_interval == 0:
                self._decay()
            addr = access.line_addr
            resident = self.remote.contains(addr) or self.home.contains(addr)
            if resident or self._should_admit(addr):
                self.pair.access(
                    addr, is_write=access.is_write, write_data=access.write_data
                )
                if not resident:
                    # An admission decision: one (lazy) tag write.
                    self._note_admission()
                self._note_tag_touch()
            else:
                self._bypass(access)
            if tuner is not None:
                tuner.on_access()
        if tuner is not None:
            tuner.finish()
            self.result.tuning = tuner.rollup()
        self.leg.finish()
        return self._finish(hits0, misses0, wb0)

    def _note_admission(self) -> None:
        if not self._counting:
            return
        self._admitted += 1
        self._tag_writes_lazy += 1

    def _note_tag_touch(self) -> None:
        if self._counting:
            # Eager hardware management would rewrite the tag/counter
            # entry (LRU bits, frequency) on every cache touch.
            self._tag_writes_eager += 1

    def _bypass(self, access) -> None:
        """Serve a cold miss straight from backing, uncompressed."""
        if access.is_write and access.write_data is not None:
            self.backing.write(access.line_addr, access.write_data)
        else:
            self.backing.read(access.line_addr)
        if self._counting:
            self._bypassed += 1
            self._bypass_bits += self._line_bits
            self._tag_writes_eager += 1  # eager would still update the counter
            if METRICS.enabled:
                METRICS.counter("tier.dram.bypasses").inc()

    def _finish(self, hits0: int, misses0: int, wb0: int) -> TierResult:
        if not self._counting:
            self._counting = True
        config = self.config
        result = self.result
        result.hits = self.pair.stats["remote_hits"] - hits0
        result.misses = self.pair.stats["remote_misses"] - misses0
        # Bypassed accesses never reach the pair; they are misses of
        # the tier even though the pair didn't see them.
        result.misses += self._bypassed
        result.writebacks = self.pair.stats["writebacks"] - wb0
        result.accesses = result.hits + result.misses
        # The lazy tag traffic spends real DRAM bandwidth: charge it.
        tag_bits_lazy = self._tag_writes_lazy * config.tag_entry_bits
        tag_bits_eager = self._tag_writes_eager * config.tag_entry_bits
        result.overhead_bits += tag_bits_lazy
        result.flits += config.link.flits_for(tag_bits_lazy)
        # Busy time of the one channel everything shares: compressed
        # fills/write-backs + raw bypass traffic + lazy tag writes.
        wire_bits = (
            result.flits * config.link.width_bits
            + config.link.flits_for(self._bypass_bits) * config.link.width_bits
        )
        result.busy_ns = config.link.transfer_time_s(wire_bits) * 1e9
        misses = result.misses
        result.extras["admit_pct"] = round(
            100.0 * self._admitted / misses if misses else 0.0, 2
        )
        result.extras["bypassed"] = self._bypassed
        result.extras["bypass_bits"] = self._bypass_bits
        result.extras["tag_bits_lazy"] = tag_bits_lazy
        result.extras["tag_bits_eager"] = tag_bits_eager
        result.extras["tag_saved_pct"] = round(
            100.0 * (1.0 - tag_bits_lazy / tag_bits_eager) if tag_bits_eager else 0.0,
            2,
        )
        result.publish_metrics()
        return result


def run_dram_tier(
    benchmark, config: Optional[DramCacheTierConfig] = None, **overrides
) -> TierResult:
    config = config or DramCacheTierConfig()
    if overrides:
        config = config.scaled(**overrides)
    return DramCacheTierSimulation(benchmark, config).run()
