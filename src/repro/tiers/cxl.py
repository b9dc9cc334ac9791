"""CXL far-memory expander tier.

Topology: the host LLC (remote cache) misses to a CXL memory
expander whose device-side buffer cache (home cache, inclusive) fronts
far memory. The encoder sits on the CXL link; fills cross the
device→host *read* channel and write-backs the host→device *write*
channel, which differ in width (asymmetric bandwidth) and behind which
the device services reads and posted writes at different media
latencies.

Timing is a deterministic queue model in pure model-time: access *i*
arrives at ``i * issue_interval_ns``. A fill occupies, in order, the
write channel (request header), the device read port
(``read_latency_ns``), and the read channel (response payload flits) —
each a single-server FIFO resource whose next-free time advances as
work lands on it. A write-back is posted: it occupies the write
channel for its payload and then the device write port. Fill latency
(completion − arrival) is recorded per counted fill, so p50/p99 are
exact functions of (workload seed, scheme) and drift-gateable.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.hierarchy import InclusivePair
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.obs.registry import METRICS
from repro.sim.leg import LinkLeg
from repro.sim.memlink import resolve_profile
from repro.tiers.base import TierResult, percentile
from repro.tiers.plan import CxlTierConfig
from repro.trace.stream import SharedBackingStore, WorkloadModel
from repro.tune.controller import KnobController


class CxlTierSimulation:
    """One benchmark × one scheme on the CXL expander link."""

    def __init__(self, benchmark, config: CxlTierConfig) -> None:
        self.config = config
        self.profile = profile = resolve_profile(benchmark, config.ws_scale)
        self.workload = WorkloadModel(profile, seed=config.seed)
        self.backing = SharedBackingStore([self.workload])
        self.home = SetAssociativeCache(
            CacheGeometry(config.buffer_bytes, config.buffer_ways, config.line_bytes),
            name="cxl-buffer",
        )
        self.remote = SetAssociativeCache(
            CacheGeometry(config.llc_bytes, config.llc_ways, config.line_bytes),
            name="host-llc",
        )
        self.pair = InclusivePair(
            self.home, self.remote, self.backing.read, self.backing.write
        )
        # The queue model times each transfer at its access's arrival:
        # the leg's records wait here until the access returns.
        self._arrived = []
        self.leg = LinkLeg(
            config.scheme,
            self.pair,
            self._arrived.append,
            cable_config=config.cable,
            verify=config.verify,
        )
        self.result = TierResult(
            tier="cxl", benchmark=profile.name, scheme=config.scheme
        )
        self._counting = False
        # Single-server FIFO resources (model ns next-free times).
        self._write_free = 0.0
        self._read_free = 0.0
        self._device_free = 0.0
        self._read_busy = 0.0
        self._write_busy = 0.0
        self._fill_latencies = []

    # ------------------------------------------------------------------
    # Queue model
    # ------------------------------------------------------------------

    def _wire_ns(self, link, bits: int) -> float:
        return link.transfer_time_s(bits) * 1e9

    def _fill(self, now_ns: float, payload_bits: int, overhead_bits: int) -> float:
        """Advance the pipeline for one read request; returns latency."""
        config = self.config
        request_ns = self._wire_ns(config.write_link, config.request_bits)
        request_done = max(now_ns, self._write_free) + request_ns
        self._write_free = request_done
        self._write_busy += request_ns
        device_done = max(request_done, self._device_free) + config.read_latency_ns
        self._device_free = device_done
        response_ns = self._wire_ns(
            config.read_link, payload_bits + overhead_bits
        )
        response_done = max(device_done, self._read_free) + response_ns
        self._read_free = response_done
        self._read_busy += response_ns
        return response_done - now_ns

    def _writeback(self, now_ns: float, payload_bits: int, overhead_bits: int) -> None:
        config = self.config
        wire_ns = self._wire_ns(config.write_link, payload_bits + overhead_bits)
        done = max(now_ns, self._write_free) + wire_ns
        self._write_free = done
        self._write_busy += wire_ns
        self._device_free = (
            max(done, self._device_free) + config.write_latency_ns
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _tally(self, record, now_ns: float) -> None:
        config = self.config
        if record.direction == "fill":
            latency = self._fill(now_ns, record.size_bits, record.overhead_bits)
            link = config.read_link
            if self._counting:
                self._fill_latencies.append(latency)
        else:
            self._writeback(now_ns, record.size_bits, record.overhead_bits)
            link = config.write_link
        if not self._counting:
            return
        self.result.add(link, record)
        if METRICS.enabled:
            METRICS.counter(f"tier.cxl.{record.direction}s").inc()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self) -> TierResult:
        config = self.config
        warmup = int(config.accesses * config.warmup_fraction)
        hits0 = misses0 = wb0 = 0
        count_start_ns = 0.0
        tuner: Optional[KnobController] = None
        for i, access in enumerate(self.workload.accesses(config.accesses)):
            now_ns = i * config.issue_interval_ns
            if i == warmup:
                self._counting = True
                count_start_ns = now_ns
                hits0 = self.pair.stats["remote_hits"]
                misses0 = self.pair.stats["remote_misses"]
                wb0 = self.pair.stats["writebacks"]
                self._read_busy = self._write_busy = 0.0
                if self.leg.cable is not None and config.tuning is not None:
                    tuner = KnobController(
                        self.leg.cable,
                        config.tuning,
                        seed_context=(self.profile.name, config.seed, "cxl"),
                    )
            self.pair.access(
                access.line_addr,
                is_write=access.is_write,
                write_data=access.write_data,
            )
            for record in self._arrived:
                self._tally(record, now_ns)
            self._arrived.clear()
            if tuner is not None:
                tuner.on_access()
        if tuner is not None:
            tuner.finish()
            self.result.tuning = tuner.rollup()
        self.leg.finish()
        for record in self._arrived:  # resync backlog, if any
            self._tally(record, self._read_free)
        result = self.result
        if not self._counting:
            self._counting = True  # tiny runs: count everything
        result.hits = self.pair.stats["remote_hits"] - hits0
        result.misses = self.pair.stats["remote_misses"] - misses0
        result.writebacks = self.pair.stats["writebacks"] - wb0
        result.accesses = result.hits + result.misses
        result.busy_ns = max(self._read_busy, self._write_busy)
        latencies = sorted(self._fill_latencies)
        result.extras["p50_fill_ns"] = round(percentile(latencies, 0.50), 3)
        result.extras["p99_fill_ns"] = round(percentile(latencies, 0.99), 3)
        result.extras["read_busy_ns"] = round(self._read_busy, 3)
        result.extras["write_busy_ns"] = round(self._write_busy, 3)
        drained_ns = max(self._read_free, self._write_free) - count_start_ns
        if drained_ns > 0 and result.accesses:
            # Accesses retired per model-µs once queueing is accounted.
            result.extras["retire_maps"] = round(result.accesses / drained_ns * 1e3, 3)
        result.publish_metrics()
        return result


def run_cxl_tier(benchmark, config: Optional[CxlTierConfig] = None, **overrides) -> TierResult:
    config = config or CxlTierConfig()
    if overrides:
        config = config.scaled(**overrides)
    return CxlTierSimulation(benchmark, config).run()
