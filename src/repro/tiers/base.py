"""Shared substrate of the memory-tier scenarios.

Every tier simulation produces a :class:`TierResult`: the link tally
(:class:`~repro.sim.leg.LinkCounts`) every link simulator keeps, the
ratio / bandwidth / throughput columns the memory-link experiments
report, plus a free-form ``extras`` dict for the tier-specific numbers
(queue percentiles, admission fractions, capacity gains). Tier time is
*model* time — arrival ticks, wire cycles and device latencies — so
every column is deterministic and drift-gateable; nothing here reads a
wall clock.

The CXL and DRAM-cache tiers build their link with
:class:`~repro.sim.leg.LinkLeg`, as the memory-link simulation does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.registry import METRICS
from repro.sim.leg import LinkCounts


@dataclass
class TierResult(LinkCounts):
    """What one tier scenario run produces (model-time, deterministic)."""

    tier: str = ""
    benchmark: str = ""
    scheme: str = ""
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    #: Busy time of the bottleneck link/channel over the counted
    #: window, in model nanoseconds.
    busy_ns: float = 0.0
    #: Round-trip verification failures (must stay 0; every tier
    #: round-trips its payloads against the data they encode).
    verify_failures: int = 0
    #: Tier-specific columns (queue p99, admission %, capacity gain…).
    extras: Dict[str, float] = field(default_factory=dict)
    #: Knob-controller roll-up when the run was armed with a
    #: :class:`~repro.tune.plan.TuningPlan`.
    tuning: Optional[Dict[str, object]] = None

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    @property
    def throughput_mlps(self) -> float:
        """Bandwidth-limited line throughput: transfers the bottleneck
        channel can carry per model-millisecond (M lines/s)."""
        if self.busy_ns <= 0.0:
            return 0.0
        return self.transfers / self.busy_ns * 1e3

    def publish_metrics(self) -> None:
        """Mirror the headline numbers onto the ``tier.*`` obs family."""
        if not METRICS.enabled:
            return
        prefix = f"tier.{self.tier}"
        METRICS.counter(f"{prefix}.runs").inc()
        METRICS.counter(f"{prefix}.transfers").inc(self.transfers)
        METRICS.counter(f"{prefix}.payload_bits").inc(self.payload_bits)
        METRICS.counter(f"{prefix}.raw_bits").inc(self.raw_bits)
        METRICS.counter(f"{prefix}.verify_failures").inc(self.verify_failures)
        METRICS.gauge(f"{prefix}.eff_ratio").set(self.effective_ratio)
        METRICS.gauge(f"{prefix}.miss_rate").set(self.miss_rate)
        METRICS.gauge(f"{prefix}.throughput_mlps").set(self.throughput_mlps)
        for name, value in self.extras.items():
            if isinstance(value, (int, float)):
                METRICS.gauge(f"{prefix}.{name}").set(float(value))


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]
