"""Shared substrate of the memory-tier scenarios.

Every tier simulation produces a :class:`TierResult` carrying the same
ratio / bandwidth / throughput columns the memory-link experiments
report, plus a free-form ``extras`` dict for the tier-specific numbers
(queue percentiles, admission fractions, capacity gains). Tier time is
*model* time — arrival ticks, wire cycles and device latencies — so
every column is deterministic and drift-gateable; nothing here reads a
wall clock.

:class:`LinkLeg` attaches one compression scheme to an
:class:`~repro.cache.hierarchy.InclusivePair` link the way
:mod:`repro.sim.memlink` does — ``cable`` (the full
:class:`~repro.core.encoder.CableLinkPair` machinery), ``raw`` or one
of the stream codecs — and hands the host simulation one
:class:`LinkTransfer` record per fill/write-back so it can run its own
queueing and accounting on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.hierarchy import InclusivePair, TransferEvent
from repro.core.config import CableConfig
from repro.core.encoder import CableLinkPair, TransferRecord
from repro.obs.registry import METRICS
from repro.sim.memlink import STREAM_SCHEMES, _StreamCodec

#: Schemes a LinkLeg accepts.
LINK_SCHEMES = ("cable", "raw") + STREAM_SCHEMES


@dataclass
class LinkTransfer:
    """One line crossing a tier link, as the host simulation sees it."""

    kind: str  # "fill" | "writeback"
    raw_bits: int
    payload_bits: int
    #: Recovery framing / retransmissions (cable with a recovery layer).
    overhead_bits: int = 0


@dataclass
class TierResult:
    """What one tier scenario run produces (model-time, deterministic)."""

    tier: str
    benchmark: str
    scheme: str
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    transfers: int = 0
    raw_bits: int = 0
    payload_bits: int = 0
    overhead_bits: int = 0
    flits: int = 0
    raw_flits: int = 0
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
    def raw_ratio(self) -> float:
        """Payload (pre-flit) compression ratio."""
        if self.payload_bits == 0:
            return 1.0
        return self.raw_bits / self.payload_bits

    @property
    def effective_ratio(self) -> float:
        """Flit-quantized bandwidth ratio — what the link actually saves."""
        if self.flits == 0:
            return 1.0
        return self.raw_flits / self.flits

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


class LinkLeg:
    """One compression scheme attached to an InclusivePair link.

    For ``cable`` it listens on the :class:`CableLinkPair` constructed
    here, taking each transfer's payload and overhead bits off its
    :class:`~repro.core.encoder.TransferRecord` exactly as
    :class:`repro.sim.memlink.MemLinkSimulation` does; the other
    schemes observe the pair's fill and write-back events. The host
    drains :attr:`pending` after each ``pair.access`` call.
    """

    def __init__(
        self,
        scheme: str,
        pair: InclusivePair,
        cable_config: Optional[CableConfig] = None,
        verify: bool = True,
    ) -> None:
        if scheme not in LINK_SCHEMES:
            raise ValueError(
                f"unknown link scheme {scheme!r}; known: {', '.join(LINK_SCHEMES)}"
            )
        self.scheme = scheme
        self.pair = pair
        self.pending: List[LinkTransfer] = []
        self.cable: Optional[CableLinkPair] = None
        self._fill_codec: Optional[_StreamCodec] = None
        self._wb_codec: Optional[_StreamCodec] = None
        if scheme == "cable":
            self.cable = CableLinkPair(
                cable_config or CableConfig(), pair, verify=verify
            )
            self.cable.listeners.append(self._listen)
        else:
            if scheme in STREAM_SCHEMES:
                self._fill_codec = _StreamCodec(scheme, verify)
                self._wb_codec = _StreamCodec(scheme, verify)
            pair.add_observer(self._observe)

    def _listen(self, record: TransferRecord) -> None:
        self.pending.append(
            LinkTransfer(
                record.direction,
                len(record.data) * 8,
                record.payload.size_bits,
                record.overhead_bits,
            )
        )

    def _observe(self, event: TransferEvent) -> None:
        if event.kind not in ("fill", "writeback"):
            return
        raw_bits = len(event.data) * 8
        if self._fill_codec is not None:
            codec = self._fill_codec if event.kind == "fill" else self._wb_codec
            payload_bits = codec.transfer(event.data)
        else:  # raw: no flag bit, lines cross exactly as-is
            payload_bits = raw_bits
        self.pending.append(LinkTransfer(event.kind, raw_bits, payload_bits, 0))

    def drain(self) -> List[LinkTransfer]:
        """Transfers produced since the last drain (ownership passes)."""
        produced, self.pending = self.pending, []
        return produced

    def finish(self) -> None:
        """End-of-run hook: drain any cable resync backlog."""
        if self.cable is not None:
            self.cable.lifecycle.drain_resync()


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]
