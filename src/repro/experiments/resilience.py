"""Resilience sweep — fault injection vs. link recovery.

Not a figure from the paper: CABLE's evaluation assumes a reliable
link, and §IV-A only closes the in-flight-eviction race. This sweep
asks the robustness question a deployment would: with the wire, the
transport and the metadata all failing at rate *r*, what does recovery
cost, and is corruption ever silent?

Per fault rate (every injector category armed at the same rate), each
benchmark runs the full memory-link simulation with the lossy-link
protocol (CRC-guarded frames, NACK/retransmit, raw fallback, circuit
breaker). Reported per rate:

- recovery activity: NACKs, retransmissions, raw fallbacks;
- breaker trips *and* re-arms (the sweep's policy uses a tighter
  threshold and a short cooldown so the highest rate demonstrably
  cycles the breaker through open → raw → re-armed);
- the bandwidth cost: effective compression ratio including framing
  and retransmission overhead, vs. the fault-free ratio;
- silent corruptions, which must be zero at every rate — every
  delivered line is byte-compared against what was sent.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.metrics import geometric_mean
from repro.core.config import CableConfig
from repro.experiments.base import ExperimentResult, cached_memlink
from repro.fault.plan import FaultPlan, RecoveryPolicy

EXPERIMENT_ID = "Resilience"

#: Per-category fault rates swept (x-axis). 0.0 is the control: the
#: recovery layer runs (framing costs are charged) but nothing fails.
FAULT_RATES = (0.0, 0.005, 0.02, 0.1)

#: Sweep policy: tighter breaker than the defaults so the top rate
#: demonstrably trips it, and a short cooldown so it also re-arms
#: within a default-scale run.
SWEEP_POLICY = RecoveryPolicy(
    breaker_threshold=0.25,
    breaker_window=24,
    breaker_min_samples=12,
    breaker_cooldown=24,
)

#: Two benchmarks with healthy reference coverage keep the sweep's
#: runtime sane while exercising both transfer directions.
DEFAULT_BENCHMARKS = ("gcc", "omnetpp")


def run(
    scale="default", benchmarks: Optional[Sequence[str]] = None
) -> ExperimentResult:
    benchmarks = tuple(benchmarks or DEFAULT_BENCHMARKS)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Fault injection vs. link recovery",
        headers=[
            "fault_rate",
            "transfers",
            "faults",
            "nacks",
            "retries",
            "raw_fallbacks",
            "breaker_trips",
            "breaker_rearms",
            "silent_corruptions",
            "eff_ratio",
            "overhead_pct",
        ],
        paper_claim=(
            "Beyond the paper: corruption is never silent — every fault "
            "is absorbed (NACK/retransmit/raw) or surfaces as a typed "
            "error; the breaker degrades to raw past the threshold and "
            "re-arms after cooldown"
        ),
    )
    totals = {"faults": 0, "silent": 0}
    trips_at_max = rearms_at_max = 0
    for i, rate in enumerate(FAULT_RATES):
        plan = FaultPlan.uniform(rate, seed=0xFA017 + i)
        counters = {
            key: 0
            for key in (
                "transfers",
                "faults_injected",
                "nacks",
                "retries",
                "raw_fallbacks",
                "breaker_trips",
                "breaker_recoveries",
                "silent_corruptions",
            )
        }
        ratios = []
        overhead_pcts = []
        for benchmark in benchmarks:
            sim = cached_memlink(
                benchmark,
                "cable",
                scale,
                cable=CableConfig(faults=plan, recovery=SWEEP_POLICY),
            )
            for key in counters:
                counters[key] += sim.health.get(key, 0)
            ratios.append(sim.effective_ratio)
            if sim.payload_bits:
                overhead_pcts.append(100.0 * sim.overhead_bits / sim.payload_bits)
        result.rows.append(
            [
                f"{rate:g}",
                counters["transfers"],
                counters["faults_injected"],
                counters["nacks"],
                counters["retries"],
                counters["raw_fallbacks"],
                counters["breaker_trips"],
                counters["breaker_recoveries"],
                counters["silent_corruptions"],
                geometric_mean(ratios),
                sum(overhead_pcts) / len(overhead_pcts),
            ]
        )
        totals["faults"] += counters["faults_injected"]
        totals["silent"] += counters["silent_corruptions"]
        if rate == max(FAULT_RATES):
            trips_at_max = counters["breaker_trips"]
            rearms_at_max = counters["breaker_recoveries"]
    result.summary = {
        "total_faults": totals["faults"],
        "silent_corruptions": totals["silent"],
        "breaker_trips_at_max_rate": trips_at_max,
        "breaker_rearms_at_max_rate": rearms_at_max,
    }
    return result


if __name__ == "__main__":
    print(run().render())
