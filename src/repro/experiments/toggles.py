"""§VI-D (text) — bit-toggle reduction on unscrambled links.

CABLE reduces bit toggles by 30.2% on average in the paper; CPACK's
reduction is 16.9% smaller. Fewer flits mean fewer transitions even
though compressed bits are denser. Each run counts transitions on the
16-bit bus over the exact bits its link leg put on the wire
(:meth:`repro.sim.leg.LinkLeg.wire_bits`), the bits its flits are
charged for.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean
from repro.experiments.base import (
    ExperimentResult,
    SWEEP_BENCHMARKS,
    memlink_config,
)
from repro.sim.memlink import run_memlink

EXPERIMENT_ID = "Toggles (§VI-D)"

_SCHEMES = ("cpack", "cable")


def run(scale="default", benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    benchmarks = list(benchmarks or SWEEP_BENCHMARKS)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Bit-toggle reduction on a 16-bit link (%)",
        headers=["benchmark", "cpack_pct", "cable_pct"],
        paper_claim="CABLE reduces toggles ~30% on average, more than CPACK",
    )
    reductions: Dict[str, List[float]] = {s: [] for s in _SCHEMES}
    for benchmark in benchmarks:
        row: List = [benchmark]
        for scheme in _SCHEMES:
            config = memlink_config(scale, scheme=scheme, count_toggles=True)
            sim = run_memlink(benchmark, config)
            reduction = 100.0 * sim.toggle_reduction
            reductions[scheme].append(reduction)
            row.append(reduction)
        result.rows.append(row)
    result.summary = {
        f"{s}_mean_pct": arithmetic_mean(reductions[s]) for s in _SCHEMES
    }
    return result


if __name__ == "__main__":
    print(run().render())
