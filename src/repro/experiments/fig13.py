"""Fig 13 — compression ratio on the coherence links of a 4-chip CMP.

Single-threaded benchmarks with pages interleaved round-robin across
four NUMA nodes; every scheme compresses the three point-to-point
links out of node 0. The paper's observations reproduced here: trends
match the memory link but ratios dip slightly because coherence
traffic carries more dirty lines; CABLE+LBE ≈ 10.6× on average,
~86% over CPACK.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.metrics import arithmetic_mean, percent_better
from repro.experiments.base import (
    ExperimentResult,
    FIGURE_SCHEMES,
    resolve_scale,
)
from repro.sim.multichip import MultiChipConfig, run_multichip
from repro.trace.profiles import ZERO_DOMINANT

EXPERIMENT_ID = "Fig 13"

_DEFAULT_BENCHMARKS = (
    "dealII", "gcc", "gobmk", "omnetpp", "perlbench", "tonto",
    "mcf", "lbm",
)


def multichip_config(scale) -> MultiChipConfig:
    """The coherence-link configuration Fig 13 runs at *scale*."""
    preset = resolve_scale(scale)
    return MultiChipConfig(
        accesses=preset.accesses,
        llc_bytes=preset.llc_bytes * 4,  # per-node LLC; share/link = llc/4
        ws_scale=preset.ws_scale,
        warmup_fraction=preset.warmup_fraction,
    )


def run(scale="default", benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    preset = resolve_scale(scale)
    benchmarks = list(benchmarks or _DEFAULT_BENCHMARKS)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Coherence-link compression, 4-chip CMP",
        headers=["benchmark"] + list(FIGURE_SCHEMES),
        paper_claim=(
            "Same trends as the memory link, slightly lower due to dirty "
            "transfers; CABLE+LBE ~86% better than CPACK on average"
        ),
    )
    config = multichip_config(preset)
    cable_vals = []
    cpack_vals = []
    for benchmark in benchmarks:
        row = [benchmark + ("*" if benchmark in ZERO_DOMINANT else "")]
        for scheme in FIGURE_SCHEMES:
            r = run_multichip(benchmark, config.scaled(scheme=scheme))
            row.append(r.effective_ratio)
            if scheme == "cable":
                cable_vals.append(r.effective_ratio)
            elif scheme == "cpack":
                cpack_vals.append(r.effective_ratio)
        result.rows.append(row)
    result.summary = {
        "cable_mean": arithmetic_mean(cable_vals),
        "cpack_mean": arithmetic_mean(cpack_vals),
        "cable_pct_better": percent_better(
            arithmetic_mean(cable_vals), arithmetic_mean(cpack_vals)
        ),
    }
    return result


if __name__ == "__main__":
    print(run().render())
