"""Fig 15 — cooperative multiprogram compression (Single vs Multi4).

Four copies of the same program run SPECrate-style on one link with a
shared cache hierarchy. Copies share data-structure archetypes, so a
dictionary that spans the whole cache (CABLE's) finds cross-copy
similarity and *improves*, while gzip's fixed window gains less (and
both lose on namd, whose data carries little cross-copy similarity).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean
from repro.experiments.base import ExperimentResult, cached_memlink, resolve_scale
from repro.sim.multiprogram import run_multiprogram

EXPERIMENT_ID = "Fig 15"

_DEFAULT_BENCHMARKS = ("gcc", "dealII", "gobmk", "namd", "perlbench", "omnetpp")
_SCHEMES = ("gzip", "cable")


def run(scale="default", benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    preset = resolve_scale(scale)
    benchmarks = list(benchmarks or _DEFAULT_BENCHMARKS)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Single vs replicated-4 multiprogram compression",
        headers=["benchmark", "gzip_single", "gzip_multi4", "cable_single", "cable_multi4"],
        paper_claim=(
            "CABLE benefits more from cooperative replication than gzip "
            "(bigger similarity window); namd hurts both"
        ),
    )
    gains = {s: [] for s in _SCHEMES}
    for benchmark in benchmarks:
        row: List = [benchmark]
        for scheme in _SCHEMES:
            single = cached_memlink(benchmark, scheme, scale).effective_ratio
            multi = run_multiprogram(
                (benchmark,) * 4,
                scheme=scheme,
                preset=preset,
                replicate=True,
            )
            multi_ratio = multi.overall_ratio
            row.extend([single, multi_ratio])
            gains[scheme].append(multi_ratio / single)
        result.rows.append(row)
    result.summary = {
        "cable_mean_gain": arithmetic_mean(gains["cable"]),
        "gzip_mean_gain": arithmetic_mean(gains["gzip"]),
    }
    return result


if __name__ == "__main__":
    print(run().render())
