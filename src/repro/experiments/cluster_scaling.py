"""Cluster scaling sweep — serving throughput vs worker count.

The sharding half of the cluster story: with no faults injected, does
routing sessions across more worker processes actually buy
throughput? Each row brings up a fresh
:class:`~repro.serve.cluster.supervisor.ClusterService` with N
workers, drives a fixed client population through the front router to
batch completion, and reports end-to-end accesses/s.

The honest claim is *near-linear up to the core count*: worker
processes are CPU-bound Python, so once they outnumber the cores they
timeslice one another and throughput plateaus. Cores are the ones this
process may run on (its affinity mask, not ``os.cpu_count()``), and a row
is *in core* only when its workers plus the router/load-generator
process fit on them (``workers + 1 <= cores``). The verdict has two
parts:

- ``plateau_ok`` (required): every oversubscribed row keeps at least
  ``PLATEAU_FLOOR`` of the 1-worker rate — router and supervision
  overhead must stay modest even when the parallelism is fictional;
- ``scaling_ok``: every in-core row past the first reaches
  ``LINEAR_FLOOR`` of perfect linear scaling over the 1-worker row. It
  reads :data:`NOT_MEASURED` when no such row exists (one or two cores),
  because a sweep that never ran workers in parallel says nothing about
  scaling.

``workers/clients/accesses/completed/silent/drained`` are
deterministic and drift-checked against EXPERIMENTS.md; the rate and
latency columns are wall-clock.
"""

from __future__ import annotations

import asyncio
import os
from typing import Optional, Sequence

from repro.experiments.base import ExperimentResult, resolve_scale

EXPERIMENT_ID = "ClusterScaling"

SEED = 0xCAB1E

#: Worker counts swept (x-axis).
WORKER_COUNTS = (1, 2, 4, 8)

#: Fixed client population for every row — the sweep varies only the
#: number of shards behind the router.
CLIENTS = 16

#: Minimum fraction of perfect linear scaling (vs the 1-worker row)
#: required of every in-core row (``workers + 1 <= cores``).
LINEAR_FLOOR = 0.6

#: Minimum fraction of the 1-worker rate tolerated once workers
#: oversubscribe the cores (plateau, not collapse).
PLATEAU_FLOOR = 0.5

#: ``scaling_ok`` when the sweep has no in-core row past the first.
NOT_MEASURED = "—"


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask, which
    ``os.cpu_count()`` ignores (containers, ``taskset``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def run(
    scale="default", worker_counts: Optional[Sequence[int]] = None
) -> ExperimentResult:
    from repro.serve.cluster.campaign import run_cluster_serving

    worker_counts = tuple(worker_counts or WORKER_COUNTS)
    preset = resolve_scale(scale)
    per_client = max(24, preset.accesses // 80)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Serving throughput vs worker count (no faults)",
        headers=[
            "workers",
            "clients",
            "accesses",
            "completed",
            "silent",
            "drained",
            "p50_ms",
            "p99_ms",
            "acc_per_s",
        ],
        paper_claim=(
            "Beyond the paper: sharding sessions across worker "
            "processes scales serving throughput near-linearly up to "
            "the machine's core count and plateaus (rather than "
            "collapsing) once workers oversubscribe the cores"
        ),
    )
    rates = {}
    total_silent = 0
    all_clean = True
    for workers in worker_counts:
        report = asyncio.run(
            run_cluster_serving(
                workers=workers,
                clients=CLIENTS,
                accesses=per_client,
                seed=SEED,
            )
        )
        rates[workers] = report["accesses_per_s"]
        total_silent += report["silent_corruptions"]
        all_clean = all_clean and bool(report["drained_clean"])
        result.rows.append(
            [
                workers,
                report["clients"],
                report["planned"],
                report["completed"],
                report["silent_corruptions"],
                report["drained_clean"],
                round(report["p50_ms"], 3),
                round(report["p99_ms"], 3),
                round(report["accesses_per_s"], 1),
            ]
        )
    cores = _usable_cores()
    base = rates.get(worker_counts[0], 0.0)
    plateau_ok = base > 0
    in_core_ok = []
    for workers in worker_counts[1:]:
        rate = rates[workers]
        if workers + 1 <= cores:
            in_core_ok.append(base > 0 and rate >= LINEAR_FLOOR * workers * base)
        else:
            plateau_ok = plateau_ok and rate >= PLATEAU_FLOOR * base
    result.summary = {
        "cores": cores,
        "base_acc_per_s": round(base, 1),
        "peak_acc_per_s": round(max(rates.values()), 1) if rates else 0.0,
        "silent_corruptions": total_silent,
        "drained_clean": int(all_clean),
        "plateau_ok": int(plateau_ok),
        "scaling_ok": int(all(in_core_ok)) if in_core_ok else NOT_MEASURED,
    }
    return result


if __name__ == "__main__":
    print(run().render())
