"""Cluster kill campaign — worker deaths under live routed traffic.

Beyond the paper: this is the multi-process end of the robustness
story. A :class:`~repro.serve.cluster.supervisor.ClusterService`
shards sessions across real worker processes behind a consistent-hash
front router; a :class:`~repro.fault.injectors.WorkerFaultInjector`
SIGKILLs, hangs, and byzantine-slows workers while dozens of
reconnect-resilient clients drive access batches through the router.
Every kill must resolve to a recovery: the victim's sessions promote
on its buddy worker from the backing stores the buddy mirrors
(cross-process shipping, ``repro/replica/remote``), and clients resume
through the HELLO/EPOCH resync path.

Reported per row: one fault mode (sigkill / hang / slow) with how many
faults the injector scheduled and how many recoveries the supervisor's
detector attributed to the matching cause. The scheduled counts are
deterministic (seeded injector, fixed kill budget); the attributed
cause can legitimately differ (a byzantine-slow worker whose stall
eats the heartbeat deadline is diagnosed as hung), so only
``mode``/``scheduled`` are drift-checked against EXPERIMENTS.md.

The summary carries the invariants the campaign gates: every scheduled
kill recovered, zero lost sessions (every victim's sessions resumed on
the buddy), zero silent corruptions, bounded router p99 blip vs the
no-fault baseline, and a clean final drain.
"""

from __future__ import annotations

import asyncio

from repro.experiments.base import ExperimentResult, resolve_scale

EXPERIMENT_ID = "Cluster"

SEED = 0xCAB1E

#: Campaign shape per scale preset: (workers, clients, kills).
CAMPAIGN_SCALES = {
    "smoke": (4, 8, 12),
    "default": (8, 64, 200),
    "paper": (8, 96, 300),
}

#: Per-batch access counts (baseline batch, storm batch). Small on
#: purpose: the campaign's unit of progress is the batch, and short
#: batches keep reconnect-and-resume cycles frequent under the storm.
BASELINE_ACCESSES = 32
BATCH_ACCESSES = 24

#: A p99 blip above this multiple of the no-fault baseline fails the
#: run. Generous by design — the claim is "bounded", not "invisible":
#: recovery windows freeze tags and clients spin on reconnect.
BLIP_LIMIT = 8.0

HEARTBEAT_INTERVAL = 0.2


def run(scale="default") -> ExperimentResult:
    from repro.serve.cluster.campaign import run_cluster_campaign

    preset = resolve_scale(scale)
    workers, clients, kills = CAMPAIGN_SCALES.get(
        preset.name, CAMPAIGN_SCALES["default"]
    )
    report = asyncio.run(
        run_cluster_campaign(
            workers=workers,
            clients=clients,
            kills=kills,
            baseline_accesses=BASELINE_ACCESSES,
            batch_accesses=BATCH_ACCESSES,
            seed=SEED,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            blip_limit=BLIP_LIMIT,
        )
    )
    drain = report.drain_report
    supervisor = drain.get("supervisor", {}) if isinstance(drain, dict) else {}
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Sharded link service under a worker kill storm",
        headers=["mode", "scheduled", "recovered_as"],
        rows=[
            ["sigkill", report.kills_sigkill, supervisor.get("recoveries_crash", 0)],
            ["hang", report.kills_hang, supervisor.get("recoveries_hang", 0)],
            ["slow", report.kills_slow, supervisor.get("recoveries_slow", 0)],
            ["total", report.kills, report.recoveries],
        ],
        paper_claim=(
            "Beyond the paper: a consistent-hash router over supervised "
            "worker processes survives hundreds of SIGKILL/hang/slow "
            "faults under live traffic — every victim's sessions resume "
            "on its buddy from cross-process store shipping with zero "
            "silent corruptions and a bounded router p99 blip"
        ),
    )
    result.summary = {
        "workers": report.workers,
        "clients": report.clients,
        "kills": report.kills,
        "recoveries": report.recoveries,
        "sessions_failed_over": report.sessions_failed_over,
        "sessions_adopted": report.sessions_adopted,
        "lost_sessions": report.lost_sessions,
        "resumed_opens": report.resumed_opens,
        "reconnects": report.reconnects,
        "planned": report.planned,
        "completed": report.completed,
        "silent_corruptions": report.silent_corruptions,
        "audit_failures": report.audit_failures,
        "seeds_shipped": report.seeds_shipped,
        "store_writes_shipped": report.store_writes_shipped,
        "p99_blip": round(report.p99_blip, 3),
        "p99_blip_bounded": report.p99_blip_bounded,
        "drained_clean": report.drained_clean,
        "campaign_ok": int(report.ok),
    }
    return result


if __name__ == "__main__":
    print(run().render())
