"""Crash-consistent endpoint recovery — snapshots + journal vs rebuild.

Not a figure from the paper: CABLE's evaluation assumes endpoints
never lose their mirrored metadata. This campaign asks the
crash-consistency question a deployment would: when an endpoint loses
its volatile tracking state (home: WMT + hash table + breaker;
remote: hash table + eviction buffer) at a randomized point — possibly
with a torn snapshot or a damaged journal — can it resynchronize
without ever silently corrupting a transfer, in bounded time, and for
measurably less link traffic than a full ground-truth rebuild?

Three scenarios share one seeded kill schedule:

- ``snapshot+journal`` — the durable path: versioned checksummed
  snapshots plus epoch-tagged journal replay, with the epoch handshake
  degrading to incremental audit-rebuild whenever the restore cannot
  be proven complete (corrupt snapshot generations are detected by
  checksum and skipped; poisoned journals are refused);
- ``ground-truth`` — the baseline: no durability manager, every crash
  is a stop-the-world rebuild from the peer's cache contents;
- ``memlink+crashes`` — scripted kills inside the real memory-link
  simulation, proving recovery interleaves with live compressed
  traffic (the effective ratio survives).

Every reconstruction is byte-verified; acceptance demands ≥ 1000 kill
points with zero silent corruptions and the replay path cheaper per
crash than the rebuild path.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.metrics import summarize_recovery
from repro.core.config import CableConfig
from repro.experiments.base import ExperimentResult, memlink_config, resolve_scale
from repro.fault.campaign import run_crash_campaign
from repro.fault.plan import FaultPlan
from repro.sim.memlink import run_memlink
from repro.state.plan import DurabilityPolicy

EXPERIMENT_ID = "CrashRecovery"

#: Kill schedule: per-access crash probability per endpoint, plus the
#: persistent-store sabotage mix (torn newest snapshot; journal device
#: poisoned or its unsynced tail silently lost).
CAMPAIGN_PLAN = FaultPlan(
    seed=0xC8A54,
    home_crash_rate=0.08,
    remote_crash_rate=0.08,
    snapshot_corrupt_rate=0.25,
    journal_loss_rate=0.25,
)

#: Synthetic-campaign length per scale preset; the default preset's
#: ~15.4% kill rate per access yields ≥ 1000 kill points.
CAMPAIGN_ACCESSES = {"smoke": 2_500, "default": 7_000, "paper": 20_000}

DURABILITY = DurabilityPolicy()

#: Scripted kills for the memlink scenario (access index, side).
MEMLINK_CRASHES = ((800, "home"), (1_500, "remote"), (2_600, "home"))

DEFAULT_BENCHMARK = "omnetpp"


def run(
    scale="default", benchmarks: Optional[Sequence[str]] = None
) -> ExperimentResult:
    preset = resolve_scale(scale)
    accesses = CAMPAIGN_ACCESSES.get(preset.name, preset.accesses)
    benchmark = (benchmarks or (DEFAULT_BENCHMARK,))[0]
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Crash-consistent endpoint recovery",
        headers=[
            "scenario",
            "kills",
            "replays",
            "rebuilds",
            "snap_corrupt",
            "mean_replay_bits",
            "mean_rebuild_bits",
            "traffic/crash",
            "silent",
            "audit_ok",
        ],
        paper_claim=(
            "Beyond the paper: a crashed endpoint restores from "
            "snapshot + journal replay (epoch handshake arbitrating "
            "trust) for measurably less link traffic than a "
            "ground-truth rebuild, with zero silent corruptions and "
            "bounded recovery time"
        ),
    )

    durable = run_crash_campaign(
        CAMPAIGN_PLAN, durability=DURABILITY, accesses=accesses
    )
    baseline = run_crash_campaign(
        CAMPAIGN_PLAN, durability=None, accesses=accesses
    )
    for name, rep in (("snapshot+journal", durable), ("ground-truth", baseline)):
        stats = summarize_recovery(rep.health)
        result.rows.append(
            [
                name,
                rep.kill_points,
                rep.replays,
                rep.rebuilds,
                int(stats["snapshot_corruptions_detected"]),
                rep.mean_replay_bits,
                rep.mean_rebuild_bits,
                stats["traffic_per_crash_bits"],
                rep.silent_corruptions,
                int(rep.final_audit_ok),
            ]
        )

    memlink = run_memlink(
        benchmark,
        memlink_config(
            preset,
            cable=CableConfig(durability=DURABILITY),
            crash_points=MEMLINK_CRASHES,
        ),
    )
    mstats = summarize_recovery(memlink.health)
    result.rows.append(
        [
            f"memlink:{benchmark}",
            int(mstats["endpoint_crashes"]),
            int(mstats["journal_replays"]),
            int(mstats["full_rebuilds"]),
            int(mstats["snapshot_corruptions_detected"]),
            mstats["mean_replay_bits"],
            mstats["mean_rebuild_bits"],
            mstats["traffic_per_crash_bits"],
            int(mstats["silent_corruptions"]),
            int(memlink.effective_ratio > 1.0),
        ]
    )

    dstats = summarize_recovery(durable.health)
    bstats = summarize_recovery(baseline.health)
    mean_rebuild = bstats["mean_rebuild_bits"]
    result.summary = {
        "kill_points": durable.kill_points
        + baseline.kill_points
        + int(mstats["endpoint_crashes"]),
        "silent_corruptions": durable.silent_corruptions
        + baseline.silent_corruptions
        + int(mstats["silent_corruptions"]),
        "snapshot_corruptions_detected": int(
            dstats["snapshot_corruptions_detected"]
        ),
        "replay_fraction": dstats["replay_fraction"],
        "mean_replay_traffic_bits": dstats["mean_replay_bits"],
        "mean_rebuild_traffic_bits": mean_rebuild,
        "traffic_savings_pct": (
            100.0 * (1.0 - dstats["mean_replay_bits"] / mean_rebuild)
            if mean_rebuild
            else 0.0
        ),
        "recovery_bounded": int(durable.ok and baseline.ok),
        "memlink_eff_ratio": memlink.effective_ratio,
    }
    return result


if __name__ == "__main__":
    print(run().render())
