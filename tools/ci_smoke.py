"""Seeded CI smoke campaigns, one subcommand per leg.

The workflow's smoke matrix (``.github/workflows/ci.yml``) used to
carry each campaign as an inline heredoc — six near-identical YAML
jobs whose Python bodies could drift apart and could not be run
locally without copy-pasting. Each leg now lives here as a subcommand
with the same pinned seeds and the same hard asserts; the matrix job
invokes ``python tools/ci_smoke.py <leg>`` and a developer can run the
identical campaign from a checkout.

Every leg exits nonzero on any violated invariant (the asserts *are*
the gate) and prints a one-line roll-up for the job log. Legs that
archive artifacts write them under ``benchmarks/output/``.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / "benchmarks" / "output"


def smoke_fault() -> int:
    """Seeded fault campaign: every injector category, zero escapes."""
    from repro.fault.campaign import run_campaign
    from repro.fault.plan import FaultPlan

    report = run_campaign(FaultPlan.uniform(0.1, seed=0xC1), accesses=1500)
    print(
        f"transfers={report.transfers} faults={report.faults_injected} "
        f"categories={report.categories_hit()} "
        f"silent={report.silent_corruptions} "
        f"link_failures={report.link_failures} "
        f"final_repairs={report.final_repairs}"
    )
    assert report.faults_injected > 1000, "campaign injected too few faults"
    assert report.categories_hit() >= 8, "a fault category never fired"
    assert report.silent_corruptions == 0, "silent corruption escaped"
    assert report.final_audit_ok, "final audit failed after repair"
    assert report.ok
    return 0


def smoke_crash() -> int:
    """Seeded crash campaign: kills + torn snapshots, replay beats rebuild."""
    from repro.fault.campaign import run_crash_campaign
    from repro.fault.plan import FaultPlan
    from repro.state.plan import DurabilityPolicy

    plan = FaultPlan(
        seed=0xC8, home_crash_rate=0.08, remote_crash_rate=0.08,
        snapshot_corrupt_rate=0.25, journal_loss_rate=0.25,
    )
    durable = run_crash_campaign(plan, durability=DurabilityPolicy(), accesses=1500)
    baseline = run_crash_campaign(plan, durability=None, accesses=1500)
    print(
        f"kills={durable.kill_points}+{baseline.kill_points} "
        f"outcomes={durable.outcomes} "
        f"snap_corrupt={durable.health['snapshot_corruptions_detected']} "
        f"replay_bits={durable.mean_replay_bits:.0f} "
        f"rebuild_bits={baseline.mean_rebuild_bits:.0f} "
        f"silent={durable.silent_corruptions + baseline.silent_corruptions}"
    )
    assert durable.kill_points > 150, "campaign killed too few endpoints"
    assert durable.replays > 0 and durable.rebuilds > 0
    assert durable.health["snapshot_corruptions_detected"] > 0
    assert durable.mean_replay_bits < baseline.mean_rebuild_bits
    assert durable.ok and baseline.ok
    return 0


def smoke_serve() -> int:
    """Full serving path over localhost TCP with wire faults armed."""
    from repro.serve.loadgen import main as loadgen_main

    OUTPUT_DIR.mkdir(exist_ok=True)
    return loadgen_main(
        [
            "--serve", "--clients", "8", "--accesses", "100",
            "--fault-rate", "0.02",
            "--obs-snapshot", str(OUTPUT_DIR / "serve_smoke.obs.json"),
        ]
    )


#: The kill/promotion ledger that must not depend on the transport.
FAILOVER_LEDGER = (
    "kills", "hot_promotions", "warm_promotions", "lost_records",
    "catch_ups", "batches_shipped", "batches_lost", "replica_lag_peak",
)


def smoke_failover() -> int:
    """Kill-under-load over TCP with a sabotaged replication stream,
    plus the same plan over memory pipes: the kill/promotion ledger
    must be identical on both transports."""
    from repro.replica.plan import FailoverPlan
    from repro.serve.campaign import run_failover_campaign

    plan = FailoverPlan(
        seed=0xF0, kill_rate=0.03, scripted_kills=(5, 17, 29),
        batch_drop_rate=0.05, batch_corrupt_rate=0.05,
    )
    report = run_failover_campaign(plan, clients=8, accesses=60, tcp=True)
    memory = run_failover_campaign(plan, clients=8, accesses=60, baseline=False)
    print(
        f"kills={report.kills} hot={report.hot_promotions} "
        f"warm={report.warm_promotions} lost={report.lost_records} "
        f"catch_ups={report.catch_ups} "
        f"batches={report.batches_shipped}/{report.batches_lost} "
        f"lag_peak={report.replica_lag_peak}/{report.lag_bound} "
        f"silent={report.silent_corruptions} "
        f"p99_blip={report.p99_blip:.2f}x"
    )
    assert report.kills >= 8, "campaign killed too few primaries"
    assert report.hot_promotions + report.warm_promotions == report.kills
    assert report.catch_ups > 0, "stream sabotage never forced a catch-up"
    assert report.lag_bounded, "replication lag exceeded the policy bound"
    assert report.silent_corruptions == 0, "silent corruption escaped"
    assert report.audit_failures == 0, "a post-failover audit failed"
    assert report.ok
    for key in FAILOVER_LEDGER:
        tcp, mem = getattr(report, key), getattr(memory, key)
        assert tcp == mem, f"{key}: {tcp} over TCP, {mem} over memory pipes"
    assert memory.ok
    return 0


def _archive_cluster_obs(report, name: str) -> None:
    """Archive a cluster campaign's merged worker registry under *name*
    and print its records per transport write.

    The snapshot exists only under ``REPRO_OBS=1``. Records per write
    comes from the merged ``serve.batch_records`` histogram; it is
    printed for the job log, not gated.
    """
    obs = report.drain_report.get("obs")
    if not obs:
        return
    (OUTPUT_DIR / name).write_text(json.dumps(obs, indent=2, sort_keys=True))
    batch = obs.get("histograms", {}).get("serve.batch_records", {})
    if batch.get("count"):
        print(
            f"records_per_write={batch['total'] / batch['count']:.2f} "
            f"({batch['total']} records in {batch['count']} writes)"
        )


def smoke_cluster() -> int:
    """Sharded service across process boundaries under a kill storm."""
    import asyncio

    from repro.serve.campaign import run_cluster_campaign

    OUTPUT_DIR.mkdir(exist_ok=True)
    report = asyncio.run(run_cluster_campaign(workers=4, clients=32, kills=8))
    print(
        f"kills={report.kills} "
        f"sigkill/hang/slow={report.kills_sigkill}/{report.kills_hang}/"
        f"{report.kills_slow} recoveries={report.recoveries} "
        f"failed_over={report.sessions_failed_over} "
        f"adopted={report.sessions_adopted} "
        f"lost={report.lost_sessions} "
        f"completed={report.completed}/{report.planned} "
        f"silent={report.silent_corruptions} "
        f"p99_blip={report.p99_blip:.2f}x"
    )
    (OUTPUT_DIR / "cluster_smoke.json").write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True)
    )
    _archive_cluster_obs(report, "cluster_smoke.obs.json")
    assert report.kills >= 8, "campaign killed too few workers"
    assert report.recoveries >= report.kills, "a kill was never recovered"
    assert report.lost_sessions == 0, "a victim's session restarted fresh"
    assert report.completed == report.planned, "an access never completed"
    assert report.silent_corruptions == 0, "silent corruption escaped"
    assert report.drained_clean, "merged drain was not clean"
    assert report.ok
    return 0


def smoke_tune() -> int:
    """Short adaptive-tuning campaign across every controller host.

    Simulator: a seeded UCB1 run must settle epochs, pull several arms
    and reproduce byte-identically on a rerun. Serve: per-session
    controllers under wire faults must corrupt nothing and settle
    epochs; the ``tune.*`` metric family must land in the archived obs
    snapshot. Cluster: tuned workers under a kill storm must lose and
    corrupt nothing, settle epochs, and (in the merged worker registry,
    under ``REPRO_OBS=1``) pull the hash-geometry arms too.
    """
    import asyncio

    from repro.obs.registry import METRICS
    from repro.serve.campaign import run_cluster_campaign
    from repro.serve.loadgen import run_loadgen
    from repro.serve.server import LinkService
    from repro.serve.session import ServeConfig
    from repro.sim.memlink import MemLinkConfig, run_memlink
    from repro.fault.plan import FaultPlan
    from repro.tune.plan import TuningPlan

    OUTPUT_DIR.mkdir(exist_ok=True)
    plan = TuningPlan(policy="ucb1", warmup_accesses=64, hold_accesses=64)
    config = MemLinkConfig(accesses=3000, tuning=plan)
    first = run_memlink("gcc", config)
    second = run_memlink("gcc", config)
    assert first.tuning is not None and second.tuning is not None
    print(
        f"sim: epochs={first.tuning['epochs']} "
        f"switches={first.tuning['switches']} "
        f"best={first.tuning['best_arm']} ratio={first.effective_ratio:.2f}"
    )
    assert first.tuning["epochs"] >= 10, "sim controller settled too few epochs"
    assert len(first.tuning["pulls"]) >= 5, "sim controller explored too few arms"
    assert first.tuning == second.tuning, "tuned sim run was not deterministic"
    assert first.effective_ratio == second.effective_ratio

    serve_config = ServeConfig(
        faults=FaultPlan.uniform(0.02, seed=0xCAB1E),
        max_sessions=64,
        tuning=TuningPlan(policy="ucb1", warmup_accesses=24, hold_accesses=12),
    )
    report = asyncio.run(
        run_loadgen(
            clients=6, accesses=96, benchmark="gcc",
            service=LinkService(serve_config),
        )
    )
    drain = report.drain_report
    print(
        f"serve: completed={report.completed}/{report.accesses} "
        f"tuned_sessions={drain.get('tuned_sessions', 0)} "
        f"epochs={drain.get('tune_epochs', 0)} "
        f"switches={drain.get('tune_switches', 0)} "
        f"silent={report.silent_corruptions}"
    )
    assert report.completed == report.accesses, "an access never completed"
    assert report.silent_corruptions == 0, "silent corruption escaped"
    assert report.audit_ok and report.drained_clean
    assert drain.get("tuned_sessions", 0) == 6, "a session ran untuned"
    assert drain.get("tune_epochs", 0) > 0, "serve controllers settled no epochs"

    if METRICS.enabled:
        snapshot = METRICS.snapshot()
        (OUTPUT_DIR / "tune_smoke.obs.json").write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        )
        tuned = [
            name for name in snapshot.get("counters", {}) if name.startswith("tune.")
        ]
        assert tuned, "REPRO_OBS=1 run recorded no tune.* counters"

    cluster = asyncio.run(
        run_cluster_campaign(workers=3, clients=12, kills=3, tune_policy="ucb1")
    )
    epochs = cluster.drain_report.get("serve", {}).get("tune_epochs", 0)
    print(
        f"cluster: kills={cluster.kills} recoveries={cluster.recoveries} "
        f"lost={cluster.lost_sessions} "
        f"completed={cluster.completed}/{cluster.planned} "
        f"epochs={epochs} silent={cluster.silent_corruptions}"
    )
    assert cluster.lost_sessions == 0, "a victim's session restarted fresh"
    assert cluster.silent_corruptions == 0, "silent corruption escaped"
    assert cluster.completed == cluster.planned, "an access never completed"
    assert epochs > 0, "tuned workers settled no epochs"
    assert cluster.ok
    obs = cluster.drain_report.get("obs")
    if obs:
        counters = obs.get("counters", {})
        geometry = counters.get("tune.pull.bucket4", 0) + counters.get(
            "tune.pull.table8th", 0
        )
        assert geometry > 0, "tuned workers never pulled a hash-geometry arm"
    return 0


def smoke_tiers() -> int:
    """Memory-tier scenario sweep at smoke scale, all gates asserted.

    Runs the three tier models (CXL / DRAM-cache / capacity) across
    the tier workload spread and checks the same invariants the bench
    gates: zero silent corruptions, a clean capacity packing audit,
    honestly-deflated capacity gain, and a CXL p99 fill tail the
    encoder never degrades. With REPRO_OBS=1 the ``tier.*`` metric
    family must land in the archived obs snapshot.
    """
    from repro.experiments import tiers
    from repro.obs.registry import METRICS

    OUTPUT_DIR.mkdir(exist_ok=True)
    result = tiers.run(scale="smoke")
    summary = result.summary
    print(
        f"tiers={summary['tiers']:.0f} workloads={summary['workloads']:.0f} "
        f"rows={len(result.rows)} "
        f"silent={summary['silent_corruptions']:.0f} "
        f"audit_ok={summary['capacity_audit_ok']:.0f} "
        f"overhead_accounted={summary['overhead_accounted']:.0f} "
        f"p99_speedup_min={summary['cxl_p99_speedup_min']:.3f}"
    )
    (OUTPUT_DIR / "tiers_smoke.json").write_text(
        json.dumps(result.as_json(), indent=2, sort_keys=True)
    )
    assert summary["tiers"] == 3, "a tier model was skipped"
    assert summary["workloads"] >= 3, "too few workloads"
    assert len(result.rows) >= 9, "missing tier×workload rows"
    assert summary["silent_corruptions"] == 0, "silent corruption escaped"
    assert summary["capacity_audit_ok"] == 1, "capacity packing audit failed"
    assert summary["overhead_accounted"] == 1, "metadata overhead not charged"
    assert summary["cxl_p99_speedup_min"] >= 1.0, "encoder degraded CXL p99"
    # A rerun must be byte-identical: the whole sweep is model-time.
    rerun = tiers.run(scale="smoke")
    assert rerun.rows == result.rows, "tier sweep was not deterministic"
    if METRICS.enabled:
        snapshot = METRICS.snapshot()
        (OUTPUT_DIR / "tiers_smoke.obs.json").write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        )
        recorded = [
            name for name in snapshot.get("counters", {}) if name.startswith("tier.")
        ]
        assert recorded, "REPRO_OBS=1 run recorded no tier.* counters"
    return 0


def smoke_cluster_soak() -> int:
    """The 256-client soak (ROADMAP item 1), scheduled-job sized.

    Runs from the scheduled soak workflow, not the PR matrix; the
    campaign's own ``ok`` is the gate, and the report is archived.
    """
    import asyncio

    from repro.serve.campaign import run_cluster_campaign

    OUTPUT_DIR.mkdir(exist_ok=True)
    report = asyncio.run(
        run_cluster_campaign(
            workers=8, clients=256, kills=64,
            baseline_accesses=32, batch_accesses=24, seed=0xCAB1E,
            heartbeat_interval=0.25,
        )
    )
    print(
        f"clients={report.clients} kills={report.kills} "
        f"recoveries={report.recoveries} lost={report.lost_sessions} "
        f"completed={report.completed}/{report.planned} "
        f"silent={report.silent_corruptions} "
        f"p99_blip={report.p99_blip:.2f}x elapsed={report.elapsed_s:.1f}s"
    )
    (OUTPUT_DIR / "cluster_soak.json").write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True)
    )
    _archive_cluster_obs(report, "cluster_soak.obs.json")
    assert report.clients == 256, "soak must run 256 clients"
    assert report.recoveries >= report.kills, "a kill was never recovered"
    assert report.lost_sessions == 0, "a victim's session restarted fresh"
    assert report.completed == report.planned, "an access never completed"
    assert report.silent_corruptions == 0, "silent corruption escaped"
    assert report.drained_clean, "merged drain was not clean"
    assert report.ok
    return 0


LEGS = {
    "fault": smoke_fault,
    "crash": smoke_crash,
    "serve": smoke_serve,
    "failover": smoke_failover,
    "cluster": smoke_cluster,
    "tune": smoke_tune,
    "tiers": smoke_tiers,
    "cluster_soak": smoke_cluster_soak,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("leg", choices=sorted(LEGS))
    args = parser.parse_args(argv)
    return LEGS[args.leg]()


if __name__ == "__main__":
    sys.exit(main())
