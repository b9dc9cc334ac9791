"""Served kill campaigns: endpoints die under live client traffic.

§III-F keeps the two endpoints' WMT and hash tables in lockstep; these
campaigns check that the lockstep, and every access, survives an
endpoint dying mid-traffic. Two killers, one harness:

- :func:`run_failover_campaign` — on a replicated
  :class:`~repro.serve.server.LinkService`, each session's
  :class:`~repro.replica.plan.FailoverPlan` kills its primary, and
  every kill promotes the in-process warm standby mid-session;
- :func:`run_cluster_campaign` — on a
  :class:`~repro.serve.cluster.supervisor.ClusterService`,
  :func:`_kill_storm` SIGKILLs, hangs and byzantine-slows workers one
  recovery at a time, and each victim's sessions resume on its buddy.

Both run the same :class:`~repro.serve.loadgen.Driver` clients through
:func:`~repro.serve.loadgen.run_phase`: a no-kill baseline batch whose
p99 is the reference, then the kill phase. (The failover baseline runs
on its own unarmed service: a session's kill schedule is fixed when it
opens.) :class:`ServedCampaignReport` holds the one p99-blip rule and
the one ``ok`` core both reports extend.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.fault.injectors import WorkerFaultInjector
from repro.serve.cluster.config import ClusterConfig
from repro.serve.cluster.supervisor import ClusterService
from repro.serve.loadgen import (
    Driver,
    _percentile,
    connector,
    driver_totals,
    drivers_for,
    run_phase,
)
from repro.serve.server import LinkService

#: A kill-phase p99 above this multiple of the no-kill baseline fails
#: the campaign. Generous by design: the claim is "bounded", not
#: "invisible" — recovery windows freeze tags, clients spin on
#: reconnect, and CI machines are loud.
BLIP_LIMIT = 8.0

#: Pause after each recovered kill before the storm picks the next.
_SETTLE_S = 0.02

#: Longest the storm waits for a quiet cluster, or for one recovery.
_RECOVERY_TIMEOUT_S = 60.0


@dataclass
class ServedCampaignReport:
    """What every served kill campaign reports, and its one gate."""

    clients: int = 0
    planned: int = 0
    completed: int = 0
    kills: int = 0
    #: Kills that resolved: promotions (failover) or supervisor
    #: recoveries (cluster).
    recoveries: int = 0
    #: Reopens handed a fresh session after that client made progress.
    lost_sessions: int = 0
    resumed_opens: int = 0
    rebuilt_opens: int = 0
    reconnects: int = 0
    silent_corruptions: int = 0
    audit_failures: int = 0
    drained_clean: bool = False
    baseline_p99_ms: float = 0.0
    #: Kill-phase latency.
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    elapsed_s: float = 0.0
    drain_report: Dict[str, object] = field(default_factory=dict)

    def add_load(self, drivers: List[Driver], baseline_ms, kill_ms) -> None:
        """Fold the drivers' counters and both phases' tails in."""
        totals = driver_totals(drivers)
        self.clients = len(drivers)
        for key in ("planned", "completed", "lost_sessions", "reconnects"):
            setattr(self, key, totals[key])
        self.resumed_opens = totals["resumed"]
        self.rebuilt_opens = totals["rebuilt"]
        self.baseline_p99_ms = _percentile(baseline_ms, 0.99)
        self.p50_ms = _percentile(kill_ms, 0.50)
        self.p99_ms = _percentile(kill_ms, 0.99)

    @property
    def p99_blip(self) -> float:
        """Kill-phase p99 relative to the no-kill baseline (0 without
        a baseline)."""
        if self.baseline_p99_ms <= 0.0:
            return 0.0
        return self.p99_ms / self.baseline_p99_ms

    @property
    def p99_blip_bounded(self) -> bool:
        return self.p99_blip <= BLIP_LIMIT

    @property
    def ok(self) -> bool:
        return (
            self.completed == self.planned
            and self.silent_corruptions == 0
            and self.lost_sessions == 0
            and self.recoveries >= self.kills
            and self.audit_failures == 0
            and self.drained_clean
            and self.p99_blip_bounded
        )

    def as_dict(self) -> Dict[str, object]:
        data = {key: getattr(self, key) for key in self.__dataclass_fields__}
        del data["drain_report"]
        for key in ("p99_blip", "p99_blip_bounded", "ok"):
            data[key] = getattr(self, key)
        return data


# ======================================================================
# In-process failover: each session's FailoverPlan kills its primary
# ======================================================================


@dataclass
class FailoverCampaignReport(ServedCampaignReport):
    """A kill-the-primary-under-load campaign on one link service."""

    hot_promotions: int = 0
    warm_promotions: int = 0
    lost_records: int = 0
    catch_ups: int = 0
    batches_shipped: int = 0
    batches_lost: int = 0
    replica_lag_peak: int = 0
    #: Structural lag bound: the journal tee force-pumps at
    #: ``ReplicationPolicy.max_lag_records``, so the backlog a kill can
    #: lose never exceeds it.
    lag_bound: int = 0

    @property
    def lag_bounded(self) -> bool:
        return self.replica_lag_peak <= self.lag_bound

    @property
    def ok(self) -> bool:
        return super().ok and self.lag_bounded


def run_failover_campaign(
    plan,
    replication=None,
    clients: int = 8,
    accesses: int = 80,
    benchmark: str = "gcc",
    seed: int = 0xCAB1E,
    window: int = 8,
    tcp: bool = False,
    baseline: bool = True,
) -> FailoverCampaignReport:
    """Kill replicated primaries under live traffic and report.

    *plan* is a :class:`~repro.replica.plan.FailoverPlan` (reseeded
    per session by the serve layer, so every session runs its own
    deterministic kill schedule); *replication* defaults to
    :class:`~repro.replica.plan.ReplicationPolicy`. ``tcp=True`` runs
    the full socket path on an ephemeral localhost port instead of
    in-process memory pipes; ``baseline=False`` skips the no-kill
    batch. Kill/promotion/lag columns are deterministic for fixed
    arguments; latency columns are wall-clock.
    """
    from repro.replica.plan import ReplicationPolicy
    from repro.serve.session import ServeConfig

    replication = replication or ReplicationPolicy()

    async def serve(failover):
        """One service, one batch per driver; drained and stopped."""
        service = LinkService(
            ServeConfig(
                replication=replication,
                failover=failover,
                max_sessions=max(64, clients),
            )
        )
        if tcp:
            host, port = await service.start_tcp()
            connect = connector(host=host, port=port)
        else:
            connect = connector(service)
        drivers = drivers_for(clients, seed, connect, benchmark, window)
        latencies = await run_phase(drivers, accesses)
        drain = await service.drain()
        await service.stop()
        return drivers, latencies, drain

    async def campaign():
        baseline_ms: List[float] = []
        if baseline:
            _, baseline_ms, _ = await serve(None)
        drivers, kill_ms, drain = await serve(plan)
        return drivers, baseline_ms, kill_ms, drain

    started = time.perf_counter()
    drivers, baseline_ms, kill_ms, drain = asyncio.run(campaign())
    report = FailoverCampaignReport(
        lag_bound=replication.max_lag_records, drain_report=drain
    )
    report.add_load(drivers, baseline_ms, kill_ms)
    for key in (
        "kills", "hot_promotions", "warm_promotions", "lost_records",
        "catch_ups", "batches_shipped", "batches_lost", "replica_lag_peak",
        "silent_corruptions", "audit_failures",
    ):
        setattr(report, key, drain[key])
    report.recoveries = report.hot_promotions + report.warm_promotions
    report.drained_clean = bool(drain["drained_clean"])
    report.elapsed_s = time.perf_counter() - started
    return report


# ======================================================================
# Cluster: the kill storm takes down whole worker processes
# ======================================================================


@dataclass
class ClusterCampaignReport(ServedCampaignReport):
    """A worker kill storm against a sharded cluster."""

    workers: int = 0
    kills_sigkill: int = 0
    kills_hang: int = 0
    kills_slow: int = 0
    sessions_failed_over: int = 0
    sessions_adopted: int = 0
    seeds_shipped: int = 0
    store_writes_shipped: int = 0
    integrity_failures: int = 0


async def _kill_storm(
    service: ClusterService, injector: WorkerFaultInjector, kills: int
) -> Dict[str, int]:
    """Apply up to *kills* worker faults, one recovery at a time;
    returns how many of each mode were applied."""
    applied = dict.fromkeys(injector.modes, 0)
    for _ in range(kills):
        # All safety conditions must hold *at once* before injecting —
        # checking them one after another leaves a gap (a respawn's
        # READY lands between checks, reshuffles buddies, and the next
        # kill hits a worker mid-rebind whose sessions are not yet
        # re-seeded anywhere: a double fault the tolerance model
        # excludes). No await between the final check and the fault.
        deadline = time.monotonic() + _RECOVERY_TIMEOUT_S
        while time.monotonic() < deadline:
            if (
                not service.recovering
                and not service.pending_rebinds()
                and len(service.alive_ids()) >= 2
            ):
                break
            await asyncio.sleep(0.02)
        alive = service.alive_ids()
        if len(alive) < 2:
            # Never kill the last worker (no buddy, nothing to prove).
            break
        target = service.recoveries + 1
        victim, mode = injector.next_fault(alive)
        if mode == "sigkill":
            done = service.kill_worker(victim)
        elif mode == "hang":
            done = service.hang_worker(victim)
        else:
            done = service.slow_worker(victim, injector.slow_stall_ms)
        if not done:
            continue
        applied[mode] += 1
        with contextlib.suppress(asyncio.TimeoutError):
            await service.wait_recoveries(target, _RECOVERY_TIMEOUT_S)
        await asyncio.sleep(_SETTLE_S)
    return applied


async def run_cluster_campaign(
    workers: int = 8,
    clients: int = 64,
    kills: int = 200,
    baseline_accesses: int = 32,
    batch_accesses: int = 24,
    benchmark: str = "gcc",
    seed: int = 0xCAB1E,
    window: int = 4,
    heartbeat_interval: float = 0.25,
    tune_policy: str = "",
) -> ClusterCampaignReport:
    """Run a worker kill storm under continuous routed load.

    Kills are serialized against in-flight recoveries: the cluster is
    single-failure tolerant by design (a buddy killed *while* adopting
    a victim's sessions would take the stores with it), and the
    campaign measures that design rather than wandering outside it.
    """
    # Killed peers make asyncio's transports log "socket.send() raised
    # exception." per dead socket — expected collateral here, and noise
    # that would drown the campaign's own output.
    logging.getLogger("asyncio").setLevel(logging.ERROR)
    started = time.perf_counter()
    service = ClusterService(
        ClusterConfig(
            workers=workers,
            heartbeat_interval=heartbeat_interval,
            # Sessions concentrate onto survivors as the storm goes on;
            # any single worker must be able to hold every tag.
            max_sessions=clients + 8,
            tune_policy=tune_policy,
        )
    )
    host, port = await service.start()
    injector = WorkerFaultInjector(
        seed, slow_stall_ms=heartbeat_interval * 8000.0
    )
    drivers = drivers_for(
        clients, seed, connector(host=host, port=port), benchmark, window
    )
    try:
        baseline_ms = await run_phase(drivers, baseline_accesses)
        storm = asyncio.ensure_future(_kill_storm(service, injector, kills))
        kill_ms = await run_phase(drivers, batch_accesses, until=storm)
    finally:
        drain = await service.drain()
    report = ClusterCampaignReport(workers=workers, drain_report=drain)
    report.add_load(drivers, baseline_ms, kill_ms)
    applied = storm.result()
    report.kills_sigkill = applied["sigkill"]
    report.kills_hang = applied["hang"]
    report.kills_slow = applied["slow"]
    report.kills = sum(applied.values())
    report.recoveries = service.recoveries
    supervisor = drain["supervisor"]
    report.sessions_failed_over = supervisor["sessions_failed_over"]
    report.sessions_adopted = supervisor["sessions_adopted"]
    serve = drain["serve"]
    report.silent_corruptions = serve.get("silent_corruptions", 0)
    report.audit_failures = serve.get("audit_failures", 0)
    report.drained_clean = bool(drain["drained_clean"])
    report.seeds_shipped = drain["shipping"].get("seeds", 0)
    report.store_writes_shipped = drain["shipping"].get("store_writes_shipped", 0)
    report.integrity_failures = drain["standby"].get("integrity_failures", 0)
    report.elapsed_s = time.perf_counter() - started
    return report
