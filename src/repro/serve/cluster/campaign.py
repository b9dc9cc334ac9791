"""Kill-under-load campaign: worker deaths under live client traffic.

Two phases against one :class:`~repro.serve.cluster.supervisor.
ClusterService`:

- **Baseline** — every client completes one access batch through the
  router with no faults; its latency tail is the reference p99.
- **Kill storm** — clients loop access batches continuously while a
  :class:`~repro.fault.injectors.WorkerFaultInjector` schedules worker
  deaths (SIGKILL / hang / byzantine-slow). Kills are serialized
  against in-flight recoveries — the cluster is single-failure
  tolerant by design (a buddy killed *while* adopting a victim's
  sessions would take the stores with it), and the campaign measures
  that design honestly rather than wandering outside it.

Clients are reconnect-resilient: a driver whose worker dies sees the
connection drop (or a frozen-tag refusal from the router), backs off,
reopens by tag, and resumes from the holes in its batch via
``RemoteClient.completed_indices``. A reopen that comes back as a
*fresh* session when the driver had prior progress is counted as a
``lost_session`` — the invariant the buddy's store mirror exists to
hold at zero.

Every invariant the ISSUE gates lives in :meth:`ClusterCampaignReport.
ok`: zero silent corruptions, zero lost sessions, every scheduled kill
recovered, bounded p99 blip, clean drain.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fault.injectors import WorkerFaultInjector
from repro.serve.client import RemoteClient, SessionRejected
from repro.serve.cluster.config import ClusterConfig
from repro.serve.cluster.supervisor import ClusterService
from repro.serve.loadgen import _percentile, client_tag
from repro.trace.stream import WorkloadModel

#: Reconnect backoff while a tag is frozen / a worker is mid-recovery.
_RETRY_SLEEP = 0.05


@dataclass
class ClusterCampaignReport:
    """Roll-up of one kill-under-load campaign."""

    workers: int = 0
    clients: int = 0
    kills: int = 0
    kills_sigkill: int = 0
    kills_hang: int = 0
    kills_slow: int = 0
    recoveries: int = 0
    sessions_failed_over: int = 0
    sessions_adopted: int = 0
    adoption_conflicts: int = 0
    lost_sessions: int = 0
    resumed_opens: int = 0
    rebuilt_opens: int = 0
    reconnects: int = 0
    rejected_opens: int = 0
    planned: int = 0
    completed: int = 0
    frames: int = 0
    nacks: int = 0
    crc_errors: int = 0
    silent_corruptions: int = 0
    audit_failures: int = 0
    drained_clean: int = 0
    seeds_shipped: int = 0
    store_writes_shipped: int = 0
    integrity_failures: int = 0
    baseline_p99_ms: float = 0.0
    kill_p99_ms: float = 0.0
    p99_blip: float = 0.0
    p99_blip_bounded: int = 0
    elapsed_s: float = 0.0
    drain_report: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.completed == self.planned
            and self.silent_corruptions == 0
            and self.lost_sessions == 0
            and self.recoveries >= self.kills
            and self.audit_failures == 0
            and bool(self.drained_clean)
            and bool(self.p99_blip_bounded)
        )

    def as_dict(self) -> Dict[str, object]:
        data = {
            key: getattr(self, key)
            for key in self.__dataclass_fields__
            if key != "drain_report"
        }
        data["ok"] = self.ok
        return data


class _Driver:
    """One reconnect-resilient client: completes batches by tag."""

    def __init__(
        self,
        index: int,
        tag: int,
        host: str,
        port: int,
        benchmark: str,
        window: int,
    ) -> None:
        self.index = index
        self.tag = tag
        self.host = host
        self.port = port
        self.benchmark = benchmark
        self.window = window
        self.progress: Tuple[int, int] = (0, 0)
        self.had_progress = False
        self.batches = 0
        self.stats = {
            "completed": 0,
            "planned": 0,
            "frames": 0,
            "nacks": 0,
            "crc_errors": 0,
            "reconnects": 0,
            "rejected_opens": 0,
            "resumed": 0,
            "rebuilt": 0,
            "lost_sessions": 0,
        }

    def _batch_plan(self, accesses: int) -> List:
        workload = WorkloadModel(self.benchmark, seed=self.tag)
        # Distinct stream per batch keeps the address stream moving
        # instead of replaying one prefix forever.
        stream_id = self.index + self.batches * 4096
        return list(workload.accesses(accesses, stream_id=stream_id))

    async def run_batch(self, accesses: int, latencies: List[float]) -> None:
        """Drive one batch to full completion, reconnecting as needed."""
        plan = self._batch_plan(accesses)
        self.stats["planned"] += len(plan)
        remaining = list(range(len(plan)))
        while remaining:
            client = await self._connect()
            if client is None:
                continue
            opened = await self._open(client)
            if opened is None:
                continue
            try:
                await client.run(
                    [plan[i] for i in remaining], window=self.window
                )
            except (ConnectionError, OSError):
                pass
            latencies.extend(client.latencies_ms)
            for key in ("frames", "nacks", "crc_errors"):
                self.stats[key] += client.stats[key]
            self.stats["completed"] += client.stats["completed"]
            if client.progress != (0, 0):
                self.progress = client.progress
            self.had_progress = True
            done = {
                remaining[j]
                for j in client.completed_indices
                if j < len(remaining)
            }
            remaining = [i for i in remaining if i not in done]
            with contextlib.suppress(Exception):
                await client.close(keep=True)
            if remaining:
                # Mid-batch drop: the owning worker died or drained.
                self.stats["reconnects"] += 1
                await asyncio.sleep(_RETRY_SLEEP)
        self.batches += 1

    async def _connect(self) -> Optional[RemoteClient]:
        try:
            return await RemoteClient.connect_tcp(self.host, self.port)
        except OSError:
            await asyncio.sleep(_RETRY_SLEEP)
            return None

    async def _open(self, client: RemoteClient):
        try:
            opened = await client.open(0, self.tag, *self.progress)
        except SessionRejected:
            # Frozen tag (recovery in flight), router refusal, or a
            # worker that vanished mid-handshake: back off and retry.
            self.stats["rejected_opens"] += 1
            with contextlib.suppress(Exception):
                await client.close(keep=False)
            await asyncio.sleep(_RETRY_SLEEP)
            return None
        if opened.resumed:
            self.stats["resumed"] += 1
            if opened.rebuilt:
                self.stats["rebuilt"] += 1
        elif self.had_progress:
            # The tag's state is gone — the exact failure shipping is
            # supposed to rule out.
            self.stats["lost_sessions"] += 1
        return opened


async def _kill_storm(
    service: ClusterService,
    injector: WorkerFaultInjector,
    kills: int,
    settle_s: float,
    recovery_timeout: float,
) -> int:
    """Schedule *kills* worker faults, one recovery at a time."""
    scheduled = 0
    for _ in range(kills):
        # All safety conditions must hold *at once* before injecting —
        # checking them one after another leaves a gap (a respawn's
        # READY lands between checks, reshuffles buddies, and the next
        # kill hits a worker mid-rebind whose sessions are not yet
        # re-seeded anywhere: a double fault the tolerance model
        # excludes). No await between the final check and the fault.
        deadline = time.monotonic() + recovery_timeout
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
            applied = service.kill_worker(victim)
        elif mode == "hang":
            applied = service.hang_worker(victim)
        else:
            applied = service.slow_worker(victim, injector.slow_stall_ms)
        if not applied:
            continue
        scheduled += 1
        with contextlib.suppress(asyncio.TimeoutError):
            await service.wait_recoveries(target, recovery_timeout)
        await asyncio.sleep(settle_s)
    return scheduled


async def run_cluster_serving(
    workers: int = 4,
    clients: int = 32,
    accesses: int = 48,
    benchmark: str = "gcc",
    seed: int = 0xCAB1E,
    window: int = 4,
    heartbeat_interval: float = 0.25,
    tune_policy: str = "",
) -> Dict[str, object]:
    """No-fault serving throughput through the router: every client
    completes one batch; returns a flat report for the scaling sweep."""
    logging.getLogger("asyncio").setLevel(logging.ERROR)
    config = ClusterConfig(
        workers=workers,
        heartbeat_interval=heartbeat_interval,
        max_sessions=clients + 8,
        tune_policy=tune_policy,
    )
    service = ClusterService(config)
    host, port = await service.start()
    drivers = [
        _Driver(i, client_tag(seed, i), host, port, benchmark, window)
        for i in range(clients)
    ]
    latencies: List[float] = []
    try:
        started = time.perf_counter()
        await asyncio.gather(
            *(d.run_batch(accesses, latencies) for d in drivers)
        )
        elapsed = time.perf_counter() - started
    finally:
        drain = await service.drain()
    serve = drain.get("serve", {})
    planned = sum(d.stats["planned"] for d in drivers)
    completed = sum(d.stats["completed"] for d in drivers)
    return {
        "workers": workers,
        "clients": clients,
        "planned": planned,
        "completed": completed,
        "accesses_per_s": completed / elapsed if elapsed > 0 else 0.0,
        "p50_ms": _percentile(latencies, 0.50),
        "p99_ms": _percentile(latencies, 0.99),
        "silent_corruptions": serve.get("silent_corruptions", 0),
        "audit_failures": serve.get("audit_failures", 0),
        "drained_clean": drain.get("drained_clean", 0),
        "elapsed_s": elapsed,
    }


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
    blip_limit: float = 8.0,
    settle_s: float = 0.02,
    recovery_timeout: float = 60.0,
    tune_policy: str = "",
    progress=None,
) -> ClusterCampaignReport:
    """Run the full kill-under-load campaign; see the module docstring."""
    # Killed peers make asyncio's transports log "socket.send() raised
    # exception." per dead socket — expected collateral here, and noise
    # that would drown the campaign's own output.
    logging.getLogger("asyncio").setLevel(logging.ERROR)
    started = time.perf_counter()
    config = ClusterConfig(
        workers=workers,
        heartbeat_interval=heartbeat_interval,
        # Sessions concentrate onto survivors as the storm goes on; any
        # single worker must be able to hold every tag.
        max_sessions=clients + 8,
        # Drain audits every resident session, so the deadline must
        # scale with the client count (256-client soaks overrun the
        # 30s spawn default on a single core).
        drain_timeout=max(30.0, clients * 0.75),
        tune_policy=tune_policy,
    )
    service = ClusterService(config)
    host, port = await service.start()
    injector = WorkerFaultInjector(
        seed, slow_stall_ms=heartbeat_interval * 8000.0
    )
    drivers = [
        _Driver(i, client_tag(seed, i), host, port, benchmark, window)
        for i in range(clients)
    ]
    report = ClusterCampaignReport(workers=workers, clients=clients)
    try:
        # -- Phase A: baseline tail, no faults -------------------------
        baseline_latencies: List[float] = []
        await asyncio.gather(
            *(d.run_batch(baseline_accesses, baseline_latencies) for d in drivers)
        )
        report.baseline_p99_ms = _percentile(baseline_latencies, 0.99)
        if progress is not None:
            progress("baseline", 0, kills)

        # -- Phase B: kill storm under continuous load ------------------
        kill_latencies: List[float] = []
        storm_done = asyncio.Event()

        async def _load_loop(driver: _Driver) -> None:
            while not storm_done.is_set():
                await driver.run_batch(batch_accesses, kill_latencies)

        load_tasks = [
            asyncio.get_running_loop().create_task(_load_loop(d))
            for d in drivers
        ]
        try:
            report.kills = await _kill_storm(
                service, injector, kills, settle_s, recovery_timeout
            )
        finally:
            storm_done.set()
        if progress is not None:
            progress("storm", report.kills, kills)
        # Let every driver finish its current batch (completion is the
        # invariant; an abandoned half-batch would hide lost work).
        await asyncio.gather(*load_tasks)
        report.kill_p99_ms = _percentile(kill_latencies, 0.99)
    finally:
        drain = await service.drain()
    report.drain_report = drain

    # -- Roll up -------------------------------------------------------
    report.kills_sigkill = injector.stats["sigkill"]
    report.kills_hang = injector.stats["hang"]
    report.kills_slow = injector.stats["slow"]
    report.recoveries = service.recoveries
    supervisor = drain.get("supervisor", {})
    report.sessions_failed_over = supervisor.get("sessions_failed_over", 0)
    report.sessions_adopted = supervisor.get("sessions_adopted", 0)
    workers_stats = drain.get("workers", {})
    report.adoption_conflicts = workers_stats.get("adoption_conflicts", 0)
    for driver in drivers:
        report.planned += driver.stats["planned"]
        report.completed += driver.stats["completed"]
        report.frames += driver.stats["frames"]
        report.nacks += driver.stats["nacks"]
        report.crc_errors += driver.stats["crc_errors"]
        report.reconnects += driver.stats["reconnects"]
        report.rejected_opens += driver.stats["rejected_opens"]
        report.resumed_opens += driver.stats["resumed"]
        report.rebuilt_opens += driver.stats["rebuilt"]
        report.lost_sessions += driver.stats["lost_sessions"]
    serve = drain.get("serve", {})
    report.silent_corruptions = serve.get("silent_corruptions", 0)
    report.audit_failures = serve.get("audit_failures", 0)
    report.drained_clean = drain.get("drained_clean", 0)
    shipping = drain.get("shipping", {})
    report.seeds_shipped = shipping.get("seeds", 0)
    report.store_writes_shipped = shipping.get("store_writes_shipped", 0)
    report.integrity_failures = drain.get("standby", {}).get(
        "integrity_failures", 0
    )
    if report.baseline_p99_ms > 0:
        report.p99_blip = report.kill_p99_ms / report.baseline_p99_ms
    report.p99_blip_bounded = int(
        report.p99_blip < blip_limit or report.kill_p99_ms == 0.0
    )
    report.elapsed_s = time.perf_counter() - started
    return report
