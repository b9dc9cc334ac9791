"""Load generator: N concurrent clients replaying trace streams.

Every served client in the package is a :class:`Driver`: this load
generator, the cluster scaling sweep and both kill campaigns
(:mod:`repro.serve.campaign`). A driver owns one session tag and
replays a deterministic :class:`~repro.trace.stream.WorkloadModel`
access stream in batches (distinct ``stream_id`` per client and batch,
per-client tag derived from the seed) with pipelined in-flight
accesses. It reaches its service through a connect factory
(:func:`connector`: in-process memory pipes or TCP). When the
connection drops or the open is refused, it reopens by tag with its
last progress and resumes the batch from its holes, so a worker death
under a cluster costs a reconnect, not the batch.

The report rolls up the client-side view — completions, verified
frames, NACK/retransmit traffic, observed backpressure, tail latency —
and, when the loadgen hosts the service itself, the server's drain
report and audit verdict.

``main()`` is the ``repro-loadgen`` console entry point.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional

from repro.serve.client import CLIENT_STATS, RemoteClient, SessionRejected
from repro.serve.server import LinkService
from repro.serve.session import ServeConfig
from repro.trace.stream import WorkloadModel

#: Reconnect backoff while a tag is frozen or a worker is mid-recovery.
RETRY_SLEEP_S = 0.05

#: A batch that cannot get its session back for this long is abandoned:
#: the service is refusing the tag for good (session cap, shutdown),
#: not recovering it. A cluster recovery unfreezes a tag well inside it.
GIVE_UP_S = 60.0

#: Counters a :class:`Driver` keeps on top of its clients' own.
DRIVER_STATS = (
    "planned",
    "reconnects",
    "rejected_opens",
    "resumed",
    "rebuilt",
    "lost_sessions",
)

Connect = Callable[[], Awaitable[RemoteClient]]


def client_tag(seed: int, client_index: int) -> int:
    """Deterministic per-client tag, independent of connection order."""
    return (seed ^ (client_index * 0x9E3779B1) ^ 0xC3) & 0xFFFFFFFF


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[rank]


def connector(
    service: Optional[LinkService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Connect:
    """A connect factory: memory pipes into *service* when given, else
    TCP to ``host:port``."""
    if service is not None:

        async def connect() -> RemoteClient:
            return RemoteClient(*service.connect_memory())

    else:

        async def connect() -> RemoteClient:
            return await RemoteClient.connect_tcp(host, port)

    return connect


class Driver:
    """One reconnect-resilient client: completes access batches by tag.

    ``stats`` sums every :data:`~repro.serve.client.CLIENT_STATS`
    counter over all its connections, plus :data:`DRIVER_STATS`. A
    reopen that comes back as a *fresh* session after earlier progress
    counts as a ``lost_session``: the tag's state is gone, the failure
    replication exists to rule out.
    """

    def __init__(
        self,
        index: int,
        tag: int,
        connect: Connect,
        benchmark: str = "gcc",
        window: int = 8,
        keep: bool = True,
    ) -> None:
        self.index = index
        self.tag = tag
        self.connect = connect
        self.benchmark = benchmark
        self.window = window
        #: BYE with keep once the last batch is done (a mid-batch close
        #: always keeps: a resume follows).
        self.keep = keep
        self.progress = (0, 0)
        self.had_progress = False
        self.batches = 0
        self.latencies_ms: List[float] = []
        self.stats = dict.fromkeys(CLIENT_STATS + DRIVER_STATS, 0)

    async def run_batch(self, accesses: int) -> None:
        """Drive one batch to completion, reopening by tag whenever
        the connection drops or the open is refused. The batch ends
        short only when the service announced DRAIN or refused the tag
        for :data:`GIVE_UP_S`."""
        workload = WorkloadModel(self.benchmark, seed=self.tag)
        # Distinct stream per batch keeps the address stream moving
        # instead of replaying one prefix forever.
        stream_id = self.index + self.batches * 4096
        self.batches += 1
        plan = list(workload.accesses(accesses, stream_id=stream_id))
        self.stats["planned"] += len(plan)
        remaining = list(range(len(plan)))
        loop = asyncio.get_running_loop()
        give_up = loop.time() + GIVE_UP_S
        while True:
            client = await self._open()
            if client is not None:
                try:
                    await client.run([plan[i] for i in remaining], self.window)
                except (ConnectionError, OSError):
                    pass
                for key, value in client.stats.items():
                    self.stats[key] += value
                self.latencies_ms.extend(client.latencies_ms)
                self.progress = client.progress
                self.had_progress = True
                remaining = [
                    i
                    for j, i in enumerate(remaining)
                    if j not in client.completed_indices
                ]
                with contextlib.suppress(Exception):
                    await client.close(keep=self.keep or bool(remaining))
                if not remaining or client.draining:
                    return
                # Mid-batch drop: the owning worker died or drained.
                self.stats["reconnects"] += 1
                give_up = loop.time() + GIVE_UP_S
            elif loop.time() > give_up:
                return
            await asyncio.sleep(RETRY_SLEEP_S)

    async def _open(self) -> Optional[RemoteClient]:
        try:
            client = await self.connect()
        except OSError:
            return None
        try:
            opened = await client.open(0, self.tag, *self.progress)
        except SessionRejected:
            # Frozen tag (recovery in flight), a router refusal, a
            # worker that vanished mid-handshake, or the previous
            # connection's BYE not yet processed: back off and retry.
            self.stats["rejected_opens"] += 1
            with contextlib.suppress(Exception):
                await client.close(keep=False)
            return None
        if opened.resumed:
            self.stats["resumed"] += 1
            if opened.rebuilt:
                self.stats["rebuilt"] += 1
        elif self.had_progress:
            self.stats["lost_sessions"] += 1
        return client


def drivers_for(
    clients: int,
    seed: int,
    connect: Connect,
    benchmark: str = "gcc",
    window: int = 8,
    keep: bool = True,
) -> List[Driver]:
    """*clients* drivers with the seed's deterministic tags."""
    return [
        Driver(i, client_tag(seed, i), connect, benchmark, window, keep)
        for i in range(clients)
    ]


def driver_totals(drivers: List[Driver]) -> Dict[str, int]:
    """Every driver counter summed over *drivers*."""
    return {
        key: sum(driver.stats[key] for driver in drivers)
        for key in CLIENT_STATS + DRIVER_STATS
    }


async def run_phase(
    drivers: List[Driver],
    accesses: int,
    until: Optional[Awaitable] = None,
) -> List[float]:
    """Run one load phase; returns the latencies it recorded.

    Every driver completes one batch of *accesses*. With *until*, each
    driver instead runs batches back to back until *until* finishes,
    then completes the batch in hand: an abandoned half-batch would
    hide lost work.
    """
    marks = [len(driver.latencies_ms) for driver in drivers]
    if until is None:
        await asyncio.gather(*(d.run_batch(accesses) for d in drivers))
    else:
        done = asyncio.Event()

        async def load(driver: Driver) -> None:
            while not done.is_set():
                await driver.run_batch(accesses)

        tasks = [asyncio.ensure_future(load(d)) for d in drivers]
        try:
            await until
        finally:
            done.set()
        await asyncio.gather(*tasks)
    return [
        ms
        for driver, mark in zip(drivers, marks)
        for ms in driver.latencies_ms[mark:]
    ]


@dataclass
class LoadgenReport:
    """Roll-up of one load-generator run."""

    clients: int = 0
    accesses: int = 0
    completed: int = 0
    frames: int = 0
    nacks: int = 0
    crc_errors: int = 0
    backpressure: int = 0
    retransmits: int = 0
    silent_corruptions: int = 0
    link_failures: int = 0
    sessions_peak: int = 0
    rejected_opens: int = 0
    elapsed_s: float = 0.0
    lines_per_s: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    audit_ok: bool = True
    drained_clean: bool = True
    drain_report: Dict[str, int] = field(default_factory=dict)
    #: One row per client: its share of the fault traffic (NACKs,
    #: RETRY backpressure, CRC rejects) and its own latency tail —
    #: aggregate percentiles hide a single client stuck behind a
    #: degraded session.
    per_client: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every access completed, nothing escaped the checkers."""
        return (
            self.completed == self.accesses
            and self.silent_corruptions == 0
            and self.audit_ok
            and self.drained_clean
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            key: getattr(self, key)
            for key in self.__dataclass_fields__
            if key not in ("drain_report", "per_client")
        }


async def drain_into(report: LoadgenReport, service: LinkService) -> LoadgenReport:
    """Drain and stop a self-hosted *service* and fold its side of the
    run into *report*: session peak, refused opens, retransmits,
    escapes, the audit verdict and the drain report itself."""
    drain = await service.drain()
    await service.stop()
    report.drain_report = drain
    report.sessions_peak = service.manager.stats["peak_sessions"]
    report.rejected_opens = service.manager.stats["rejected_opens"]
    report.retransmits = drain["retransmits"]
    report.silent_corruptions = drain["silent_corruptions"]
    report.audit_ok = drain["audit_failures"] == 0
    report.drained_clean = bool(drain["drained_clean"])
    return report


async def run_loadgen(
    clients: int = 4,
    accesses: int = 64,
    benchmark: str = "gcc",
    seed: int = 0xCAB1E,
    window: int = 8,
    service: Optional[LinkService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    keep_sessions: bool = True,
) -> LoadgenReport:
    """Replay one batch of *accesses* from each of *clients* drivers.

    Pass ``service`` to run over in-process memory pipes and drain the
    service at the end; otherwise connect to ``host:port`` over TCP (no
    drain — the server owns its own lifecycle). ``keep_sessions``
    controls the final BYE: keeping them lets a later drain audit
    every session.
    """
    drivers = drivers_for(
        clients, seed, connector(service, host, port), benchmark, window,
        keep_sessions,
    )
    started = time.perf_counter()
    latencies = await run_phase(drivers, accesses)
    elapsed = time.perf_counter() - started

    totals = driver_totals(drivers)
    report = LoadgenReport(
        clients=clients,
        accesses=totals["planned"],
        elapsed_s=elapsed,
        lines_per_s=totals["completed"] / elapsed if elapsed > 0 else 0.0,
        p50_ms=_percentile(latencies, 0.50),
        p99_ms=_percentile(latencies, 0.99),
        **{
            key: totals[key]
            for key in ("completed", "frames", "nacks", "crc_errors",
                        "backpressure", "link_failures")
        },
    )
    report.per_client = [
        {
            "client": driver.index,
            "tag": driver.tag,
            **driver.stats,
            "p50_ms": _percentile(driver.latencies_ms, 0.50),
            "p99_ms": _percentile(driver.latencies_ms, 0.99),
        }
        for driver in drivers
    ]
    if service is not None:
        await drain_into(report, service)
    return report


async def _loadgen_main(args: argparse.Namespace) -> int:
    from repro.fault.plan import FaultPlan

    service: Optional[LinkService] = None
    host, port = args.host, args.port
    if args.memory or args.serve:
        faults = None
        if args.fault_rate > 0:
            faults = FaultPlan.uniform(args.fault_rate, seed=args.seed)
        tuning = None
        if args.adaptive:
            from repro.tune.plan import TuningPlan

            # Schedule scaled to the campaign length so short smoke
            # runs still complete a handful of epochs per session.
            tuning = TuningPlan(
                policy=args.adaptive,
                seed=args.seed,
                warmup_accesses=max(8, args.accesses // 4),
                hold_accesses=max(8, args.accesses // 8),
            )
        config = ServeConfig(
            queue_depth=args.queue_depth,
            faults=faults,
            max_sessions=max(64, args.clients),
            tuning=tuning,
        )
        service = LinkService(config)
        if args.serve:
            # Self-hosted TCP on an ephemeral localhost port: the full
            # socket path in one process, no external server needed.
            host, port = await service.start_tcp()
            print(f"self-hosted service on {host}:{port}", flush=True)
    use_memory = service is not None and not args.serve
    report = await run_loadgen(
        clients=args.clients,
        accesses=args.accesses,
        benchmark=args.benchmark,
        seed=args.seed,
        window=args.window,
        service=service if use_memory else None,
        host=host,
        port=port,
        keep_sessions=service is not None,
    )
    if service is not None and not use_memory:
        await drain_into(report, service)
    for key, value in report.as_dict().items():
        if isinstance(value, float):
            value = f"{value:.3f}"
        print(f"{key}: {value}")
    if args.per_client:
        columns = (
            "client", "completed", "nacks", "crc_errors",
            "backpressure", "retries", "p50_ms", "p99_ms",
        )
        print(" ".join(f"{name:>12}" for name in columns))
        for row in report.per_client:
            cells = [
                f"{row[name]:>12.3f}"
                if isinstance(row[name], float)
                else f"{row[name]:>12}"
                for name in columns
            ]
            print(" ".join(cells))
    if args.obs_snapshot:
        from repro.obs.registry import METRICS

        with open(args.obs_snapshot, "w", encoding="utf-8") as handle:
            json.dump(METRICS.snapshot(), handle, indent=2, sort_keys=True)
        print(f"observability snapshot written to {args.obs_snapshot}")
    if args.json:
        payload = dict(report.as_dict())
        payload["ok"] = report.ok
        target = sys.stdout if args.json == "-" else open(
            args.json, "w", encoding="utf-8"
        )
        try:
            json.dump(payload, target, indent=2, sort_keys=True)
            target.write("\n")
        finally:
            if target is not sys.stdout:
                target.close()
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Replay trace streams against a CABLE link service "
        "from N concurrent clients.",
    )
    target = parser.add_mutually_exclusive_group()
    target.add_argument(
        "--serve",
        action="store_true",
        help="self-host the service on an ephemeral localhost TCP port",
    )
    target.add_argument(
        "--memory",
        action="store_true",
        help="self-host over in-process memory pipes (no sockets)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="server TCP port; required unless self-hosting "
        "(--serve/--memory bind ephemerally)",
    )
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--accesses", type=int, default=64)
    parser.add_argument("--benchmark", default="gcc")
    parser.add_argument("--seed", type=int, default=0xCAB1E)
    parser.add_argument("--window", type=int, default=8)
    parser.add_argument("--queue-depth", type=int, default=32)
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="self-hosted only: arm wire fault injection at this rate",
    )
    parser.add_argument(
        "--adaptive",
        nargs="?",
        const="ucb1",
        default=None,
        choices=("epsilon", "ucb1", "onoff"),
        help="self-hosted only: per-session online knob tuning with "
        "this bandit policy (bare flag = ucb1)",
    )
    parser.add_argument(
        "--per-client",
        action="store_true",
        help="print a per-client breakdown (NACKs, backpressure, tail)",
    )
    parser.add_argument(
        "--obs-snapshot",
        default="",
        help="write a METRICS.snapshot() JSON dump to this path",
    )
    parser.add_argument(
        "--json",
        default="",
        help="write the loadgen report as JSON to this path ('-' = stdout)",
    )
    args = parser.parse_args(argv)
    if not (args.serve or args.memory) and args.port == 0:
        parser.error(
            "connecting to an external server requires --port "
            "(or self-host with --serve/--memory)"
        )
    return asyncio.run(_loadgen_main(args))


if __name__ == "__main__":
    sys.exit(main())
