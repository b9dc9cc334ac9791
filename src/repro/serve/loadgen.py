"""Load generator: N concurrent clients replaying trace streams.

Each client owns one session and replays a deterministic
:class:`~repro.trace.stream.WorkloadModel` access stream (distinct
``stream_id`` per client, per-client tag derived from the seed) with
pipelined in-flight accesses. The report rolls up the client-side
view — completions, verified frames, NACK/retransmit traffic,
observed backpressure, tail latency — and, when the loadgen hosts the
service itself, the server's drain report and audit verdict.

``main()`` is the ``repro-loadgen`` console entry point.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.serve.client import RemoteClient, SessionRejected
from repro.serve.server import LinkService
from repro.serve.session import ServeConfig
from repro.trace.stream import WorkloadModel


def client_tag(seed: int, client_index: int) -> int:
    """Deterministic per-client tag, independent of connection order."""
    return (seed ^ (client_index * 0x9E3779B1) ^ 0xC3) & 0xFFFFFFFF


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[rank]


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
            for key in (
                "clients", "accesses", "completed", "frames", "nacks",
                "crc_errors", "backpressure", "retransmits",
                "silent_corruptions", "link_failures", "sessions_peak",
                "rejected_opens", "elapsed_s", "lines_per_s",
                "p50_ms", "p99_ms", "audit_ok", "drained_clean",
            )
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


async def _drive_client(
    service: Optional[LinkService],
    host: str,
    port: int,
    tag: int,
    stream_id: int,
    benchmark: str,
    accesses: int,
    window: int,
    keep: bool,
) -> RemoteClient:
    workload = WorkloadModel(benchmark, seed=tag)
    stream = list(workload.accesses(accesses, stream_id=stream_id))
    if service is not None:
        reader, writer = service.connect_memory()
        client = RemoteClient(reader, writer)
    else:
        client = await RemoteClient.connect_tcp(host, port)
    try:
        await client.open(client_tag=tag)
        await client.run(stream, window=window)
        # keep=True leaves the session resumable server-side, so a
        # subsequent drain still sees (and audits) every session.
        await client.close(keep=keep)
    except SessionRejected:
        await client.close(keep=False)
    return client


async def run_loadgen(
    clients: int = 4,
    accesses: int = 64,
    benchmark: str = "gcc",
    seed: int = 0xCAB1E,
    window: int = 8,
    service: Optional[LinkService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    drain_service: Optional[bool] = None,
    keep_sessions: Optional[bool] = None,
) -> LoadgenReport:
    """Replay *accesses* per client from *clients* concurrent sessions.

    Pass ``service`` to run over in-process memory pipes (the service
    is drained at the end unless ``drain_service=False``); otherwise
    connect to ``host:port`` over TCP (no drain — the server owns its
    own lifecycle). ``keep_sessions`` controls the BYE: keeping them
    lets a later drain audit every session (the default whenever this
    call, or the caller, is about to drain a self-hosted service).
    """
    if drain_service is None:
        drain_service = service is not None
    if keep_sessions is None:
        keep_sessions = drain_service
    started = time.perf_counter()
    done = await asyncio.gather(
        *(
            _drive_client(
                service, host, port,
                tag=client_tag(seed, i),
                stream_id=i,
                benchmark=benchmark,
                accesses=accesses,
                window=window,
                keep=keep_sessions,
            )
            for i in range(clients)
        )
    )
    elapsed = time.perf_counter() - started

    report = LoadgenReport(clients=clients, accesses=clients * accesses)
    latencies: List[float] = []
    for i, client in enumerate(done):
        report.completed += client.stats["completed"]
        report.frames += client.stats["frames"]
        report.nacks += client.stats["nacks"]
        report.crc_errors += client.stats["crc_errors"]
        report.backpressure += client.stats["backpressure"]
        report.link_failures += client.stats["link_failures"]
        latencies.extend(client.latencies_ms)
        report.per_client.append(
            {
                "client": i,
                "tag": client_tag(seed, i),
                "completed": client.stats["completed"],
                "nacks": client.stats["nacks"],
                "crc_errors": client.stats["crc_errors"],
                "backpressure": client.stats["backpressure"],
                "retries": client.stats["retries"],
                "p50_ms": _percentile(client.latencies_ms, 0.50),
                "p99_ms": _percentile(client.latencies_ms, 0.99),
            }
        )
    report.elapsed_s = elapsed
    report.lines_per_s = report.completed / elapsed if elapsed > 0 else 0.0
    report.p50_ms = _percentile(latencies, 0.50)
    report.p99_ms = _percentile(latencies, 0.99)

    if service is not None and drain_service:
        await drain_into(report, service)
    elif service is not None:
        report.sessions_peak = service.manager.stats["peak_sessions"]
        report.rejected_opens = service.manager.stats["rejected_opens"]
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
