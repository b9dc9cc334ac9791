"""Shard supervisor: spawns, watches, and recovers cluster workers.

The supervisor owns the topology that the workers refuse to know:

- it spawns N worker processes (``python -m repro.serve.cluster.worker``)
  and collects their READY reports (bound serve + replica ports);
- it places them on the consistent-hash ring and assigns each worker a
  **buddy** — the next alive worker in sorted-id cyclic order — telling
  every worker where to mirror its session stores;
- it runs the failure detector over the control connections: process
  exit (``poll()``), heartbeat silence past ``miss_threshold``
  intervals (hang), and a smoothed heartbeat gap past ``slow_factor``
  intervals (byzantine-slow);
- it drives recovery when the detector fires, in one serialized
  sequence per victim::

      freeze victim's tags → ensure the process is dead → PROMOTE on
      the buddy → await PROMOTED → reassign tags to the buddy and
      unfreeze → recompute/broadcast buddies → respawn a replacement

  Freezing first is what makes the promotion race-free: the router
  refuses frozen tags, so a reconnecting client cannot land the tag on
  a second worker while the buddy is still adopting it. The client's
  retry loop then rides the normal HELLO/EPOCH resync path once the
  reassignment lands.

Single-failure tolerance, stated honestly: a victim's sessions survive
because their stores were shipped to the buddy *before* the death.
If the buddy is killed inside the recovery window (double fault), the
stores die with it and those sessions restart fresh — the campaign
serializes kills against in-flight recoveries for exactly this reason,
and the report counts any fresh restart as a ``lost_session``.

``main()`` is the ``repro-cluster`` console entry point.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.link.wire import FrameDecoder
from repro.obs.registry import METRICS, merge_snapshots
from repro.serve.cluster.config import ClusterConfig
from repro.serve.cluster.proto import (
    CTRL,
    CTRL_MAX_FRAME_BYTES,
    decode_ctrl,
    encode_ctrl,
)
from repro.serve.cluster.ring import HashRing, SessionDirectory
from repro.serve.cluster.router import FrontRouter
from repro.serve.transport import READ_CHUNK, StreamSender

_CTR_RECOVERIES = METRICS.counter("cluster.recoveries")
_CTR_RESPAWNS = METRICS.counter("cluster.respawns")
_CTR_FAILED_OVER = METRICS.counter("cluster.sessions_failed_over")
_GAUGE_WORKERS = METRICS.gauge("cluster.alive_workers")


class WorkerHandle:
    """Supervisor-side record of one worker process."""

    __slots__ = (
        "worker_id",
        "proc",
        "sender",
        "serve_port",
        "replica_port",
        "pid",
        "state",
        "ready_event",
        "drained_event",
        "drain_payload",
        "last_beat",
        "gap_ewma",
        "beats",
    )

    def __init__(self, worker_id: int, proc: subprocess.Popen) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.sender: Optional[StreamSender] = None
        self.serve_port = 0
        self.replica_port = 0
        self.pid = proc.pid
        #: spawning → ready → dead | drained
        self.state = "spawning"
        self.ready_event = asyncio.Event()
        self.drained_event = asyncio.Event()
        self.drain_payload: Optional[dict] = None
        self.last_beat = 0.0
        self.gap_ewma = 0.0
        self.beats = 0

    def send(self, message: dict) -> None:
        if self.sender is not None:
            self.sender.send(encode_ctrl(message))
            self.sender.flush()


class ClusterService:
    """A supervised, sharded link-service cluster on one machine."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.directory = SessionDirectory(HashRing(self.config.vnodes))
        self.workers: Dict[int, WorkerHandle] = {}
        self.buddies: Dict[int, int] = {}
        #: worker → the buddy it last *confirmed* rebinding to. This is
        #: where its shadows actually live; ``buddies`` is only where we
        #: have told it to ship next. Promotion must follow the
        #: confirmed map — a hung worker never processes a new BUDDY,
        #: and a freshly designated buddy holds nothing yet.
        self.shipping_to: Dict[int, int] = {}
        self.router = FrontRouter(self._resolve)
        self.router_host = self.config.host
        self.router_port = 0
        self.control_port = 0
        self._next_id = 0
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._recovery_lock = asyncio.Lock()
        self._recovered_cond: Optional[asyncio.Condition] = None
        self._promotions: Dict[Tuple[int, int], asyncio.Future] = {}
        #: Workers told to rebind shipping, ack still outstanding. A
        #: worker in here may not have re-seeded its sessions yet —
        #: killing it now is the double-fault the design excludes.
        self._pending_rebinds: set = set()
        self._tasks: set = set()
        self._draining = False
        self.recoveries = 0
        self.stats = {
            "workers_spawned": 0,
            "recoveries_crash": 0,
            "recoveries_hang": 0,
            "recoveries_slow": 0,
            "sessions_failed_over": 0,
            "sessions_adopted": 0,
            "sessions_lost_no_buddy": 0,
            "promote_timeouts": 0,
            "buddy_rewires": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bring up control plane, router, and the initial workers;
        returns the client-facing (host, port)."""
        self._recovered_cond = asyncio.Condition()
        self._control_server = await asyncio.start_server(
            self._handle_control, self.config.host, self.config.control_port
        )
        self.control_port = self._control_server.sockets[0].getsockname()[1]
        self.router_host, self.router_port = await self.router.start(
            self.config.host, self.config.router_port
        )
        for _ in range(self.config.workers):
            self._spawn_worker()
        await self._await_ready(list(self.workers.values()))
        return self.router_host, self.router_port

    async def _await_ready(self, handles: List[WorkerHandle]) -> None:
        waits = [h.ready_event.wait() for h in handles]
        try:
            await asyncio.wait_for(
                asyncio.gather(*waits), self.config.spawn_timeout
            )
        except asyncio.TimeoutError:
            missing = [h.worker_id for h in handles if not h.ready_event.is_set()]
            raise RuntimeError(f"workers never reported ready: {missing}")
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor_loop()
        )

    def _spawn_worker(self) -> WorkerHandle:
        worker_id = self._next_id
        self._next_id += 1
        src_root = os.path.dirname(
            os.path.dirname(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            )
        )
        env = os.environ.copy()
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [
            sys.executable,
            "-m",
            "repro.serve.cluster.worker",
            "--worker-id",
            str(worker_id),
            "--control-host",
            self.config.host,
            "--control-port",
            str(self.control_port),
            "--host",
            self.config.host,
            "--heartbeat",
            str(self.config.heartbeat_interval),
            "--max-sessions",
            str(self.config.max_sessions),
            "--queue-depth",
            str(self.config.queue_depth),
        ]
        if self.config.tune_policy:
            cmd += ["--tune", self.config.tune_policy]
        stdout = None if self.config.verbose else subprocess.DEVNULL
        proc = subprocess.Popen(cmd, env=env, stdout=stdout)
        handle = WorkerHandle(worker_id, proc)
        self.workers[worker_id] = handle
        self.stats["workers_spawned"] += 1
        return handle

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    async def _handle_control(self, reader, writer) -> None:
        decoder = FrameDecoder(max_frame_bytes=CTRL_MAX_FRAME_BYTES)
        handle: Optional[WorkerHandle] = None
        try:
            while True:
                chunk = await reader.read(READ_CHUNK)
                if not chunk:
                    break
                records = decoder.feed(chunk)
                for channel, payload, _bits in records:
                    if channel != CTRL:
                        continue
                    message = decode_ctrl(payload)
                    handle = self._dispatch_ctrl(message, handle, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
            # Control EOF from a live worker means the process died —
            # faster signal than the next monitor tick.
            if (
                handle is not None
                and handle.state == "ready"
                and not self._draining
            ):
                self._schedule(self.recover(handle.worker_id, "crash"))

    def _dispatch_ctrl(
        self, message: dict, handle: Optional[WorkerHandle], writer
    ) -> Optional[WorkerHandle]:
        kind = message.get("kind")
        if kind == "ready":
            handle = self.workers.get(int(message["worker"]))
            if handle is None:
                return None
            handle.sender = StreamSender(writer)
            handle.serve_port = int(message["serve_port"])
            handle.replica_port = int(message["replica_port"])
            handle.pid = int(message.get("pid", handle.pid))
            handle.state = "ready"
            handle.last_beat = time.monotonic()
            handle.gap_ewma = self.config.heartbeat_interval
            self.directory.ring.add(handle.worker_id)
            self._recompute_buddies()
            self._publish_alive()
            handle.ready_event.set()
            return handle
        if handle is None:
            return None
        if kind == "heartbeat":
            now = time.monotonic()
            gap = now - handle.last_beat
            handle.last_beat = now
            handle.beats += 1
            handle.gap_ewma = 0.75 * handle.gap_ewma + 0.25 * gap
        elif kind == "promoted":
            key = (handle.worker_id, int(message["victim"]))
            future = self._promotions.get(key)
            if future is not None and not future.done():
                future.set_result(int(message["adopted"]))
        elif kind == "rebound":
            self._pending_rebinds.discard(handle.worker_id)
            if message.get("ok"):
                self.shipping_to[handle.worker_id] = int(message["peer"])
            else:
                # The rebind failed (target died under the dial); the
                # worker now ships nowhere. Drop the designation so the
                # next recompute re-sends a BUDDY.
                self.buddies.pop(handle.worker_id, None)
                self._recompute_buddies()
        elif kind == "drained":
            handle.drain_payload = message
            handle.state = "drained"
            handle.drained_event.set()
        return handle

    def _schedule(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _publish_alive(self) -> None:
        if METRICS.enabled:
            _GAUGE_WORKERS.set(len(self._alive()))

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def _alive(self) -> List[WorkerHandle]:
        return sorted(
            (h for h in self.workers.values() if h.state == "ready"),
            key=lambda h: h.worker_id,
        )

    def alive_ids(self) -> List[int]:
        return [h.worker_id for h in self._alive()]

    def _resolve(self, tag: int) -> Tuple[str, int]:
        worker_id = self.directory.lookup(tag)
        handle = self.workers.get(worker_id)
        if handle is None or handle.state != "ready":
            raise LookupError(f"worker {worker_id} is not serving")
        return self.config.host, handle.serve_port

    def _recompute_buddies(self) -> None:
        """Next-alive-in-cyclic-order buddy map; pushes BUDDY to every
        worker whose shipping target changed."""
        alive = self._alive()
        updated: Dict[int, int] = {}
        if len(alive) >= 2:
            for index, handle in enumerate(alive):
                buddy = alive[(index + 1) % len(alive)]
                updated[handle.worker_id] = buddy.worker_id
        for handle in alive:
            target = updated.get(handle.worker_id)
            if target is None or target == self.buddies.get(handle.worker_id):
                continue
            buddy = self.workers[target]
            handle.send(
                {
                    "kind": "buddy",
                    "peer": target,
                    "host": self.config.host,
                    "port": buddy.replica_port,
                }
            )
            self._pending_rebinds.add(handle.worker_id)
            self.stats["buddy_rewires"] += 1
        self.buddies = updated

    def pending_rebinds(self) -> int:
        """Workers still mid-rebind (their sessions are not yet safely
        re-seeded on their new buddy). Dead workers drop out."""
        self._pending_rebinds = {
            worker_id
            for worker_id in self._pending_rebinds
            if self.workers.get(worker_id) is not None
            and self.workers[worker_id].state == "ready"
        }
        return len(self._pending_rebinds)

    # ------------------------------------------------------------------
    # Failure detection + recovery
    # ------------------------------------------------------------------

    async def _monitor_loop(self) -> None:
        interval = self.config.heartbeat_interval
        while not self._draining:
            await asyncio.sleep(interval / 2)
            now = time.monotonic()
            for handle in self._alive():
                cause = self._diagnose(handle, now, interval)
                if cause is not None:
                    self._schedule(self.recover(handle.worker_id, cause))

    def _diagnose(
        self, handle: WorkerHandle, now: float, interval: float
    ) -> Optional[str]:
        if handle.proc.poll() is not None:
            return "crash"
        if now - handle.last_beat > self.config.miss_threshold * interval:
            return "hang"
        if (
            handle.beats >= self.config.slow_grace_beats
            and handle.gap_ewma > self.config.slow_factor * interval
        ):
            return "slow"
        return None

    @property
    def recovering(self) -> bool:
        return self._recovery_lock.locked()

    async def recover(self, worker_id: int, cause: str) -> None:
        """Serialized recovery of one dead/hung/slow worker."""
        async with self._recovery_lock:
            handle = self.workers.get(worker_id)
            if handle is None or handle.state != "ready" or self._draining:
                return
            handle.state = "dead"
            self.stats[f"recoveries_{cause}"] += 1
            tags = self.directory.tags_of(worker_id)
            self.directory.freeze(tags)
            with contextlib.suppress(Exception):
                handle.proc.kill()
            asyncio.get_running_loop().run_in_executor(None, handle.proc.wait)
            self.directory.ring.remove(worker_id)
            buddy = self._buddy_for_victim(worker_id)
            self.shipping_to.pop(worker_id, None)
            # Rewire shipping away from the victim *before* promoting:
            # the buddy's own ship link may point at the corpse, and its
            # adoption barrier would stall against a dead socket. BUDDY
            # and PROMOTE ride the same control stream, so the worker
            # processes them in this order.
            self._recompute_buddies()
            if buddy is not None:
                adopted = await self._promote_on(buddy, worker_id)
                self.stats["sessions_adopted"] += adopted
                self.directory.reassign(tags, buddy.worker_id)
            else:
                # Whole-cluster loss: nothing holds these shadows.
                # Unfreeze so reconnects at least restart fresh.
                for tag in tags:
                    self.directory.assignments.pop(tag, None)
                    self.directory.frozen.discard(tag)
                self.stats["sessions_lost_no_buddy"] += len(tags)
            self.stats["sessions_failed_over"] += len(tags)
            self._publish_alive()
            if METRICS.enabled:
                _CTR_RECOVERIES.inc()
                _CTR_FAILED_OVER.inc(len(tags))
            if self.config.respawn and not self._draining:
                replacement = self._spawn_worker()
                if METRICS.enabled:
                    _CTR_RESPAWNS.inc()
                # READY will add it to the ring and rewire buddies; no
                # need to block recovery completion on process start.
                del replacement
            self.recoveries += 1
        assert self._recovered_cond is not None
        async with self._recovered_cond:
            self._recovered_cond.notify_all()

    def _buddy_for_victim(self, victim: int) -> Optional[WorkerHandle]:
        # Confirmed shipping target first — that is where the shadows
        # are. The designated buddy is only a fallback (e.g. the victim
        # died before ever confirming a rebind).
        for candidate in (
            self.shipping_to.get(victim),
            self.buddies.get(victim),
        ):
            if candidate is None:
                continue
            handle = self.workers.get(candidate)
            if handle is not None and handle.state == "ready":
                return handle
        alive = self._alive()
        if not alive:
            return None
        for handle in alive:
            if handle.worker_id > victim:
                return handle
        return alive[0]

    async def _promote_on(self, buddy: WorkerHandle, victim: int) -> int:
        key = (buddy.worker_id, victim)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._promotions[key] = future
        buddy.send({"kind": "promote", "victim": victim})
        try:
            return await asyncio.wait_for(future, self.config.promote_timeout)
        except asyncio.TimeoutError:
            self.stats["promote_timeouts"] += 1
            return 0
        finally:
            self._promotions.pop(key, None)

    async def wait_recoveries(self, target: int, timeout: float) -> None:
        """Block until at least *target* recoveries have completed."""
        assert self._recovered_cond is not None
        async with self._recovered_cond:
            await asyncio.wait_for(
                self._recovered_cond.wait_for(
                    lambda: self.recoveries >= target
                ),
                timeout,
            )

    # ------------------------------------------------------------------
    # Fault injection surface (the campaign drives these)
    # ------------------------------------------------------------------

    def kill_worker(self, worker_id: int) -> bool:
        """SIGKILL a worker outright; detection + recovery follow."""
        handle = self.workers.get(worker_id)
        if handle is None or handle.state != "ready":
            return False
        with contextlib.suppress(Exception):
            handle.proc.kill()
        return True

    def hang_worker(self, worker_id: int) -> bool:
        """Tell a worker to stop reading + heartbeating (stays alive)."""
        handle = self.workers.get(worker_id)
        if handle is None or handle.state != "ready":
            return False
        handle.send({"kind": "hang"})
        return True

    def slow_worker(self, worker_id: int, stall_ms: float) -> bool:
        """Tell a worker to stall its loop *stall_ms* every heartbeat."""
        handle = self.workers.get(worker_id)
        if handle is None or handle.state != "ready":
            return False
        handle.send({"kind": "slow", "ms": stall_ms})
        return True

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    async def drain(self) -> dict:
        """Graceful cluster drain: stop routing, drain every worker,
        merge their reports (and obs snapshots) into one roll-up."""
        self._draining = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._monitor_task
        await self.router.stop()
        alive = self._alive()
        for handle in alive:
            handle.send({"kind": "drain"})
        waits = [h.drained_event.wait() for h in alive]
        if waits:
            deadline = self.config.drain_timeout or self.config.spawn_timeout
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(asyncio.gather(*waits), deadline)
        report = self._merge_reports(alive)
        await self._shutdown_processes()
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
            self._control_server = None
        for task in list(self._tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        return report

    async def _shutdown_processes(self) -> None:
        loop = asyncio.get_running_loop()
        for handle in self.workers.values():
            if handle.proc.poll() is None:
                with contextlib.suppress(Exception):
                    handle.proc.kill()
            await loop.run_in_executor(None, handle.proc.wait)

    def _merge_reports(self, drained: List[WorkerHandle]) -> dict:
        serve: Dict[str, int] = {}
        shipping: Dict[str, int] = {}
        standby: Dict[str, int] = {}
        worker_stats: Dict[str, int] = {}
        snapshots = []
        reported = 0
        clean = True
        for handle in drained:
            payload = handle.drain_payload
            if payload is None:
                clean = False  # a worker never answered its drain
                continue
            reported += 1
            for bucket, source in (
                (serve, payload.get("report", {})),
                (shipping, payload.get("shipping", {})),
                (standby, payload.get("standby", {})),
                (worker_stats, payload.get("worker_stats", {})),
            ):
                for key, value in source.items():
                    if not isinstance(value, (int, float)):
                        continue
                    if key.endswith("_peak") or key == "peak_sessions":
                        bucket[key] = max(bucket.get(key, 0), value)
                    else:
                        bucket[key] = bucket.get(key, 0) + value
            if payload.get("obs"):
                snapshots.append(payload["obs"])
        if serve.get("drained_clean", 0) != reported:
            clean = False
        report = {
            "serve": serve,
            "shipping": shipping,
            "standby": standby,
            "workers": worker_stats,
            "supervisor": dict(self.stats),
            "router": dict(self.router.stats),
            "directory": dict(self.directory.stats),
            "recoveries": self.recoveries,
            "workers_reported": reported,
            "drained_clean": int(
                clean and serve.get("silent_corruptions", 0) == 0
            ),
        }
        if snapshots:
            report["obs"] = merge_snapshots(snapshots)
        return report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


async def _cluster_main(args: argparse.Namespace) -> int:
    config = ClusterConfig(
        workers=args.workers,
        host=args.host,
        router_port=args.port,
        heartbeat_interval=args.heartbeat,
        miss_threshold=args.miss_threshold,
        slow_factor=args.slow_factor,
        max_sessions=args.max_sessions,
        verbose=args.verbose,
        tune_policy=args.tune,
    )
    service = ClusterService(config)
    host, port = await service.start()
    print(
        f"repro-cluster routing on {host}:{port} "
        f"({config.workers} workers)",
        flush=True,
    )

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    import signal

    for signame in ("SIGINT", "SIGTERM"):
        with contextlib.suppress(NotImplementedError, AttributeError):
            loop.add_signal_handler(getattr(signal, signame), stop.set)
    if args.duration > 0:
        loop.call_later(args.duration, stop.set)
    await stop.wait()

    report = await service.drain()
    if args.json:
        target = sys.stdout if args.json == "-" else open(args.json, "w")
        try:
            json.dump(report, target, indent=2, sort_keys=True)
            target.write("\n")
        finally:
            if target is not sys.stdout:
                target.close()
    flat = {
        **{f"serve.{k}": v for k, v in sorted(report["serve"].items())},
        "recoveries": report["recoveries"],
        "drained_clean": report["drained_clean"],
    }
    print(
        "drained: " + " ".join(f"{k}={v}" for k, v in flat.items()),
        flush=True,
    )
    return 0 if report["drained_clean"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description=(
            "Shard a CABLE link service across supervised worker "
            "processes with crash-tolerant failover."
        ),
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="router port (0 = ephemeral, printed at startup)",
    )
    parser.add_argument("--heartbeat", type=float, default=0.25)
    parser.add_argument("--miss-threshold", type=int, default=8)
    parser.add_argument("--slow-factor", type=float, default=6.0)
    parser.add_argument("--max-sessions", type=int, default=64)
    parser.add_argument(
        "--tune",
        default="",
        choices=("", "epsilon", "ucb1", "onoff"),
        help="adaptive knob-tuning policy run independently by each worker",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="drain and exit after this many seconds (0 = until SIGINT)",
    )
    parser.add_argument(
        "--json",
        default="",
        help="write the drain report as JSON to this path ('-' = stdout)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    return asyncio.run(_cluster_main(args))


if __name__ == "__main__":
    sys.exit(main())
