"""One cluster worker: a full link service + standby host, supervised.

``python -m repro.serve.cluster.worker`` is what the supervisor
spawns. Each worker process runs:

- a :class:`~repro.serve.server.LinkService` on an ephemeral TCP port
  (its own sessions, its own event loop — crash isolation is the whole
  point of the process boundary);
- a replica server on a second ephemeral port, feeding a
  :class:`~repro.replica.remote.StandbySessionHost` with the session
  stores its siblings ship to it;
- an outbound ship link to its buddy: every session the manager opens
  (or adopts) gets a :class:`~repro.replica.remote.SessionShipper`
  mirroring its backing store down that link, and the link's return
  direction carries the buddy's delivery-barrier echoes;
- a control connection back to the supervisor: READY with the bound
  ports, heartbeats, and the command surface (BUDDY / PROMOTE / DRAIN
  plus the HANG / SLOW fault hooks the kill campaign uses).

The worker deliberately has no opinion about topology: the supervisor
tells it where to ship and when to promote. All it guarantees is that
a PROMOTE is answered only after every promoted session is adopted and
resynced — the supervisor's recovery sequence leans on that ordering.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import sys
import time
from typing import Dict, Optional

from repro.core.errors import SessionAdmissionError, WireDecodeError
from repro.link.wire import FrameDecoder, encode_stream_record
from repro.replica.remote import (
    SHIP_HELLO,
    SHIP_MARK,
    SHIP_MARK_ACK,
    SHIP_MAX_FRAME_BYTES,
    SHIP_STATS,
    SessionShipper,
    StandbySessionHost,
    decode_hello,
    decode_mark,
    encode_hello,
    encode_mark,
)
from repro.obs.registry import METRICS
from repro.serve.cluster.proto import (
    CTRL,
    CTRL_MAX_FRAME_BYTES,
    decode_ctrl,
    encode_ctrl,
)
from repro.serve.server import LinkService
from repro.serve.session import ServeConfig
from repro.serve.transport import READ_CHUNK, StreamSender


class ClusterWorker:
    """Event-loop state of one worker process."""

    def __init__(
        self,
        worker_id: int,
        control_host: str,
        control_port: int,
        config: ServeConfig,
        heartbeat_interval: float = 0.25,
    ) -> None:
        self.worker_id = worker_id
        self.control_host = control_host
        self.control_port = control_port
        self.config = config
        self.heartbeat_interval = heartbeat_interval
        self.service = LinkService(config)
        self.manager = self.service.manager
        self.manager.on_open = self._arm_session
        self.host = StandbySessionHost(config)
        #: client tag → the shipper mirroring that tag's store
        self._shippers: Dict[int, SessionShipper] = {}
        self._ship_sender: Optional[StreamSender] = None
        self._ship_task: Optional[asyncio.Task] = None
        self._replica_tasks: set = set()
        self._mark_seq = 0
        self._mark_acked = -1
        self._mark_event = asyncio.Event()
        self._ctrl: Optional[StreamSender] = None
        self._hang = False
        self._slow_s = 0.0
        self._draining = False
        self._done = asyncio.Event()
        self.stats = {"adopted": 0, "adoption_conflicts": 0, "rebinds": 0}

    # ------------------------------------------------------------------
    # Shipping (outbound, to the buddy)
    # ------------------------------------------------------------------

    def _arm_session(self, session) -> None:
        """Manager hook: a session was opened or adopted — mirror its
        store on the buddy, or re-seed the buddy if already armed."""
        if self._ship_sender is None:
            return
        shipper = self._shippers.get(session.client_tag)
        if shipper is not None and shipper.state is session.state:
            shipper.rebind(self._ship_send)
        else:
            self._shippers[session.client_tag] = SessionShipper(
                session, self._ship_send
            )

    def _ship_send(self, channel: int, payload: bytes) -> None:
        sender = self._ship_sender
        if sender is not None:
            sender.send(
                _frame(channel, payload)
            )

    async def _set_buddy(self, host: str, port: int) -> bool:
        """(Re)point store shipping at a new buddy worker."""
        await self._teardown_ship_link()
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            return False  # buddy died before we dialed; next BUDDY heals
        sender = StreamSender(writer)
        sender.send(_frame(SHIP_HELLO, encode_hello(self.worker_id)))
        self._ship_sender = sender
        self._ship_task = asyncio.get_running_loop().create_task(
            self._ship_read_loop(reader, sender)
        )
        self.stats["rebinds"] += 1
        # Every session seeds the new buddy with its whole store.
        for session in list(self.manager.sessions.values()):
            self._arm_session(session)
        await sender.drain()
        # drain() only waits for the transport's low-water mark; a kill
        # landing now could still eat buffered seeds. The MARK echo
        # proves the buddy actually consumed everything sent so far.
        return await self._ship_barrier()

    async def _ship_barrier(self, timeout: float = 10.0) -> bool:
        """Round-trip a delivery barrier through the buddy; True once
        every record sent before the barrier has been applied there."""
        sender = self._ship_sender
        if sender is None:
            return False
        self._mark_seq += 1
        nonce = self._mark_seq
        self._mark_event.clear()
        sender.send(_frame(SHIP_MARK, encode_mark(nonce)))
        await sender.drain()
        try:
            return await asyncio.wait_for(
                self._wait_mark(nonce, sender), timeout
            )
        except asyncio.TimeoutError:
            return False

    async def _wait_mark(self, nonce: int, sender: StreamSender) -> bool:
        while self._mark_acked < nonce:
            if self._ship_sender is not sender:
                return False  # link died under the barrier; fail fast
            await self._mark_event.wait()
            self._mark_event.clear()
        return True

    async def _teardown_ship_link(self) -> None:
        sender, self._ship_sender = self._ship_sender, None
        if self._ship_task is not None:
            self._ship_task.cancel()
            # The task may already hold a connection error from the old
            # buddy dying — that is the very reason we are rebinding.
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._ship_task
            self._ship_task = None
        if sender is not None:
            with contextlib.suppress(Exception):
                await sender.aclose()

    async def _ship_read_loop(self, reader, sender: StreamSender) -> None:
        """Return direction of the ship link: the buddy's barrier echoes."""
        decoder = FrameDecoder(max_frame_bytes=SHIP_MAX_FRAME_BYTES)
        try:
            while True:
                try:
                    chunk = await reader.read(READ_CHUNK)
                except (ConnectionError, OSError):
                    break  # buddy died; the supervisor will rewire us
                if not chunk:
                    break
                try:
                    records = decoder.feed(chunk)
                except WireDecodeError:
                    break
                for channel, payload, _bits in records:
                    if channel == SHIP_MARK_ACK:
                        self._mark_acked = max(
                            self._mark_acked, decode_mark(payload)
                        )
                        self._mark_event.set()
        finally:
            # Shipping to a corpse helps nobody: drop the sender so new
            # sessions stay unshipped (the next BUDDY re-arms them) and
            # any barrier waiting on this link fails fast instead of
            # timing out.
            if self._ship_sender is sender:
                self._ship_sender = None
                self._mark_event.set()

    # ------------------------------------------------------------------
    # Standby hosting (inbound, from siblings)
    # ------------------------------------------------------------------

    async def _handle_replica_conn(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._replica_tasks.add(task)
        decoder = FrameDecoder(max_frame_bytes=SHIP_MAX_FRAME_BYTES)
        source: Optional[int] = None
        back = StreamSender(writer)
        try:
            while True:
                try:
                    chunk = await reader.read(READ_CHUNK)
                except (ConnectionError, OSError):
                    break  # shipping sibling was killed mid-send
                except asyncio.CancelledError:
                    break  # worker teardown; exit uncancelled so the
                    # streams done-callback has no exception to re-raise
                if not chunk:
                    break
                try:
                    records = decoder.feed(chunk)
                except WireDecodeError:
                    break
                for channel, payload, _bits in records:
                    if channel == SHIP_HELLO:
                        source = decode_hello(payload)
                        # A reconnect re-seeds everything: drop the old
                        # stores so stale ones cannot linger.
                        self.host.reset_source(source)
                        continue
                    if source is None:
                        continue  # pre-HELLO noise
                    if channel == SHIP_MARK:
                        # Echo the barrier: everything the sibling sent
                        # before it has now been applied to our stores.
                        back.send(_frame(SHIP_MARK_ACK, payload))
                        continue
                    self.host.handle_record(source, channel, payload)
                await back.drain()
        except asyncio.CancelledError:
            pass  # teardown while mid-drain; same quiet-exit contract
        finally:
            self._replica_tasks.discard(task)
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await back.aclose()

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def _ctrl_send(self, message: Dict) -> None:
        if self._ctrl is not None:
            self._ctrl.send(encode_ctrl(message))

    async def _heartbeat_loop(self) -> None:
        seq = 0
        while not self._hang and not self._draining:
            if self._slow_s > 0:
                # Byzantine-slow fault: a blocking stall in the event
                # loop, dragging every session this worker hosts.
                time.sleep(self._slow_s)
            self._ctrl_send(
                {
                    "kind": "heartbeat",
                    "worker": self.worker_id,
                    "seq": seq,
                    "sessions": self.manager.attached_count(),
                    "shadows": len(self.host.shadows),
                }
            )
            if self._ctrl is not None:
                await self._ctrl.drain()
            seq += 1
            await asyncio.sleep(self.heartbeat_interval)

    async def _dispatch_ctrl(self, message: Dict) -> None:
        kind = message.get("kind")
        if kind == "buddy":
            bound = await self._set_buddy(message["host"], int(message["port"]))
            # Ack the rewire only after every session re-seeded and the
            # seeds were flushed to the new buddy — the supervisor (and
            # the kill campaign) treat this as "safe to kill me again".
            self._ctrl_send(
                {
                    "kind": "rebound",
                    "worker": self.worker_id,
                    "peer": int(message["peer"]),
                    "ok": bound,
                }
            )
            if self._ctrl is not None:
                await self._ctrl.drain()
        elif kind == "promote":
            await self._promote(int(message["victim"]))
        elif kind == "drain":
            await self._drain()
        elif kind == "hang":
            self._hang = True
        elif kind == "slow":
            self._slow_s = float(message["ms"]) / 1000.0

    async def _promote(self, victim: int) -> None:
        sessions = self.host.promote_worker(victim)
        adopted = []
        for session in sessions:
            try:
                self.manager.adopt(session)
            except SessionAdmissionError:
                self.stats["adoption_conflicts"] += 1
                continue
            adopted.append(session.state.client_tag)
        self.stats["adopted"] += len(adopted)
        # Adoption seeded the promoted sessions down our own ship link;
        # answer PROMOTED only once our buddy holds those baselines, so
        # this worker is immediately safe to kill again.
        if adopted and self._ship_sender is not None:
            await self._ship_barrier()
        self._ctrl_send(
            {
                "kind": "promoted",
                "worker": self.worker_id,
                "victim": victim,
                "adopted": len(adopted),
                "tags": adopted,
            }
        )
        if self._ctrl is not None:
            await self._ctrl.drain()

    async def _drain(self) -> None:
        self._draining = True
        report = await self.service.drain()
        await self.service.stop()
        shipping = {
            key: sum(shipper.stats[key] for shipper in self._shippers.values())
            for key in SHIP_STATS
        }
        self._ctrl_send(
            {
                "kind": "drained",
                "worker": self.worker_id,
                "report": report,
                "shipping": shipping,
                "standby": dict(self.host.stats),
                "worker_stats": dict(self.stats),
                "obs": METRICS.snapshot() if METRICS.enabled else None,
            }
        )
        if self._ctrl is not None:
            await self._ctrl.drain()
        self._done.set()

    async def _control_loop(self, reader) -> None:
        decoder = FrameDecoder(max_frame_bytes=CTRL_MAX_FRAME_BYTES)
        while not self._done.is_set():
            if self._hang:
                # Stop reading the control pipe entirely — the classic
                # wedged-but-alive worker. Only SIGKILL ends this.
                await asyncio.Event().wait()
            try:
                chunk = await reader.read(READ_CHUNK)
            except (ConnectionError, OSError):
                break
            if not chunk:
                break  # supervisor went away; nothing left to serve for
            try:
                records = decoder.feed(chunk)
            except WireDecodeError:
                break
            for channel, payload, _bits in records:
                if channel == CTRL:
                    await self._dispatch_ctrl(decode_ctrl(payload))

    # ------------------------------------------------------------------

    async def run(self) -> None:
        serve_host, serve_port = await self.service.start_tcp()
        replica_server = await asyncio.start_server(
            self._handle_replica_conn, self.config.host, 0
        )
        replica_port = replica_server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection(
            self.control_host, self.control_port
        )
        self._ctrl = StreamSender(writer)
        self._ctrl_send(
            {
                "kind": "ready",
                "worker": self.worker_id,
                "serve_port": serve_port,
                "replica_port": replica_port,
                "pid": os.getpid(),
            }
        )
        await self._ctrl.drain()
        heartbeats = asyncio.get_running_loop().create_task(
            self._heartbeat_loop()
        )
        try:
            await self._control_loop(reader)
        finally:
            heartbeats.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await heartbeats
            replica_server.close()
            await replica_server.wait_closed()
            for task in list(self._replica_tasks):
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await task
            await self._teardown_ship_link()
            if self._ctrl is not None:
                with contextlib.suppress(Exception):
                    await self._ctrl.aclose()


def _frame(channel: int, payload: bytes) -> bytes:
    return encode_stream_record(channel, payload, len(payload) * 8)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cluster-worker",
        description="One supervised shard of a repro link-service cluster.",
    )
    parser.add_argument("--worker-id", type=int, required=True)
    parser.add_argument("--control-host", default="127.0.0.1")
    parser.add_argument("--control-port", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--heartbeat", type=float, default=0.25)
    parser.add_argument("--max-sessions", type=int, default=64)
    parser.add_argument("--queue-depth", type=int, default=32)
    parser.add_argument(
        "--tune",
        default="",
        choices=("", "epsilon", "ucb1", "onoff"),
        help="arm per-session online knob tuning with this policy; "
        "each worker seeds its own plan, adapting independently",
    )
    args = parser.parse_args(argv)
    # Siblings die under us by design (kill campaigns); asyncio logs a
    # warning per dead socket, which would flood the supervisor's
    # inherited stderr.
    import logging

    logging.getLogger("asyncio").setLevel(logging.ERROR)
    tuning = None
    if args.tune:
        from repro.tune.plan import TuningPlan

        # Per-worker seed: shards explore independently instead of
        # replaying identical arm sequences in lockstep. Sessions
        # adopted after a worker death rebuild a fresh controller on
        # the buddy — a clean schedule restart, never torn knobs. The
        # arms are the stock space; each session's controller keeps
        # the wire-safe ones.
        tuning = TuningPlan(
            policy=args.tune,
            seed=0xCAB1E ^ args.worker_id,
            warmup_accesses=16,
            hold_accesses=16,
        )
    config = ServeConfig(
        host=args.host,
        port=0,
        max_sessions=args.max_sessions,
        queue_depth=args.queue_depth,
        tuning=tuning,
    )
    worker = ClusterWorker(
        args.worker_id,
        args.control_host,
        args.control_port,
        config,
        heartbeat_interval=args.heartbeat,
    )
    asyncio.run(worker.run())
    return 0


if __name__ == "__main__":
    sys.exit(main())
