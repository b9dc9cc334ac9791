"""The link service: a home-cache endpoint behind an asyncio server.

One :class:`LinkService` accepts any number of client connections —
over TCP (:meth:`LinkService.start_tcp`) or in-process duplex pipes
(:meth:`LinkService.connect_memory`; same handler, same protocol,
no sockets) — and multiplexes them onto a
:class:`~repro.serve.session.SessionManager`.

The per-connection receive loop reassembles stream records with
:class:`repro.link.wire.FrameDecoder` (frames split across TCP chunks
are the normal case, not an error), dispatches control messages
inline, and leaves per-access work to the session's queue/worker so a
slow session cannot stall the connection of a fast one.

``main()`` is the ``repro-serve`` console entry point.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
from typing import List, Optional, Set, Tuple

from repro.core.errors import SessionAdmissionError, WireDecodeError
from repro.link.wire import FrameDecoder
from repro.serve import protocol
from repro.serve.session import ServeConfig, Session, SessionManager
from repro.serve.transport import READ_CHUNK, StreamSender, open_memory_pipe


class LinkService:
    """Hosts sessions over byte streams; drains gracefully on stop."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.manager = SessionManager(self.config)
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._handlers: Set[asyncio.Task] = set()
        self._senders: Set[StreamSender] = set()

    # ------------------------------------------------------------------
    # Transports
    # ------------------------------------------------------------------

    async def start_tcp(self) -> Tuple[str, int]:
        """Listen on ``config.host:config.port``; returns the bound
        address (port 0 requests an ephemeral port)."""
        self._tcp_server = await asyncio.start_server(
            self.handle_connection, self.config.host, self.config.port
        )
        sock = self._tcp_server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    def connect_memory(self):
        """One in-process connection; returns the client's (reader,
        writer) pair. The server half runs as a background task."""
        client_side, server_side = open_memory_pipe()
        task = asyncio.get_running_loop().create_task(
            self.handle_connection(*server_side)
        )
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        return client_side

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def handle_connection(self, reader, writer) -> None:
        sender = StreamSender(writer, self.config.max_batch_bytes)
        self._senders.add(sender)
        decoder = FrameDecoder()
        session: Optional[Session] = None
        keep_session = True  # a dropped connection keeps state resumable
        try:
            while True:
                chunk = await reader.read(READ_CHUNK)
                if not chunk:
                    break
                try:
                    records = decoder.feed(chunk)
                except WireDecodeError:
                    break  # framing lost — unrecoverable connection
                goodbye = False
                for channel, payload, bits in records:
                    session, goodbye, keep_session = self._dispatch(
                        channel, payload, bits, session, sender, keep_session
                    )
                    if goodbye:
                        break
                if goodbye:
                    break
                await sender.drain()
        finally:
            if session is not None:
                self.manager.close_session(session, keep_session)
            self._senders.discard(sender)
            await sender.aclose()

    def _dispatch(
        self,
        channel: int,
        payload: bytes,
        bits: int,
        session: Optional[Session],
        sender: StreamSender,
        keep_session: bool,
    ) -> Tuple[Optional[Session], bool, bool]:
        """Handle one record; returns (session, goodbye, keep_session)."""
        cfg = self.config
        if channel == protocol.MSG_OPEN:
            resume_id, tag, epoch, records = protocol.decode_open(payload, bits)
            try:
                granted, flags = self.manager.open(resume_id, tag, epoch, records)
            except SessionAdmissionError:
                # Duplicate tag / session cap: a typed refusal in
                # process, a REJECTED flag on the wire.
                granted, flags = None, protocol.FLAG_REJECTED
            if granted is None:
                sender.send(protocol.encode_open_ok(0, flags, 0, 0))
                return session, False, keep_session
            granted.attach(sender)
            self.manager.publish_active()
            g_epoch, g_records = granted.progress()
            sender.send(
                protocol.encode_open_ok(
                    granted.session_id, flags, g_epoch, g_records
                )
            )
            return granted, False, True
        if session is None:
            return session, False, keep_session  # pre-OPEN noise; ignore
        if channel == protocol.MSG_ACCESS:
            index, addr, is_write, data = protocol.decode_access(payload)
            if self.manager.draining:
                sender.send(protocol.encode_drain(index))
                return session, False, keep_session
            if not session.admit(index, addr, is_write, data):
                sender.send(protocol.encode_retry(index, cfg.retry_after_ms))
        elif channel == protocol.MSG_NACK:
            index, pos = protocol.decode_nack(payload)
            session.retransmit(index, pos)
        elif channel == protocol.MSG_BYE:
            return session, True, protocol.decode_bye(payload)
        return session, False, keep_session

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------

    async def drain(self) -> dict:
        """Stop accepting, notify clients, drain every session, audit.

        Returns the :meth:`SessionManager.drain` roll-up plus
        ``drained_clean`` (1 when every session audited clean)."""
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        self.manager.draining = True
        for sender in list(self._senders):
            sender.send(protocol.encode_drain())
            await sender.drain()
        report = await self.manager.drain()
        report["drained_clean"] = int(report["audit_failures"] == 0)
        for sender in list(self._senders):
            await sender.drain()
        return report

    async def stop(self) -> None:
        """Hard-stop the connection handlers (after :meth:`drain`)."""
        for task in list(self._handlers):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._handlers.clear()


async def _serve_main(args: argparse.Namespace) -> int:
    from repro.fault.plan import FaultPlan

    faults = None
    if args.fault_rate > 0:
        faults = FaultPlan.uniform(args.fault_rate, seed=args.seed)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        max_sessions=args.max_sessions,
        faults=faults,
    )
    service = LinkService(config)
    host, port = await service.start_tcp()
    print(f"repro-serve listening on {host}:{port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signame in ("SIGINT", "SIGTERM"):
        import signal

        with contextlib.suppress(NotImplementedError, AttributeError):
            loop.add_signal_handler(getattr(signal, signame), stop.set)
    if args.duration > 0:
        loop.call_later(args.duration, stop.set)
    await stop.wait()

    report = await service.drain()
    await service.stop()
    print(
        "drained: "
        + " ".join(f"{key}={value}" for key, value in sorted(report.items())),
        flush=True,
    )
    return 0 if report["drained_clean"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Host a CABLE home endpoint as an asyncio link service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral; the bound port is printed at startup)",
    )
    parser.add_argument("--queue-depth", type=int, default=32)
    parser.add_argument("--max-sessions", type=int, default=64)
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="arm per-session wire fault injection at this rate",
    )
    parser.add_argument("--seed", type=int, default=0xCAB1E)
    parser.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="drain and exit after this many seconds (0 = until SIGINT)",
    )
    args = parser.parse_args(argv)
    return asyncio.run(_serve_main(args))


if __name__ == "__main__":
    sys.exit(main())
