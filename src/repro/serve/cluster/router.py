"""Front router: one client-facing port, N worker shards behind it.

The router is deliberately dumb. It peeks at the first ``MSG_OPEN`` on
a new connection just long enough to read the client tag, asks the
:class:`~repro.serve.cluster.ring.SessionDirectory` which worker owns
that tag, dials the worker, replays the bytes it buffered while
deciding, and then splices the two sockets byte-for-byte in both
directions until either side hangs up. No protocol state, no frame
re-encoding — the worker sees exactly what the client sent, so every
serve-layer property (CRC checks, NACK retransmit, HELLO/EPOCH
resync) holds unchanged across the extra hop.

Two routing refusals, both of which just close the connection and let
the client's reconnect loop retry:

- the tag is *frozen* (its owner died and recovery is mid-flight —
  admitting the client now could double-open the tag on two workers);
- the backend dial fails (the worker died between lookup and connect).
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Callable, Optional, Tuple

from repro.core.errors import WireDecodeError
from repro.link.wire import FrameDecoder
from repro.obs.registry import METRICS
from repro.serve import protocol
from repro.serve.transport import READ_CHUNK

#: Give up on a pre-OPEN connection after buffering this much.
_MAX_PREOPEN_BYTES = 1 << 16

_CTR_CONNS = METRICS.counter("cluster.router_conns")
_CTR_FROZEN = METRICS.counter("cluster.router_frozen_rejects")
_CTR_DIAL_FAILS = METRICS.counter("cluster.router_dial_fails")


class FrontRouter:
    """Routes client connections onto workers by session tag.

    *resolve* maps a client tag to a ``(host, port)`` backend, raising
    ``LookupError`` to refuse (frozen tag, empty ring). It is consulted
    once per connection — stickiness across reconnects is the
    directory's job, not the router's.
    """

    def __init__(self, resolve: Callable[[int], Tuple[str, int]]) -> None:
        self.resolve = resolve
        self._server: Optional[asyncio.AbstractServer] = None
        self._splices: set = set()
        self.stats = {
            "conns": 0,
            "routed": 0,
            "frozen_rejects": 0,
            "dial_fails": 0,
            "preopen_garbage": 0,
        }

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_client, host, port
        )
        sock = self._server.sockets[0]
        bound_host, bound_port = sock.getsockname()[:2]
        return bound_host, bound_port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._splices):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._splices.clear()

    # ------------------------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        self.stats["conns"] += 1
        if METRICS.enabled:
            _CTR_CONNS.inc()
        try:
            routed = await self._route(reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            routed = False
        if not routed:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _peek_tag(self, reader) -> Tuple[Optional[int], bytes]:
        """Buffer bytes until the first OPEN decodes; returns
        ``(tag, buffered_bytes)`` with ``tag None`` on garbage/EOF."""
        decoder = FrameDecoder()
        buffered = bytearray()
        while len(buffered) < _MAX_PREOPEN_BYTES:
            chunk = await reader.read(READ_CHUNK)
            if not chunk:
                return None, bytes(buffered)
            buffered += chunk
            try:
                records = decoder.feed(chunk)
            except WireDecodeError:
                return None, bytes(buffered)
            for channel, payload, bits in records:
                if channel != protocol.MSG_OPEN:
                    continue  # pre-OPEN noise is the backend's problem
                try:
                    _resume, tag, _epoch, _records = protocol.decode_open(
                        payload, bits
                    )
                except WireDecodeError:
                    return None, bytes(buffered)
                return tag, bytes(buffered)
        return None, bytes(buffered)

    async def _route(self, reader, writer) -> bool:
        tag, buffered = await self._peek_tag(reader)
        if tag is None:
            self.stats["preopen_garbage"] += 1
            return False
        try:
            host, port = self.resolve(tag)
        except LookupError:
            self.stats["frozen_rejects"] += 1
            if METRICS.enabled:
                _CTR_FROZEN.inc()
            return False
        try:
            up_reader, up_writer = await asyncio.open_connection(host, port)
        except OSError:
            self.stats["dial_fails"] += 1
            if METRICS.enabled:
                _CTR_DIAL_FAILS.inc()
            return False
        up_writer.write(buffered)
        self.stats["routed"] += 1
        loop = asyncio.get_running_loop()
        down = loop.create_task(_splice(reader, up_writer))
        up = loop.create_task(_splice(up_reader, writer))
        for task in (down, up):
            self._splices.add(task)
            task.add_done_callback(self._splices.discard)
        try:
            await asyncio.gather(down, up)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            for task in (down, up):
                task.cancel()
            for side in (writer, up_writer):
                with contextlib.suppress(Exception):
                    side.close()
        return True


async def _splice(reader, writer) -> None:
    """Pump bytes one way until EOF, then half-close the other side."""
    try:
        while True:
            chunk = await reader.read(READ_CHUNK)
            if not chunk:
                break
            writer.write(chunk)
            await writer.drain()
    except (ConnectionError, OSError):
        pass
    finally:
        with contextlib.suppress(Exception):
            if writer.can_write_eof():
                writer.write_eof()
