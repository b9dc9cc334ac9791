"""Stream transports for the link service.

Two pieces:

- :func:`open_memory_pipe` — a connected pair of in-process duplex
  byte streams with the same reader/writer surface the service uses
  over TCP. Tests and benchmarks run the full protocol through these
  (no sockets, no ports, still arbitrary chunk boundaries via the
  reader's buffering).
- :class:`StreamSender` — the coalescing writer side. Protocol code
  emits one stream record at a time; the sender batches them and
  writes once at the end of the event-loop pass that produced them
  (or sooner when a batch fills), so a burst of small frames costs
  one transport write instead of dozens and no record waits on a
  timer.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

from repro.obs.registry import METRICS

#: Read size used by both endpoints' receive loops.
READ_CHUNK = 65536

_CTR_FLUSHES = METRICS.counter("serve.writer_flushes")
_CTR_FLUSH_BYTES = METRICS.counter("serve.writer_bytes")
_HIST_BATCH = METRICS.histogram(
    "serve.batch_records", bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256)
)


class MemoryStreamWriter:
    """Writer half of an in-process pipe, feeding the peer's reader.

    Implements the subset of :class:`asyncio.StreamWriter` the service
    uses (``write``/``drain``/``close``/``wait_closed``/``is_closing``/
    ``get_extra_info``). Writes after close are dropped silently, the
    same way a TCP writer swallows data racing a reset.
    """

    def __init__(self, peer_reader: asyncio.StreamReader) -> None:
        self._peer = peer_reader
        self._closed = False

    def write(self, data: bytes) -> None:
        if not self._closed and not self._peer.at_eof():
            self._peer.feed_data(bytes(data))

    async def drain(self) -> None:
        # Yield once so the peer's read loop can run — the in-memory
        # pipe has no kernel buffer to exert real backpressure.
        await asyncio.sleep(0)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._peer.feed_eof()

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        return None

    def get_extra_info(self, name: str, default=None):
        if name == "peername":
            return ("memory", 0)
        return default


def open_memory_pipe() -> Tuple[
    Tuple[asyncio.StreamReader, MemoryStreamWriter],
    Tuple[asyncio.StreamReader, MemoryStreamWriter],
]:
    """Two connected ``(reader, writer)`` ends of a duplex byte pipe."""
    a_inbox = asyncio.StreamReader()
    b_inbox = asyncio.StreamReader()
    side_a = (a_inbox, MemoryStreamWriter(b_inbox))
    side_b = (b_inbox, MemoryStreamWriter(a_inbox))
    return side_a, side_b


class StreamSender:
    """Coalescing record writer that flushes once per event-loop pass.

    ``send`` is synchronous and never blocks: the first record buffered
    in a pass schedules one ``call_soon`` flush, so everything sent in
    one synchronous stretch (a worker block's FRAMEs and RESULTs, a
    pump's ship records) leaves in one transport write. A batch that
    reaches ``max_batch_bytes`` is written at once. ``drain`` forces
    the batch out and awaits the transport; call it at protocol
    checkpoints (end of a burst, before waiting on the peer). Any
    flush cancels the pass-end flush still scheduled, so a batch
    written early leaves no callback behind to find it empty.
    """

    def __init__(self, writer, max_batch_bytes: int = 8192) -> None:
        self.writer = writer
        self.max_batch_bytes = max_batch_bytes
        self._buffer = bytearray()
        self._batched = 0
        #: The pass-end flush ``send`` scheduled, until a flush runs.
        self._pending: Optional[asyncio.Handle] = None
        self.stats = {"records": 0, "flushes": 0, "bytes": 0}

    def send(self, record: bytes) -> None:
        """Queue one stream record; it leaves at the end of this pass."""
        self._buffer += record
        self._batched += 1
        self.stats["records"] += 1
        if len(self._buffer) >= self.max_batch_bytes:
            self.flush()
        elif self._pending is None:
            self._pending = asyncio.get_running_loop().call_soon(self.flush)

    def flush(self) -> None:
        """Write the pending batch now."""
        if self._pending is not None:
            # A no-op when the scheduled callback is the caller.
            self._pending.cancel()
            self._pending = None
        if not self._buffer:
            return
        data = bytes(self._buffer)
        batched = self._batched
        self._buffer.clear()
        self._batched = 0
        self.stats["flushes"] += 1
        self.stats["bytes"] += len(data)
        if METRICS.enabled:
            _CTR_FLUSHES.inc()
            _CTR_FLUSH_BYTES.inc(len(data))
            _HIST_BATCH.observe(batched)
        try:
            self.writer.write(data)
        except (ConnectionError, RuntimeError):
            pass  # peer went away mid-write; the read loop will see EOF

    async def drain(self) -> None:
        self.flush()
        try:
            await self.writer.drain()
        except (ConnectionError, RuntimeError):
            pass

    async def aclose(self) -> None:
        await self.drain()
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
