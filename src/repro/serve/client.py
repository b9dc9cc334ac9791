"""The remote-cache endpoint: an asyncio client of the link service.

A :class:`RemoteClient` opens (or resumes) one session with the
HELLO/EPOCH handshake, then drives accesses through a pipelined
window. Every FRAME the server ships is checked on this side of the
wire with :func:`repro.link.wire.verify_frame` — length, CRC-16 over
the bits and their bit count, and the sequence tag — and any frame
that fails (or never arrives) is NACKed so the server retransmits the
pristine copy from its window. The bit-exact token parse runs once,
in the server's :meth:`~repro.link.recovery.ReliableLink.deliver`,
over the same bytes the CRC covers. Backpressure is first-class: a
RETRY answer makes the client back off for the server's hinted
interval and resend, so admission rejection is flow control, not data
loss.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import WireDecodeError
from repro.link.wire import FrameDecoder, verify_frame
from repro.obs.registry import METRICS
from repro.serve import protocol
from repro.serve.transport import READ_CHUNK, StreamSender
from repro.trace.stream import Access

_HIST_RTT = METRICS.histogram(
    "serve.rtt_us",
    bounds=(50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000),
)


#: Counters every :class:`RemoteClient` keeps (per connection).
CLIENT_STATS = (
    "completed",
    "frames",
    "nacks",
    "crc_errors",
    "backpressure",
    "retries",
    "link_failures",
)


class SessionRejected(RuntimeError):
    """The service refused to grant a session (full, draining, or an
    unknown/busy resume id)."""


@dataclass(frozen=True)
class OpenResult:
    """Outcome of the OPEN handshake."""

    session_id: int
    resumed: bool
    rebuilt: bool  # resume epoch was stale; the server resynced first
    epoch: int
    records: int


class _Pending:
    """Book-keeping for one in-flight access."""

    __slots__ = ("sent_ns", "frames", "expect", "status", "nacked", "record")

    def __init__(self, sent_ns: int, record: bytes) -> None:
        self.sent_ns = sent_ns
        self.record = record  # resent verbatim on RETRY
        self.frames: Set[int] = set()
        self.expect: Optional[int] = None
        self.status = protocol.STATUS_OK
        self.nacked: Set[int] = set()

    def complete(self) -> bool:
        return self.expect is not None and len(self.frames) >= self.expect


class RemoteClient:
    """One remote-cache session over a byte-stream connection."""

    def __init__(self, reader: asyncio.StreamReader, writer) -> None:
        self.reader = reader
        self.sender = StreamSender(writer)
        self.decoder = FrameDecoder()
        self._inbox: Deque[Tuple[int, bytes, int]] = deque()
        self._eof = False
        self.draining = False  # server announced DRAIN: no new accesses
        self.progress: Tuple[int, int] = (0, 0)
        self.latencies_ms: List[float] = []
        #: Indices completed by :meth:`run` — the reconnecting
        #: :class:`~repro.serve.loadgen.Driver` resumes from the holes
        #: instead of replaying the whole sequence.
        self.completed_indices: Set[int] = set()
        self.stats = dict.fromkeys(CLIENT_STATS, 0)

    @classmethod
    async def connect_tcp(cls, host: str, port: int) -> "RemoteClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    # ------------------------------------------------------------------
    # Receive plumbing
    # ------------------------------------------------------------------

    async def _next_record(self) -> Optional[Tuple[int, bytes, int]]:
        while not self._inbox:
            if self._eof:
                return None
            chunk = await self.reader.read(READ_CHUNK)
            if not chunk:
                self._eof = True
                return None
            self._inbox.extend(self.decoder.feed(chunk))
        return self._inbox.popleft()

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------

    async def open(
        self,
        resume_id: int = 0,
        client_tag: int = 0,
        epoch: int = 0,
        records: int = 0,
    ) -> OpenResult:
        """OPEN/OPEN_OK exchange; raises :class:`SessionRejected`."""
        self.sender.send(
            protocol.encode_open(resume_id, client_tag, epoch, records)
        )
        await self.sender.drain()
        while True:
            record = await self._next_record()
            if record is None:
                raise SessionRejected("connection closed during handshake")
            channel, payload, bits = record
            if channel != protocol.MSG_OPEN_OK:
                continue  # e.g. a DRAIN racing the handshake
            session_id, flags, got_epoch, got_records = protocol.decode_open_ok(
                payload, bits
            )
            if flags & protocol.FLAG_REJECTED or session_id == 0:
                raise SessionRejected(
                    f"service rejected open (flags={flags:#x})"
                )
            self.progress = (got_epoch, got_records)
            return OpenResult(
                session_id=session_id,
                resumed=bool(flags & protocol.FLAG_RESUMED),
                rebuilt=bool(flags & protocol.FLAG_REBUILT),
                epoch=got_epoch,
                records=got_records,
            )

    # ------------------------------------------------------------------
    # The pipelined access loop
    # ------------------------------------------------------------------

    async def run(self, accesses: Sequence[Access], window: int = 8) -> int:
        """Drive *accesses* through the session, *window* in flight.

        Returns the number of accesses completed (all frames verified,
        RESULT received). Shorter than ``len(accesses)`` only when the
        server drained mid-run or the connection dropped.

        Records already received are handled back to back: the loop
        drains the sender (on memory pipes, a pass through the event
        loop) only after queueing an ACCESS or once the inbox is empty.
        NACKs sent in between leave on the sender's end-of-pass flush.
        """
        pending: Dict[int, _Pending] = {}
        self.completed_indices = set()  # indices are per-run positions
        next_index = 0
        while next_index < len(accesses) or pending:
            sent = False
            while (
                not self.draining
                and not self._eof
                and next_index < len(accesses)
                and len(pending) < window
            ):
                access = accesses[next_index]
                record = protocol.encode_access(
                    next_index,
                    access.line_addr,
                    access.is_write,
                    access.write_data,
                )
                pending[next_index] = _Pending(time.perf_counter_ns(), record)
                self.sender.send(record)
                next_index += 1
                sent = True
            if sent or not self._inbox:
                await self.sender.drain()
            if not pending:
                if self.draining or self._eof:
                    break
                continue
            record_in = await self._next_record()
            if record_in is None:
                break
            await self._handle(record_in, pending)
        return self.stats["completed"]

    async def _handle(
        self, record: Tuple[int, bytes, int], pending: Dict[int, _Pending]
    ) -> None:
        channel, payload, bits = record
        if channel == protocol.MSG_FRAME:
            index, _direction, pos, seq, frame_bytes, frame_bits = (
                protocol.decode_shipped_frame(payload, bits)
            )
            entry = pending.get(index)
            if entry is None:
                return  # late retransmit for an already-completed access
            try:
                verify_frame(frame_bytes, frame_bits, expected_seq=seq)
            except WireDecodeError:
                self.stats["crc_errors"] += 1
                self._nack(entry, index, pos, renack=True)
                return
            entry.frames.add(pos)
            self.stats["frames"] += 1
            self._finish_if_complete(index, entry, pending)
        elif channel == protocol.MSG_RESULT:
            index, frame_count, status, epoch, records = protocol.decode_result(
                payload
            )
            entry = pending.get(index)
            self.progress = (epoch, records)
            if entry is None:
                return
            entry.expect = frame_count
            entry.status = status
            if status == protocol.STATUS_LINK_FAILURE:
                self.stats["link_failures"] += 1
            # RESULT is ordered after every first-transmission FRAME of
            # this access, so anything still missing was dropped or
            # corrupted on the wire — NACK each hole exactly once.
            for pos in range(frame_count):
                if pos not in entry.frames:
                    self._nack(entry, index, pos)
            self._finish_if_complete(index, entry, pending)
        elif channel == protocol.MSG_RETRY:
            index, retry_after_ms = protocol.decode_retry(payload)
            entry = pending.get(index)
            self.stats["backpressure"] += 1
            if entry is None:
                return
            await asyncio.sleep(retry_after_ms / 1000.0)
            self.stats["retries"] += 1
            self.sender.send(entry.record)
            await self.sender.drain()
        elif channel == protocol.MSG_DRAIN:
            self.draining = True
            # A DRAIN naming an access refuses it: the service will
            # never answer it, so stop waiting. It stays uncompleted,
            # a hole that loadgen.Driver resumes from.
            refused = protocol.decode_drain(payload)
            if refused is not None:
                pending.pop(refused, None)

    def _nack(
        self, entry: _Pending, index: int, pos: int, renack: bool = False
    ) -> None:
        """Request retransmission of one frame (once per hole unless a
        retransmitted copy fails again)."""
        if pos in entry.nacked and not renack:
            return
        entry.nacked.add(pos)
        self.stats["nacks"] += 1
        self.sender.send(protocol.encode_nack(index, pos))

    def _finish_if_complete(
        self, index: int, entry: _Pending, pending: Dict[int, _Pending]
    ) -> None:
        if not entry.complete():
            return
        del pending[index]
        self.stats["completed"] += 1
        self.completed_indices.add(index)
        elapsed_ms = (time.perf_counter_ns() - entry.sent_ns) / 1e6
        self.latencies_ms.append(elapsed_ms)
        if METRICS.enabled:
            _HIST_RTT.observe(elapsed_ms * 1000.0)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    async def close(self, keep: bool = False) -> None:
        """Say BYE (``keep=True`` leaves the session resumable) and
        close the connection."""
        try:
            self.sender.send(protocol.encode_bye(keep))
        except RuntimeError:
            pass
        await self.sender.aclose()
