"""The link-service message grammar over stream records.

Every message is one :func:`repro.link.wire.encode_stream_record`
whose channel byte is the message kind. Control messages are
fixed-layout structs; the two messages that carry *link bits* embed
the real wire codecs unchanged:

- OPEN / OPEN_OK append a HELLO / EPOCH handshake frame
  (:func:`repro.link.wire.encode_epoch_frame`) after their struct
  header — the same CRC-guarded bits the crash-recovery handshake
  exchanges in-process;
- FRAME appends one full link-layer frame
  (:func:`repro.link.wire.encode_frame` output) after a 7-byte
  header, byte-aligned so the receiver can hand the tail straight to
  :func:`repro.link.wire.verify_frame` or
  :func:`repro.link.wire.decode_frame`.

Malformed payloads raise
:class:`~repro.core.errors.CorruptPayloadError` — the same typed
hierarchy the wire codecs use, so a receive loop has one except arm
for "the peer sent garbage".
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.core.errors import CorruptPayloadError
from repro.link.wire import (
    EPOCH_KIND_EPOCH,
    EPOCH_KIND_HELLO,
    decode_epoch_frame,
    encode_epoch_frame,
    encode_stream_record,
)

# Message kinds (the stream-record channel byte).
MSG_OPEN = 0x01  # client → server: open or resume a session
MSG_OPEN_OK = 0x02  # server → client: session granted / rejected
MSG_ACCESS = 0x03  # client → server: one remote-side access
MSG_FRAME = 0x04  # server → client: one encoded link frame
MSG_RESULT = 0x05  # server → client: access complete
MSG_NACK = 0x06  # client → server: frame failed decode; retransmit
MSG_RETRY = 0x07  # server → client: admission rejected, retry later
MSG_DRAIN = 0x08  # server → client: draining, send no new accesses
MSG_BYE = 0x09  # client → server: closing (keep or discard session)

# OPEN_OK flag bits.
FLAG_RESUMED = 0x01  # an existing session was resumed
FLAG_REBUILT = 0x02  # resume epoch was stale; server resynced
FLAG_REJECTED = 0x04  # no session granted (full, draining, unknown id)

# ACCESS flag bits.
_ACCESS_WRITE = 0x01
_ACCESS_HAS_DATA = 0x02

# RESULT status codes.
STATUS_OK = 0
STATUS_LINK_FAILURE = 1  # retries + raw fallback exhausted server-side

_OPEN_HDR = struct.Struct(">II")  # resume_session_id, client_tag
_OPEN_OK_HDR = struct.Struct(">IB")  # session_id, flags
_ACCESS_HDR = struct.Struct(">IQB")  # index, line_addr, flags
_FRAME_HDR = struct.Struct(">IBBB")  # index, direction, pos, seq
_RESULT_HDR = struct.Struct(">IHBII")  # index, frames, status, epoch, records
_NACK_HDR = struct.Struct(">IB")  # index, pos
_RETRY_HDR = struct.Struct(">IH")  # index, retry_after_ms
_DRAIN_HDR = struct.Struct(">I")  # refused index (absent when broadcast)
_BYE_HDR = struct.Struct(">B")  # keep_session

DIR_FILL = 0
DIR_WRITEBACK = 1
DIR_NAMES = {"fill": DIR_FILL, "writeback": DIR_WRITEBACK}


def _record(channel: int, payload: bytes) -> bytes:
    """A byte-aligned control message as one stream record."""
    return encode_stream_record(channel, payload, len(payload) * 8)


def _require(payload: bytes, size: int, what: str) -> None:
    if len(payload) < size:
        raise CorruptPayloadError(
            f"{what} payload of {len(payload)} bytes, need at least {size}"
        )


def encode_open(
    resume_session_id: int, client_tag: int, epoch: int, records: int
) -> bytes:
    hello = encode_epoch_frame(EPOCH_KIND_HELLO, epoch, records, complete=True)
    payload = _OPEN_HDR.pack(resume_session_id, client_tag) + hello.getvalue()
    return encode_stream_record(MSG_OPEN, payload, 64 + hello.bit_count)


def decode_open(payload: bytes, bit_count: int) -> Tuple[int, int, int, int]:
    """→ ``(resume_session_id, client_tag, epoch, records)``."""
    _require(payload, _OPEN_HDR.size, "OPEN")
    resume_id, client_tag = _OPEN_HDR.unpack_from(payload)
    kind, epoch, records, _complete = decode_epoch_frame(
        payload[_OPEN_HDR.size:], bit_count - 64
    )
    if kind != EPOCH_KIND_HELLO:
        raise CorruptPayloadError(f"OPEN carried epoch-frame kind {kind}")
    return resume_id, client_tag, epoch, records


def encode_open_ok(session_id: int, flags: int, epoch: int, records: int) -> bytes:
    reply = encode_epoch_frame(EPOCH_KIND_EPOCH, epoch, records, complete=True)
    payload = _OPEN_OK_HDR.pack(session_id, flags) + reply.getvalue()
    return encode_stream_record(MSG_OPEN_OK, payload, 40 + reply.bit_count)


def decode_open_ok(payload: bytes, bit_count: int) -> Tuple[int, int, int, int]:
    """→ ``(session_id, flags, epoch, records)``."""
    _require(payload, _OPEN_OK_HDR.size, "OPEN_OK")
    session_id, flags = _OPEN_OK_HDR.unpack_from(payload)
    kind, epoch, records, _complete = decode_epoch_frame(
        payload[_OPEN_OK_HDR.size:], bit_count - 40
    )
    if kind != EPOCH_KIND_EPOCH:
        raise CorruptPayloadError(f"OPEN_OK carried epoch-frame kind {kind}")
    return session_id, flags, epoch, records


def encode_access(
    index: int, line_addr: int, is_write: bool, write_data: Optional[bytes]
) -> bytes:
    flags = _ACCESS_WRITE if is_write else 0
    data = b""
    if write_data is not None:
        flags |= _ACCESS_HAS_DATA
        data = write_data
    return _record(MSG_ACCESS, _ACCESS_HDR.pack(index, line_addr, flags) + data)


def decode_access(payload: bytes) -> Tuple[int, int, bool, Optional[bytes]]:
    """→ ``(index, line_addr, is_write, write_data)``."""
    _require(payload, _ACCESS_HDR.size, "ACCESS")
    index, line_addr, flags = _ACCESS_HDR.unpack_from(payload)
    data = payload[_ACCESS_HDR.size:] if flags & _ACCESS_HAS_DATA else None
    return index, line_addr, bool(flags & _ACCESS_WRITE), data


def encode_shipped_frame(
    index: int,
    direction: str,
    pos: int,
    seq: int,
    frame_bytes: bytes,
    frame_bits: int,
) -> bytes:
    header = _FRAME_HDR.pack(index, DIR_NAMES[direction], pos, seq)
    return encode_stream_record(
        MSG_FRAME, header + frame_bytes, _FRAME_HDR.size * 8 + frame_bits
    )


def decode_shipped_frame(
    payload: bytes, bit_count: int
) -> Tuple[int, int, int, int, bytes, int]:
    """→ ``(index, direction, pos, seq, frame_bytes, frame_bits)``.

    ``frame_bytes``/``frame_bits`` slice out the embedded link frame,
    ready for :func:`repro.link.wire.verify_frame`.
    """
    _require(payload, _FRAME_HDR.size, "FRAME")
    index, direction, pos, seq = _FRAME_HDR.unpack_from(payload)
    frame_bits = bit_count - _FRAME_HDR.size * 8
    if frame_bits <= 0:
        raise CorruptPayloadError("FRAME record carries no frame bits")
    return index, direction, pos, seq, payload[_FRAME_HDR.size:], frame_bits


def encode_result(
    index: int, frame_count: int, status: int, epoch: int, records: int
) -> bytes:
    return _record(
        MSG_RESULT, _RESULT_HDR.pack(index, frame_count, status, epoch, records)
    )


def decode_result(payload: bytes) -> Tuple[int, int, int, int, int]:
    """→ ``(index, frame_count, status, epoch, records)``."""
    _require(payload, _RESULT_HDR.size, "RESULT")
    return _RESULT_HDR.unpack_from(payload)


def encode_nack(index: int, pos: int) -> bytes:
    return _record(MSG_NACK, _NACK_HDR.pack(index, pos))


def decode_nack(payload: bytes) -> Tuple[int, int]:
    _require(payload, _NACK_HDR.size, "NACK")
    return _NACK_HDR.unpack_from(payload)


def encode_retry(index: int, retry_after_ms: int) -> bytes:
    return _record(MSG_RETRY, _RETRY_HDR.pack(index, retry_after_ms))


def decode_retry(payload: bytes) -> Tuple[int, int]:
    _require(payload, _RETRY_HDR.size, "RETRY")
    return _RETRY_HDR.unpack_from(payload)


def encode_drain(index: Optional[int] = None) -> bytes:
    """The broadcast DRAIN carries nothing; the answer to an ACCESS
    that arrives while draining names the refused *index*."""
    return _record(MSG_DRAIN, b"" if index is None else _DRAIN_HDR.pack(index))


def decode_drain(payload: bytes) -> Optional[int]:
    """→ the refused access index, or None for the broadcast."""
    if not payload:
        return None
    _require(payload, _DRAIN_HDR.size, "DRAIN")
    return _DRAIN_HDR.unpack_from(payload)[0]


def encode_bye(keep_session: bool) -> bytes:
    return _record(MSG_BYE, _BYE_HDR.pack(1 if keep_session else 0))


def decode_bye(payload: bytes) -> bool:
    _require(payload, _BYE_HDR.size, "BYE")
    return bool(_BYE_HDR.unpack_from(payload)[0])
