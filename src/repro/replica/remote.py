"""Cross-process replication: a buddy worker mirrors session stores.

A cluster worker's sessions must survive its process. What a promoted
session needs from the dead worker is its *backing store*: reads are
answered from the written-back lines (plus the deterministic synthetic
fallback), so the store is what data correctness rests on. CABLE's
endpoint metadata is not worth shipping: it only means something next
to the cache arrays it indexes — the WMT shadows the remote cache's
tag layout (§III-D) and the hash tables hold the LineIDs of resident
SHARED lines (§III-F) — and those arrays die with the worker. A
metadata image replayed without them would be audit-repaired away at
promotion anyway.

Primary side, per session, a :class:`SessionShipper`:

- seeds the buddy with a ``SHIP_SEED`` of ``(tag, store)`` when the
  session is armed and whenever its worker rebinds to a new buddy;
- tees backing-store writes (``SessionState.on_store_write``) into one
  ``SHIP_STORE`` record per write-back.

Buddy side, a :class:`StandbySessionHost` keeps each sibling session's
store by tag. A promotion builds a fresh
:class:`repro.serve.session.Session` holding the shipped store. Its
journal is empty, so its progress is the fresh ``(E0, 0)``: the owning
client's resume echo mismatches and rides resync-before-grant, and an
echo of exactly ``(E0, 0)`` is granted without resync — safe, because a
fresh session holds no metadata the two sides could disagree about.

``SHIP_MARK``/``SHIP_MARK_ACK`` is a delivery barrier: the buddy echoes
the mark once every record sent before it has been applied.

Every SHIP payload carries its own CRC32 trailer, so a torn record is
counted and discarded whole (:class:`~repro.core.errors.
BatchIntegrityError`), never half-parsed.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Tuple

from repro.core.errors import BatchIntegrityError
from repro.obs.registry import METRICS

# Stream-record channels of the replica link (disjoint from the serve
# protocol's 0x01-0x09 — the replica connection is separate, but keep
# the spaces distinct so a crossed wire fails loudly).
SHIP_HELLO = 0x20  # shipper → host: who is shipping (worker id)
SHIP_SEED = 0x21  # shipper → host: one tag's whole store
SHIP_STORE = 0x23  # shipper → host: one backing-store write
SHIP_MARK = 0x26  # shipper → host: delivery barrier (echo me)
SHIP_MARK_ACK = 0x27  # host → shipper: everything before the mark landed

#: Seeds carry whole stores; raise the reassembly bound accordingly
#: (the serve protocol keeps its tight default).
SHIP_MAX_FRAME_BYTES = 1 << 22

#: Counters every :class:`SessionShipper` keeps (summed per worker).
SHIP_STATS = ("seeds", "bytes_shipped", "store_writes_shipped")

_HELLO = struct.Struct("<I")  # worker id
_SEED_HDR = struct.Struct("<QI")  # tag, store entry count
_SEED_STORE = struct.Struct("<QI")  # addr, data length
_STORE_HDR = struct.Struct("<QQI")  # tag, addr, data length
_MARK = struct.Struct("<Q")  # barrier nonce
_CRC = struct.Struct("<I")


def _seal(payload: bytes) -> bytes:
    return payload + _CRC.pack(zlib.crc32(payload))


def _unseal(payload: bytes, what: str) -> bytes:
    if len(payload) < _CRC.size:
        raise BatchIntegrityError(f"{what} record too short ({len(payload)})")
    (stored,) = _CRC.unpack_from(payload, len(payload) - _CRC.size)
    body = payload[: -_CRC.size]
    computed = zlib.crc32(body)
    if stored != computed:
        raise BatchIntegrityError(
            f"{what} CRC {stored:#x} != computed {computed:#x}"
        )
    return body


# ----------------------------------------------------------------------
# Codecs (each returns the *payload*; the caller wraps it in a stream
# record with the matching channel)
# ----------------------------------------------------------------------


def encode_hello(worker_id: int) -> bytes:
    return _seal(_HELLO.pack(worker_id))


def decode_hello(payload: bytes) -> int:
    body = _unseal(payload, "SHIP_HELLO")
    (worker_id,) = _HELLO.unpack_from(body)
    return worker_id


def encode_seed(tag: int, store: Dict[int, bytes]) -> bytes:
    parts = [_SEED_HDR.pack(tag, len(store))]
    for addr, data in store.items():
        parts.append(_SEED_STORE.pack(addr, len(data)))
        parts.append(data)
    return _seal(b"".join(parts))


def decode_seed(payload: bytes) -> Tuple[int, Dict[int, bytes]]:
    body = _unseal(payload, "SHIP_SEED")
    try:
        tag, count = _SEED_HDR.unpack_from(body)
        offset = _SEED_HDR.size
        store: Dict[int, bytes] = {}
        for _ in range(count):
            addr, length = _SEED_STORE.unpack_from(body, offset)
            offset += _SEED_STORE.size
            store[addr] = body[offset : offset + length]
            if len(store[addr]) != length:
                raise BatchIntegrityError("SHIP_SEED truncated in store data")
            offset += length
        if offset != len(body):
            raise BatchIntegrityError("SHIP_SEED has trailing bytes")
    except struct.error as exc:
        raise BatchIntegrityError(f"SHIP_SEED unparseable: {exc}") from exc
    return tag, store


def encode_ship_store(tag: int, addr: int, data: bytes) -> bytes:
    return _seal(_STORE_HDR.pack(tag, addr, len(data)) + data)


def decode_ship_store(payload: bytes) -> Tuple[int, int, bytes]:
    body = _unseal(payload, "SHIP_STORE")
    if len(body) < _STORE_HDR.size:
        raise BatchIntegrityError("SHIP_STORE too short")
    tag, addr, length = _STORE_HDR.unpack_from(body)
    data = body[_STORE_HDR.size :]
    if len(data) != length:
        raise BatchIntegrityError("SHIP_STORE data length mismatch")
    return tag, addr, data


def encode_mark(nonce: int) -> bytes:
    return _seal(_MARK.pack(nonce))


def decode_mark(payload: bytes) -> int:
    body = _unseal(payload, "SHIP_MARK")
    (nonce,) = _MARK.unpack_from(body)
    return nonce


# ----------------------------------------------------------------------
# Primary side
# ----------------------------------------------------------------------


class SessionShipper:
    """Mirrors one session's backing store on a buddy worker.

    *send* is a callable taking ``(channel, payload bytes)`` — the
    cluster worker binds it to the buddy connection's sender.
    """

    def __init__(self, session, send) -> None:
        self.state = session.state
        self.send = send
        self.stats = dict.fromkeys(SHIP_STATS, 0)
        self.state.on_store_write = self._on_store_write
        self._seed()

    def _on_store_write(self, addr: int, data: bytes) -> None:
        self._emit(
            SHIP_STORE, encode_ship_store(self.state.client_tag, addr, data)
        )
        self.stats["store_writes_shipped"] += 1

    def _emit(self, channel: int, payload: bytes) -> None:
        self.send(channel, payload)
        self.stats["bytes_shipped"] += len(payload)

    def _seed(self) -> None:
        self._emit(SHIP_SEED, encode_seed(self.state.client_tag, self.state.store))
        self.stats["seeds"] += 1
        if METRICS.enabled:
            METRICS.counter("cluster.seeds_shipped").inc()

    def rebind(self, send) -> None:
        """Point at a new buddy connection and re-seed it."""
        self.send = send
        self._seed()


# ----------------------------------------------------------------------
# Buddy side
# ----------------------------------------------------------------------


class StandbySessionHost:
    """Holds sibling workers' session stores until a promotion.

    One host serves every inbound replica connection of a worker; each
    connection is identified by the shipper's ``SHIP_HELLO`` worker id
    so :meth:`promote_worker` can promote exactly the dead sibling's
    sessions.
    """

    def __init__(self, config) -> None:
        self.config = config
        #: tag → (shipping worker id, mirrored store)
        self.shadows: Dict[int, Tuple[int, Dict[int, bytes]]] = {}
        self.stats = dict.fromkeys(
            ("seeds_applied", "store_writes_applied", "integrity_failures", "promotions"),
            0,
        )

    def handle_record(self, source: int, channel: int, payload: bytes) -> None:
        """Apply one replica-stream record from worker *source*; one
        that fails its CRC is counted and dropped whole."""
        try:
            if channel == SHIP_SEED:
                tag, store = decode_seed(payload)
                self.shadows[tag] = (source, store)
                self.stats["seeds_applied"] += 1
            elif channel == SHIP_STORE:
                tag, addr, data = decode_ship_store(payload)
                shadow = self.shadows.get(tag)
                if shadow is not None:
                    shadow[1][addr] = data
                    self.stats["store_writes_applied"] += 1
        except BatchIntegrityError:
            self.stats["integrity_failures"] += 1

    def _tags_from(self, source: int) -> List[int]:
        return [tag for tag, (owner, _) in self.shadows.items() if owner == source]

    def reset_source(self, source: int) -> None:
        """A worker reconnected (new HELLO): its old stores are stale
        — every live session re-seeds on the fresh connection."""
        for tag in self._tags_from(source):
            del self.shadows[tag]

    def promote_worker(self, source: int) -> List:
        """Promote every session shipped by dead worker *source*.

        Returns fresh :class:`~repro.serve.session.Session` objects
        holding the shipped stores, detached and ready for
        :meth:`~repro.serve.session.SessionManager.adopt`.
        """
        from repro.serve.session import Session

        promoted = []
        for tag in self._tags_from(source):
            _, store = self.shadows.pop(tag)
            session = Session(0, tag, self.config)
            session.state.store.update(store)
            promoted.append(session)
            self.stats["promotions"] += 1
            if METRICS.enabled:
                METRICS.counter("cluster.shadow_promotions").inc()
        return promoted
