"""Cross-process replication: journal batches over a byte stream.

:class:`~repro.replica.standby.WarmStandby` feeds one endpoint's
journal into an in-process :class:`~repro.replica.standby.
StandbyReplica`. This module stretches the same channel across a
process boundary so a *buddy worker* can hold warm standbys for every
session a sibling worker hosts — the substrate of the cluster layer's
cross-process failover (:mod:`repro.serve.cluster`).

Primary side, per session, a :class:`SessionShipper`:

- runs one :class:`~repro.replica.shipper.JournalShipper` per endpoint
  journal — the same tee, backlog and batch cut as the in-process
  standby, in the same ``LinkLifecycle.replica`` slot (one journal
  tee per session) — and sends each CRC-guarded ``CBRB`` batch as a
  ``SHIP_BATCH`` stream record on the buddy connection;
- tees backing-store writes (``SessionState.on_store_write``) into
  ``SHIP_STORE`` records — post-promotion the buddy must serve the
  *written* data, not the deterministic synthetic original;
- seeds (and re-seeds on a buddy change or after a journal-bypassing
  bulk mutation) with a ``SHIP_SEED`` carrying a live snapshot cut
  per side plus the store contents.

Buddy side, a :class:`StandbySessionHost` consumes the stream into
*shadow sessions*: full :class:`repro.serve.session.Session` objects,
never attached to a transport, whose journal hooks are detached so
batch replay through :func:`repro.state.manager.apply_record` is the
only writer. Damage keeps the single-process semantics — a batch that
fails its checksum or sequence check flips that side to
``catching_up`` and the host asks for a snapshot over the back
channel (``SHIP_CATCHUP_REQ``); nothing is ever half-applied.

Promotion is deliberately *warm*, never hot: the shadow replays
metadata, but the dead worker's cache data arrays are gone, so
:meth:`~repro.link.lifecycle.LinkLifecycle.promote_shadow` runs the
same warm tail as an in-process failover — checkpoint past every epoch
the dead primary ever granted, audit-repair the metadata against the
(empty) caches, reseed — and the owning client reconnects through the
stale-HELLO resync path. Data correctness never depended on the
caches — reads are answered from the shipped store (plus the
synthetic fallback), which is why the store tee is part of the
replication contract.

Every SHIP payload carries its own CRC32 trailer on top of the inner
codecs' checksums, so a torn record is discarded whole and typed
(:class:`~repro.core.errors.BatchIntegrityError`), never half-parsed.
"""

from __future__ import annotations

import struct
import zlib
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.errors import BatchIntegrityError, ReplicationError
from repro.obs.registry import METRICS
from repro.replica.plan import ReplicationPolicy
from repro.replica.shipper import SHIPPER_STATS, JournalShipper
from repro.replica.standby import StandbyReplica

# Stream-record channels of the replica link (disjoint from the serve
# protocol's 0x01-0x09 — the replica connection is separate, but keep
# the spaces distinct so a crossed wire fails loudly).
SHIP_HELLO = 0x20  # shipper → host: who is shipping (worker id)
SHIP_SEED = 0x21  # shipper → host: full state baseline for one tag
SHIP_BATCH = 0x22  # shipper → host: one CBRB journal batch
SHIP_STORE = 0x23  # shipper → host: one backing-store write
SHIP_CATCHUP = 0x24  # shipper → host: snapshot answering a request
SHIP_CATCHUP_REQ = 0x25  # host → shipper: a side needs catch-up
SHIP_MARK = 0x26  # shipper → host: delivery barrier (echo me)
SHIP_MARK_ACK = 0x27  # host → shipper: everything before the mark landed

#: Replica-stream frames carry whole snapshots; raise the reassembly
#: bound accordingly (the serve protocol keeps its tight default).
SHIP_MAX_FRAME_BYTES = 1 << 22

SIDES = ("home", "remote")
_SIDE_CODE = {name: code for code, name in enumerate(SIDES)}

_HELLO = struct.Struct("<I")  # worker id
_SEED_HDR = struct.Struct("<QI")  # tag, store entry count
_SEED_STORE = struct.Struct("<QI")  # addr, data length
_SEED_SIDE = struct.Struct("<III")  # epoch, records, blob length
_BATCH_HDR = struct.Struct("<QB")  # tag, side
_STORE_HDR = struct.Struct("<QQI")  # tag, addr, data length
_CATCHUP_HDR = struct.Struct("<QBIII")  # tag, side, epoch, records, next_seq
_REQ_HDR = struct.Struct("<QB")  # tag, side
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


def _side_name(code: int, what: str) -> str:
    if code >= len(SIDES):
        raise BatchIntegrityError(f"{what} names unknown side {code}")
    return SIDES[code]


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


def encode_seed(
    tag: int,
    store: Dict[int, bytes],
    sides: Dict[str, Tuple[Tuple[int, int], bytes]],
) -> bytes:
    """*sides* maps side name → ((epoch, records), snapshot blob)."""
    parts = [_SEED_HDR.pack(tag, len(store))]
    for addr, data in store.items():
        parts.append(_SEED_STORE.pack(addr, len(data)))
        parts.append(data)
    for side in SIDES:
        (epoch, records), blob = sides[side]
        parts.append(_SEED_SIDE.pack(epoch, records, len(blob)))
        parts.append(blob)
    return _seal(b"".join(parts))


def decode_seed(
    payload: bytes,
) -> Tuple[int, Dict[int, bytes], Dict[str, Tuple[Tuple[int, int], bytes]]]:
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
        sides: Dict[str, Tuple[Tuple[int, int], bytes]] = {}
        for side in SIDES:
            epoch, records, length = _SEED_SIDE.unpack_from(body, offset)
            offset += _SEED_SIDE.size
            blob = body[offset : offset + length]
            if len(blob) != length:
                raise BatchIntegrityError("SHIP_SEED truncated in snapshot")
            offset += length
            sides[side] = ((epoch, records), blob)
        if offset != len(body):
            raise BatchIntegrityError("SHIP_SEED has trailing bytes")
    except struct.error as exc:
        raise BatchIntegrityError(f"SHIP_SEED unparseable: {exc}") from exc
    return tag, store, sides


def encode_ship_batch(tag: int, side: str, blob: bytes) -> bytes:
    return _seal(_BATCH_HDR.pack(tag, _SIDE_CODE[side]) + blob)


def decode_ship_batch(payload: bytes) -> Tuple[int, str, bytes]:
    body = _unseal(payload, "SHIP_BATCH")
    if len(body) < _BATCH_HDR.size:
        raise BatchIntegrityError("SHIP_BATCH too short")
    tag, side = _BATCH_HDR.unpack_from(body)
    return tag, _side_name(side, "SHIP_BATCH"), body[_BATCH_HDR.size :]


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


def encode_ship_catchup(
    tag: int,
    side: str,
    progress: Tuple[int, int],
    next_seq: int,
    blob: bytes,
) -> bytes:
    header = _CATCHUP_HDR.pack(
        tag, _SIDE_CODE[side], progress[0], progress[1], next_seq
    )
    return _seal(header + blob)


def decode_ship_catchup(
    payload: bytes,
) -> Tuple[int, str, Tuple[int, int], int, bytes]:
    body = _unseal(payload, "SHIP_CATCHUP")
    if len(body) < _CATCHUP_HDR.size:
        raise BatchIntegrityError("SHIP_CATCHUP too short")
    tag, side, epoch, records, next_seq = _CATCHUP_HDR.unpack_from(body)
    return (
        tag,
        _side_name(side, "SHIP_CATCHUP"),
        (epoch, records),
        next_seq,
        body[_CATCHUP_HDR.size :],
    )


def encode_catchup_req(tag: int, side: str) -> bytes:
    return _seal(_REQ_HDR.pack(tag, _SIDE_CODE[side]))


def decode_catchup_req(payload: bytes) -> Tuple[int, str]:
    body = _unseal(payload, "SHIP_CATCHUP_REQ")
    tag, side = _REQ_HDR.unpack_from(body)
    return tag, _side_name(side, "SHIP_CATCHUP_REQ")


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
    """Ships one session's journal + store writes to a buddy worker.

    *send* is a callable taking ``(channel, payload bytes)`` — the
    cluster worker binds it to the buddy connection's sender. The
    shipper occupies the session pair's replica slot
    (``LinkLifecycle.replica``), so the serve worker's flush cadence,
    ``apply_config`` and the drain reach :meth:`pump`, and a
    journal-bypassing bulk mutation re-seeds the buddy.
    """

    def __init__(self, session, send, policy: Optional[ReplicationPolicy] = None) -> None:
        state = session.state
        lifecycle = state.pair.lifecycle
        self.state = state
        self.send = send
        if not lifecycle.managers:
            raise ReplicationError("shipping requires durability")
        self.stats = dict.fromkeys(
            SHIPPER_STATS + ("seeds", "bytes_shipped", "store_writes_shipped"), 0
        )
        policy = policy or ReplicationPolicy()
        self.shippers = {
            side: JournalShipper(
                manager, policy, partial(self._ship_batch, side), self.stats
            )
            for side, manager in lifecycle.managers.items()
        }
        state.on_store_write = self._on_store_write
        lifecycle.replica = self
        self.reseed()

    def _ship_batch(self, side: str, blob: bytes) -> None:
        self._emit(
            SHIP_BATCH, encode_ship_batch(self.state.client_tag, side, blob)
        )

    def _on_store_write(self, addr: int, data: bytes) -> None:
        self._emit(
            SHIP_STORE, encode_ship_store(self.state.client_tag, addr, data)
        )
        self.stats["store_writes_shipped"] += 1

    def _emit(self, channel: int, payload: bytes) -> None:
        self.send(channel, payload)
        self.stats["bytes_shipped"] += len(payload)

    # -- lifecycle -----------------------------------------------------

    def reseed(self) -> None:
        """Ship a full baseline (snapshot per side + store contents)
        and restart the batch sequences — at arm time, whenever the
        buddy changes, and after a journal-bypassing bulk mutation."""
        sides = {}
        for side, shipper in self.shippers.items():
            shipper.restart()
            sides[side] = shipper.snapshot()
        self._emit(
            SHIP_SEED,
            encode_seed(self.state.client_tag, self.state.store, sides),
        )
        self.stats["seeds"] += 1
        if METRICS.enabled:
            METRICS.counter("cluster.seeds_shipped").inc()

    def rebind(self, send) -> None:
        """Point at a new buddy connection and re-baseline."""
        self.send = send
        self.reseed()

    # -- shipping ------------------------------------------------------

    def pump(self, force: bool = False) -> int:
        """Ship both journals' backlogs; returns batches shipped."""
        return sum(shipper.pump(force) for shipper in self.shippers.values())

    def catch_up(self, side: str) -> None:
        """Answer a host catch-up request with a live snapshot cut."""
        progress, next_seq, blob = self.shippers[side].catch_up()
        self._emit(
            SHIP_CATCHUP,
            encode_ship_catchup(
                self.state.client_tag, side, progress, next_seq, blob
            ),
        )
        if METRICS.enabled:
            METRICS.counter("cluster.catch_ups_shipped").inc()


# ----------------------------------------------------------------------
# Buddy side
# ----------------------------------------------------------------------


class _Shadow:
    """One shadow session: a detached Session plus per-side standbys."""

    __slots__ = ("tag", "source", "session", "standbys", "requested")

    def __init__(self, tag: int, source: int, session, standbys) -> None:
        self.tag = tag
        self.source = source  # shipping worker's id
        self.session = session
        self.standbys: Dict[str, StandbyReplica] = standbys
        self.requested: set = set()  # sides with a catch-up in flight


class StandbySessionHost:
    """Holds warm shadow sessions for sibling workers' tags.

    One host serves every inbound replica connection of a worker; each
    connection is identified by the shipper's ``SHIP_HELLO`` worker id
    so :meth:`promote_worker` can promote exactly the dead sibling's
    shadows. *request_catchup* is a callable ``(source_worker, channel,
    payload)`` the owner binds to the connection's back channel.
    """

    def __init__(self, config, request_catchup=None) -> None:
        self.config = config
        self.request_catchup = request_catchup
        self.shadows: Dict[int, _Shadow] = {}  # tag → shadow
        self.stats = {
            "seeds_applied": 0,
            "batches_applied": 0,
            "records_applied": 0,
            "store_writes_applied": 0,
            "integrity_failures": 0,
            "gaps_detected": 0,
            "catch_up_requests": 0,
            "catch_ups_applied": 0,
            "promotions": 0,
        }

    # -- shadow construction -------------------------------------------

    def _new_shadow(self, tag: int, source: int) -> _Shadow:
        from repro.serve.session import Session

        session = Session(0, tag, self.config)
        standbys = {
            side: StandbyReplica(f"{tag:#x}-{side}", structures, (0, 0))
            for side, structures in session.pair.lifecycle.shadow().items()
        }
        return _Shadow(tag, source, session, standbys)

    # -- stream dispatch -----------------------------------------------

    def handle_record(
        self, source: int, channel: int, payload: bytes
    ) -> None:
        """Apply one replica-stream record from worker *source*.

        A :class:`~repro.core.errors.BatchIntegrityError` from the
        envelope CRC is absorbed per message kind: a torn batch flips
        its side to catch-up; a torn seed/store record is dropped and
        counted — nothing is ever half-applied.
        """
        if channel == SHIP_SEED:
            self._apply_seed(source, payload)
        elif channel == SHIP_BATCH:
            self._apply_batch(source, payload)
        elif channel == SHIP_STORE:
            self._apply_store(payload)
        elif channel == SHIP_CATCHUP:
            self._apply_catchup(payload)

    def _apply_seed(self, source: int, payload: bytes) -> None:
        try:
            tag, store, sides = decode_seed(payload)
        except BatchIntegrityError:
            self.stats["integrity_failures"] += 1
            return  # no tag to request catch-up for; next seed heals
        shadow = self._new_shadow(tag, source)
        for side, (progress, blob) in sides.items():
            shadow.standbys[side].catch_up(blob, progress, 0)
        shadow.session.state.store.clear()
        shadow.session.state.store.update(store)
        self.shadows[tag] = shadow
        self.stats["seeds_applied"] += 1

    def _apply_batch(self, source: int, payload: bytes) -> None:
        try:
            tag, side, blob = decode_ship_batch(payload)
        except BatchIntegrityError:
            self.stats["integrity_failures"] += 1
            return
        shadow = self.shadows.get(tag)
        if shadow is None:
            return  # batch raced ahead of its seed; seed will rebase
        standby = shadow.standbys[side]
        try:
            applied = standby.consume(blob)
        except BatchIntegrityError:
            self.stats["integrity_failures"] += 1
            self._request(shadow, side)
            return
        except ReplicationError:  # gap, or already awaiting catch-up
            self.stats["gaps_detected"] += 1
            self._request(shadow, side)
            return
        self.stats["batches_applied"] += 1
        self.stats["records_applied"] += applied

    def _apply_store(self, payload: bytes) -> None:
        try:
            tag, addr, data = decode_ship_store(payload)
        except BatchIntegrityError:
            self.stats["integrity_failures"] += 1
            return
        shadow = self.shadows.get(tag)
        if shadow is None:
            return
        shadow.session.state.store[addr] = data
        self.stats["store_writes_applied"] += 1

    def _apply_catchup(self, payload: bytes) -> None:
        try:
            tag, side, progress, next_seq, blob = decode_ship_catchup(payload)
        except BatchIntegrityError:
            self.stats["integrity_failures"] += 1
            return
        shadow = self.shadows.get(tag)
        if shadow is None:
            return
        shadow.standbys[side].catch_up(blob, progress, next_seq)
        shadow.requested.discard(side)
        self.stats["catch_ups_applied"] += 1

    def _request(self, shadow: _Shadow, side: str) -> None:
        if side in shadow.requested or self.request_catchup is None:
            return
        shadow.requested.add(side)
        self.stats["catch_up_requests"] += 1
        self.request_catchup(
            shadow.source,
            SHIP_CATCHUP_REQ,
            encode_catchup_req(shadow.tag, side),
        )

    # -- connection lifecycle ------------------------------------------

    def reset_source(self, source: int) -> None:
        """A worker reconnected (new HELLO): its old shadows are stale
        — every live session re-seeds on the fresh connection."""
        for tag in [
            t for t, s in self.shadows.items() if s.source == source
        ]:
            del self.shadows[tag]

    # -- promotion -----------------------------------------------------

    def promote_worker(self, source: int) -> List:
        """Promote every shadow shipped by dead worker *source*.

        Returns the promoted :class:`~repro.serve.session.Session`
        objects, detached and ready for
        :meth:`~repro.serve.session.SessionManager.adopt`. Each pair
        is promoted warm (:meth:`~repro.link.lifecycle.LinkLifecycle.
        promote_shadow`) with an epoch that dominates everything the
        dead primary ever granted: a reconnecting client's HELLO is
        guaranteed stale and rides the resync-before-grant path.
        """
        promoted = []
        for tag in [
            t for t, s in self.shadows.items() if s.source == source
        ]:
            shadow = self.shadows.pop(tag)
            applied = {}
            for side, standby in shadow.standbys.items():
                applied[side] = standby.applied_progress
                standby.promote()
            shadow.session.pair.lifecycle.promote_shadow(applied)
            promoted.append(shadow.session)
            self.stats["promotions"] += 1
            if METRICS.enabled:
                METRICS.counter("cluster.shadow_promotions").inc()
        return promoted
