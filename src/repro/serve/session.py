"""Sessions: one verified CABLE link pair per connected client.

A :class:`Session` is the *transport* half of one client: the bounded
queue, the worker, the retransmit window, and the frame shipping with
its per-session fault injectors. The *state* half — the
:class:`~repro.core.encoder.CableLinkPair` with the byte-level
checker armed (``verify=True``) and its
:class:`~repro.link.lifecycle.LinkLifecycle` (durable epoch state via
``config.durability``, warm-standby replication and the failover
path) — lives in :class:`repro.serve.state.SessionState`, which each
session composes. The socket carries the *actual encoded frames*:
every transfer's frame is encoded once, by the pair's
:class:`~repro.link.recovery.ReliableLink`, and the session ships the
frame that decoded (the :attr:`~repro.core.encoder.TransferRecord.frame`
its listener captured) to the client, which checks its length,
CRC-16 and sequence tag on its side of the wire; the bit-exact token
parse runs once, in ``ReliableLink.deliver``, over the bytes that CRC
covers.

Admission control is explicit and bounded: accesses land in a
per-session :class:`asyncio.Queue` of fixed depth; overflow is
answered with a RETRY message carrying a backoff hint — the server
never buffers without bound. Retransmission state is equally bounded
(``retransmit_window`` frames per session, oldest evicted first).

:class:`SessionManager` multiplexes many sessions over one service:
open/resume with the HELLO/EPOCH handshake (a resume whose epoch
disagrees with the durable state's
:meth:`~repro.state.manager.EndpointStateManager.expected_progress`
triggers a §III-F resync before any new frame is trusted), and the
graceful drain — stop admitting, flush queues and writers, checkpoint
durable state, audit every pair.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.errors import (
    DecompressionError,
    DuplicateSessionTagError,
    LinkRecoveryError,
    SessionLimitError,
)
from repro.fault.injectors import ChannelFaultInjector, WireFaultInjector
from repro.fault.plan import FaultPlan
from repro.obs.registry import METRICS
from repro.replica.plan import FailoverPlan, ReplicationPolicy
from repro.serve import protocol
from repro.serve.state import SessionState, synthetic_line
from repro.serve.transport import StreamSender
from repro.state.plan import DurabilityPolicy
from repro.tune.plan import TuningPlan

__all__ = [
    "ServeConfig",
    "Session",
    "SessionManager",
    "SessionState",
    "synthetic_line",
]

_CTR_OPENED = METRICS.counter("serve.sessions_opened")
_CTR_RESUMED = METRICS.counter("serve.sessions_resumed")
_CTR_ACCESSES = METRICS.counter("serve.accesses")
_CTR_FRAMES = METRICS.counter("serve.frames_sent")
_CTR_RETRANS = METRICS.counter("serve.retransmits")
_CTR_NACKS = METRICS.counter("serve.nacks_received")
_CTR_BACKPRESSURE = METRICS.counter("serve.backpressure_events")
_CTR_DROPPED = METRICS.counter("serve.frames_dropped")
_GAUGE_ACTIVE = METRICS.gauge("serve.sessions_active")
_HIST_QUEUE = METRICS.histogram(
    "serve.queue_depth", bounds=(0, 1, 2, 4, 8, 16, 32, 64, 128)
)


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one link service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port is reported back)
    #: Hard cap on concurrently attached sessions.
    max_sessions: int = 64
    #: Bound of each session's pending-access queue; overflow → RETRY.
    queue_depth: int = 32
    #: Backoff hint shipped with RETRY, milliseconds.
    retry_after_ms: int = 2
    #: Flush early once a batch reaches this size.
    max_batch_bytes: int = 8192
    #: Frames kept per session for NACK retransmission.
    retransmit_window: int = 64
    #: Worker drains up to this many queued accesses per wakeup, with
    #: one batched extraction warm and one cooperative yield per block;
    #: 1 restores item-at-a-time service. Outputs are byte-identical
    #: either way — the warm only prefetches pure per-line work.
    drain_block: int = 8
    #: Home / remote cache sizes per session (campaign geometry: small
    #: enough that reference compression and evictions both engage).
    home_kb: int = 16
    remote_kb: int = 4
    #: Wire faults applied to the *shipped copy* of outgoing frames
    #: (the in-process delivery stays clean; the client's frame check
    #: catches the damage and NACKs). Reseeded per session.
    faults: Optional[FaultPlan] = None
    #: Per-session durability (epoch/journal state for resume).
    durability: DurabilityPolicy = field(default_factory=DurabilityPolicy)
    #: Warm-standby replication per session; None serves unreplicated.
    replication: Optional[ReplicationPolicy] = None
    #: Primary-kill schedule + replication-stream sabotage (reseeded
    #: per session, like ``faults``). Requires ``replication``.
    failover: Optional[FailoverPlan] = None
    #: Replication shipper cadence: flush the journal backlog to the
    #: standby every N completed accesses. Keyed to work (not wall
    #: clock) so kill campaigns are exactly repeatable — a kill landing
    #: on a flush point finds an empty backlog and promotes *hot*.
    replica_flush_accesses: int = 4
    #: Per-session online knob tuning (repro.tune): each session runs
    #: its own wire-safe controller, adapting independently. Knob
    #: changes land only at epoch boundaries through
    #: ``LinkLifecycle.apply_config``, which flushes the replica slot
    #: (the in-process standby) before the change so standby journals
    #: never tear.
    tuning: Optional[TuningPlan] = None

    def __post_init__(self) -> None:
        if self.failover is not None and self.replication is None:
            raise ValueError(
                "failover requires replication: a kill schedule without a "
                "standby to promote would silently never fire"
            )
        if self.replica_flush_accesses < 1:
            raise ValueError("replica_flush_accesses must be positive")


#: Queue sentinel: the worker should flush and exit.
_SHUTDOWN = object()


class Session:
    """One client's transport, composed over its endpoint state."""

    def __init__(self, session_id: int, client_tag: int, config: ServeConfig) -> None:
        self.session_id = session_id
        self.client_tag = client_tag
        self.config = config
        self.state = SessionState(session_id, client_tag, config)
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=config.queue_depth)
        #: (access index, frame pos) → (direction, seq, bytes, bits).
        self.window: Dict[Tuple[int, int], Tuple[int, int, bytes, int]] = {}
        self._window_order: List[Tuple[int, int]] = []
        self.wire_faults: Optional[WireFaultInjector] = None
        self.channel_faults: Optional[ChannelFaultInjector] = None
        if config.faults is not None:
            plan = replace(config.faults, seed=config.faults.seed ^ client_tag)
            self.wire_faults = WireFaultInjector(plan)
            self.channel_faults = ChannelFaultInjector(plan)
        self.sender: Optional[StreamSender] = None
        self.worker: Optional[asyncio.Task] = None
        self.stats = {
            "accesses": 0,
            "frames": 0,
            "retransmits": 0,
            "nacks": 0,
            "rejected": 0,
            "dropped_frames": 0,
            "link_failures": 0,
            "silent_corruptions": 0,
        }

    @property
    def pair(self):
        return self.state.pair

    # ------------------------------------------------------------------
    # Attachment & epochs
    # ------------------------------------------------------------------

    def attach(self, sender: StreamSender) -> None:
        self.sender = sender
        if self.worker is None or self.worker.done():
            self.worker = asyncio.get_running_loop().create_task(self._run_worker())

    def detach(self) -> None:
        self.sender = None

    @property
    def attached(self) -> bool:
        return self.sender is not None

    def progress(self) -> Tuple[int, int]:
        return self.state.progress()

    def resync_stale_resume(self) -> None:
        self.state.resync_stale_resume()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def admit(self, index: int, addr: int, is_write: bool, data: Optional[bytes]) -> bool:
        """Enqueue one access; False means RETRY (queue full)."""
        if METRICS.enabled:
            _HIST_QUEUE.observe(self.queue.qsize())
        try:
            self.queue.put_nowait((index, addr, is_write, data))
        except asyncio.QueueFull:
            self.stats["rejected"] += 1
            if METRICS.enabled:
                _CTR_BACKPRESSURE.inc()
            return False
        return True

    def retransmit(self, index: int, pos: int) -> bool:
        """Answer one NACK from the retransmit window (pristine bytes —
        a retransmission is never re-corrupted, guaranteeing forward
        progress under any fault rate)."""
        self.stats["nacks"] += 1
        if METRICS.enabled:
            _CTR_NACKS.inc()
        entry = self.window.get((index, pos))
        if entry is None or self.sender is None:
            return False
        direction, seq, frame_bytes, frame_bits = entry
        name = "fill" if direction == protocol.DIR_FILL else "writeback"
        self.sender.send(
            protocol.encode_shipped_frame(
                index, name, pos, seq, frame_bytes, frame_bits
            )
        )
        self.stats["retransmits"] += 1
        if METRICS.enabled:
            _CTR_RETRANS.inc()
        return True

    # ------------------------------------------------------------------
    # The worker: queue → pair.access → frames on the wire
    # ------------------------------------------------------------------

    async def _run_worker(self) -> None:
        block = max(1, self.config.drain_block)
        while True:
            items = [await self.queue.get()]
            while len(items) < block:
                try:
                    items.append(self.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            if len(items) > 1:
                self._warm_block(items)
            stop = False
            for item in items:
                try:
                    if item is _SHUTDOWN:
                        stop = True
                        continue
                    try:
                        self._process(*item)
                    except Exception:
                        # Never let one poisoned access wedge
                        # queue.join() at drain time; count it and
                        # keep serving.
                        self.stats["worker_errors"] = (
                            self.stats.get("worker_errors", 0) + 1
                        )
                finally:
                    self.queue.task_done()
            if stop:
                return
            # Yield once per drained block so the reader loop (and
            # other sessions) interleave even when the queue is hot.
            await asyncio.sleep(0)

    def _warm_block(self, items: List) -> None:
        """Batch-warm signature extraction for a drained block.

        Only the write payloads are known before the accesses run (a
        fill's bytes depend on cache state the earlier accesses in the
        block may still change), and extraction is a pure function of
        line bytes — so the warm can move vectorized work ahead of the
        per-access pipeline without changing a single frame.
        """
        lines = [
            item[3]
            for item in items
            if item is not _SHUTDOWN and item[3] is not None
        ]
        if lines:
            self.pair.home_encoder.extractor.warm_batch(lines)

    def _process(
        self, index: int, addr: int, is_write: bool, data: Optional[bytes]
    ) -> None:
        capture = self.state.capture
        capture.clear()
        status = protocol.STATUS_OK
        try:
            self.pair.access(addr, is_write=is_write, write_data=data)
        except LinkRecoveryError:
            status = protocol.STATUS_LINK_FAILURE
            self.stats["link_failures"] += 1
        except DecompressionError:
            # The byte-level checker caught delivered-but-wrong data.
            # Loud, counted, and the access still answers — one escape
            # must not wedge the session.
            self.stats["silent_corruptions"] += 1
        self.stats["accesses"] += 1
        if METRICS.enabled:
            _CTR_ACCESSES.inc()
        for pos, record in enumerate(capture):
            self._ship_frame(index, pos, record)
        sent = len(capture)
        capture.clear()
        replica = self.state.pair.lifecycle.replica
        if replica is not None:
            # The standby's shipper cadence + kill schedule, both keyed
            # to the per-session access ordinal so campaigns are
            # repeatable regardless of asyncio interleaving. The flush
            # runs *before* the kill roll: a
            # kill landing on a flush point finds an empty backlog and
            # promotes hot.
            ordinal = self.stats["accesses"]
            if ordinal % max(1, self.config.replica_flush_accesses) == 0:
                replica.pump(force=True)
            self.state.maybe_kill_primary(ordinal)
        if self.state.tuner is not None:
            # Ticked after the replication block so an epoch boundary
            # always sees a freshly flushed backlog; keyed to the
            # per-session ordinal, so campaigns stay repeatable under
            # any asyncio interleaving.
            self.state.tuner.on_access()
        if self.sender is not None:
            epoch, records = self.progress()
            self.sender.send(
                protocol.encode_result(index, sent, status, epoch, records)
            )

    def _ship_frame(self, index: int, pos: int, record) -> None:
        direction = record.direction
        seq, frame_bytes, frame_bits = record.frame
        dir_code = protocol.DIR_NAMES[direction]
        self._window_insert((index, pos), (dir_code, seq, frame_bytes, frame_bits))
        self.stats["frames"] += 1
        if METRICS.enabled:
            _CTR_FRAMES.inc()
        if self.sender is None:
            return  # client detached mid-access; window keeps the frame
        shipped, shipped_bits = frame_bytes, frame_bits
        dropped = (
            self.channel_faults is not None
            and self.channel_faults.decide() == "drop"
        )
        if not dropped and self.wire_faults is not None:
            shipped, shipped_bits = self.wire_faults.corrupt(shipped, shipped_bits)
        if dropped or shipped_bits <= 0:
            # A frame truncated to nothing is indistinguishable from a
            # drop; the client NACKs the hole after RESULT arrives.
            self.stats["dropped_frames"] += 1
            if METRICS.enabled:
                _CTR_DROPPED.inc()
            return
        self.sender.send(
            protocol.encode_shipped_frame(
                index, direction, pos, seq, shipped, shipped_bits
            )
        )

    def _window_insert(self, key: Tuple[int, int], entry) -> None:
        if key not in self.window:
            self._window_order.append(key)
        self.window[key] = entry
        while len(self._window_order) > self.config.retransmit_window:
            evicted = self._window_order.pop(0)
            self.window.pop(evicted, None)

    # ------------------------------------------------------------------
    # Drain / close
    # ------------------------------------------------------------------

    async def drain(self) -> None:
        """Finish queued work, stop the worker, flush, checkpoint."""
        await self.queue.join()
        if self.worker is not None and not self.worker.done():
            self.queue.put_nowait(_SHUTDOWN)
            await self.worker
        self.worker = None
        self.state.drain()
        if self.sender is not None:
            await self.sender.drain()

    def audit_ok(self) -> bool:
        return self.state.audit_ok()


class SessionManager:
    """Open/resume/drain across every session of one service."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.sessions: Dict[int, Session] = {}
        self.next_id = 1
        self.draining = False
        #: Called with every newly created or adopted session — the
        #: cluster worker hooks this to mirror the session's store on
        #: its buddy the moment the session exists.
        self.on_open: Optional[object] = None
        self.stats = {
            "opened": 0,
            "resumed": 0,
            "resyncs": 0,
            "rejected_opens": 0,
            "adopted": 0,
            "peak_sessions": 0,
        }

    def find_by_tag(self, client_tag: int) -> Optional[Session]:
        """The session owning *client_tag*, attached or not."""
        for session in self.sessions.values():
            if session.client_tag == client_tag:
                return session
        return None

    def _grant_resume(
        self, session: Session, epoch: int, records: int
    ) -> Tuple[Session, int]:
        flags = protocol.FLAG_RESUMED
        if (epoch, records) != session.progress():
            # Stale epoch: never resume onto divergent metadata —
            # repair first, then grant the fresh epoch.
            session.resync_stale_resume()
            self.stats["resyncs"] += 1
            flags |= protocol.FLAG_REBUILT
        self.stats["resumed"] += 1
        if METRICS.enabled:
            _CTR_RESUMED.inc()
        return session, flags

    def open(
        self, resume_id: int, client_tag: int, epoch: int, records: int
    ) -> Tuple[Optional[Session], int]:
        """Grant (session, OPEN_OK flags); session None when rejected.

        Raises :class:`~repro.core.errors.DuplicateSessionTagError`
        when a fresh OPEN's tag is already attached, and
        :class:`~repro.core.errors.SessionLimitError` at the
        ``max_sessions`` cap — the service maps both onto a REJECTED
        reply on the wire. A fresh OPEN whose tag matches a *detached*
        session adopts it instead (the cross-worker failover reconnect
        path: session ids are worker-local, tags are the durable
        identity, and a stale epoch goes through the same
        resync-before-grant as an id-based resume).
        """
        if self.draining:
            self.stats["rejected_opens"] += 1
            return None, protocol.FLAG_REJECTED
        if resume_id:
            session = self.sessions.get(resume_id)
            if session is None or session.attached:
                self.stats["rejected_opens"] += 1
                return None, protocol.FLAG_REJECTED
            return self._grant_resume(session, epoch, records)
        existing = self.find_by_tag(client_tag)
        if existing is not None:
            if existing.attached:
                self.stats["rejected_opens"] += 1
                raise DuplicateSessionTagError(
                    f"client tag {client_tag:#x} is already attached as "
                    f"session {existing.session_id}"
                )
            return self._grant_resume(existing, epoch, records)
        if len(self.sessions) >= self.config.max_sessions:
            self.stats["rejected_opens"] += 1
            raise SessionLimitError(
                f"session cap {self.config.max_sessions} reached"
            )
        session = Session(self.next_id, client_tag, self.config)
        self.sessions[session.session_id] = session
        self.next_id += 1
        self.stats["opened"] += 1
        if METRICS.enabled:
            _CTR_OPENED.inc()
        if self.on_open is not None:
            self.on_open(session)
        return session, 0

    def adopt(self, session: Session) -> Session:
        """Register a session promoted from another worker's standby.

        The session arrives detached with a foreign session id; it gets
        a local id and joins the table so the owning client can resume
        by tag through :meth:`open` (its stale epoch then rides the
        normal resync-before-grant path).
        """
        if self.find_by_tag(session.client_tag) is not None:
            raise DuplicateSessionTagError(
                f"cannot adopt tag {session.client_tag:#x}: already hosted"
            )
        session.session_id = self.next_id
        session.state.session_id = session.session_id
        self.sessions[session.session_id] = session
        self.next_id += 1
        self.stats["adopted"] += 1
        if self.on_open is not None:
            self.on_open(session)
        return session

    def attached_count(self) -> int:
        return sum(1 for s in self.sessions.values() if s.attached)

    def publish_active(self) -> None:
        active = self.attached_count()
        self.stats["peak_sessions"] = max(self.stats["peak_sessions"], active)
        if METRICS.enabled:
            _GAUGE_ACTIVE.set(active)

    def close_session(self, session: Session, keep: bool) -> None:
        session.detach()
        if not keep:
            self.sessions.pop(session.session_id, None)
        self.publish_active()

    async def drain(self) -> Dict[str, int]:
        """Graceful drain of every session; returns a roll-up report.

        Order matters: stop admitting first (callers check
        ``draining``), then let each queue empty through its worker,
        flush writers, checkpoint durable state, and finally audit
        every pair — the audit result is the drain's cleanliness bit.
        """
        self.draining = True
        report = {
            "sessions": len(self.sessions),
            "accesses": 0,
            "frames": 0,
            "retransmits": 0,
            "link_failures": 0,
            "silent_corruptions": 0,
            "audit_failures": 0,
            # -- replication / failover (repro.replica) ----------------
            "kills": 0,
            "hot_promotions": 0,
            "warm_promotions": 0,
            "lost_records": 0,
            "catch_ups": 0,
            "batches_shipped": 0,
            "batches_lost": 0,
            "replica_lag_peak": 0,
            # -- adaptive tuning (repro.tune) ---------------------------
            "tuned_sessions": 0,
            "tune_epochs": 0,
            "tune_switches": 0,
        }
        for session in list(self.sessions.values()):
            await session.drain()
            for key in (
                "accesses",
                "frames",
                "retransmits",
                "link_failures",
                "silent_corruptions",
            ):
                report[key] += session.stats[key]
            replica = session.state.replica_rollup()
            for key in (
                "kills",
                "hot_promotions",
                "warm_promotions",
                "lost_records",
                "catch_ups",
                "batches_shipped",
                "batches_lost",
            ):
                report[key] += replica[key]
            report["replica_lag_peak"] = max(
                report["replica_lag_peak"], replica["lag_peak"]
            )
            tune = session.state.tune_rollup()
            if tune is not None:
                report["tuned_sessions"] += 1
                report["tune_epochs"] += tune["epochs"]
                report["tune_switches"] += tune["switches"]
            if not session.audit_ok():
                report["audit_failures"] += 1
        if METRICS.enabled:
            METRICS.counter("serve.drains").inc()
            for key, value in report.items():
                METRICS.gauge(f"serve.drain.{key}").set(value)
        return report
