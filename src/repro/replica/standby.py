"""The warm standby: a mirrored structure set fed by journal batches.

A :class:`StandbyReplica` owns *mirror* instances of one endpoint's
metadata structures (home side: WMT + hash table + breaker; remote
side: hash table + eviction buffer) and moves through a three-state
machine::

    standby ----consume(batch)----> standby        (applied cleanly)
    standby --checksum/seq fault--> catching_up    (batch refused)
    catching_up --catch_up(snap)--> standby        (image replaced)
    standby/catching_up -promote()-> promoted      (terminal)

While ``standby``, batches are applied through the same
:func:`repro.state.manager.apply_record` dispatch the crash-restore
path uses, so a clean standby is record-for-record the image a
journal replay would have produced. Any integrity or sequencing fault
flips it to ``catching_up``: it refuses every further batch until a
checksummed snapshot replaces its image wholesale — a standby never
applies across damage, so it can be stale but never silently wrong.

:class:`WarmStandby` is the in-process sender feeding one standby per
endpoint journal of a link pair.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Dict, Optional, Tuple

from repro.core.errors import BatchGapError, BatchIntegrityError, ReplicationError
from repro.obs.registry import METRICS
from repro.obs.tracer import trace
from repro.replica.batch import decode_batch
from repro.replica.plan import ReplicationPolicy
from repro.replica.shipper import SHIPPER_STATS, JournalShipper
from repro.state.manager import EndpointStateManager, apply_record
from repro.state.snapshot import read_snapshot


class StandbyReplica:
    """Mirror structure set consuming the primary's journal stream."""

    def __init__(
        self,
        name: str,
        structures: Dict[str, object],
        progress: Tuple[int, int],
    ) -> None:
        """*structures* are mirror instances already seeded (by copy)
        to the primary's image as of *progress*."""
        self.name = name
        self.structures = dict(structures)
        self.state = "standby"
        #: Primary ``(epoch, records)`` this mirror has reached.
        self.applied_progress = progress
        #: Next batch sequence number the mirror will accept.
        self.next_seq = 0
        self.stats = {
            "batches_applied": 0,
            "records_applied": 0,
            "bits_applied": 0,
            "integrity_failures": 0,
            "gaps_detected": 0,
            "catch_ups": 0,
            "promotions": 0,
        }

    @property
    def clean(self) -> bool:
        """True while every shipped record has been applied in order —
        the precondition for a hot (replay-grade) promotion."""
        return self.state == "standby"

    def consume(self, blob: bytes) -> int:
        """Verify and apply one shipped batch; returns records applied.

        Raises :class:`~repro.core.errors.BatchIntegrityError` on a
        checksum/parse failure, :class:`~repro.core.errors.
        BatchGapError` on an out-of-sequence batch or while already
        awaiting catch-up. Either way the standby is left in
        ``catching_up`` and nothing was half-applied.
        """
        if self.state == "promoted":
            raise ReplicationError(f"standby {self.name!r} already promoted")
        if self.state == "catching_up":
            raise BatchGapError(
                f"standby {self.name!r} awaiting snapshot catch-up"
            )
        try:
            batch = decode_batch(blob)
        except BatchIntegrityError:
            self.stats["integrity_failures"] += 1
            self.state = "catching_up"
            raise
        if batch.seq != self.next_seq:
            self.stats["gaps_detected"] += 1
            self.state = "catching_up"
            raise BatchGapError(
                f"standby {self.name!r} expected batch {self.next_seq}, "
                f"got {batch.seq}"
            )
        for record in batch.records:
            apply_record(self.structures, record)
            self.stats["records_applied"] += 1
            self.stats["bits_applied"] += record.bits
        self.stats["batches_applied"] += 1
        self.next_seq = batch.seq + 1
        self.applied_progress = batch.progress
        return len(batch.records)

    def catch_up(
        self,
        blob: bytes,
        progress: Tuple[int, int],
        next_seq: int,
    ) -> None:
        """Replace the mirror image from a checksummed snapshot.

        *blob* is a :mod:`repro.state.snapshot` container cut from the
        primary's live structures; a torn one raises
        :class:`~repro.core.errors.SnapshotCorruptionError` and leaves
        the standby in ``catching_up`` (retry with a fresh cut).
        """
        if self.state == "promoted":
            raise ReplicationError(f"standby {self.name!r} already promoted")
        _, sections = read_snapshot(blob)
        for name, structure in self.structures.items():
            if name not in sections:
                raise ReplicationError(
                    f"catch-up snapshot missing section {name!r}"
                )
            structure.restore_state(sections[name])
        self.applied_progress = progress
        self.next_seq = next_seq
        self.state = "standby"
        self.stats["catch_ups"] += 1

    def promote(self) -> Dict[str, bytes]:
        """Freeze the mirror and hand its image to the failover path.

        Returns per-structure section images (``snapshot_state()``
        bytes) ready to restore into the live structures. Terminal: a
        promoted standby never consumes again — the old primary
        rejoins as a *new* standby instead.
        """
        self.state = "promoted"
        self.stats["promotions"] += 1
        return self.image()

    def image(self) -> Dict[str, bytes]:
        """Current per-structure section images (divergence checks)."""
        return {
            name: structure.snapshot_state()
            for name, structure in self.structures.items()
        }

    def describe(self) -> Optional[str]:
        return (
            f"standby {self.name!r} state={self.state} "
            f"seq={self.next_seq} progress={self.applied_progress}"
        )


def _mirror_structures(structures: Dict[str, object]) -> Dict[str, object]:
    """Deep-copy a structure set with its journal hooks detached.

    The hooks are bound methods of the primary's state manager;
    copying through them would clone the whole durability stack. The
    mirrors must not journal anyway — the standby replays, it does
    not originate.
    """
    mirrors: Dict[str, object] = {}
    for name, structure in structures.items():
        hook = getattr(structure, "journal", None)
        if hook is not None:
            structure.journal = None
        try:
            clone = copy.deepcopy(structure)
        finally:
            if hook is not None:
                structure.journal = hook
        if hasattr(clone, "journal"):
            clone.journal = None
        mirrors[name] = clone
    return mirrors


class WarmStandby:
    """In-process warm standbys for a link pair's endpoint journals.

    One :class:`~repro.replica.shipper.JournalShipper` per journal
    delivers each batch, through the optional ``ship_fault`` hook, to a
    :class:`StandbyReplica`; a refused batch is answered at once with a
    snapshot catch-up. :meth:`kill_primary` models the primary dying —
    the un-shipped backlog is lost (that is exactly the replication
    lag) and the standby is promoted — and :meth:`reseed` then builds
    fresh standbys from the promoted live image, the old primary
    rejoining as the new standby.
    """

    def __init__(
        self,
        managers: Dict[str, EndpointStateManager],
        policy: ReplicationPolicy,
        ship_fault=None,
    ) -> None:
        #: Stream sabotage hook: takes the encoded batch, returns the
        #: (possibly corrupted) bytes to deliver, or ``None`` for a
        #: batch lost in flight. Applied after accounting, exactly like
        #: wire injectors — the standby's detection is under test.
        self.ship_fault = ship_fault
        self.stats = dict.fromkeys(
            SHIPPER_STATS + ("batches_lost", "lost_records", "reseeds"), 0
        )
        self.shippers = {
            side: JournalShipper(
                manager, policy, partial(self._deliver, side), self.stats
            )
            for side, manager in managers.items()
        }
        self.standbys = {side: self._seed(side) for side in self.shippers}

    def _seed(self, side: str) -> StandbyReplica:
        manager = self.shippers[side].manager
        return StandbyReplica(
            f"{manager.name}-standby",
            _mirror_structures(manager.structures),
            manager.expected_progress(),
        )

    def _deliver(self, side: str, blob: bytes) -> None:
        delivered = blob if self.ship_fault is None else self.ship_fault(blob)
        if delivered is None:
            # Lost in flight: the standby discovers the hole as a
            # sequence gap on the next delivery (or at promotion).
            self.stats["batches_lost"] += 1
            return
        try:
            self.standbys[side].consume(delivered)
        except ReplicationError:
            self.catch_up(side)

    def pump(self, force: bool = False) -> int:
        """Ship both journals' backlogs; returns batches shipped."""
        return sum(shipper.pump(force) for shipper in self.shippers.values())

    def catch_up(self, side: str) -> None:
        """Resynchronize one standby from a live snapshot cut."""
        with trace("replica.catch_up"):
            progress, next_seq, blob = self.shippers[side].catch_up()
            self.standbys[side].catch_up(blob, progress, next_seq)
        if METRICS.enabled:
            METRICS.counter("replica.catch_ups").inc()

    def reseed(self) -> None:
        """Fresh standbys from the current live image, batch sequences
        restarted (rejoin after a promotion, or any re-baseline)."""
        for side, shipper in self.shippers.items():
            shipper.restart()
            self.standbys[side] = self._seed(side)
        self.stats["reseeds"] += 1

    def kill_primary(self, side: str) -> Tuple[int, bool, Dict[str, bytes]]:
        """One side's primary dies: lose its backlog and promote.

        Returns ``(lost_records, clean, sections)`` — how many
        journaled records the asynchronous lag cost us, whether the
        standby had applied every shipped record in order (the hot-
        promotion precondition), and the promoted per-structure image
        to restore into the live structures.
        """
        shipper = self.shippers[side]
        standby = self.standbys[side]
        lost = shipper.drop_backlog()
        self.stats["lost_records"] += lost
        # Hot iff the standby provably applied *everything* the primary
        # journaled: in-order with no refusals, an empty backlog, and a
        # progress match — the last clause catches a lost final batch
        # whose gap no later delivery ever exposed.
        clean = (
            standby.clean
            and lost == 0
            and standby.applied_progress == shipper.manager.expected_progress()
        )
        return lost, clean, standby.promote()
