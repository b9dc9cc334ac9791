"""Per-endpoint durability manager: checkpoints, journal, restore.

One :class:`EndpointStateManager` guards one endpoint's volatile
mirrored metadata (home side: WMT + hash table + breaker; remote side:
hash table + eviction buffer). It hooks the structures' ``journal``
callbacks, cuts a versioned checksummed snapshot every
``checkpoint_interval`` records (advancing the *epoch*), and restores
a crashed endpoint by::

    newest readable snapshot  +  journal records since its epoch

A torn/corrupt snapshot is detected by its checksums and skipped —
the restore falls back one generation (the journal retains records
back to the oldest kept snapshot). A poisoned or over-truncated
journal makes the restore *incomplete*; the epoch handshake
(:class:`repro.link.recovery.EpochResync`) then degrades to the
incremental audit-rebuild path instead of trusting a stale image.

The manager models the endpoint's *persistent* store (battery-backed
SRAM / a spare DRAM row / NVM): a crash wipes the live structures, not
the snapshots or the journal. Fault injectors sabotage the persistent
side explicitly (:meth:`corrupt_newest_snapshot`,
:meth:`poison_journal`, :meth:`drop_journal_tail`) to prove the
restore path never *trusts* what it cannot verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.setassoc import LineId
from repro.core.errors import JournalReplayError, SnapshotCorruptionError
from repro.obs.tracer import trace
from repro.state.journal import JournalRecord, MetadataJournal
from repro.state.plan import DurabilityPolicy
from repro.state.snapshot import read_snapshot, write_snapshot

#: Journal-record op tag width in the modelled resync wire cost.
OP_TAG_BITS = 3


def apply_record(structures: Dict[str, object], record: JournalRecord) -> None:
    """Apply one journaled metadata op to a structure set.

    Shared by the restore path (replay onto the crashed endpoint's own
    structures) and the replication standby (replay onto a warm
    mirror) — both must interpret the journal identically or a
    promoted standby would diverge from a replayed restore.
    """
    op, args = record.op, record.args
    if op == "wmt_install":
        structures["wmt"].install(LineId(args[0]), LineId(args[1]))
    elif op == "wmt_inval_remote":
        structures["wmt"].invalidate_remote(LineId(args[0]))
    elif op == "wmt_inval_home":
        structures["wmt"].invalidate_home(LineId(args[0]))
    elif op == "hash_insert":
        structures["hash"].insert(args[0], LineId(args[1]))
    elif op == "hash_remove":
        structures["hash"].remove(args[0], LineId(args[1]))
    elif op == "evict_record":
        structures["evictbuf"].apply_record(
            args[0], LineId(args[1]), args[2], args[3]
        )
    elif op == "evict_ack":
        structures["evictbuf"].acknowledge(args[0])
    else:
        raise JournalReplayError(f"unknown journal op {op!r}")


@dataclass
class RestoreResult:
    """What one :meth:`EndpointStateManager.restore` achieved."""

    #: Epoch of the snapshot the restore started from (0 = cold).
    base_epoch: int = 0
    #: Retained snapshots that failed validation and were skipped.
    corrupt_skipped: int = 0
    #: True when no readable snapshot existed (cold start).
    cold: bool = False
    #: Journal records replayed on top of the snapshot.
    records_replayed: int = 0
    #: Modelled wire cost of shipping those records (resync traffic).
    replay_bits: int = 0
    #: True when the snapshot+replay provably reaches the pre-crash
    #: state; False forces the audit-rebuild path.
    complete: bool = False


class EndpointStateManager:
    """Snapshot + journal persistence for one endpoint's metadata."""

    def __init__(
        self,
        name: str,
        policy: DurabilityPolicy,
        structures: Dict[str, object],
        record_costs: Optional[Dict[str, int]] = None,
    ) -> None:
        """*structures* maps section names to objects exposing
        ``snapshot_state()/restore_state()/reset_state()``; the subset
        named in :attr:`JOURNALED` additionally gets its ``journal``
        hook installed by :meth:`attach`. *record_costs* gives the
        fixed modelled bit cost per journal op (data-carrying ops add
        their payload bits on top)."""
        self.name = name
        self.policy = policy
        self.structures = dict(structures)
        self.record_costs = dict(record_costs or {})
        self.epoch = 0
        self.journal = MetadataJournal()
        self._snapshots: List[bytes] = []  # oldest → newest
        self._since_checkpoint = 0
        self.suspended = False
        self.stats = {
            "checkpoints": 0,
            "snapshot_bytes": 0,
            "restores": 0,
            "corrupt_snapshots_detected": 0,
            "records_replayed": 0,
        }

    #: Structures whose mutations flow through the journal. Breaker and
    #: health state are snapshot-only: they are statistics, and a
    #: within-epoch stale restore of them is harmless.
    JOURNALED = ("wmt", "hash", "evictbuf")

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------

    def attach(self) -> None:
        for key in self.JOURNALED:
            structure = self.structures.get(key)
            if structure is not None:
                structure.journal = self._journal_hook

    def _record_bits(self, op: str, args: Tuple) -> int:
        bits = self.record_costs.get(op, 32) + OP_TAG_BITS
        if op == "evict_record":
            bits += len(args[3]) * 8  # the parked line rides the record
        return bits

    def _journal_hook(self, op: str, *args) -> None:
        if self.suspended:
            return
        self.journal.append(self.epoch, op, args, self._record_bits(op, args))
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.policy.checkpoint_interval:
            self.checkpoint()

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Cut a snapshot of every structure, advance the epoch, and
        truncate the journal to the retained-snapshot window. Returns
        the new epoch. Must also be called after any *bulk* mutation
        that bypasses the journal (audit repair, resync rebuild)."""
        with trace("state.snapshot"):
            sections = {
                name: structure.snapshot_state()
                for name, structure in self.structures.items()
            }
            self.epoch += 1
            blob = write_snapshot(self.epoch, sections)
            self._snapshots.append(blob)
            del self._snapshots[: -self.policy.snapshots_kept]
            if not self.journal.intact:
                # The fresh snapshot supersedes the damaged region:
                # rotate the journal here so one torn device does not
                # condemn every future crash to the rebuild path.
                self.journal.heal(self.epoch)
            self.journal.truncate_before(
                self.epoch - (self.policy.snapshots_kept - 1)
            )
            self._since_checkpoint = 0
            self.stats["checkpoints"] += 1
            self.stats["snapshot_bytes"] += len(blob)
        return self.epoch

    def expected_progress(self) -> Tuple[int, int]:
        """(epoch, journal length) — what a peer that has seen every
        piggybacked epoch tag knows about this endpoint. Captured by
        the link *before* crash sabotage, it is the handshake's
        yardstick for whether a restore actually reached the present."""
        return self.epoch, len(self.journal)

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------

    def restore(self) -> RestoreResult:
        """Rebuild the live structures from snapshot + journal replay."""
        with trace("state.restore"):
            return self._restore()

    def _restore(self) -> RestoreResult:
        result = RestoreResult()
        self.stats["restores"] += 1
        self.suspended = True
        try:
            chosen: Optional[Dict[str, bytes]] = None
            for blob in reversed(self._snapshots):
                try:
                    epoch, sections = read_snapshot(blob)
                    for name, structure in self.structures.items():
                        if name not in sections:
                            raise SnapshotCorruptionError(
                                f"snapshot missing section {name!r}"
                            )
                        structure.restore_state(sections[name])
                except SnapshotCorruptionError:
                    result.corrupt_skipped += 1
                    self.stats["corrupt_snapshots_detected"] += 1
                    continue
                chosen = sections
                result.base_epoch = epoch
                break
            if chosen is None:
                result.cold = True
                result.base_epoch = 0
                for structure in self.structures.values():
                    structure.reset_state()
            try:
                records = self.journal.records_since(result.base_epoch)
            except JournalReplayError:
                records = None
            if records is not None and (
                self.epoch - result.base_epoch <= self.policy.max_epoch_gap
            ):
                with trace("state.journal_replay"):
                    for record in records:
                        self._apply(record)
                        result.records_replayed += 1
                        result.replay_bits += record.bits
                result.complete = True
                self.stats["records_replayed"] += result.records_replayed
        finally:
            self.suspended = False
        return result

    def _apply(self, record: JournalRecord) -> None:
        apply_record(self.structures, record)

    # ------------------------------------------------------------------
    # Fault-injection surface (persistent-store sabotage)
    # ------------------------------------------------------------------

    def corrupt_newest_snapshot(self, rng) -> bool:
        """Flip one byte of the newest snapshot (torn write). Returns
        False when there is no snapshot to corrupt."""
        if not self._snapshots:
            return False
        blob = bytearray(self._snapshots[-1])
        position = rng.randrange(len(blob))
        blob[position] ^= 1 << rng.randrange(8)
        self._snapshots[-1] = bytes(blob)
        return True

    def poison_journal(self) -> None:
        """Torn journal device: replay will raise, forcing rebuild."""
        self.journal.invalidate()

    def drop_journal_tail(self, count: int) -> int:
        """Silently lose the newest *count* records (unsynced tail)."""
        return self.journal.drop_tail(count)

    @property
    def snapshot_count(self) -> int:
        return len(self._snapshots)
