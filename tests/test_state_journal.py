"""Metadata journal + endpoint state manager (repro.state)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.setassoc import CacheGeometry, LineId
from repro.core.errors import JournalReplayError
from repro.core.evictbuf import EvictionBuffer
from repro.core.hashtable import SignatureHashTable
from repro.core.wmt import WayMapTable
from repro.state.journal import MetadataJournal
from repro.state.manager import EndpointStateManager
from repro.state.plan import DurabilityPolicy

HOME = CacheGeometry(16 * 1024, 8)
REMOTE = CacheGeometry(4 * 1024, 4)


def lid(geom: CacheGeometry, index: int, way: int) -> LineId:
    return LineId.pack(index, way, geom.way_bits)


class TestJournal:
    def test_epoch_filtering(self):
        journal = MetadataJournal()
        journal.append(1, "hash_insert", (1, 2), 35)
        journal.append(2, "hash_insert", (3, 4), 35)
        journal.append(3, "hash_remove", (3, 4), 35)
        assert len(journal.records_since(2)) == 2
        assert len(journal.records_since(0)) == 3

    def test_truncate_raises_floor(self):
        journal = MetadataJournal()
        for epoch in range(1, 5):
            journal.append(epoch, "hash_insert", (epoch,), 35)
        journal.truncate_before(3)
        assert len(journal) == 2
        with pytest.raises(JournalReplayError):
            journal.records_since(2)
        assert len(journal.records_since(3)) == 2

    def test_poison_refuses_replay(self):
        journal = MetadataJournal()
        journal.append(1, "hash_insert", (1, 2), 35)
        journal.invalidate()
        with pytest.raises(JournalReplayError):
            journal.records_since(1)

    def test_heal_rotates_and_clears_poison(self):
        journal = MetadataJournal()
        journal.append(1, "hash_insert", (1, 2), 35)
        journal.invalidate()
        journal.heal(2)
        assert journal.intact
        assert len(journal) == 0
        assert journal.floor_epoch == 2
        journal.append(2, "hash_insert", (5, 6), 35)
        assert len(journal.records_since(2)) == 1
        # records predating the rotation point stay unreachable
        with pytest.raises(JournalReplayError):
            journal.records_since(1)

    def test_drop_tail(self):
        journal = MetadataJournal()
        for i in range(5):
            journal.append(1, "hash_insert", (i,), 35)
        assert journal.drop_tail(2) == 2
        assert len(journal) == 3
        assert journal.drop_tail(10) == 3
        assert len(journal) == 0


def make_manager(interval=64, snapshots_kept=2):
    wmt = WayMapTable(HOME, REMOTE)
    table = SignatureHashTable(entries=64)
    buf = EvictionBuffer(capacity=8)
    manager = EndpointStateManager(
        "home",
        DurabilityPolicy(checkpoint_interval=interval, snapshots_kept=snapshots_kept),
        {"wmt": wmt, "hash": table, "evictbuf": buf},
    )
    manager.attach()
    return manager, wmt, table, buf


def mutate(wmt, table, buf, count=10, seed=0):
    rng = random.Random(seed)
    for i in range(count):
        remote_index = rng.randrange(REMOTE.sets)
        alias = rng.randrange(2)
        wmt.install(
            lid(HOME, remote_index + alias * REMOTE.sets, rng.randrange(HOME.ways)),
            lid(REMOTE, remote_index, rng.randrange(REMOTE.ways)),
        )
        table.insert(rng.getrandbits(32), LineId(rng.randrange(256)))
        buf.record(LineId(rng.randrange(64)), rng.randrange(1 << 20), bytes([i]) * 8)


def images(manager):
    return {
        name: structure.snapshot_state()
        for name, structure in manager.structures.items()
    }


class TestManager:
    def test_restore_reproduces_state_exactly(self):
        manager, wmt, table, buf = make_manager()
        mutate(wmt, table, buf, count=8)
        manager.checkpoint()
        mutate(wmt, table, buf, count=5, seed=1)
        before = images(manager)
        result = manager.restore()
        assert result.complete
        assert not result.cold
        assert result.records_replayed == 15  # 3 journaled ops × 5
        assert result.replay_bits > 0
        assert images(manager) == before

    def test_corrupt_newest_snapshot_falls_back_a_generation(self):
        manager, wmt, table, buf = make_manager()
        mutate(wmt, table, buf, count=4)
        manager.checkpoint()  # epoch 1 (older, intact)
        mutate(wmt, table, buf, count=4, seed=1)
        manager.checkpoint()  # epoch 2 (newest, about to be torn)
        mutate(wmt, table, buf, count=2, seed=2)
        before = images(manager)
        assert manager.corrupt_newest_snapshot(random.Random(3))
        result = manager.restore()
        assert result.corrupt_skipped == 1
        assert result.base_epoch == 1
        assert result.complete
        assert images(manager) == before

    def test_all_snapshots_corrupt_is_cold_but_replayable(self):
        manager, wmt, table, buf = make_manager(snapshots_kept=1)
        mutate(wmt, table, buf, count=3)
        manager.checkpoint()
        rng = random.Random(4)
        manager.corrupt_newest_snapshot(rng)
        result = manager.restore()
        assert result.cold
        assert result.corrupt_skipped == 1
        # journal floor is above epoch 0 → replay refused → incomplete
        assert not result.complete

    def test_poisoned_journal_is_incomplete(self):
        manager, wmt, table, buf = make_manager()
        mutate(wmt, table, buf, count=4)
        manager.checkpoint()
        mutate(wmt, table, buf, count=2, seed=1)
        manager.poison_journal()
        result = manager.restore()
        assert not result.complete
        assert result.base_epoch == 1

    def test_checkpoint_heals_poisoned_journal(self):
        manager, wmt, table, buf = make_manager()
        mutate(wmt, table, buf, count=4)
        manager.poison_journal()
        manager.checkpoint()
        assert manager.journal.intact
        mutate(wmt, table, buf, count=3, seed=1)
        result = manager.restore()
        assert result.complete

    def test_dropped_tail_changes_expected_progress(self):
        manager, wmt, table, buf = make_manager()
        mutate(wmt, table, buf, count=4)
        expected = manager.expected_progress()
        assert manager.drop_journal_tail(3) == 3
        assert manager.expected_progress() != expected
        result = manager.restore()
        # replay still "succeeds" — the handshake detects the staleness
        # by comparing progress, not the restore itself
        assert result.complete
        assert manager.expected_progress() == expected[:1] + (expected[1] - 3,)

    def test_auto_checkpoint_at_interval(self):
        manager, wmt, table, buf = make_manager(interval=9)
        mutate(wmt, table, buf, count=6)  # 18 records → 2 checkpoints
        assert manager.stats["checkpoints"] == 2
        assert manager.epoch == 2

    def test_snapshot_retention_window(self):
        manager, wmt, table, buf = make_manager(snapshots_kept=2)
        for seed in range(4):
            mutate(wmt, table, buf, count=2, seed=seed)
            manager.checkpoint()
        assert manager.snapshot_count == 2
        # journal retains back to the older kept snapshot's epoch
        assert manager.journal.floor_epoch == manager.epoch - 1

    def test_restore_does_not_journal_its_own_replay(self):
        manager, wmt, table, buf = make_manager()
        mutate(wmt, table, buf, count=4)
        manager.checkpoint()
        mutate(wmt, table, buf, count=2, seed=1)
        before = len(manager.journal)
        manager.restore()
        assert len(manager.journal) == before

    def test_evict_record_bits_include_parked_line(self):
        manager, wmt, table, buf = make_manager()
        buf.record(LineId(1), 0x40, b"\xaa" * 64)
        buf.record(LineId(2), 0x80, b"")
        with_line, without = manager.journal.records_since(0)[-2:]
        assert with_line.bits - without.bits == 64 * 8


# ---------------------------------------------------------------------------
# Journal-consumer robustness under a sabotaged shipping stream
# ---------------------------------------------------------------------------


_ACTIONS = st.lists(
    st.sampled_from(["ok", "drop", "flip", "truncate"]), min_size=1, max_size=12
)


def _sabotage(actions, rng):
    """Ship fault cycling through *actions*: None (lost) or the bytes
    to deliver (one flipped byte, a truncation, or untouched)."""
    cursor = {"i": 0}

    def fault(blob):
        action = actions[cursor["i"] % len(actions)]
        cursor["i"] += 1
        if action == "drop":
            return None
        if action == "flip":
            pos = rng.randrange(len(blob))
            return blob[:pos] + bytes([blob[pos] ^ 0x40]) + blob[pos + 1 :]
        if action == "truncate":
            return blob[: rng.randrange(len(blob))]
        return blob

    return fault


class TestShippedJournalRobustness:
    """The replication consumer of this journal (repro.replica) must be
    stale-or-healed, never silently wrong: any damage class applied to
    the shipped batch stream — bit flips, truncation, lost batches — is
    detected by checksum or sequence gap and answered with snapshot
    catch-up. Property-based: hypothesis drives the damage schedule
    over the in-process standby."""

    @settings(max_examples=50, deadline=None)
    @given(actions=_ACTIONS, seed=st.integers(min_value=0, max_value=1 << 16))
    def test_sabotaged_stream_never_silently_diverges(self, actions, seed):
        from repro.replica.plan import ReplicationPolicy
        from repro.replica.standby import WarmStandby

        manager, wmt, table, buf = make_manager(interval=10_000)
        replica = WarmStandby(
            {"home": manager},
            ReplicationPolicy(batch_records=4, max_lag_records=4),
            _sabotage(actions, random.Random(seed)),
        )
        mutate(wmt, table, buf, count=20, seed=seed)
        replica.pump(force=True)
        standby = replica.standbys["home"]
        # Every refusal was answered with a catch-up, never a partial
        # apply: a standby that claims the primary's progress while
        # consumable must hold a byte-identical image. (It may instead
        # be *stale* — a dropped final batch whose gap was never
        # exposed — but staleness is visible in the progress mismatch,
        # which is exactly what the kill adjudication checks.)
        if standby.clean and standby.applied_progress == manager.expected_progress():
            assert standby.image() == images(manager)
        damage = (
            standby.stats["integrity_failures"] + standby.stats["gaps_detected"]
        )
        assert standby.stats["catch_ups"] == replica.stats["catch_ups"]
        assert damage >= standby.stats["catch_ups"]
        # An explicit catch-up always converges the mirror, regardless
        # of the damage history.
        replica.catch_up("home")
        assert standby.clean
        assert standby.image() == images(manager)
        assert standby.applied_progress == manager.expected_progress()
