"""Warm-standby replication and failover (repro.replica).

Unit coverage for the replication subsystem: the CRC-guarded batch
codec (roundtrip + every damage class rejected whole), the standby's
three-state machine, the in-process channel's structural lag bound and
catch-up path, the hot/warm adjudication at a primary kill — including
the lost-final-batch case whose gap no later delivery ever exposes —
and the encoder-level failover that wires it all to the live link.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.setassoc import CacheGeometry, LineId
from repro.core.config import CableConfig
from repro.core.errors import (
    BatchGapError,
    BatchIntegrityError,
    LinkRecoveryError,
    ReplicationError,
)
from repro.core.evictbuf import EvictionBuffer
from repro.core.hashtable import SignatureHashTable
from repro.core.sync import audit
from repro.core.wmt import WayMapTable
from repro.fault.campaign import build_campaign_link
from repro.fault.injectors import FailoverInjector
from repro.fault.plan import FaultPlan, RecoveryPolicy
from repro.replica.batch import OPS, JournalBatch, decode_batch, encode_batch
from repro.replica.plan import FailoverPlan, ReplicationPolicy
from repro.replica.standby import WarmStandby
from repro.state.journal import JournalRecord
from repro.state.manager import EndpointStateManager
from repro.state.plan import DurabilityPolicy

HOME = CacheGeometry(16 * 1024, 8)
REMOTE = CacheGeometry(4 * 1024, 4)


def lid(geom, index, way):
    return LineId.pack(index, way, geom.way_bits)


def make_manager(interval=10_000):
    """A primary endpoint whose structures journal through a manager.

    The checkpoint interval is huge so no auto-checkpoint truncates
    the journal mid-test (progress arithmetic stays transparent).
    """
    wmt = WayMapTable(HOME, REMOTE)
    table = SignatureHashTable(entries=64)
    buf = EvictionBuffer(capacity=8)
    manager = EndpointStateManager(
        "home",
        DurabilityPolicy(checkpoint_interval=interval),
        {"wmt": wmt, "hash": table, "evictbuf": buf},
    )
    manager.attach()
    return manager, wmt, table, buf


def mutate(wmt, table, buf, count=10, seed=0):
    """Journal 3*count records across all three structures."""
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


class _DropNth:
    """Ship fault: lose exactly the n-th shipped batch (1-based)."""

    def __init__(self, n):
        self.n = n
        self.count = 0

    def __call__(self, blob):
        self.count += 1
        return None if self.count == self.n else blob


class _CorruptNth:
    """Ship fault: flip one byte of the n-th shipped batch (1-based)."""

    def __init__(self, n, pos=7):
        self.n = n
        self.pos = pos
        self.count = 0

    def __call__(self, blob):
        self.count += 1
        if self.count != self.n:
            return blob
        pos = self.pos % len(blob)
        return blob[:pos] + bytes([blob[pos] ^ 0x40]) + blob[pos + 1 :]


# ---------------------------------------------------------------------------
# Batch codec
# ---------------------------------------------------------------------------

_args = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.binary(max_size=24),
    ),
    max_size=4,
).map(tuple)

_records = st.lists(
    st.builds(
        JournalRecord,
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.sampled_from(OPS),
        _args,
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    ),
    max_size=5,
).map(tuple)

_batches = st.builds(
    JournalBatch,
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    ),
    _records,
)


class TestBatchCodec:
    @settings(max_examples=60, deadline=None)
    @given(_batches)
    def test_roundtrip_is_exact(self, batch):
        assert decode_batch(encode_batch(batch)) == batch

    @settings(max_examples=60, deadline=None)
    @given(_batches, st.data())
    def test_any_single_byte_flip_is_rejected(self, batch, data):
        blob = encode_batch(batch)
        pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        damaged = blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1 :]
        with pytest.raises(BatchIntegrityError):
            decode_batch(damaged)

    @settings(max_examples=60, deadline=None)
    @given(_batches, st.data())
    def test_any_truncation_is_rejected(self, batch, data):
        blob = encode_batch(batch)
        keep = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(BatchIntegrityError):
            decode_batch(blob[:keep])

    @settings(max_examples=40, deadline=None)
    @given(_batches, st.binary(min_size=1, max_size=8))
    def test_trailing_garbage_is_rejected(self, batch, tail):
        with pytest.raises(BatchIntegrityError):
            decode_batch(encode_batch(batch) + tail)

    def test_unshippable_op_refused_at_encode(self):
        bad = JournalBatch(
            seq=0,
            progress=(0, 1),
            records=(JournalRecord(0, "not_a_journal_op", (), 0),),
        )
        with pytest.raises(ReplicationError):
            encode_batch(bad)


# ---------------------------------------------------------------------------
# Standby state machine + in-process replication channel
# ---------------------------------------------------------------------------


def make_warm_standby(ship_fault=None, batch_records=4, max_lag_records=8):
    """A WarmStandby on one primary journal (its side is "home")."""
    manager, wmt, table, buf = make_manager()
    policy = ReplicationPolicy(
        batch_records=batch_records, max_lag_records=max_lag_records
    )
    standby = WarmStandby({"home": manager}, policy, ship_fault)
    return manager, (wmt, table, buf), standby


class TestReplicator:
    """The in-process channel: journal shipper -> WarmStandby."""

    def test_lag_bound_is_structural(self):
        manager, (wmt, table, buf), rep = make_warm_standby(max_lag_records=8)
        mutate(wmt, table, buf, count=40)
        # 120 journaled records, yet the backlog never exceeded the
        # policy bound: shipping is forced at the threshold, not polled.
        assert rep.stats["lag_peak"] <= 8
        assert len(rep.shippers["home"].pending) < 8
        rep.pump(force=True)
        assert len(rep.shippers["home"].pending) == 0
        assert rep.standbys["home"].clean
        assert rep.standbys["home"].image() == images(manager)
        assert rep.standbys["home"].applied_progress == manager.expected_progress()

    def test_batches_arrive_in_sequence(self):
        manager, (wmt, table, buf), rep = make_warm_standby()
        mutate(wmt, table, buf, count=12)
        rep.pump(force=True)
        standby = rep.standbys["home"]
        assert standby.stats["batches_applied"] == rep.stats["batches_shipped"]
        assert standby.next_seq == rep.stats["batches_shipped"]
        assert rep.stats["batches_lost"] == 0

    def test_dropped_batch_surfaces_as_gap_then_catch_up(self):
        fault = _DropNth(2)
        manager, (wmt, table, buf), rep = make_warm_standby(ship_fault=fault)
        mutate(wmt, table, buf, count=12)
        rep.pump(force=True)
        assert rep.stats["batches_lost"] == 1
        assert rep.standbys["home"].stats["gaps_detected"] == 1
        assert rep.stats["catch_ups"] == 1
        # Catch-up healed the standby back to a consumable mirror.
        assert rep.standbys["home"].clean
        assert rep.standbys["home"].image() == images(manager)

    def test_corrupted_batch_refused_whole_then_catch_up(self):
        fault = _CorruptNth(1)
        manager, (wmt, table, buf), rep = make_warm_standby(ship_fault=fault)
        mutate(wmt, table, buf, count=12)
        rep.pump(force=True)
        assert rep.standbys["home"].stats["integrity_failures"] == 1
        assert rep.stats["catch_ups"] >= 1
        assert rep.standbys["home"].clean
        assert rep.standbys["home"].image() == images(manager)

    def test_catch_up_drops_backlog_no_double_apply(self):
        # Corrupt the first cut while two more sit in the backlog: the
        # snapshot catch-up is cut from the *live* structures, whose
        # state already includes the backlog's effects — shipping those
        # records afterwards would apply them twice (visible on the
        # eviction-buffer ring, which is order/occupancy sensitive).
        fault = _CorruptNth(1)
        manager, (wmt, table, buf), rep = make_warm_standby(
            ship_fault=fault, batch_records=4, max_lag_records=100
        )
        mutate(wmt, table, buf, count=4)  # 12 records pending, no auto-pump
        rep.pump(force=True)
        assert rep.stats["catch_ups"] == 1
        assert len(rep.shippers["home"].pending) == 0
        assert rep.stats["records_shipped"] == 4  # only the corrupted cut
        assert rep.standbys["home"].image() == images(manager)
        # The channel keeps working after the heal.
        mutate(wmt, table, buf, count=4, seed=1)
        rep.pump(force=True)
        assert rep.standbys["home"].image() == images(manager)

    def test_consume_while_awaiting_catch_up_is_refused(self):
        manager, (wmt, table, buf), rep = make_warm_standby(max_lag_records=100)
        mutate(wmt, table, buf, count=2)
        rep.standbys["home"].state = "catching_up"
        blob = encode_batch(JournalBatch(seq=0, progress=(0, 1), records=()))
        with pytest.raises(BatchGapError):
            rep.standbys["home"].consume(blob)

    def test_promote_is_terminal(self):
        manager, (wmt, table, buf), rep = make_warm_standby()
        mutate(wmt, table, buf, count=4)
        rep.pump(force=True)
        rep.standbys["home"].promote()
        blob = encode_batch(JournalBatch(seq=99, progress=(0, 1), records=()))
        with pytest.raises(ReplicationError):
            rep.standbys["home"].consume(blob)
        with pytest.raises(ReplicationError):
            rep.standbys["home"].catch_up(b"", (0, 0), 0)


class TestKillAdjudication:
    def test_kill_after_full_pump_is_clean(self):
        manager, (wmt, table, buf), rep = make_warm_standby()
        mutate(wmt, table, buf, count=12)
        rep.pump(force=True)
        lost, clean, sections = rep.kill_primary("home")
        assert (lost, clean) == (0, True)
        # The promoted image is byte-identical to the dead primary's.
        assert sections == images(manager)

    def test_kill_with_backlog_is_lossy(self):
        manager, (wmt, table, buf), rep = make_warm_standby(
            batch_records=4, max_lag_records=100
        )
        mutate(wmt, table, buf, count=3)  # 9 records, never shipped
        lost, clean, _ = rep.kill_primary("home")
        assert lost == 9
        assert not clean
        assert rep.stats["lost_records"] == 9

    def test_lost_final_batch_is_never_adjudicated_hot(self):
        # The hole no sequence gap ever exposes: the LAST batch of a
        # pump is dropped in flight and the primary dies before any
        # later delivery could reveal the gap. The standby still looks
        # clean (in-order history, empty backlog) — only the progress
        # comparison against the primary's journal head catches it.
        fault = _DropNth(2)
        manager, (wmt, table, buf), rep = make_warm_standby(
            ship_fault=fault, batch_records=4, max_lag_records=100
        )
        for i in range(8):
            manager.structures["hash"].insert(i + 1, LineId(i))
        rep.pump(force=True)  # ships 2 batches; the 2nd vanishes
        assert rep.standbys["home"].clean  # the gap was never observed
        lost, clean, _ = rep.kill_primary("home")
        assert lost == 0  # backlog was empty...
        assert not clean  # ...but the promotion must still be warm
        assert rep.standbys["home"].applied_progress != manager.expected_progress()

    def test_reseed_rejoins_as_fresh_standby(self):
        manager, (wmt, table, buf), rep = make_warm_standby()
        mutate(wmt, table, buf, count=8)
        rep.pump(force=True)
        rep.kill_primary("home")
        rep.reseed()
        assert rep.stats["reseeds"] == 1
        assert rep.standbys["home"].clean
        assert rep.standbys["home"].next_seq == 0
        # The new standby mirrors the live image and consumes again.
        assert rep.standbys["home"].image() == images(manager)
        mutate(wmt, table, buf, count=4, seed=2)
        rep.pump(force=True)
        assert rep.standbys["home"].image() == images(manager)


# ---------------------------------------------------------------------------
# Failover kill/sabotage schedule (repro.fault.FailoverInjector)
# ---------------------------------------------------------------------------


class TestFailoverInjector:
    def test_scripted_kill_fires_exactly_once(self):
        injector = FailoverInjector(FailoverPlan(seed=3, scripted_kills=(5,)))
        assert not injector.decide_kill(4)
        assert injector.decide_kill(5)
        assert not injector.decide_kill(5)
        assert injector.stats["scripted_kills"] == 1

    def test_kill_rate_extremes(self):
        always = FailoverInjector(FailoverPlan(seed=3, kill_rate=1.0))
        never = FailoverInjector(FailoverPlan(seed=3, kill_rate=0.0))
        assert all(always.decide_kill(i) for i in range(10))
        assert not any(never.decide_kill(i) for i in range(10))

    def test_ship_faults_are_detectable(self):
        blob = encode_batch(
            JournalBatch(
                seq=0, progress=(1, 4), records=(JournalRecord(1, OPS[0], (1, 2), 8),)
            )
        )
        dropper = FailoverInjector(FailoverPlan(seed=3, batch_drop_rate=1.0))
        assert dropper.ship(blob) is None
        assert dropper.stats["batches_dropped"] == 1
        flipper = FailoverInjector(FailoverPlan(seed=3, batch_corrupt_rate=1.0))
        damaged = flipper.ship(blob)
        assert damaged is not None and damaged != blob
        assert len(damaged) == len(blob)
        with pytest.raises(BatchIntegrityError):
            decode_batch(damaged)

    def test_same_seed_same_schedule(self):
        plan = FailoverPlan(seed=9, kill_rate=0.3, scripted_kills=(2,))
        first = [FailoverInjector(plan).decide_kill(i) for i in range(50)]
        second = [FailoverInjector(plan).decide_kill(i) for i in range(50)]
        assert first == second


# ---------------------------------------------------------------------------
# Encoder-level failover on a live link
# ---------------------------------------------------------------------------


def make_replicated_link(recovery=None, ship_fault=None, **replication):
    config = CableConfig().with_overrides(durability=DurabilityPolicy())
    link = build_campaign_link(
        FaultPlan(), recovery or RecoveryPolicy(), config, seed=11
    )
    link.lifecycle.arm_replication(
        ReplicationPolicy(**replication) if replication else None, ship_fault
    )
    return link


def warm(link, accesses=200, seed=0):
    rng = random.Random(seed)
    for i in range(accesses):
        addr = rng.randrange(120)
        is_write = rng.random() < 0.25
        data = None
        if is_write:
            raw = bytearray(link.backing_read(addr))
            raw[0] = i & 0xFF
            data = bytes(raw)
        try:
            link.access(addr, is_write=is_write, write_data=data)
        except LinkRecoveryError:
            pass
    return link


class TestLinkFailover:
    def test_failover_requires_replication(self):
        config = CableConfig().with_overrides(durability=DurabilityPolicy())
        link = build_campaign_link(FaultPlan(), RecoveryPolicy(), config)
        with pytest.raises(RuntimeError):
            link.lifecycle.failover()

    def test_replication_requires_durability(self):
        link = build_campaign_link(FaultPlan(), RecoveryPolicy())
        with pytest.raises(RuntimeError):
            link.lifecycle.arm_replication()

    def test_hot_failover_after_full_pump(self):
        link = make_replicated_link()
        warm(link)
        link.lifecycle.replica.pump(force=True)
        epoch_before = link.lifecycle.managers["home"].expected_progress()[0]
        outcome = link.lifecycle.failover()
        assert outcome.hot
        assert outcome.lost_records == 0
        assert link.health["hot_promotions"] == 1
        assert link.health["failovers"] == 1
        # Promotion bumps the epoch: live sessions observe it and stale
        # resumes get redirected through resync-before-grant.
        assert link.lifecycle.managers["home"].expected_progress()[0] > epoch_before
        assert audit(link).ok
        # The link keeps serving verified traffic on the promoted image.
        warm(link, accesses=80, seed=1)
        assert audit(link).ok
        assert link.health["silent_corruptions"] == 0

    def test_warm_failover_with_backlog_resyncs(self):
        link = make_replicated_link(batch_records=16, max_lag_records=4096)
        warm(link)
        # The huge lag bound kept everything in the backlog: this kill
        # loses records and the promotion must be adjudicated warm.
        assert any(s.pending for s in link.lifecycle.replica.shippers.values())
        outcome = link.lifecycle.failover()
        assert not outcome.hot
        assert outcome.lost_records > 0
        assert link.health["warm_promotions"] == 1
        assert link.health["replication_lost_records"] == outcome.lost_records
        # Warm promotion reconciled against cache ground truth.
        assert link.health["resyncs"] >= 1
        assert audit(link).ok
        warm(link, accesses=80, seed=2)
        assert audit(link).ok
        assert link.health["silent_corruptions"] == 0

    def test_replicators_reseed_after_failover(self):
        link = make_replicated_link()
        warm(link, accesses=120)
        link.lifecycle.failover()
        # Exactly one reseed per failover, warm or hot.
        assert link.lifecycle.replica.stats["reseeds"] == 1
        assert all(s.clean for s in link.lifecycle.replica.standbys.values())
        # Old primary rejoined as standby: a second failover works too.
        warm(link, accesses=80, seed=3)
        link.lifecycle.replica.pump(force=True)
        assert link.lifecycle.failover().hot
        assert link.lifecycle.replica.stats["reseeds"] == 2
        assert link.health["failovers"] == 2
        assert audit(link).ok

    def test_hot_failover_after_repairing_resync_audits_clean(self):
        # A repairing resync is a journal-bypassing bulk mutation: the
        # standby must be re-baselined with the managers, or a later,
        # fully pumped kill is adjudicated hot and restores the
        # pre-repair image.
        link = make_replicated_link()
        warm(link)
        link.lifecycle.replica.pump(force=True)
        wmt = link.home_encoder.wmt
        tracked = next(
            remote_lid
            for remote_lid, _line in link.pair.remote
            if wmt.home_lid_for(remote_lid) is not None
        )
        wmt.invalidate_remote(tracked)  # journaled damage
        assert link.lifecycle.resync().repairs == 1
        warm(link, 60, seed=5)
        link.lifecycle.replica.pump(force=True)
        link.lifecycle.failover()
        assert audit(link).ok

    def test_breaker_trip_promotes_standby(self):
        # A primary failing hard enough to trip the breaker is treated
        # as dead: failover_on_trip promotes the standby instead of
        # limping through cooldown.
        recovery = RecoveryPolicy(failover_on_trip=True)
        config = CableConfig().with_overrides(durability=DurabilityPolicy())
        link = build_campaign_link(
            FaultPlan.uniform(0.35, seed=5), recovery, config, seed=11
        )
        link.lifecycle.arm_replication(
            ReplicationPolicy(batch_records=4, max_lag_records=8)
        )
        warm(link, accesses=400, seed=4)
        assert link.health["breaker_trips"] >= 1
        assert link.health["failovers"] >= 1
        assert (
            link.health["hot_promotions"] + link.health["warm_promotions"]
            == link.health["failovers"]
        )
        link.lifecycle.drain_resync()
        assert audit(link).ok
        assert link.health["silent_corruptions"] == 0


def journaled_sections(image):
    """The journaled sections of a per-structure image (the breaker is
    snapshot-only statistics, free to differ)."""
    return {
        name: section
        for name, section in image.items()
        if name in EndpointStateManager.JOURNALED
    }


@pytest.mark.parametrize(
    "kill, sabotage",
    [
        (side, sabotage)
        for side in ("home", "remote")
        for sabotage in (None, "journal_poison", "journal_tail")
    ]
    + [("failover", None)],
    ids=lambda value: value or "clean",
)
def test_restore_leaves_no_stale_standby(kill, sabotage):
    # Crash restart and failover share one restore step. (b) A replay
    # restart or hot promotion restores the pre-kill image byte for
    # byte. (a) Every other restore bypasses the journal, so the slot
    # must be reseeded before the next transfer: a standby that still
    # claims the primary's progress must hold the primary's image.
    link = make_replicated_link()
    warm(link)
    lifecycle = link.lifecycle
    lifecycle.replica.pump(force=True)
    managers = lifecycle.managers
    before = {side: journaled_sections(images(m)) for side, m in managers.items()}
    if kill == "failover":
        assert lifecycle.failover().hot
        replayed = tuple(managers)
    else:
        path = lifecycle.crash_endpoint(kill, sabotage=(sabotage,) if sabotage else ())
        assert path == ("rebuild" if sabotage else "replay")
        replayed = () if sabotage else (kill,)
    for side in replayed:
        assert journaled_sections(images(managers[side])) == before[side]
    warm(link, accesses=3, seed=7)
    lifecycle.replica.pump(force=True)
    for side, manager in managers.items():
        standby = lifecycle.replica.standbys[side]
        if standby.clean and standby.applied_progress == manager.expected_progress():
            assert journaled_sections(standby.image()) == journaled_sections(
                images(manager)
            ), side
