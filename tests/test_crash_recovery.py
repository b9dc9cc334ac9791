"""Crash-consistent endpoint recovery on a live link (repro.state).

End-to-end coverage of the tentpole: versioned snapshots + journal
replay restore a crashed endpoint; the epoch handshake degrades to
incremental audit-rebuild when the restore cannot be proven complete;
every path ends with a clean audit and zero silent corruptions.
"""

import random

import pytest

from repro.core.config import CableConfig
from repro.core.sync import audit
from repro.fault.campaign import build_campaign_link, run_crash_campaign
from repro.fault.plan import FaultPlan, RecoveryPolicy
from repro.link.recovery import CircuitBreaker
from repro.state.plan import DurabilityPolicy


def make_link(durability=DurabilityPolicy(), **cable_overrides):
    config = CableConfig().with_overrides(
        durability=durability, **cable_overrides
    )
    link = build_campaign_link(FaultPlan(), RecoveryPolicy(), config)
    return link


def warm(link, accesses=300, writes=True, seed=0):
    rng = random.Random(seed)
    for i in range(accesses):
        addr = rng.randrange(120)
        is_write = writes and rng.random() < 0.25
        data = None
        if is_write:
            raw = bytearray(link.backing_read(addr))
            raw[0] = i & 0xFF
            data = bytes(raw)
        link.access(addr, is_write=is_write, write_data=data)
    return link


# ---------------------------------------------------------------------------
# Recovery paths
# ---------------------------------------------------------------------------


class TestCrashPaths:
    def test_home_crash_replays_journal(self):
        link = warm(make_link())
        path = link.lifecycle.crash_endpoint("home")
        assert path == "replay"
        assert link.health["journal_replays"] == 1
        assert link.health["replay_traffic_bits"] > 0
        assert audit(link).ok

    def test_remote_crash_replays_journal(self):
        link = warm(make_link())
        path = link.lifecycle.crash_endpoint("remote")
        assert path == "replay"
        assert audit(link).ok

    def test_torn_snapshot_detected_and_survived(self):
        link = warm(make_link())
        path = link.lifecycle.crash_endpoint(
            "home", sabotage=("snapshot",), sabotage_rng=random.Random(1)
        )
        assert link.health["snapshot_corruptions_detected"] >= 1
        link.lifecycle.drain_resync()
        assert audit(link).ok
        assert link.health["silent_corruptions"] == 0
        assert path in ("replay", "rebuild")

    def test_poisoned_journal_degrades_to_rebuild(self):
        link = warm(make_link())
        path = link.lifecycle.crash_endpoint("home", sabotage=("journal_poison",))
        assert path == "rebuild"
        assert link.health["full_rebuilds"] == 1
        link.lifecycle.drain_resync()
        assert audit(link).ok

    def test_lost_journal_tail_degrades_to_rebuild(self):
        link = warm(make_link())
        path = link.lifecycle.crash_endpoint(
            "remote", sabotage=("journal_tail",), sabotage_rng=random.Random(2)
        )
        assert path == "rebuild"
        assert audit(link).ok

    def test_no_durability_is_ground_truth(self):
        link = warm(make_link(durability=None))
        path = link.lifecycle.crash_endpoint("home")
        assert path == "ground-truth"
        assert link.health["rebuild_traffic_bits"] > 0
        assert audit(link).ok

    def test_rebuild_interleaves_with_live_traffic(self):
        link = warm(make_link())
        link.lifecycle.crash_endpoint("home", sabotage=("journal_poison",))
        assert link.lifecycle.rebuild is not None
        warm(link, accesses=400, seed=3)  # live accesses step the resync
        assert link.lifecycle.rebuild is None
        assert audit(link).ok

    def test_replay_cheaper_than_rebuild(self):
        replay_link = warm(make_link())
        replay_link.lifecycle.crash_endpoint("home")
        rebuild_link = warm(make_link(durability=None))
        rebuild_link.lifecycle.crash_endpoint("home")
        assert (
            replay_link.health["resync_traffic_bits"]
            < rebuild_link.health["resync_traffic_bits"]
        )

    def test_handshake_charged_per_crash(self):
        link = warm(make_link())
        link.lifecycle.crash_endpoint("home")
        per_crash = link.health["handshake_bits"]
        link.lifecycle.crash_endpoint("remote")
        assert link.health["handshake_bits"] == 2 * per_crash

    def test_crash_requires_recovery_layer(self):
        from repro.cache.hierarchy import InclusivePair
        from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
        from repro.core.encoder import CableLinkPair

        store = {}

        def read(addr):
            return store.setdefault(addr, bytes(64))

        pair = InclusivePair(
            SetAssociativeCache(CacheGeometry(4 * 1024, 4)),
            SetAssociativeCache(CacheGeometry(1 * 1024, 2)),
            read,
            lambda a, d: store.__setitem__(a, d),
        )
        link = CableLinkPair(CableConfig(), pair)
        assert link.recovery_layer is None
        with pytest.raises(RuntimeError):
            link.lifecycle.crash_endpoint("home")

    def test_unknown_side_rejected(self):
        link = make_link()
        with pytest.raises(ValueError):
            link.lifecycle.crash_endpoint("sideways")

    def test_writes_after_recovery_are_verified(self):
        link = warm(make_link())
        link.lifecycle.crash_endpoint("home", sabotage=("journal_poison",))
        warm(link, accesses=500, seed=4)  # verify=True would raise on escape
        assert link.health["silent_corruptions"] == 0


# ---------------------------------------------------------------------------
# Breaker clock injection (satellite: no wall-clock in tick_open)
# ---------------------------------------------------------------------------


class TestBreakerClock:
    POLICY = RecoveryPolicy(
        breaker_threshold=0.5,
        breaker_window=8,
        breaker_min_samples=4,
        breaker_cooldown=10,
    )

    def test_injected_clock_drives_cooldown(self):
        now = [0]
        breaker = CircuitBreaker(self.POLICY, clock=lambda: now[0])
        for __ in range(4):
            breaker.record(False)
        assert breaker.is_open
        now[0] += 9
        assert not breaker.tick_open()  # 9 < cooldown
        now[0] += 1
        assert breaker.tick_open()  # exactly cooldown elapsed
        assert breaker.last_open_duration == 10

    def test_default_clock_counts_events_not_wall_time(self):
        breaker = CircuitBreaker(self.POLICY)
        for __ in range(4):
            breaker.record(False)
        opened_at = breaker._opened_at
        assert opened_at == breaker.clock()
        # cooldown-1 ticks stay open, the cooldown-th re-arms
        for __ in range(self.POLICY.breaker_cooldown - 1):
            assert not breaker.tick_open()
        assert breaker.tick_open()

    def test_breaker_state_survives_snapshot(self):
        breaker = CircuitBreaker(self.POLICY)
        for __ in range(4):
            breaker.record(False)
        image = breaker.snapshot_state()
        other = CircuitBreaker(self.POLICY)
        other.restore_state(image)
        assert other.is_open
        assert other.trips == breaker.trips
        assert other.snapshot_state() == image


# ---------------------------------------------------------------------------
# Audit repairs (satellite: evictbuf residue + breaker liveness)
# ---------------------------------------------------------------------------


class TestAuditRepairs:
    def test_acked_residue_repaired(self):
        link = warm(make_link())
        buffer = link.remote_decoder.evict_buffer
        from repro.cache.setassoc import LineId

        seq = buffer.record(LineId(1), 0x40, b"\xab" * 64)
        buffer._acked = seq  # ack without dropping: restore-path residue
        report = audit(link, repair=True)
        assert any("I5" in v for v in report.violations)
        assert report.repaired.get("evictbuf", 0) >= 1
        assert audit(link).ok

    def test_shadowed_duplicate_repaired(self):
        link = warm(make_link())
        buffer = link.remote_decoder.evict_buffer
        from repro.cache.setassoc import LineId

        buffer.record(LineId(2), 0x80, b"\x01" * 64)
        buffer.record(LineId(2), 0x80, b"\x02" * 64)
        report = audit(link, repair=True)
        assert report.repaired.get("evictbuf", 0) == 1
        # the newer copy survives
        assert buffer.rescue(LineId(2), 0x80) == b"\x02" * 64

    def test_stuck_breaker_repaired(self):
        link = warm(make_link())
        breaker = link.recovery_layer.breaker
        breaker.is_open = True
        breaker._opened_at = (
            breaker.clock() - breaker.policy.breaker_cooldown - 5
        )
        report = audit(link, repair=True)
        assert any("B1" in v for v in report.violations)
        assert report.repaired.get("breaker", 0) == 1
        assert not breaker.is_open
        assert audit(link).ok

    def test_resync_checkpoints_after_repairs(self):
        link = warm(make_link())
        epoch_before = link.lifecycle.managers["home"].epoch
        wmt = link.home_encoder.wmt
        for index, row in enumerate(wmt._entries):
            for way in range(len(row)):
                row[way] = None  # wreck the WMT → audit must repair
        report = link.lifecycle.resync()
        assert report.repairs > 0
        assert link.lifecycle.managers["home"].epoch > epoch_before


# ---------------------------------------------------------------------------
# Campaign & memlink integration
# ---------------------------------------------------------------------------


class TestCampaign:
    PLAN = FaultPlan(
        seed=11,
        home_crash_rate=0.05,
        remote_crash_rate=0.05,
        snapshot_corrupt_rate=0.3,
        journal_loss_rate=0.3,
    )

    def test_durable_campaign_contract(self):
        report = run_crash_campaign(
            self.PLAN, durability=DurabilityPolicy(), accesses=800
        )
        assert report.kill_points > 30
        assert report.ok
        assert report.replays > 0
        assert report.rebuilds > 0
        assert report.health["snapshot_corruptions_detected"] > 0
        assert report.crash_stats["snapshot_corruptions"] > 0

    def test_baseline_campaign_all_ground_truth(self):
        report = run_crash_campaign(self.PLAN, durability=None, accesses=400)
        assert report.ok
        assert report.outcomes.get("ground-truth", 0) == report.kill_points
        assert report.replays == 0

    def test_campaign_deterministic(self):
        a = run_crash_campaign(
            self.PLAN, durability=DurabilityPolicy(), accesses=300
        )
        b = run_crash_campaign(
            self.PLAN, durability=DurabilityPolicy(), accesses=300
        )
        assert a.outcomes == b.outcomes
        assert a.health == b.health

    def test_memlink_scripted_crashes(self):
        from repro.sim.memlink import MemLinkConfig, run_memlink

        config = MemLinkConfig(
            scheme="cable",
            accesses=1200,
            llc_bytes=32 * 1024,
            l4_bytes=128 * 1024,
            ws_scale=32 / 1024,
            cable=CableConfig(durability=DurabilityPolicy()),
            crash_points=((400, "home"), (800, "remote")),
        )
        result = run_memlink("omnetpp", config)
        assert result.health["endpoint_crashes"] == 2
        assert result.health["silent_corruptions"] == 0
        assert result.effective_ratio > 1.0
