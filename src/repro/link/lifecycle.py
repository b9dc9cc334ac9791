"""The endpoint lifecycle of one CABLE link pair (``pair.lifecycle``).

:class:`~repro.core.encoder.CableLinkPair` carries lines across the
link; :class:`LinkLifecycle` owns what happens to the endpoints'
mirrored metadata between transfers: the per-side durability managers
(:mod:`repro.state`), the §III-F audit repair, crash restart and
standby promotion — which share one restore step — online
reconfiguration (:mod:`repro.tune`) and the replica slot
(:mod:`repro.replica`). The pair calls in only to step an in-flight
rebuild after each transfer and when its circuit breaker trips.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.compression.registry import make_reference_engine
from repro.core.config import CableConfig
from repro.link.recovery import EpochResync, ResyncSession
from repro.link.wire import wire_format_for
from repro.obs.registry import METRICS
from repro.obs.tracer import trace
from repro.tune.plan import GEOMETRY_KNOBS, TUNABLE_KNOBS

if TYPE_CHECKING:
    from repro.state.manager import EndpointStateManager

__all__ = ["FailoverOutcome", "LinkLifecycle"]

#: The two endpoints, in the order every per-side loop visits them.
SIDES = ("home", "remote")

Progress = Tuple[int, int]


@dataclass(frozen=True)
class FailoverOutcome:
    """What one standby promotion achieved."""

    #: True when both sides promoted replay-grade (clean standby, no
    #: backlog lost); False when the auditor had to reconcile.
    hot: bool
    #: Journaled records the asynchronous replication lag cost us.
    lost_records: int


class LinkLifecycle:
    """Durability, restore, reconfiguration and failover of one pair."""

    #: Config fields :meth:`apply_config` may change on a live pair
    #: (owned by :mod:`repro.tune.plan`); the rest is baked into
    #: construction and would need a rebuild, not a knob turn.
    _TUNABLE = TUNABLE_KNOBS - {"enabled"}

    def __init__(self, link) -> None:
        self.link = link
        #: One durability manager per side (none without durability).
        self.managers: Dict[str, EndpointStateManager] = {}
        #: The replica slot: an in-process WarmStandby, or None.
        self.replica = None
        #: The in-flight incremental home rebuild, if any.
        self.rebuild: Optional[ResyncSession] = None
        policy = link.config.durability
        if policy is not None:
            from repro.state.manager import EndpointStateManager

            for side in SIDES:
                manager = EndpointStateManager(
                    side, policy, self._structures(side), self._record_costs(side)
                )
                manager.attach()
                self.managers[side] = manager

    def _structures(self, side: str) -> Dict[str, object]:
        """*side*'s volatile metadata by section name: what a crash
        wipes, its manager persists and a standby mirrors (the cache
        data arrays survive; they are the ground truth)."""
        link = self.link
        if side == "home":
            return {
                "wmt": link.home_encoder.wmt,
                "hash": link.home_encoder.hash_table,
                "breaker": link.recovery_layer.breaker,
            }
        return {
            "hash": link.remote_decoder.hash_table,
            "evictbuf": link.remote_decoder.evict_buffer,
        }

    def _record_costs(self, side: str) -> Dict[str, int]:
        """Modelled bits per journal op; hash ops carry *side*'s LID."""
        homelid_bits = self.link.pair.home.geometry.lineid_bits
        remotelid_bits = self.link.config.remotelid_bits
        own_lid_bits = homelid_bits if side == "home" else remotelid_bits
        return {
            "wmt_install": homelid_bits + remotelid_bits,
            "wmt_inval_remote": remotelid_bits,
            "wmt_inval_home": homelid_bits,
            "hash_insert": 32 + own_lid_bits,
            "hash_remove": 32 + own_lid_bits,
            "evict_record": 32 + remotelid_bits + 32,
            "evict_ack": 32,
        }

    # ------------------------------------------------------------------
    # Audit repair and re-baselining
    # ------------------------------------------------------------------

    def resync(self):
        """Audit and repair both endpoints' metadata (§III-F auditor);
        returns the :class:`repro.core.sync.AuditReport`. A repairing
        pass re-baselines (:meth:`_rebaseline`)."""
        from repro.core.sync import audit  # lazy: sync imports the pair

        with trace("link.resync"):
            report = audit(self.link, repair=True)
        layer = self.link.recovery_layer
        if layer is not None:
            layer.health.bump("resyncs")
            layer.health.bump("resync_repairs", report.repairs)
        if report.repairs:
            self._rebaseline()
        return report

    def checkpoint(self) -> None:
        """Checkpoint both durability managers (none: no-op)."""
        for manager in self.managers.values():
            manager.checkpoint()

    def _reseed(self) -> None:
        if self.replica is not None:
            self.replica.reseed()

    def _rebaseline(self) -> None:
        """Follow a journal-bypassing bulk mutation (audit repair, hash
        reshape): checkpoint both durability managers so a later replay
        starts from the new image, and reseed the replica slot so its
        standby does too — a standby left on the old image would replay
        later batches on top of it and could still claim the primary's
        progress."""
        self.checkpoint()
        self._reseed()

    # ------------------------------------------------------------------
    # The restore step: crash restart and standby promotion
    # ------------------------------------------------------------------

    def _wipe(self, side: str) -> None:
        for structure in self._structures(side).values():
            structure.reset_state()

    def _restore(
        self, sides, install: Callable[[str, Progress], Tuple[Progress, object]]
    ) -> bool:
        """The one restore step of :meth:`crash_endpoint` and
        :meth:`failover`. Per side: capture the progress the peer last
        observed, wipe, install an image with journaling suspended
        (``install(side, expected)`` returns ``(progress,
        RestoreResult)``) and let the HELLO/EPOCH handshake adjudicate
        it. True when every side is replay-grade; otherwise the caller
        repairs from the cache arrays (:meth:`_rebuild`, or the audit
        in :meth:`failover`), which reseeds the replica slot."""
        layer = self.link.recovery_layer
        handshake = EpochResync(layer.policy, layer.health)
        replay = True
        for side in sides:
            manager = self.managers[side]
            expected = manager.expected_progress()
            self._wipe(side)
            manager.suspended = True
            try:
                restored = install(side, expected)
            finally:
                manager.suspended = False
            if handshake.reconnect(restored, expected) != "replay":
                replay = False
        return replay

    # ------------------------------------------------------------------
    # Crash / restart (repro.state + epoch resync)
    # ------------------------------------------------------------------

    def crash_endpoint(self, side: str, sabotage=(), sabotage_rng=None) -> str:
        """Kill one endpoint's metadata mid-run and bring it back.

        *side* is ``"home"`` or ``"remote"``. *sabotage* lists
        persistent-store faults applied before the restart:
        ``"snapshot"`` (flip a byte of the newest snapshot, needs
        *sabotage_rng*), ``"journal_poison"`` (torn journal device) and
        ``"journal_tail"`` (silently lose the newest records).

        Returns the recovery path taken: ``"replay"`` (snapshot +
        journal replay verified by the epoch handshake), ``"rebuild"``
        (handshake refused the restore; incremental audit-rebuild) or
        ``"ground-truth"`` (no durability manager; stop-the-world
        rebuild from the cache arrays).
        """
        if side not in SIDES:
            raise ValueError(f"unknown endpoint {side!r}")
        layer = self.link.recovery_layer
        if layer is None:
            raise RuntimeError(
                "crash_endpoint requires the framed link "
                "(set config.durability, config.recovery or config.faults)"
            )
        layer.health.bump("endpoint_crashes")
        if side not in self.managers:
            layer.health.bump("full_rebuilds")
            self._rebuild(side)
            return "ground-truth"

        def from_store(side: str, expected: Progress):
            # *expected* was captured before the sabotage: every
            # journaled op rode a delivered frame, so it is the peer's
            # view of the pre-crash progress.
            manager = self.managers[side]
            for kind in sabotage:
                if kind == "snapshot":
                    manager.corrupt_newest_snapshot(sabotage_rng)
                elif kind == "journal_poison":
                    manager.poison_journal()
                elif kind == "journal_tail":
                    count = sabotage_rng.randrange(1, 9) if sabotage_rng else 4
                    manager.drop_journal_tail(count)
                else:
                    raise ValueError(f"unknown sabotage {kind!r}")
            restored = manager.restore()
            return manager.expected_progress(), restored

        if self._restore((side,), from_store):
            return "replay"
        self._rebuild(side)
        return "rebuild"

    def _rebuild(self, side: str) -> None:
        """Drop *side*'s image, rebuild it from the cache arrays and
        reseed the slot before the next transfer. The home walks the
        remote cache (:class:`~repro.link.recovery.ResyncSession`) one
        chunk per transfer, or stop-the-world without a manager; the
        remote reindexes locally and its eviction buffer restarts cold
        (lost entries surface as failed rescues → RAW)."""
        self._wipe(side)
        manager = self.managers.get(side)
        if side == "remote":
            self._reindex("remote")
            if manager is not None:
                manager.checkpoint()
        else:
            durability = self.link.config.durability
            chunk = durability.resync_chunk_sets if durability else 4
            session = ResyncSession(self.link, self.link.recovery_layer.health, chunk)
            if manager is None:
                while not session.step():
                    pass
            else:
                self.rebuild = session
        self._reseed()

    def _reindex(self, *sides: str) -> None:
        """Re-insert the index-time signatures of every reference-usable
        remote-resident line into *sides*' hash tables — the remote's
        under its own LID, the home's under the live WMT's home LID
        (unlike :class:`~repro.link.recovery.ResyncSession`, nothing is
        byte-verified and no traffic is charged)."""
        link = self.link
        home, wmt = link.pair.home, link.home_encoder.wmt
        for remote_lid, line in link.pair.remote:
            for side in sides:
                if side == "home":
                    endpoint, lid = link.home_encoder, wmt.home_lid_for(remote_lid)
                    owner = None if lid is None else home.read_by_lineid(lid)
                else:
                    endpoint, lid, owner = link.remote_decoder, remote_lid, line
                usable = owner is not None and owner.state is not None
                if usable and owner.state.usable_as_reference:
                    for signature in endpoint.extractor.index_signatures(line.data):
                        endpoint.hash_table.insert(signature, lid)

    def step(self) -> None:
        """Advance an in-flight incremental rebuild by one chunk; the
        pair calls this after every transfer."""
        session = self.rebuild
        if session is not None and session.step():
            self.rebuild = None
            self.managers["home"].checkpoint()

    def drain_resync(self) -> None:
        """Finish any in-flight incremental rebuild (end of run)."""
        while self.rebuild is not None:
            self.step()

    def on_breaker_trip(self) -> None:
        """A tripping primary is a failing one: promote the standby
        rather than limp through cooldown; failing that, re-audit (a
        real link would retrain) so the post-cooldown window starts
        from synchronized metadata."""
        policy = self.link.recovery_layer.policy
        if policy.failover_on_trip and self.replica is not None:
            self.failover()
        elif policy.resync_on_trip:
            self.resync()

    # ------------------------------------------------------------------
    # Online reconfiguration (repro.tune)
    # ------------------------------------------------------------------

    def apply_config(self, target: CableConfig) -> frozenset:
        """Switch the live pair to *target*'s knob settings; returns
        the names of the fields that changed (empty: a no-op).

        The single safe point for online tuning, called only at epoch
        boundaries. In order: flush the replica slot (its journal ends
        at a consistent pre-change point), rebind the config on both
        endpoints and their shared extractor (which drops its memo when
        the extraction rules change), swap engines (and
        the wire format), then re-shape and rebuild the hash tables if
        the geometry moved — journaling suspended, then
        :meth:`_rebaseline`.
        """
        link = self.link
        changed = frozenset(
            f.name
            for f in fields(CableConfig)
            if getattr(target, f.name) != getattr(link.config, f.name)
        )
        if not changed:
            return changed
        illegal = changed - self._TUNABLE
        if illegal:
            raise ValueError(
                f"config fields {sorted(illegal)} cannot change on a live pair"
            )
        if self.replica is not None:
            self.replica.pump(force=True)
        link.config = target
        link.home_encoder.extractor.rebind(target)
        for endpoint in (link.home_encoder, link.remote_decoder):
            endpoint.config = target
            endpoint.pipeline.config = target
        if "engine" in changed:
            link.home_encoder.engine = make_reference_engine(target.engine)
            link.remote_decoder.engine = make_reference_engine(target.engine)
            if link.recovery_layer is not None:
                reliable = link.recovery_layer.link
                reliable.fmt = wire_format_for(target, link.home_encoder.engine)
                reliable.engine_name = target.engine
        if changed & GEOMETRY_KNOBS:
            self._reshape_hash_tables(target)
        return changed

    def _reshape_hash_tables(self, target: CableConfig) -> None:
        """Re-shape both signature hash tables and rebuild them from
        cache ground truth (local work, no link traffic)."""
        link = self.link
        for manager in self.managers.values():
            manager.suspended = True
        try:
            for endpoint, cache in (
                (link.home_encoder, link.pair.home),
                (link.remote_decoder, link.pair.remote),
            ):
                endpoint.hash_table.reconfigure(
                    max(1, int(cache.geometry.lines * target.hash_table_scale)),
                    target.hash_bucket_entries,
                )
            self._reindex("home", "remote")
        finally:
            for manager in self.managers.values():
                manager.suspended = False
        self._rebaseline()

    # ------------------------------------------------------------------
    # Warm-standby replication / failover (repro.replica)
    # ------------------------------------------------------------------

    def arm_replication(self, policy=None, ship_fault=None):
        """Put an in-process :class:`~repro.replica.standby.WarmStandby`
        on both endpoints' journals (needs durability) into the
        :attr:`replica` slot and return it. *ship_fault* optionally
        sabotages every shipped batch."""
        from repro.replica.plan import ReplicationPolicy
        from repro.replica.standby import WarmStandby

        if not self.managers:
            raise RuntimeError(
                "replication requires durability (set config.durability)"
            )
        self.replica = WarmStandby(
            dict(self.managers), policy or ReplicationPolicy(), ship_fault
        )
        return self.replica

    def failover(self) -> FailoverOutcome:
        """Kill the primary's metadata and promote the warm standby.

        The machine is gone, so the restore step installs each
        standby's mirror image instead of the persistent store's. A
        *clean* standby (every shipped record applied in order, empty
        backlog) is replay-grade; a lossy one is promoted warm and
        reconciled by the §III-F auditor.
        """
        from repro.state.manager import RestoreResult

        replica = self.replica
        if replica is None:
            raise RuntimeError("failover requires arm_replication() first")
        layer = self.link.recovery_layer
        if layer is None:
            raise RuntimeError("failover requires the framed link")
        layer.health.bump("failovers")
        lost: Dict[str, int] = {}

        def from_standby(side: str, expected: Progress):
            lost[side], clean, sections = replica.kill_primary(side)
            structures = self.managers[side].structures
            for name, image in sections.items():
                structures[name].restore_state(image)
            standby = replica.standbys[side]
            promoted = RestoreResult(
                base_epoch=standby.applied_progress[0],
                records_replayed=standby.stats["records_applied"],
                replay_bits=standby.stats["bits_applied"],
                complete=clean,
            )
            return (expected if clean else standby.applied_progress), promoted

        hot = self._restore(SIDES, from_standby)
        lost_total = sum(lost.values())
        layer.health.bump("replication_lost_records", lost_total)
        layer.health.bump("hot_promotions" if hot else "warm_promotions")
        # Checkpoint on the promoted image (the epoch bump sends stale
        # resumes through resync-before-grant), audit-repair a warm
        # image, and reseed the slot exactly once (a repairing audit
        # re-baselines by itself): the old primary rejoins as the new
        # standby.
        self.checkpoint()
        if hot or not self.resync().repairs:
            self._reseed()
        if METRICS.enabled:
            METRICS.counter(
                "replica.promotions_hot" if hot else "replica.promotions_warm"
            ).inc()
        return FailoverOutcome(hot=hot, lost_records=lost_total)
