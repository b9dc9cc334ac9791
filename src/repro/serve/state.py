"""Per-session endpoint state, split from transport.

A :class:`SessionState` owns everything about one client's *link
state*: the verified :class:`~repro.core.encoder.CableLinkPair`, its
backing store, the listener that captures each access's transfer
records, the kill schedule and the per-session tuner. The durable
epoch managers, warm-standby replication and the failover path belong
to the pair's :class:`~repro.link.lifecycle.LinkLifecycle`, which this
class drives. It knows nothing about sockets, queues, senders or
retransmit windows — those live in
:class:`repro.serve.session.Session`, which composes one of these.

The split is load-bearing twice over: failover promotes *state* while
the transport keeps serving (the retransmit window answers NACKs for
frames encoded before the promotion, and queued accesses continue
against the promoted metadata), and a future sharded service can move
a ``SessionState`` between worker processes without dragging a
transport along.
"""

from __future__ import annotations

import random
import struct
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.cache.hierarchy import InclusivePair
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.core.config import CableConfig
from repro.core.encoder import CableLinkPair, TransferRecord
from repro.fault.injectors import FailoverInjector
from repro.fault.plan import RecoveryPolicy
from repro.obs.registry import METRICS
from repro.replica.shipper import SHIPPER_STATS

_CTR_RESYNCS = METRICS.counter("serve.session_resyncs")
_CTR_KILLS = METRICS.counter("replica.primary_kills")


@lru_cache(maxsize=1024)
def _archetype(seed: int, line_bytes: int) -> bytes:
    rng = random.Random(seed)
    words = [rng.getrandbits(32) | 0x01000000 for _ in range(line_bytes // 4)]
    return struct.pack(f"<{len(words)}I", *words)


def synthetic_line(tag: int, addr: int, line_bytes: int = 64) -> bytes:
    """Deterministic backing-store content for (session tag, addr).

    Five archetype lines stamped with the address — the same shape the
    fault campaigns use, so reference compression engages without the
    server needing any knowledge of the client's workload model. Each
    tag's archetypes are drawn once and memoized.
    """
    archetype = _archetype((tag << 3) | (addr % 5), line_bytes)
    return archetype[:-4] + (addr & 0xFFFFFFFF).to_bytes(4, "little")


class SessionState:
    """One client's endpoint pair, durable epochs, and standby."""

    def __init__(self, session_id: int, client_tag: int, config) -> None:
        self.session_id = session_id
        self.client_tag = client_tag
        self.config = config
        overrides = {"durability": config.durability}
        replication = getattr(config, "replication", None)
        if replication is not None:
            # Replicated sessions run the framed link: failover needs
            # the recovery layer's health counters and HELLO/EPOCH
            # handshake, and a tripped breaker becomes the failover
            # trigger instead of an in-place resync.
            overrides["recovery"] = RecoveryPolicy(failover_on_trip=True)
        cable = CableConfig().with_overrides(**overrides)
        home = SetAssociativeCache(CacheGeometry(config.home_kb * 1024, 8))
        remote = SetAssociativeCache(CacheGeometry(config.remote_kb * 1024, 4))
        store: Dict[int, bytes] = {}

        def backing_read(addr: int) -> bytes:
            data = store.get(addr)
            if data is None:
                data = synthetic_line(client_tag, addr, cable.line_bytes)
                store[addr] = data
            return data

        def backing_write(addr: int, data: bytes) -> None:
            store[addr] = data
            hook = self.on_store_write
            if hook is not None:
                hook(addr, data)

        #: Written-back line content; unwritten addresses fall back to
        #: the deterministic synthetic lines, so only this dict needs
        #: shipping to reproduce the backing store on another worker.
        self.store = store
        #: Tee for backing-store writes (a cluster worker ships them so
        #: the session promoted on its buddy serves the written data,
        #: not the synthetic original).
        self.on_store_write = None
        self.pair = CableLinkPair(
            cable,
            InclusivePair(home, remote, backing_read, backing_write),
        )
        #: This access's transfer records, in order; the session ships
        #: each record's frame and clears the list.
        self.capture: List[TransferRecord] = []
        self.pair.listeners.append(self.capture.append)
        # Warm-standby replication + deterministic kill schedule.
        self.failover_faults: Optional[FailoverInjector] = None
        failover_plan = getattr(config, "failover", None)
        if failover_plan is not None:
            plan = failover_plan.scaled(seed=failover_plan.seed ^ client_tag)
            self.failover_faults = FailoverInjector(plan)
        if replication is not None:
            self.pair.lifecycle.arm_replication(
                replication,
                None if self.failover_faults is None else self.failover_faults.ship,
            )
        #: Per-session online knob controller (repro.tune). Wire-safe
        #: arms only — the client decodes with the format negotiated at
        #: OPEN, so engine/width knobs are off the table here. Knob
        #: changes land through ``LinkLifecycle.apply_config``, which
        #: keeps the replica slot's journal epoch-consistent.
        self.tuner = None
        tuning = getattr(config, "tuning", None)
        if tuning is not None:
            from repro.tune.controller import KnobController

            self.tuner = KnobController(
                self.pair, tuning, wire_safe=True, seed_context=(client_tag,)
            )
        self.stats = {
            "kills": 0,
            "hot_promotions": 0,
            "warm_promotions": 0,
            "lost_records": 0,
        }

    # ------------------------------------------------------------------
    # Epochs & resync
    # ------------------------------------------------------------------

    def progress(self) -> Tuple[int, int]:
        """The durable (epoch, records) the home endpoint has reached —
        what a well-behaved client should echo in its resume HELLO."""
        return self.pair.lifecycle.managers["home"].expected_progress()

    def resync_stale_resume(self) -> None:
        """The client's epoch disagreed with durable state: audit and
        repair both endpoints (§III-F), then re-baseline the managers
        so the granted epoch is trustworthy."""
        lifecycle = self.pair.lifecycle
        lifecycle.resync()
        lifecycle.checkpoint()
        if METRICS.enabled:
            _CTR_RESYNCS.inc()

    # ------------------------------------------------------------------
    # Adaptive tuning (repro.tune)
    # ------------------------------------------------------------------

    def tune_rollup(self) -> Optional[Dict[str, object]]:
        return None if self.tuner is None else self.tuner.rollup()

    # ------------------------------------------------------------------
    # Replication / failover
    # ------------------------------------------------------------------

    def maybe_kill_primary(self, access_index: int) -> bool:
        """Roll the deterministic kill schedule for one completed
        access; on a kill, fail over to the warm standby mid-traffic.
        (A kill schedule implies replication: ``ServeConfig`` refuses
        one without the other.)"""
        faults = self.failover_faults
        if faults is None or not faults.decide_kill(access_index):
            return False
        self.kill_primary()
        return True

    def kill_primary(self) -> bool:
        """Kill the primary and promote the standby; returns hot."""
        outcome = self.pair.lifecycle.failover()
        self.stats["kills"] += 1
        self.stats["lost_records"] += outcome.lost_records
        if outcome.hot:
            self.stats["hot_promotions"] += 1
        else:
            self.stats["warm_promotions"] += 1
        if METRICS.enabled:
            _CTR_KILLS.inc()
        return outcome.hot

    def replica_rollup(self) -> Dict[str, int]:
        """Kill/promotion counters plus the in-process standby's
        shipping counters (zero without one; a cluster worker reports
        its store shipping itself)."""
        replica = self.pair.lifecycle.replica
        rollup = dict(self.stats)
        for key in SHIPPER_STATS + ("batches_lost",):
            rollup[key] = 0 if replica is None else replica.stats[key]
        return rollup

    # ------------------------------------------------------------------
    # Drain / audit
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Settle link state for a checkpointed, auditable quiescence."""
        if self.tuner is not None:
            self.tuner.finish()
        lifecycle = self.pair.lifecycle
        lifecycle.drain_resync()
        if lifecycle.replica is not None:
            lifecycle.replica.pump(force=True)
        lifecycle.checkpoint()

    def audit_ok(self) -> bool:
        from repro.core.sync import audit

        return audit(self.pair).ok
