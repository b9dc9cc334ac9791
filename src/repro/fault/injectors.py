"""Deterministic, seedable fault injectors.

Three injectors cover the failure surface of one CABLE link, each
driven by an independent RNG stream derived from the plan's seed (via
:func:`repro.util.rng.make_rng`), so campaigns are exactly repeatable:

- :class:`WireFaultInjector` — physical-layer damage to framed bits
  (bit flips, truncation);
- :class:`ChannelFaultInjector` — transport-layer message faults
  (drop, reorder, delay);
- :class:`StateFaultInjector` — metadata sabotage on a live
  :class:`~repro.core.encoder.CableLinkPair` (stale WMT entries,
  silent remote evictions mid-flight, hash-bucket corruption).

Every injected fault increments a per-category counter in ``stats`` so
campaigns can prove coverage ("≥ N faults spanning all categories").
State faults are *heuristic-safe* by construction: they may make the
encoder choose unusable references or lose eviction notices — which
the recovery protocol must absorb — but they never destroy the only
copy of dirty data (a silently evicted dirty line is flushed to
backing store first, modelling a lost *notice*, not lost data).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.setassoc import LineId
from repro.fault.plan import FaultPlan
from repro.util.rng import make_rng


class WireFaultInjector:
    """Flips and truncates framed wire bits."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = make_rng(plan.seed, "wire")
        self.stats = {"bitflips": 0, "flipped_frames": 0, "truncations": 0}

    def corrupt(self, data: bytes, bit_count: int) -> Tuple[bytes, int]:
        """Possibly damage one frame; returns the (new data, new bit
        count) actually arriving at the receiver."""
        rng = self._rng
        plan = self.plan
        if bit_count and rng.random() < plan.truncate_rate:
            bit_count = rng.randrange(bit_count)
            data = data[: (bit_count + 7) // 8]
            self.stats["truncations"] += 1
        if bit_count and rng.random() < plan.bitflip_rate:
            flips = rng.randint(1, plan.max_flips)
            damaged = bytearray(data)
            for _ in range(flips):
                bit = rng.randrange(bit_count)
                damaged[bit >> 3] ^= 0x80 >> (bit & 7)
            data = bytes(damaged)
            self.stats["bitflips"] += flips
            self.stats["flipped_frames"] += 1
        return data, bit_count

    @property
    def faults_injected(self) -> int:
        return self.stats["bitflips"] + self.stats["truncations"]


class ChannelFaultInjector:
    """Per-frame transport decisions: drop / reorder / delay."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = make_rng(plan.seed, "channel")
        self.stats = {"drops": 0, "reorders": 0, "delays": 0}

    def decide(self) -> Optional[str]:
        """One of ``"drop"``/``"reorder"``/``"delay"`` or None.

        Categories are tried in severity order; at most one fault per
        frame keeps the semantics of each unambiguous.
        """
        rng = self._rng
        plan = self.plan
        if rng.random() < plan.drop_rate:
            self.stats["drops"] += 1
            return "drop"
        if rng.random() < plan.reorder_rate:
            self.stats["reorders"] += 1
            return "reorder"
        if rng.random() < plan.delay_rate:
            self.stats["delays"] += 1
            return "delay"
        return None

    @property
    def faults_injected(self) -> int:
        return sum(self.stats.values())


class StateFaultInjector:
    """Sabotages the metadata of a live link pair.

    Bound lazily to a :class:`~repro.core.encoder.CableLinkPair` so the
    injector can be configured before the pair exists.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = make_rng(plan.seed, "state")
        self._link = None
        self.stats = {
            "stale_wmt": 0,
            "silent_evictions": 0,
            "silent_evictions_buffered": 0,
            "hash_corruptions": 0,
        }

    def bind(self, link) -> None:
        self._link = link

    # ------------------------------------------------------------------
    # Per-transfer hook (called once per transfer; *inflight* carries
    # the payload currently crossing the link, widening the §IV-A race)
    # ------------------------------------------------------------------

    def perturb(self, inflight=None, delayed: bool = False) -> int:
        """Inject zero or more state faults; returns how many."""
        if self._link is None or not self.plan.any_faults:
            return 0
        injected = 0
        rng = self._rng
        plan = self.plan
        if rng.random() < plan.stale_wmt_rate:
            injected += self._corrupt_wmt_entry()
        # A delayed frame spends longer in flight, so the eviction race
        # window doubles: roll the silent-eviction die twice.
        rolls = 2 if delayed else 1
        for _ in range(rolls):
            if rng.random() < plan.silent_evict_rate:
                injected += self._silent_eviction(inflight)
        if rng.random() < plan.hash_corrupt_rate:
            injected += self._corrupt_hash_tables()
        return injected

    # ------------------------------------------------------------------
    # Individual sabotage moves
    # ------------------------------------------------------------------

    def _corrupt_wmt_entry(self) -> int:
        """Point one valid WMT entry at the wrong home slot.

        The encoder will eventually offer the entry as a reference; the
        decoder's address check rejects it (tag mismatch → NACK → raw
        fallback). Never silently wrong: referencability is *precise*
        only while the WMT is intact, and the protocol no longer trusts
        precision.
        """
        wmt = self._link.home_encoder.wmt
        rng = self._rng
        occupied = [
            (index, way)
            for index, row in enumerate(wmt._entries)
            for way, entry in enumerate(row)
            if entry is not None
        ]
        if not occupied:
            return 0
        index, way = occupied[rng.randrange(len(occupied))]
        entry = wmt._entries[index][way]
        if wmt.alias_bits:
            twisted = entry._replace(alias=entry.alias ^ 1)
        else:
            twisted = entry._replace(
                home_way=(entry.home_way + 1) % wmt.home.ways
            )
        wmt._entries[index][way] = twisted
        self.stats["stale_wmt"] += 1
        return 1

    def _silent_eviction(self, inflight) -> int:
        """Evict a SHARED remote line without telling the home cache.

        Models a lost eviction notice: the home's WMT keeps advertising
        the line as referencable. Half the time the remote's eviction
        buffer still holds the line (hardware would have parked it —
        the rescue path works); the other half the buffer entry is lost
        too, forcing the NACK → retransmit-as-RAW path.

        Only clean SHARED victims are chosen: those are exactly the
        referencable lines (the §IV-A surface), and evicting them loses
        pure *metadata* — a dirty/modified line's eviction is a
        write-back transfer in its own right, not a notice.
        """
        link = self._link
        remote = link.pair.remote
        rng = self._rng

        def evictable(line) -> bool:
            return line.state.usable_as_reference and not line.dirty

        victim_lid = None
        # Prefer evicting a line the in-flight payload references —
        # the exact §IV-A race.
        if inflight is not None and inflight.remote_lids:
            for lid in inflight.remote_lids:
                line = remote.read_by_lineid(lid)
                if line is not None and evictable(line):
                    victim_lid = lid
                    break
        if victim_lid is None:
            candidates = [lid for lid, line in remote if evictable(line)]
            if not candidates:
                return 0
            victim_lid = candidates[rng.randrange(len(candidates))]
        line = remote.read_by_lineid(victim_lid)
        buffered = rng.random() < 0.5
        if buffered:
            link.remote_decoder.evict_buffer.record(
                victim_lid, line.tag, line.data
            )
            self.stats["silent_evictions_buffered"] += 1
        remote.evict_lineid(victim_lid)
        self.stats["silent_evictions"] += 1
        return 1

    def _corrupt_hash_tables(self) -> int:
        """Pour garbage LineIDs into both signature hash tables —
        accuracy sabotage the search pipeline must shrug off."""
        link = self._link
        rng = self._rng
        count = self.plan.hash_corrupt_entries
        home_bits = link.pair.home.geometry.lineid_bits
        remote_bits = link.pair.remote.geometry.lineid_bits
        for _ in range(count):
            link.home_encoder.hash_table.insert(
                rng.getrandbits(32), LineId(rng.getrandbits(home_bits + 1))
            )
            link.remote_decoder.hash_table.insert(
                rng.getrandbits(32), LineId(rng.getrandbits(remote_bits + 1))
            )
        self.stats["hash_corruptions"] += count
        return count

    @property
    def faults_injected(self) -> int:
        return (
            self.stats["stale_wmt"]
            + self.stats["silent_evictions"]
            + self.stats["hash_corruptions"]
        )


class CrashFaultInjector:
    """Kills endpoints at randomized points (repro.state recovery).

    Rolled once per access by the crash campaign; a kill decision
    returns the side to crash, and :meth:`sabotage_for` independently
    decides which persistent-store damage rides along (torn newest
    snapshot, poisoned journal, silently lost journal tail) — the
    restore path must *detect* all of it, never trust it.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = make_rng(plan.seed, "crash")
        self.stats = {
            "home_crashes": 0,
            "remote_crashes": 0,
            "snapshot_corruptions": 0,
            "journal_poisons": 0,
            "journal_tail_drops": 0,
        }

    @property
    def rng(self):
        """The injector's RNG stream (byte-flip positions etc.)."""
        return self._rng

    def decide(self) -> Optional[str]:
        """``"home"``/``"remote"`` to kill that endpoint now, or None."""
        rng = self._rng
        plan = self.plan
        if rng.random() < plan.home_crash_rate:
            self.stats["home_crashes"] += 1
            return "home"
        if rng.random() < plan.remote_crash_rate:
            self.stats["remote_crashes"] += 1
            return "remote"
        return None

    def sabotage_for(self, side: str) -> Tuple[str, ...]:
        """Persistent-store damage accompanying one crash of *side*."""
        rng = self._rng
        plan = self.plan
        sabotage = []
        if rng.random() < plan.snapshot_corrupt_rate:
            sabotage.append("snapshot")
            self.stats["snapshot_corruptions"] += 1
        if rng.random() < plan.journal_loss_rate:
            if rng.random() < 0.5:
                sabotage.append("journal_poison")
                self.stats["journal_poisons"] += 1
            else:
                sabotage.append("journal_tail")
                self.stats["journal_tail_drops"] += 1
        return tuple(sabotage)

    @property
    def faults_injected(self) -> int:
        return self.stats["home_crashes"] + self.stats["remote_crashes"]


class FailoverInjector:
    """Kills the replicated primary and sabotages the standby stream.

    Two independent RNG streams derived from the
    :class:`~repro.replica.plan.FailoverPlan` seed keep the campaign
    repeatable: ``decide_kill`` is rolled once per completed access
    (scripted kill points fire exactly once each, then ``kill_rate``
    rolls a randomized kill), and ``ship`` sits on the replication
    channel as the :class:`~repro.replica.standby.WarmStandby`
    ``ship_fault`` hook (one stream for both endpoint journals),
    losing or corrupting encoded journal batches so the standby's
    checksum/gap detection machinery is exercised under real traffic.
    """

    def __init__(self, plan) -> None:
        self.plan = plan
        self._kill_rng = make_rng(plan.seed, "failover-kill")
        self._ship_rng = make_rng(plan.seed, "failover-ship")
        self._scripted = set(plan.scripted_kills)
        self.stats = {
            "scripted_kills": 0,
            "random_kills": 0,
            "batches_dropped": 0,
            "batches_corrupted": 0,
        }

    def decide_kill(self, access_index: int) -> bool:
        """Should the primary die right after access *access_index*?"""
        if access_index in self._scripted:
            # Scripted points fire once: a campaign that replays the
            # same ordinal later gets the randomized schedule only.
            self._scripted.discard(access_index)
            self.stats["scripted_kills"] += 1
            return True
        if self.plan.kill_rate and self._kill_rng.random() < self.plan.kill_rate:
            self.stats["random_kills"] += 1
            return True
        return False

    def ship(self, blob: bytes) -> Optional[bytes]:
        """Deliver, lose, or corrupt one encoded journal batch."""
        rng = self._ship_rng
        plan = self.plan
        if plan.batch_drop_rate and rng.random() < plan.batch_drop_rate:
            self.stats["batches_dropped"] += 1
            return None
        if plan.batch_corrupt_rate and rng.random() < plan.batch_corrupt_rate:
            self.stats["batches_corrupted"] += 1
            index = rng.randrange(len(blob))
            flip = 1 << rng.randrange(8)
            return blob[:index] + bytes([blob[index] ^ flip]) + blob[index + 1 :]
        return blob

    @property
    def faults_injected(self) -> int:
        return sum(self.stats.values())


class WorkerFaultInjector:
    """Picks cluster-worker victims and failure modes for the kill storm.

    The kill campaign rolls :meth:`next_fault` once per scheduled kill;
    the injector picks a victim uniformly among the currently alive
    workers and a failure mode by weight. Three modes cover the
    supervisor's whole detection surface:

    - ``sigkill`` — the process dies outright (``poll()`` / control
      EOF detection);
    - ``hang`` — the worker stops reading its control pipe and stops
      heartbeating but the process stays alive (missed-heartbeat
      detection);
    - ``slow`` — the worker stalls its event loop every beat, so it
      still answers — late (EWMA gap detection). ``slow_stall_ms``
      scales the stall; campaigns set it well past the detector's
      threshold so detection is not left to scheduling luck.

    Victims and modes come from two separate seeded streams. The
    victim draw consumes a number of random bits that depends on how
    many workers are alive, which varies with respawn timing; on its
    own stream it cannot shift the mode sequence, so the mode split of
    a fixed kill budget is a pure function of the seed.
    """

    #: Mode mix: mostly hard kills, with enough hangs and
    #: slow-degradations to keep all three detectors honest.
    MODE_WEIGHTS: Tuple[Tuple[str, float], ...] = (
        ("sigkill", 0.70),
        ("hang", 0.15),
        ("slow", 0.15),
    )

    def __init__(self, seed: int, slow_stall_ms: float = 2000.0) -> None:
        self.seed = seed
        self._victims = make_rng(seed, "worker-kills", "victim")
        self._modes = make_rng(seed, "worker-kills", "mode")
        self.modes, self._weights = zip(*self.MODE_WEIGHTS)
        self.slow_stall_ms = slow_stall_ms

    def next_fault(self, alive_ids) -> Tuple[int, str]:
        """(victim worker id, mode) for the next scheduled kill."""
        alive = sorted(alive_ids)
        if not alive:
            raise ValueError("no alive workers to pick a victim from")
        victim = alive[self._victims.randrange(len(alive))]
        (mode,) = self._modes.choices(self.modes, self._weights)
        return victim, mode
