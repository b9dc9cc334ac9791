"""Seeded fault campaigns: inject thousands of faults, prove zero
silent corruptions.

A campaign drives a :class:`~repro.core.encoder.CableLinkPair` — in
lossy-link mode, with every injector category armed — through a
synthetic write-heavy workload while *verifying every single
delivery* byte-for-byte against the sender's data. Three outcomes are
possible per transfer and all are counted:

- clean or recovered delivery (the overwhelmingly common case);
- a **typed, loud failure** (:class:`~repro.core.errors.LinkRecoveryError`
  after retries and raw fallback are exhausted) — acceptable, counted;
- a **silent corruption** (delivered bytes differ from what was sent)
  — never acceptable; ``CampaignReport.ok`` is False.

The campaign ends with a repair audit followed by a clean audit,
proving the §III-F auditor can always resynchronize whatever state
the injectors wrecked.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.cache.hierarchy import InclusivePair
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.core.config import CableConfig
from repro.core.encoder import CableLinkPair
from repro.core.errors import DecompressionError, LinkRecoveryError
from repro.fault.plan import FaultPlan, RecoveryPolicy
from repro.obs.registry import METRICS
from repro.obs.tracer import trace


class SimulatedClock:
    """A deterministic monotonic clock for breaker-cooldown injection.

    Campaigns (or a cycle-accurate driver) advance it explicitly —
    e.g. once per driven access — so breaker trip/re-arm points are a
    pure function of the workload, independent of how many wire-level
    transfer events each access happens to generate under load. The
    breaker's built-in default counts transfer events instead; both
    are deterministic, but only an injected clock lets two differently
    loaded runs share a timebase.
    """

    __slots__ = ("now",)

    def __init__(self, start: int = 0) -> None:
        self.now = start

    def tick(self, amount: int = 1) -> None:
        self.now += amount

    def __call__(self) -> int:
        return self.now


@dataclass
class CampaignReport:
    """Everything one fault campaign produced."""

    plan: FaultPlan
    policy: RecoveryPolicy
    accesses: int = 0
    transfers: int = 0
    faults_injected: int = 0
    #: Per-category injector counters (bitflips, truncations, drops,
    #: reorders, delays, stale_wmt, silent_evictions, hash_corruptions...).
    fault_stats: Dict[str, int] = field(default_factory=dict)
    #: Full LinkHealth counters (nacks, retries, raw_fallbacks...).
    health: Dict[str, int] = field(default_factory=dict)
    #: Transfers that exhausted retries AND the raw fallback — loud,
    #: typed failures; tolerated but counted.
    link_failures: int = 0
    #: Deliveries whose bytes differed from the sender's — must be 0.
    silent_corruptions: int = 0
    #: Repairs applied by the closing resync audit.
    final_repairs: int = 0
    #: True when a clean audit passed after the closing resync.
    final_audit_ok: bool = False

    @property
    def ok(self) -> bool:
        """The robustness contract: corruption is never silent and the
        link state is always repairable."""
        return self.silent_corruptions == 0 and self.final_audit_ok

    def categories_hit(self) -> int:
        """Distinct fault categories that actually fired."""
        return sum(1 for count in self.fault_stats.values() if count > 0)


def build_campaign_link(
    plan: FaultPlan,
    policy: Optional[RecoveryPolicy] = None,
    config: Optional[CableConfig] = None,
    seed: int = 0,
    breaker_clock: Optional[Callable[[], int]] = None,
) -> CableLinkPair:
    """A compressible synthetic workload on a lossy link.

    Same shape as the failure-injection tests: five archetype lines
    stamped with their address, over a 16KB home / 4KB remote pair, so
    reference compression actually engages (faults must hit *used*
    machinery to prove anything).
    """
    rng = random.Random(seed)
    archetypes = [
        struct.pack("<16I", *(rng.getrandbits(32) | 0x01000000 for _ in range(16)))
        for _ in range(5)
    ]
    store: Dict[int, bytes] = {}

    def read(addr: int) -> bytes:
        if addr not in store:
            line = bytearray(archetypes[addr % 5])
            struct.pack_into("<I", line, 60, addr)
            store[addr] = bytes(line)
        return store[addr]

    home = SetAssociativeCache(CacheGeometry(16 * 1024, 8))
    remote = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
    pair = InclusivePair(home, remote, read, lambda a, d: store.__setitem__(a, d))
    base = config or CableConfig()
    link = CableLinkPair(
        base.with_overrides(faults=plan, recovery=policy or RecoveryPolicy()),
        pair,
        breaker_clock=breaker_clock,
    )
    link.backing_read = read
    return link


def run_campaign(
    plan: FaultPlan,
    policy: Optional[RecoveryPolicy] = None,
    accesses: int = 4000,
    addresses: int = 400,
    write_fraction: float = 0.25,
    seed: int = 1,
    config: Optional[CableConfig] = None,
    breaker_clock: Optional[SimulatedClock] = None,
) -> CampaignReport:
    """Inject faults per *plan* for *accesses* accesses and report.

    Deterministic: the same arguments replay the same campaign down to
    each flipped bit. Pass a :class:`SimulatedClock` as
    *breaker_clock* to pin breaker cooldowns to the access count (the
    clock ticks once per driven access); by default the breaker keeps
    its transfer-event clock, preserving the pinned campaign numbers.
    """
    policy = policy or RecoveryPolicy()
    link = build_campaign_link(
        plan, policy, config=config, seed=plan.seed, breaker_clock=breaker_clock
    )
    report = CampaignReport(plan=plan, policy=policy)
    report.final_repairs = _drive_campaign(
        link, report, accesses, addresses, write_fraction, seed, breaker_clock
    )
    report.fault_stats = link.recovery_layer.fault_stats()
    report.faults_injected = report.health.get("faults_injected", 0)
    report.transfers = report.health.get("transfers", 0)
    if METRICS.enabled:
        _publish_campaign(
            "campaign",
            accesses=report.accesses,
            transfers=report.transfers,
            faults_injected=report.faults_injected,
            link_failures=report.link_failures,
            silent_corruptions=report.silent_corruptions,
            final_repairs=report.final_repairs,
        )
    return report


def _drive_campaign(
    link: CableLinkPair,
    report,
    accesses: int,
    addresses: int,
    write_fraction: float,
    seed: int,
    breaker_clock: Optional[SimulatedClock],
    step: Optional[Callable[[], None]] = None,
) -> int:
    """The access loop and closing audit both link campaigns share.

    Drives *accesses* seeded accesses (writes stamp the access index
    into the line), calling *step* after each one — the crash
    campaign's kill roll. Then it settles the link: finishes any
    in-flight rebuild, records health and silent corruptions on
    *report*, runs the closing resync (whatever metadata the injectors
    wrecked must be repairable) and a clean audit. Returns the closing
    resync's repair count.
    """
    rng = random.Random(seed)
    for i in range(accesses):
        addr = rng.randrange(addresses)
        is_write = rng.random() < write_fraction
        write_data = None
        if is_write:
            data = bytearray(link.backing_read(addr))
            struct.pack_into("<I", data, 0, i)
            write_data = bytes(data)
        if breaker_clock is not None:
            breaker_clock.tick()
        try:
            link.access(addr, is_write=is_write, write_data=write_data)
        except LinkRecoveryError:
            # Loud failure after raw fallback exhausted — the caches
            # never installed the line; the protocol gave up honestly.
            report.link_failures += 1
        except DecompressionError:
            # verify=True caught delivered-but-wrong bytes. The health
            # counter has already recorded it; keep campaigning so one
            # escape doesn't mask others.
            pass
        report.accesses += 1
        if step is not None:
            step()

    link.lifecycle.drain_resync()
    report.health = link.health
    report.silent_corruptions = report.health.get("silent_corruptions", 0)
    repairs = link.lifecycle.resync().repairs
    from repro.core.sync import audit

    report.final_audit_ok = audit(link).ok
    return repairs


def _publish_campaign(prefix: str, **values: int) -> None:
    """Roll one campaign's outcome up into registry gauges."""
    for name, value in values.items():
        METRICS.gauge(f"{prefix}.{name}").set(value)


# ======================================================================
# Crash-recovery campaigns (repro.state)
# ======================================================================


@dataclass
class CrashCampaignReport:
    """Everything one crash campaign produced.

    ``durable`` campaigns recover via snapshot + journal replay with
    the epoch handshake arbitrating trust; non-durable campaigns model
    the baseline — every crash is a stop-the-world ground-truth
    rebuild whose traffic the durable path must beat.
    """

    plan: FaultPlan
    policy: RecoveryPolicy
    durable: bool
    accesses: int = 0
    #: Endpoint kills actually executed.
    kill_points: int = 0
    #: Recovery paths taken: replay / rebuild / ground-truth.
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: CrashFaultInjector counters (sabotage mix).
    crash_stats: Dict[str, int] = field(default_factory=dict)
    health: Dict[str, int] = field(default_factory=dict)
    link_failures: int = 0
    silent_corruptions: int = 0
    final_audit_ok: bool = False
    #: Upper bound on resync-session steps for one home rebuild
    #: (ceil(remote sets / chunk)): the "bounded recovery time" claim.
    recovery_transfer_bound: int = 0

    @property
    def replays(self) -> int:
        return self.outcomes.get("replay", 0)

    @property
    def rebuilds(self) -> int:
        return self.outcomes.get("rebuild", 0) + self.outcomes.get(
            "ground-truth", 0
        )

    @property
    def mean_replay_bits(self) -> float:
        """Mean resync traffic per journal-replay recovery (handshake
        amortized in)."""
        if not self.replays:
            return 0.0
        return self.health.get("replay_traffic_bits", 0) / self.replays

    @property
    def mean_rebuild_bits(self) -> float:
        if not self.rebuilds:
            return 0.0
        return self.health.get("rebuild_traffic_bits", 0) / self.rebuilds

    @property
    def recovery_bounded(self) -> bool:
        """No recovery walked more chunks than the per-rebuild bound."""
        return self.health.get("recovery_transfers", 0) <= (
            self.recovery_transfer_bound * max(1, self.rebuilds)
        )

    @property
    def ok(self) -> bool:
        """The crash-consistency contract: corruption is never silent,
        recovery time is bounded, and the final state audits clean."""
        return (
            self.silent_corruptions == 0
            and self.final_audit_ok
            and self.recovery_bounded
        )


def run_crash_campaign(
    plan: FaultPlan,
    policy: Optional[RecoveryPolicy] = None,
    durability=None,
    accesses: int = 7000,
    addresses: int = 400,
    write_fraction: float = 0.25,
    seed: int = 1,
    config: Optional[CableConfig] = None,
    breaker_clock: Optional[SimulatedClock] = None,
) -> CrashCampaignReport:
    """Kill endpoints at randomized points per *plan* and report.

    *durability* is a :class:`repro.state.plan.DurabilityPolicy` (the
    snapshot+journal path) or None (the ground-truth-rebuild baseline).
    Deterministic: same arguments, same kills, same sabotage.
    *breaker_clock* works as in :func:`run_campaign`.
    """
    from repro.fault.injectors import CrashFaultInjector

    policy = policy or RecoveryPolicy()
    base = config or CableConfig()
    link = build_campaign_link(
        plan,
        policy,
        base.with_overrides(durability=durability),
        seed=plan.seed,
        breaker_clock=breaker_clock,
    )
    crasher = CrashFaultInjector(plan)
    report = CrashCampaignReport(
        plan=plan, policy=policy, durable=durability is not None
    )
    durability_cfg = link.config.durability
    chunk = durability_cfg.resync_chunk_sets if durability_cfg else 4
    remote_sets = link.pair.remote.geometry.sets
    report.recovery_transfer_bound = -(-remote_sets // chunk)

    def crash_step() -> None:
        side = crasher.decide()
        if side is None:
            return
        sabotage = crasher.sabotage_for(side)
        with trace("state.crash_recovery"):
            path = link.lifecycle.crash_endpoint(
                side, sabotage=sabotage, sabotage_rng=crasher.rng
            )
        report.kill_points += 1
        report.outcomes[path] = report.outcomes.get(path, 0) + 1

    _drive_campaign(
        link, report, accesses, addresses, write_fraction, seed,
        breaker_clock, crash_step,
    )
    report.crash_stats = dict(crasher.stats)
    if METRICS.enabled:
        _publish_campaign(
            "crash_campaign",
            accesses=report.accesses,
            kill_points=report.kill_points,
            replays=report.replays,
            rebuilds=report.rebuilds,
            link_failures=report.link_failures,
            silent_corruptions=report.silent_corruptions,
        )
    return report


@dataclass
class FailoverCampaignReport:
    """Everything one kill-the-primary-under-load campaign produced.

    The campaign is serve-hosted: *clients* concurrent loadgen
    sessions drive live traffic while a deterministic
    :class:`~repro.replica.plan.FailoverPlan` kills each session's
    primary at scripted and randomized points; every kill promotes the
    warm standby mid-traffic. A baseline run (replication armed, no
    kills) provides the denominator for the p99 latency blip.
    """

    clients: int = 0
    accesses: int = 0
    completed: int = 0
    kills: int = 0
    hot_promotions: int = 0
    warm_promotions: int = 0
    lost_records: int = 0
    catch_ups: int = 0
    batches_shipped: int = 0
    batches_lost: int = 0
    replica_lag_peak: int = 0
    #: Structural lag bound: the journal tee force-pumps at
    #: ``ReplicationPolicy.max_lag_records``, so the backlog a kill can
    #: lose never exceeds it.
    lag_bound: int = 0
    link_failures: int = 0
    silent_corruptions: int = 0
    audit_failures: int = 0
    drained_clean: bool = False
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    baseline_p99_ms: float = 0.0

    @property
    def p99_blip(self) -> float:
        """p99 latency under kills relative to the no-kill baseline."""
        if self.baseline_p99_ms <= 0.0:
            return 0.0
        return self.p99_ms / self.baseline_p99_ms

    @property
    def lag_bounded(self) -> bool:
        return self.replica_lag_peak <= self.lag_bound

    @property
    def ok(self) -> bool:
        """The failover contract: every access answered, nothing
        silently wrong, every promotion audited clean, lag bounded."""
        return (
            self.completed == self.accesses
            and self.silent_corruptions == 0
            and self.audit_failures == 0
            and self.drained_clean
            and self.lag_bounded
        )


def run_failover_campaign(
    plan,
    replication=None,
    clients: int = 8,
    accesses: int = 80,
    benchmark: str = "gcc",
    seed: int = 0xCAB1E,
    window: int = 8,
    tcp: bool = False,
    baseline: bool = True,
    serve_overrides: Optional[Dict[str, object]] = None,
) -> FailoverCampaignReport:
    """Kill replicated primaries under live traffic and report.

    *plan* is a :class:`~repro.replica.plan.FailoverPlan` (reseeded
    per session by the serve layer, so every session runs its own
    deterministic kill schedule); *replication* defaults to
    :class:`~repro.replica.plan.ReplicationPolicy`. ``tcp=True`` runs
    the full socket path on an ephemeral localhost port instead of
    in-process memory pipes. Kill/promotion/lag columns are
    deterministic for fixed arguments; latency columns are wall-clock.
    """
    import asyncio

    from repro.replica.plan import ReplicationPolicy
    from repro.serve.loadgen import drain_into, run_loadgen
    from repro.serve.server import LinkService
    from repro.serve.session import ServeConfig

    replication = replication or ReplicationPolicy()

    async def _one_run(config: ServeConfig):
        service = LinkService(config)
        if tcp:
            host, port = await service.start_tcp()
            report = await run_loadgen(
                clients=clients, accesses=accesses, benchmark=benchmark,
                seed=seed, window=window, host=host, port=port,
                keep_sessions=True,
            )
            return await drain_into(report, service)
        return await run_loadgen(
            clients=clients, accesses=accesses, benchmark=benchmark,
            seed=seed, window=window, service=service,
        )

    async def _campaign():
        overrides = dict(serve_overrides or {})
        overrides.setdefault("max_sessions", max(64, clients))
        baseline_p99 = 0.0
        if baseline:
            quiet = await _one_run(
                ServeConfig(replication=replication, **overrides)
            )
            baseline_p99 = quiet.p99_ms
        loud = await _one_run(
            ServeConfig(replication=replication, failover=plan, **overrides)
        )
        return baseline_p99, loud

    baseline_p99, loadgen = asyncio.run(_campaign())
    drain = loadgen.drain_report
    report = FailoverCampaignReport(
        clients=clients,
        accesses=clients * accesses,
        completed=loadgen.completed,
        kills=drain.get("kills", 0),
        hot_promotions=drain.get("hot_promotions", 0),
        warm_promotions=drain.get("warm_promotions", 0),
        lost_records=drain.get("lost_records", 0),
        catch_ups=drain.get("catch_ups", 0),
        batches_shipped=drain.get("batches_shipped", 0),
        batches_lost=drain.get("batches_lost", 0),
        replica_lag_peak=drain.get("replica_lag_peak", 0),
        lag_bound=replication.max_lag_records,
        link_failures=loadgen.link_failures,
        silent_corruptions=loadgen.silent_corruptions,
        audit_failures=drain.get("audit_failures", 0),
        drained_clean=loadgen.drained_clean,
        p50_ms=loadgen.p50_ms,
        p99_ms=loadgen.p99_ms,
        baseline_p99_ms=baseline_p99,
    )
    if METRICS.enabled:
        _publish_campaign(
            "failover_campaign",
            accesses=report.accesses,
            kills=report.kills,
            hot_promotions=report.hot_promotions,
            warm_promotions=report.warm_promotions,
            lost_records=report.lost_records,
            catch_ups=report.catch_ups,
            silent_corruptions=report.silent_corruptions,
        )
    return report
