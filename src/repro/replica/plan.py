"""Declarative replication / failover configuration.

Pure-stdlib leaf module (the :mod:`repro.fault.plan` pattern): frozen,
hashable dataclasses that experiment sweeps can embed in memoization
keys. The policy is turned into behaviour by
:class:`repro.replica.shipper.JournalShipper` (the in-process
standby's batch cut); the kill schedule is turned into
deterministic RNG streams by
:class:`repro.fault.injectors.FailoverInjector`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass(frozen=True)
class ReplicationPolicy:
    """Knobs of the journal-shipping replication channel.

    The shipper accumulates journaled metadata ops and cuts them into
    checksummed batches of up to ``batch_records`` records whenever the
    backlog reaches ``max_lag_records`` — so ``max_lag_records`` *is*
    the replication-lag bound: the standby can never be more than that
    many records behind the primary at a kill.
    """

    #: Records per shipped batch (sequence-numbered, CRC-guarded).
    batch_records: int = 16
    #: Ship whenever this many records are pending — the hard bound on
    #: standby lag, and the most records a primary kill can lose.
    max_lag_records: int = 32

    def __post_init__(self) -> None:
        if self.batch_records < 1:
            raise ValueError("batch_records must be positive")
        if self.max_lag_records < self.batch_records:
            raise ValueError("max_lag_records must be >= batch_records")

    def scaled(self, **overrides) -> "ReplicationPolicy":
        return replace(self, **overrides)


@dataclass(frozen=True)
class FailoverPlan:
    """Seeded kill schedule + replication-stream fault rates.

    ``scripted_kills`` are per-session access indices at which the
    primary is deterministically killed; ``kill_rate`` adds randomized
    kills on top (per access, per session, from a seeded stream). The
    batch-fault rates sabotage the replication stream itself — a
    dropped batch surfaces as a sequence gap, a corrupted one as a
    checksum failure; both must drive the standby through snapshot
    catch-up, never silent divergence.
    """

    seed: int = 0
    #: Probability a completed access kills the primary (per session).
    kill_rate: float = 0.0
    #: Per-session access indices that always kill the primary.
    scripted_kills: Tuple[int, ...] = ()
    #: Probability a shipped batch vanishes (standby sees a seq gap).
    batch_drop_rate: float = 0.0
    #: Probability a shipped batch is bit-flipped (checksum failure).
    batch_corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kill_rate", "batch_drop_rate", "batch_corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if any(point < 0 for point in self.scripted_kills):
            raise ValueError("scripted_kills must be non-negative")

    def scaled(self, **overrides) -> "FailoverPlan":
        return replace(self, **overrides)
