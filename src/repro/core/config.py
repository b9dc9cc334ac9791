"""CABLE configuration — every §III/§VI-A parameter in one place.

The defaults reproduce the paper's baseline: two signatures indexed per
line, hash buckets of two LineIDs, six data-array accesses after
pre-ranking, up to three references per DIFF, and a 16× no-reference
shortcut threshold. The Table IV compression latencies are derived
from this geometry by :func:`repro.core.pipeline.end_to_end_cycles`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.fault.plan import FaultPlan, RecoveryPolicy
from repro.state.plan import DurabilityPolicy


@dataclass(frozen=True)
class CableConfig:
    """Tunable parameters of the CABLE framework."""

    # --- geometry ------------------------------------------------------
    line_bytes: int = 64

    # --- signature extraction (§III-A) --------------------------------
    #: Default byte offsets where index-time signatures are sampled
    #: (Fig 5); each slides forward past trivial words.
    signature_offsets: tuple = (0, 32)
    #: Number of signatures inserted into the hash table per line.
    signatures_per_line: int = 2
    #: A word with this many leading zeros/ones is trivial (Fig 6).
    trivial_threshold_bits: int = 24
    #: Signature offsets advance by whole words, not bytes (§III-A).
    signature_stride_bytes: int = 4
    #: H3 hash seed for the signature hash function.
    hash_seed: int = 0xCAB1E

    # --- hash table (§III-B) -------------------------------------------
    #: Entries as a fraction of home-cache lines: 1.0 is "full-sized".
    hash_table_scale: float = 1.0
    #: LineIDs stored per hash bucket.
    hash_bucket_entries: int = 2

    # --- search (§III-C) -----------------------------------------------
    #: Candidates read from the data array after pre-ranking.
    data_access_count: int = 6
    #: References selected by the greedy CBV ranking.
    max_references: int = 3
    #: Reference selection: "greedy" (the paper's marginal-coverage
    #: ranking) or "top" (naive: highest individual CBVs, ignoring
    #: overlap) — an ablation of the §III-C design choice.
    ranking_policy: str = "greedy"

    # --- compression & transmission (§III-E) ---------------------------
    #: Engine paired with CABLE ("lbe", "cpack", "cpack128", "gzip",
    #: "oracle").
    engine: str = "lbe"
    #: If the no-reference compression reaches this ratio, skip the
    #: reference search result and send without pointers.
    no_reference_threshold: float = 16.0
    #: RemoteLID width on the wire; 17 bits for the off-chip buffer use
    #: case per Table III.
    remotelid_bits: int = 17

    # --- race handling (§IV-A) -----------------------------------------
    eviction_buffer_entries: int = 16
    #: What a full eviction buffer does with the next record:
    #: "drop-oldest" (hardware behaviour — the oldest unacknowledged
    #: entry is sacrificed and counted) or "strict" (raise
    #: :class:`repro.core.errors.EvictionBufferOverflowError`; used by
    #: tests to prove a sizing is sufficient).
    eviction_buffer_policy: str = "drop-oldest"

    # --- fault injection & link recovery -------------------------------
    #: When set (and any rate is nonzero), the link runs through the
    #: fault injectors of :mod:`repro.fault.injectors`.
    faults: Optional[FaultPlan] = None
    #: When set, payloads cross the link as CRC-guarded frames with
    #: NACK/retransmit recovery and a degradation circuit breaker
    #: (:mod:`repro.link.recovery`). Implied (with defaults) whenever
    #: ``faults`` is active.
    recovery: Optional[RecoveryPolicy] = None
    #: When set, each endpoint's mirrored metadata is guarded by a
    #: snapshot+journal :class:`repro.state.manager.EndpointStateManager`
    #: and a crashed endpoint recovers by epoch handshake + journal
    #: replay instead of a full ground-truth rebuild. Implies
    #: ``recovery`` (with defaults) when that is unset.
    durability: Optional[DurabilityPolicy] = None

    def __post_init__(self) -> None:
        if self.line_bytes % 4:
            raise ValueError("line size must be word aligned")
        if self.signatures_per_line < 1:
            raise ValueError("at least one signature per line is required")
        if not self.signature_offsets:
            raise ValueError("signature_offsets must not be empty")
        if any(off % 4 or not 0 <= off < self.line_bytes for off in self.signature_offsets):
            raise ValueError("signature offsets must be word-aligned and in-line")
        if self.hash_bucket_entries < 1:
            raise ValueError("hash buckets need at least one entry")
        if self.data_access_count < 1:
            raise ValueError("at least one data access is required")
        if self.max_references < 0:
            raise ValueError("max_references cannot be negative")
        if self.hash_table_scale <= 0:
            raise ValueError("hash_table_scale must be positive")
        if self.ranking_policy not in ("greedy", "top"):
            raise ValueError("ranking_policy must be 'greedy' or 'top'")
        if self.eviction_buffer_policy not in ("drop-oldest", "strict"):
            raise ValueError(
                "eviction_buffer_policy must be 'drop-oldest' or 'strict'"
            )

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // 4

    @property
    def max_signatures(self) -> int:
        """Up to one signature per word can be extracted when searching."""
        return self.words_per_line

    def with_overrides(self, **kwargs) -> "CableConfig":
        """A copy with selected fields replaced (sweeps/ablations)."""
        return replace(self, **kwargs)
