"""Synchronization invariants and their auditor (§III-F).

The event-driven synchronization itself is wired in
:class:`repro.core.encoder.CableLinkPair`: coherence events from the
inclusive pair drive hash-table insertion/invalidation and WMT
maintenance on both endpoints. This module provides the *auditor* —
an exhaustive consistency checker used by tests and failure-injection
studies to prove the invariants hold after arbitrary access streams:

I1. **WMT precision** — every valid WMT entry maps a remote (set, way)
    that actually holds the line whose HomeLID is stored, and every
    remote-resident line is tracked (the WMT is exact, not
    approximate; this is what decouples CABLE from replacement
    policy).
I2. **Reference safety** — every line the WMT exposes as referencable
    that is SHARED at home has identical data in both caches.
I3. **Hash-table soundness** — hash-table entries may be stale (that
    is tolerated by design), but every *useful* entry points at a
    home slot; no entry can cause incorrect decompression because
    referencability is gated by I1+I2.
I4. **Inclusivity** — every remote line is home-resident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cache.line import CoherenceState
from repro.cache.setassoc import LineId
from repro.core.encoder import CableLinkPair


@dataclass
class AuditReport:
    """Outcome of a synchronization audit."""

    violations: List[str] = field(default_factory=list)
    wmt_entries_checked: int = 0
    remote_lines_checked: int = 0
    hash_entries_checked: int = 0
    #: Corrective actions applied when auditing with ``repair=True``,
    #: by category ("wmt", "hash", "evictbuf", "breaker").
    repaired: Dict[str, int] = field(default_factory=dict)

    @property
    def repairs(self) -> int:
        """Total corrective actions across all categories."""
        return sum(self.repaired.values())

    @property
    def ok(self) -> bool:
        return not self.violations


def audit(link: CableLinkPair, repair: bool = False) -> AuditReport:
    """Check invariants I1–I4 on a live CABLE link pair.

    With ``repair=True`` any violation triggers a metadata resync —
    the model of a link retrain: the WMT is rebuilt from the two
    caches' actual contents and out-of-range hash entries are
    scrubbed. Repairs are counted in ``report.repairs``; the returned
    violations describe the state *before* repair.
    """
    report = AuditReport()
    pair = link.pair
    wmt = link.home_encoder.wmt
    home, remote = pair.home, pair.remote

    # I4 — inclusivity.
    for remote_lid, line in remote:
        report.remote_lines_checked += 1
        if not home.contains(line.tag):
            report.violations.append(
                f"I4: remote line {line.tag:#x} missing from home cache"
            )

    # I1 + I2 — WMT precision and reference safety.
    for remote_lid, line in remote:
        home_lid = wmt.home_lid_for(remote_lid)
        if home_lid is None:
            report.violations.append(
                f"I1: remote slot {int(remote_lid)} holding {line.tag:#x} untracked"
            )
            continue
        report.wmt_entries_checked += 1
        home_line = home.read_by_lineid(home_lid)
        if home_line is None:
            report.violations.append(
                f"I1: WMT maps remote slot {int(remote_lid)} to empty home slot"
            )
            continue
        if home_line.tag != line.tag:
            report.violations.append(
                f"I1: WMT maps remote {line.tag:#x} to home {home_line.tag:#x}"
            )
            continue
        if home_line.state is CoherenceState.SHARED:
            if home_line.data != line.data:
                report.violations.append(
                    f"I2: shared line {line.tag:#x} differs between caches"
                )
        # Reverse direction: the forward translation must round-trip.
        back = wmt.remote_lid_for(home_lid)
        if back != remote_lid:
            report.violations.append(
                f"I1: WMT round-trip failed for line {line.tag:#x}"
            )

    # I1 (reverse) — no dangling WMT entries: every valid entry's
    # remote slot must actually hold a line. A lost eviction notice
    # leaves exactly this kind of dangling entry behind (mismatched
    # slots are already reported by the forward pass above).
    for remote_index, row in enumerate(wmt._entries):
        for remote_way, entry in enumerate(row):
            if entry is None:
                continue
            remote_lid = LineId.pack(remote_index, remote_way, wmt.remote.way_bits)
            if remote.read_by_lineid(remote_lid) is None:
                report.violations.append(
                    f"I1: WMT tracks empty remote slot {int(remote_lid)}"
                )

    # I3 — hash-table soundness: every stored LineID must at least be a
    # plausible home slot (stale is fine; out-of-range is a bug).
    geometry = home.geometry
    for bucket in link.home_encoder.hash_table._buckets.values():
        for lid in bucket:
            report.hash_entries_checked += 1
            index, way = lid.unpack(geometry.way_bits)
            if not (0 <= index < geometry.sets and 0 <= way < geometry.ways):
                report.violations.append(f"I3: hash entry {int(lid)} out of range")

    # I5 — eviction-buffer hygiene: no entry may linger past its
    # acknowledgement, and no (slot, address) pair may shadow an older
    # duplicate (rescue scans newest-first, so the older copy is dead
    # weight that a replayed restore can leave behind).
    buffer = link.remote_decoder.evict_buffer
    seen_keys = set()
    for entry in reversed(buffer._entries):
        if entry.seq <= buffer._acked:
            report.violations.append(
                f"I5: eviction-buffer entry seq {entry.seq} outlived its "
                f"acknowledgement ({buffer._acked})"
            )
            continue
        key = (entry.remote_lid, entry.line_addr)
        if key in seen_keys:
            report.violations.append(
                f"I5: eviction-buffer entry seq {entry.seq} shadowed by a "
                f"newer copy of line {entry.line_addr:#x}"
            )
        seen_keys.add(key)

    # B1 — breaker liveness: an open breaker whose cooldown has elapsed
    # must re-arm on the next transfer; one stuck past that point (e.g.
    # restored from a stale snapshot) keeps the link degraded for no
    # reason.
    breaker = (
        link.recovery_layer.breaker if link.recovery_layer is not None else None
    )
    if breaker is not None and breaker.is_open:
        elapsed = breaker.clock() - breaker._opened_at
        if elapsed > breaker.policy.breaker_cooldown:
            report.violations.append(
                f"B1: breaker open for {elapsed} ticks, cooldown is "
                f"{breaker.policy.breaker_cooldown}"
            )

    if repair and not report.ok:
        report.repaired = _repair(link)
    return report


def _repair(link: CableLinkPair) -> Dict[str, int]:
    """Resynchronize metadata from ground truth (the cache arrays).

    Rebuilds the WMT so it maps exactly the remote cache's current
    contents, scrubs out-of-range LineIDs from both signature hash
    tables, drops acknowledged/shadowed eviction-buffer residue, and
    closes a breaker stuck open past its cooldown. Stale-but-in-range
    hash entries are left alone — they are tolerated by design (I3)
    and age out FIFO-style. Returns per-category repair counts.
    """
    repaired = {"wmt": 0, "hash": 0, "evictbuf": 0, "breaker": 0}
    pair = link.pair
    wmt = link.home_encoder.wmt
    home, remote = pair.home, pair.remote

    home_by_tag = {line.tag: home_lid for home_lid, line in home}
    wanted = [[None] * wmt.remote.ways for _ in range(wmt.remote.sets)]
    for remote_lid, line in remote:
        home_lid = home_by_tag.get(line.tag)
        if home_lid is None:
            continue  # an I4 violation; the WMT must not advertise it
        remote_index, remote_way = remote_lid.unpack(wmt.remote.way_bits)
        wanted[remote_index][remote_way] = wmt.normalize(home_lid)
    for remote_index, row in enumerate(wmt._entries):
        for remote_way, entry in enumerate(row):
            if entry != wanted[remote_index][remote_way]:
                repaired["wmt"] += 1
    wmt._entries = wanted

    for table, geometry in (
        (link.home_encoder.hash_table, home.geometry),
        (link.remote_decoder.hash_table, remote.geometry),
    ):
        for bucket in table._buckets.values():
            kept = []
            for lid in bucket:
                index, way = lid.unpack(geometry.way_bits)
                if 0 <= index < geometry.sets and 0 <= way < geometry.ways:
                    kept.append(lid)
                else:
                    repaired["hash"] += 1
            if len(kept) != len(bucket):
                bucket[:] = kept

    buffer = link.remote_decoder.evict_buffer
    seen_keys = set()
    kept_entries = []
    for entry in reversed(buffer._entries):
        key = (entry.remote_lid, entry.line_addr)
        if entry.seq <= buffer._acked or key in seen_keys:
            repaired["evictbuf"] += 1
            continue
        seen_keys.add(key)
        kept_entries.append(entry)
    if repaired["evictbuf"]:
        kept_entries.reverse()
        buffer._entries = kept_entries

    breaker = (
        link.recovery_layer.breaker if link.recovery_layer is not None else None
    )
    if breaker is not None and breaker.is_open:
        elapsed = breaker.clock() - breaker._opened_at
        if elapsed > breaker.policy.breaker_cooldown:
            breaker.tick_open()  # re-arms: elapsed >= cooldown
            repaired["breaker"] += 1
    return repaired
