"""Metrics used across the evaluation."""

from __future__ import annotations

import math
from typing import Dict, Iterable


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def geometric_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalize_to(values: Dict[str, float], baseline_key: str) -> Dict[str, float]:
    """Per-key ratio to one baseline entry (Fig 11's normalization)."""
    baseline = values[baseline_key]
    if baseline == 0:
        raise ValueError(f"baseline {baseline_key!r} is zero")
    return {key: value / baseline for key, value in values.items()}


def percent_better(new: float, old: float) -> float:
    """The paper's "X% better" phrasing: 100·(new/old − 1)."""
    if old == 0:
        raise ValueError("cannot compare against zero")
    return 100.0 * (new / old - 1.0)


def speedup_percent(speedup: float) -> float:
    """378% throughput increase ⇔ 4.78× — the paper uses both forms;
    this converts a multiplier to the percent-increase form."""
    return 100.0 * (speedup - 1.0)


# ---------------------------------------------------------------------------
# Crash-recovery summaries (repro.state durability, repro.fault campaigns)
# ---------------------------------------------------------------------------


def recovery_traffic_per_crash(health: Dict[str, int]) -> float:
    """Mean resync traffic (handshake + replay/rebuild bits) per crash."""
    crashes = health.get("endpoint_crashes", 0)
    if not crashes:
        return 0.0
    return health.get("resync_traffic_bits", 0) / crashes


def replay_fraction(health: Dict[str, int]) -> float:
    """Fraction of crashes recovered by snapshot + journal replay (the
    cheap path) rather than a rebuild."""
    crashes = health.get("endpoint_crashes", 0)
    if not crashes:
        return 0.0
    return health.get("journal_replays", 0) / crashes


def summarize_recovery(health: Dict[str, int]) -> Dict[str, float]:
    """The crash-recovery experiment's row: counters plus derived
    per-crash traffic and the replay/rebuild split."""
    summary: Dict[str, float] = {
        key: float(health.get(key, 0))
        for key in (
            "endpoint_crashes",
            "snapshot_restores",
            "snapshot_corruptions_detected",
            "journal_replays",
            "journal_records_replayed",
            "full_rebuilds",
            "handshake_bits",
            "replay_traffic_bits",
            "rebuild_traffic_bits",
            "resync_traffic_bits",
            "recovery_transfers",
            "silent_corruptions",
        )
    }
    summary["replay_fraction"] = replay_fraction(health)
    summary["traffic_per_crash_bits"] = recovery_traffic_per_crash(health)
    replays = health.get("journal_replays", 0)
    rebuilds = health.get("full_rebuilds", 0)
    summary["mean_replay_bits"] = (
        health.get("replay_traffic_bits", 0) / replays if replays else 0.0
    )
    summary["mean_rebuild_bits"] = (
        health.get("rebuild_traffic_bits", 0) / rebuilds if rebuilds else 0.0
    )
    return summary
