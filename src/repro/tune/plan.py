"""Arm spaces and plans for online knob tuning (ROADMAP item 3).

CABLE's knobs — ``data_access_count``, signatures-per-line, compressor
choice, hash-table geometry — are tuned once and globally in the
paper, yet per-workload profiles differ wildly. A :class:`KnobArm`
names one discrete knob configuration; a :class:`TuningPlan` names the
bandit policy that picks between arms online, with its schedule and
seed. Everything here is plain data: the policies live in
:mod:`repro.tune.bandit`, the epoch schedule and reward sampling in
:mod:`repro.tune.controller`.

Arms are applied mid-run through
:meth:`repro.link.lifecycle.LinkLifecycle.apply_config`, so only knobs
that method can change at runtime are legal overrides. ``enabled`` is
special-cased: it is the §VI-D on/off switch (a ``CableLinkPair``
attribute, not a :class:`~repro.core.config.CableConfig` field).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Tuple

#: Config fields that change the negotiated wire format
#: (:func:`repro.link.wire.wire_format_for`). The serve layer ships
#: real frames that the client decodes with the format negotiated at
#: OPEN, so arms touching these are filtered out there (the simulator,
#: which owns both endpoints, may tune them freely).
WIRE_AFFECTING = frozenset({"engine", "remotelid_bits", "line_bytes"})

#: Knobs that re-shape the signature hash tables. The reshape is a
#: journal-bypassing bulk mutation, so the pair's lifecycle rebuilds
#: both tables from the cache arrays and reseeds its replica slot.
GEOMETRY_KNOBS = frozenset({"hash_table_scale", "hash_bucket_entries"})

#: Knobs an arm may override: ``enabled`` plus the CableConfig fields
#: :meth:`LinkLifecycle.apply_config` accepts at runtime. This is the
#: only list: ``LinkLifecycle`` derives its runtime set from it.
TUNABLE_KNOBS = frozenset(
    {
        "enabled",
        "signature_offsets",
        "signatures_per_line",
        "trivial_threshold_bits",
        "hash_table_scale",
        "hash_bucket_entries",
        "data_access_count",
        "max_references",
        "ranking_policy",
        "no_reference_threshold",
        "engine",
    }
)


@dataclass(frozen=True)
class KnobArm:
    """One named, hashable knob configuration."""

    name: str
    #: Sorted ``(knob, value)`` pairs — tuples, not a dict, so arms are
    #: hashable and usable as memoization keys (cached_memlink sweeps).
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, **overrides: Any) -> "KnobArm":
        unknown = set(overrides) - TUNABLE_KNOBS
        if unknown:
            raise ValueError(f"arm {name!r} overrides untunable knobs: {sorted(unknown)}")
        items = tuple(
            sorted(
                (key, tuple(value) if isinstance(value, list) else value)
                for key, value in overrides.items()
            )
        )
        return cls(name=name, overrides=items)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.overrides)

    def config_overrides(self) -> Dict[str, Any]:
        """The CableConfig overrides (``enabled`` stripped)."""
        return {key: value for key, value in self.overrides if key != "enabled"}

    @property
    def enabled(self) -> bool:
        """Whether compression is on under this arm (§VI-D switch)."""
        return bool(self.as_dict().get("enabled", True))

    @property
    def wire_safe(self) -> bool:
        return not any(key in WIRE_AFFECTING for key, _ in self.overrides)


def default_arm_space(wire_safe: bool = False) -> Tuple[KnobArm, ...]:
    """The stock discrete arm space the ablations sweep.

    One arm per knob axis around the paper baseline: the §VI-D off
    switch, probe-budget extremes, signature-density extremes, a
    degraded hash geometry, and the alternative compressor. With
    ``wire_safe`` the engine arm is dropped (see :data:`WIRE_AFFECTING`).
    """
    arms = (
        KnobArm.make("base"),
        KnobArm.make("off", enabled=False),
        KnobArm.make("probe2", data_access_count=2),
        KnobArm.make("probe12", data_access_count=12),
        KnobArm.make("sig1", signatures_per_line=1),
        KnobArm.make(
            "sig4", signature_offsets=(0, 16, 32, 48), signatures_per_line=4
        ),
        KnobArm.make("bucket4", hash_bucket_entries=4),
        KnobArm.make("table8th", hash_table_scale=0.125),
        KnobArm.make("cpack", engine="cpack"),
    )
    if wire_safe:
        arms = tuple(arm for arm in arms if arm.wire_safe)
    return arms


POLICIES = ("epsilon", "ucb1", "onoff")


@dataclass(frozen=True)
class TuningPlan:
    """Which policy explores which arms, on what schedule."""

    #: "epsilon" (ε-greedy), "ucb1", or "onoff" (the §VI-D hysteresis
    #: baseline — a two-position controller, not a bandit).
    policy: str = "ucb1"
    #: Explicit arm space; empty means :func:`default_arm_space`.
    arms: Tuple[KnobArm, ...] = ()
    #: ε-greedy exploration rate.
    epsilon: float = 0.1
    #: UCB1 exploration constant.
    ucb_c: float = 1.0
    #: Accesses observed before the first arm is pulled (lets the
    #: caches and hash tables warm so early rewards aren't noise).
    warmup_accesses: int = 256
    #: Accesses each pulled arm is held before its reward is settled.
    hold_accesses: int = 128
    #: Base seed; hosts mix in per-session / per-benchmark context via
    #: :func:`repro.util.rng.make_rng`.
    seed: int = 0xCAB1E

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, not {self.policy!r}")
        if self.warmup_accesses < 0:
            raise ValueError("warmup_accesses cannot be negative")
        if self.hold_accesses < 1:
            raise ValueError("hold_accesses must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.ucb_c < 0:
            raise ValueError("ucb_c cannot be negative")

    def resolve_arms(self, wire_safe: bool = False) -> Tuple[KnobArm, ...]:
        arms = self.arms or default_arm_space()
        if wire_safe:
            arms = tuple(arm for arm in arms if arm.wire_safe)
        if not arms:
            raise ValueError("tuning plan resolved to an empty arm space")
        names = [arm.name for arm in arms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate arm names: {names}")
        return arms

    def scaled(self, **kwargs: Any) -> "TuningPlan":
        return replace(self, **kwargs)
