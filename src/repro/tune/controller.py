"""Epoch-scheduled knob controller driving a live CableLinkPair.

The controller counts host accesses (``on_access``), waits out a
warmup, then runs back-to-back *epochs*: at each boundary it settles
the held arm's reward from the deltas of the pair's existing traffic
counters and asks the policy for the next arm. Knobs only ever change
at these boundaries, through the pair's
:meth:`~repro.link.lifecycle.LinkLifecycle.apply_config`, which
flushes and (after a reshape) reseeds the pair's replica slot — that
is what keeps replication journals and failover snapshots consistent;
mid-epoch the configuration is immutable.

Reward per epoch: ``bytes_saved / (1 + data_reads)`` — bits kept off
the link (raw minus payload-plus-overhead) per unit of search cost
(cache data-array reads spent probing references), both deltas over
the epoch. Policies receive it squashed through ``r / (1 + r)`` into
``[0, 1)``; the raw value feeds the ``tune.reward_ema`` gauge.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.obs.registry import METRICS
from repro.tune.bandit import make_policy
from repro.tune.plan import KnobArm, TuningPlan

_EMA_ALPHA = 0.3
#: A trailing partial epoch still settles if it covered at least this
#: fraction of a full hold (shorter tails are too noisy to score).
_MIN_PARTIAL_FRACTION = 4


class KnobController:
    """One tuner instance per link pair (per benchmark run / session)."""

    def __init__(
        self,
        pair: Any,
        plan: TuningPlan,
        wire_safe: bool = False,
        seed_context: Tuple = (),
    ) -> None:
        self.pair = pair
        self.plan = plan
        self.arms = plan.resolve_arms(wire_safe=wire_safe)
        self.policy = make_policy(plan, self.arms, seed_context)
        # Arm overrides are applied against the config the pair started
        # with, not cumulatively, so arms never interact.
        self._base_config = pair.config
        self._base_enabled = pair.enabled
        self.accesses = 0
        self.current_index: Optional[int] = None
        self.epochs = 0
        self.switches = 0
        self.reward_total_raw = 0.0
        self.reward_ema = 0.0
        self._epoch_start = 0
        self._baseline: Optional[Tuple[int, int, int]] = None
        self._ctr_epochs = METRICS.counter("tune.epochs")
        self._ctr_switches = METRICS.counter("tune.switches")
        self._ctr_pulls = {
            arm.name: METRICS.counter(f"tune.pull.{arm.name}") for arm in self.arms
        }
        self._g_current = METRICS.gauge("tune.current_arm")
        self._g_ema = METRICS.gauge("tune.reward_ema")
        self._g_regret = METRICS.gauge("tune.regret")

    # -- host hooks --------------------------------------------------
    def on_access(self) -> None:
        """Called by the host once per completed access."""
        self.accesses += 1
        if self.current_index is None:
            if self.accesses >= self.plan.warmup_accesses:
                self._begin_epoch()
        elif self.accesses - self._epoch_start >= self.plan.hold_accesses:
            self._settle_epoch()
            self._begin_epoch()

    def finish(self) -> None:
        """Settle the trailing partial epoch at end of run/drain."""
        if self.current_index is None or self._baseline is None:
            return
        held = self.accesses - self._epoch_start
        if held >= max(1, self.plan.hold_accesses // _MIN_PARTIAL_FRACTION):
            self._settle_epoch()
        self._baseline = None

    # -- epoch machinery ---------------------------------------------
    def _counters(self) -> Tuple[int, int, int]:
        totals = self.pair.totals
        payload = (
            totals["fill_bits"] + totals["writeback_bits"] + totals["overhead_bits"]
        )
        caches = self.pair.pair
        reads = caches.home.stats["data_reads"] + caches.remote.stats["data_reads"]
        return totals["raw_bits"], payload, reads

    def _begin_epoch(self) -> None:
        index = self.policy.select()
        if index != self.current_index:
            self._apply(index)
        self.current_index = index
        self._epoch_start = self.accesses
        self._baseline = self._counters()
        if METRICS.enabled:
            self._g_current.set(index)

    def _settle_epoch(self) -> None:
        assert self.current_index is not None and self._baseline is not None
        raw0, payload0, reads0 = self._baseline
        raw1, payload1, reads1 = self._counters()
        saved_bytes = max(0.0, (raw1 - raw0) - (payload1 - payload0)) / 8.0
        reward = saved_bytes / (1.0 + (reads1 - reads0))
        normalized = reward / (1.0 + reward)
        self.policy.update(self.current_index, normalized)
        self.epochs += 1
        self.reward_total_raw += reward
        self.reward_ema = (
            reward
            if self.epochs == 1
            else _EMA_ALPHA * reward + (1.0 - _EMA_ALPHA) * self.reward_ema
        )
        if METRICS.enabled:
            self._ctr_epochs.inc()
            self._ctr_pulls[self.arms[self.current_index].name].inc()
            self._g_ema.set(self.reward_ema)
            self._g_regret.set(self.policy.regret_estimate())

    def _apply(self, index: int) -> None:
        arm = self.arms[index]
        target = self._base_config.with_overrides(**arm.config_overrides())
        self.pair.lifecycle.apply_config(target)
        self.pair.enabled = self._base_enabled and arm.enabled
        if self.current_index is not None:
            self.switches += 1
            if METRICS.enabled:
                self._ctr_switches.inc()

    # -- reporting ---------------------------------------------------
    @property
    def current_arm(self) -> Optional[KnobArm]:
        return None if self.current_index is None else self.arms[self.current_index]

    def rollup(self) -> Dict[str, Any]:
        """Plain-data summary for results/reports."""
        best = self.policy.best_index()
        return {
            "policy": self.plan.policy,
            "arms": [arm.name for arm in self.arms],
            "epochs": self.epochs,
            "switches": self.switches,
            "pulls": {
                arm.name: self.policy.stats[i].pulls
                for i, arm in enumerate(self.arms)
            },
            "best_arm": self.arms[best].name,
            "current_arm": None if self.current_arm is None else self.current_arm.name,
            "reward_ema": self.reward_ema,
            "reward_total": self.reward_total_raw,
            "regret": self.policy.regret_estimate(),
        }

    # -- durability (failover) ---------------------------------------
    def state_snapshot(self) -> Dict[str, Any]:
        """Everything a promoted standby needs to resume the schedule.

        The in-flight epoch's counter baseline is deliberately *not*
        included: the standby's counters restart, so the epoch in
        progress at the kill is abandoned and a fresh one begins at the
        next boundary — settled statistics carry over, torn ones never
        do.
        """
        return {
            "policy_state": self.policy.state_snapshot(),
            "accesses": self.accesses,
            "epochs": self.epochs,
            "switches": self.switches,
            "reward_total_raw": self.reward_total_raw,
            "reward_ema": self.reward_ema,
            "current_index": self.current_index,
        }

    def restore_state(self, snapshot: Dict[str, Any]) -> None:
        self.policy.restore_state(snapshot["policy_state"])
        self.accesses = snapshot["accesses"]
        self.epochs = snapshot["epochs"]
        self.switches = snapshot["switches"]
        self.reward_total_raw = snapshot["reward_total_raw"]
        self.reward_ema = snapshot["reward_ema"]
        # The restored arm is *known* but not trusted to be applied —
        # the caller re-applies it (or leaves base) before resuming;
        # marking the epoch unbaselined forces a clean boundary first.
        self.current_index = snapshot["current_index"]
        self._epoch_start = self.accesses
        self._baseline = None
        if self.current_index is not None:
            self._apply_current()

    def _apply_current(self) -> None:
        """Re-apply the current arm's knobs (post-restore/promote)."""
        assert self.current_index is not None
        arm = self.arms[self.current_index]
        target = self._base_config.with_overrides(**arm.config_overrides())
        self.pair.lifecycle.apply_config(target)
        self.pair.enabled = self._base_enabled and arm.enabled
        self._epoch_start = self.accesses
        self._baseline = self._counters()
