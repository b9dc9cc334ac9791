"""Adaptive knob tuning (ROADMAP item 3) — the headline ablation.

The paper tunes CABLE's knobs once, globally; §VI-D's only online
control is the on/off hysteresis switch. This experiment measures what
a per-workload bandit controller (:mod:`repro.tune`) buys over that:
for every sweep benchmark it sweeps the discrete arm space statically
(one full run per arm), then runs the same workload with the UCB1
controller switching arms online and with the §VI-D on/off baseline
wrapped as a two-arm policy.

Columns per workload:

- ``static_best`` / ``static_worst`` — the best and worst effective
  (flit-quantized) ratio any single fixed arm achieves, with the arm
  names. The static sweep is the oracle an offline tuner would need a
  profiling pass per workload to find.
- ``adaptive`` — the UCB1 controller's whole-run ratio, exploration
  cost included.
- ``onoff`` — the §VI-D hysteresis baseline run through the same
  controller harness (arm space {base, off}).
- ``adp_vs_worst`` — adaptive / static_worst, the gated margin: the
  controller must never be worth less than the worst static choice it
  is protecting against.

Two further gates ride in the summary:

- ``serve_silent_corruptions`` — a faulty-serve campaign (uniform wire
  faults, per-session UCB1 controllers) must finish with zero escapes:
  knob switches at epoch boundaries never corrupt served lines.
- ``arms_payload_identical`` — twin-encoder equivalence: for every
  arm, a pair *constructed* at the arm's config and a pair *reconfigured*
  into it via :meth:`~repro.link.lifecycle.LinkLifecycle.apply_config`
  produce byte-identical payload streams on an identical trace.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence

from repro.core.encoder import TransferRecord
from repro.experiments.base import (
    SWEEP_BENCHMARKS,
    ExperimentResult,
    cached_memlink,
    memlink_config,
    resolve_scale,
)
from repro.sim.memlink import MemLinkSimulation
from repro.tune.plan import KnobArm, TuningPlan, default_arm_space

EXPERIMENT_ID = "Adaptive tuning"

#: Margin of the per-workload gate: the adaptive run must beat the
#: worst static arm by at least this factor (the worst arm is usually
#: ``off`` at ratio 1.0, so this asserts the controller never tunes a
#: compressible workload down to raw).
WORST_MARGIN = 1.02


def _tuning_plan(policy: str, scale) -> TuningPlan:
    """Schedule scaled to the preset so every scale settles ~20 epochs."""
    preset = resolve_scale(scale)
    counted = max(1, int(preset.accesses * (1.0 - 0.25)))
    return TuningPlan(
        policy=policy,
        warmup_accesses=max(32, counted // 12),
        hold_accesses=max(32, counted // 24),
    )


def _static_ratio(benchmark: str, arm: KnobArm, scale) -> float:
    """Effective ratio of one fixed arm held for a whole run."""
    if not arm.enabled:
        # The off arm is the raw link; its effective ratio is 1 by
        # definition and the raw run is already in every figure cache.
        return cached_memlink(benchmark, "raw", scale).effective_ratio
    overrides = arm.config_overrides()
    if not overrides:
        return cached_memlink(benchmark, "cable", scale).effective_ratio
    config = memlink_config(scale)
    config = config.scaled(cable=config.cable.with_overrides(**overrides))
    return MemLinkSimulation(benchmark, config).run().effective_ratio


def _adaptive_run(benchmark: str, policy: str, scale):
    config = memlink_config(scale).scaled(tuning=_tuning_plan(policy, scale))
    return MemLinkSimulation(benchmark, config).run()


def verify_arm_payload_equivalence(
    scale="smoke", benchmark: str = "gcc", arms: Optional[Sequence[KnobArm]] = None
) -> Dict[str, bool]:
    """Twin-encoder check: construct-at-arm ≡ reconfigure-into-arm.

    For each arm, one simulation builds its pair directly at the arm's
    config while its twin builds the base pair and crosses over via
    ``apply_config`` before any traffic; both then replay the identical
    trace. Byte-identical payload streams (and bit-identical totals)
    mean a knob change applied at a safe boundary is indistinguishable
    from having always run that way.
    """
    verdicts: Dict[str, bool] = {}
    for arm in arms if arms is not None else default_arm_space():
        base = memlink_config(scale)
        target = base.cable.with_overrides(**arm.config_overrides())
        native = MemLinkSimulation(benchmark, base.scaled(cable=target))
        crossed = MemLinkSimulation(benchmark, base)
        assert native.cable is not None and crossed.cable is not None
        crossed.cable.lifecycle.apply_config(target)
        native.cable.enabled = arm.enabled
        crossed.cable.enabled = arm.enabled
        a: List[TransferRecord] = []
        b: List[TransferRecord] = []
        for sim, records in ((native, a), (crossed, b)):
            sim.cable.listeners.append(records.append)
            sim.run()
        same = native.cable.totals == crossed.cable.totals and len(a) == len(b)
        if same:
            same = all(
                ra.direction == rb.direction
                and ra.line_addr == rb.line_addr
                and ra.payload == rb.payload
                for ra, rb in zip(a, b)
            )
        verdicts[arm.name] = same
    return verdicts


async def _serve_campaign(
    clients: int, accesses: int, benchmark: str, seed: int
) -> Dict[str, object]:
    """Faulty-serve campaign with per-session adaptive controllers."""
    from repro.fault.plan import FaultPlan
    from repro.serve.loadgen import run_loadgen
    from repro.serve.server import LinkService
    from repro.serve.session import ServeConfig

    config = ServeConfig(
        faults=FaultPlan.uniform(0.02, seed=seed),
        max_sessions=max(64, clients),
        tuning=TuningPlan(
            policy="ucb1",
            seed=seed,
            warmup_accesses=max(8, accesses // 4),
            hold_accesses=max(8, accesses // 8),
        ),
    )
    service = LinkService(config)
    report = await run_loadgen(
        clients=clients,
        accesses=accesses,
        benchmark=benchmark,
        seed=seed,
        service=service,
    )
    drain = report.drain_report
    return {
        "completed": report.completed,
        "planned": report.accesses,
        "silent_corruptions": report.silent_corruptions,
        "audit_ok": report.audit_ok,
        "drained_clean": report.drained_clean,
        "tuned_sessions": drain.get("tuned_sessions", 0),
        "tune_epochs": drain.get("tune_epochs", 0),
        "tune_switches": drain.get("tune_switches", 0),
    }


def run(
    scale="default",
    benchmarks: Optional[Sequence[str]] = None,
    serve_clients: int = 4,
    serve_accesses: int = 96,
) -> ExperimentResult:
    benchmarks = list(benchmarks or SWEEP_BENCHMARKS)
    arms = default_arm_space()
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Online adaptive tuning vs. static knob choices",
        headers=[
            "workload",
            "static_best",
            "best_arm",
            "adaptive",
            "onoff",
            "static_worst",
            "worst_arm",
            "adp_vs_worst",
        ],
        paper_claim=(
            "Not in the paper: generalizes §VI-D's on/off control to a "
            "bandit over the knob space; adaptive must never lose to "
            "the worst static arm"
        ),
    )
    margins: List[float] = []
    adaptive_ratios: List[float] = []
    best_ratios: List[float] = []
    epochs_total = 0
    for benchmark in benchmarks:
        static = {arm.name: _static_ratio(benchmark, arm, scale) for arm in arms}
        best_arm = max(static, key=lambda name: static[name])
        worst_arm = min(static, key=lambda name: static[name])
        adaptive = _adaptive_run(benchmark, "ucb1", scale)
        onoff = _adaptive_run(benchmark, "onoff", scale)
        assert adaptive.tuning is not None
        epochs_total += int(adaptive.tuning["epochs"])
        margin = adaptive.effective_ratio / max(static[worst_arm], 1e-9)
        margins.append(margin)
        adaptive_ratios.append(adaptive.effective_ratio)
        best_ratios.append(static[best_arm])
        result.rows.append(
            [
                benchmark,
                static[best_arm],
                best_arm,
                adaptive.effective_ratio,
                onoff.effective_ratio,
                static[worst_arm],
                worst_arm,
                margin,
            ]
        )
    serve = asyncio.run(
        _serve_campaign(serve_clients, serve_accesses, benchmarks[0], seed=0xCAB1E)
    )
    equivalence = verify_arm_payload_equivalence("smoke", benchmarks[0], arms)
    result.summary = {
        "workloads": float(len(benchmarks)),
        "mean_adaptive_ratio": sum(adaptive_ratios) / len(adaptive_ratios),
        "mean_static_best_ratio": sum(best_ratios) / len(best_ratios),
        "min_adp_vs_worst": min(margins),
        "tune_epochs_sim": float(epochs_total),
        "serve_completed": float(serve["completed"]),
        "serve_planned": float(serve["planned"]),
        "serve_silent_corruptions": float(serve["silent_corruptions"]),
        "serve_tuned_sessions": float(serve["tuned_sessions"]),
        "serve_tune_epochs": float(serve["tune_epochs"]),
        "arms_payload_identical": float(all(equivalence.values())),
    }
    return result


if __name__ == "__main__":
    print(run().render())
