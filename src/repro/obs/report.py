"""Render per-stage latency/count tables from a metrics registry.

Consumed by the ``repro-obs-report`` console script (CLI over a live
run or archived ``.obs.json`` snapshots — ``tools/obs_report.py`` is
a compatibility shim over :func:`main`) and by EXPERIMENTS.md's
per-stage table.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Iterable, List, NamedTuple, Optional

from repro.obs.registry import METRICS, MetricsRegistry

#: Stage-name prefix of the wall-time histograms.
STAGE_PREFIX = "stage."

#: Gauge-name prefix recording which kernel leg produced a run.
KERNEL_BACKEND_PREFIX = "kernels.backend."


def publish_kernel_gauges(registry: Optional[MetricsRegistry] = None) -> None:
    """Record the kernel leg as a gauge.

    Called by every encoder construction so archived ``.obs.json``
    snapshots carry the environment that produced their numbers: a
    one-hot ``kernels.backend.<leg>`` gauge (numpy / bit_count / pure).
    A disabled default registry is left untouched — the "disabled means
    free" contract covers this gauge too (an explicit *registry* is
    always written).
    """
    from repro.util.kernels import BACKEND

    reg = registry if registry is not None else METRICS
    if registry is None and not reg.enabled:
        return
    reg.gauge(KERNEL_BACKEND_PREFIX + BACKEND).set(1)


def kernel_header(registry: Optional[MetricsRegistry] = None) -> str:
    """One line naming the kernel leg behind a report.

    Prefers the gauge archived in *registry* (the truth about the run
    that produced a snapshot); falls back to this process's import-time
    selection when a snapshot predates the gauges.
    """
    from repro.util.kernels import BACKEND

    backend = BACKEND
    if registry is not None:
        for name, gauge in registry.gauges.items():
            if name.startswith(KERNEL_BACKEND_PREFIX) and gauge.value:
                backend = name[len(KERNEL_BACKEND_PREFIX) :]
    batch_leg = "numpy" if backend == "numpy" else "pure"
    return f"kernels: backend={backend} batch_leg={batch_leg}"


class StageRow(NamedTuple):
    """One rendered stage: counts plus latency summary (µs)."""

    stage: str
    count: int
    total_ms: float
    mean_us: float
    p50_us: float
    p95_us: float
    max_us: float


def stage_rows(registry: MetricsRegistry) -> List[StageRow]:
    """One row per nonzero ``stage.*`` histogram, sorted by total time."""
    rows: List[StageRow] = []
    for name, histogram in registry.histograms.items():
        if not name.startswith(STAGE_PREFIX) or not histogram.count:
            continue
        rows.append(
            StageRow(
                stage=name[len(STAGE_PREFIX) :],
                count=histogram.count,
                total_ms=histogram.total / 1e6,
                mean_us=histogram.mean / 1e3,
                p50_us=histogram.quantile(0.50) / 1e3,
                p95_us=histogram.quantile(0.95) / 1e3,
                max_us=(histogram.max or 0) / 1e3,
            )
        )
    rows.sort(key=lambda row: -row.total_ms)
    return rows


def render_stage_table(registry: MetricsRegistry) -> str:
    """The per-stage latency/count table, fixed-width text."""
    rows = stage_rows(registry)
    if not rows:
        return "no stage histograms recorded (is observability enabled?)"
    headers = ("stage", "count", "total ms", "mean us", "p50 us", "p95 us", "max us")
    cells: List[List[str]] = [list(headers)]
    for row in rows:
        cells.append(
            [
                row.stage,
                f"{row.count:,}",
                f"{row.total_ms:,.2f}",
                f"{row.mean_us:,.1f}",
                f"{row.p50_us:,.1f}",
                f"{row.p95_us:,.1f}",
                f"{row.max_us:,.1f}",
            ]
        )
    widths = [max(len(line[i]) for line in cells) for i in range(len(headers))]
    lines = []
    for index, line in enumerate(cells):
        padded = [
            line[0].ljust(widths[0]),
            *(cell.rjust(width) for cell, width in zip(line[1:], widths[1:])),
        ]
        lines.append("  ".join(padded).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_counter_table(
    registry: MetricsRegistry, prefixes: Optional[List[str]] = None
) -> str:
    """Nonzero counters (optionally filtered by name prefix)."""
    rows = []
    for name, counter in sorted(registry.counters.items()):
        if not counter.value:
            continue
        if prefixes and not any(name.startswith(prefix) for prefix in prefixes):
            continue
        rows.append((name, counter.value))
    if not rows:
        return "no counters recorded"
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value:,}" for name, value in rows)


def render_markdown_stage_table(registry: MetricsRegistry) -> str:
    """The same table as GitHub-flavored markdown (for EXPERIMENTS.md)."""
    lines = [
        "| stage | count | total ms | mean µs | p50 µs | p95 µs | max µs |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in stage_rows(registry):
        lines.append(
            f"| {row.stage} | {row.count:,} | {row.total_ms:,.2f} "
            f"| {row.mean_us:,.1f} | {row.p50_us:,.1f} | {row.p95_us:,.1f} "
            f"| {row.max_us:,.1f} |"
        )
    return "\n".join(lines)


def instrumented_stage_count(registry: MetricsRegistry) -> int:
    """How many distinct stages recorded at least one observation."""
    return len(stage_rows(registry))


# ----------------------------------------------------------------------
# CLI (the ``repro-obs-report`` console script)
# ----------------------------------------------------------------------

#: Counter prefixes worth showing alongside the stage table.
COUNTER_PREFIXES = [
    "search.",
    "encode.",
    "decode.",
    "signature.",
    "link.",
    "hashtable.",
    "serve.",
    "tune.",
    "tier.",
]


def render_prefix_section(registry: MetricsRegistry, prefix: str, title: str) -> str:
    """One metric family's summary: the nonzero counters and every
    gauge whose name starts with *prefix*, under *title*.

    Empty string when nothing under *prefix* was recorded (the common
    case for ``tune.`` and ``tier.``), so callers can print it
    unconditionally.
    """
    counters = [
        (name, counter.value)
        for name, counter in sorted(registry.counters.items())
        if name.startswith(prefix) and counter.value
    ]
    gauges = [
        (name, gauge.value)
        for name, gauge in sorted(registry.gauges.items())
        if name.startswith(prefix)
    ]
    if not counters and not gauges:
        return ""
    rows = [(name, f"{value:,}") for name, value in counters]
    rows += [(name, f"{value:g}") for name, value in gauges]
    width = max(len(name) for name, _ in rows)
    lines = [f"{title}:"]
    lines += [f"  {name.ljust(width)}  {text}" for name, text in rows]
    return "\n".join(lines)


def run_demo(accesses: int, seed: int) -> None:
    """Drive enough machinery that every instrumented stage fires."""
    from repro.fault.campaign import (
        SimulatedClock,
        run_campaign,
        run_crash_campaign,
    )
    from repro.fault.plan import FaultPlan
    from repro.state.plan import DurabilityPolicy

    METRICS.enable()
    # A moderately hostile link: enough wire faults that the NACK /
    # retransmit and resync stages record real work, not zeros.
    plan = FaultPlan.uniform(0.01, seed=seed)
    campaign = run_campaign(
        plan,
        accesses=accesses,
        seed=seed + 1,
        breaker_clock=SimulatedClock(),
    )
    print(
        f"campaign: {campaign.accesses:,} accesses, "
        f"{campaign.faults_injected:,} faults injected, "
        f"{campaign.link_failures:,} loud failures, "
        f"{campaign.silent_corruptions:,} silent corruptions"
    )
    # A short durable crash campaign lights up the state.* stages
    # (snapshot, restore, journal replay, crash recovery).
    crash_plan = FaultPlan(seed=seed, home_crash_rate=0.002, remote_crash_rate=0.002)
    crash = run_crash_campaign(
        crash_plan,
        durability=DurabilityPolicy(),
        accesses=max(1000, accesses // 5),
        seed=seed + 2,
        breaker_clock=SimulatedClock(),
    )
    print(
        f"crash campaign: {crash.accesses:,} accesses, "
        f"{crash.kill_points:,} kill points, "
        f"{crash.silent_corruptions:,} silent corruptions"
    )


def load_snapshots(registry: MetricsRegistry, paths: Iterable[str]) -> None:
    for path in paths:
        registry.load_snapshot(json.loads(pathlib.Path(path).read_text()))


def main(argv: Optional[List[str]] = None) -> int:
    from repro.obs.export import render_prometheus

    parser = argparse.ArgumentParser(
        prog="repro-obs-report",
        description="Render per-stage latency/count tables from the "
        "metrics registry.",
    )
    parser.add_argument(
        "snapshots",
        nargs="*",
        help="archived .obs.json registry snapshots to merge and render",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run a live instrumented campaign instead of loading snapshots",
    )
    parser.add_argument(
        "--accesses", type=int, default=5000, help="demo campaign accesses"
    )
    parser.add_argument("--seed", type=int, default=7, help="demo campaign seed")
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="render the stage table as GitHub-flavored markdown",
    )
    parser.add_argument(
        "--counters",
        action="store_true",
        help="also print the nonzero event counters",
    )
    parser.add_argument(
        "--prometheus",
        metavar="PATH",
        help="additionally write the registry in Prometheus text format",
    )
    args = parser.parse_args(argv)

    if not args.demo and not args.snapshots:
        parser.error("give --demo or at least one .obs.json snapshot")

    registry = METRICS
    if args.demo:
        run_demo(args.accesses, args.seed)
    else:
        registry = MetricsRegistry()
    load_snapshots(registry, args.snapshots)

    print()
    print(kernel_header(registry))
    print()
    if args.markdown:
        print(render_markdown_stage_table(registry))
    else:
        print(render_stage_table(registry))
    stages = instrumented_stage_count(registry)
    print(f"\n{stages} instrumented stages recorded observations")
    if args.counters:
        print()
        print(render_counter_table(registry, COUNTER_PREFIXES))
    for prefix, title in (("tune.", "adaptive tuning"), ("tier.", "memory tiers")):
        section = render_prefix_section(registry, prefix, title)
        if section:
            print()
            print(section)
    if args.prometheus:
        pathlib.Path(args.prometheus).write_text(render_prometheus(registry))
        print(f"wrote Prometheus text to {args.prometheus}")
    return 0
