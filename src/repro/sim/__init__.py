"""System-simulation substrate: link simulations and analytical models.

Every link simulation builds its link from one scheme name through
:class:`repro.sim.leg.LinkLeg` and counts what crosses it in a
:class:`repro.sim.leg.LinkCounts`.
"""

from repro.sim.leg import LINK_SCHEMES, STREAM_SCHEMES, LinkCounts, LinkLeg, gzip_window
from repro.sim.memlink import (
    MemLinkConfig,
    MemLinkResult,
    MemLinkSimulation,
    resolve_profile,
    run_memlink,
    run_suite,
    scale_profile,
)
from repro.sim.multichip import MultiChipConfig, MultiChipSimulation, run_multichip
from repro.sim.timing import TimingModel, COMPRESSION_LATENCIES
from repro.sim.throughput import ThroughputModel, QUAD_CHANNEL_BW
from repro.sim.energy import EnergyModel, EnergyParameters, EnergyBreakdown
from repro.sim.area import table_iii, AreaReport
from repro.sim.control import BandwidthController, evaluate_control
from repro.sim.queueing import (
    ThreadSpec,
    simulate_group,
    grouped_throughput,
    queueing_speedup,
)

__all__ = [
    "LINK_SCHEMES",
    "STREAM_SCHEMES",
    "LinkCounts",
    "LinkLeg",
    "gzip_window",
    "MemLinkConfig",
    "MemLinkResult",
    "MemLinkSimulation",
    "resolve_profile",
    "run_memlink",
    "run_suite",
    "scale_profile",
    "MultiChipConfig",
    "MultiChipSimulation",
    "run_multichip",
    "TimingModel",
    "COMPRESSION_LATENCIES",
    "ThroughputModel",
    "QUAD_CHANNEL_BW",
    "EnergyModel",
    "EnergyParameters",
    "EnergyBreakdown",
    "table_iii",
    "AreaReport",
    "BandwidthController",
    "evaluate_control",
    "ThreadSpec",
    "simulate_group",
    "grouped_throughput",
    "queueing_speedup",
]
