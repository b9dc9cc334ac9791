"""Memory-tier scenario subsystem.

Wraps the CABLE encoder/link plumbing in three tier models beyond the
paper's home↔remote LLC link:

- :mod:`repro.tiers.cxl` — CXL far-memory expander (asymmetric
  channels, device-side queuing, encoder on the CXL link);
- :mod:`repro.tiers.dramcache` — DRAM cache with software-managed
  placement (frequency admission + lazy tag update), encoder on the
  fill/write-back path;
- :mod:`repro.tiers.capacity` — capacity-mode compressed cache
  (multiple lines per slot, explicit tag/metadata overhead, slot
  overflow fallback).

All three report the common :class:`repro.tiers.base.TierResult`
columns (a :class:`repro.sim.leg.LinkCounts` tally plus tier extras),
publish ``tier.*`` obs metrics, and are swept by
:mod:`repro.experiments.tiers`. The CXL and DRAM-cache tiers build
their link with :class:`repro.sim.leg.LinkLeg`.
"""

from repro.tiers.base import TierResult
from repro.tiers.capacity import (
    CapacityCache,
    CapacityTierSimulation,
    make_storage_engine,
    run_capacity_tier,
)
from repro.tiers.cxl import CxlTierSimulation, run_cxl_tier
from repro.tiers.dramcache import DramCacheTierSimulation, run_dram_tier
from repro.tiers.plan import CapacityTierConfig, CxlTierConfig, DramCacheTierConfig

__all__ = [
    "TierResult",
    "CxlTierConfig",
    "DramCacheTierConfig",
    "CapacityTierConfig",
    "CxlTierSimulation",
    "DramCacheTierSimulation",
    "CapacityTierSimulation",
    "CapacityCache",
    "make_storage_engine",
    "run_cxl_tier",
    "run_dram_tier",
    "run_capacity_tier",
]
