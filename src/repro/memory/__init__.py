"""DRAM substrate: DDR3 device timing behind the L4 buffer (Table IV).

:meth:`repro.sim.timing.TimingModel.with_ddr3` derives its DRAM latency
from :class:`Ddr3Timing`.
"""

from repro.memory.dram import Ddr3Timing

__all__ = ["Ddr3Timing"]
