"""DDR3 DRAM device timing (Table IV: DDR3-1600, 9-9-9 sub-timings).

The paper's memory controllers are FCFS with a *closed-page* policy:
every access activates a row, bursts one cache line, and precharges
immediately (auto-precharge). With 9-9-9 sub-timings at an 800MHz
DRAM clock (1600MT/s):

- tRCD = 9 clocks (activate → column command)
- CL   = 9 clocks (column command → first data)
- tRP  = 9 clocks (precharge → next activate, overlapped after data)
- burst: a 64B line over a 64-bit channel is 8 beats = 4 clocks.

So an unloaded closed-page read returns data after
``tRCD + CL + BL/2`` = 22 clocks = 27.5ns, and a bank can start its
next activate ``tRCD + CL + BL/2 + tRP`` after the previous one —
the service interval that bank conflicts serialize on.

The simulator charges DRAM a fixed latency rather than modelling banks
or a controller queue: :meth:`repro.sim.timing.TimingModel.with_ddr3`
turns :attr:`Ddr3Timing.access_ns` into core cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Ddr3Timing:
    """Device timing in DRAM-clock cycles."""

    clock_hz: float = 800e6  # DDR3-1600: 800MHz clock, 1600MT/s
    trcd: int = 9
    cl: int = 9
    trp: int = 9
    burst_beats: int = 8  # 64B over a 64-bit channel

    @property
    def burst_clocks(self) -> int:
        """Double data rate: two beats per clock."""
        return self.burst_beats // 2

    @property
    def access_clocks(self) -> int:
        """Closed-page access latency to last data beat."""
        return self.trcd + self.cl + self.burst_clocks

    @property
    def bank_cycle_clocks(self) -> int:
        """Minimum spacing between activates to one bank."""
        return self.trcd + self.cl + self.burst_clocks + self.trp

    @property
    def access_ns(self) -> float:
        return self.access_clocks / self.clock_hz * 1e9

    @property
    def peak_bandwidth_bytes_per_s(self) -> float:
        """2 × clock × bus width: 12.8GB/s for DDR3-1600 x64."""
        return 2 * self.clock_hz * 8

