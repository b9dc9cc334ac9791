"""Single-thread latency model (Table IV, Fig 17).

The paper's cores are in-order, 1 CPI for non-memory work, with the
memory subsystem latencies of Table IV. CABLE's compress/decompress
cycles come from the §IV-D search-pipeline model
(:func:`repro.core.pipeline.end_to_end_cycles`); the other schemes'
are the paper's constants. This model turns a
:class:`~repro.sim.memlink.MemLinkResult` into execution cycles:

``cycles = instructions × 1
         + LLC accesses × 30
         + LLC misses × (link setup + flit transfer + L4 access
                          [+ DRAM on L4 miss] [+ comp/decomp latency])``

Compression adds its per-transfer latency on the critical path of
every off-chip fill and *removes* flit-transfer time proportional to
the compression it achieves. Fig 17 is the ratio of compressed to
uncompressed execution time; the on/off controller of §VI-D
(:mod:`repro.sim.control`) removes the penalty when bandwidth is not
scarce.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CableConfig
from repro.core.pipeline import end_to_end_cycles
from repro.sim.memlink import MemLinkResult

_CABLE_BUDGET = end_to_end_cycles(CableConfig())

#: Compression/decompression latencies in core cycles (Table IV).
#: CABLE's pair is the §IV-D pipeline model's: compression includes
#: the worst-case search.
COMPRESSION_LATENCIES = {
    "raw": (0, 0),
    "zero": (1, 1),
    "bdi": (1, 1),
    "cpack": (8, 8),
    "cpack128": (8, 8),
    "lbe256": (8, 8),
    "gzip": (64, 32),
    "cable": (
        _CABLE_BUDGET["search"] + _CABLE_BUDGET["compress"],
        _CABLE_BUDGET["decompress"],
    ),
}


@dataclass(frozen=True)
class TimingModel:
    """Latency parameters (defaults = Table IV at a 2GHz core)."""

    core_hz: float = 2.0e9
    llc_cycles: int = 30
    l4_cycles: int = 30
    link_setup_ns: float = 20.0
    link_hz: float = 9.6e9
    link_width_bits: int = 16
    dram_cycles: int = 60  # controller + DDR3 9-9-9 at 2GHz
    dram_link_hz: float = 1.6e9
    dram_link_width_bits: int = 64
    #: Memory-level parallelism: outstanding misses overlap, so only
    #: 1/mlp of each miss's latency lands on the critical path (even
    #: in-order cores have non-blocking caches and hit-under-miss).
    mlp: float = 4.0
    #: Fraction of codec latency actually exposed: the search overlaps
    #: the data-array/DRAM fetch pipeline and DIFF decode streams with
    #: the arriving flits, hiding about half of the worst-case cycles.
    codec_exposure: float = 0.5

    @property
    def link_setup_cycles(self) -> float:
        return self.link_setup_ns * 1e-9 * self.core_hz

    def link_transfer_cycles(self, bits: float) -> float:
        """Core cycles to move *bits* across the off-chip link."""
        flits = -(-bits // self.link_width_bits) if bits else 0
        return flits / self.link_hz * self.core_hz

    def dram_transfer_cycles(self, bits: float) -> float:
        beats = -(-bits // self.dram_link_width_bits) if bits else 0
        return beats / self.dram_link_hz * self.core_hz

    # ------------------------------------------------------------------

    def execution_cycles(
        self,
        result: MemLinkResult,
        scheme: str = None,
        compressed: bool = True,
    ) -> float:
        """Total core cycles for the simulated region.

        ``compressed=False`` evaluates the same run as if the link
        carried raw lines with no codec latency — the Fig 17 baseline.
        """
        scheme = scheme or result.scheme
        comp, decomp = COMPRESSION_LATENCIES.get(scheme, (0, 0))
        line_bits = 64 * 8

        cycles = result.instructions  # 1 CPI non-memory + L1/L2 folded in
        memory_cycles = (result.llc_hits + result.llc_misses) * self.llc_cycles

        misses = result.llc_misses
        if misses:
            if compressed and result.transfers:
                fill_bits = result.payload_bits / result.transfers
                codec_cycles = (comp + decomp) * self.codec_exposure
            else:
                fill_bits = line_bits
                codec_cycles = 0
            per_miss = (
                self.link_setup_cycles
                + self.link_transfer_cycles(fill_bits)
                + self.l4_cycles
                + codec_cycles
            )
            memory_cycles += misses * per_miss
        if result.l4_misses:
            memory_cycles += result.l4_misses * (
                self.dram_cycles + self.dram_transfer_cycles(line_bits)
            )
        return cycles + memory_cycles / self.mlp

    def degradation(self, result: MemLinkResult, scheme: str = None) -> float:
        """Fig 17's single-thread slowdown: time_comp / time_raw − 1.

        Positive when codec latency outweighs the (latency-wise small)
        transfer savings — the expected case for a single thread with
        abundant bandwidth.
        """
        base = self.execution_cycles(result, scheme="raw", compressed=False)
        comp = self.execution_cycles(result, scheme=scheme, compressed=True)
        return comp / base - 1.0

    def execution_seconds(self, result: MemLinkResult, **kwargs) -> float:
        return self.execution_cycles(result, **kwargs) / self.core_hz
