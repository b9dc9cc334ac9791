"""DRAM substrate: DDR3 timing (Table IV's 9-9-9 arithmetic)."""

import pytest

from repro.memory import Ddr3Timing


class TestDdr3Timing:
    def test_table_iv_parameters(self):
        timing = Ddr3Timing()
        assert timing.trcd == timing.cl == timing.trp == 9
        assert timing.clock_hz == pytest.approx(800e6)

    def test_closed_page_access_clocks(self):
        """tRCD + CL + BL/2 = 9 + 9 + 4 = 22 clocks = 27.5ns."""
        timing = Ddr3Timing()
        assert timing.access_clocks == 22
        assert timing.access_ns == pytest.approx(27.5)

    def test_peak_bandwidth_is_12_8gb(self):
        """Table IV: 64-bit @ 1.6GHz → 12.8GB/s."""
        assert Ddr3Timing().peak_bandwidth_bytes_per_s == pytest.approx(12.8e9)

    def test_bank_cycle(self):
        timing = Ddr3Timing()
        assert timing.bank_cycle_clocks == 22 + 9

