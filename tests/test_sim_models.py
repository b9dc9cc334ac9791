"""Timing, throughput, energy, area and control models."""

import pytest

from repro.sim.area import full_sized_fraction, table_iii
from repro.sim.control import BandwidthController, evaluate_control
from repro.sim.energy import EnergyModel, EnergyParameters
from repro.sim.memlink import MemLinkConfig, run_memlink
from repro.sim.throughput import QUAD_CHANNEL_BW, ThroughputModel
from repro.sim.timing import COMPRESSION_LATENCIES, TimingModel

SMALL = MemLinkConfig(
    accesses=1200, llc_bytes=32 * 1024, l4_bytes=128 * 1024, ws_scale=1 / 32
)


@pytest.fixture(scope="module")
def gcc_results():
    return {
        scheme: run_memlink("gcc", SMALL.scaled(scheme=scheme))
        for scheme in ("raw", "cpack", "gzip", "cable")
    }


class TestTiming:
    def test_degradation_ordering(self, gcc_results):
        """Fig 17: overhead tracks codec latency: cpack < cable < gzip."""
        timing = TimingModel()
        cpack = timing.degradation(gcc_results["cpack"])
        cable = timing.degradation(gcc_results["cable"])
        gz = timing.degradation(gcc_results["gzip"])
        assert 0 <= cpack < cable < gz

    def test_raw_degradation_zero(self, gcc_results):
        timing = TimingModel()
        assert timing.degradation(gcc_results["raw"]) == pytest.approx(0.0, abs=1e-9)

    def test_latency_table(self):
        assert COMPRESSION_LATENCIES["cpack"] == (8, 8)
        assert COMPRESSION_LATENCIES["gzip"] == (64, 32)
        assert COMPRESSION_LATENCIES["cable"] == (32, 16)

    def test_link_transfer_cycles(self):
        timing = TimingModel()
        # 512 bits = 32 flits at 9.6GHz = 3.33ns = ~6.7 cycles at 2GHz.
        assert timing.link_transfer_cycles(512) == pytest.approx(32 / 4.8)

    def test_execution_time_positive(self, gcc_results):
        timing = TimingModel()
        assert timing.execution_seconds(gcc_results["cable"]) > 0


class TestThroughput:
    def test_bandwidth_bound_speedup_tracks_ratio(self, gcc_results):
        """At extreme thread counts, speedup ≈ traffic reduction."""
        model = ThroughputModel()
        speedup = model.speedup(gcc_results["cable"], gcc_results["raw"], 8192)
        ratio = gcc_results["cable"].effective_ratio
        assert speedup == pytest.approx(ratio, rel=0.15)

    def test_compute_bound_speedup_near_one(self):
        povray = run_memlink("povray", SMALL.scaled(scheme="cable"))
        raw = run_memlink("povray", SMALL.scaled(scheme="raw"))
        model = ThroughputModel()
        assert model.speedup(povray, raw, 256) == pytest.approx(1.0, abs=0.1)

    def test_speedup_grows_with_threads(self, gcc_results):
        model = ThroughputModel()
        curve = model.speedup_curve(
            gcc_results["cable"], gcc_results["raw"], (256, 1024, 4096)
        )
        assert curve[256] <= curve[1024] <= curve[4096]

    def test_quad_channel_constant(self):
        assert QUAD_CHANNEL_BW == pytest.approx(76.8e9)


class TestEnergy:
    def test_savings_positive_for_compressible(self, gcc_results):
        model = EnergyModel()
        assert model.saving(gcc_results["cable"]) > 0

    def test_breakdown_sums(self, gcc_results):
        model = EnergyModel()
        breakdown = model.breakdown(gcc_results["cable"])
        assert breakdown.total == pytest.approx(
            sum(breakdown.as_dict().values())
        )

    def test_baseline_has_no_codec_energy(self, gcc_results):
        model = EnergyModel()
        base = model.breakdown(gcc_results["cable"], compressed=False)
        assert base.engine == 0
        assert base.comp_sram == 0

    def test_link_energy_shrinks(self, gcc_results):
        model = EnergyModel()
        base = model.breakdown(gcc_results["cable"], compressed=False)
        comp = model.breakdown(gcc_results["cable"], compressed=True)
        assert comp.link < base.link

    def test_table_v_parameters(self):
        params = EnergyParameters()
        assert params.llc_static_w == pytest.approx(169.7e-3)
        assert params.buffer_dynamic_j == pytest.approx(149.4e-12)
        assert params.compress_j == pytest.approx(1000e-12)
        assert params.decompress_j == pytest.approx(200e-12)


class TestArea:
    def test_table_iii_matches_paper(self):
        reports = table_iii()
        buffer = reports["offchip_buffer"]
        assert buffer.hash_table == pytest.approx(0.0176, abs=0.0005)
        assert buffer.way_map_table == pytest.approx(0.004, abs=0.0005)
        assert buffer.remotelid_width == 17
        llc = reports["offchip_llc"]
        assert llc.hash_table == pytest.approx(0.0332, abs=0.0005)
        assert llc.remotelid_width == 18
        multi = reports["multichip"]
        assert multi.hash_table == pytest.approx(0.025, abs=0.001)
        assert multi.way_map_table == pytest.approx(0.0174, abs=0.0005)

    def test_full_sized_rule_of_thumb(self):
        assert full_sized_fraction() == pytest.approx(0.035, abs=0.001)
        assert full_sized_fraction(line_bytes=128) == pytest.approx(0.016, abs=0.001)


class TestControl:
    def test_hysteresis(self):
        controller = BandwidthController()
        assert controller.sample(0.95) is True
        assert controller.sample(0.85) is True  # inside the band: hold
        assert controller.sample(0.70) is False
        assert controller.sample(0.85) is False  # hold off
        assert controller.sample(0.95) is True

    def test_single_thread_penalty_nullified(self, gcc_results):
        outcome = evaluate_control(gcc_results["cable"])
        assert outcome.duty_cycle < 0.05
        assert outcome.degradation_controlled < 0.01
        assert outcome.degradation_always_on > 0

    def test_throughput_mostly_retained(self, gcc_results):
        outcome = evaluate_control(gcc_results["cable"])
        assert outcome.throughput_retained > 0.9
