"""SimPoint-style phase behaviour in the workload streams."""

import pytest

from repro.sim.memlink import MemLinkConfig, MemLinkSimulation, scale_profile
from repro.trace.profiles import get_profile
from repro.trace.stream import WorkloadModel


class TestPhaseGeneration:
    def test_default_is_stationary(self):
        model_a = WorkloadModel(scale_profile(get_profile("gcc"), 1 / 16), seed=1)
        model_b = WorkloadModel(scale_profile(get_profile("gcc"), 1 / 16), seed=1)
        a = [x.line_addr for x in model_a.accesses(300)]
        b = [x.line_addr for x in model_b.accesses(300, phases=1)]
        assert a == b

    def test_phases_deterministic(self):
        model_a = WorkloadModel(scale_profile(get_profile("gcc"), 1 / 16), seed=1)
        model_b = WorkloadModel(scale_profile(get_profile("gcc"), 1 / 16), seed=1)
        a = [x.line_addr for x in model_a.accesses(400, phases=4)]
        b = [x.line_addr for x in model_b.accesses(400, phases=4)]
        assert a == b

    def test_phases_shift_hot_regions(self):
        """Different phases concentrate reuse on different footprint
        windows — the non-stationarity the paper's methodology section
        addresses with 10 SimPoint phases per benchmark."""
        profile = scale_profile(get_profile("omnetpp"), 1 / 16)
        model = WorkloadModel(profile, seed=2)
        accesses = [x.line_addr for x in model.accesses(4000, phases=4)]
        quarter = len(accesses) // 4
        ws = profile.working_set_lines
        medians = []
        for phase in range(4):
            chunk = sorted(accesses[phase * quarter : (phase + 1) * quarter])
            medians.append(chunk[len(chunk) // 2] / ws)
        spread = max(medians) - min(medians)
        assert spread > 0.15, medians

    def test_phase_count_clamped(self):
        model = WorkloadModel(scale_profile(get_profile("gcc"), 1 / 16), seed=3)
        addrs = list(model.accesses(100, phases=0))
        assert len(addrs) == 100


class TestPhaseCompressionVariance:
    def test_compression_varies_across_phases(self):
        """Per-phase link compression fluctuates — evidence that the
        workload exhibits phase behaviour rather than one stationary
        mix (cf. the single-trace criticism the paper cites [86])."""
        config = MemLinkConfig(
            accesses=4000,
            llc_bytes=32 * 1024,
            l4_bytes=128 * 1024,
            ws_scale=1 / 32,
            scheme="cable",
            warmup_fraction=0.0,
        )
        sim = MemLinkSimulation("dealII", config)
        transfers = []
        sim.cable.listeners.append(transfers.append)
        # Drive the simulation manually with a phased stream.
        for access in sim.workload.accesses(config.accesses, phases=4):
            sim.pair.access(
                access.line_addr,
                is_write=access.is_write,
                write_data=access.write_data,
            )
        bits = [t.payload.size_bits for t in transfers]
        assert len(bits) > 400
        quarter = len(bits) // 4
        phase_means = [
            sum(bits[i * quarter : (i + 1) * quarter]) / quarter
            for i in range(4)
        ]
        spread = (max(phase_means) - min(phase_means)) / min(phase_means)
        assert spread > 0.02
