"""Memory-link simulation: schemes, accounting, warm-up."""

import pytest

from repro.core.config import CableConfig
from repro.sim.memlink import (
    MemLinkConfig,
    MemLinkSimulation,
    STREAM_SCHEMES,
    run_memlink,
    run_suite,
)

SMALL = MemLinkConfig(
    accesses=1200,
    llc_bytes=32 * 1024,
    l4_bytes=128 * 1024,
    ws_scale=1 / 32,
)


class TestSchemes:
    @pytest.mark.parametrize("scheme", ("raw",) + STREAM_SCHEMES + ("cable",))
    def test_scheme_runs_and_reconstructs(self, scheme):
        result = run_memlink("gcc", SMALL.scaled(scheme=scheme))
        assert result.transfers > 0
        assert result.effective_ratio >= 0.99 or scheme == "raw"

    def test_raw_ratio_is_one(self):
        result = run_memlink("gcc", SMALL.scaled(scheme="raw"))
        assert result.effective_ratio == pytest.approx(1.0)
        assert result.raw_ratio == pytest.approx(1.0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_memlink("gcc", SMALL.scaled(scheme="lz4"))

    def test_cable_beats_cpack_on_family_heavy_benchmark(self):
        cable = run_memlink("dealII", SMALL.scaled(scheme="cable"))
        cpack = run_memlink("dealII", SMALL.scaled(scheme="cpack"))
        assert cable.effective_ratio > cpack.effective_ratio


class TestAccounting:
    def test_raw_bits_conservation(self):
        result = run_memlink("gcc", SMALL.scaled(scheme="cable"))
        assert result.raw_bits == result.transfers * 512
        assert result.raw_flits == result.transfers * 32
        assert len(result.per_transfer_bits) == result.transfers

    def test_transfers_match_misses_plus_writebacks(self):
        result = run_memlink("gcc", SMALL.scaled(scheme="cable"))
        # Every counted miss produces a fill; writebacks add the rest.
        # Back-invalidation writebacks can add a few extra transfers.
        assert result.transfers >= result.llc_misses
        assert result.transfers <= result.llc_misses + result.writebacks + 5

    def test_warmup_excluded(self):
        full = run_memlink("gcc", SMALL.scaled(warmup_fraction=0.0))
        warm = run_memlink("gcc", SMALL.scaled(warmup_fraction=0.5))
        assert warm.transfers < full.transfers

    def test_instructions_follow_apki(self):
        result = run_memlink("gcc", SMALL)
        expected = result.accesses / 6.5 * 1000  # gcc's llc_apki
        assert result.instructions == pytest.approx(expected)

    def test_determinism(self):
        a = run_memlink("gcc", SMALL.scaled(scheme="cable"))
        b = run_memlink("gcc", SMALL.scaled(scheme="cable"))
        assert a.payload_bits == b.payload_bits
        assert a.llc_misses == b.llc_misses

    def test_seed_changes_stream(self):
        a = run_memlink("gcc", SMALL.scaled(seed=0))
        b = run_memlink("gcc", SMALL.scaled(seed=1))
        assert a.payload_bits != b.payload_bits


class TestScaling:
    def test_ws_scale_shrinks_footprint(self):
        sim = MemLinkSimulation("gcc", SMALL)
        full = MemLinkSimulation("gcc", SMALL.scaled(ws_scale=1.0))
        assert sim.profile.working_set_lines < full.profile.working_set_lines

    def test_gzip_window_scales_down(self):
        sim = MemLinkSimulation("gcc", SMALL.scaled(scheme="gzip"))
        assert sim._fill_codec.encoder.window_bytes < 32 * 1024

    def test_gzip_window_full_at_reference_size(self):
        config = SMALL.scaled(
            scheme="gzip", llc_bytes=1024 * 1024, l4_bytes=4 * 1024 * 1024
        )
        sim = MemLinkSimulation("gcc", config)
        assert sim._fill_codec.encoder.window_bytes == 32 * 1024


class TestSuiteRunner:
    def test_grid(self):
        results = run_suite(
            ["gcc", "povray"], SMALL, schemes=("raw", "cable")
        )
        assert set(results) == {"gcc", "povray"}
        assert set(results["gcc"]) == {"raw", "cable"}

    def test_cable_engine_override(self):
        config = SMALL.scaled(cable=CableConfig(engine="oracle"))
        result = run_memlink("gcc", config)
        assert result.transfers > 0


def test_sim_reads_backing_once_per_l4_miss(monkeypatch):
    """Signatures are extracted from the lines crossing the link, at
    transfer time: the simulator touches backing memory only for the
    fills an L4 miss makes, and warms no block of lines ahead."""
    from repro.core.signature import SignatureExtractor
    from repro.trace.stream import SharedBackingStore

    calls = {"peek": 0, "warm_batch": 0}
    peek = SharedBackingStore.peek
    warm_batch = SignatureExtractor.warm_batch

    def counting_peek(self, line_addr):
        calls["peek"] += 1
        return peek(self, line_addr)

    def counting_warm_batch(self, lines):
        calls["warm_batch"] += 1
        return warm_batch(self, lines)

    monkeypatch.setattr(SharedBackingStore, "peek", counting_peek)
    monkeypatch.setattr(SignatureExtractor, "warm_batch", counting_warm_batch)
    sim = MemLinkSimulation(
        "omnetpp",
        MemLinkConfig(
            accesses=2000, llc_bytes=32 * 1024, l4_bytes=128 * 1024, ws_scale=0.03125
        ),
    )
    sim.run()
    assert sim.pair.stats["home_misses"] > 0
    assert calls["peek"] == sim.backing.stats["reads"] == sim.pair.stats["home_misses"]
    assert calls["warm_batch"] == 0
