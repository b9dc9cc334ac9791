"""Memory-tier scenario subsystem (repro/tiers/).

Covers the three tier models' own mechanics — the deterministic CXL
queue model, DRAM-cache admission/bypass/lazy-tag policy, and
capacity-mode packing — plus the shared link leg, config
validation, tuner wiring, and the experiments sweep integration.
The packing *invariants* (no drop/dup across overflow, kernel-leg
identity) live in tests/test_tiers_properties.py.
"""

import struct

import pytest

from repro.tiers import (
    CapacityCache,
    CapacityTierConfig,
    CxlTierConfig,
    DramCacheTierConfig,
    make_storage_engine,
    run_capacity_tier,
    run_cxl_tier,
    run_dram_tier,
)
from repro.tiers.base import percentile

_K = 1024

#: Small-cache kwargs shared by the fast runs below (mirrors the smoke
#: preset's cache-pressure regime at a fraction of the runtime).
SMALL = dict(accesses=600, ws_scale=16 * _K / (1024 * 1024))


def small_cxl(**overrides) -> CxlTierConfig:
    return CxlTierConfig(llc_bytes=16 * _K, buffer_bytes=64 * _K, **SMALL).scaled(
        **overrides
    )


def small_dram(**overrides) -> DramCacheTierConfig:
    return DramCacheTierConfig(
        cache_bytes=16 * _K, window_bytes=64 * _K, **SMALL
    ).scaled(**overrides)


def small_capacity(**overrides) -> CapacityTierConfig:
    return CapacityTierConfig(cache_bytes=16 * _K, **SMALL).scaled(**overrides)


class TestConfigs:
    def test_cxl_validation(self):
        with pytest.raises(ValueError):
            CxlTierConfig(llc_bytes=64 * _K, buffer_bytes=32 * _K)
        with pytest.raises(ValueError):
            CxlTierConfig(issue_interval_ns=0)

    def test_dram_validation(self):
        with pytest.raises(ValueError):
            DramCacheTierConfig(cache_bytes=64 * _K, window_bytes=32 * _K)
        with pytest.raises(ValueError):
            DramCacheTierConfig(admit_threshold=0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CapacityTierConfig(segment_bytes=7)
        with pytest.raises(ValueError):
            CapacityTierConfig(tags_per_slot=0)
        config = CapacityTierConfig(line_bytes=64, segment_bytes=8)
        assert config.segments_per_line == 8
        assert config.size_field_bits == 4

    def test_storage_engine_must_be_stateless(self):
        assert make_storage_engine("bdi").stateful is False
        assert make_storage_engine("cpack").stateful is False
        assert make_storage_engine("lbe256").stateful is False
        with pytest.raises(ValueError):
            make_storage_engine("gzip")

    @pytest.mark.parametrize(
        "name", ("zero", "bdi", "cpack", "cpack128", "lbe256", "oracle")
    )
    def test_storage_engine_decodes_out_of_order(self, name):
        # Stored images are decoded straight from their slots, in any
        # order, on the one engine instance the cache owns. Self-
        # repeating lines make LBE copy within the line, so a decoder
        # that kept the previous line's window resolves the copy
        # offsets against the wrong words.
        lines = [
            struct.pack("<16I", *[0x11223344 + i, 0x55667788 + i] * 8)
            for i in range(6)
        ]
        lines += [bytes(64), bytes(range(64))]
        engine = make_storage_engine(name)
        images = [engine.compress(line) for line in lines]
        order = [5, 0, 7, 3, 1, 6, 2, 4]
        assert [engine.decompress(images[i]) for i in order] == [
            lines[i] for i in order
        ]

    def test_link_leg_rejects_unknown_scheme(self):
        from repro.cache.hierarchy import InclusivePair
        from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
        from repro.sim.leg import LINK_SCHEMES, LinkLeg

        pair = InclusivePair(
            SetAssociativeCache(CacheGeometry(8 * _K, 8, 64)),
            SetAssociativeCache(CacheGeometry(4 * _K, 4, 64)),
            lambda addr: b"\x00" * 64,
        )
        with pytest.raises(ValueError):
            LinkLeg("nosuch", pair, lambda record: None)
        assert "cable" in LINK_SCHEMES and "raw" in LINK_SCHEMES

    def test_percentile(self):
        assert percentile([], 0.99) == 0.0
        values = [float(i) for i in range(100)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0


class TestCxlTier:
    def test_deterministic(self):
        first = run_cxl_tier("gcc", small_cxl())
        second = run_cxl_tier("gcc", small_cxl())
        assert first.payload_bits == second.payload_bits
        assert first.extras == second.extras
        assert first.verify_failures == 0

    def test_compression_beats_raw(self):
        cable = run_cxl_tier("gcc", small_cxl())
        raw = run_cxl_tier("gcc", small_cxl(scheme="raw"))
        assert cable.effective_ratio > 1.5
        assert raw.effective_ratio == 1.0
        # Same pair dynamics either way: the scheme only changes what
        # crosses the wire, never what hits or misses.
        assert cable.misses == raw.misses
        assert cable.transfers == raw.transfers
        # Smaller payloads -> shorter wire occupancy -> no-worse tail.
        assert cable.extras["p99_fill_ns"] <= raw.extras["p99_fill_ns"]
        assert cable.extras["p50_fill_ns"] <= raw.extras["p50_fill_ns"]
        assert cable.throughput_mlps > raw.throughput_mlps

    def test_queue_model_orders_time(self):
        result = run_cxl_tier("gcc", small_cxl())
        # Every fill waits at least the device read latency plus one
        # flit on each channel; the p99 sits at or above the median.
        config = small_cxl()
        floor = config.read_latency_ns
        assert result.extras["p50_fill_ns"] >= floor
        assert result.extras["p99_fill_ns"] >= result.extras["p50_fill_ns"]
        assert result.busy_ns > 0

    def test_stream_scheme_supported(self):
        result = run_cxl_tier("gcc", small_cxl(scheme="bdi"))
        assert result.raw_ratio > 1.0

    def test_tuner_wired(self):
        from repro.tune.plan import TuningPlan

        plan = TuningPlan(policy="ucb1", warmup_accesses=32, hold_accesses=32)
        result = run_cxl_tier("gcc", small_cxl(tuning=plan))
        assert result.tuning is not None
        assert result.tuning["epochs"] > 0


class TestDramCacheTier:
    def test_deterministic(self):
        first = run_dram_tier("gcc", small_dram())
        second = run_dram_tier("gcc", small_dram())
        assert first.payload_bits == second.payload_bits
        assert first.extras == second.extras

    def test_admission_filters_cold_misses(self):
        result = run_dram_tier("gcc", small_dram(admit_threshold=2))
        # Some misses bypass (cold), some admit (reused): both paths
        # exercised, and bypasses never reach the compressed link.
        assert result.extras["bypassed"] > 0
        assert 0 < result.extras["admit_pct"] < 100
        assert result.extras["bypass_bits"] == result.extras["bypassed"] * 64 * 8

    def test_admit_everything_at_threshold_one(self):
        # Threshold 1 admits every miss that consults the policy, so
        # nothing bypasses. admit_pct still sits below 100 because
        # home-resident refills (remote miss, home hit) never reach
        # the admission filter at all.
        eager = run_dram_tier("gcc", small_dram(admit_threshold=1))
        assert eager.extras["bypassed"] == 0
        filtered = run_dram_tier("gcc", small_dram(admit_threshold=2))
        assert eager.extras["admit_pct"] > filtered.extras["admit_pct"]

    def test_threshold_monotone(self):
        # A higher admission bar can only shrink fill traffic.
        low = run_dram_tier("gcc", small_dram(admit_threshold=1))
        high = run_dram_tier("gcc", small_dram(admit_threshold=3))
        assert high.transfers <= low.transfers
        assert high.extras["bypassed"] >= low.extras["bypassed"]

    def test_lazy_tags_cheaper_than_eager(self):
        result = run_dram_tier("gcc", small_dram())
        assert result.extras["tag_bits_lazy"] < result.extras["tag_bits_eager"]
        assert 0 < result.extras["tag_saved_pct"] <= 100
        # The lazy traffic is charged into the overhead the effective
        # ratio pays for.
        assert result.overhead_bits >= result.extras["tag_bits_lazy"]

    def test_bypass_never_serves_stale_data(self):
        # Write-heavy run with verification on: if a bypassed read ever
        # skipped a fresher cached copy, the round-trip check inside
        # the encoder (and the backing comparison) would trip.
        result = run_dram_tier("omnetpp", small_dram(admit_threshold=3))
        assert result.verify_failures == 0

    def test_tuner_wired(self):
        from repro.tune.plan import TuningPlan

        plan = TuningPlan(policy="ucb1", warmup_accesses=32, hold_accesses=32)
        result = run_dram_tier("gcc", small_dram(tuning=plan))
        assert result.tuning is not None


class TestCapacityTier:
    def test_deterministic(self):
        first = run_capacity_tier("gcc", small_capacity())
        second = run_capacity_tier("gcc", small_capacity())
        assert first.payload_bits == second.payload_bits
        assert first.extras == second.extras

    def test_capacity_mode_reduces_miss_rate(self):
        packed = run_capacity_tier("gcc", small_capacity())
        baseline = run_capacity_tier("gcc", small_capacity(capacity_mode=False))
        assert packed.miss_rate < baseline.miss_rate
        assert packed.extras["cap_gain"] > 1.0
        assert baseline.extras["cap_gain"] <= 1.0

    def test_metadata_overhead_deflates_gain(self):
        packed = run_capacity_tier("gcc", small_capacity())
        assert packed.extras["meta_ovh_pct"] > 0
        assert packed.extras["net_gain"] < packed.extras["cap_gain"]
        baseline = run_capacity_tier("gcc", small_capacity(capacity_mode=False))
        assert baseline.extras["meta_ovh_pct"] == 0
        assert baseline.extras["net_gain"] == baseline.extras["cap_gain"]

    def test_fallback_path_exercised(self):
        # Write-heavy profiles grow resident lines past their slots.
        result = run_capacity_tier("omnetpp", small_capacity())
        assert result.extras["fallbacks"] > 0
        assert result.verify_failures == 0

    def test_baseline_matches_plain_cache_capacity(self):
        cache = CapacityCache(small_capacity(capacity_mode=False))
        # One line per way regardless of compressibility.
        for addr in range(cache.tag_budget + 4):
            cache.install(addr * cache.sets, b"\x00" * 64)
        assert len(cache._sets[0]) == cache.config.ways

    def test_incompressible_line_stored_raw(self):
        import random

        cache = CapacityCache(small_capacity())
        rng = random.Random(1)
        line = bytes(rng.randrange(256) for _ in range(64))
        stored = cache.install(0, line)
        assert stored.compressed is False
        assert stored.segments == cache.config.segments_per_line
        assert cache.lookup(0) == line


class TestSweep:
    def test_smoke_sweep_gates(self):
        from repro.experiments import tiers

        result = tiers.run(scale="smoke", benchmarks=("gcc",))
        assert len(result.rows) == 3  # one per tier model
        summary = result.summary
        assert summary["silent_corruptions"] == 0
        assert summary["capacity_audit_ok"] == 1
        assert summary["overhead_accounted"] == 1
        assert summary["cxl_p99_speedup_min"] >= 1.0

    def test_registered_in_cli(self):
        from repro.__main__ import EXPERIMENTS

        assert "tiers" in EXPERIMENTS

    def test_obs_tier_family(self):
        from repro.obs.registry import METRICS
        from repro.obs.report import COUNTER_PREFIXES, render_prefix_section

        assert "tier." in COUNTER_PREFIXES
        METRICS.enable()
        try:
            METRICS.reset()
            run_cxl_tier("gcc", small_cxl())
            section = render_prefix_section(METRICS, "tier.", "memory tiers")
            assert "tier.cxl.transfers" in section
            assert "tier.cxl.eff_ratio" in section
        finally:
            METRICS.reset()
            METRICS.disable()
