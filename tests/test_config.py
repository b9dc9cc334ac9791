"""CableConfig validation and derived values."""

import pytest

from repro.core.config import CableConfig


class TestDefaults:
    def test_paper_baseline(self):
        config = CableConfig()
        assert config.signatures_per_line == 2
        assert config.hash_bucket_entries == 2
        assert config.data_access_count == 6
        assert config.max_references == 3
        assert config.no_reference_threshold == 16.0
        assert config.remotelid_bits == 17
        assert config.engine == "lbe"
        assert config.trivial_threshold_bits == 24

    def test_derived(self):
        config = CableConfig()
        assert config.words_per_line == 16
        assert config.max_signatures == 16


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"line_bytes": 65},
            {"signatures_per_line": 0},
            {"signature_offsets": ()},
            {"signature_offsets": (2,)},
            {"signature_offsets": (64,)},
            {"hash_bucket_entries": 0},
            {"data_access_count": 0},
            {"max_references": -1},
            {"hash_table_scale": 0},
            {"ranking_policy": "best"},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            CableConfig(**kwargs)

    def test_zero_references_allowed(self):
        """max_references=0 degrades CABLE to its no-reference engine —
        a legitimate ablation configuration."""
        config = CableConfig(max_references=0)
        assert config.max_references == 0


class TestOverrides:
    def test_with_overrides_copies(self):
        base = CableConfig()
        swept = base.with_overrides(data_access_count=16)
        assert swept.data_access_count == 16
        assert base.data_access_count == 6

    def test_frozen(self):
        config = CableConfig()
        with pytest.raises(Exception):
            config.engine = "gzip"

    def test_hashable(self):
        assert len({CableConfig(), CableConfig(), CableConfig(engine="cpack")}) == 2
