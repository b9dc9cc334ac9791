"""§IV-D search-pipeline latency arithmetic."""

import pytest

from repro.core.config import CableConfig
from repro.core.pipeline import SearchPipelineModel, end_to_end_cycles
from repro.core.signature import SignatureExtractor
from repro.sim.timing import COMPRESSION_LATENCIES
from repro.util.words import words_to_bytes


class TestLatencyArithmetic:
    def test_per_signature_is_eight(self):
        assert SearchPipelineModel().per_signature_latency == 8

    def test_worst_case_is_sixteen(self):
        """16 signatures at 2/cycle: the paper's worst case."""
        model = SearchPipelineModel()
        assert model.search_cycles(16) == 16

    def test_best_case_is_eight(self):
        """Few signatures (zero-heavy line): as little as 8 cycles."""
        assert SearchPipelineModel().search_cycles(1) == 8
        assert SearchPipelineModel().search_cycles(2) == 8

    def test_monotone_in_count(self):
        model = SearchPipelineModel()
        latencies = [model.search_cycles(n) for n in range(1, 17)]
        assert latencies == sorted(latencies)
        assert latencies[-1] == 16

    def test_single_bank_doubles_issue(self):
        model = SearchPipelineModel(hash_banks=1)
        assert model.search_cycles(16) == 16 + 8

    def test_four_banks(self):
        model = SearchPipelineModel(hash_banks=4)
        assert model.search_cycles(16) == 4 + 8

    def test_zero_signatures_drain(self):
        assert SearchPipelineModel().search_cycles(0) == 8


class TestEndToEnd:
    def test_paper_budget(self):
        """Table IV: 16 search + 16 compress + 16 decompress = 48."""
        budget = end_to_end_cycles(CableConfig())
        assert budget["search"] == 16
        assert budget["compress"] == 16
        assert budget["decompress"] == 16
        assert budget["total"] == 48

    def test_matches_config_constants(self):
        """The timing model charges CABLE exactly the pipeline budget:
        compression includes the search."""
        budget = end_to_end_cycles(CableConfig())
        assert COMPRESSION_LATENCIES["cable"] == (
            budget["search"] + budget["compress"],
            budget["decompress"],
        )

    def test_faster_engine(self):
        budget = end_to_end_cycles(
            CableConfig(), compression_rate_bytes_per_cycle=16
        )
        assert budget["total"] == 16 + 2 * 8


class TestMeasuredLatency:
    def test_zero_line_finishes_early(self):
        config = CableConfig()
        model = SearchPipelineModel()
        extractor = SignatureExtractor(config)
        zero_line = b"\x00" * 64
        assert model.measured_cycles(extractor, zero_line) == 8

    def test_dense_line_hits_worst_case(self):
        config = CableConfig()
        model = SearchPipelineModel()
        extractor = SignatureExtractor(config)
        dense = words_to_bytes([0x10000000 + (i << 16) for i in range(16)])
        assert model.measured_cycles(extractor, dense) == 16

    def test_measured_never_exceeds_worst_case(self):
        import random

        config = CableConfig()
        model = SearchPipelineModel()
        extractor = SignatureExtractor(config)
        rng = random.Random(1)
        worst = model.worst_case_cycles(config)
        for _ in range(100):
            line = bytes(rng.randrange(256) for _ in range(64))
            assert model.measured_cycles(extractor, line) <= worst
