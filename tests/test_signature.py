"""Signature extraction (§III-A) and the H3 hash."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CableConfig
from repro.core.signature import H3Hash, SignatureExtractor
from repro.util.words import words_to_bytes


@pytest.fixture
def extractor():
    return SignatureExtractor(CableConfig())


class TestH3:
    def test_deterministic(self):
        h1, h2 = H3Hash(seed=1), H3Hash(seed=1)
        assert all(h1(w) == h2(w) for w in (0, 1, 0xDEADBEEF, 2**32 - 1))

    def test_seed_changes_function(self):
        h1, h2 = H3Hash(seed=1), H3Hash(seed=2)
        assert any(h1(w) != h2(w) for w in range(1, 100))

    def test_zero_maps_to_zero(self):
        # H3 is linear over GF(2): h(0) = 0.
        assert H3Hash(seed=5)(0) == 0

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_linearity(self, a, b):
        """h(a XOR b) == h(a) XOR h(b) — the defining H3 property."""
        h = H3Hash(seed=9)
        assert h(a ^ b) == h(a) ^ h(b)

    def test_spread(self):
        """Distinct inputs rarely collide."""
        h = H3Hash(seed=3)
        outputs = {h(w) for w in range(1, 2000)}
        assert len(outputs) > 1990


class TestIndexSignatures:
    def test_two_signatures_default(self, extractor):
        line = words_to_bytes([0x11111111] * 8 + [0x22222222] * 8)
        sigs = extractor.index_signatures(line)
        assert len(sigs) == 2
        assert sigs[0] == extractor.hash(0x11111111)
        assert sigs[1] == extractor.hash(0x22222222)

    def test_trivial_words_skipped(self, extractor):
        """Fig 6: the offset slides forward past trivial words."""
        words = [0, 0, 0xDEADBEEF] + [0] * 5 + [5, 0xFFFFFFFF, 0xCAFED00D] + [0] * 5
        line = words_to_bytes(words)
        sigs = extractor.index_signatures(line)
        assert sigs[0] == extractor.hash(0xDEADBEEF)  # offset 0 slid to word 2
        assert sigs[1] == extractor.hash(0xCAFED00D)  # offset 32 slid to word 10

    def test_all_trivial_line_yields_nothing(self, extractor):
        assert extractor.index_signatures(b"\x00" * 64) == ()
        line = words_to_bytes([3, 200, 0xFFFFFFFE] * 5 + [1])
        assert extractor.index_signatures(line) == ()

    def test_duplicate_words_deduplicate(self, extractor):
        line = words_to_bytes([0xABCD1234] * 16)
        sigs = extractor.index_signatures(line)
        assert len(sigs) == 1

    def test_offset_wraps_around_line(self, extractor):
        # Only word 1 is non-trivial; both offsets find it.
        words = [0] * 16
        words[1] = 0xDEADBEEF
        sigs = extractor.index_signatures(words_to_bytes(words))
        assert sigs == (extractor.hash(0xDEADBEEF),)


class TestSearchSignatures:
    def test_all_nontrivial_words(self, extractor):
        words = [0x10000000 + (i << 12) for i in range(16)]
        sigs = extractor.search_signatures(words_to_bytes(words))
        assert len(sigs) == 16

    def test_bounded_by_word_count(self, extractor):
        words = [0x10000000 + (i << 12) for i in range(16)]
        sigs = extractor.search_signatures(words_to_bytes(words))
        assert len(sigs) <= CableConfig().max_signatures

    def test_search_superset_of_index(self, extractor):
        """Whatever was indexed must be findable by a search of the
        same line — the property reference lookup depends on."""
        import random

        rng = random.Random(5)
        for _ in range(50):
            words = [
                0 if rng.random() < 0.5 else rng.getrandbits(32) for _ in range(16)
            ]
            line = words_to_bytes(words)
            indexed = set(extractor.index_signatures(line))
            searched = set(extractor.search_signatures(line))
            assert indexed <= searched

    def test_zero_line_empty(self, extractor):
        assert extractor.search_signatures(b"\x00" * 64) == ()

    def test_nontrivial_count(self, extractor):
        line = words_to_bytes([0xDEADBEEF, 1, 0, 0x12345678] + [0] * 12)
        assert extractor.nontrivial_word_count(line) == 2


class TestConfigInteraction:
    def test_single_signature_config(self):
        config = CableConfig(signatures_per_line=1, signature_offsets=(0,))
        extractor = SignatureExtractor(config)
        line = words_to_bytes([0x11111111] * 8 + [0x22222222] * 8)
        assert len(extractor.index_signatures(line)) == 1

    def test_four_offsets(self):
        config = CableConfig(
            signatures_per_line=4, signature_offsets=(0, 16, 32, 48)
        )
        extractor = SignatureExtractor(config)
        line = words_to_bytes(
            [0x11111111] * 4 + [0x22222222] * 4 + [0x33333333] * 4 + [0x44444444] * 4
        )
        assert len(extractor.index_signatures(line)) == 4

    def test_misaligned_offset_rejected(self):
        with pytest.raises(ValueError):
            CableConfig(signature_offsets=(0, 30))
