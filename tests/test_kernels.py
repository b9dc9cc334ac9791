"""Equivalence tests for the hot-path kernels.

The kernels layer exists purely for speed: every fast path (numpy,
``int.bit_count``, byte-sliced H3 tables, memo caches) must produce
bit-identical results to the straightforward reference implementation
it replaced. These tests pin that equivalence, including the
pure-Python fallbacks CI exercises via ``REPRO_PURE_PYTHON=1``.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CableConfig
from repro.core.signature import H3Hash, SignatureExtractor
from repro.util.kernels import (
    HAVE_NUMPY,
    BatchLines,
    _count_toggles_pure,
    _line_match_mask_pure,
    _popcount_pure,
    _trivial_mask_pure,
    batch_backend,
    count_toggles,
    line_match_mask,
    line_words,
    match_mask,
    popcount32,
    trivial_mask,
)
from repro.util.words import bytes_to_words, is_trivial_word

if HAVE_NUMPY:
    from repro.util.kernels import (
        _count_toggles_numpy,
        _line_match_mask_numpy,
        _trivial_mask_numpy,
    )

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy kernels inactive")

words_u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
aligned_lines = st.binary(min_size=0, max_size=520).map(
    lambda raw: raw[: len(raw) - len(raw) % 4]
)


# ----------------------------------------------------------------------
# popcount32
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "value",
    [0, 1, 2, 0x80000000, 0xFFFFFFFF, (1 << 64) - 1, 1 << 64, (1 << 128) + 1],
)
def test_popcount_edges(value):
    assert popcount32(value) == bin(value).count("1")
    assert _popcount_pure(value) == bin(value).count("1")


@given(st.integers(min_value=0, max_value=(1 << 80) - 1))
def test_popcount_matches_reference(value):
    assert popcount32(value) == bin(value).count("1")


# ----------------------------------------------------------------------
# Word views
# ----------------------------------------------------------------------

@given(aligned_lines)
def test_line_words_matches_bytes_to_words(line):
    assert list(line_words(line)) == bytes_to_words(line)


def test_line_words_rejects_misaligned():
    with pytest.raises(ValueError):
        line_words(b"abc")


def test_line_words_is_memoized_and_immutable():
    line = bytes(range(64))
    view = line_words(line)
    assert isinstance(view, tuple)
    assert line_words(bytes(range(64))) is view  # same contents, same object


# ----------------------------------------------------------------------
# Trivial-word mask
# ----------------------------------------------------------------------

@given(aligned_lines)
def test_trivial_mask_matches_per_word_rule(line):
    mask = trivial_mask(line)
    for i, word in enumerate(line_words(line)):
        assert bool((mask >> i) & 1) == is_trivial_word(word)


@needs_numpy
@given(aligned_lines)
def test_trivial_mask_numpy_matches_pure(line):
    assert _trivial_mask_numpy(line) == _trivial_mask_pure(line)


@needs_numpy
@pytest.mark.parametrize("threshold", [16, 24, 28])
def test_trivial_mask_numpy_matches_pure_large(threshold):
    line = struct.pack("<256I", *((i * 2654435761) & 0xFFFFFFFF for i in range(256)))
    assert _trivial_mask_numpy(line, threshold) == _trivial_mask_pure(line, threshold)


# ----------------------------------------------------------------------
# Coverage bit vectors
# ----------------------------------------------------------------------

@given(aligned_lines, aligned_lines)
def test_line_match_mask_matches_word_compare(line_a, line_b):
    expected = match_mask(bytes_to_words(line_a), bytes_to_words(line_b))
    assert line_match_mask(line_a, line_b) == expected
    assert _line_match_mask_pure(line_a, line_b) == expected


@given(aligned_lines)
def test_line_match_mask_identical_lines(line):
    assert line_match_mask(line, line) == (1 << (len(line) // 4)) - 1


@needs_numpy
@given(aligned_lines, aligned_lines)
def test_line_match_mask_numpy_matches_pure(line_a, line_b):
    assert _line_match_mask_numpy(line_a, line_b) == _line_match_mask_pure(
        line_a, line_b
    )


@needs_numpy
def test_line_match_mask_numpy_matches_pure_large():
    line_a = struct.pack("<128I", *range(128))
    line_b = struct.pack("<128I", *(w if w % 3 else w + 1 for w in range(128)))
    assert _line_match_mask_numpy(line_a, line_b) == _line_match_mask_pure(
        line_a, line_b
    )


# ----------------------------------------------------------------------
# Toggle counting
# ----------------------------------------------------------------------

@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 66) - 1), max_size=64),
    st.integers(min_value=0, max_value=(1 << 66) - 1),
)
def test_count_toggles_matches_pure(flits, previous):
    expected = _count_toggles_pure(flits, previous)
    assert count_toggles(flits, previous) == expected
    if HAVE_NUMPY and hasattr(__import__("numpy"), "bitwise_count"):
        assert _count_toggles_numpy(flits, previous) == expected


def test_count_toggles_known_values():
    # 0 -> 0b1111 -> 0 -> 0b1010: 4 + 4 + 2 toggles.
    assert count_toggles([0b1111, 0, 0b1010]) == 10
    assert count_toggles([], previous=7) == 0


# ----------------------------------------------------------------------
# Batched-across-lines primitives
# ----------------------------------------------------------------------

#: Legs the batch entry points can pin in-process.
batch_legs = ("numpy", "pure") if HAVE_NUMPY else ("pure",)

#: Blocks of equal-length, word-aligned lines (BatchLines contract).
line_blocks = st.integers(min_value=1, max_value=16).flatmap(
    lambda words: st.lists(
        st.binary(min_size=words * 4, max_size=words * 4),
        min_size=1,
        max_size=12,
    )
)


@pytest.mark.parametrize("leg", batch_legs)
@given(lines=line_blocks)
@settings(max_examples=40)
def test_batch_lines_matches_per_line_kernels(leg, lines):
    batch = BatchLines(lines, backend=leg)
    assert batch.count == len(lines)
    for i, line in enumerate(lines):
        assert tuple(batch.words[i]) == line_words(line)
        assert batch.tmasks[i] == trivial_mask(line)


@pytest.mark.parametrize("threshold", [16, 24, 28])
@pytest.mark.parametrize("leg", batch_legs)
def test_batch_lines_threshold_matches_trivial_mask(leg, threshold):
    lines = [
        struct.pack("<16I", *((i * j * 2654435761 + j) & 0xFFFFFFFF for j in range(16)))
        for i in range(8)
    ]
    batch = BatchLines(lines, trivial_threshold_bits=threshold, backend=leg)
    for i, line in enumerate(lines):
        assert batch.tmasks[i] == trivial_mask(line, threshold)


def test_batch_lines_rejects_ragged_blocks():
    with pytest.raises(ValueError):
        BatchLines([b"\x00" * 8, b"\x00" * 12])
    with pytest.raises(ValueError):
        BatchLines([b"abc"])
    with pytest.raises(ValueError):
        BatchLines([])


def test_batch_backend_resolution():
    assert batch_backend() in ("numpy", "pure")
    assert batch_backend("pure") == "pure"
    with pytest.raises(ValueError):
        batch_backend("simd")
    if not HAVE_NUMPY:
        with pytest.raises(ValueError):
            batch_backend("numpy")


# ----------------------------------------------------------------------
# H3: byte-sliced tables vs the bit-serial reference
# ----------------------------------------------------------------------

@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**31), words_u32)
def test_h3_tables_match_bitwise(seed, word):
    h3 = H3Hash(seed)
    assert h3(word) == h3.hash_bitwise(word)


def test_h3_tables_match_bitwise_exhaustive_bytes():
    h3 = H3Hash(12345)
    for shift in (0, 8, 16, 24):
        for value in range(256):
            word = value << shift
            assert h3(word) == h3.hash_bitwise(word)


def test_h3_is_linear_over_xor():
    h3 = H3Hash(99)
    assert h3(0) == 0
    assert h3(0xDEADBEEF ^ 0x12345678) == h3(0xDEADBEEF) ^ h3(0x12345678)


# ----------------------------------------------------------------------
# Memoized signature extraction
# ----------------------------------------------------------------------


def oracle_signatures(line, config):
    """The two §III-A rules written out plainly, hashing bit-serially:
    (search signatures, index signatures) of *line*."""
    h3 = H3Hash(config.hash_seed)
    words = bytes_to_words(line)
    nontrivial = [
        not is_trivial_word(word, config.trivial_threshold_bits) for word in words
    ]
    search = []
    for word, keep in zip(words, nontrivial):
        if keep and h3.hash_bitwise(word) not in search:
            search.append(h3.hash_bitwise(word))
    index = []
    for offset in config.signature_offsets[: config.signatures_per_line]:
        for step in range(len(words)):
            position = (offset // 4 + step) % len(words)
            if nontrivial[position]:
                sig = h3.hash_bitwise(words[position])
                if sig not in index:
                    index.append(sig)
                break
    return tuple(search), tuple(index)


#: Words for lines the rules have work on: values trivial at every
#: threshold, values trivial only at 16 bits, a few repeated words and
#: arbitrary ones (uniform bytes almost never give a trivial word).
line_words_strategy = st.one_of(
    st.integers(min_value=-16, max_value=15),
    st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1),
    st.sampled_from((0x12345678, 0xCAFED00D, 0x0BADF00D)),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
).map(lambda word: word & 0xFFFFFFFF)

#: Blocks for ``warm_batch`` (the serve worker's block warm):
#: equal-length blocks take its vectorized leg (BatchLines word rows
#: and trivial masks); appending one longer line forces the per-line
#: scalar leg.
equal_blocks = st.integers(min_value=1, max_value=130).flatmap(
    lambda words: st.lists(
        st.one_of(
            st.binary(min_size=words * 4, max_size=words * 4),
            st.lists(line_words_strategy, min_size=words, max_size=words).map(
                lambda values: struct.pack(f"<{len(values)}I", *values)
            ),
        ),
        min_size=1,
        max_size=12,
    )
)
warm_blocks = st.one_of(
    equal_blocks, equal_blocks.map(lambda lines: lines + [lines[0] + bytes(4)])
)

#: Extraction rules the memo must reproduce: every trivial threshold
#: the sweeps use, one to four index-time signatures per line.
extraction_configs = st.builds(
    lambda threshold, per_line: CableConfig(
        signature_offsets=(0, 16, 32, 48),
        signatures_per_line=per_line,
        trivial_threshold_bits=threshold,
    ),
    st.sampled_from((16, 24, 28)),
    st.integers(min_value=1, max_value=4),
)


@given(lines=warm_blocks, config=extraction_configs)
@settings(max_examples=50, deadline=None)
def test_memoized_extraction_matches_fresh(lines, config):
    """The one-pass extraction, scalar or block-warmed, equals the
    plain rules; the second ask of a line is served from the memo."""
    warm = SignatureExtractor(config)
    assert warm.warm_batch(lines) == len(set(lines))
    scalar = SignatureExtractor(config)
    for line in lines:
        search, index = oracle_signatures(line, config)
        assert warm.search_signatures(line) == search
        assert warm.index_signatures(line) == index
        assert scalar.index_signatures(line) == index
        assert scalar.search_signatures(line) == search
    assert warm.warm_batch(lines) == 0  # everything is memoized now
    assert scalar.warm_batch(lines) == 0


def test_extraction_returns_private_lists():
    """Callers get the memo's own signatures, so they are immutable."""
    extractor = SignatureExtractor(CableConfig())
    line = struct.pack("<16I", *(0x01000000 + i for i in range(16)))
    first = extractor.search_signatures(line)
    assert isinstance(first, tuple)
    assert isinstance(extractor.index_signatures(line), tuple)
    with pytest.raises(AttributeError):
        first.append(0xBAD)
    assert extractor.search_signatures(line) is first
