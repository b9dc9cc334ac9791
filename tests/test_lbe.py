"""LBE: op costs, aligned block copies, self-reference, byte runs, and
the single-pass encoder pinned to the original greedy one."""

from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.lbe import LbeCompressor
from repro.util.bits import bits_for
from repro.util.words import WORD_BYTES, bytes_to_words, words_to_bytes


class TestOpCosts:
    def test_zero_line_is_one_op(self):
        engine = LbeCompressor(persistent=False)
        block = engine.compress(b"\x00" * 64)
        assert block.tokens == (("zero", 16),)
        assert block.size_bits == 2 + 4

    def test_byte_run(self):
        engine = LbeCompressor(persistent=False)
        line = words_to_bytes([5] * 16)
        block = engine.compress(line)
        # lit word then a self-referential copy beats byte-coding all 16.
        assert block.size_bits < 16 * (2 + 4 + 8)
        assert engine.decompress(block) == line

    def test_small_values_use_byte_op(self):
        engine = LbeCompressor(persistent=False)
        line = words_to_bytes([3, 7, 250, 9] + [0] * 12)
        block = engine.compress(line)
        kinds = [t[0] for t in block.tokens]
        assert "byte" in kinds
        assert "lit" not in kinds

    def test_word_literals_for_large_values(self):
        engine = LbeCompressor(persistent=False)
        line = words_to_bytes([0xDEADBEEF, 0xCAFEBABE] + [0] * 14)
        block = engine.compress(line)
        kinds = [t[0] for t in block.tokens]
        assert "lit" in kinds


class TestBlockCopies:
    def test_single_copy_covers_whole_line(self):
        """The amortization CABLE leans on: one reference copy op."""
        engine = LbeCompressor()
        ref = words_to_bytes([0x10101010 + i for i in range(16)])
        block = engine.compress_with_references(ref, [ref])
        copy_ops = [t for t in block.tokens if t[0] == "copy"]
        assert len(copy_ops) == 1
        assert copy_ops[0][2] == 16
        # op + offset + len — tens of bits, not hundreds.
        assert block.size_bits <= 2 + 7 + 4

    def test_diff_of_one_word(self):
        engine = LbeCompressor()
        ref_words = [0x20202020 + i for i in range(16)]
        line_words = list(ref_words)
        line_words[7] = 0xDEADBEEF
        ref = words_to_bytes(ref_words)
        line = words_to_bytes(line_words)
        block = engine.compress_with_references(line, [ref])
        assert engine.decompress_with_references(block, [ref]) == line
        # copy(7) + lit(1) + copy(8): far below the bare encoding.
        bare = engine.compress_with_references(line, ())
        assert block.size_bits < bare.size_bits / 2

    def test_copy_across_reference_boundary_not_required(self):
        engine = LbeCompressor()
        refs = [
            words_to_bytes([0x30303030 + i for i in range(16)]),
            words_to_bytes([0x40404040 + i for i in range(16)]),
        ]
        line = refs[0][:32] + refs[1][32:]
        block = engine.compress_with_references(line, refs)
        assert engine.decompress_with_references(block, refs) == line


class TestSelfReference:
    def test_repeated_word_collapses(self):
        engine = LbeCompressor(persistent=False)
        line = words_to_bytes([0xABCD1234] * 16)
        block = engine.compress(line)
        # One literal + one overlapping copy.
        assert block.size_bits <= (2 + 4 + 32) + (2 + 7 + 4)
        assert engine.decompress(block) == line

    def test_period_two_pattern(self):
        engine = LbeCompressor(persistent=False)
        line = words_to_bytes([0xAAAA0001, 0xBBBB0002] * 8)
        block = engine.compress(line)
        assert engine.decompress(block) == line
        copy_ops = [t for t in block.tokens if t[0] == "copy"]
        assert copy_ops, "periodic content should use an overlap copy"


class TestStreamWindow:
    def test_window_carries_across_lines(self):
        engine = LbeCompressor(window_bytes=256)
        line = words_to_bytes([0x51515151 + i for i in range(16)])
        first = engine.compress(line)
        second = engine.compress(line)
        assert second.size_bits < first.size_bits

    def test_window_evicts_fifo(self):
        engine = LbeCompressor(window_bytes=128)  # two lines
        target = words_to_bytes([0x61616161 + i for i in range(16)])
        engine.compress(target)
        for i in range(3):
            engine.compress(words_to_bytes([0x70000000 + 16 * i + j for j in range(16)]))
        block = engine.compress(target)
        copy_ops = [t for t in block.tokens if t[0] == "copy" and t[2] >= 8]
        assert not copy_ops, "target must have aged out of a 128B window"

    def test_misaligned_window_rejected(self):
        with pytest.raises(ValueError):
            LbeCompressor(window_bytes=130)

    def test_name_variants(self):
        assert LbeCompressor(window_bytes=256).name == "lbe"
        assert LbeCompressor(window_bytes=512).name == "lbe512"


class GreedyLbe(LbeCompressor):
    """The original per-word greedy encoder: the oracle for
    :meth:`LbeCompressor._encode`. It grows its copy space one emitted
    word at a time and reads the overlapping part of a copy from the
    line itself."""

    def _encode(self, line, window, window_capacity):
        words = bytes_to_words(line)
        off_bits = bits_for(max(window_capacity // WORD_BYTES + len(words), 1))
        tokens: List[Tuple] = []
        size_bits = 0
        literals: List[int] = []

        def flush_literals():
            nonlocal size_bits
            run = list(literals)
            literals.clear()
            while run:
                is_byte = run[0] <= 0xFF
                chunk: List[int] = []
                while run and len(chunk) < 16 and (run[0] <= 0xFF) == is_byte:
                    chunk.append(run.pop(0))
                if is_byte:
                    tokens.append(("byte", tuple(chunk)))
                    size_bits += 2 + 4 + 8 * len(chunk)
                else:
                    tokens.append(("lit", tuple(chunk)))
                    size_bits += 2 + 4 + 32 * len(chunk)

        space = bytes_to_words(window) if window else []
        occurrences: Dict[int, List[int]] = {}
        for off, word in enumerate(space):
            occurrences.setdefault(word, []).append(off)

        def extend_space(run):
            for word in run:
                occurrences.setdefault(word, []).append(len(space))
                space.append(word)

        pos = 0
        while pos < len(words):
            zero_len = 0
            while (
                pos + zero_len < len(words)
                and words[pos + zero_len] == 0
                and zero_len < 16
            ):
                zero_len += 1
            copy_off, copy_len = self._best_copy(words, pos, space, occurrences)
            if zero_len >= copy_len and zero_len > 0:
                flush_literals()
                tokens.append(("zero", zero_len))
                size_bits += 2 + 4
                extend_space(words[pos : pos + zero_len])
                pos += zero_len
            elif copy_len and 2 + off_bits + 4 < 32 * copy_len:
                flush_literals()
                tokens.append(("copy", copy_off, copy_len))
                size_bits += 2 + off_bits + 4
                extend_space(words[pos : pos + copy_len])
                pos += copy_len
            else:
                literals.append(words[pos])
                extend_space(words[pos : pos + 1])
                pos += 1
        flush_literals()
        return tokens, size_bits

    @staticmethod
    def _best_copy(
        words: Sequence[int],
        pos: int,
        space: Sequence[int],
        occurrences: Dict[int, List[int]],
    ) -> Tuple[Optional[int], int]:
        best_off: Optional[int] = None
        best_len = 0
        limit = min(16, len(words) - pos)
        for off in occurrences.get(words[pos], ()):
            length = 1
            while length < limit:
                source_index = off + length
                if source_index < len(space):
                    source = space[source_index]
                else:
                    source = words[pos + (source_index - len(space))]
                if source != words[pos + length]:
                    break
                length += 1
            if length > best_len:
                best_len, best_off = length, off
                if best_len == limit:
                    break
        return best_off, best_len


#: Words that exercise every op: zeros, byte-range values, a few
#: recurring values (copy sources) and arbitrary 32-bit words.
lbe_word = st.one_of(
    st.just(0),
    st.integers(0, 0xFF),
    st.sampled_from((0xDEADBEEF, 0x01010101, 0xFFFFFFFF)),
    st.integers(0, 0xFFFFFFFF),
)


@st.composite
def lbe_lines(draw):
    """A 16-word line, optionally periodic (self-overlapping copies)
    and optionally carrying a zero run."""
    words = draw(st.lists(lbe_word, min_size=16, max_size=16))
    period = draw(st.integers(0, 5))
    if period:
        words = (words[:period] * 16)[:16]
    zero_len = draw(st.integers(0, 16))
    if zero_len:
        start = draw(st.integers(0, 16 - zero_len))
        words[start : start + zero_len] = [0] * zero_len
    return words


@st.composite
def near_copy(draw, words):
    """*words* with up to three words replaced (a reference line)."""
    copy = list(words)
    for __ in range(draw(st.integers(0, 3))):
        copy[draw(st.integers(0, 15))] = draw(lbe_word)
    return copy


@st.composite
def line_and_references(draw):
    words = draw(lbe_lines())
    refs = draw(
        st.lists(st.one_of(near_copy(words), lbe_lines()), min_size=0, max_size=3)
    )
    return words_to_bytes(words), tuple(words_to_bytes(ref) for ref in refs)


class TestGreedyOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=line_and_references())
    def test_reference_blocks_match_greedy(self, case):
        line, refs = case
        # CompressedBlock equality covers tokens and size_bits.
        block = LbeCompressor().compress_with_references(line, refs)
        assert block == GreedyLbe().compress_with_references(line, refs)
        assert LbeCompressor().decompress_with_references(block, refs) == line

    @settings(max_examples=100, deadline=None)
    @given(
        first=lbe_lines(),
        steps=st.lists(st.tuples(st.booleans(), lbe_lines()), max_size=10),
        window_bytes=st.sampled_from((64, 128, 256, 1024)),
        persistent=st.booleans(),
    )
    def test_stream_blocks_match_greedy(self, first, steps, window_bytes, persistent):
        lines = [first]
        for mutate, fresh in steps:
            # Half the stream repeats its previous line with a few
            # words changed, so the persistent window gets copy hits.
            lines.append(
                [w ^ 1 if i % 5 == 0 else w for i, w in enumerate(lines[-1])]
                if mutate
                else fresh
            )
        engine = LbeCompressor(window_bytes, persistent=persistent)
        oracle = GreedyLbe(window_bytes, persistent=persistent)
        decoder = LbeCompressor(window_bytes, persistent=persistent)
        for words in lines:
            line = words_to_bytes(words)
            block = engine.compress(line)
            assert block == oracle.compress(line)
            if persistent:
                assert decoder.decompress(block) == line
