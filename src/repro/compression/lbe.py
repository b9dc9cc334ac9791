"""LBE — length-byte encoding with cheap aligned block copies.

LBE comes from MORC (Nguyen & Wentzlaff, MICRO 2015). The property the
CABLE paper leans on (§VI-E, Fig 20) is that, unlike CPACK which pays a
code + index *per word*, LBE can copy a large *aligned block* of the
dictionary with a single operation, amortizing the pointer over many
words. This is why CABLE+LBE is the best pairing: reference lines are
often near-copies of the requested line, and one copy op can cover most
of it.

Wire format (all operations word-aligned, lengths counted in 32-bit
words, ``off`` is the word offset into the current dictionary window):

========= =============================== =======================
op (2b)   operands                        wire bits
========= =============================== =======================
``ZERO``  len (4b, 1–16 words)            2 + 4
``COPY``  off (log2 window words), len 4b 2 + off_bits + 4
``LIT``   len (4b), len×32 raw bits       2 + 4 + 32·len
``BYTE``  len (4b), len×8 low bytes       2 + 4 + 8·len
========= =============================== =======================

``BYTE`` runs carry words whose upper 24 bits are zero (counters,
sizes, enum fields) at a quarter of the literal cost — LBE's
significance-based "length-byte" coding.

The encoder is greedy: at each word position it takes the longest of a
zero run or a window match, falling back to accumulating literals.
Matches shorter than the break-even length for the current pointer
width are rejected, which reproduces the pointer-overhead sensitivity
studied in Fig 3. Copies may also reference the already-emitted words
of the line being compressed (self-referential, like any LZ coder), so
repeated-value lines collapse to a literal plus one copy.

It makes one pass over a single copy space, the window words followed
by the line words, with one occurrence index per call (each word's
lowest offset; later offsets come from ``list.index``). A word with no
earlier occurrence is a literal at once. Window words are unpacked
directly rather than through the ``line_words`` memo, so windows that
change on every call do not evict the lines the hot path reuses.
``tests/test_lbe.py`` pins every block (tokens and ``size_bits``) to
the original per-word greedy encoder, kept there as the oracle.

The persistent window (default 256 bytes — the paper's LBE256) carries
across the stream; the CABLE pairing instead seeds a temporary window
from the reference lines.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.compression.base import CompressedBlock, ReferenceCompressor
from repro.compression.dictionary import ByteWindow
from repro.util.bits import bits_for
from repro.util.kernels import line_words
from repro.util.words import WORD_BYTES, bytes_to_words, words_to_bytes

_OP_BITS = 2
_LEN_BITS = 4
_MAX_RUN_WORDS = 1 << _LEN_BITS  # lengths 1..16 encoded as 0..15


def _literal_tokens(
    space: Sequence[int], start: int, stop: int, tokens: List[Tuple]
) -> int:
    """Append ``space[start:stop]`` as literal tokens; returns their bits.

    The run splits into maximal same-kind chunks of at most 16 words:
    ``byte`` for words below 256, ``lit`` for the rest.
    """
    bits = 0
    while start < stop:
        is_byte = space[start] <= 0xFF
        chunk_end = start + 1
        chunk_limit = min(start + _MAX_RUN_WORDS, stop)
        while chunk_end < chunk_limit and (space[chunk_end] <= 0xFF) == is_byte:
            chunk_end += 1
        chunk = tuple(space[start:chunk_end])
        if is_byte:
            tokens.append(("byte", chunk))
            bits += _OP_BITS + _LEN_BITS + 8 * len(chunk)
        else:
            tokens.append(("lit", chunk))
            bits += _OP_BITS + _LEN_BITS + 32 * len(chunk)
        start = chunk_end
    return bits


class LbeCompressor(ReferenceCompressor):
    """Length-byte encoding over a word-aligned FIFO byte window."""

    def __init__(self, window_bytes: int = 256, persistent: bool = True) -> None:
        if window_bytes % WORD_BYTES:
            raise ValueError("window size must be word aligned")
        self.window_bytes = window_bytes
        self.persistent = persistent
        self.name = "lbe" if window_bytes == 256 else f"lbe{window_bytes}"
        self.stateful = persistent
        self._window = ByteWindow(window_bytes)
        # compress_with_references is stateless by contract, so its
        # result for a (line, references) pair never changes — memoize
        # it; re-encodes of resident lines are the common case.
        self._compress_refs_cached = lru_cache(maxsize=16384)(
            self._compress_with_references_uncached
        )

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------

    def reset(self) -> None:
        self._window.clear()

    def compress(self, line: bytes) -> CompressedBlock:
        if not self.persistent:
            self._window.clear()
        tokens, size_bits = self._encode(line, self._window.data, self.window_bytes)
        self._window.append(line)
        return CompressedBlock(self.name, size_bits, len(line), tuple(tokens))

    def decompress(self, block: CompressedBlock) -> bytes:
        if not self.persistent:
            self._window.clear()
        line = self._decode(block.tokens, self._window.data, block.original_size)
        self._window.append(line)
        return line

    # ------------------------------------------------------------------
    # Reference (CABLE-seeded) interface
    # ------------------------------------------------------------------

    def compress_with_references(
        self, line: bytes, references: Sequence[bytes]
    ) -> CompressedBlock:
        return self._compress_refs_cached(line, tuple(references))

    def _compress_with_references_uncached(
        self, line: bytes, references: Tuple[bytes, ...]
    ) -> CompressedBlock:
        window = b"".join(references)
        capacity = max(len(window), WORD_BYTES)
        tokens, size_bits = self._encode(line, window, capacity)
        return CompressedBlock(self.name, size_bits, len(line), tuple(tokens))

    def decompress_with_references(
        self, block: CompressedBlock, references: Sequence[bytes]
    ) -> bytes:
        window = b"".join(references)
        return self._decode(block.tokens, window, block.original_size)

    # ------------------------------------------------------------------
    # Core codec
    # ------------------------------------------------------------------

    def _encode(
        self, line: bytes, window: bytes, window_capacity: int
    ) -> Tuple[List[Tuple], int]:
        # One copy space: the window words, then the line's own words.
        # Only the line goes through the line_words memo (see the module
        # docstring).
        words = line_words(line)
        space = bytes_to_words(window) if window else []
        here = len(space)  # copy-space index of the next line word
        space.extend(words)
        end = len(space)
        # Offsets address the window plus the line's emitted prefix, so
        # the pointer width covers capacity + one line.
        off_bits = bits_for(
            max(window_capacity // WORD_BYTES + len(words), 1)
        )
        # A copy op must beat encoding the same words as literals; with
        # per-word literal cost of 32 bits the break-even is below one
        # word except for very large windows, so require the copy to
        # save bits outright.
        copy_bits = _OP_BITS + off_bits + _LEN_BITS
        # The occurrence index: each word's lowest offset in the copy
        # space. Later occurrences are found with space.index, so a
        # word seen once costs no list and no scan.
        first = dict(zip(reversed(space), range(end - 1, -1, -1)))

        tokens: List[Tuple] = []
        size_bits = 0
        literal_from = here
        while here < end:
            word = space[here]
            off = first[word]
            if off == here and word:
                here += 1  # no earlier source and not zero: a literal
                continue
            limit = end - here
            if limit > _MAX_RUN_WORDS:
                limit = _MAX_RUN_WORDS
            zero_len = 0
            if word == 0:
                zero_len = 1
                while zero_len < limit and space[here + zero_len] == 0:
                    zero_len += 1
            # Longest match among the earlier offsets holding this word
            # (the window and the line prefix already emitted); ties keep
            # the lowest offset. A copy may overlap the words it
            # produces, like LZ77: its source word off + k is then a line
            # word, so comparing space[off + k] with space[here + k] is
            # exact. A zero run as long as the limit wins outright.
            copy_off = 0
            copy_len = 0
            if zero_len < limit:
                while off < here:
                    length = 1
                    while (
                        length < limit
                        and space[off + length] == space[here + length]
                    ):
                        length += 1
                    if length > copy_len:
                        copy_off, copy_len = off, length
                        if length == limit:
                            break
                    off = space.index(word, off + 1)
            if zero_len and zero_len >= copy_len:
                size_bits += _literal_tokens(space, literal_from, here, tokens)
                tokens.append(("zero", zero_len))
                size_bits += _OP_BITS + _LEN_BITS
                here += zero_len
                literal_from = here
            elif copy_len and copy_bits < 32 * copy_len:
                size_bits += _literal_tokens(space, literal_from, here, tokens)
                tokens.append(("copy", copy_off, copy_len))
                size_bits += copy_bits
                here += copy_len
                literal_from = here
            else:
                here += 1
        size_bits += _literal_tokens(space, literal_from, here, tokens)
        return tokens, size_bits

    def _decode(
        self, tokens: Sequence[Tuple], window: bytes, original_size: int
    ) -> bytes:
        space: List[int] = bytes_to_words(window) if window else []
        start = len(space)
        for token in tokens:
            kind = token[0]
            if kind == "zero":
                space.extend([0] * token[1])
            elif kind == "copy":
                __, off, length = token
                if 0 <= off and off + length <= len(space):
                    space.extend(space[off : off + length])
                else:
                    for k in range(length):
                        # Appending as we read makes overlapping copies
                        # reproduce the encoder's semantics exactly.
                        space.append(space[off + k])
            elif kind in ("lit", "byte"):
                space.extend(token[1])
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown LBE token {kind!r}")
        words = space[start:]
        if len(words) * WORD_BYTES != original_size:
            raise ValueError("LBE token stream does not reconstruct the line")
        return words_to_bytes(words)
