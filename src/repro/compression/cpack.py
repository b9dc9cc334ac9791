"""CPACK — Cache Packer (Chen et al., TVLSI 2010).

CPACK compresses a line word by word against a small FIFO dictionary,
emitting one of six prefix-free patterns per 32-bit word:

====== ======= ============================ ====================
code   pattern meaning                      wire bits (16-entry)
====== ======= ============================ ====================
``00``   zzzz  zero word                    2
``01``   xxxx  uncompressed word            2 + 32
``10``   mmmm  full dictionary match        2 + idx
``1100`` mmxx  2-byte prefix match          4 + idx + 16
``1101`` zzzx  zero-extended byte           4 + 8
``1110`` mmmx  3-byte prefix match          4 + idx + 8
====== ======= ============================ ====================

where ``idx`` is the dictionary index width — 4 bits for the standard
64-byte (16-entry) dictionary, 5 bits for the paper's CPACK128 variant.
Every word that is not a zero or a full match is pushed into the FIFO,
on both the compress and decompress sides, keeping the two in lockstep.

The dictionary is *stream-persistent*: it carries across the lines
crossing the link, which is what makes CPACK128 a (small) dictionary
scheme in the paper's taxonomy. CABLE can also seed it with references
for the CABLE+CPACK pairing (temporary dictionary, state restored
afterwards).

Fig 3's "ideal" dictionary study reuses this engine with the dictionary
capacity swept up to megabytes, with and without pointer (index) cost.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.compression.base import CompressedBlock, ReferenceCompressor
from repro.compression.dictionary import WordFifo
from repro.util.bits import bits_for
from repro.util.kernels import line_words
from repro.util.words import words_to_bytes

# Token kinds (engine-internal).
_ZZZZ = "zzzz"
_XXXX = "xxxx"
_MMMM = "mmmm"
_MMXX = "mmxx"
_ZZZX = "zzzx"
_MMMX = "mmmx"


def _match_bytes(a: int, b: int) -> int:
    """Number of matching *high-order* bytes between two words.

    CPACK's partial patterns (mmxx/mmmx) match the most significant
    bytes of the word and transmit the differing low bytes.
    """
    count = 0
    for shift in (24, 16, 8, 0):
        if (a >> shift) & 0xFF == (b >> shift) & 0xFF:
            count += 1
        else:
            break
    return count


class CpackCompressor(ReferenceCompressor):
    """CPACK with a parametric FIFO dictionary.

    Parameters
    ----------
    dictionary_bytes:
        Capacity of the FIFO dictionary. 64 gives the standard CPACK,
        128 gives the paper's CPACK128. Fig 3 sweeps this far higher.
    count_index_bits:
        When False, dictionary indices cost zero wire bits — the
        "Ideal" (pointer-free) configuration of Fig 3. Real
        configurations always count them.
    persistent:
        When True (default) the dictionary carries across lines of the
        stream; per-line mode clears it for every block.
    """

    def __init__(
        self,
        dictionary_bytes: int = 64,
        count_index_bits: bool = True,
        persistent: bool = True,
    ) -> None:
        if dictionary_bytes % 4:
            raise ValueError("dictionary size must be a multiple of 4 bytes")
        self.dictionary_bytes = dictionary_bytes
        self.entries = dictionary_bytes // 4
        self.index_bits = bits_for(self.entries) if count_index_bits else 0
        self.count_index_bits = count_index_bits
        self.persistent = persistent
        self.name = "cpack" if dictionary_bytes == 64 else f"cpack{dictionary_bytes}"
        self.stateful = persistent
        self._fifo = WordFifo(self.entries)
        # Stateless by contract (the temporary dictionary is rebuilt
        # from the references alone), so identical (line, references)
        # pairs — the common re-encode case — are answered from cache.
        self._compress_refs_cached = lru_cache(maxsize=16384)(
            self._compress_with_references_uncached
        )

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------

    def reset(self) -> None:
        self._fifo.clear()

    def compress(self, line: bytes) -> CompressedBlock:
        if not self.persistent:
            self._fifo.clear()
        tokens, size_bits = self._encode_words(
            line_words(line), self._fifo, self.index_bits
        )
        return CompressedBlock(self.name, size_bits, len(line), tuple(tokens))

    def decompress(self, block: CompressedBlock) -> bytes:
        if not self.persistent:
            self._fifo.clear()
        words = self._decode_tokens(block.tokens, self._fifo)
        return words_to_bytes(words)

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
        fifo = self._seeded_fifo(references)
        idx_bits = bits_for(fifo.capacity) if self.count_index_bits else 0
        tokens, size_bits = self._encode_words(line_words(line), fifo, idx_bits)
        return CompressedBlock(self.name, size_bits, len(line), tuple(tokens))

    def decompress_with_references(
        self, block: CompressedBlock, references: Sequence[bytes]
    ) -> bytes:
        fifo = self._seeded_fifo(references)
        return words_to_bytes(self._decode_tokens(block.tokens, fifo))

    def _seeded_fifo(self, references: Sequence[bytes]) -> WordFifo:
        capacity = max(self.entries, sum(len(r) // 4 for r in references) or 1)
        fifo = WordFifo(capacity)
        fifo.seed(line_words(r) for r in references)
        return fifo

    # ------------------------------------------------------------------
    # Core codec
    # ------------------------------------------------------------------

    def _encode_words(
        self, words: Sequence[int], fifo: WordFifo, idx_bits: int
    ) -> Tuple[List[Tuple], int]:
        tokens: List[Tuple] = []
        size_bits = 0
        for word in words:
            token, bits = self._encode_one(word, fifo, idx_bits)
            tokens.append(token)
            size_bits += bits
        return tokens, size_bits

    def _encode_one(self, word: int, fifo: WordFifo, idx_bits: int) -> Tuple[Tuple, int]:
        if word == 0:
            return (_ZZZZ,), 2
        best_index: Optional[int] = None
        best_len = 0
        for index, entry in enumerate(fifo):
            length = _match_bytes(word, entry)
            if length > best_len:
                best_len, best_index = length, index
                if length == 4:
                    break
        if best_len == 4:
            return (_MMMM, best_index), 2 + idx_bits
        if word <= 0xFF:
            fifo.push(word)
            return (_ZZZX, word), 4 + 8
        if best_len == 3:
            fifo.push(word)
            return (_MMMX, best_index, word & 0xFF), 4 + idx_bits + 8
        if best_len == 2:
            fifo.push(word)
            return (_MMXX, best_index, word & 0xFFFF), 4 + idx_bits + 16
        fifo.push(word)
        return (_XXXX, word), 2 + 32

    def _decode_tokens(self, tokens: Sequence[Tuple], fifo: WordFifo) -> List[int]:
        words: List[int] = []
        for token in tokens:
            kind = token[0]
            if kind == _ZZZZ:
                words.append(0)
                continue
            if kind == _XXXX:
                word = token[1]
            elif kind == _ZZZX:
                word = token[1]
            elif kind == _MMMM:
                words.append(fifo.entry(token[1]))
                continue
            elif kind == _MMMX:
                entry = fifo.entry(token[1])
                word = (entry & 0xFFFFFF00) | token[2]
            elif kind == _MMXX:
                entry = fifo.entry(token[1])
                word = (entry & 0xFFFF0000) | token[2]
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown CPACK token {kind!r}")
            fifo.push(word)
            words.append(word)
        return words
