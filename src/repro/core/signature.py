"""Signature extraction (§III-A).

A *signature* is a 32-bit hash of a sampled 32-bit data word that
stands in for the whole cache line when searching for similar lines.
The extraction rules from the paper:

- Index time: sample at the configured default offsets (Fig 5, e.g.
  bytes 0 and 32), sliding each offset forward in 4-byte steps while
  the word there is *trivial* (≥24 leading zeros or ones, Fig 6).
- Search time: extract a signature from every non-trivial word of the
  requested line — up to 16 for a 64-byte line — so any overlap with
  an indexed line's two signatures is found regardless of where the
  common content sits.
- Words hash through H3 (Carter & Wegman), the same simple, hardware-
  friendly universal hash the authors implemented in OpenPiton.

Both extraction entry points are memoized per line contents: the same
immutable line is indexed on fill, searched on encode, and re-hashed on
every invalidation, so the per-line work is paid once. The caches are
per-extractor (they depend on the hash seed, the offsets and the
trivial threshold) and bounded first-in, first-out: when a memo holds
``_SIGNATURE_CACHE_SIZE`` (8,192) lines, the oldest-inserted half is
dropped, and a hit never refreshes an entry.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Sequence, Tuple

from repro.core.config import CableConfig
from repro.util.kernels import (
    BatchLines,
    batch_backend,
    get_numpy,
    line_words,
    popcount32,
    trivial_mask,
)
from repro.util.rng import make_rng

#: Bound on the per-extractor signature memo caches.
_SIGNATURE_CACHE_SIZE = 8192


class H3Hash:
    """H3 universal hash family over 32-bit words.

    ``h(x) = XOR of q[i] for every set bit i of x`` with a fixed random
    matrix ``q``. One XOR tree per output bit in hardware; here the
    matrix is folded into four 256-entry byte tables at construction, so
    hashing a word is 4 lookups + 3 XORs instead of a 32-iteration bit
    loop. :meth:`hash_bitwise` keeps the textbook bit-serial form as the
    equivalence reference.
    """

    def __init__(self, seed: int, width_bits: int = 32) -> None:
        rng = make_rng(seed, "h3-matrix")
        self.width_bits = width_bits
        self._matrix: Tuple[int, ...] = tuple(
            rng.getrandbits(width_bits) for _ in range(32)
        )
        self._tables: Tuple[Tuple[int, ...], ...] = tuple(
            self._build_table(byte_pos) for byte_pos in range(4)
        )
        # Numpy mirror of the byte tables for whole-matrix hashing.
        np = get_numpy()
        self._np_tables = (
            np.array(self._tables, dtype=np.uint32) if np is not None else None
        )

    def _build_table(self, byte_pos: int) -> Tuple[int, ...]:
        """XOR-fold the 8 matrix rows of one input byte over all 256
        byte values: ``table[v] = XOR of rows[i] for set bits i of v``."""
        rows = self._matrix[byte_pos * 8 : (byte_pos + 1) * 8]
        table = [0] * 256
        for value in range(1, 256):
            low = value & -value
            table[value] = table[value ^ low] ^ rows[low.bit_length() - 1]
        return tuple(table)

    def __call__(self, word: int) -> int:
        word &= 0xFFFFFFFF
        tables = self._tables
        return (
            tables[0][word & 0xFF]
            ^ tables[1][(word >> 8) & 0xFF]
            ^ tables[2][(word >> 16) & 0xFF]
            ^ tables[3][word >> 24]
        )

    def hash_matrix(self, words):
        """Hash a whole uint32 numpy matrix of words at once.

        Same four-table XOR as :meth:`__call__`, lifted to the array:
        every element of the result equals ``self(int(word))``.
        """
        tables = self._np_tables
        return (
            tables[0][words & 0xFF]
            ^ tables[1][(words >> 8) & 0xFF]
            ^ tables[2][(words >> 16) & 0xFF]
            ^ tables[3][words >> 24]
        )

    def hash_bitwise(self, word: int) -> int:
        """The original bit-serial H3 walk (reference implementation)."""
        result = 0
        bit = 0
        word &= 0xFFFFFFFF
        while word:
            if word & 1:
                result ^= self._matrix[bit]
            word >>= 1
            bit += 1
        return result


class SignatureExtractor:
    """Implements the paper's index-time and search-time extraction."""

    def __init__(self, config: CableConfig) -> None:
        self.config = config
        self.hash = H3Hash(config.hash_seed)
        # Per-instance memoization: results depend on this extractor's
        # seed/offsets/threshold, so the caches cannot be module-level.
        # Plain dicts rather than lru_cache so the *batched* extraction
        # below can fill them wholesale; bounded by dropping the oldest
        # half (insertion order) when full.
        self._index_memo: Dict[bytes, Tuple[int, ...]] = {}
        self._search_memo: Dict[bytes, Tuple[int, ...]] = {}

    @staticmethod
    def _remember(
        memo: Dict[bytes, Tuple[int, ...]], line: bytes, sigs: Tuple[int, ...]
    ) -> None:
        if len(memo) >= _SIGNATURE_CACHE_SIZE:
            for stale in list(islice(iter(memo), _SIGNATURE_CACHE_SIZE // 2)):
                del memo[stale]
        memo[line] = sigs

    # ------------------------------------------------------------------
    # Index-time: the signatures inserted into the hash table
    # ------------------------------------------------------------------

    def index_signatures(self, line: bytes) -> List[int]:
        """Signatures to insert for *line* (deduplicated, order kept).

        Each configured offset advances word-by-word past trivial words
        (wrapping within the line); a fully-trivial line yields no
        signatures and is simply not indexed — zero lines compress
        perfectly without references anyway.
        """
        sigs = self._index_memo.get(line)
        if sigs is None:
            sigs = self._index_signatures_uncached(line)
            self._remember(self._index_memo, line, sigs)
        return list(sigs)

    def _index_signatures_uncached(self, line: bytes) -> Tuple[int, ...]:
        words = line_words(line)
        tmask = trivial_mask(line, self.config.trivial_threshold_bits)
        signatures: List[int] = []
        seen = set()
        count = len(words)
        for offset in self.config.signature_offsets[: self.config.signatures_per_line]:
            start = offset // 4
            chosen = None
            for step in range(count):
                index = (start + step) % count
                if not (tmask >> index) & 1:
                    chosen = words[index]
                    break
            if chosen is None:
                continue
            sig = self.hash(chosen)
            if sig not in seen:
                seen.add(sig)
                signatures.append(sig)
        # If the line has fewer distinct non-trivial words than offsets
        # the dedup above may under-fill; that is fine and matches the
        # "often much less" remark in §III-C.
        return tuple(signatures)

    # ------------------------------------------------------------------
    # Search-time: all candidate signatures of the requested line
    # ------------------------------------------------------------------

    def search_signatures(self, line: bytes) -> List[int]:
        """One signature per distinct non-trivial word, line order."""
        sigs = self._search_memo.get(line)
        if sigs is None:
            sigs = self._search_signatures_uncached(line)
            self._remember(self._search_memo, line, sigs)
        return list(sigs)

    def _search_signatures_uncached(self, line: bytes) -> Tuple[int, ...]:
        words = line_words(line)
        tmask = trivial_mask(line, self.config.trivial_threshold_bits)
        hash_word = self.hash
        signatures: List[int] = []
        seen = set()
        if tmask == 0:
            candidates = words
        else:
            candidates = [
                word for i, word in enumerate(words) if not (tmask >> i) & 1
            ]
        for word in candidates:
            sig = hash_word(word)
            if sig not in seen:
                seen.add(sig)
                signatures.append(sig)
        return tuple(signatures)

    # ------------------------------------------------------------------
    # Block warm (whole blocks of lines at once)
    # ------------------------------------------------------------------

    def warm_batch(self, lines: Sequence[bytes]) -> int:
        """Precompute index- and search-time memo entries for *lines*.

        The serve worker's block warm (``ServeConfig.drain_block``)
        calls this with the write payloads of a drained block:
        extraction is pure per-line work (no encoder state involved),
        so it can be paid in one vectorized pass before the scalar
        pipeline consumes the lines. Returns how many distinct lines
        were newly extracted.
        """
        fresh = [
            line
            for line in dict.fromkeys(lines)
            if line not in self._search_memo or line not in self._index_memo
        ]
        if fresh:
            self._extract_block(fresh)
        return len(fresh)

    def _extract_block(self, unique_lines: List[bytes]) -> None:
        """Memoize (index_sigs, search_sigs) for distinct lines.

        Equal-length blocks share one :class:`BatchLines` hash pass
        that feeds both extraction rules; mixed lengths (or the pure
        kernel leg) fall back to the scalar extractors per line.
        """
        vectorized = (
            batch_backend() == "numpy"
            and len({len(line) for line in unique_lines}) == 1
        )
        if vectorized:
            batch = BatchLines(
                unique_lines, self.config.trivial_threshold_bits, "numpy"
            )
            rows = self.hash.hash_matrix(batch.words).tolist()
            for line, row, tmask in zip(unique_lines, rows, batch.tmasks):
                self._remember(
                    self._search_memo, line, self._search_from_row(row, tmask)
                )
                self._remember(
                    self._index_memo, line, self._index_from_row(row, tmask)
                )
        else:
            for line in unique_lines:
                self._remember(
                    self._search_memo, line, self._search_signatures_uncached(line)
                )
                self._remember(
                    self._index_memo, line, self._index_signatures_uncached(line)
                )

    def _search_from_row(self, row: List[int], tmask: int) -> Tuple[int, ...]:
        """Search-rule dedup over a pre-hashed word row."""
        signatures: List[int] = []
        seen = set()
        for i, sig in enumerate(row):
            if (tmask >> i) & 1:
                continue
            if sig not in seen:
                seen.add(sig)
                signatures.append(sig)
        return tuple(signatures)

    def _index_from_row(self, row: List[int], tmask: int) -> Tuple[int, ...]:
        """Index-rule offset walk over a pre-hashed word row."""
        count = len(row)
        signatures: List[int] = []
        seen = set()
        for offset in self.config.signature_offsets[: self.config.signatures_per_line]:
            start = offset // 4
            chosen = None
            for step in range(count):
                word_index = (start + step) % count
                if not (tmask >> word_index) & 1:
                    chosen = row[word_index]
                    break
            if chosen is None:
                continue
            if chosen not in seen:
                seen.add(chosen)
                signatures.append(chosen)
        return tuple(signatures)

    def nontrivial_word_count(self, line: bytes) -> int:
        tmask = trivial_mask(line, self.config.trivial_threshold_bits)
        return len(line) // 4 - popcount32(tmask)
