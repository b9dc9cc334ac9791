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

Both rules read the same hashed words, so one pass per line serves
them: it hashes each non-trivial word once and applies the search rule
and the index rule to that row. The pass is memoized per line contents
as the pair ``(search_sigs, index_sigs)`` of tuples: the same immutable
line is indexed on fill, searched on encode and re-hashed on every
invalidation, at both endpoints — a :class:`~repro.core.encoder.CableLinkPair`
hands one extractor to both, since they hash with the same seed. The
memo depends on the hash seed, the offsets and the trivial threshold,
so it lives on the extractor, bounded first-in, first-out: when it
holds ``_SIGNATURE_CACHE_SIZE`` (8,192) lines, the oldest-inserted half
is dropped, and a hit never refreshes an entry.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import CableConfig
from repro.util.kernels import (
    BatchLines,
    batch_backend,
    line_words,
    popcount32,
    trivial_mask,
)
from repro.util.rng import make_rng

#: Bound on the per-extractor signature memo.
_SIGNATURE_CACHE_SIZE = 8192

#: Config fields the extraction rules read; changing one invalidates
#: every memoized line.
_RULE_FIELDS = ("signature_offsets", "signatures_per_line", "trivial_threshold_bits")

#: One line's ``(search_sigs, index_sigs)``.
Signatures = Tuple[Tuple[int, ...], Tuple[int, ...]]


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
        # line -> (search_sigs, index_sigs). A plain dict rather than
        # lru_cache so warm_batch can fill it wholesale.
        self._memo: Dict[bytes, Signatures] = {}

    def rebind(self, config: CableConfig) -> None:
        """Extract under *config* from now on, forgetting every
        memoized line if the rules it was extracted under changed."""
        if any(getattr(config, f) != getattr(self.config, f) for f in _RULE_FIELDS):
            self._memo.clear()
        self.config = config

    def _remember(self, line: bytes, sigs: Signatures) -> None:
        memo = self._memo
        if len(memo) >= _SIGNATURE_CACHE_SIZE:
            for stale in list(islice(memo, _SIGNATURE_CACHE_SIZE // 2)):
                del memo[stale]
        memo[line] = sigs

    def _extract(self, line: bytes) -> Signatures:
        sigs = self._extract_row(
            line_words(line), trivial_mask(line, self.config.trivial_threshold_bits)
        )
        self._remember(line, sigs)
        return sigs

    def _extract_row(self, words: Sequence[int], tmask: int) -> Signatures:
        """Both rules over one line's words (bit *i* of *tmask* set when
        word *i* is trivial), hashing each non-trivial word once.

        Search: one signature per distinct non-trivial word, line order.
        Index: each configured offset advances word-by-word past trivial
        words (wrapping within the line); duplicates are dropped, so a
        line with fewer distinct non-trivial words than offsets
        under-fills — the "often much less" remark in §III-C. A fully
        trivial line yields no signatures and is simply not indexed:
        zero lines compress perfectly without references anyway.
        """
        hash_word = self.hash
        row: List[Optional[int]]
        if tmask:
            row = [
                None if (tmask >> i) & 1 else hash_word(word)
                for i, word in enumerate(words)
            ]
            search = tuple(dict.fromkeys(sig for sig in row if sig is not None))
        else:
            row = [hash_word(word) for word in words]
            search = tuple(dict.fromkeys(row))
        if not search:
            return search, search
        config = self.config
        count = len(row)
        chosen = []
        for offset in config.signature_offsets[: config.signatures_per_line]:
            index = offset // 4 % count
            while row[index] is None:
                index = (index + 1) % count
            chosen.append(row[index])
        return search, tuple(dict.fromkeys(chosen))

    def index_signatures(self, line: bytes) -> Tuple[int, ...]:
        """Signatures to insert for *line* (deduplicated, order kept)."""
        sigs = self._memo.get(line)
        if sigs is None:
            sigs = self._extract(line)
        return sigs[1]

    def search_signatures(self, line: bytes) -> Tuple[int, ...]:
        """One signature per distinct non-trivial word, line order."""
        sigs = self._memo.get(line)
        if sigs is None:
            sigs = self._extract(line)
        return sigs[0]

    # ------------------------------------------------------------------
    # Block warm (whole blocks of lines at once)
    # ------------------------------------------------------------------

    def warm_batch(self, lines: Sequence[bytes]) -> int:
        """Memoize the signatures of *lines* before they are used.

        The serve worker's block warm (``ServeConfig.drain_block``)
        calls this with the write payloads of a drained block:
        extraction is pure per-line work (no encoder state involved),
        so it can be paid up front. Equal-length blocks on the numpy
        leg build their word rows and trivial masks in one
        :class:`BatchLines` pass; either way every row goes through the
        same :meth:`_extract_row` as a scalar miss. Returns how many
        distinct lines were newly extracted.
        """
        fresh = [line for line in dict.fromkeys(lines) if line not in self._memo]
        if not fresh:
            return 0
        threshold = self.config.trivial_threshold_bits
        if batch_backend() == "numpy" and len({len(line) for line in fresh}) == 1:
            batch = BatchLines(fresh, threshold)
            rows = zip(batch.words.tolist(), batch.tmasks)
        else:
            rows = ((line_words(line), trivial_mask(line, threshold)) for line in fresh)
        for line, (words, tmask) in zip(fresh, rows):
            self._remember(line, self._extract_row(words, tmask))
        return len(fresh)

    def nontrivial_word_count(self, line: bytes) -> int:
        tmask = trivial_mask(line, self.config.trivial_threshold_bits)
        return len(line) // 4 - popcount32(tmask)
