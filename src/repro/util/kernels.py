"""Vectorized kernels for the per-line encode hot path.

Every ``CableHomeEncoder.encode()`` call decodes the outbound line into
32-bit words, classifies each word as trivial or not, hashes the
non-trivial ones, and popcounts coverage bit vectors. At simulation
scale those four primitives dominate the runtime, so they live here as
*kernels*: one implementation selected **once at import time** from

- a numpy fast path (``numpy`` is a declared dependency, but the
  kernels degrade gracefully when it is absent),
- a CPython fast path (``int.bit_count`` on Python >= 3.10),
- a pure-Python fallback that works on Python 3.9 with no third-party
  packages at all.

Setting the environment variable ``REPRO_PURE_PYTHON=1`` before import
forces the pure-Python fallbacks everywhere — CI uses this to prove the
fast and fallback paths produce identical results.

The other half of the strategy is memoization of per-*line* work:
cache lines are immutable ``bytes`` and the same line is decoded and
masked many times per simulation (encode, compress, index, invalidate,
re-encode...). :func:`line_words` and :func:`trivial_mask` therefore
cache their results keyed on the line contents, bounded by an LRU so
pathological traces cannot grow memory without limit. Per-*pair* work
is not memoized: a (line, candidate) cache of coverage bit vectors
(:func:`line_match_mask`) hit under a third of its calls in the
simulator and almost none on a served link, and its keys held evicted
lines alive.
"""

from __future__ import annotations

import os
import struct
import sys
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

#: Set REPRO_PURE_PYTHON=1 to force every kernel onto its pure-Python
#: fallback (no numpy, no ``int.bit_count``), regardless of what the
#: interpreter supports. Used by CI to exercise the 3.9/no-numpy legs.
FORCE_PURE = os.environ.get("REPRO_PURE_PYTHON", "").strip().lower() in (
    "1",
    "true",
    "yes",
    "on",
)

try:
    if FORCE_PURE:
        raise ImportError("REPRO_PURE_PYTHON forces the pure-Python kernels")
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via REPRO_PURE_PYTHON
    _np = None

#: True when the numpy fast paths are active.
HAVE_NUMPY = _np is not None

_HAVE_BITWISE_COUNT = HAVE_NUMPY and hasattr(_np, "bitwise_count")

#: Which kernel leg import-time selection landed on. Mirrored into the
#: obs layer so benchmark artifacts record the leg that produced them.
if HAVE_NUMPY:
    BACKEND = "numpy"
elif not FORCE_PURE and hasattr(int, "bit_count"):
    BACKEND = "bit_count"
else:
    BACKEND = "pure"

#: Keyword arguments adding ``__slots__`` to a ``@dataclass`` on
#: interpreters that support it (``slots=True`` arrived in 3.10).
#: Hot per-encode objects use this to cut allocation overhead without
#: dropping 3.9 compatibility.
DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

#: Bound on the per-line memo caches. 8K 64-byte lines is ~0.5MB of
#: keys — enough to cover a simulated LLC + L4 working set.
_LINE_CACHE_SIZE = 8192


# ----------------------------------------------------------------------
# popcount — the one popcount every call site shares
# ----------------------------------------------------------------------

def _popcount_pure(value: int) -> int:
    """Portable popcount for non-negative ints (the 3.9 fallback)."""
    return bin(value).count("1")


if not FORCE_PURE and hasattr(int, "bit_count"):
    def popcount32(value: int) -> int:
        """Number of set bits of a non-negative int.

        Named for the 32-bit words/CBVs it counts in the hot path, but
        correct for any width (flit XORs, combined CBVs, masks).
        """
        return value.bit_count()
else:  # Python 3.9 or REPRO_PURE_PYTHON
    popcount32 = _popcount_pure


# ----------------------------------------------------------------------
# Memoized immutable word views
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unpacker(word_count: int):
    return struct.Struct(f"<{word_count}I").unpack


@lru_cache(maxsize=_LINE_CACHE_SIZE)
def line_words(line: bytes) -> Tuple[int, ...]:
    """Immutable little-endian 32-bit word view of *line*, memoized.

    The same cache line is decoded many times per simulation; this
    returns the identical tuple every time without re-unpacking. Use
    :func:`repro.util.words.bytes_to_words` instead when the caller
    needs a private mutable list.
    """
    if len(line) % 4:
        raise ValueError(f"line length {len(line)} is not a multiple of 4")
    return _unpacker(len(line) // 4)(line)


# ----------------------------------------------------------------------
# Trivial-word mask (the paper's §III-A rule, whole-line at once)
# ----------------------------------------------------------------------

def _trivial_mask_pure(line: bytes, threshold_bits: int = 24) -> int:
    mask = 0
    keep = 32 - threshold_bits
    all_ones_top = (1 << threshold_bits) - 1
    for i, word in enumerate(line_words(line)):
        top = word >> keep
        if top == 0 or top == all_ones_top:
            mask |= 1 << i
    return mask


def _trivial_mask_numpy(line: bytes, threshold_bits: int = 24) -> int:
    if not line:
        return 0
    arr = _np.frombuffer(line, dtype="<u4")
    top = arr >> _np.uint32(32 - threshold_bits)
    trivial = (top == 0) | (top == _np.uint32((1 << threshold_bits) - 1))
    return int.from_bytes(
        _np.packbits(trivial, bitorder="little").tobytes(), "little"
    )


#: Below this many bytes the per-array numpy overhead (frombuffer,
#: packbits, int conversion) loses to a plain loop over the cached
#: word tuple. 64-byte cache lines sit firmly on the pure side; the
#: numpy path takes over for page-sized buffers and beyond.
_NUMPY_CUTOVER_BYTES = 256

if HAVE_NUMPY:
    def _trivial_mask_impl(line: bytes, threshold_bits: int = 24) -> int:
        if len(line) >= _NUMPY_CUTOVER_BYTES:
            return _trivial_mask_numpy(line, threshold_bits)
        return _trivial_mask_pure(line, threshold_bits)
else:
    _trivial_mask_impl = _trivial_mask_pure

#: Bit *i* set when word *i* of the line is trivial (>= ``threshold``
#: leading zeros or ones). Memoized per (line, threshold).
trivial_mask = lru_cache(maxsize=_LINE_CACHE_SIZE)(_trivial_mask_impl)


# ----------------------------------------------------------------------
# Coverage bit vectors (word-equality masks)
# ----------------------------------------------------------------------

def match_mask(a: Sequence[int], b: Sequence[int]) -> int:
    """Bit *i* set when ``a[i] == b[i]`` (over the shorter sequence)."""
    mask = 0
    for i, (wa, wb) in enumerate(zip(a, b)):
        if wa == wb:
            mask |= 1 << i
    return mask


def _line_match_mask_pure(line_a: bytes, line_b: bytes) -> int:
    if line_a == line_b:  # exact duplicates are the common candidate
        return (1 << (len(line_a) // 4)) - 1
    return match_mask(line_words(line_a), line_words(line_b))


def _line_match_mask_numpy(line_a: bytes, line_b: bytes) -> int:
    n = min(len(line_a), len(line_b)) & ~3
    if not n:
        return 0
    eq = _np.frombuffer(line_a[:n], dtype="<u4") == _np.frombuffer(
        line_b[:n], dtype="<u4"
    )
    return int.from_bytes(_np.packbits(eq, bitorder="little").tobytes(), "little")


#: CBV between two raw lines: bit *i* set when their i-th 32-bit words
#: match exactly. The bytes-level fast path of
#: :func:`repro.core.search.coverage_bit_vector`.
if HAVE_NUMPY:
    def line_match_mask(line_a: bytes, line_b: bytes) -> int:
        if min(len(line_a), len(line_b)) >= _NUMPY_CUTOVER_BYTES:
            return _line_match_mask_numpy(line_a, line_b)
        return _line_match_mask_pure(line_a, line_b)
else:
    line_match_mask = _line_match_mask_pure


# ----------------------------------------------------------------------
# Flit toggle counting (link/toggles.py hot loop)
# ----------------------------------------------------------------------

def _count_toggles_pure(flits: Iterable[int], previous: int = 0) -> int:
    toggles = 0
    prev = previous
    for flit in flits:
        toggles += popcount32(prev ^ flit)
        prev = flit
    return toggles


def _count_toggles_numpy(flits: Iterable[int], previous: int = 0) -> int:
    seq: List[int] = list(flits)
    # Short streams (one line is ~33 flits at 16 bits) do not amortize
    # array construction; wide flits would overflow uint64.
    if len(seq) < 8 or (seq and (max(seq) >= 1 << 64 or previous >= 1 << 64)):
        return _count_toggles_pure(seq, previous)
    arr = _np.empty(len(seq) + 1, dtype=_np.uint64)
    arr[0] = previous
    arr[1:] = seq
    return int(_np.bitwise_count(arr[:-1] ^ arr[1:]).sum())


#: Transitions between consecutive flits, starting from *previous*.
count_toggles = (
    _count_toggles_numpy if _HAVE_BITWISE_COUNT else _count_toggles_pure
)


# ----------------------------------------------------------------------
# Batched-across-lines kernels
# ----------------------------------------------------------------------
#
# The per-line kernels above took the arithmetic off the profile; what
# remains is per-line Python dispatch. The serve worker's block warm
# (``ServeConfig.drain_block`` → ``SignatureExtractor.warm_batch``)
# amortizes the word decode and trivial masks across a *block* of
# queued write payloads whose bytes are already known: one contiguous
# word matrix and one vectorized trivial-mask pass (:class:`BatchLines`),
# whose rows then take the extractor's one per-line pass.
# ``BatchLines`` takes an optional ``backend`` ("numpy" or "pure") so
# tests can pin either leg in-process; the default follows the
# import-time selection (and hence REPRO_PURE_PYTHON).


def batch_backend(override: "str | None" = None) -> str:
    """Resolve the batch-kernel leg: "numpy" or "pure"."""
    if override is not None:
        if override not in ("numpy", "pure"):
            raise ValueError(f"unknown batch backend {override!r}")
        if override == "numpy" and not HAVE_NUMPY:
            raise ValueError("numpy batch backend requested but numpy is unavailable")
        return override
    return "numpy" if HAVE_NUMPY else "pure"


def _rows_to_masks(rows: "object") -> List[int]:
    """Per-row little-endian bitmask ints from a (N, W) bool array."""
    packed = _np.packbits(rows, axis=1, bitorder="little")
    width = packed.shape[1]
    pad = -width % 8
    if pad:
        packed = _np.pad(packed, ((0, 0), (0, pad)))
    if packed.shape[1] == 8:
        return _np.ascontiguousarray(packed).view("<u8").ravel().tolist()
    data = packed.tobytes()
    stride = packed.shape[1]
    return [
        int.from_bytes(data[i : i + stride], "little")
        for i in range(0, len(data), stride)
    ]


class BatchLines:
    """A block of equal-length lines as one contiguous word matrix.

    Built in a single vectorized pass on the numpy leg: one
    ``frombuffer`` over the concatenated lines for the ``(count,
    words_per_line)`` uint32 matrix, and one shift/compare/packbits
    round for the per-line trivial masks. The pure leg reuses the
    memoized per-line kernels, so both legs agree bit-for-bit with
    :func:`line_words` / :func:`trivial_mask`.
    """

    __slots__ = ("lines", "count", "words_per_line", "backend", "words", "tmasks")

    def __init__(
        self,
        lines: Sequence[bytes],
        trivial_threshold_bits: int = 24,
        backend: "str | None" = None,
    ) -> None:
        self.lines: Tuple[bytes, ...] = tuple(lines)
        self.count = len(self.lines)
        if not self.count:
            raise ValueError("BatchLines needs at least one line")
        size = len(self.lines[0])
        if size % 4 or any(len(line) != size for line in self.lines):
            raise ValueError("BatchLines needs equal, word-aligned line lengths")
        self.words_per_line = size // 4
        self.backend = batch_backend(backend)
        if self.backend == "numpy":
            matrix = _np.frombuffer(b"".join(self.lines), dtype="<u4").reshape(
                self.count, self.words_per_line
            )
            top = matrix >> _np.uint32(32 - trivial_threshold_bits)
            trivial = (top == 0) | (
                top == _np.uint32((1 << trivial_threshold_bits) - 1)
            )
            #: (count, words_per_line) uint32 matrix, row *i* = line *i*.
            self.words = matrix
            #: Per-line trivial masks (same rule as :func:`trivial_mask`).
            self.tmasks: List[int] = _rows_to_masks(trivial)
        else:
            self.words = [line_words(line) for line in self.lines]
            self.tmasks = [
                trivial_mask(line, trivial_threshold_bits) for line in self.lines
            ]
