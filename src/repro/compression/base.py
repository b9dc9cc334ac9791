"""Compressor interface shared by all engines.

Two kinds of engines exist in the paper's evaluation:

*Stream engines* (CPACK, BDI, gzip/LZSS, zero) compress the sequence of
lines crossing the link, possibly carrying dictionary state from line to
line. They implement :meth:`Compressor.compress`.

*Reference engines* (the ones CABLE pairs with: LBE, CPACK, gzip,
ORACLE) additionally accept a temporary dictionary seeded from up to
three reference cache lines, implementing
:meth:`ReferenceCompressor.compress_with_references`. The temporary
dictionary never persists — it is rebuilt per transfer on both sides of
the link from the references themselves (§III-E, Fig 10).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.util.kernels import DATACLASS_SLOTS


@dataclass(frozen=True, **DATACLASS_SLOTS)
class CompressedBlock:
    """The result of compressing one cache line.

    ``size_bits`` is the exact number of payload bits on the wire (CABLE
    framing — compressed flag, reference count, RemoteLIDs — is added
    separately by :mod:`repro.core.payload`). ``tokens`` is an
    engine-specific token stream sufficient to reconstruct the line.
    """

    algorithm: str
    size_bits: int
    original_size: int
    tokens: Tuple = field(repr=False, default=())

    @property
    def size_bytes(self) -> float:
        return self.size_bits / 8.0

    @property
    def ratio(self) -> float:
        """Raw compression ratio of this block (uncompressed / compressed)."""
        if self.size_bits == 0:
            return float("inf")
        return (self.original_size * 8) / self.size_bits


def compression_ratio(original_bits: int, compressed_bits: int) -> float:
    """``uncompressed_size / compressed_size`` as defined in §VI-A."""
    if compressed_bits <= 0:
        return float("inf")
    return original_bits / compressed_bits


class Compressor(ABC):
    """A line compressor with optional cross-line stream state."""

    #: Short identifier used in experiment tables ("cpack", "gzip", ...).
    name: str = "abstract"

    #: True when compressing line *k* depends on lines ``0..k-1`` of the
    #: stream (e.g. gzip's sliding window). Stateful engines must be fed
    #: lines in transmission order and reset between streams.
    stateful: bool = False

    @abstractmethod
    def compress(self, line: bytes) -> CompressedBlock:
        """Compress one line, updating stream state if stateful."""

    @abstractmethod
    def decompress(self, block: CompressedBlock) -> bytes:
        """Reconstruct the line from *block*, mirroring stream state.

        For stateful engines, blocks must be decompressed in the same
        order they were compressed, by a separate instance (or after
        :meth:`reset`) acting as the receiving end of the link.
        """

    def reset(self) -> None:
        """Drop all stream state (start of a new link stream)."""


class ReferenceCompressor(Compressor):
    """A compressor that can seed a temporary dictionary from references."""

    @abstractmethod
    def compress_with_references(
        self, line: bytes, references: Sequence[bytes]
    ) -> CompressedBlock:
        """Compress *line* against a temporary dictionary of *references*.

        Stream state is neither consulted nor updated — the temporary
        dictionary exists only for this transfer.
        """

    @abstractmethod
    def decompress_with_references(
        self, block: CompressedBlock, references: Sequence[bytes]
    ) -> bytes:
        """Inverse of :meth:`compress_with_references`."""
