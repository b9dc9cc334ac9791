"""Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012).

BDI represents a line as one base value plus per-element deltas narrow
enough to fit a small immediate, with a second implicit base of zero
(the "BΔI" dual-base refinement): each element stores either a delta
from the explicit base or a delta from zero, selected by a one-bit mask.

BDI is the paper's representative of the *non-dictionary* class: fast,
per-line, no cross-line state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.compression.base import Compressor, CompressedBlock

#: (encoding name, base size in bytes, delta size in bytes)
_LAYOUTS: Tuple[Tuple[str, int, int], ...] = (
    ("b8d1", 8, 1),
    ("b8d2", 8, 2),
    ("b8d4", 8, 4),
    ("b4d1", 4, 1),
    ("b4d2", 4, 2),
    ("b2d1", 2, 1),
)

#: 4-bit tag identifying the encoding on the wire.
_TAG_BITS = 4


def _split(line: bytes, size: int) -> List[int]:
    count = len(line) // size
    fmt = {1: "b", 2: "h", 4: "i", 8: "q"}[size]
    return list(struct.unpack(f"<{count}{fmt.upper()}", line))


def _join(values: List[int], size: int) -> bytes:
    fmt = {1: "b", 2: "h", 4: "i", 8: "q"}[size]
    return struct.pack(f"<{len(values)}{fmt.upper()}", *values)


def _fits(value: int, size: int) -> bool:
    bound = 1 << (8 * size - 1)
    return -bound <= value < bound


@dataclass(frozen=True)
class _Candidate:
    layout: str
    base: int
    mask: Tuple[bool, ...]  # True => delta from explicit base, False => from zero
    deltas: Tuple[int, ...]
    size_bits: int


class BdiCompressor(Compressor):
    """Base-Delta-Immediate with dual (explicit + zero) bases."""

    name = "bdi"
    stateful = False

    def compress(self, line: bytes) -> CompressedBlock:
        candidate = self._best_candidate(line)
        if candidate is None:
            # Uncompressed fallback: tag + raw line.
            size_bits = _TAG_BITS + len(line) * 8
            return CompressedBlock(self.name, size_bits, len(line), ("raw", line))
        tokens = (
            candidate.layout,
            candidate.base,
            candidate.mask,
            candidate.deltas,
            len(line),
        )
        return CompressedBlock(self.name, candidate.size_bits, len(line), tokens)

    def decompress(self, block: CompressedBlock) -> bytes:
        if block.tokens[0] == "raw":
            return block.tokens[1]
        if block.tokens[0] == "zeros":
            return b"\x00" * block.tokens[4]
        if block.tokens[0] == "rep":
            value, line_len = block.tokens[1], block.tokens[4]
            return struct.pack("<q", value) * (line_len // 8)
        layout, base, mask, deltas, line_len = block.tokens
        __, base_size, delta_size = next(l for l in _LAYOUTS if l[0] == layout)
        del delta_size
        values = [
            (base + d) if use_base else d for use_base, d in zip(mask, deltas)
        ]
        return _join(values, base_size)

    def _best_candidate(self, line: bytes) -> Optional[_Candidate]:
        if not any(line):
            # All-zero line: tag + 1 marker byte.
            return _Candidate("zeros", 0, (), (), _TAG_BITS + 8)
        rep = self._repeated_candidate(line)
        best = rep
        for layout, base_size, delta_size in _LAYOUTS:
            if len(line) % base_size:
                continue
            cand = self._delta_candidate(line, layout, base_size, delta_size)
            if cand is not None and (best is None or cand.size_bits < best.size_bits):
                best = cand
        return best

    def _repeated_candidate(self, line: bytes) -> Optional[_Candidate]:
        if len(line) % 8:
            return None
        chunks = [line[i : i + 8] for i in range(0, len(line), 8)]
        if all(c == chunks[0] for c in chunks):
            value = struct.unpack("<q", chunks[0])[0]
            return _Candidate("rep", value, (), (), _TAG_BITS + 64)
        return None

    def _delta_candidate(
        self, line: bytes, layout: str, base_size: int, delta_size: int
    ) -> Optional[_Candidate]:
        values = _split(line, base_size)
        base = next((v for v in values if not _fits(v, delta_size)), None)
        if base is None:
            base = values[0]
        mask: List[bool] = []
        deltas: List[int] = []
        for value in values:
            if _fits(value, delta_size):
                mask.append(False)
                deltas.append(value)
            elif _fits(value - base, delta_size):
                mask.append(True)
                deltas.append(value - base)
            else:
                return None
        size_bits = (
            _TAG_BITS
            + base_size * 8
            + len(values)  # dual-base selection mask
            + len(values) * delta_size * 8
        )
        return _Candidate(layout, base, tuple(mask), tuple(deltas), size_bits)