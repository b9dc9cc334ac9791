"""Bit-granularity serialization.

Compression payloads in the paper are measured in bits (a 1-bit
compressed flag, a 2-bit reference count, 17-bit RemoteLIDs, CPACK
codes of 2–34 bits...). :class:`BitWriter` and :class:`BitReader`
provide exact MSB-first bit streams so every engine in
:mod:`repro.compression` can both *account* bits and *round-trip*
real encodings in tests.

Both hold the whole stream in one Python int, so they cost work per
*field*, not per bit: a write is one checked shift-or, a read one shift
and mask, and byte strings move as a single field either way. The
reader converts its bytes once, with :meth:`int.from_bytes`, when it is
built. ``tests/test_util_bits.py`` pins both against a bit-serial
reader kept there as the oracle.
"""

from __future__ import annotations


def bits_for(value_count: int) -> int:
    """Number of bits needed to index ``value_count`` distinct values.

    ``bits_for(1) == 0`` — a single possible value needs no bits.
    """
    if value_count < 1:
        raise ValueError("value_count must be positive")
    return (value_count - 1).bit_length()


class BitWriter:
    """Append-only MSB-first bit buffer."""

    __slots__ = ("_acc", "_bit_count")

    def __init__(self) -> None:
        self._acc = 0  # every bit written so far, last field lowest
        self._bit_count = 0

    def write(self, value: int, width: int) -> None:
        """Append the *width* low bits of *value*."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if width == 0:
            return
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._bit_count += width

    def write_bytes(self, data: bytes) -> None:
        """Append *data* as ``8 * len(data)`` bits, one field."""
        width = 8 * len(data)
        self._acc = (self._acc << width) | int.from_bytes(data, "big")
        self._bit_count += width

    def extend(self, other: "BitWriter") -> None:
        """Append every bit another writer holds (frame composition)."""
        self._acc = (self._acc << other._bit_count) | other._acc
        self._bit_count += other._bit_count

    @property
    def bit_count(self) -> int:
        return self._bit_count

    def getvalue(self) -> bytes:
        """Pack the stream into bytes, zero-padded to a byte boundary."""
        pad = (-self._bit_count) % 8
        return (self._acc << pad).to_bytes((self._bit_count + pad) // 8, "big")


class BitReader:
    """MSB-first reader over bytes produced by :class:`BitWriter`."""

    __slots__ = ("_value", "_total", "_pos", "_limit")

    def __init__(self, data: bytes, bit_count: int = None) -> None:
        self._total = len(data) * 8
        self._pos = 0
        self._limit = self._total if bit_count is None else bit_count
        if self._limit > self._total:
            raise ValueError("bit_count exceeds available data")
        self._value = int.from_bytes(data, "big")

    def read(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be non-negative")
        if width == 0:
            return 0
        end = self._pos + width
        if end > self._limit:
            raise EOFError("bit stream exhausted")
        self._pos = end
        return (self._value >> (self._total - end)) & ((1 << width) - 1)

    def read_bytes(self, count: int) -> bytes:
        """Read ``8 * count`` bits as one field, returned as bytes."""
        return self.read(8 * count).to_bytes(count, "big")

    def seek(self, bit_position: int) -> None:
        """Jump to an absolute bit position (frame field access)."""
        if not 0 <= bit_position <= self._limit:
            raise ValueError("seek position outside the bit stream")
        self._pos = bit_position

    @property
    def bits_remaining(self) -> int:
        return self._limit - self._pos
