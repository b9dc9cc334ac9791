"""Bit-toggle accounting (§VI-D).

On links that do not scramble data, dynamic energy and signal
integrity track the number of bit *toggles* — positions that change
value between consecutive flits. Compression reduces the flit count
but raises entropy per flit, so the net effect must be measured, which
is what the paper's 30.2% toggle-reduction claim is about.

This module cuts a serialized bit stream into flits and counts
transitions. It serializes nothing itself: a simulator hands it the
bits its link leg wrote (:meth:`repro.sim.leg.LinkLeg.wire_bits`,
through :mod:`repro.link.wire`), the same bits the link is charged
for.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.util.bits import BitWriter
from repro.util.kernels import count_toggles as _count_toggles_kernel


def flitize(data: bytes, bit_count: int, width_bits: int = 16) -> List[int]:
    """Cut an MSB-first bit stream into zero-padded flits."""
    total = int.from_bytes(data, "big") if data else 0
    stored_bits = len(data) * 8
    # Drop the byte-boundary padding BitWriter added, then pad to flits.
    total >>= max(stored_bits - bit_count, 0)
    flit_count = -(-bit_count // width_bits) if bit_count else 0
    total <<= flit_count * width_bits - bit_count
    flits = []
    for i in range(flit_count):
        shift = (flit_count - 1 - i) * width_bits
        flits.append((total >> shift) & ((1 << width_bits) - 1))
    return flits


def count_toggles(flits: Iterable[int], previous: int = 0) -> int:
    """Transitions between consecutive flits (starting from *previous*).

    Delegates to the shared kernel: vectorized popcount over the XOR of
    consecutive flits when numpy is available, the shared ``popcount32``
    loop otherwise.
    """
    return _count_toggles_kernel(flits, previous)


class ToggleCounter:
    """Running toggle count over one link direction."""

    def __init__(self, width_bits: int = 16) -> None:
        self.width_bits = width_bits
        self._last_flit = 0
        self.toggles = 0
        self.flits = 0

    def record_bits(self, writer: BitWriter) -> None:
        flits = flitize(writer.getvalue(), writer.bit_count, self.width_bits)
        self.toggles += count_toggles(flits, self._last_flit)
        self.flits += len(flits)
        if flits:
            self._last_flit = flits[-1]

    def record_raw(self, line: bytes) -> None:
        writer = BitWriter()
        writer.write_bytes(line)
        self.record_bits(writer)
