"""Off-chip link model (Table IV).

The baseline link is 16 bits wide at 9.6GHz (19.2GB/s), modelled after
Intel QPI / AMD HyperTransport. Payloads are carried in whole flits,
so a 64-byte line needs 32 flits raw, and the maximum effective
compression is 32× regardless of how small the DIFF gets — the cap
visible across the paper's figures.

Fig 23 additionally evaluates wider links, where left-over bits in the
last flit waste more bandwidth, and a *packed* transport that
amortizes that waste by concatenating transfers with a 6-bit length
prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Length prefix used by the packed transport (§VI-E: "a 6-bit value
#: specifying the length in bytes of each compressed data").
PACKED_LENGTH_BITS = 6


@dataclass(frozen=True)
class LinkModel:
    """A point-to-point off-chip link."""

    width_bits: int = 16
    frequency_hz: float = 9.6e9
    setup_latency_ns: float = 20.0

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.width_bits / 8 * self.frequency_hz

    def flits_for(self, payload_bits: int) -> int:
        """Whole flits needed for a payload."""
        if payload_bits <= 0:
            return 0
        return -(-payload_bits // self.width_bits)

    def wire_bits_for(self, payload_bits: int) -> int:
        """Bits actually occupied on the wire, padding included."""
        return self.flits_for(payload_bits) * self.width_bits

    def effective_ratio(self, raw_bits: int, payload_bits: int) -> float:
        """Effective compression ratio after flit quantization."""
        wire = self.wire_bits_for(payload_bits)
        if wire == 0:
            return float("inf")
        return self.wire_bits_for(raw_bits) / wire

    def transfer_cycles(self, payload_bits: int) -> int:
        return self.flits_for(payload_bits)

    def transfer_time_s(self, payload_bits: int) -> float:
        return self.transfer_cycles(payload_bits) / self.frequency_hz


@dataclass
class LinkStats:
    """Accumulated traffic over one link direction."""

    link: LinkModel = field(default_factory=LinkModel)
    transfers: int = 0
    payload_bits: int = 0
    raw_bits: int = 0
    flits: int = 0
    #: Recovery-protocol bits beyond the payload itself: framing
    #: (sequence tag + CRC) and every retransmitted frame. Crosses the
    #: wire as its own flits (retransmissions are separate frames).
    overhead_bits: int = 0

    def record(
        self, raw_bits: int, payload_bits: int, overhead_bits: int = 0
    ) -> None:
        self.transfers += 1
        self.raw_bits += raw_bits
        self.payload_bits += payload_bits
        self.flits += self.link.flits_for(payload_bits)
        if overhead_bits:
            self.record_overhead(overhead_bits)

    def record_overhead(self, overhead_bits: int) -> None:
        """Account recovery overhead (frame headers, retransmissions)."""
        self.overhead_bits += overhead_bits
        self.flits += self.link.flits_for(overhead_bits)

    @property
    def wire_bits(self) -> int:
        return self.flits * self.link.width_bits

    @property
    def effective_ratio(self) -> float:
        """Effective bandwidth gain: raw wire bits / compressed wire bits.

        Raw traffic is flit-quantized too; lines are uniform in every
        stream this model sees, so quantizing the per-transfer average
        is exact.
        """
        if self.wire_bits == 0 or self.transfers == 0:
            return 1.0
        per_line = self.raw_bits // self.transfers
        raw_wire = self.link.wire_bits_for(per_line) * self.transfers
        return raw_wire / self.wire_bits


class PackedTransport:
    """Packs multiple payloads back-to-back with 6-bit length prefixes.

    Instead of padding every payload to a flit boundary, payloads are
    concatenated bit-contiguously, each preceded by its length in
    bytes, and the stream is cut into flits. This recovers most of the
    waste on wide links (Fig 23's "64-bit Packed" series).
    """

    def __init__(self, link: LinkModel) -> None:
        self.link = link
        self._bit_cursor = 0
        self.transfers = 0
        self.payload_bits = 0

    def record(self, payload_bits: int) -> None:
        self.transfers += 1
        self.payload_bits += payload_bits
        self._bit_cursor += PACKED_LENGTH_BITS + payload_bits

    @property
    def flits(self) -> int:
        return self.link.flits_for(self._bit_cursor)

    @property
    def wire_bits(self) -> int:
        return self.flits * self.link.width_bits
