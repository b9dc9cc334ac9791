"""One link leg: a compression scheme on an inclusive cache pair, and
the bit/flit tally every link simulator keeps.

The memory link (:mod:`repro.sim.memlink`), the coherence links
(:mod:`repro.sim.multichip`), the shared multiprogram link
(:mod:`repro.sim.multiprogram`) and the memory tiers
(:mod:`repro.tiers`) all build their link here, from one scheme name:

- ``"cable"`` — the full :class:`~repro.core.encoder.CableLinkPair`;
- ``"raw"`` — no compression and no flag bit: lines cross as-is;
- :data:`STREAM_SCHEMES` — a stream link compressor per direction,
  its codec state carried across the stream.

:class:`LinkLeg` hands the host one record per fill and write-back;
the host counts it into a :class:`LinkCounts` with
:meth:`LinkCounts.add`. :meth:`LinkLeg.wire_bits` serializes a record
to the exact bits its ``size_bits`` charged, through
:mod:`repro.link.wire`, for hosts that look at the bits themselves
(the §VI-D toggle count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.cache.hierarchy import InclusivePair, TransferEvent
from repro.compression.base import CompressedBlock
from repro.compression.lbe import LbeCompressor
from repro.compression.lzss import LzssCompressor
from repro.compression.registry import make_engine
from repro.core.config import CableConfig
from repro.core.encoder import CableLinkPair, DecompressionError
from repro.core.payload import FLAG_BITS
from repro.link.channel import LinkModel
from repro.link.wire import WireFormat, encode_block, encode_payload, wire_format_for
from repro.util.bits import BitWriter

#: Stream link compressors: one codec state per direction.
STREAM_SCHEMES = ("zero", "bdi", "cpack", "cpack128", "lbe256", "gzip")

#: Every scheme a :class:`LinkLeg` accepts.
LINK_SCHEMES = ("cable", "raw") + STREAM_SCHEMES

#: gzip's stream window at the paper's scale (a 32KB LZSS dictionary).
GZIP_WINDOW_BYTES = 32 * 1024


def gzip_window(llc_bytes: int, paper_llc_bytes: int) -> Optional[int]:
    """gzip's stream window for a run whose LLC holds *llc_bytes* where
    the paper's holds *paper_llc_bytes*.

    A scaled-down run shrinks the window in proportion (never below
    1KB), so the window:LLC dictionary-size ratio every CABLE-vs-gzip
    comparison hinges on is preserved. At the paper's size or above it
    returns None: the engine's own 32KB window.
    """
    scale = llc_bytes / paper_llc_bytes
    if scale >= 1.0:
        return None
    return max(1024, int(GZIP_WINDOW_BYTES * scale))


class StreamCodec:
    """A stream link compressor on one direction, with verification."""

    def __init__(
        self,
        scheme: str,
        verify: bool,
        window_bytes: Optional[int] = None,
        line_bytes: int = 64,
    ) -> None:
        if window_bytes is not None:
            self.encoder = LzssCompressor(window_bytes=window_bytes)
            self.decoder = LzssCompressor(window_bytes=window_bytes)
        else:
            self.encoder = make_engine(scheme)
            self.decoder = make_engine(scheme)
        self.verify = verify
        #: The widths the encoder's blocks cross the wire at: its CPACK
        #: dictionary and its LBE stream window.
        encoder = self.encoder
        self.fmt = WireFormat(
            line_bytes=line_bytes,
            cpack_entries=getattr(encoder, "entries", WireFormat.cpack_entries),
            lbe_window_bytes=(
                encoder.window_bytes if isinstance(encoder, LbeCompressor) else 0
            ),
        )

    def transfer(self, data: bytes) -> Optional[CompressedBlock]:
        """Compress one line; returns the block sent, or None when the
        line crossed raw (a block no smaller than the line).

        A stateful decoder decodes every block, sent or not, which
        keeps its window in step with the encoder's.
        """
        block = self.encoder.compress(data)
        if self.verify or self.decoder.stateful:
            decoded = self.decoder.decompress(block)
            if self.verify and decoded != data:
                raise DecompressionError("stream codec round-trip failed")
        return block if block.size_bits < len(data) * 8 else None


@dataclass
class LegRecord:
    """One line crossing a link without the cable: the fields of a
    :class:`~repro.core.encoder.TransferRecord` that hosts read."""

    direction: str  # "fill" | "writeback"
    line_addr: int
    data: bytes
    size_bits: int
    overhead_bits: int = 0
    #: The stream block sent; None for a line that crossed raw.
    block: Optional[CompressedBlock] = None


@dataclass
class LinkCounts:
    """What one link (or one program's share of it) carried."""

    transfers: int = 0
    writebacks: int = 0
    raw_bits: int = 0
    payload_bits: int = 0
    #: Wire bits beyond the payloads: recovery framing and
    #: retransmissions (and a tier's own metadata traffic).
    overhead_bits: int = 0
    flits: int = 0
    raw_flits: int = 0

    def add(self, link: LinkModel, record) -> None:
        """Count one *record* (a :class:`LegRecord` or a cable
        :class:`~repro.core.encoder.TransferRecord`) crossing *link*."""
        self.transfers += 1
        if record.direction == "writeback":
            self.writebacks += 1
        raw_bits = len(record.data) * 8
        payload_bits = record.size_bits
        self.raw_bits += raw_bits
        self.payload_bits += payload_bits
        self.flits += link.flits_for(payload_bits)
        self.raw_flits += link.flits_for(raw_bits)
        overhead_bits = record.overhead_bits
        if overhead_bits:
            # Framing and retransmissions cross the wire as their own
            # flits; they cost bandwidth the effective ratio sees.
            self.overhead_bits += overhead_bits
            self.flits += link.flits_for(overhead_bits)

    @property
    def raw_ratio(self) -> float:
        """Payload (pre-flit) compression ratio."""
        if self.payload_bits == 0:
            return 1.0
        return self.raw_bits / self.payload_bits

    @property
    def effective_ratio(self) -> float:
        """Flit-quantized bandwidth ratio — what the paper plots."""
        if self.flits == 0:
            return 1.0
        return self.raw_flits / self.flits


class LinkLeg:
    """One compression scheme attached to an InclusivePair link.

    *listener* is called once per fill and write-back. For ``cable`` it
    is registered on the :class:`CableLinkPair` built here and receives
    its :class:`~repro.core.encoder.TransferRecord`; the other schemes
    observe the pair's events and hand it a :class:`LegRecord`.
    *window_bytes* sets gzip's stream window (None: the paper's 32KB);
    the other schemes have no window.
    """

    def __init__(
        self,
        scheme: str,
        pair: InclusivePair,
        listener: Callable,
        cable_config: Optional[CableConfig] = None,
        verify: bool = True,
        window_bytes: Optional[int] = None,
    ) -> None:
        if scheme not in LINK_SCHEMES:
            raise ValueError(
                f"unknown link scheme {scheme!r}; known: {', '.join(LINK_SCHEMES)}"
            )
        self.cable: Optional[CableLinkPair] = None
        self._listener = listener
        #: Stream codec per direction; None for cable and raw.
        self.codecs: Optional[Dict[str, StreamCodec]] = None
        if scheme == "cable":
            config = cable_config or CableConfig()
            self.cable = CableLinkPair(config, pair, verify=verify)
            self.cable.listeners.append(listener)
            return
        if scheme in STREAM_SCHEMES:
            window = window_bytes if scheme == "gzip" else None
            line_bytes = pair.home.geometry.line_bytes
            self.codecs = {
                "fill": StreamCodec(scheme, verify, window, line_bytes),
                "writeback": StreamCodec(scheme, verify, window, line_bytes),
            }
        pair.add_observer(self._observe)

    def _observe(self, event: TransferEvent) -> None:
        if event.kind not in ("fill", "writeback"):
            return
        data = event.data
        size_bits = len(data) * 8
        block = None
        if self.codecs is not None:
            block = self.codecs[event.kind].transfer(data)
            size_bits = FLAG_BITS + (size_bits if block is None else block.size_bits)
        self._listener(
            LegRecord(event.kind, event.line_addr, data, size_bits, block=block)
        )

    def wire_bits(self, record) -> BitWriter:
        """The exact bits *record* put on the wire.

        Cable writes its payload at the pair's current negotiated
        format; a stream scheme writes the flag and its block, or the
        flag and the raw line; raw writes the line alone. That is
        ``record.size_bits`` bits for every scheme but two: gzip's
        engine charges deflate-like Huffman costs where the wire's
        LZSS codec is flat, and the ORACLE engine's charge leaves out
        its hybrid discriminator bit.
        """
        if self.cable is not None:
            config = self.cable.config
            fmt = wire_format_for(config, self.cable.home_encoder.engine)
            return encode_payload(record.payload, fmt, config.engine)
        writer = BitWriter()
        if self.codecs is None:  # raw
            writer.write_bytes(record.data)
        elif record.block is None:
            writer.write(0, FLAG_BITS)
            writer.write_bytes(record.data)
        else:
            writer.write(1, FLAG_BITS)
            encode_block(record.block, 0, self.codecs[record.direction].fmt, writer)
        return writer

    def finish(self) -> None:
        """End-of-run hook: drain any cable resync backlog."""
        if self.cable is not None:
            self.cable.lifecycle.drain_resync()
