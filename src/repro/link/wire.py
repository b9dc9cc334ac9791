"""Bit-exact wire codec for CABLE payloads.

Every engine's token stream has an *exact* bit-level encoder **and
parser**, so a payload can be flattened to real bits and reconstructed
on the far side with nothing but the bits, the link's negotiated
configuration and the receiver's cache — the full production path.
This is the one serializer: the framed link sends what
:func:`encode_payload` writes, and the §VI-D toggle count
(:mod:`repro.link.toggles`) counts the bits a simulated link leg
(:meth:`repro.sim.leg.LinkLeg.wire_bits`) writes through it.

Field widths must be derivable by the receiver, so they depend only on
negotiated configuration plus on-wire fields (the 2-bit reference
count determines the temporary-dictionary size and hence pointer
widths), never on payload content.

Layout (§III-E): ``flag(1)`` — 0 = raw line follows; 1 = compressed:
``refcount(2)``, ``refcount × RemoteLID``, then the engine-specific
DIFF. The ORACLE engine is a hybrid (exact DP or LBE, whichever is
smaller), so its DIFF starts with one discriminator bit.

Decode paths raise the typed hierarchy of :mod:`repro.core.errors`
instead of bare ``ValueError``: a truncated stream is
:class:`~repro.core.errors.TruncatedPayloadError`, impossible tokens
are :class:`~repro.core.errors.CorruptPayloadError` — both subclasses
of :class:`~repro.core.errors.WireDecodeError`, so the recovery layer
can NACK wire corruption while genuine programming bugs still surface
as ordinary exceptions.

For lossy links, :func:`encode_frame`/:func:`decode_frame` wrap the
payload in a link-layer frame — ``seq(4) | payload | crc(8|16)`` —
whose CRC detects every single-bit flip and whose sequence tag rejects
reordered/replayed frames (see :mod:`repro.link.recovery`).
:func:`verify_frame` is the check alone, for a receiver that does not
need the tokens.

Every transfer crosses these codecs several times, so they cost work
per field: LBE literal runs, byte runs and raw lines move as one
:class:`~repro.util.bits.BitWriter`/:class:`~repro.util.bits.BitReader`
field each, a frame is parsed by one reader, and CRC-16 is
:func:`binascii.crc_hqx`.
"""

from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass
from time import perf_counter_ns
from typing import List, Optional, Tuple

from repro.cache.setassoc import LineId
from repro.compression.base import CompressedBlock
from repro.core.errors import (
    CorruptPayloadError,
    CrcMismatchError,
    SequenceError,
    TruncatedPayloadError,
)
from repro.core.payload import FLAG_BITS, Payload, PayloadKind, REFCOUNT_BITS
from repro.obs.registry import METRICS
from repro.util.bits import BitReader, BitWriter, bits_for
from repro.util.words import WORD_BYTES

# Pre-bound wire-framing stage histograms (see repro.obs.registry).
_STAGE_FRAME_ENCODE = METRICS.stage("wire.frame_encode")
_STAGE_FRAME_DECODE = METRICS.stage("wire.frame_decode")


@dataclass(frozen=True)
class WireFormat:
    """Link-negotiated constants both endpoints share."""

    line_bytes: int = 64
    remotelid_bits: int = 17
    #: CPACK dictionary entries (per-engine config, negotiated).
    cpack_entries: int = 16
    #: LBE stream-window bytes for refcount-0 payloads. CABLE's
    #: no-reference path compresses with an *empty* temporary window
    #: (0, the default); a stream-LBE link negotiates its persistent
    #: window size here (256 for LBE256, see
    #: :class:`repro.sim.leg.StreamCodec`).
    lbe_window_bytes: int = 0

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // WORD_BYTES

    # -- width derivations (§: widths must be config+header driven) ----

    def lbe_offset_bits(self, reference_count: int) -> int:
        if reference_count:
            window = max(reference_count * self.line_bytes, WORD_BYTES)
        else:
            window = max(self.lbe_window_bytes, WORD_BYTES)
        return bits_for(window // WORD_BYTES + self.words_per_line)

    def lbe_reference_offset_bits(self, reference_count: int) -> int:
        window = max(reference_count * self.line_bytes, WORD_BYTES)
        return bits_for(window // WORD_BYTES + self.words_per_line)

    def cpack_index_bits(self, reference_count: int) -> int:
        if reference_count:
            capacity = max(
                self.cpack_entries, reference_count * self.words_per_line
            )
        else:
            capacity = self.cpack_entries
        return bits_for(capacity)

    def oracle_offset_bits(self, reference_count: int) -> int:
        return bits_for(max(reference_count * self.line_bytes, 1))


# ======================================================================
# Per-engine token codecs: (tokens, writer, widths) and the inverse
# ======================================================================

# ---------------------------------------------------------------- LBE

#: Big-endian 32-bit word packers by run length: a literal run of up to
#: 16 words crosses the wire as one field.
_BE_WORDS = {count: struct.Struct(f">{count}I") for count in range(1, 17)}


def _lbe_encode(tokens, writer: BitWriter, off_bits: int) -> None:
    for token in tokens:
        kind = token[0]
        if kind == "zero":
            writer.write(0b00, 2)
            writer.write(token[1] - 1, 4)
        elif kind == "copy":
            writer.write(0b01, 2)
            writer.write(token[1], off_bits)
            writer.write(token[2] - 1, 4)
        elif kind == "lit":
            count = len(token[1])
            writer.write(0b10, 2)
            writer.write(count - 1, 4)
            writer.write_bytes(_BE_WORDS[count].pack(*token[1]))
        elif kind == "byte":
            writer.write(0b11, 2)
            writer.write(len(token[1]) - 1, 4)
            writer.write_bytes(bytes(token[1]))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown LBE token {kind!r}")


def _lbe_decode(reader: BitReader, off_bits: int, words_per_line: int):
    tokens: List[Tuple] = []
    produced = 0
    while produced < words_per_line:
        op = reader.read(2)
        if op == 0b00:
            length = reader.read(4) + 1
            tokens.append(("zero", length))
            produced += length
        elif op == 0b01:
            offset = reader.read(off_bits)
            length = reader.read(4) + 1
            tokens.append(("copy", offset, length))
            produced += length
        elif op == 0b10:
            count = reader.read(4) + 1
            run = reader.read_bytes(4 * count)
            tokens.append(("lit", _BE_WORDS[count].unpack(run)))
            produced += count
        else:
            count = reader.read(4) + 1
            tokens.append(("byte", tuple(reader.read_bytes(count))))
            produced += count
    if produced != words_per_line:
        raise CorruptPayloadError(
            f"LBE stream produced {produced} words for a {words_per_line}-word line"
        )
    return tokens


# -------------------------------------------------------------- CPACK

def _cpack_encode(tokens, writer: BitWriter, idx_bits: int) -> None:
    for token in tokens:
        kind = token[0]
        if kind == "zzzz":
            writer.write(0b00, 2)
        elif kind == "xxxx":
            writer.write(0b01, 2)
            writer.write(token[1], 32)
        elif kind == "mmmm":
            writer.write(0b10, 2)
            writer.write(token[1], idx_bits)
        elif kind == "mmxx":
            writer.write(0b1100, 4)
            writer.write(token[1], idx_bits)
            writer.write(token[2], 16)
        elif kind == "zzzx":
            writer.write(0b1101, 4)
            writer.write(token[1], 8)
        elif kind == "mmmx":
            writer.write(0b1110, 4)
            writer.write(token[1], idx_bits)
            writer.write(token[2], 8)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown CPACK token {kind!r}")


def _cpack_decode(reader: BitReader, idx_bits: int, words_per_line: int):
    tokens: List[Tuple] = []
    for _ in range(words_per_line):
        code = reader.read(2)
        if code == 0b00:
            tokens.append(("zzzz",))
        elif code == 0b01:
            tokens.append(("xxxx", reader.read(32)))
        elif code == 0b10:
            tokens.append(("mmmm", reader.read(idx_bits)))
        else:
            sub = reader.read(2)
            if sub == 0b00:
                tokens.append(("mmxx", reader.read(idx_bits), reader.read(16)))
            elif sub == 0b01:
                tokens.append(("zzzx", reader.read(8)))
            elif sub == 0b10:
                tokens.append(("mmmx", reader.read(idx_bits), reader.read(8)))
            else:
                raise CorruptPayloadError("invalid CPACK code 1111")
    return tokens


# --------------------------------------------------------------- zero

def _zero_encode(tokens, writer: BitWriter) -> None:
    word_count, nonzero = tokens
    nonzero_map = dict(nonzero)
    for i in range(word_count):
        writer.write(1 if i in nonzero_map else 0, 1)
    for __, value in nonzero:
        writer.write(value, 32)


def _zero_decode(reader: BitReader, words_per_line: int):
    mask = [reader.read(1) for _ in range(words_per_line)]
    nonzero = tuple(
        (i, reader.read(32)) for i, bit in enumerate(mask) if bit
    )
    return (words_per_line, nonzero)


# ---------------------------------------------------------------- BDI

_BDI_LAYOUTS = ("zeros", "rep", "b8d1", "b8d2", "b8d4", "b4d1", "b4d2", "b2d1", "raw")
_BDI_SIZES = {
    "b8d1": (8, 1),
    "b8d2": (8, 2),
    "b8d4": (8, 4),
    "b4d1": (4, 1),
    "b4d2": (4, 2),
    "b2d1": (2, 1),
}


def _signed(value: int, bits: int) -> int:
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def _bdi_encode(tokens, writer: BitWriter) -> None:
    layout = tokens[0]
    writer.write(_BDI_LAYOUTS.index(layout), 4)
    if layout == "raw":
        writer.write_bytes(tokens[1])
        return
    if layout == "zeros":
        writer.write(0, 8)
        return
    if layout == "rep":
        writer.write(tokens[1] & ((1 << 64) - 1), 64)
        return
    __, base, mask, deltas, __line = tokens
    base_size, delta_size = _BDI_SIZES[layout]
    writer.write(base & ((1 << (base_size * 8)) - 1), base_size * 8)
    for use_base in mask:
        writer.write(1 if use_base else 0, 1)
    for delta in deltas:
        writer.write(delta & ((1 << (delta_size * 8)) - 1), delta_size * 8)


def _bdi_decode(reader: BitReader, line_bytes: int):
    selector = reader.read(4)
    if selector >= len(_BDI_LAYOUTS):
        raise CorruptPayloadError(f"invalid BDI layout selector {selector}")
    layout = _BDI_LAYOUTS[selector]
    if layout == "raw":
        return ("raw", reader.read_bytes(line_bytes))
    if layout == "zeros":
        reader.read(8)
        return ("zeros", 0, (), (), line_bytes)
    if layout == "rep":
        value = _signed(reader.read(64), 64)
        return ("rep", value, (), (), line_bytes)
    base_size, delta_size = _BDI_SIZES[layout]
    elements = line_bytes // base_size
    # The BDI compressor splits lines with *unsigned* struct formats,
    # so bases are unsigned; only deltas are two's-complement (they can
    # be negative when the element sits below the base). Sign-extending
    # the base here used to reconstruct values outside the unsigned
    # element range for lines with the top bit set.
    base = reader.read(base_size * 8)
    mask = tuple(bool(reader.read(1)) for _ in range(elements))
    deltas = tuple(
        _signed(reader.read(delta_size * 8), delta_size * 8)
        for _ in range(elements)
    )
    return (layout, base, mask, deltas, line_bytes)


# --------------------------------------------------------------- LZSS

def _lzss_encode(tokens, writer: BitWriter) -> None:
    for token in tokens:
        if token[0] == "lit":
            writer.write(0, 1)
            writer.write(token[1], 8)
        else:
            writer.write(1, 1)
            writer.write(token[1], 15)
            writer.write(token[2] - 3, 8)


def _lzss_decode(reader: BitReader, line_bytes: int):
    tokens: List[Tuple] = []
    produced = 0
    while produced < line_bytes:
        if reader.read(1) == 0:
            tokens.append(("lit", reader.read(8)))
            produced += 1
        else:
            offset = reader.read(15)
            length = reader.read(8) + 3
            tokens.append(("match", offset, length))
            produced += length
    if produced != line_bytes:
        raise CorruptPayloadError(
            f"LZSS stream produced {produced} bytes for a {line_bytes}-byte line"
        )
    return tokens


# -------------------------------------------------------------- ORACLE

def _oracle_dp_encode(tokens, writer: BitWriter, off_bits: int) -> None:
    for token in tokens:
        if token[0] == "lit":
            writer.write(0, 1)
            writer.write(token[1], 8)
        elif token[0] == "zero":
            writer.write(0b10, 2)
            writer.write(token[1] - 1, 6)
        else:
            writer.write(0b11, 2)
            writer.write(token[1], off_bits)
            writer.write(token[2] - 1, 6)


def _oracle_dp_decode(reader: BitReader, off_bits: int, line_bytes: int):
    tokens: List[Tuple] = []
    produced = 0
    while produced < line_bytes:
        if reader.read(1) == 0:
            tokens.append(("lit", reader.read(8)))
            produced += 1
        elif reader.read(1) == 0:
            length = reader.read(6) + 1
            tokens.append(("zero", length))
            produced += length
        else:
            offset = reader.read(off_bits)
            length = reader.read(6) + 1
            tokens.append(("copy", offset, length))
            produced += length
    if produced != line_bytes:
        raise CorruptPayloadError(
            f"ORACLE stream produced {produced} bytes for a {line_bytes}-byte line"
        )
    return tokens


def encode_block(
    block: CompressedBlock, refcount: int, fmt: WireFormat, writer: BitWriter
) -> None:
    """Write one block's DIFF tokens with its engine's token codec, at
    the widths *fmt* negotiates for a payload of *refcount* references
    (a stream block is refcount 0).

    Only LBE's and ORACLE's copy offsets and CPACK's dictionary index
    vary; zero, BDI and LZSS fields are fixed-width.
    """
    algorithm, tokens = block.algorithm, block.tokens
    if algorithm.startswith("lbe"):
        _lbe_encode(tokens, writer, fmt.lbe_offset_bits(refcount))
    elif algorithm.startswith("cpack"):
        _cpack_encode(tokens, writer, fmt.cpack_index_bits(refcount))
    elif algorithm.startswith("zero"):
        _zero_encode(tokens, writer)
    elif algorithm.startswith("bdi"):
        _bdi_encode(tokens, writer)
    elif algorithm.startswith("gzip"):
        _lzss_encode(tokens, writer)
    elif algorithm.startswith("oracle"):
        _oracle_dp_encode(tokens, writer, fmt.oracle_offset_bits(refcount))
    else:
        raise ValueError(f"no wire codec for engine {algorithm!r}")


# ======================================================================
# Payload-level codec
# ======================================================================

def encode_payload(
    payload: Payload, fmt: WireFormat = WireFormat(), engine_name: str = "lbe"
) -> BitWriter:
    """Flatten a payload to its exact wire bits.

    Under the ORACLE engine the DIFF starts with the hybrid's
    discriminator; the block's algorithm says which arm won.
    """
    writer = BitWriter()
    if payload.kind is PayloadKind.UNCOMPRESSED:
        writer.write(0, FLAG_BITS)
        writer.write_bytes(payload.raw)
        return writer
    writer.write(1, FLAG_BITS)
    refcount = len(payload.remote_lids)
    writer.write(refcount, REFCOUNT_BITS)
    for lid in payload.remote_lids:
        writer.write(int(lid) & ((1 << fmt.remotelid_bits) - 1), fmt.remotelid_bits)
    block = payload.block
    if engine_name.startswith("oracle"):
        if block.algorithm.startswith("lbe"):
            writer.write(1, 1)  # hybrid discriminator: 1 = LBE arm
            _lbe_encode(block.tokens, writer, fmt.lbe_reference_offset_bits(refcount))
            return writer
        writer.write(0, 1)  # hybrid discriminator: 0 = exact DP
    encode_block(block, refcount, fmt, writer)
    return writer


@dataclass
class DecodedPayload:
    """What the receiver recovers from the raw bits alone."""

    kind: PayloadKind
    remote_lids: Tuple[LineId, ...]
    block: CompressedBlock  # tokens reconstructed; size_bits = wire bits
    raw: bytes = b""


_KNOWN_ENGINES = ("lbe", "cpack", "zero", "bdi", "gzip", "oracle")


def decode_payload(
    data: bytes,
    bit_count: int,
    engine_name: str,
    fmt: WireFormat = WireFormat(),
) -> DecodedPayload:
    """Parse wire bits back into a decompressible payload.

    Malformed input raises the typed hierarchy of
    :mod:`repro.core.errors` (:class:`TruncatedPayloadError` /
    :class:`CorruptPayloadError`), never a bare ``ValueError`` — an
    unknown *engine_name* is the one exception, since that is a caller
    bug rather than wire corruption.
    """
    if not engine_name.startswith(_KNOWN_ENGINES):
        raise ValueError(f"no wire codec for engine {engine_name!r}")
    try:
        reader = BitReader(data, bit_count)
    except ValueError as exc:
        raise TruncatedPayloadError(str(exc)) from exc
    try:
        return _parse_payload(reader, bit_count, engine_name, fmt)
    except EOFError as exc:
        raise TruncatedPayloadError(f"payload truncated: {exc}") from exc
    except CorruptPayloadError:
        raise
    except (ValueError, IndexError, KeyError, OverflowError) as exc:
        raise CorruptPayloadError(f"payload bits unparseable: {exc}") from exc


def _parse_payload(
    reader: BitReader,
    bit_count: int,
    engine_name: str,
    fmt: WireFormat,
) -> DecodedPayload:
    if reader.read(FLAG_BITS) == 0:
        raw = reader.read_bytes(fmt.line_bytes)
        return DecodedPayload(
            kind=PayloadKind.UNCOMPRESSED, remote_lids=(), raw=raw,
            block=CompressedBlock("raw", fmt.line_bytes * 8, fmt.line_bytes),
        )
    refcount = reader.read(REFCOUNT_BITS)
    lids = tuple(LineId(reader.read(fmt.remotelid_bits)) for _ in range(refcount))
    words = fmt.words_per_line
    if engine_name.startswith("lbe"):
        tokens = _lbe_decode(reader, fmt.lbe_offset_bits(refcount), words)
        algorithm = "lbe"
    elif engine_name.startswith("cpack"):
        tokens = _cpack_decode(reader, fmt.cpack_index_bits(refcount), words)
        algorithm = engine_name
    elif engine_name.startswith("zero"):
        tokens = _zero_decode(reader, words)
        algorithm = "zero"
    elif engine_name.startswith("bdi"):
        tokens = _bdi_decode(reader, fmt.line_bytes)
        algorithm = "bdi"
    elif engine_name.startswith("gzip"):
        tokens = _lzss_decode(reader, fmt.line_bytes)
        algorithm = "gzip"
    elif engine_name.startswith("oracle"):
        if reader.read(1) == 0:
            tokens = _oracle_dp_decode(
                reader, fmt.oracle_offset_bits(refcount), fmt.line_bytes
            )
            algorithm = "oracle"
        else:
            tokens = _lbe_decode(
                reader, fmt.lbe_reference_offset_bits(refcount), words
            )
            algorithm = "lbe"
    else:  # pragma: no cover - defensive
        raise ValueError(f"no wire codec for engine {engine_name!r}")
    kind = (
        PayloadKind.WITH_REFERENCES if refcount else PayloadKind.NO_REFERENCE
    )
    block = CompressedBlock(
        algorithm, bit_count, fmt.line_bytes, tuple(tokens)
    )
    return DecodedPayload(kind=kind, remote_lids=lids, block=block)


# ======================================================================
# Link-layer framing: seq | payload | crc  (lossy-wire protection)
# ======================================================================

#: Frame sequence-tag width (reorder/replay detection window of 16).
FRAME_SEQ_BITS = 4

#: Supported frame CRC widths: CRC-8 (poly 0x07, init 0xFF) and
#: CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF).
_CRC_WIDTHS = (8, 16)


def _crc8_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) if crc & 0x80 else (crc << 1)
        table.append(crc & 0xFF)
    return tuple(table)


_CRC8_TABLE = _crc8_table()


def _bit_prefix(data: bytes, bits: int) -> bytes:
    """The first *bits* bits of *data*, zero-padded to a byte — the
    exact bytes :meth:`BitWriter.getvalue` produces for that prefix."""
    nbytes = (bits + 7) // 8
    prefix = bytes(data[:nbytes])
    pad = nbytes * 8 - bits
    if pad and nbytes:
        return prefix[:-1] + bytes((prefix[-1] & (0xFF << pad) & 0xFF,))
    return prefix


def _trailing_field(data: bytes, end_bit: int, width: int) -> int:
    """The *width*-bit field that ends at bit *end_bit* of *data* (a
    frame's CRC), read from the bytes it spans."""
    first = (end_bit - width) // 8
    last = (end_bit + 7) // 8
    span = int.from_bytes(data[first:last], "big")
    return (span >> (last * 8 - end_bit)) & ((1 << width) - 1)


def frame_crc(data: bytes, bits: int, width: int = 16) -> int:
    """CRC over the first *bits* bits of *data* plus the bit length.

    Folding the length in means a frame truncated on a byte boundary
    (where zero padding alone could alias) still fails its check. The
    generator polynomials (CRC-8 0x07, CRC-16-CCITT 0x1021) detect
    every single-bit and every double-bit error at these frame sizes.
    CRC-16 is :func:`binascii.crc_hqx` (CRC-16/CCITT-FALSE from init
    0xFFFF); CRC-8 runs the table loop.
    """
    if width not in _CRC_WIDTHS:
        raise ValueError(f"unsupported CRC width {width}")
    message = _bit_prefix(data, bits) + bits.to_bytes(4, "big")
    if width == 16:
        return binascii.crc_hqx(message, 0xFFFF)
    crc = 0xFF
    for byte in message:
        crc = _CRC8_TABLE[crc ^ byte]
    return crc


def encode_frame(
    payload: Payload,
    fmt: WireFormat = WireFormat(),
    engine_name: str = "lbe",
    seq: int = 0,
    crc_bits: int = 16,
    seq_bits: int = FRAME_SEQ_BITS,
) -> BitWriter:
    """Wrap a payload in a link-layer frame: ``seq | payload | crc``."""
    enabled = METRICS.enabled
    if enabled:
        t0 = perf_counter_ns()
    writer = BitWriter()
    writer.write(seq & ((1 << seq_bits) - 1), seq_bits)
    writer.extend(encode_payload(payload, fmt, engine_name))
    crc = frame_crc(writer.getvalue(), writer.bit_count, crc_bits)
    writer.write(crc, crc_bits)
    if enabled:
        _STAGE_FRAME_ENCODE.observe(perf_counter_ns() - t0)
    return writer


def verify_frame(
    data: bytes,
    bit_count: int,
    crc_bits: int = 16,
    seq_bits: int = FRAME_SEQ_BITS,
    expected_seq: Optional[int] = None,
) -> int:
    """Check one frame's length, CRC and sequence tag; returns the seq.

    Raises :class:`~repro.core.errors.TruncatedPayloadError` when the
    frame is too short to hold even an empty payload,
    :class:`~repro.core.errors.CrcMismatchError` on checksum failure,
    and :class:`~repro.core.errors.SequenceError` when *expected_seq*
    is given and the tag disagrees. No token is parsed: a receiver that
    only forwards or acknowledges the frame stops here.
    """
    if bit_count < seq_bits + crc_bits + FLAG_BITS or bit_count > len(data) * 8:
        raise TruncatedPayloadError(
            f"frame of {bit_count} bits cannot hold seq+payload+crc"
        )
    received_crc = _trailing_field(data, bit_count, crc_bits)
    computed = frame_crc(data, bit_count - crc_bits, crc_bits)
    if received_crc != computed:
        raise CrcMismatchError(
            f"frame CRC {received_crc:#x} != computed {computed:#x}"
        )
    seq = _trailing_field(data, seq_bits, seq_bits)
    if expected_seq is not None and seq != expected_seq:
        raise SequenceError(
            f"frame seq {seq} arrived while expecting {expected_seq}"
        )
    return seq


def decode_frame(
    data: bytes,
    bit_count: int,
    engine_name: str,
    fmt: WireFormat = WireFormat(),
    crc_bits: int = 16,
    seq_bits: int = FRAME_SEQ_BITS,
    expected_seq: Optional[int] = None,
) -> Tuple[int, DecodedPayload]:
    """Verify and parse one frame; returns ``(seq, decoded)``.

    :func:`verify_frame` runs first and raises its typed errors, so
    corrupted bits never reach the codecs; the token parse then raises
    :class:`~repro.core.errors.TruncatedPayloadError` or
    :class:`~repro.core.errors.CorruptPayloadError`.
    """
    enabled = METRICS.enabled
    if enabled:
        t0 = perf_counter_ns()
    seq = verify_frame(data, bit_count, crc_bits, seq_bits, expected_seq)
    if not engine_name.startswith(_KNOWN_ENGINES):
        raise ValueError(f"no wire codec for engine {engine_name!r}")
    prefix_bits = bit_count - crc_bits
    reader = BitReader(data, prefix_bits)
    reader.seek(seq_bits)
    try:
        decoded = _parse_payload(
            reader, prefix_bits - seq_bits, engine_name, fmt
        )
    except EOFError as exc:
        raise TruncatedPayloadError(f"payload truncated: {exc}") from exc
    except CorruptPayloadError:
        raise
    except (ValueError, IndexError, KeyError, OverflowError) as exc:
        raise CorruptPayloadError(f"payload bits unparseable: {exc}") from exc
    if enabled:
        _STAGE_FRAME_DECODE.observe(perf_counter_ns() - t0)
    return seq, decoded


# ======================================================================
# Stream records: length-prefixed framing for byte-stream transports
# ======================================================================
#
# Everything above speaks (data, bit_count) pairs — fine for the
# in-process link, useless on a TCP socket where the receiver sees an
# arbitrary chunking of the byte stream and must find frame boundaries
# itself. A *stream record* wraps one bit-frame with a fixed header so
# an incremental decoder can reassemble frames across chunk
# boundaries: ``magic(1) | channel(1) | bit_count(4, big-endian) |
# ceil(bit_count / 8) payload bytes``. The channel byte is free for
# the transport's multiplexing (repro.serve uses it as the message
# kind); the payload is exactly what :meth:`BitWriter.getvalue`
# produced for ``bit_count`` bits.

#: First byte of every stream record — a cheap desync check on top of
#: whatever integrity the payload itself carries (DATA frames are
#: CRC-guarded; a magic mismatch means the stream lost framing and the
#: connection is unrecoverable).
STREAM_RECORD_MAGIC = 0xC3

#: Fixed stream-record header size in bytes.
STREAM_HEADER_BYTES = 6

#: Default reassembly bound. Generous for 64-byte lines (a raw frame
#: is ~70 bytes framed); anything claiming more is corruption, not a
#: big frame, and must not grow the buffer without limit.
MAX_STREAM_FRAME_BYTES = 4096


def encode_stream_record(channel: int, data: bytes, bit_count: int) -> bytes:
    """Wrap one bit-frame for a byte-stream transport."""
    if not 0 <= channel <= 0xFF:
        raise ValueError(f"stream channel {channel} does not fit one byte")
    nbytes = (bit_count + 7) // 8
    if len(data) < nbytes:
        raise ValueError(
            f"stream record claims {bit_count} bits but carries {len(data)} bytes"
        )
    return (
        bytes((STREAM_RECORD_MAGIC, channel))
        + bit_count.to_bytes(4, "big")
        + data[:nbytes]
    )


class FrameDecoder:
    """Incremental stream-record reassembler with a bounded buffer.

    Feed it whatever chunks the transport delivers — half a header,
    three frames and a tail, one byte at a time — and it yields every
    *complete* record as ``(channel, payload bytes, bit_count)`` while
    buffering at most one partial frame (bounded by
    ``max_frame_bytes``). Damage is typed, never silent:

    - a wrong magic byte raises :class:`CorruptPayloadError` (stream
      desync — frame boundaries are lost for good);
    - a header claiming more than ``max_frame_bytes`` raises
      :class:`CorruptPayloadError` before any payload is buffered, so
      corrupt lengths cannot balloon memory;
    - :meth:`close` with a partial record still buffered raises
      :class:`TruncatedPayloadError` (the peer died mid-frame).
    """

    def __init__(self, max_frame_bytes: int = MAX_STREAM_FRAME_BYTES) -> None:
        if max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be positive")
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self.frames_decoded = 0

    @property
    def buffered(self) -> int:
        """Bytes currently held for the next (incomplete) record."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> List[Tuple[int, bytes, int]]:
        """Consume one transport chunk; return every completed record."""
        self._buffer.extend(chunk)
        records: List[Tuple[int, bytes, int]] = []
        buffer = self._buffer
        offset = 0
        available = len(buffer)
        while available - offset >= STREAM_HEADER_BYTES:
            if buffer[offset] != STREAM_RECORD_MAGIC:
                raise CorruptPayloadError(
                    f"stream record magic {buffer[offset]:#04x} != "
                    f"{STREAM_RECORD_MAGIC:#04x} (framing lost)"
                )
            channel = buffer[offset + 1]
            bit_count = int.from_bytes(buffer[offset + 2 : offset + 6], "big")
            nbytes = (bit_count + 7) // 8
            if nbytes > self.max_frame_bytes:
                raise CorruptPayloadError(
                    f"stream record claims {nbytes} bytes, "
                    f"bound is {self.max_frame_bytes}"
                )
            if available - offset - STREAM_HEADER_BYTES < nbytes:
                break  # partial payload: wait for the next chunk
            start = offset + STREAM_HEADER_BYTES
            records.append((channel, bytes(buffer[start : start + nbytes]), bit_count))
            self.frames_decoded += 1
            offset = start + nbytes
        if offset:
            del buffer[:offset]
        return records

    def close(self) -> None:
        """Declare end-of-stream; loud if a record was cut mid-flight."""
        if self._buffer:
            raise TruncatedPayloadError(
                f"stream ended with {len(self._buffer)} bytes of a "
                "partial record buffered"
            )


# ======================================================================
# Resync handshake frames: HELLO / EPOCH  (crash recovery)
# ======================================================================

#: Resync-frame discriminator byte (never a valid payload-frame start
#: is not required — the receiver knows from protocol state which
#: decoder to use; the magic is a cheap cross-check on top of the CRC).
EPOCH_FRAME_MAGIC = 0xE5

#: A restarted endpoint announces itself and its restored epoch.
EPOCH_KIND_HELLO = 0
#: The surviving peer answers with the progress it last observed.
EPOCH_KIND_EPOCH = 1

_EPOCH_KINDS = (EPOCH_KIND_HELLO, EPOCH_KIND_EPOCH)


def encode_epoch_frame(
    kind: int,
    epoch: int,
    records: int,
    complete: bool = False,
    crc_bits: int = 16,
    seq_bits: int = FRAME_SEQ_BITS,
) -> BitWriter:
    """Build one resync handshake frame.

    Layout: ``seq(=0) | magic(8) | kind(2) | epoch(32) | records(32) |
    complete(1) | crc``. *records* is the journal length at *epoch*
    (HELLO) or the last journal length the peer observed (EPOCH); the
    pair lets both sides agree whether a journal replay actually
    reached the present before any DIFF is trusted.
    """
    if kind not in _EPOCH_KINDS:
        raise ValueError(f"unknown epoch-frame kind {kind}")
    writer = BitWriter()
    writer.write(0, seq_bits)  # handshake frames restart the window
    writer.write(EPOCH_FRAME_MAGIC, 8)
    writer.write(kind, 2)
    writer.write(epoch & 0xFFFFFFFF, 32)
    writer.write(records & 0xFFFFFFFF, 32)
    writer.write(1 if complete else 0, 1)
    crc = frame_crc(writer.getvalue(), writer.bit_count, crc_bits)
    writer.write(crc, crc_bits)
    return writer


def decode_epoch_frame(
    data: bytes,
    bit_count: int,
    crc_bits: int = 16,
    seq_bits: int = FRAME_SEQ_BITS,
) -> Tuple[int, int, int, bool]:
    """Verify and parse a handshake frame → ``(kind, epoch, records,
    complete)``. CRC is checked before any field is believed."""
    expected = seq_bits + 8 + 2 + 32 + 32 + 1 + crc_bits
    if bit_count != expected or bit_count > len(data) * 8:
        raise TruncatedPayloadError(
            f"epoch frame of {bit_count} bits, expected {expected}"
        )
    verify_frame(data, bit_count, crc_bits, seq_bits)
    reader = BitReader(data, bit_count - crc_bits)
    reader.seek(seq_bits)
    if reader.read(8) != EPOCH_FRAME_MAGIC:
        raise CorruptPayloadError("epoch frame magic mismatch")
    kind = reader.read(2)
    if kind not in _EPOCH_KINDS:
        raise CorruptPayloadError(f"unknown epoch-frame kind {kind}")
    epoch = reader.read(32)
    records = reader.read(32)
    complete = bool(reader.read(1))
    return kind, epoch, records, complete


def wire_format_for(config, engine=None) -> WireFormat:
    """Build the negotiated :class:`WireFormat` for a CABLE config.

    The CPACK dictionary size is engine configuration, so it must ride
    the negotiation: it is read off the live *engine* when provided
    (e.g. ``cpack128`` runs 32 entries), else defaulted.
    """
    cpack_entries = getattr(engine, "entries", None)
    if cpack_entries is None:
        cpack_entries = 32 if "128" in config.engine else 16
    return WireFormat(
        line_bytes=config.line_bytes,
        remotelid_bits=config.remotelid_bits,
        cpack_entries=cpack_entries,
    )
