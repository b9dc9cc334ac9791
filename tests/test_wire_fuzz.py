"""Property fuzz of the wire codecs: damage never goes unnoticed.

Two layers, two contracts:

- **frames** (``encode_frame``/``decode_frame``): any single-bit flip
  and any truncation raises a typed :class:`WireDecodeError` — the CRC
  (with the bit length folded in) guarantees it. Clean frames decode
  back to the exact line. ``verify_frame``, the check without the
  token parse that the served client runs, rejects every flip too:
  exhaustively every 1-, 2- and 3-bit flip on CRC-16 frames.
- **bare payloads** (``decode_payload``): no CRC, so corrupted bits
  may parse — but the decoder must either raise a *typed* error or
  return a well-formed :class:`DecodedPayload`; it must never escape
  with an untyped ``ValueError``/``IndexError``/``struct.error``.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from repro.cache.setassoc import LineId
from repro.compression.registry import make_engine
from repro.core.errors import DecompressionError, SequenceError, WireDecodeError
from repro.core.payload import Payload, PayloadKind
from repro.link.wire import (
    WireFormat,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
    frame_crc,
    verify_frame,
)
from repro.trace.stream import WorkloadModel
from repro.util.words import words_to_bytes

FMT = WireFormat()

ENGINES = ("lbe", "cpack", "zero", "bdi", "gzip", "oracle")
#: Engines whose wire format carries reference pointers.
REF_ENGINES = ("lbe", "cpack", "gzip", "oracle")

#: Cache-line words biased toward compressible shapes (zeros, small
#: values) so the codecs emit real token mixes, not wall-to-wall
#: literals.
word = st.one_of(
    st.just(0),
    st.integers(0, 0xFF),
    st.integers(0, 0xFFFFFFFF),
)
line_words = st.lists(word, min_size=16, max_size=16)
#: A fraction in [0, 1) used to pick bit positions/lengths without
#: knowing the frame size at strategy time.
fraction = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)


def build_payload(engine_name, line, refcount):
    """A payload the way the encoder would ship it."""
    engine = make_engine(engine_name)
    if refcount and engine_name in REF_ENGINES:
        refs = [bytes(64), line[::-1]][:refcount]
        block = engine.compress_with_references(line, refs)
        return Payload(
            kind=PayloadKind.WITH_REFERENCES,
            line_addr=0x80,
            line_bytes=64,
            block=block,
            remote_lids=tuple(LineId(40 + i) for i in range(refcount)),
            ref_addrs=tuple(0x1000 + 0x40 * i for i in range(refcount)),
        )
    if engine_name in REF_ENGINES:
        block = engine.compress_with_references(line, ())
    else:
        block = engine.compress(line)
    return Payload(
        kind=PayloadKind.NO_REFERENCE, line_addr=0x80, line_bytes=64, block=block
    )


def build_frame(engine_name, words, refcount, seq=0, crc_bits=16):
    line = words_to_bytes(words)
    payload = build_payload(engine_name, line, refcount)
    writer = encode_frame(payload, FMT, engine_name, seq=seq, crc_bits=crc_bits)
    return payload, writer.getvalue(), writer.bit_count


def flip_bit(data, bit):
    damaged = bytearray(data)
    damaged[bit >> 3] ^= 0x80 >> (bit & 7)
    return bytes(damaged)


#: Frame CRC widths a RecoveryPolicy may negotiate. CRC-16 comes from
#: binascii.crc_hqx and CRC-8 from the table loop, so both are fuzzed.
crc_widths = st.sampled_from((8, 16))


class TestFrameFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        engine=st.sampled_from(ENGINES),
        words=line_words,
        refcount=st.integers(0, 2),
        where=fraction,
        crc_bits=crc_widths,
    )
    @example(engine="lbe", words=[7] * 16, refcount=1, where=0.5, crc_bits=8)
    def test_single_bit_flip_always_detected(
        self, engine, words, refcount, where, crc_bits
    ):
        __, frame, bits = build_frame(engine, words, refcount, crc_bits=crc_bits)
        damaged = flip_bit(frame, int(where * bits))
        with pytest.raises(WireDecodeError):
            decode_frame(damaged, bits, engine, FMT, crc_bits=crc_bits)
        with pytest.raises(WireDecodeError):
            verify_frame(damaged, bits, crc_bits=crc_bits)

    @settings(max_examples=150, deadline=None)
    @given(
        engine=st.sampled_from(ENGINES),
        words=line_words,
        refcount=st.integers(0, 2),
        where=fraction,
        crc_bits=crc_widths,
    )
    @example(engine="lbe", words=[7] * 16, refcount=1, where=0.9, crc_bits=8)
    def test_truncation_always_detected(
        self, engine, words, refcount, where, crc_bits
    ):
        __, frame, bits = build_frame(engine, words, refcount, crc_bits=crc_bits)
        kept = int(where * bits)
        with pytest.raises(WireDecodeError):
            decode_frame(
                frame[: (kept + 7) // 8], kept, engine, FMT, crc_bits=crc_bits
            )

    @settings(max_examples=100, deadline=None)
    @given(
        engine=st.sampled_from(ENGINES),
        words=line_words,
        refcount=st.integers(0, 2),
        seq=st.integers(0, 15),
        crc_bits=crc_widths,
    )
    @example(engine="lbe", words=[7] * 16, refcount=1, seq=3, crc_bits=8)
    def test_clean_frame_roundtrips(self, engine, words, refcount, seq, crc_bits):
        payload, frame, bits = build_frame(
            engine, words, refcount, seq=seq, crc_bits=crc_bits
        )
        got_seq, decoded = decode_frame(
            frame, bits, engine, FMT, crc_bits=crc_bits, expected_seq=seq
        )
        assert got_seq == seq
        assert verify_frame(frame, bits, crc_bits=crc_bits, expected_seq=seq) == seq
        with pytest.raises(SequenceError):
            verify_frame(
                frame, bits, crc_bits=crc_bits, expected_seq=(seq + 1) % 16
            )
        assert decoded.kind is payload.kind
        assert decoded.remote_lids == payload.remote_lids
        line = words_to_bytes(words)
        decoder = make_engine(engine)
        if payload.kind is PayloadKind.WITH_REFERENCES:
            refs = [bytes(64), line[::-1]][: len(payload.remote_lids)]
            assert decoder.decompress_with_references(decoded.block, refs) == line
        elif engine in REF_ENGINES:
            assert decoder.decompress_with_references(decoded.block, ()) == line
        else:
            decoder.reset()
            assert decoder.decompress(decoded.block) == line


def lbm_frames(count=4):
    """``{bits: (seq, frame)}``: the first *count* distinct-size CRC-16
    LBE frames built from a seeded lbm stream's written lines, with and
    without a reference."""
    stream = WorkloadModel("lbm", seed=0x1B).accesses(200, stream_id=0)
    writes = (access for access in stream if access.write_data is not None)
    frames = {}
    for seq, access in enumerate(writes):
        for refcount in (0, 1):
            payload = build_payload("lbe", access.write_data, refcount)
            writer = encode_frame(payload, FMT, "lbe", seq=seq % 16)
            frames.setdefault(writer.bit_count, (seq % 16, writer.getvalue()))
            if len(frames) == count:
                return frames
    raise AssertionError(f"lbm stream gave {len(frames)} frame sizes")


class TestVerifyFrameExhaustive:
    def test_every_one_two_and_three_bit_flip_is_rejected(self):
        # CRC-16/CCITT's generator is (x+1)·p(x) with p primitive of
        # degree 15: the (x+1) factor catches every odd-weight error,
        # and p's period (32767) exceeds these frames, so no error of
        # weight 2 divides it either. No token parse is needed.
        checked, escapes = 0, []
        for bits, (seq, frame) in lbm_frames().items():
            assert verify_frame(frame, bits, expected_seq=seq) == seq
            for flips in (1, 2, 3):
                for positions in itertools.combinations(range(bits), flips):
                    damaged = bytearray(frame)
                    for bit in positions:
                        damaged[bit >> 3] ^= 0x80 >> (bit & 7)
                    checked += 1
                    try:
                        verify_frame(bytes(damaged), bits)
                    except WireDecodeError:
                        continue
                    escapes.append((bits, positions))
        assert checked > 50_000
        assert escapes == []


def table_crc(data, bits, width):
    """The MSB-first table-driven CRC loop ``frame_crc`` used for both
    widths before CRC-16 moved to ``binascii.crc_hqx``: the oracle."""
    poly, crc = {8: (0x07, 0xFF), 16: (0x1021, 0xFFFF)}[width]
    top, mask, shift = 1 << (width - 1), (1 << width) - 1, width - 8
    table = []
    for byte in range(256):
        value = byte << shift
        for _ in range(8):
            value = ((value << 1) ^ poly) if value & top else (value << 1)
        table.append(value & mask)
    nbytes = (bits + 7) // 8
    prefix = bytearray(data[:nbytes])
    if nbytes * 8 - bits:
        prefix[-1] &= (0xFF << (nbytes * 8 - bits)) & 0xFF
    for byte in bytes(prefix) + bits.to_bytes(4, "big"):
        crc = ((crc << 8) ^ table[((crc >> shift) ^ byte) & 0xFF]) & mask
    return crc


class TestFrameCrc:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=96), where=fraction, width=crc_widths)
    def test_matches_table_loop(self, data, where, width):
        bits = int(where * (len(data) * 8 + 1))
        assert frame_crc(data, bits, width) == table_crc(data, bits, width)

    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError):
            frame_crc(b"\x00", 8, 32)


class TestBdiUnsignedBase:
    """Regression: BDI's split/join works in the *unsigned* domain
    (``fmt.upper()``), so a wire decoder that sign-extends the base
    corrupts any base with the top bit set — e.g. a lone 0x80000000
    word makes the 8-byte base 2**63, which sign-extension turns into
    -2**63 and ``_join`` then rejects with ``struct.error``."""

    @pytest.mark.parametrize(
        "words",
        [
            [0] * 15 + [0x80000000],  # hypothesis' original falsifier
            [0x80000000] * 16,  # every delta rides the top-bit base
            [0xFFFFFFFF] * 8 + [0xFFFFFF00] * 8,  # high base, negative deltas
        ],
    )
    def test_top_bit_base_roundtrips(self, words):
        __, frame, bits = build_frame("bdi", words, 0)
        __, decoded = decode_frame(frame, bits, "bdi", FMT, expected_seq=0)
        decoder = make_engine("bdi")
        decoder.reset()
        assert decoder.decompress(decoded.block) == words_to_bytes(words)


class TestBarePayloadFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        engine=st.sampled_from(ENGINES),
        words=line_words,
        refcount=st.integers(0, 2),
        flips=st.lists(fraction, min_size=0, max_size=4),
        truncate=st.one_of(st.none(), fraction),
    )
    def test_corruption_is_typed_or_parsed(
        self, engine, words, refcount, flips, truncate
    ):
        """Without a CRC the parser may be fooled, but it must fail in
        a typed way when it fails at all."""
        line = words_to_bytes(words)
        payload = build_payload(engine, line, refcount)
        writer = encode_payload(payload, FMT, engine)
        data, bits = writer.getvalue(), writer.bit_count
        if truncate is not None and bits:
            bits = int(truncate * bits)
            data = data[: (bits + 7) // 8]
        for where in flips:
            if bits:
                data = flip_bit(data, int(where * bits))
        try:
            decoded = decode_payload(data, bits, engine, FMT)
        except DecompressionError:
            return  # typed failure: the contract holds
        assert isinstance(decoded.kind, PayloadKind)


class TestStreamReassemblyFuzz:
    """The incremental :class:`FrameDecoder` must reassemble stream
    records identically under *any* chunking of the byte stream —
    frames split across reads (even mid-header) are the normal TCP
    case, not an error — while keeping its buffer bounded."""

    @settings(max_examples=150, deadline=None)
    @given(
        payloads=st.lists(
            st.tuples(st.integers(0, 255), st.binary(min_size=0, max_size=90)),
            min_size=1,
            max_size=8,
        ),
        cuts=st.lists(st.integers(1, 40), min_size=0, max_size=24),
    )
    def test_any_chunking_reassembles(self, payloads, cuts):
        from repro.link.wire import FrameDecoder, encode_stream_record

        stream = b"".join(
            encode_stream_record(channel, data, len(data) * 8)
            for channel, data in payloads
        )
        decoder = FrameDecoder()
        got = []
        offset = 0
        for cut in cuts:
            got.extend(decoder.feed(stream[offset : offset + cut]))
            offset += cut
            if offset >= len(stream):
                break
        got.extend(decoder.feed(stream[offset:]))
        assert [(ch, payload) for ch, payload, _bits in got] == payloads
        assert decoder.frames_decoded == len(payloads)
        assert decoder.buffered == 0
        decoder.close()  # nothing left over → no TruncatedPayloadError

    def test_byte_at_a_time(self):
        from repro.link.wire import FrameDecoder, encode_stream_record

        record = encode_stream_record(7, b"hello wire", 80)
        decoder = FrameDecoder()
        got = []
        for i in range(len(record)):
            got.extend(decoder.feed(record[i : i + 1]))
        assert got == [(7, b"hello wire", 80)]

    def test_oversize_frame_rejected_before_buffering(self):
        from repro.core.errors import CorruptPayloadError
        from repro.link.wire import (
            STREAM_HEADER_BYTES,
            STREAM_RECORD_MAGIC,
            FrameDecoder,
        )

        huge_bits = (1 << 20) * 8
        header = bytes((STREAM_RECORD_MAGIC, 0)) + huge_bits.to_bytes(4, "big")
        decoder = FrameDecoder(max_frame_bytes=4096)
        with pytest.raises(CorruptPayloadError):
            decoder.feed(header)
        # The bound rejects at the header: nothing was hoarded.
        assert decoder.buffered <= STREAM_HEADER_BYTES

    def test_bad_magic_is_typed(self):
        from repro.core.errors import CorruptPayloadError
        from repro.link.wire import FrameDecoder

        with pytest.raises(CorruptPayloadError):
            FrameDecoder().feed(b"\x00\x01\x02\x03\x04\x05\x06")

    def test_close_with_partial_frame_is_typed(self):
        from repro.core.errors import TruncatedPayloadError
        from repro.link.wire import FrameDecoder, encode_stream_record

        record = encode_stream_record(3, b"abcdef", 48)
        decoder = FrameDecoder()
        assert decoder.feed(record[:-2]) == []
        with pytest.raises(TruncatedPayloadError):
            decoder.close()
