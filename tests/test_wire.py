"""Bit-exact wire codec: encode to real bits, parse back, decompress."""

import random

import pytest

from repro.cache.setassoc import LineId
from repro.compression.registry import make_engine
from repro.core.payload import Payload, PayloadKind, choose_payload
from repro.link.wire import (
    DecodedPayload,
    WireFormat,
    decode_payload,
    encode_payload,
)
from repro.util.words import words_to_bytes

FMT = WireFormat()


def roundtrip(payload: Payload, engine_name: str) -> DecodedPayload:
    writer = encode_payload(payload, FMT, engine_name)
    return decode_payload(writer.getvalue(), writer.bit_count, engine_name, FMT)


def make_sparse_line(rng):
    return words_to_bytes(
        [
            0 if rng.random() < 0.5 else (
                rng.randrange(256) if rng.random() < 0.5 else rng.getrandbits(32)
            )
            for _ in range(16)
        ]
    )


class TestUncompressedPayload:
    def test_roundtrip(self):
        line = bytes(range(64))
        payload = Payload(
            kind=PayloadKind.UNCOMPRESSED, line_addr=0, line_bytes=64, raw=line
        )
        decoded = roundtrip(payload, "lbe")
        assert decoded.kind is PayloadKind.UNCOMPRESSED
        assert decoded.raw == line


@pytest.mark.parametrize("engine_name", ["lbe", "cpack", "zero", "bdi", "gzip", "oracle"])
class TestNoReferencePayloads:
    def test_line_recovered_from_bits_alone(self, engine_name):
        rng = random.Random(3)
        engine = make_engine(engine_name)
        decoder = make_engine(engine_name)
        for i in range(30):
            line = make_sparse_line(rng)
            if engine_name in ("lbe", "cpack", "gzip", "oracle"):
                block = engine.compress_with_references(line, ())
            else:
                block = engine.compress(line)
            payload = Payload(
                kind=PayloadKind.NO_REFERENCE,
                line_addr=0,
                line_bytes=64,
                block=block,
            )
            decoded = roundtrip(payload, engine_name)
            assert decoded.kind is PayloadKind.NO_REFERENCE
            if engine_name in ("lbe", "cpack", "gzip", "oracle"):
                out = decoder.decompress_with_references(decoded.block, ())
            else:
                decoder.reset()
                out = decoder.decompress(decoded.block)
            assert out == line, f"iteration {i}"


@pytest.mark.parametrize("engine_name", ["lbe", "cpack", "gzip", "oracle"])
class TestReferencePayloads:
    def test_reference_payload_roundtrip(self, engine_name):
        rng = random.Random(4)
        engine = make_engine(engine_name)
        decoder = make_engine(engine_name)
        for refcount in (1, 2, 3):
            refs = [make_sparse_line(rng) for _ in range(refcount)]
            line = bytearray(refs[0])
            line[12:16] = b"\xAB\xCD\xEF\x01"
            line = bytes(line)
            block = engine.compress_with_references(line, refs)
            payload = Payload(
                kind=PayloadKind.WITH_REFERENCES,
                line_addr=0,
                line_bytes=64,
                block=block,
                remote_lids=tuple(LineId(100 + i) for i in range(refcount)),
            )
            decoded = roundtrip(payload, engine_name)
            assert decoded.kind is PayloadKind.WITH_REFERENCES
            assert decoded.remote_lids == payload.remote_lids
            out = decoder.decompress_with_references(decoded.block, refs)
            assert out == line


class TestWidthDerivations:
    def test_lbe_offsets_grow_with_refcount(self):
        assert FMT.lbe_offset_bits(0) == 5
        assert FMT.lbe_offset_bits(1) == 5
        assert FMT.lbe_offset_bits(3) == 6

    def test_cpack_index_bits(self):
        assert FMT.cpack_index_bits(0) == 4
        assert FMT.cpack_index_bits(3) == 6

    def test_stream_window_format(self):
        stream_fmt = WireFormat(lbe_window_bytes=256)
        assert stream_fmt.lbe_offset_bits(0) == 7


class TestWireSizeMatchesAccounting:
    """The on-wire bit count must equal the engine's size_bits plus
    the header, for every accounting-exact engine (gzip's accounting
    is entropy-approximate by design and excluded)."""

    @pytest.mark.parametrize("engine_name", ["lbe", "cpack", "zero", "bdi"])
    def test_exact(self, engine_name):
        rng = random.Random(5)
        engine = make_engine(engine_name)
        for _ in range(20):
            line = make_sparse_line(rng)
            if engine_name in ("lbe", "cpack"):
                block = engine.compress_with_references(line, ())
            else:
                block = engine.compress(line)
            payload = Payload(
                kind=PayloadKind.NO_REFERENCE,
                line_addr=0,
                line_bytes=64,
                block=block,
            )
            writer = encode_payload(payload, FMT)
            assert writer.bit_count == payload.size_bits


class TestFullCableWirePath:
    def test_end_to_end_over_bits(self):
        """The complete fill path through real bits: encode at home,
        transmit bits, parse + decompress at remote."""
        rng = random.Random(6)
        engine = make_engine("lbe")
        decoder = make_engine("lbe")
        refs = [make_sparse_line(rng) for _ in range(2)]
        for _ in range(25):
            line = bytearray(refs[rng.randrange(2)])
            line[rng.randrange(60)] ^= 0x5A
            line = bytes(line)
            with_block = engine.compress_with_references(line, refs)
            no_ref = engine.compress_with_references(line, ())
            payload = choose_payload(
                0,
                line,
                (with_block, (LineId(7), LineId(9)), (1, 2)),
                no_ref,
                16.0,
                17,
            )
            writer = encode_payload(payload, FMT)
            decoded = decode_payload(
                writer.getvalue(), writer.bit_count, "lbe", FMT
            )
            if decoded.kind is PayloadKind.UNCOMPRESSED:
                out = decoded.raw
            elif decoded.kind is PayloadKind.WITH_REFERENCES:
                out = decoder.decompress_with_references(decoded.block, refs)
            else:
                out = decoder.decompress_with_references(decoded.block, ())
            assert out == line
