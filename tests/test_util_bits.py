"""Bit I/O: exact widths, MSB-first order, round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.bits import BitReader, BitWriter, bits_for


class TestBitsFor:
    @pytest.mark.parametrize(
        "count,expected",
        [(1, 0), (2, 1), (3, 2), (4, 2), (16, 4), (17, 5), (1 << 17, 17)],
    )
    def test_values(self, count, expected):
        assert bits_for(count) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bits_for(0)


class TestBitWriter:
    def test_empty(self):
        writer = BitWriter()
        assert writer.bit_count == 0
        assert writer.getvalue() == b""

    def test_msb_first_packing(self):
        writer = BitWriter()
        writer.write(0b1, 1)
        writer.write(0b0101, 4)
        # 10101 padded to 10101000
        assert writer.getvalue() == bytes([0b10101000])
        assert writer.bit_count == 5

    def test_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(4, 2)

    def test_negative_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(-1, 4)

    def test_zero_width_is_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.bit_count == 0

    def test_write_bytes(self):
        writer = BitWriter()
        writer.write_bytes(b"\xAB\xCD")
        assert writer.getvalue() == b"\xAB\xCD"


#: One field of a bit stream: ``("read", width, value)`` for an
#: integer field of 0-96 bits, ``("read_bytes", count, data)`` for a
#: byte string. The kind names the BitReader method that reads it back.
bit_field = st.one_of(
    st.integers(0, 96).flatmap(
        lambda width: st.tuples(
            st.just("read"), st.just(width), st.integers(0, (1 << width) - 1)
        )
    ),
    st.binary(max_size=12).map(lambda raw: ("read_bytes", len(raw), raw)),
)


class TestRoundTrip:
    def test_mixed_fields(self):
        fields = [(1, 1), (2, 2), (17, 5), (0xFFFF, 16), (0, 3), (300, 9)]
        writer = BitWriter()
        for value, width in fields:
            writer.write(value, width)
        reader = BitReader(writer.getvalue(), writer.bit_count)
        for value, width in fields:
            assert reader.read(width) == value
        assert reader.bits_remaining == 0

    def test_reader_eof(self):
        writer = BitWriter()
        writer.write(3, 2)
        reader = BitReader(writer.getvalue(), writer.bit_count)
        reader.read(2)
        with pytest.raises(EOFError):
            reader.read(1)

    def test_read_bytes(self):
        writer = BitWriter()
        writer.write_bytes(b"hello")
        reader = BitReader(writer.getvalue(), writer.bit_count)
        assert reader.read_bytes(5) == b"hello"

    @settings(max_examples=200, deadline=None)
    @given(fields=st.lists(bit_field, min_size=1, max_size=40), data=st.data())
    def test_roundtrip_property(self, fields, data):
        writer = BitWriter()
        for kind, width, value in fields:
            if kind == "read":
                writer.write(value, width)
            else:
                writer.write_bytes(value)
        stream = writer.getvalue()
        assert writer.bit_count == sum(
            width if kind == "read" else 8 * width for kind, width, __ in fields
        )
        reader = BitReader(stream, writer.bit_count)
        for kind, width, value in fields:
            assert getattr(reader, kind)(width) == value
        assert reader.bits_remaining == 0

        # Same reads against the bit-serial oracle, over a bit_count
        # shorter than the data and again after a seek.
        limit = data.draw(st.integers(0, writer.bit_count), label="bit_count")
        fast = BitReader(stream, limit)
        serial = SerialBitReader(stream, limit)
        assert_same_reads(fast, serial, fields)
        target = data.draw(st.integers(0, limit), label="seek")
        fast.seek(target)
        serial.seek(target)
        assert_same_reads(fast, serial, fields)
        for bad in (-1, limit + 1):
            with pytest.raises(ValueError):
                fast.seek(bad)
        with pytest.raises(ValueError):
            BitReader(stream, len(stream) * 8 + 1)


class SerialBitReader:
    """The original bit-serial reader, one loop step per bit: the
    oracle :class:`BitReader` must agree with."""

    def __init__(self, data, bit_count):
        self._data = data
        self._pos = 0
        self._limit = bit_count

    def read(self, width):
        if self._pos + width > self._limit:
            raise EOFError("bit stream exhausted")
        value = 0
        for pos in range(self._pos, self._pos + width):
            bit = (self._data[pos >> 3] >> (7 - (pos & 7))) & 1
            value = (value << 1) | bit
        self._pos += width
        return value

    def read_bytes(self, count):
        return bytes(self.read(8) for _ in range(count))

    def seek(self, bit_position):
        self._pos = bit_position

    @property
    def bits_remaining(self):
        return self._limit - self._pos


def assert_same_reads(fast, serial, fields):
    """Replay *fields* as reads on both readers until the first EOF
    (after which callers abandon a reader, so its position is moot)."""
    for kind, width, __ in fields:
        outcomes = []
        for reader in (fast, serial):
            try:
                outcomes.append(getattr(reader, kind)(width))
            except EOFError:
                outcomes.append(EOFError)
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is EOFError:
            return
        assert fast.bits_remaining == serial.bits_remaining
