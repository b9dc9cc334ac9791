"""Wire-exact integration: live CABLE traffic through real bits.

Listens on the link pair's transfers so that *every* payload produced
during a simulation is flattened to its exact wire bits, parsed back
with nothing but the bits + negotiated format, and decompressed from
the receiver's cache — proving the full production path, not just the
token-level shortcut the simulator uses for speed.
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import InclusivePair
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.compression import ReferenceCompressor, make_engine
from repro.core.config import CableConfig
from repro.core.encoder import CableLinkPair
from repro.core.payload import PayloadKind
from repro.link.wire import WireFormat, decode_payload, encode_payload
from repro.util.words import words_to_bytes


def build_link(engine="lbe", seed=0):
    rng = random.Random(seed)
    archetypes = [
        struct.pack("<16I", *(rng.getrandbits(32) | 0x01000000 for _ in range(16)))
        for _ in range(5)
    ]
    store = {}

    def read(addr):
        if addr not in store:
            line = bytearray(archetypes[addr % 5])
            struct.pack_into("<I", line, 60, addr)
            store[addr] = bytes(line)
        return store[addr]

    home = SetAssociativeCache(CacheGeometry(16 * 1024, 8))
    remote = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
    pair = InclusivePair(home, remote, read, lambda a, d: store.__setitem__(a, d))
    return CableLinkPair(CableConfig(engine=engine), pair)


@pytest.mark.parametrize("engine_name", ["lbe", "cpack"])
def test_live_fills_roundtrip_through_bits(engine_name):
    link = build_link(engine_name)
    fmt = WireFormat()
    decoder = make_engine(engine_name)
    checked = {"n": 0}

    def wire_check(record):
        if record.direction != "fill":
            return
        payload = record.payload
        # ORACLE hybrid aside, the block algorithm matches the engine.
        writer = encode_payload(payload, fmt)
        decoded = decode_payload(
            writer.getvalue(), writer.bit_count, engine_name, fmt
        )
        if decoded.kind is PayloadKind.UNCOMPRESSED:
            out = decoded.raw
        else:
            references = []
            for lid in decoded.remote_lids:
                line = link.pair.remote.read_by_lineid(lid)
                assert line is not None
                references.append(line.data)
            out = decoder.decompress_with_references(decoded.block, references)
        assert out == record.data
        checked["n"] += 1

    link.listeners.append(wire_check)
    rng = random.Random(1)
    for i in range(1200):
        addr = rng.randrange(300)
        if rng.random() < 0.2:
            data = bytearray(link.pair.backing_read(addr))
            struct.pack_into("<I", data, 0, i)
            link.access(addr, is_write=True, write_data=bytes(data))
        else:
            link.access(addr)
    assert checked["n"] > 300


REFERENCE_ENGINES = ["lbe", "cpack", "gzip", "oracle"]

line_words = st.lists(
    st.one_of(st.just(0), st.integers(0, 255), st.integers(0, 2**32 - 1)),
    min_size=16,
    max_size=16,
)


@pytest.mark.parametrize("engine_name", REFERENCE_ENGINES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reference_seeded_roundtrip_property(engine_name, data):
    """For arbitrary lines and references, every reference engine
    reconstructs exactly — the core compression contract under fuzz."""
    engine = make_engine(engine_name)
    assert isinstance(engine, ReferenceCompressor)
    refcount = data.draw(st.integers(0, 3))
    refs = [words_to_bytes(data.draw(line_words)) for _ in range(refcount)]
    if refs and data.draw(st.booleans()):
        # Bias: make the line a mutated copy of a reference.
        base = bytearray(refs[0])
        for _ in range(data.draw(st.integers(0, 3))):
            pos = data.draw(st.integers(0, 63))
            base[pos] = data.draw(st.integers(0, 255))
        line = bytes(base)
    else:
        line = words_to_bytes(data.draw(line_words))
    block = engine.compress_with_references(line, refs)
    assert engine.decompress_with_references(block, refs) == line
