"""Property suite for the memory-tier subsystem (ISSUE 10 satellite).

Two guarantees the tier models stake their numbers on:

1. **Capacity-mode packing never silently drops or duplicates a
   line.** A hypothesis-driven random op sequence (install / in-place
   write / lookup, compressible and incompressible fills, slot
   overflow and the fallback path) runs against a reference model:
   every resident line must read back the last bytes written, every
   line that left the cache must have surfaced through the writeback
   callback carrying those same bytes, and ``audit()`` must hold after
   every batch.

2. **Tier payloads are byte-identical across kernel legs.** The wire
   bits each tier ships are hashed and compared against pinned
   digests. The same constants are asserted by the numpy CI leg and
   the ``REPRO_PURE_PYTHON=1`` leg, so a kernel fallback that encodes
   even one payload differently fails one leg or the other.
"""

import hashlib
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.link.wire import encode_payload
from repro.tiers import (
    CapacityCache,
    CapacityTierConfig,
    CapacityTierSimulation,
    CxlTierConfig,
    CxlTierSimulation,
    run_capacity_tier,
)

_K = 1024

# ----------------------------------------------------------------------
# 1. Capacity-mode packing: no silent drops, no duplicates
# ----------------------------------------------------------------------

# One set, four ways, four tags per slot: a dozen hot addresses are
# enough to keep both the segment and the tag budget under pressure.
PACK_CONFIG = CapacityTierConfig(cache_bytes=256, ways=4, tags_per_slot=4)

ZERO = b"\x00" * 64
RUN = bytes(range(8)) * 8
NARROW = (1234).to_bytes(8, "little") * 8
INCOMPRESSIBLE = hashlib.sha256(b"cable-tiers").digest() * 2

line_data = st.one_of(
    st.sampled_from([ZERO, RUN, NARROW, INCOMPRESSIBLE]),
    st.binary(min_size=64, max_size=64),
)
op = st.tuples(
    st.integers(min_value=0, max_value=11),  # line address
    line_data,
    st.sampled_from(["install", "write", "lookup"]),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(op, max_size=80))
def test_capacity_cache_never_drops_or_duplicates(ops):
    evicted = {}
    cache = CapacityCache(
        PACK_CONFIG, writeback=lambda addr, line: evicted.__setitem__(addr, line.data)
    )
    model = {}  # addr -> last bytes written, whether resident or not
    for addr, data, kind in ops:
        resident = addr in cache.resident_addresses()
        if kind == "install" and not resident:
            cache.install(addr, data, dirty=True)
            model[addr] = data
        elif kind == "write" and resident:
            assert cache.write(addr, data) is not None
            model[addr] = data
        elif kind == "lookup" and resident:
            assert cache.lookup(addr) == model[addr]
    cache.audit()
    stored = cache.resident_addresses()
    assert len(stored) == len(set(stored)), "address stored twice"
    for addr, data in model.items():
        if addr in stored:
            assert cache.lookup(addr) == data, "resident line corrupted"
        else:
            # Installed dirty, so leaving the cache without passing
            # through the writeback callback would be a silent drop.
            assert evicted.get(addr) == data, "line evicted without writeback"
    assert cache.stats["verify_failures"] == 0


def test_fallback_keeps_grown_line():
    """Slot overflow on write keeps the grown line, evicts others."""
    cache = CapacityCache(PACK_CONFIG)
    # Three full-line raw images (24 of 32 segments) + two one-segment
    # zero lines: 26 segments used, no room for a fourth raw line.
    for addr in range(3):
        noise = hashlib.sha256(addr.to_bytes(2, "little")).digest() * 2
        assert cache.install(addr, noise).compressed is False
    cache.install(3, ZERO)
    cache.install(4, ZERO)
    assert cache.stats["fallbacks"] == 0
    # Growing a zero line to a full raw line needs 26 - 1 + 8 = 33
    # segments: past the budget, so the write takes the fallback path.
    cache.write(3, INCOMPRESSIBLE)
    assert cache.stats["fallbacks"] == 1
    assert cache.stats["evictions"] >= 1
    assert cache.lookup(3) == INCOMPRESSIBLE
    cache.audit()


# ----------------------------------------------------------------------
# 2. Kernel-leg identity: pinned payload digests
# ----------------------------------------------------------------------

# sha256 over every wire payload the small CXL run ships (exact bits
# via encode_payload) and over the capacity run's final stored images.
# Recorded on the numpy leg and reproduced by REPRO_PURE_PYTHON=1; a
# kernel divergence moves at least one payload and breaks a constant.
CXL_PAYLOAD_DIGEST = "0b8585ec97b9d555c7ace91c01fedd66b99f7f2cdf59b8a86d39ba2b0be5d301"
CAPACITY_IMAGE_DIGEST = "c160c6cbdb73ba0444caf1c3e62698c712245b1fdbf1f2111d7b2e1ceed1ba9b"

DIGEST_ACCESSES = 400


def cxl_payload_digest() -> str:
    config = CxlTierConfig(
        llc_bytes=16 * _K,
        buffer_bytes=64 * _K,
        accesses=DIGEST_ACCESSES,
        ws_scale=16 * _K / (1024 * 1024),
    )
    sim = CxlTierSimulation("gcc", config)
    digest = hashlib.sha256()

    def hash_transfer(record):
        digest.update(str(record.direction).encode())
        digest.update(encode_payload(record.payload).getvalue())

    sim.leg.cable.listeners.append(hash_transfer)
    result = sim.run()
    digest.update(str(result.payload_bits).encode())
    return digest.hexdigest()


def capacity_image_digest() -> str:
    config = CapacityTierConfig(
        cache_bytes=16 * _K,
        accesses=DIGEST_ACCESSES,
        ws_scale=16 * _K / (1024 * 1024),
    )
    sim = CapacityTierSimulation("gcc", config)
    result = sim.run()
    digest = hashlib.sha256()
    for entries in sim.cache._sets:
        for addr, line in entries.items():
            digest.update(str((addr, line.image_bits, line.segments)).encode())
            digest.update(line.data)
    digest.update(str((result.payload_bits, result.transfers)).encode())
    return digest.hexdigest()


def test_cxl_payload_digest_pinned():
    assert cxl_payload_digest() == CXL_PAYLOAD_DIGEST


def test_capacity_image_digest_pinned():
    assert capacity_image_digest() == CAPACITY_IMAGE_DIGEST


@pytest.mark.skipif(
    os.environ.get("REPRO_PURE_PYTHON") == "1",
    reason="already on the pure-python leg; in-process tests cover it",
)
def test_digests_match_pure_python_leg():
    """Cross-check in one run: spawn the pure-python leg and compare."""
    script = (
        "import sys; sys.path.insert(0, 'tests'); "
        "import test_tiers_properties as t; "
        "print(t.cxl_payload_digest()); print(t.capacity_image_digest())"
    )
    env = dict(os.environ, REPRO_PURE_PYTHON="1", PYTHONPATH="src")
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    pure_cxl, pure_capacity = out.stdout.split()
    assert pure_cxl == CXL_PAYLOAD_DIGEST
    assert pure_capacity == CAPACITY_IMAGE_DIGEST


# ----------------------------------------------------------------------
# Determinism of the digest surface itself
# ----------------------------------------------------------------------


def test_capacity_result_independent_of_op_order_noise():
    """Same config + seed -> identical shipped bits, twice."""
    first = run_capacity_tier("gcc", cache_bytes=16 * _K, accesses=DIGEST_ACCESSES)
    second = run_capacity_tier("gcc", cache_bytes=16 * _K, accesses=DIGEST_ACCESSES)
    assert first.payload_bits == second.payload_bits
    assert first.extras == second.extras
