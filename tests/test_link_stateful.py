"""Hypothesis stateful test of the full CABLE link.

A random machine drives arbitrary interleavings of reads, writes, hot
re-reads and engine traffic through a live link pair. After *every*
step the harness relies on the built-in decode verification (a sync
bug raises immediately); at teardown the full invariant audit runs.
This is the strongest correctness statement in the suite: no reachable
sequence of coherence events can desynchronize the dictionaries.
"""

import random
import struct

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
import hypothesis.strategies as st

from repro.cache.hierarchy import InclusivePair
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.core.config import CableConfig
from repro.core.encoder import CableLinkPair
from repro.core.sync import audit

ADDRESSES = 160  # > remote capacity (64 lines) to force evictions


class CableLinkMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16), silent=st.booleans())
    def setup(self, seed, silent):
        rng = random.Random(seed)
        archetypes = [
            struct.pack(
                "<16I", *(rng.getrandbits(32) | 0x01000000 for _ in range(16))
            )
            for _ in range(4)
        ]
        store = {}

        def read(addr):
            if addr not in store:
                line = bytearray(archetypes[addr % 4])
                struct.pack_into("<I", line, 60, addr)
                store[addr] = bytes(line)
            return store[addr]

        home = SetAssociativeCache(CacheGeometry(16 * 1024, 8))
        remote = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
        pair = InclusivePair(home, remote, read, lambda a, d: store.__setitem__(a, d))
        self.link = CableLinkPair(
            CableConfig(), pair, silent_evictions=silent
        )
        self.store_read = read
        self.counter = 0

    @rule(addr=st.integers(0, ADDRESSES - 1))
    def read_line(self, addr):
        self.link.access(addr)

    @rule(addr=st.integers(0, ADDRESSES - 1), word=st.integers(0, 15))
    def write_line(self, addr, word):
        self.counter += 1
        data = bytearray(self.store_read(addr))
        struct.pack_into("<I", data, word * 4, self.counter)
        self.link.access(addr, is_write=True, write_data=bytes(data))

    @rule(addr=st.integers(0, 15))
    def hammer_hot_line(self, addr):
        """Repeated hits keep hot lines resident and exercise LRU."""
        for _ in range(3):
            self.link.access(addr)

    @rule(base=st.integers(0, ADDRESSES - 1))
    def sequential_burst(self, base):
        for offset in range(6):
            self.link.access((base + offset) % ADDRESSES)

    @invariant()
    def inclusive(self):
        assert self.link.pair.check_inclusive()

    def teardown(self):
        report = audit(self.link)
        assert report.ok, report.violations[:5]


TestCableLinkStateful = CableLinkMachine.TestCase
TestCableLinkStateful.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
