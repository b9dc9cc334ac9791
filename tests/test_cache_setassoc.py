"""Set-associative cache: geometry, lookup/install/evict, LineIDs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.line import CoherenceState
from repro.cache.replacement import FifoPolicy, LruPolicy, RandomPolicy, make_policy
from repro.cache.setassoc import CacheGeometry, LineId, SetAssociativeCache


def line_data(tag: int) -> bytes:
    return tag.to_bytes(8, "little") * 8


class TestGeometry:
    def test_basic_derivations(self):
        geom = CacheGeometry(size_bytes=8 * 1024, ways=4, line_bytes=64)
        assert geom.sets == 32
        assert geom.index_bits == 5
        assert geom.way_bits == 2
        assert geom.lines == 128
        assert geom.lineid_bits == 7

    def test_paper_llc_geometry(self):
        """8MB 8-way 64B: 17-bit LineIDs (Table III)."""
        geom = CacheGeometry(8 * 1024 * 1024, 8)
        assert geom.lineid_bits == 17

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=3 * 64 * 4, ways=4)

    def test_fractional_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=1000, ways=4)

    def test_index_wraps(self):
        geom = CacheGeometry(8 * 1024, 4)
        cache = SetAssociativeCache(geom)
        assert cache.index_of(0) == cache.index_of(geom.sets) == 0
        assert cache.index_of(geom.sets + 3) == 3


class TestLineId:
    def test_pack_unpack(self):
        lid = LineId.pack(index=5, way=3, way_bits=2)
        assert lid.unpack(2) == (5, 3)

    def test_zero_way_bits(self):
        lid = LineId.pack(index=9, way=0, way_bits=0)
        assert lid.unpack(0) == (9, 0)

    @given(st.integers(0, 2**14 - 1), st.integers(0, 7))
    def test_pack_unpack_property(self, index, way):
        lid = LineId.pack(index, way, 3)
        assert lid.unpack(3) == (index, way)

    def test_is_hashable_int(self):
        lid = LineId.pack(1, 1, 2)
        assert {lid: "x"}[LineId.pack(1, 1, 2)] == "x"


class TestLookupInstall:
    @pytest.fixture
    def cache(self):
        return SetAssociativeCache(CacheGeometry(4 * 1024, 4))

    def test_miss_then_hit(self, cache):
        assert cache.lookup(100) is None
        cache.install(100, line_data(100))
        hit = cache.lookup(100)
        assert hit is not None
        assert hit[1].tag == 100

    def test_install_returns_way_and_victim(self, cache):
        way, victim = cache.install(100, line_data(100))
        assert victim is None
        assert 0 <= way < 4

    def test_same_set_fills_all_ways(self, cache):
        sets = cache.geometry.sets
        addrs = [i * sets for i in range(4)]  # all map to set 0
        for addr in addrs:
            cache.install(addr, line_data(addr))
        for addr in addrs:
            assert cache.contains(addr)
        # A fifth install displaces one.
        way, victim = cache.install(4 * sets, line_data(4 * sets))
        assert victim is not None
        assert victim.tag in addrs

    def test_wrong_size_data_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.install(1, b"\x00" * 32)

    def test_invalidate(self, cache):
        cache.install(7, line_data(7))
        line = cache.invalidate(7)
        assert line.tag == 7
        assert not cache.contains(7)
        assert cache.invalidate(7) is None

    def test_stats_counters(self, cache):
        cache.lookup(1)
        cache.install(1, line_data(1))
        cache.lookup(1)
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 1


class TestLruBehaviour:
    def test_lru_evicts_least_recent(self):
        cache = SetAssociativeCache(CacheGeometry(2 * 64 * 2, 2))  # 2 sets
        sets = cache.geometry.sets
        a, b, c = 0, sets, 2 * sets  # all set 0
        cache.install(a, line_data(a))
        cache.install(b, line_data(b))
        cache.lookup(a)  # touch a, so b is LRU
        __, victim = cache.install(c, line_data(c))
        assert victim.tag == b

    def test_explicit_way_install(self):
        cache = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
        way, __ = cache.install(3, line_data(3), way=2)
        assert way == 2
        assert cache.peek(cache.index_of(3), 2).tag == 3


class TestDataArrayAccess:
    def test_read_by_lineid_no_tag_check(self):
        cache = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
        way, __ = cache.install(42, line_data(42))
        lid = cache.lineid(cache.index_of(42), way)
        line = cache.read_by_lineid(lid)
        assert line.tag == 42
        assert cache.stats["data_reads"] == 1

    def test_read_out_of_range_returns_none(self):
        cache = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
        bogus = LineId.pack(10**6, 0, cache.geometry.way_bits)
        assert cache.read_by_lineid(bogus) is None

    def test_lineid_of_addr(self):
        cache = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
        assert cache.lineid_of_addr(9) is None
        cache.install(9, line_data(9))
        lid = cache.lineid_of_addr(9)
        assert cache.read_by_lineid(lid).tag == 9


class TestReplacementPolicies:
    def test_factory(self):
        assert make_policy("lru").name == "lru"
        assert make_policy("fifo").name == "fifo"
        assert make_policy("random").name == "random"
        with pytest.raises(ValueError):
            make_policy("plru")

    @pytest.mark.parametrize("policy_name", ["lru", "fifo", "random"])
    def test_policies_fill_invalid_ways_first(self, policy_name):
        cache = SetAssociativeCache(
            CacheGeometry(4 * 1024, 4), policy=make_policy(policy_name)
        )
        sets = cache.geometry.sets
        victims = []
        for i in range(4):
            __, victim = cache.install(i * sets, line_data(i * sets))
            victims.append(victim)
        assert victims == [None] * 4

    def test_fifo_round_robin(self):
        policy = FifoPolicy()
        ways = [object(), object()]
        assert policy.victim(0, ways) == 0
        assert policy.victim(0, ways) == 1
        assert policy.victim(0, ways) == 0

    def test_random_deterministic_by_seed(self):
        a = RandomPolicy(seed=3)
        b = RandomPolicy(seed=3)
        ways = [object()] * 8
        assert [a.victim(0, ways) for _ in range(20)] == [
            b.victim(0, ways) for _ in range(20)
        ]


class TestIteration:
    def test_iteration_and_occupancy(self):
        cache = SetAssociativeCache(CacheGeometry(4 * 1024, 4))
        for addr in range(10):
            cache.install(addr, line_data(addr))
        assert cache.occupancy() == 10
        assert sorted(cache.resident_addresses()) == list(range(10))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=200))
    def test_occupancy_bounded_property(self, addrs):
        cache = SetAssociativeCache(CacheGeometry(2 * 1024, 2))
        for addr in addrs:
            cache.install(addr, line_data(addr))
        assert cache.occupancy() <= cache.geometry.lines
        # Most recently installed address is always resident.
        assert cache.contains(addrs[-1])
