"""The signature hash table (§III-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.setassoc import LineId
from repro.core.hashtable import SignatureHashTable, _round_up_pow2


def lid(n: int) -> LineId:
    return LineId(n)


class TestSizing:
    def test_rounds_to_power_of_two(self):
        assert SignatureHashTable(entries=1000).entries == 1024
        assert SignatureHashTable(entries=1024).entries == 1024

    def test_pow2_helper(self):
        assert _round_up_pow2(1) == 1
        assert _round_up_pow2(5) == 8

    def test_sized_for_scales(self):
        full = SignatureHashTable.sized_for(4096, scale=1.0)
        eighth = SignatureHashTable.sized_for(4096, scale=1 / 8)
        assert full.entries == 4096
        assert eighth.entries == 512

    def test_extreme_downscale_still_works(self):
        tiny = SignatureHashTable.sized_for(4096, scale=1 / 2048)
        assert tiny.entries >= 1
        tiny.insert(123, lid(1))
        assert lid(1) in tiny.probe([123])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SignatureHashTable(entries=0)
        with pytest.raises(ValueError):
            SignatureHashTable(entries=4, bucket_entries=0)


class TestInsertLookup:
    def test_basic(self):
        table = SignatureHashTable(entries=64)
        table.insert(0xABCD, lid(7))
        assert lid(7) in table.probe([0xABCD])

    def test_missing_lookup_empty(self):
        table = SignatureHashTable(entries=64)
        assert table.probe([0x1234]) == {}

    def test_bucket_fifo_eviction(self):
        table = SignatureHashTable(entries=64, bucket_entries=2)
        sig = 0x5555
        table.insert(sig, lid(1))
        table.insert(sig, lid(2))
        table.insert(sig, lid(3))
        bucket = table.probe([sig])
        assert lid(1) not in bucket
        assert lid(2) in bucket and lid(3) in bucket
        assert table.stats["bucket_evictions"] == 1

    def test_reinsert_refreshes(self):
        table = SignatureHashTable(entries=64, bucket_entries=2)
        sig = 0x5555
        table.insert(sig, lid(1))
        table.insert(sig, lid(2))
        table.insert(sig, lid(1))  # refresh 1 — now 2 is oldest
        table.insert(sig, lid(3))
        bucket = table.probe([sig])
        assert lid(2) not in bucket
        assert lid(1) in bucket and lid(3) in bucket

    def test_deeper_buckets(self):
        table = SignatureHashTable(entries=64, bucket_entries=4)
        sig = 0x9999
        for i in range(4):
            table.insert(sig, lid(i))
        assert len(table.probe([sig])) == 4


class TestRemoval:
    def test_remove_present(self):
        table = SignatureHashTable(entries=64)
        table.insert(0xAAAA, lid(5))
        assert table.remove(0xAAAA, lid(5)) is True
        assert table.probe([0xAAAA]) == {}

    def test_remove_absent_counts_stale(self):
        table = SignatureHashTable(entries=64)
        assert table.remove(0xAAAA, lid(5)) is False
        assert table.stats["stale_removals"] == 1

    def test_remove_lineid_everywhere(self):
        table = SignatureHashTable(entries=64)
        for sig in (1, 2, 3):
            table.insert(sig * 7919, lid(9))
        removed = table.remove_lineid_everywhere(lid(9))
        assert removed >= 1
        assert table.occupancy() == 3 - removed

    def test_clear(self):
        table = SignatureHashTable(entries=64)
        table.insert(1, lid(1))
        table.clear()
        assert table.occupancy() == 0


class TestCollisions:
    def test_different_signatures_can_share_bucket(self):
        """Fig 7: collisions are possible and tolerated."""
        table = SignatureHashTable(entries=2, bucket_entries=2)
        table.insert(0x0001, lid(1))
        table.insert(0x10001, lid(2))  # may collide in a 2-entry table
        total = len(table.probe([0x0001])) + len(table.probe([0x10001]))
        assert total >= 2  # both present somewhere (possibly same bucket)

    def test_contains(self):
        table = SignatureHashTable(entries=64)
        table.insert(42, lid(1))
        assert 42 in table


class ReferenceTable:
    """The table's FIFO buckets with the per-signature lookup the
    search pipeline used to call once per signature."""

    def __init__(self, entries: int, bucket_entries: int) -> None:
        self.mask = _round_up_pow2(entries) - 1
        self.bucket_entries = bucket_entries
        self.buckets = {}
        self.lookups = 0
        self.hits = 0

    def slot(self, signature: int) -> int:
        return (signature ^ (signature >> 16)) & self.mask

    def insert(self, signature: int, lineid: LineId) -> None:
        bucket = self.buckets.setdefault(self.slot(signature), [])
        if lineid in bucket:
            bucket.remove(lineid)
        bucket.append(lineid)
        while len(bucket) > self.bucket_entries:
            bucket.pop(0)

    def remove(self, signature: int, lineid: LineId) -> None:
        bucket = self.buckets.get(self.slot(signature))
        if bucket and lineid in bucket:
            bucket.remove(lineid)

    def lookup(self, signature: int):
        self.lookups += 1
        bucket = self.buckets.get(self.slot(signature))
        if bucket:
            self.hits += 1
            return tuple(bucket)
        return ()


def reference_tally(table: ReferenceTable, signatures, exclude):
    """The pipeline's old probe loop: per-signature lookups, a count
    and a first-seen rank per LineID."""
    counts, order = {}, {}
    for signature in signatures:
        for candidate in table.lookup(signature):
            if exclude is not None and candidate == exclude:
                continue
            counts[candidate] = counts.get(candidate, 0) + 1
            order.setdefault(candidate, len(order))
    return counts, order


#: Few slots and LineIDs, so buckets collide, overflow and repeat.
probe_signatures = st.integers(min_value=0, max_value=(1 << 18) - 1)
probe_lids = st.integers(min_value=0, max_value=9).map(LineId)


class TestProbe:
    @given(
        entries=st.sampled_from((1, 2, 4, 16)),
        depth=st.integers(min_value=1, max_value=4),
        ops=st.lists(
            st.tuples(st.booleans(), probe_signatures, probe_lids), max_size=60
        ),
        signatures=st.lists(probe_signatures, max_size=20).flatmap(
            lambda extra: st.lists(st.sampled_from(extra or [0]), max_size=20).map(
                lambda repeats: extra + repeats
            )
        ),
        exclude=st.one_of(st.none(), probe_lids),
    )
    @settings(max_examples=200, deadline=None)
    def test_probe_matches_per_signature_tally(
        self, entries, depth, ops, signatures, exclude
    ):
        table = SignatureHashTable(entries, bucket_entries=depth)
        reference = ReferenceTable(entries, depth)
        for is_insert, signature, lineid in ops:
            if is_insert:
                table.insert(signature, lineid)
                reference.insert(signature, lineid)
            else:
                table.remove(signature, lineid)
                reference.remove(signature, lineid)
        counts = table.probe(signatures, exclude)
        expected, first_seen = reference_tally(reference, signatures, exclude)
        assert counts == expected
        assert list(counts) == list(expected)
        assert table.stats["lookups"] == reference.lookups
        assert table.stats["hits"] == reference.hits
        # The pipeline's pre-rank: stable, so ties keep first-probed order.
        assert sorted(counts, key=counts.__getitem__, reverse=True) == sorted(
            expected, key=lambda candidate: (-expected[candidate], first_seen[candidate])
        )
