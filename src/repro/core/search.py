"""The search pipeline (§III-C, Fig 8).

Given the requested line, in order:

1. extract all non-trivial search signatures (≤16 for a 64B line);
2. probe the hash table with each, collecting candidate LineIDs
   (≤32 with the default bucket depth of two);
3. *pre-rank*: count how often each LineID was returned — duplicated
   LineIDs mean several signatures agree and are prioritized — and
   keep the top ``data_access_count`` (six by default, swept in
   Fig 22);
4. read those candidates from the home data array (no tag check) and
   build a coverage bit vector (CBV) per candidate: bit *i* set when
   candidate word *i* equals requested word *i*;
5. greedily select up to three references maximizing combined CBV
   coverage.

Candidates must pass a referencability filter supplied by the encoder
(resident, clean/shared, and translatable to a RemoteLID via the WMT);
hash collisions show up here as candidates with empty CBVs and are
naturally dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.setassoc import LineId, SetAssociativeCache
from repro.core.config import CableConfig
from repro.core.hashtable import SignatureHashTable
from repro.core.signature import SignatureExtractor
from repro.obs.registry import METRICS
from repro.util.kernels import DATACLASS_SLOTS, line_match_mask, match_mask, popcount32


@dataclass(**DATACLASS_SLOTS)
class Reference:
    """A selected reference line."""

    home_lid: LineId
    remote_lid: LineId
    data: bytes
    cbv: int
    line_addr: int = -1


@dataclass(**DATACLASS_SLOTS)
class SearchResult:
    """Outcome of one search."""

    references: List[Reference] = field(default_factory=list)
    signatures_used: int = 0
    candidates_probed: int = 0
    data_reads: int = 0
    combined_cbv: int = 0

    @property
    def coverage(self) -> int:
        return popcount32(self.combined_cbv)


def coverage_bit_vector(requested: Sequence[int], candidate: Sequence[int]) -> int:
    """CBV: bit *i* set when the i-th 32-bit words match exactly."""
    return match_mask(requested, candidate)


def greedy_select(
    cbvs: List[Tuple[int, int]], max_references: int
) -> Tuple[List[int], int]:
    """Greedy max-coverage selection over (candidate_idx, cbv) pairs.

    Repeatedly picks the candidate adding the most uncovered words.
    This reaches the same selections as the paper's swap example in
    §III-C (1100+0011 over 1100+0110) because a candidate that would
    later be swapped out never offers the best marginal gain.
    Returns (selected candidate indices, combined CBV).
    """
    selected: List[int] = []
    combined = 0
    remaining = list(cbvs)
    while remaining and len(selected) < max_references:
        best_pos = -1
        best_gain = 0
        for pos, (__, cbv) in enumerate(remaining):
            gain = popcount32(cbv & ~combined)
            if gain > best_gain:
                best_gain = gain
                best_pos = pos
        if best_pos < 0:
            break
        idx, cbv = remaining.pop(best_pos)
        selected.append(idx)
        combined |= cbv
    return selected, combined


def top_select(
    cbvs: List[Tuple[int, int]], max_references: int
) -> Tuple[List[int], int]:
    """Naive selection: the highest individual coverages, overlap
    ignored. The ablation baseline for the paper's greedy ranking —
    three near-identical references waste two pointers here."""
    ranked = sorted(cbvs, key=lambda item: -popcount32(item[1]))
    selected = [idx for idx, __ in ranked[:max_references]]
    combined = 0
    for idx, cbv in ranked[:max_references]:
        combined |= cbv
    return selected, combined


class SearchPipeline:
    """Wires extraction, the hash table and ranking together."""

    def __init__(
        self,
        config: CableConfig,
        extractor: SignatureExtractor,
        hash_table: SignatureHashTable,
        home_cache: SetAssociativeCache,
        referencable: Callable[[LineId], Optional[LineId]],
    ) -> None:
        """``referencable(home_lid)`` must return the RemoteLID when the
        home line may seed decompression (clean, shared, resident in the
        remote cache per the WMT), else None."""
        self.config = config
        self.extractor = extractor
        self.hash_table = hash_table
        self.home_cache = home_cache
        self.referencable = referencable
        # Pre-bound instruments: the hot path records with inline
        # perf_counter_ns pairs, never the context-manager tracer.
        self._obs = METRICS
        self._stage_extract = METRICS.stage("search.extract")
        self._stage_probe = METRICS.stage("search.probe")
        self._stage_prerank = METRICS.stage("search.prerank")
        self._stage_cbv = METRICS.stage("search.cbv")
        self._stage_select = METRICS.stage("search.select")
        self._ctr_searches = METRICS.counter("search.searches")
        self._ctr_signature_hits = METRICS.counter("search.signature_hits")
        self._ctr_candidates = METRICS.counter("search.candidates")
        self._ctr_data_reads = METRICS.counter("search.data_reads")
        self._ctr_references = METRICS.counter("search.references")
        self._ctr_covered_words = METRICS.counter("search.covered_words")

    def search(self, line: bytes, exclude: Optional[LineId] = None) -> SearchResult:
        """Find up to ``max_references`` references for *line*.

        ``exclude`` removes the requested line's own LineID from the
        candidate set — a line must not reference itself.
        """
        result = SearchResult()
        enabled = self._obs.enabled
        if enabled:
            t0 = perf_counter_ns()
        signatures = self.extractor.search_signatures(line)[
            : self.config.max_signatures
        ]
        result.signatures_used = len(signatures)
        if enabled:
            t1 = perf_counter_ns()
            self._stage_extract.observe(t1 - t0)
            self._ctr_searches.inc()
        if not signatures:
            return result

        # Probe + pre-rank by duplication count (step ③ of Fig 8).
        counts: Dict[LineId, int] = {}
        order: Dict[LineId, int] = {}
        for signature in signatures:
            for lid in self.hash_table.lookup(signature):
                if exclude is not None and lid == exclude:
                    continue
                counts[lid] = counts.get(lid, 0) + 1
                order.setdefault(lid, len(order))
        result.candidates_probed = len(counts)
        if enabled:
            t2 = perf_counter_ns()
            self._stage_probe.observe(t2 - t1)
        top = sorted(counts, key=lambda lid: (-counts[lid], order[lid]))
        top = top[: self.config.data_access_count]
        if enabled:
            t3 = perf_counter_ns()
            self._stage_prerank.observe(t3 - t2)
            self._ctr_signature_hits.inc(sum(counts.values()))
            self._ctr_candidates.inc(len(counts))

        # Data-array reads + CBV construction (step ④).
        candidates: List[Tuple[LineId, LineId, bytes, int, int]] = []
        for lid in top:
            cached = self.home_cache.read_by_lineid(lid)
            result.data_reads += 1
            if cached is None or not cached.usable_as_reference:
                continue
            remote_lid = self.referencable(lid)
            if remote_lid is None:
                continue
            cbv = line_match_mask(line, cached.data)
            if cbv == 0:
                continue  # hash collision / dissimilar line (Fig 7)
            candidates.append((lid, remote_lid, cached.data, cbv, cached.tag))
        if enabled:
            t4 = perf_counter_ns()
            self._stage_cbv.observe(t4 - t3)

        # CBV ranking (step ⑤) — greedy by default, naive for ablation.
        select = greedy_select if self.config.ranking_policy == "greedy" else top_select
        picks, combined = select(
            [(i, cbv) for i, (__, __, __, cbv, __) in enumerate(candidates)],
            self.config.max_references,
        )
        result.combined_cbv = combined
        if enabled:
            self._stage_select.observe(perf_counter_ns() - t4)
            self._ctr_data_reads.inc(result.data_reads)
            self._ctr_references.inc(len(picks))
            self._ctr_covered_words.inc(popcount32(combined))
        for i in picks:
            home_lid, remote_lid, data, cbv, addr = candidates[i]
            result.references.append(
                Reference(
                    home_lid=home_lid,
                    remote_lid=remote_lid,
                    data=data,
                    cbv=cbv,
                    line_addr=addr,
                )
            )
        return result
