"""Cycle-level model of the search pipeline (§IV-D, "Search Latency").

The paper's hardware walk-through: per signature — hash it (1 cycle),
access the hash table (1), read the data array (4, eDRAM without tag
check), build the coverage vector (1), rank (1) — eight cycles of
latency per signature, pipelined. Throughput is limited by the hash
table's read ports: 2-way banking checks two signatures per cycle, so
16 signatures drain in 8 issue cycles and the last one completes at
cycle 16. A zero-heavy line with few signatures finishes in as little
as 8 cycles. This module reproduces that arithmetic for arbitrary
configurations and drives it with real extraction counts. Its
worst-case budget is the only source of CABLE's latency:
:data:`repro.sim.timing.COMPRESSION_LATENCIES` and Table IV read
:func:`end_to_end_cycles`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CableConfig
from repro.core.signature import SignatureExtractor

#: §IV-D stage latencies (cycles).
HASH_CYCLES = 1
TABLE_CYCLES = 1
DATA_ARRAY_CYCLES = 4
CBV_CYCLES = 1
RANK_CYCLES = 1


@dataclass(frozen=True)
class SearchPipelineModel:
    """Latency/occupancy model of the hardware search pipeline."""

    #: Concurrent signature checks per cycle (hash-table banks/ports).
    hash_banks: int = 2
    hash_cycles: int = HASH_CYCLES
    table_cycles: int = TABLE_CYCLES
    data_array_cycles: int = DATA_ARRAY_CYCLES
    cbv_cycles: int = CBV_CYCLES
    rank_cycles: int = RANK_CYCLES

    @property
    def per_signature_latency(self) -> int:
        """Cycles from issuing one signature to its ranked CBV —
        the paper's eight."""
        return (
            self.hash_cycles
            + self.table_cycles
            + self.data_array_cycles
            + self.cbv_cycles
            + self.rank_cycles
        )

    def search_cycles(self, signature_count: int) -> int:
        """Total latency to search *signature_count* signatures.

        Signatures issue ``hash_banks`` per cycle. The first bank-load
        is covered by the pipeline depth itself (8 cycles); every
        further bank-load adds an issue cycle — reproducing the
        paper's span exactly: ≤2 signatures finish in 8 cycles, all 16
        take 16/2 + 8 = 16. A line with no signatures still pays one
        drain pass."""
        if signature_count <= self.hash_banks:
            return self.per_signature_latency
        issue_cycles = -(-signature_count // self.hash_banks)
        return issue_cycles + self.per_signature_latency

    def worst_case_cycles(self, config: CableConfig) -> int:
        """The Table IV charge: every word yields a signature."""
        return self.search_cycles(config.max_signatures)

    def measured_cycles(self, extractor: SignatureExtractor, line: bytes) -> int:
        """Search latency for a concrete line's actual signatures."""
        return self.search_cycles(len(extractor.search_signatures(line)))


def end_to_end_cycles(
    config: CableConfig,
    pipeline: SearchPipelineModel = SearchPipelineModel(),
    compression_rate_bytes_per_cycle: int = 8,
) -> dict:
    """The §IV-D latency budget: search + dictionary build + DIFF
    coding on each side at 8B/cycle (CPACK-class engines).

    Returns the component budget; the paper's totals are 16 (search) +
    8 + 8 (compress) + 8 + 8 (decompress) = 48 cycles.
    """
    dictionary_cycles = config.line_bytes // compression_rate_bytes_per_cycle
    code_cycles = config.line_bytes // compression_rate_bytes_per_cycle
    search = pipeline.worst_case_cycles(config)
    return {
        "search": search,
        "compress": dictionary_cycles + code_cycles,
        "decompress": dictionary_cycles + code_cycles,
        "total": search + 2 * (dictionary_cycles + code_cycles),
    }
