"""Hot-path microbenchmarks for the kernels layer.

Unlike the ``bench_fig*`` files, which regenerate paper figures, this
file times the primitives the encode pipeline is built from — H3
hashing, signature extraction, reference search, and the end-to-end
``CableHomeEncoder.encode()`` loop — so regressions in the kernels
layer show up directly in lines/s rather than indirectly in a figure's
wall time.

The end-to-end benchmark drives encode with a *recurrent* working set:
a fixed population of resident lines re-encoded in varying order, which
is what a cache simulation actually does (the same resident lines cross
the link many times). The per-line memo caches are warm in steady
state, exactly as they are mid-simulation.

Results are printed and archived to ``benchmarks/output/hotpath.txt``
(plus ``.stats.json`` timing dumps) so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import random
import struct
from typing import List

import pytest
from conftest import OUTPUT_DIR, archive_benchmark_stats, archive_obs_snapshot

from repro.cache.line import CoherenceState
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.core.config import CableConfig
from repro.core.encoder import CableHomeEncoder
from repro.core.signature import SignatureExtractor
from repro.util import kernels

#: Collected "name: value unit" rows, written to hotpath.txt at the end.
_RESULTS: List[str] = []

_WORDS_PER_LINE = 16
_RESIDENT_LINES = 512
_STREAM_LINES = 2000


def _round_seconds(benchmark) -> float:
    """Median round time — robust against scheduler outliers, which
    on shared CI machines can stretch individual rounds several-fold
    and make mean-based rates unrepeatable."""
    stats = getattr(benchmark, "stats", None)
    inner = getattr(stats, "stats", stats)
    for field in ("median", "mean"):
        value = getattr(inner, field, getattr(stats, field, None))
        if value:
            return float(value)
    return 0.0


def _record(benchmark, name: str, per_round: int, unit: str) -> float:
    rate = per_round / _round_seconds(benchmark)
    _RESULTS.append(f"{name}: {rate:,.0f} {unit}")
    archive_benchmark_stats(benchmark, f"hotpath_{name}")
    archive_obs_snapshot(f"hotpath_{name}")
    return rate


def make_lines(count: int, seed: int = 7) -> List[bytes]:
    """A family of near-duplicate lines, like a real reference stream.

    Every line shares most words with a rotating base line, so searches
    find real candidates and the reference compressors do real work.
    """
    rng = random.Random(seed)
    base = [rng.getrandbits(32) | 0x01000000 for _ in range(_WORDS_PER_LINE)]
    lines = []
    for i in range(count):
        words = list(base)
        for _ in range(rng.randrange(0, 6)):
            words[rng.randrange(_WORDS_PER_LINE)] = rng.getrandbits(32)
        if i % 4 == 0:
            base = [
                rng.getrandbits(32) | 0x01000000 for _ in range(_WORDS_PER_LINE)
            ]
        lines.append(struct.pack(f"<{_WORDS_PER_LINE}I", *words))
    return lines


def _build_encoder() -> CableHomeEncoder:
    """A 64KB 8-way home cache fully wired up with a resident family."""
    geometry = CacheGeometry(64 * 1024, 8)
    home = SetAssociativeCache(geometry, name="l4")
    encoder = CableHomeEncoder(CableConfig(), home, geometry)
    for addr, data in enumerate(make_lines(_RESIDENT_LINES)):
        way, __ = home.install(addr * 64, data, state=CoherenceState.SHARED)
        lid = home.lineid(home.index_of(addr * 64), way)
        encoder.wmt.install(lid, lid)
        for sig in encoder.extractor.index_signatures(data):
            encoder.hash_table.insert(sig, lid)
    return encoder


@pytest.fixture(scope="module", autouse=True)
def _archive_results():
    yield
    if _RESULTS:
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / "hotpath.txt").write_text(
            "hot-path microbenchmarks (higher is better)\n"
            + "\n".join(_RESULTS)
            + "\n"
        )


def test_h3_hash(benchmark):
    """Table-driven H3 over a word stream (4 lookups + 3 XORs each)."""
    extractor = SignatureExtractor(CableConfig())
    rng = random.Random(3)
    words = [rng.getrandbits(32) for _ in range(1024)]
    hash_fn = extractor.hash

    def run():
        for word in words:
            hash_fn(word)

    benchmark(run)
    _record(benchmark, "h3_hash", len(words), "words/s")


def test_signature_extraction_cold(benchmark):
    """Uncached extraction: fresh per-line work, no memo hits."""
    lines = make_lines(256, seed=5)
    config = CableConfig()

    def setup():
        kernels.clear_caches()
        return (SignatureExtractor(config),), {}

    def run(extractor):
        for line in lines:
            extractor.search_signatures(line)

    benchmark.pedantic(run, setup=setup, rounds=20, iterations=1)
    _record(benchmark, "signature_extraction_cold", len(lines), "lines/s")


def test_signature_extraction_hot(benchmark):
    """Steady-state extraction: the per-line memo caches answer."""
    lines = make_lines(256, seed=5)
    extractor = SignatureExtractor(CableConfig())
    for line in lines:  # warm
        extractor.search_signatures(line)

    def run():
        for line in lines:
            extractor.search_signatures(line)

    benchmark(run)
    _record(benchmark, "signature_extraction_hot", len(lines), "lines/s")


def test_search_pipeline(benchmark):
    """Signature probe + CBV construction + greedy selection."""
    encoder = _build_encoder()
    search = encoder.pipeline.search
    lines = make_lines(256, seed=11)
    for line in lines:  # warm the memo caches: steady-state search
        search(line)

    def run():
        for line in lines:
            search(line)

    benchmark(run)
    _record(benchmark, "search_pipeline", len(lines), "searches/s")


def test_encode_recurrent(benchmark):
    """End-to-end encode over a recurrent working set (lines/s).

    This is the acceptance metric: the stream revisits a resident
    family the way a simulation re-encodes resident lines, so the
    steady state exercises search, both compressors, payload choice,
    and the memo caches together.
    """
    encoder = _build_encoder()
    stream = make_lines(_STREAM_LINES, seed=11)
    for data in stream[:200]:  # warm
        encoder.encode(0, data, None)

    def run():
        for data in stream:
            encoder.encode(0, data, None)

    benchmark(run)
    rate = _record(benchmark, "encode_recurrent", len(stream), "lines/s")
    assert rate > 0
