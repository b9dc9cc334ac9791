"""Multi-chip coherence-link simulation (use case ② of Fig 1, Fig 13).

A cache-coherent NUMA system of N chips with round-robin page
interleaving: every page has a *home* node, and a thread on node 0
caches remote data through N−1 point-to-point links, each with its
own CABLE pipeline (one hash table pair + one WMT per link, §V-B).

Modelling choice (documented in DESIGN.md): node 0's LLC is
represented as per-home partitions — round-robin interleaving spreads
lines evenly across homes, so a 1/N partition per link approximates
the shared physical LLC while letting each link keep the
:class:`~repro.cache.hierarchy.InclusivePair` invariants exact.
Accesses to locally-homed pages (1/N of them) never cross a link and
are excluded, exactly as in the paper's per-link compression ratios.

Differences from the memory link that the paper calls out and that
emerge here: more dirty-line transfers (write-backs of modified data
to remote homes), quarter-sized hash tables, and full-sized WMTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.cache.hierarchy import InclusivePair, TransferEvent
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.core.config import CableConfig
from repro.core.encoder import CableLinkPair, TransferRecord
from repro.link.channel import LinkModel
from repro.sim.memlink import MemLinkResult, scale_profile
from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.trace.stream import SharedBackingStore, WorkloadModel

_MB = 1024 * 1024

#: Lines per page (4KB pages of 64B lines).
PAGE_LINES = 64


@dataclass(frozen=True)
class MultiChipConfig:
    """Parameters of one coherence-link simulation."""

    #: "cable" or any stream scheme from memlink.STREAM_SCHEMES / "raw".
    scheme: str = "cable"
    nodes: int = 4
    #: Per-node LLC; the requester's share per link is llc_bytes/nodes.
    llc_bytes: int = 1 * _MB
    llc_ways: int = 8
    #: Home-side capacity backing each link (home LLC + memory-side
    #: room); 4× the remote share keeps the same pressure ratio as the
    #: memory link.
    home_ratio: int = 4
    line_bytes: int = 64
    cable: CableConfig = field(
        default_factory=lambda: CableConfig(hash_table_scale=0.25)
    )
    link: LinkModel = field(default_factory=LinkModel)
    accesses: int = 20_000
    warmup_fraction: float = 0.25
    seed: int = 0
    verify: bool = True
    ws_scale: float = 1.0
    #: Coherence traffic carries more dirty lines (§VI-B); scale the
    #: profile's write fraction up, capped at 0.6.
    write_boost: float = 1.5

    def scaled(self, **kwargs) -> "MultiChipConfig":
        return replace(self, **kwargs)


class MultiChipSimulation:
    """One benchmark on an N-chip NUMA system, measuring all links."""

    def __init__(self, benchmark, config: MultiChipConfig) -> None:
        self.config = config
        profile = (
            benchmark
            if isinstance(benchmark, BenchmarkProfile)
            else get_profile(benchmark)
        )
        if config.ws_scale != 1.0:
            profile = scale_profile(profile, config.ws_scale)
        profile = replace(
            profile,
            write_fraction=min(0.6, profile.write_fraction * config.write_boost),
        )
        self.profile = profile
        self.workload = WorkloadModel(profile, seed=config.seed)
        self.backing = SharedBackingStore([self.workload])

        remote_share = config.llc_bytes // config.nodes
        home_bytes = remote_share * config.home_ratio
        self.links: List[Optional[CableLinkPair]] = []
        self.pairs: List[InclusivePair] = []
        self._codecs = []
        for node in range(1, config.nodes):
            remote = SetAssociativeCache(
                CacheGeometry(remote_share, config.llc_ways, config.line_bytes),
                name=f"llc0-part{node}",
            )
            home = SetAssociativeCache(
                CacheGeometry(home_bytes, config.llc_ways, config.line_bytes),
                name=f"home{node}",
            )
            pair = InclusivePair(home, remote, self.backing.read, self.backing.write)
            self.pairs.append(pair)
            if config.scheme == "cable":
                link = CableLinkPair(config.cable, pair, verify=config.verify)
                self.links.append(link)
            else:
                self.links.append(None)
        self.result = MemLinkResult(
            benchmark=profile.name,
            scheme=f"{config.scheme}-coherence",
            link=config.link,
        )

    def _home_of(self, line_addr: int) -> int:
        return (line_addr // PAGE_LINES) % self.config.nodes

    def run(self) -> MemLinkResult:
        config = self.config
        warmup = int(config.accesses * config.warmup_fraction)
        counting = [False]
        result = self.result

        def record(direction: str, data: bytes, payload_bits: int) -> None:
            if not counting[0]:
                return
            result.transfers += 1
            if direction == "writeback":
                result.writebacks += 1
            result.payload_bits += payload_bits
            result.raw_bits += len(data) * 8
            result.flits += config.link.flits_for(payload_bits)
            result.raw_flits += config.link.flits_for(len(data) * 8)
            result.per_transfer_bits.append(payload_bits)

        def listen(transfer: TransferRecord) -> None:
            record(transfer.direction, transfer.data, transfer.payload.size_bits)

        def hook_stream(pair: InclusivePair) -> None:
            from repro.sim.memlink import _StreamCodec

            if config.scheme == "raw":
                def observe(event: TransferEvent) -> None:
                    if event.kind in ("fill", "writeback"):
                        record(event.kind, event.data, len(event.data) * 8)
            else:
                # Scale gzip's stream window with the cache scale, as
                # the memory-link simulation does, to preserve the
                # window:cache dictionary-size ratio at reduced scale.
                window = None
                if config.scheme == "gzip":
                    cache_scale = config.llc_bytes / (4 * _MB)
                    if cache_scale < 1.0:
                        window = max(1024, int(32 * 1024 * cache_scale))
                fill_codec = _StreamCodec(config.scheme, config.verify, window)
                wb_codec = _StreamCodec(config.scheme, config.verify, window)

                def observe(event: TransferEvent) -> None:
                    if event.kind == "fill":
                        record("fill", event.data, fill_codec.transfer(event.data))
                    elif event.kind == "writeback":
                        record(
                            "writeback", event.data, wb_codec.transfer(event.data)
                        )

            pair.add_observer(observe)

        for pair, link in zip(self.pairs, self.links):
            if link is not None:
                link.listeners.append(listen)
            else:
                hook_stream(pair)

        base_stats = None
        for i, access in enumerate(self.workload.accesses(config.accesses)):
            if i == warmup:
                counting[0] = True
                base_stats = [dict(pair.stats) for pair in self.pairs]
            home = self._home_of(access.line_addr)
            if home == 0:
                continue  # locally homed; never crosses a link
            self.pairs[home - 1].access(
                access.line_addr,
                is_write=access.is_write,
                write_data=access.write_data,
            )
        if base_stats is None:
            counting[0] = True
            base_stats = [{k: 0 for k in pair.stats} for pair in self.pairs]
        for pair, base in zip(self.pairs, base_stats):
            result.llc_hits += pair.stats["remote_hits"] - base["remote_hits"]
            result.llc_misses += pair.stats["remote_misses"] - base["remote_misses"]
            result.l4_hits += pair.stats["home_hits"] - base["home_hits"]
            result.l4_misses += pair.stats["home_misses"] - base["home_misses"]
        result.accesses = result.llc_hits + result.llc_misses
        result.instructions = result.accesses / self.profile.llc_apki * 1000.0
        return result


def run_multichip(benchmark, config: Optional[MultiChipConfig] = None, **overrides) -> MemLinkResult:
    """Simulate one benchmark on the coherence links."""
    config = config or MultiChipConfig()
    if overrides:
        config = config.scaled(**overrides)
    return MultiChipSimulation(benchmark, config).run()
