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

from repro.cache.hierarchy import InclusivePair
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.core.config import CableConfig
from repro.link.channel import LinkModel
from repro.sim.leg import LinkLeg, gzip_window
from repro.sim.memlink import MemLinkResult, resolve_profile
from repro.trace.stream import SharedBackingStore, WorkloadModel

_MB = 1024 * 1024

#: Lines per page (4KB pages of 64B lines).
PAGE_LINES = 64

#: The per-node LLC gzip's 32KB window is set for: Fig 13 gives each
#: node four times the paper's 1MB per-thread LLC.
PAPER_NODE_LLC_BYTES = 4 * _MB


@dataclass(frozen=True)
class MultiChipConfig:
    """Parameters of one coherence-link simulation."""

    #: Any of :data:`repro.sim.leg.LINK_SCHEMES`.
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
        profile = resolve_profile(benchmark, config.ws_scale)
        profile = replace(
            profile,
            write_fraction=min(0.6, profile.write_fraction * config.write_boost),
        )
        self.profile = profile
        self.workload = WorkloadModel(profile, seed=config.seed)
        self.backing = SharedBackingStore([self.workload])
        self.result = MemLinkResult(
            benchmark=profile.name,
            scheme=f"{config.scheme}-coherence",
            link=config.link,
        )
        self._counting = False

        remote_share = config.llc_bytes // config.nodes
        home_bytes = remote_share * config.home_ratio
        window = gzip_window(config.llc_bytes, PAPER_NODE_LLC_BYTES)
        self.pairs: List[InclusivePair] = []
        self.legs: List[LinkLeg] = []
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
            self.legs.append(
                LinkLeg(
                    config.scheme,
                    pair,
                    self._record,
                    cable_config=config.cable,
                    verify=config.verify,
                    window_bytes=window,
                )
            )

    def _home_of(self, line_addr: int) -> int:
        return (line_addr // PAGE_LINES) % self.config.nodes

    def _record(self, record) -> None:
        if self._counting:
            self.result.add(self.config.link, record)
            self.result.per_transfer_bits.append(record.size_bits)

    def run(self) -> MemLinkResult:
        config = self.config
        warmup = int(config.accesses * config.warmup_fraction)
        result = self.result
        base_stats = None
        for i, access in enumerate(self.workload.accesses(config.accesses)):
            if i == warmup:
                self._counting = True
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
            self._counting = True
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
