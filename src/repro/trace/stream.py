"""Access-stream and memory-content generation.

A :class:`WorkloadModel` turns a :class:`BenchmarkProfile` into:

- a deterministic *initial memory image*: line content is a pure
  function of (seed, benchmark, address), so re-reading an address
  after eviction reproduces identical bytes;
- an *access stream* of (line address, read/write, write data)
  records with profile-shaped locality and reuse distances;
- a *logical memory view* that evolves under the stream's own writes.

The access stream interleaves sequential runs (probability
``locality`` of continuing at the next line) with power-law random
jumps (``reuse_skew`` concentrating re-use on a hot region), which is
what determines whether similar lines recur within gzip's 32KB stream
window or only within the LLC-sized dictionary CABLE sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.trace.patterns import (
    PATTERN_GENERATORS,
    family_member,
    mutate_line,
)
from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.util.rng import make_rng, stable_hash64

_U64 = float(1 << 64)


@dataclass(frozen=True)
class Access:
    """One memory access at cache-line granularity."""

    line_addr: int
    is_write: bool = False
    write_data: Optional[bytes] = None


class WorkloadModel:
    """Deterministic synthetic workload for one benchmark instance.

    ``addr_base`` offsets the whole footprint, letting multiprogram
    studies give each program a disjoint address space while sharing
    one backing store and cache hierarchy.
    """

    def __init__(
        self,
        profile_or_name,
        seed: int = 0,
        addr_base: int = 0,
        copy_id: int = 0,
    ) -> None:
        if isinstance(profile_or_name, str):
            profile_or_name = get_profile(profile_or_name)
        self.profile: BenchmarkProfile = profile_or_name
        self.seed = seed
        self.addr_base = addr_base
        #: Distinguishes replicated copies of the same program
        #: (SPECrate-style, Fig 15): same data-structure archetypes,
        #: different mutation streams.
        self.copy_id = copy_id
        self._archetypes: Dict[int, bytes] = {}
        self._written: Dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # Memory content
    # ------------------------------------------------------------------

    def _archetype(self, family: int) -> bytes:
        """Family archetypes depend only on (seed, benchmark, family) —
        NOT on copy_id — so replicated copies of a program share their
        data-structure layouts, the effect Fig 15 measures."""
        cached = self._archetypes.get(family)
        if cached is None:
            rng = make_rng(self.seed, self.profile.name, "archetype", family)
            generator = self._pick_pattern(rng.random())
            cached = generator(rng)
            self._archetypes[family] = cached
        return cached

    def _pick_pattern(self, point: float):
        weights = self.profile.pattern_weights
        total = sum(weights.values())
        acc = 0.0
        for name, weight in weights.items():
            acc += weight / total
            if point < acc:
                return PATTERN_GENERATORS[name]
        return PATTERN_GENERATORS[next(iter(weights))]

    def initial_content(self, line_addr: int) -> bytes:
        """The line's content before any write (pure function).

        Family membership is decided per *cluster* of
        ``profile.cluster_lines`` contiguous lines, so one family's
        members form several scattered runs of similar lines — arrays
        of like objects locally, duplicated structures globally."""
        offset = line_addr - self.addr_base
        cluster = offset // self.profile.cluster_lines
        h = stable_hash64(self.seed, self.profile.name, "cluster", cluster)
        if (h / _U64) < self.profile.family_weight:
            family = h % self.profile.family_count
            return family_member(
                self._archetype(family),
                stable_hash64(self.seed, self.profile.name, self.copy_id),
                offset,
                self.profile.mutation_words,
                self.profile.shift_prob,
            )
        rng = make_rng(self.seed, self.profile.name, self.copy_id, "pline", offset)
        return self._pick_pattern(rng.random())(rng)

    def current_content(self, line_addr: int) -> bytes:
        """The program's logical view (initial content + its writes)."""
        return self._written.get(line_addr, None) or self.initial_content(line_addr)

    def owns(self, line_addr: int) -> bool:
        offset = line_addr - self.addr_base
        return 0 <= offset < self.profile.working_set_lines

    # ------------------------------------------------------------------
    # Access stream
    # ------------------------------------------------------------------

    def accesses(self, count: int, stream_id: int = 0, phases: int = 1) -> Iterator[Access]:
        """Generate *count* accesses (deterministic per stream_id).

        ``phases`` splits the stream into SimPoint-style program
        phases (the paper simulates 10 per benchmark): each phase
        focuses its non-sequential reuse on a different, rotating
        window of the working set, so compression behaviour varies
        over time — the effect the methodology retrospective the paper
        cites [86] warns single-trace studies about. The default of 1
        keeps the stationary behaviour the calibrated profiles assume.
        """
        profile = self.profile
        rng = make_rng(self.seed, profile.name, self.copy_id, "stream", stream_id)
        ws = profile.working_set_lines
        pos = rng.randrange(ws)
        phases = max(1, phases)
        phase_length = max(1, count // phases)
        for index in range(count):
            phase = min(index // phase_length, phases - 1)
            if phases > 1:
                # Each phase's hot window covers half the footprint,
                # rotated per phase; sequential runs may leave it.
                window = ws // 2
                window_base = (phase * ws) // phases
            else:
                window = ws
                window_base = 0
            if rng.random() < profile.locality:
                pos = (pos + 1) % ws
            else:
                jump = int(window * (rng.random() ** profile.reuse_skew)) % window
                pos = (window_base + jump) % ws
            addr = self.addr_base + pos
            if rng.random() < profile.write_fraction:
                if rng.random() < 0.7:
                    # Object rewrite: fresh values laid out like the
                    # original — bounded drift from the family
                    # archetype, as when a program updates an object's
                    # fields in place.
                    new_data = mutate_line(
                        self.initial_content(addr),
                        rng,
                        rng.randint(0, max(1, profile.mutation_words)),
                    )
                else:
                    # Incremental field edit on the current value.
                    new_data = mutate_line(self.current_content(addr), rng, 1)
                self._written[addr] = new_data
                yield Access(addr, is_write=True, write_data=new_data)
            else:
                yield Access(addr, is_write=False)


class SharedBackingStore:
    """Backing memory shared by one or more workloads.

    Reads fall through to the owning workload's initial content until
    a write-back lands; the cache system's write-backs are the only
    writers (the workload's logical view evolves separately — data
    reaches the backing store only when fully evicted, as in real
    memory)."""

    def __init__(self, workloads) -> None:
        self.workloads = list(workloads)
        self._data: Dict[int, bytes] = {}
        self.stats = {"reads": 0, "writes": 0}

    def _owner(self, line_addr: int) -> WorkloadModel:
        for workload in self.workloads:
            if workload.owns(line_addr):
                return workload
        raise KeyError(f"no workload owns line address {line_addr:#x}")

    def read(self, line_addr: int) -> bytes:
        self.stats["reads"] += 1
        return self.peek(line_addr)

    def peek(self, line_addr: int) -> bytes:
        """:meth:`read` without the stats bump.

        For checks that must not perturb the backing-store accounting
        the benchmarks report, such as the capacity tier's write-back
        verify (:mod:`repro.tiers.capacity`)."""
        cached = self._data.get(line_addr)
        if cached is not None:
            return cached
        return self._owner(line_addr).initial_content(line_addr)

    def write(self, line_addr: int, data: bytes) -> None:
        self.stats["writes"] += 1
        self._data[line_addr] = data
