"""Multiprogram memory-link simulation (§VI-C, Figs 15 & 16).

N programs share one link, one LLC (N× the single-program share) and
one L4. Their access streams interleave with jitter
(:class:`~repro.trace.mixes.MultiprogramWorkload`), and compression is
accounted *per program* so each program's ratio can be normalized to
its single-program result — exactly the paper's methodology.

What the shared stream does to each scheme:

- gzip's window is a fixed stream resource; interleaving unrelated
  programs dilutes it (destructive mixes, Fig 16) while replicated
  copies of one program can help it a little (Fig 15).
- CABLE's dictionary is the shared cache itself: it scales with the
  LLC (which grew N×) and can even find cross-program similarity, so
  it holds or improves where gzip degrades.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cache.hierarchy import InclusivePair
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.core.config import CableConfig
from repro.link.channel import LinkModel
from repro.sim.leg import LinkCounts, LinkLeg, gzip_window
from repro.sim.memlink import PAPER_LLC_BYTES, scale_profile
from repro.trace.mixes import MultiprogramWorkload


@dataclass
class MultiprogramResult:
    benchmarks: Tuple[str, ...]
    scheme: str
    link: LinkModel
    #: One tally per program, in ``benchmarks`` order.
    slots: List[LinkCounts] = field(default_factory=list)

    @property
    def per_slot_ratio(self) -> List[float]:
        return [slot.effective_ratio for slot in self.slots]

    @property
    def overall_ratio(self) -> float:
        flits = sum(s.flits for s in self.slots)
        raw = sum(s.raw_flits for s in self.slots)
        return raw / flits if flits else 1.0


def run_multiprogram(
    benchmark_names: Sequence[str],
    scheme: str = "cable",
    preset=None,
    replicate: bool = False,
    seed: int = 0,
    cable: Optional[CableConfig] = None,
    verify: bool = True,
) -> MultiprogramResult:
    """Run N programs on one shared link.

    ``preset`` is an :class:`~repro.experiments.base.ScalePreset` (or
    None for the default); per-program accesses and the single-program
    cache share both come from it, so results are directly comparable
    with single-program runs at the same preset.
    """
    from repro.experiments.base import resolve_scale

    preset = resolve_scale(preset or "default")
    names = tuple(benchmark_names)
    n = len(names)
    link_model = LinkModel()

    workload = MultiprogramWorkload(names, seed=seed, replicate=replicate)
    # Scale each program's footprint like the single-program runs do.
    for model in workload.workloads:
        model.profile = scale_profile(model.profile, preset.ws_scale)

    llc = SetAssociativeCache(
        CacheGeometry(preset.llc_bytes * n, 8), name="llc-shared"
    )
    l4 = SetAssociativeCache(
        CacheGeometry(preset.l4_bytes * n, 16), name="l4-shared"
    )
    pair = InclusivePair(l4, llc, workload.backing.read, workload.backing.write)

    result = MultiprogramResult(benchmarks=names, scheme=scheme, link=link_model)
    result.slots = [LinkCounts() for _ in names]
    state = {"slot": 0, "counting": False}

    def record(transfer) -> None:
        # Each transfer is charged to the program whose access made it.
        if state["counting"]:
            result.slots[state["slot"]].add(link_model, transfer)

    # The leg stays attached to the pair. gzip's window keeps its
    # single-program size while the shared LLC grows N×.
    LinkLeg(
        scheme,
        pair,
        record,
        cable_config=cable,
        verify=verify,
        window_bytes=gzip_window(preset.llc_bytes, PAPER_LLC_BYTES),
    )

    per_program = preset.accesses
    warmup = int(per_program * n * preset.warmup_fraction)
    for i, tagged in enumerate(workload.interleaved(per_program)):
        if i == warmup:
            state["counting"] = True
        state["slot"] = tagged.slot
        pair.access(
            tagged.access.line_addr,
            is_write=tagged.access.is_write,
            write_data=tagged.access.write_data,
        )
    if not state["counting"]:
        raise RuntimeError("multiprogram run never left warm-up")
    return result
