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

from repro.cache.hierarchy import InclusivePair, TransferEvent
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.core.config import CableConfig
from repro.core.encoder import CableLinkPair
from repro.link.channel import LinkModel
from repro.sim.memlink import _StreamCodec, scale_profile
from repro.trace.mixes import MultiprogramWorkload


@dataclass
class SlotAccounting:
    benchmark: str
    transfers: int = 0
    raw_bits: int = 0
    payload_bits: int = 0
    flits: int = 0
    raw_flits: int = 0

    def ratio(self, link: LinkModel) -> float:
        if self.flits == 0:
            return 1.0
        return self.raw_flits / self.flits


@dataclass
class MultiprogramResult:
    benchmarks: Tuple[str, ...]
    scheme: str
    link: LinkModel
    slots: List[SlotAccounting] = field(default_factory=list)

    @property
    def per_slot_ratio(self) -> List[float]:
        return [slot.ratio(self.link) for slot in self.slots]

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
    result.slots = [SlotAccounting(benchmark=b) for b in names]
    state = {"slot": 0, "counting": False}
    line_flits = link_model.flits_for(64 * 8)

    def record(data: bytes, payload_bits: int) -> None:
        if not state["counting"]:
            return
        slot = result.slots[state["slot"]]
        slot.transfers += 1
        slot.raw_bits += len(data) * 8
        slot.payload_bits += payload_bits
        slot.flits += link_model.flits_for(payload_bits)
        slot.raw_flits += line_flits

    if scheme == "cable":
        cable_link = CableLinkPair(cable or CableConfig(), pair, verify=verify)
        cable_link.listeners.append(lambda t: record(t.data, t.payload.size_bits))
    elif scheme == "raw":
        def observe(event: TransferEvent) -> None:
            if event.kind in ("fill", "writeback"):
                record(event.data, len(event.data) * 8)

        pair.add_observer(observe)
    else:
        window = None
        if scheme == "gzip":
            scale = preset.llc_bytes / (1024 * 1024)
            if scale < 1.0:
                window = max(1024, int(32 * 1024 * scale))
        fill_codec = _StreamCodec(scheme, verify, window)
        wb_codec = _StreamCodec(scheme, verify, window)

        def observe(event: TransferEvent) -> None:
            if event.kind == "fill":
                record(event.data, fill_codec.transfer(event.data))
            elif event.kind == "writeback":
                record(event.data, wb_codec.transfer(event.data))

        pair.add_observer(observe)

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
