"""Non-inclusive cache extension (§IV-C).

In Haswell-EP-style NUMA systems the home agent tracks every copy in
a directory for coherence, but its cache is *not* inclusive of the
remote caching agents. Two things change for CABLE:

1. **Home evictions don't back-invalidate.** The remote keeps its
   copy; the directory still knows about it. The home merely loses the
   *data*, so the line stops being referencable (its WMT entry and
   signatures are dropped) until it is refetched — CABLE degrades to
   opportunistic use of whatever home/remote sharing exists, exactly
   as the paper describes.

2. **Write-back compression loses its safety argument.** With
   inclusion, the remote knows its reference lines exist at the home;
   without it, they may not. The paper's fixes, both implemented:
   disable write-back compression (``writeback_mode="raw"``) or
   compress write-backs with a non-dictionary encoding
   (``writeback_mode="nodict"``, the default).
"""

from __future__ import annotations

from repro.cache.hierarchy import AccessOutcome, InclusivePair, TransferEvent
from repro.cache.line import CacheLine
from repro.core.config import CableConfig
from repro.core.encoder import CableLinkPair
from repro.core.payload import choose_payload


class NonInclusivePair(InclusivePair):
    """A home/remote pair where home evictions leave the remote copy.

    A directory (here: the remote cache itself plus the WMT state the
    sync layer maintains) keeps coherence; only the *data* leaves the
    home cache.
    """

    def _handle_home_eviction(
        self, displaced: CacheLine, home_lid, outcome: AccessOutcome
    ) -> None:
        evicted_addr = displaced.tag
        if displaced.dirty:
            self.backing_write(evicted_addr, displaced.data)
        # No back-invalidation: just announce the home-side loss so
        # CABLE stops treating the line as a reference.
        self._emit(
            TransferEvent(
                kind="home_evict",
                line_addr=evicted_addr,
                data=displaced.data,
                state=displaced.state,
                home_lid=home_lid,
            ),
            outcome,
        )

    def remote_only_lines(self) -> int:
        """How many remote lines have no home copy (the non-inclusive
        residue that could never exist under InclusivePair)."""
        return sum(
            0 if self.home.contains(line.tag) else 1 for __, line in self.remote
        )

    def _home_fetch(self, line_addr: int, outcome: AccessOutcome):
        """On refetch of a line the remote still holds dirty (possible
        only without inclusion), the backing store is stale: pull the
        current data from the remote copy first, as the directory
        protocol would."""
        hit = self.home.lookup(line_addr, touch=False)
        if hit is None:
            remote_hit = self.remote.lookup(line_addr, touch=False)
            if remote_hit is not None and remote_hit[1].dirty:
                self.backing_write(line_addr, remote_hit[1].data)
        return super()._home_fetch(line_addr, outcome)


class NonInclusiveCableLink(CableLinkPair):
    """CABLE endpoints adapted for a non-inclusive hierarchy."""

    def __init__(
        self,
        config: CableConfig,
        pair: NonInclusivePair,
        verify: bool = True,
        writeback_mode: str = "nodict",
    ) -> None:
        if writeback_mode not in ("raw", "nodict"):
            raise ValueError("writeback_mode must be 'raw' or 'nodict'")
        self.writeback_mode = writeback_mode
        super().__init__(config, pair, verify=verify)

    def _encode(self, direction: str, event: TransferEvent):
        """§IV-C: the remote cannot assume its references exist at the
        home, so write-backs never carry reference pointers."""
        if direction == "fill" or not self.enabled:
            return super()._encode(direction, event)
        if self.writeback_mode == "raw":
            return self._raw_payload(event), None
        block = self.remote_decoder.engine.compress_with_references(event.data, ())
        payload = choose_payload(
            event.line_addr,
            event.data,
            None,
            block,
            self.config.no_reference_threshold,
            self.config.remotelid_bits,
        )
        return payload, None
