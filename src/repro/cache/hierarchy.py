"""Inclusive home/remote cache pairing.

CABLE's baseline assumption (§II-C) is that the *home* cache (larger,
e.g. the off-chip L4) is inclusive of the *remote* cache (smaller, e.g.
the on-chip LLC). This module enforces that invariant mechanically:

- every line resident in the remote cache is resident in the home
  cache;
- when the home cache evicts a line, the remote copy is
  back-invalidated;
- remote requests carry the way-replacement info of the victim they
  will displace, which is what lets the home side track remote
  contents precisely (the WMT consumes these).

The pair emits events through observer callbacks so CABLE's
synchronization machinery (:mod:`repro.core.sync`) can mirror hash
table and WMT state without the cache substrate knowing CABLE exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cache.line import CacheLine, CoherenceState
from repro.cache.setassoc import LineId, SetAssociativeCache


@dataclass
class TransferEvent:
    """A line moving across the link or leaving a cache.

    ``kind`` is one of:

    - ``"fill"`` — home → remote data response;
    - ``"writeback"`` — remote → home dirty data;
    - ``"remote_evict"`` — a line left the remote cache (displaced by a
      fill, or back-invalidated);
    - ``"home_evict"`` — a line left the home cache;
    - ``"upgrade"`` — the remote cache wrote to a previously SHARED
      line (shared → modified), so the home copy is now stale and the
      line's signatures must be invalidated (§III-F).
    """

    kind: str
    line_addr: int
    data: Optional[bytes] = None
    state: Optional[CoherenceState] = None
    home_lid: Optional[LineId] = None
    remote_lid: Optional[LineId] = None
    displaced_addr: Optional[int] = None


@dataclass
class AccessOutcome:
    """Result of one remote-side access."""

    remote_hit: bool
    home_hit: bool = True
    fill: Optional[TransferEvent] = None
    writeback: Optional[TransferEvent] = None
    events: List[TransferEvent] = field(default_factory=list)


class InclusivePair:
    """Home cache inclusive of remote cache, with event observers."""

    def __init__(
        self,
        home: SetAssociativeCache,
        remote: SetAssociativeCache,
        backing_read: Callable[[int], bytes],
        backing_write: Optional[Callable[[int, bytes], None]] = None,
    ) -> None:
        if home.geometry.line_bytes != remote.geometry.line_bytes:
            raise ValueError("home and remote caches must share a line size")
        self.home = home
        self.remote = remote
        self.backing_read = backing_read
        self.backing_write = backing_write or (lambda addr, data: None)
        self._observers: List[Callable[[TransferEvent], None]] = []
        self.stats = {
            "remote_hits": 0,
            "remote_misses": 0,
            "home_hits": 0,
            "home_misses": 0,
            "writebacks": 0,
            "back_invalidations": 0,
        }

    def add_observer(self, callback: Callable[[TransferEvent], None]) -> None:
        self._observers.append(callback)

    def _emit(self, event: TransferEvent, outcome: AccessOutcome) -> None:
        outcome.events.append(event)
        for callback in self._observers:
            callback(event)

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        write_data: Optional[bytes] = None,
    ) -> AccessOutcome:
        """Perform one remote-side access to *line_addr*.

        On a remote hit nothing crosses the link. On a remote miss the
        home cache services the request (filling from backing storage
        on a home miss first), the fill displaces the remote victim
        named by the way-replacement info, and a dirty victim travels
        back as a writeback.

        ``write_data`` is the line's new contents after a store; it is
        applied to the remote copy *after* all coherence events fire,
        so observers (CABLE sync) see the pre-write data they indexed.
        """
        outcome = self._access_inner(line_addr, is_write)
        if is_write and write_data is not None:
            hit = self.remote.lookup(line_addr, touch=False)
            if hit is not None:
                hit[1].data = write_data
        return outcome

    def _access_inner(self, line_addr: int, is_write: bool) -> AccessOutcome:
        remote_hit = self.remote.lookup(line_addr)
        if remote_hit is not None:
            self.stats["remote_hits"] += 1
            way, line = remote_hit
            if is_write and line.state is not CoherenceState.MODIFIED:
                # Shared → Modified upgrade: the home copy goes stale.
                line.dirty = True
                line.state = CoherenceState.MODIFIED
                home_hit = self.home.lookup(line_addr, touch=False)
                outcome = AccessOutcome(remote_hit=True)
                if home_hit is not None:
                    hway, hline = home_hit
                    hline.state = CoherenceState.MODIFIED
                    self._emit(
                        TransferEvent(
                            kind="upgrade",
                            line_addr=line_addr,
                            data=line.data,
                            home_lid=self.home.lineid(
                                self.home.index_of(line_addr), hway
                            ),
                            remote_lid=self.remote.lineid(
                                self.remote.index_of(line_addr), way
                            ),
                        ),
                        outcome,
                    )
                return outcome
            if is_write:
                line.dirty = True
            return AccessOutcome(remote_hit=True)

        self.stats["remote_misses"] += 1
        outcome = AccessOutcome(remote_hit=False)

        home_line, home_lid = self._home_fetch(line_addr, outcome)

        # Way-replacement info: the remote names its victim up front.
        victim_way = self.remote.choose_victim_way(line_addr)
        state = CoherenceState.MODIFIED if is_write else CoherenceState.SHARED
        # The home copy mirrors the transfer: SHARED when both sides
        # now hold identical data, MODIFIED (stale at home) when the
        # remote takes ownership for a write.
        home_line.state = state
        fill = TransferEvent(
            kind="fill",
            line_addr=line_addr,
            data=home_line.data,
            state=state,
            home_lid=home_lid,
            remote_lid=self.remote.lineid(self.remote.index_of(line_addr), victim_way),
        )

        way, displaced = self.remote.install(
            line_addr, home_line.data, state=state, dirty=is_write, way=victim_way
        )
        pending_writeback = None
        if displaced is not None:
            pending_writeback = self._handle_remote_eviction(
                displaced, line_addr, way, outcome
            )
        outcome.fill = fill
        self._emit(fill, outcome)
        # The write-back is emitted after the fill: in hardware the home
        # cache processes the request (and its way-replacement info,
        # updating the WMT) before the victim's write-back data arrives,
        # so write-back reference pointers are resolved against the
        # post-request WMT state.
        if pending_writeback is not None:
            outcome.writeback = pending_writeback
            self._emit(pending_writeback, outcome)
        return outcome

    def _home_fetch(self, line_addr: int, outcome: AccessOutcome):
        hit = self.home.lookup(line_addr)
        if hit is not None:
            self.stats["home_hits"] += 1
            way, line = hit
            return line, self.home.lineid(self.home.index_of(line_addr), way)
        self.stats["home_misses"] += 1
        outcome.home_hit = False
        data = self.backing_read(line_addr)
        way, displaced = self.home.install(line_addr, data)
        index = self.home.index_of(line_addr)
        if displaced is not None:
            self._handle_home_eviction(
                displaced, self.home.lineid(index, way), outcome
            )
        return self.home.peek(index, way), self.home.lineid(index, way)

    def _handle_remote_eviction(
        self,
        displaced: CacheLine,
        incoming_addr: int,
        way: int,
        outcome: AccessOutcome,
    ) -> Optional[TransferEvent]:
        """Returns the pending write-back event (emitted by the caller
        after the fill), or None for a clean victim."""
        evicted_addr = displaced.tag
        remote_lid = self.remote.lineid(self.remote.index_of(evicted_addr), way)
        self._emit(
            TransferEvent(
                kind="remote_evict",
                line_addr=evicted_addr,
                data=displaced.data,
                state=displaced.state,
                remote_lid=remote_lid,
                displaced_addr=incoming_addr,
            ),
            outcome,
        )
        if not displaced.dirty:
            return None
        self.stats["writebacks"] += 1
        home_hit = self.home.lookup(evicted_addr, touch=False)
        if home_hit is not None:
            hway, hline = home_hit
            hline.data = displaced.data
            hline.dirty = True
            # After the write-back the home copy is current and the
            # remote copy is gone: exclusive at home, dirty to DRAM.
            hline.state = CoherenceState.EXCLUSIVE
            home_lid = self.home.lineid(self.home.index_of(evicted_addr), hway)
        else:
            # Inclusivity means this should not happen; installing
            # keeps the model safe if a caller bypassed the pair.
            hway, __ = self.home.install(
                evicted_addr,
                displaced.data,
                state=CoherenceState.EXCLUSIVE,
                dirty=True,
            )
            home_lid = self.home.lineid(self.home.index_of(evicted_addr), hway)
        return TransferEvent(
            kind="writeback",
            line_addr=evicted_addr,
            data=displaced.data,
            state=CoherenceState.MODIFIED,
            home_lid=home_lid,
            remote_lid=remote_lid,
        )

    def _handle_home_eviction(
        self, displaced: CacheLine, home_lid, outcome: AccessOutcome
    ) -> None:
        evicted_addr = displaced.tag
        # Inclusivity: back-invalidate the remote copy if present.
        remote_copy = self.remote.lookup(evicted_addr, touch=False)
        if remote_copy is not None:
            way, line = remote_copy
            remote_lid = self.remote.lineid(self.remote.index_of(evicted_addr), way)
            self.remote.invalidate(evicted_addr)
            self.stats["back_invalidations"] += 1
            self._emit(
                TransferEvent(
                    kind="remote_evict",
                    line_addr=evicted_addr,
                    data=line.data,
                    state=line.state,
                    remote_lid=remote_lid,
                ),
                outcome,
            )
            if line.dirty:
                # The freshest data lives remotely; it still crosses
                # the link (a write-back) on its way to DRAM.
                self.stats["writebacks"] += 1
                displaced = CacheLine(
                    tag=evicted_addr, data=line.data, state=line.state, dirty=True
                )
                writeback = TransferEvent(
                    kind="writeback",
                    line_addr=evicted_addr,
                    data=line.data,
                    state=line.state,
                    remote_lid=remote_lid,
                )
                outcome.writeback = writeback
                self._emit(writeback, outcome)
        if displaced.dirty:
            self.backing_write(evicted_addr, displaced.data)
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

    # ------------------------------------------------------------------
    # Invariant check (tests)
    # ------------------------------------------------------------------

    def check_inclusive(self) -> bool:
        """True when every remote-resident address is home-resident."""
        return all(
            self.home.contains(line.tag) for __, line in self.remote
        )
