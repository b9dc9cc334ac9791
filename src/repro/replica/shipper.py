"""The journal shipper: one endpoint journal -> CBRB batches -> deliver.

The in-process :class:`~repro.replica.standby.WarmStandby` runs one
:class:`JournalShipper` per endpoint journal and hands each batch
straight to a mirror structure set. The shipper owns:

- the append tee: it subscribes to the journal's ``on_append``, so
  shipping never depends on the journal's retention window (a record
  truncated by a checkpoint was already offered for shipping);
- the backlog and the batch cut: whenever the backlog reaches
  ``ReplicationPolicy.max_lag_records`` it cuts checksummed,
  sequence-numbered batches and hands each to *deliver* — the lag
  bound is structural, not best-effort;
- the live snapshot cut that a catch-up ships.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.obs.registry import METRICS
from repro.replica.batch import JournalBatch, encode_batch
from repro.replica.plan import ReplicationPolicy
from repro.state.journal import JournalRecord
from repro.state.manager import EndpointStateManager
from repro.state.snapshot import write_snapshot

#: Counters a shipper accumulates into its standby's stats dict,
#: shared by every journal of one standby (``lag_peak`` is a max, the
#: rest are sums).
SHIPPER_STATS = ("batches_shipped", "records_shipped", "catch_ups", "lag_peak")


class JournalShipper:
    """Append tee, backlog and batch cut for one endpoint journal."""

    def __init__(
        self,
        manager: EndpointStateManager,
        policy: ReplicationPolicy,
        deliver: Callable[[bytes], None],
        stats: Dict[str, int],
    ) -> None:
        self.manager = manager
        self.policy = policy
        #: Receives each encoded batch, in sequence order.
        self.deliver = deliver
        #: The sender's counters (keys: :data:`SHIPPER_STATS`).
        self.stats = stats
        #: Records journaled on the primary but not yet shipped.
        self.pending: List[JournalRecord] = []
        self.next_seq = 0
        self._gauge_lag = METRICS.gauge(f"replica.{manager.name}.lag")
        manager.journal.on_append = self._on_append

    def _on_append(self, record: JournalRecord) -> None:
        self.pending.append(record)
        lag = len(self.pending)
        if lag > self.stats["lag_peak"]:
            self.stats["lag_peak"] = lag
        if METRICS.enabled:
            self._gauge_lag.set(lag)
        if lag >= self.policy.max_lag_records:
            self.pump()

    def pump(self, force: bool = False) -> int:
        """Cut and deliver pending records as batches.

        Ships ``batch_records``-sized batches while the backlog
        warrants it; with ``force=True`` the final partial batch is
        shipped too (graceful drain). Returns batches shipped.
        """
        pending = self.pending
        size = self.policy.batch_records
        shipped = 0
        while pending and (len(pending) >= size or force):
            cut = pending[:size]
            del pending[: len(cut)]
            # The batch's progress is the journal position through the
            # *end of this cut* — not the primary's current head, which
            # still includes the un-shipped backlog. The distinction is
            # what makes hot-promotion adjudication sound: a standby
            # that missed the final batch of a pump must not be able to
            # claim the primary's full progress.
            epoch, total = self.manager.expected_progress()
            batch = JournalBatch(
                seq=self.next_seq,
                progress=(epoch, total - len(pending)),
                records=tuple(cut),
            )
            self.next_seq += 1
            self.stats["batches_shipped"] += 1
            self.stats["records_shipped"] += len(cut)
            shipped += 1
            # A refused delivery may answer with a catch-up, which
            # empties the backlog and so ends this loop.
            self.deliver(encode_batch(batch))
        if METRICS.enabled:
            self._gauge_lag.set(len(pending))
        return shipped

    def drop_backlog(self) -> int:
        """Forget the un-shipped backlog; returns the records it held."""
        lost = len(self.pending)
        self.pending.clear()
        if METRICS.enabled:
            self._gauge_lag.set(0)
        return lost

    def restart(self) -> None:
        """Restart the stream for a receiver reseeded from the live
        image: the backlog is already in that image."""
        self.drop_backlog()
        self.next_seq = 0

    def catch_up(self) -> Tuple[Tuple[int, int], int, bytes]:
        """Resynchronization cut for a receiver that refused a batch:
        ``(progress, next batch seq, snapshot blob)``.

        The snapshot is cut from the *live* structures, whose state
        already includes every journaled record, shipped or still
        pending, so the backlog is dropped too: shipping it afterwards
        would double-apply its effects on top of the snapshot.
        """
        manager = self.manager
        sections = {
            name: structure.snapshot_state()
            for name, structure in manager.structures.items()
        }
        blob = write_snapshot(manager.epoch, sections)
        self.drop_backlog()
        self.stats["catch_ups"] += 1
        return manager.expected_progress(), self.next_seq, blob
