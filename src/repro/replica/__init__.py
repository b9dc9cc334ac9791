"""Warm-standby replication for endpoint metadata (availability).

PR 3's snapshot/journal/epoch machinery restarts a crashed endpoint
from its *own* persistent store — a recovery story. This package turns
it into an availability story: a standby endpoint asynchronously
consumes the primary's epoch-tagged :class:`~repro.state.journal.
MetadataJournal` as checksummed, sequence-numbered batches (bounded
lag), detects torn/dropped/reordered batches by checksum or sequence
gap and falls back to snapshot-based catch-up, and can be *promoted*
mid-traffic when the primary dies — the old primary then rejoins as
the new standby.

One :class:`JournalShipper` per endpoint journal cuts the batches for
:class:`WarmStandby`, the in-process standby and the only occupant of
a link pair's ``replica`` slot. Across a process boundary a cluster
buddy worker mirrors only each session's backing store
(:class:`SessionShipper` → :class:`StandbySessionHost`): the metadata
means nothing without the cache arrays that die with the worker.

Layering: this package depends on :mod:`repro.state` and
:mod:`repro.core.errors` only. The link pair's lifecycle
(:class:`repro.link.lifecycle.LinkLifecycle`) arms it and drives
failover; the serve layer threads promotion through live sessions.
"""

from repro.replica.batch import JournalBatch, decode_batch, encode_batch
from repro.replica.plan import FailoverPlan, ReplicationPolicy
from repro.replica.remote import SessionShipper, StandbySessionHost
from repro.replica.shipper import JournalShipper
from repro.replica.standby import StandbyReplica, WarmStandby

__all__ = [
    "FailoverPlan",
    "JournalBatch",
    "JournalShipper",
    "ReplicationPolicy",
    "SessionShipper",
    "StandbySessionHost",
    "StandbyReplica",
    "WarmStandby",
    "decode_batch",
    "encode_batch",
]
