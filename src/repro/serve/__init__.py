"""Asyncio link service: CABLE endpoints over real byte streams.

Everything below :mod:`repro.core` speaks in-process Python objects;
this package puts the home endpoint behind an actual transport. A
:class:`~repro.serve.server.LinkService` hosts one home-cache side as
an asyncio server (TCP or in-process duplex pipes); each connecting
:class:`~repro.serve.client.RemoteClient` drives one remote-cache
session; the bytes on the wire are the *real* encoded frames of
:mod:`repro.link.wire` — CRC-guarded, sequence-tagged, reassembled
across chunk boundaries by :class:`repro.link.wire.FrameDecoder`.

Layering:

- :mod:`repro.serve.transport` — in-process duplex stream pipes plus
  the coalescing :class:`~repro.serve.transport.StreamSender`;
- :mod:`repro.serve.protocol` — the message grammar (OPEN/ACCESS/
  FRAME/RESULT/NACK/RETRY/DRAIN/BYE) over stream records;
- :mod:`repro.serve.session` — one session = one verified
  :class:`~repro.core.encoder.CableLinkPair` with a bounded work
  queue, a retransmit window and durable epoch state;
- :mod:`repro.serve.server` / :mod:`repro.serve.client` — the two
  endpoints;
- :mod:`repro.serve.loadgen` — the one client driver: N concurrent
  reconnect-resilient clients replaying :mod:`repro.trace` streams
  over memory pipes or TCP;
- :mod:`repro.serve.campaign` — the served kill campaigns (in-process
  primary failover, cluster worker kill storm), both run through the
  loadgen's drivers;
- :mod:`repro.serve.cluster` — the sharded multi-process service.

Invariants the tests and benchmarks pin: per-session send queues are
*bounded* (overflow is an explicit RETRY, never unbounded buffering);
every shipped frame is structurally verified by the client (CRC +
bit-exact parse) and byte-verified by the server-side checker;
shutdown is a graceful drain — stop accepting, flush retransmit
windows, checkpoint durable state, audit.
"""

from importlib import import_module
from typing import Dict

_EXPORTS: Dict[str, str] = {
    "ClusterCampaignReport": "repro.serve.campaign",
    "FailoverCampaignReport": "repro.serve.campaign",
    "run_cluster_campaign": "repro.serve.campaign",
    "run_failover_campaign": "repro.serve.campaign",
    "OpenResult": "repro.serve.client",
    "RemoteClient": "repro.serve.client",
    "SessionRejected": "repro.serve.client",
    "Driver": "repro.serve.loadgen",
    "LoadgenReport": "repro.serve.loadgen",
    "run_loadgen": "repro.serve.loadgen",
    "LinkService": "repro.serve.server",
    "ServeConfig": "repro.serve.session",
    "Session": "repro.serve.session",
    "SessionManager": "repro.serve.session",
    "StreamSender": "repro.serve.transport",
    "open_memory_pipe": "repro.serve.transport",
}


def __getattr__(name: str):
    # Lazy re-exports (PEP 562): `python -m repro.serve.loadgen` must
    # not have the package import the submodule it is about to run.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
    return getattr(import_module(module), name)


def __dir__():
    return sorted(__all__)


__all__ = [
    "ClusterCampaignReport",
    "Driver",
    "FailoverCampaignReport",
    "LinkService",
    "LoadgenReport",
    "OpenResult",
    "RemoteClient",
    "ServeConfig",
    "Session",
    "SessionManager",
    "SessionRejected",
    "StreamSender",
    "open_memory_pipe",
    "run_cluster_campaign",
    "run_failover_campaign",
    "run_loadgen",
]
