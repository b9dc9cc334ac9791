"""Sharded multi-process link service with crash-tolerant supervision.

The single-process :class:`~repro.serve.server.LinkService` scales
until one Python event loop saturates; this package shards it across
worker *processes* and makes the shard boundary a fault boundary:

- :mod:`~repro.serve.cluster.ring` — consistent-hash placement plus
  the sticky session directory (with freeze/reassign, the recovery
  primitives);
- :mod:`~repro.serve.cluster.router` — the one client-facing port,
  splicing connections onto workers by session tag;
- :mod:`~repro.serve.cluster.worker` — one supervised shard: a full
  link service, a standby host for its siblings' shipped sessions,
  and the control-plane client;
- :mod:`~repro.serve.cluster.supervisor` — spawn, heartbeat-watch,
  detect (crash / hang / byzantine-slow), and recover via buddy
  promotion of the session stores each buddy mirrors
  (:mod:`repro.replica.remote`).

The kill-under-load campaign that exercises all of it,
:func:`repro.serve.campaign.run_cluster_campaign`, sits one level up
beside the in-process failover campaign: both drive the load
generator's reconnecting clients.
"""

from repro.serve.cluster.config import ClusterConfig
from repro.serve.cluster.ring import HashRing, SessionDirectory
from repro.serve.cluster.router import FrontRouter
from repro.serve.cluster.supervisor import ClusterService

__all__ = [
    "ClusterConfig",
    "ClusterService",
    "FrontRouter",
    "HashRing",
    "SessionDirectory",
]
