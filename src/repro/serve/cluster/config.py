"""Cluster-layer configuration.

Separate from :class:`repro.serve.session.ServeConfig` (each worker
process still builds one of those for its own ``LinkService``): this
is the *topology* — worker count, heartbeat cadence, failure-detector
thresholds — plus the handful of serve knobs the supervisor forwards
to workers on their command line.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of one sharded link-service cluster."""

    #: Initial worker-process count.
    workers: int = 4
    host: str = "127.0.0.1"
    #: Client-facing router port (0 = ephemeral, reported back).
    router_port: int = 0
    #: Supervisor control port workers dial back to (0 = ephemeral).
    control_port: int = 0
    #: Worker heartbeat cadence (seconds).
    heartbeat_interval: float = 0.25
    #: Heartbeats missed before a worker is declared hung. Generous by
    #: default — a loaded single-core box stalls event loops for real.
    miss_threshold: int = 8
    #: A worker whose smoothed heartbeat gap exceeds ``slow_factor``
    #: heartbeat intervals is declared byzantine-slow and recovered
    #: (it answers, but so late it drags every session it hosts).
    slow_factor: float = 6.0
    #: Respawn a replacement after a worker death (the campaign keeps
    #: the population constant; tests may prefer shrinking clusters).
    respawn: bool = True
    #: Inherit stdout/stderr in workers (debugging; default silences
    #: stdout so campaign output stays parseable).
    verbose: bool = False

    # -- serve knobs forwarded to every worker -------------------------
    # Writer batching is not among them: every sender in every process
    # flushes once at the end of its event-loop pass.
    #: Sessions one worker may hold; it also sizes the drain deadline
    #: (each worker audits every session it holds at drain).
    max_sessions: int = 64
    queue_depth: int = 32
    #: Online knob tuning policy ("epsilon", "ucb1" or "onoff"; empty
    #: disables). Each worker builds its own TuningPlan seeded by its
    #: worker id, so shards adapt independently — there is no global
    #: coordinator to become a consistency bottleneck.
    tune_policy: str = ""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.miss_threshold < 2:
            raise ValueError("miss_threshold must be at least 2")
        if self.slow_factor <= 1.0:
            raise ValueError("slow_factor must exceed 1")
