"""Observability: metrics registry, span tracer, exporters, reports.

Public surface (see docs/architecture.md §Observability):

- :data:`METRICS` — the process-wide :class:`MetricsRegistry`;
- :data:`TRACER` / :func:`trace` — span-based tracing into a ring
  buffer plus the matching ``stage.*`` histogram;
- exporters — :func:`dump_trace_jsonl` / :func:`load_trace_jsonl`
  (JSONL spans) and :func:`render_prometheus` /
  :func:`parse_prometheus` (text exposition snapshot);
- report rendering — :func:`render_stage_table` and friends, the
  engine behind ``tools/obs_report.py``.

Enable with ``METRICS.enable()`` (or ``REPRO_OBS=1`` in the
environment before import). Disabled is the default and costs one
attribute load + branch per instrumented call site.
"""

from __future__ import annotations

from repro.obs.export import (
    bucket_counts,
    dump_trace_jsonl,
    load_trace_jsonl,
    parse_prometheus,
    prometheus_name,
    render_prometheus,
)
from repro.obs.registry import (
    METRICS,
    STAGE_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import (
    StageRow,
    instrumented_stage_count,
    kernel_header,
    publish_kernel_gauges,
    render_counter_table,
    render_markdown_stage_table,
    render_stage_table,
    stage_rows,
)
from repro.obs.tracer import RING_CAPACITY, TRACER, Span, Tracer, trace

__all__ = [
    "METRICS",
    "STAGE_BUCKETS_NS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RING_CAPACITY",
    "Span",
    "StageRow",
    "TRACER",
    "Tracer",
    "bucket_counts",
    "dump_trace_jsonl",
    "instrumented_stage_count",
    "kernel_header",
    "load_trace_jsonl",
    "parse_prometheus",
    "prometheus_name",
    "publish_kernel_gauges",
    "render_counter_table",
    "render_markdown_stage_table",
    "render_prometheus",
    "render_stage_table",
    "stage_rows",
    "trace",
]
