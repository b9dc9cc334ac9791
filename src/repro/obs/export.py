"""Exporters: JSONL trace dumps and Prometheus-style text snapshots.

Two formats, both round-trippable (tests/test_obs.py pins both):

- :func:`dump_trace_jsonl` / :func:`load_trace_jsonl` — one JSON
  object per line per span, the usual shape for trace post-processing;
- :func:`render_prometheus` / :func:`parse_prometheus` — the text
  exposition format a scrape endpoint would serve: counters and gauges
  as bare samples, histograms as ``_bucket{le=...}`` + ``_sum`` +
  ``_count`` families. Metric names are sanitized to the Prometheus
  charset (dots become underscores).

JSON snapshots of the whole registry (the ``.obs.json`` files the
benchmark harness archives) go through
:func:`repro.obs.registry.MetricsRegistry.snapshot` /
``load_snapshot`` — plain ``json.dumps`` of plain data.
"""

from __future__ import annotations

import json
import re
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Span

Number = Union[int, float]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>[^\s]+)$"
)


def prometheus_name(name: str) -> str:
    """Sanitize a registry name to the Prometheus charset."""
    return _NAME_RE.sub("_", name)


# ----------------------------------------------------------------------
# JSONL traces
# ----------------------------------------------------------------------


def dump_trace_jsonl(spans: Iterable[Span], stream: IO[str]) -> int:
    """Write spans (e.g. ``tracer.spans()``) as JSONL; returns count."""
    written = 0
    for span in spans:
        stream.write(
            json.dumps(
                {
                    "name": span.name,
                    "start_ns": span.start_ns,
                    "duration_ns": span.duration_ns,
                    "parent": span.parent,
                },
                sort_keys=True,
            )
        )
        stream.write("\n")
        written += 1
    return written


def load_trace_jsonl(stream: IO[str]) -> List[Span]:
    """Parse a JSONL trace dump back into spans (blank lines skipped)."""
    spans: List[Span] = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        spans.append(
            Span(
                name=record["name"],
                start_ns=record["start_ns"],
                duration_ns=record["duration_ns"],
                parent=record.get("parent"),
            )
        )
    return spans


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every nonzero instrument in exposition-text format."""
    lines: List[str] = []
    for name, counter in sorted(registry.counters.items()):
        if not counter.value:
            continue
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counter.value}")
    for name, gauge in sorted(registry.gauges.items()):
        if not gauge.value:
            continue
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {gauge.value}")
    for name, histogram in sorted(registry.histograms.items()):
        if not histogram.count:
            continue
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(histogram.bounds, histogram.counts):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{metric}_sum {histogram.total}")
        lines.append(f"{metric}_count {histogram.count}")
    return "\n".join(lines) + "\n" if lines else ""


def _parse_value(text: str) -> Number:
    value = float(text)
    return int(value) if value.is_integer() else value


def parse_prometheus(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition text back into plain data, keyed by metric.

    Counters/gauges map to ``{"type": ..., "value": ...}``; histograms
    to ``{"type": "histogram", "buckets": [(le, cumulative), ...],
    "sum": ..., "count": ...}`` with ``le`` of the +Inf bucket as
    ``None``. Inverse of :func:`render_prometheus` for round-trip
    testing and scrape-side tooling.
    """
    metrics: Dict[str, Dict[str, object]] = {}
    types: Dict[str, str] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable exposition line: {line!r}")
        name = match.group("name")
        value = _parse_value(match.group("value"))
        base, suffix = name, ""
        for candidate in ("_bucket", "_sum", "_count"):
            if name.endswith(candidate) and types.get(name[: -len(candidate)]) == (
                "histogram"
            ):
                base, suffix = name[: -len(candidate)], candidate
                break
        kind = types.get(base, "untyped")
        entry = metrics.setdefault(base, {"type": kind})
        if kind != "histogram":
            entry["value"] = value
            continue
        if suffix == "_bucket":
            le: Optional[Number] = None
            labels = match.group("labels") or ""
            for label in labels.split(","):
                key, _, label_value = label.partition("=")
                if key.strip() == "le":
                    text_value = label_value.strip().strip('"')
                    le = None if text_value == "+Inf" else _parse_value(text_value)
            buckets = entry.setdefault("buckets", [])
            assert isinstance(buckets, list)
            buckets.append((le, value))
        elif suffix == "_sum":
            entry["sum"] = value
        elif suffix == "_count":
            entry["count"] = value
    return metrics


def bucket_counts(
    buckets: List[Tuple[Optional[Number], Number]],
) -> List[Number]:
    """De-cumulate parsed ``_bucket`` samples back to per-bucket counts."""
    counts: List[Number] = []
    previous: Number = 0
    for _, cumulative in buckets:
        counts.append(cumulative - previous)
        previous = cumulative
    return counts
