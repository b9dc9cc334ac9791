"""Verify EXPERIMENTS.md's quoted numbers against the archived
benchmark outputs (benchmarks/output/*.txt).

Two layers of checking (exit code 1 on any violation):

1. **Invariants** — the contracts EXPERIMENTS.md states about the
   archived summary lines:

   - resilience — zero silent corruptions over the whole sweep, and
     the breaker both trips and re-arms at the highest fault rate.
   - crash_recovery — ≥ 1000 kill points with zero silent
     corruptions, torn snapshots actually detected, the replay path
     measurably cheaper than rebuild, and recovery time bounded.
   - adaptive_tuning — the online controller never loses to the worst
     static arm by the checked margin, serve-mode campaigns corrupt
     nothing, and reconfigured encoders match natively-built ones
     bit for bit.

   Every stem in :data:`CHECKS` must have its ``<stem>.txt`` archive:
   a gated archive that goes missing fails the gate instead of being
   skipped.

2. **Drift** — the quoted *tables*: every deterministic (pinned-seed)
   row EXPERIMENTS.md copies from the archives must still match, exact
   for integers and within 1% for floats (the prose rounds). Failures
   are reported as a per-table diff summary — every mismatching cell
   with its quoted value, archived value and the tolerance applied —
   never a first-mismatch abort. Rows the archives don't carry (``—``
   cells) are skipped, and machine-dependent tables (the per-stage
   latency profile) are deliberately *not* drift-checked — they are
   enumerated in :data:`UNGATED_TABLES` instead, and ``--list-gates``
   asserts that every table in EXPERIMENTS.md is in exactly one of the
   two camps (so a new table cannot land silently ungated) and that
   every allowlist entry still matches a table (so a deleted table
   cannot leave its exemption behind).

Run from the repo root (CI does) or anywhere — paths are anchored to
this file.
"""

import argparse
import json
import pathlib
import re
import sys
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / "benchmarks" / "output"
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"


# ======================================================================
# Layer 1: summary invariants
# ======================================================================


#: Summary value of a verdict the run could not measure (e.g.
#: ``scaling_ok`` on a host with too few cores for an in-core row).
NOT_MEASURED = "—"


def parse_summary(line):
    """'summary: a=1, b=2.5, c=—' -> {'a': 1.0, 'b': 2.5, 'c': '—'}."""
    fields = {}
    for part in line.split(":", 1)[1].split(","):
        key, _, value = part.strip().partition("=")
        try:
            fields[key] = float(value)
        except ValueError:
            if value == NOT_MEASURED:
                fields[key] = value
    return fields


def check_resilience(summary):
    if summary.get("silent_corruptions") != 0:
        yield "silent_corruptions must be 0"
    if not summary.get("total_faults"):
        yield "sweep injected no faults"
    if not summary.get("breaker_trips_at_max_rate"):
        yield "breaker never tripped at the max fault rate"
    if not summary.get("breaker_rearms_at_max_rate"):
        yield "breaker never re-armed at the max fault rate"


def check_crash_recovery(summary):
    if summary.get("kill_points", 0) < 1000:
        yield "needs at least 1000 kill points"
    if summary.get("silent_corruptions") != 0:
        yield "silent_corruptions must be 0"
    if not summary.get("snapshot_corruptions_detected"):
        yield "no torn snapshot was ever detected"
    replay = summary.get("mean_replay_traffic_bits", 0)
    rebuild = summary.get("mean_rebuild_traffic_bits", 0)
    if not replay or not rebuild or replay >= rebuild:
        yield "journal replay must cost less traffic than rebuild"
    if summary.get("recovery_bounded") != 1:
        yield "recovery was not bounded / final audit failed"


def check_serving(summary):
    if summary.get("silent_corruptions") != 0:
        yield "silent_corruptions must be 0"
    if not summary.get("backpressure_events"):
        yield "no backpressure was ever observed (queues must be bounded)"
    if summary.get("max_sessions", 0) < 16:
        yield "sweep never reached 16 concurrent sessions"
    if summary.get("drained_clean") != 1:
        yield "graceful drain did not end with every audit clean"


def check_failover(summary):
    if summary.get("kills", 0) < 500:
        yield "needs at least 500 primary kills across the sweep"
    if summary.get("silent_corruptions") != 0:
        yield "silent_corruptions must be 0"
    if not summary.get("hot_promotions"):
        yield "no kill ever landed on a caught-up standby (hot promotion)"
    if not summary.get("warm_promotions"):
        yield "no kill ever exercised the warm (resync) promotion path"
    hot = summary.get("hot_promotions", 0)
    warm = summary.get("warm_promotions", 0)
    if hot + warm != summary.get("kills", -1):
        yield "every kill must resolve to exactly one promotion"
    if not summary.get("catch_ups"):
        yield "the sabotaged stream never forced a snapshot catch-up"
    if summary.get("lag_bounded") != 1:
        yield "replication lag exceeded the policy bound"
    if summary.get("p99_blip_bounded") != 1:
        yield "p99 latency blip exceeded the bound vs the no-kill baseline"
    if summary.get("drained_clean") != 1:
        yield "a post-failover drain audit failed"


def check_cluster(summary):
    if summary.get("workers", 0) < 8:
        yield "needs at least 8 worker processes"
    if summary.get("kills", 0) < 200:
        yield "needs at least 200 worker kills across the storm"
    if summary.get("silent_corruptions") != 0:
        yield "silent_corruptions must be 0"
    if summary.get("lost_sessions") != 0:
        yield "a victim's sessions restarted fresh (lost_sessions > 0)"
    if summary.get("recoveries", 0) < summary.get("kills", -1):
        yield "not every scheduled kill resolved to a recovery"
    if summary.get("completed") != summary.get("planned"):
        yield "client batches did not complete through the storm"
    if summary.get("p99_blip_bounded") != 1:
        yield "router p99 blip exceeded the bound vs the no-fault baseline"
    if summary.get("drained_clean") != 1:
        yield "the final cluster drain audit failed"
    if summary.get("campaign_ok") != 1:
        yield "the campaign's own invariant roll-up failed"


def check_cluster_scaling(summary):
    if summary.get("plateau_ok") != 1:
        yield "throughput collapsed once workers oversubscribed the cores"
    if "scaling_ok" not in summary:
        yield "scaling verdict missing (1, 0 or — for not measured)"
    elif summary["scaling_ok"] not in (1, NOT_MEASURED):
        yield "throughput did not scale across the in-core rows"
    if summary.get("silent_corruptions") != 0:
        yield "silent_corruptions must be 0"
    if summary.get("drained_clean") != 1:
        yield "a scaling-row drain audit failed"


def check_adaptive(summary):
    if summary.get("min_adp_vs_worst", 0) < 1.02:
        yield "adaptive lost to the worst static arm on some workload"
    if summary.get("serve_silent_corruptions") != 0:
        yield "the adaptive serve campaign corrupted a line silently"
    if summary.get("serve_completed") != summary.get("serve_planned"):
        yield "the adaptive serve campaign dropped accesses"
    if summary.get("arms_payload_identical") != 1:
        yield "a reconfigured pair diverged from a natively-built one"
    if not summary.get("tune_epochs_sim"):
        yield "the simulator controller never settled an epoch"
    if not summary.get("serve_tune_epochs"):
        yield "the serve controllers never settled an epoch"


def check_tiers(summary):
    if summary.get("tiers") != 3:
        yield "sweep must cover all three tier models"
    if summary.get("workloads", 0) < 3:
        yield "sweep must cover at least 3 workloads"
    if summary.get("silent_corruptions") != 0:
        yield "silent_corruptions must be 0"
    if summary.get("capacity_audit_ok") != 1:
        yield "the capacity-cache packing audit failed"
    if summary.get("overhead_accounted") != 1:
        yield "capacity net gain not deflated by tag/metadata overhead"
    if summary.get("cxl_p99_speedup_min", 0) < 1.0:
        yield "the encoder degraded CXL p99 fill latency vs the raw link"


CHECKS = {
    "resilience": check_resilience,
    "crash_recovery": check_crash_recovery,
    "serving": check_serving,
    "failover": check_failover,
    "cluster": check_cluster,
    "cluster_scaling": check_cluster_scaling,
    "adaptive_tuning": check_adaptive,
    "tiers": check_tiers,
}


# ======================================================================
# Layer 2: table drift (EXPERIMENTS.md vs archived outputs)
# ======================================================================


def parse_cell(text):
    """A table cell -> number, (number, number) pair, None, or str.

    Handles the prose decorations: thousands commas, trailing x/%,
    bold markers, em-dash for "not measured", and 'a / b' pairs.
    """
    text = text.strip().strip("*").strip()
    if text in ("—", "-", ""):
        return None
    if "/" in text and not re.search(r"[a-zA-Z]", text):
        parts = [parse_cell(part) for part in text.split("/")]
        if all(isinstance(part, (int, float)) for part in parts):
            return tuple(parts)
    cleaned = text.replace(",", "").rstrip("×x%").strip()
    try:
        value = float(cleaned)
        return int(value) if value.is_integer() else value
    except ValueError:
        return text


class MarkdownTable(NamedTuple):
    """One pipe table with enough context to name it in a report."""

    headers: list
    rows: list
    line: int  # 1-based line of the header row
    section: str  # nearest preceding heading


def parse_markdown_tables(text):
    """All pipe tables in *text*, with section/line context."""
    tables = []
    lines = text.splitlines()
    section = ""
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if line.startswith("#"):
            section = line.lstrip("#").strip()
        is_rule = (
            i + 1 < len(lines)
            and "-" in lines[i + 1]
            and set(lines[i + 1].replace("|", "").replace(" ", "")) <= {"-", ":"}
        )
        if line.startswith("|") and is_rule:
            headers = [cell.strip().lower() for cell in line.strip("|").split("|")]
            rows = []
            start = i + 1
            i += 2
            while i < len(lines) and lines[i].strip().startswith("|"):
                cells = [parse_cell(c) for c in lines[i].strip().strip("|").split("|")]
                rows.append(cells)
                i += 1
            tables.append(MarkdownTable(headers, rows, start, section))
        else:
            i += 1
    return tables


def load_archived_rows(stem):
    """Archived rows for *stem* as per-row dicts, or None if absent.

    Prefers the machine-readable ``{stem}.json`` sidecar (headers +
    rows, no re-parsing of the human table); falls back to scraping
    the rendered ``{stem}.txt``.
    """
    json_path = OUTPUT_DIR / f"{stem}.json"
    if json_path.exists():
        payload = json.loads(json_path.read_text())
        headers = payload.get("headers", [])
        return [
            dict(zip(headers, row)) for row in payload.get("rows", [])
        ]
    txt_path = OUTPUT_DIR / f"{stem}.txt"
    if txt_path.exists():
        return parse_archived_table(txt_path)
    return None


def load_archived_summary(stem):
    """The summary dict for *stem* from its JSON sidecar, or None."""
    json_path = OUTPUT_DIR / f"{stem}.json"
    if not json_path.exists():
        return None
    summary = json.loads(json_path.read_text()).get("summary")
    return summary if isinstance(summary, dict) else None


def parse_archived_table(path):
    """A benchmarks/output/*.txt table -> list of per-row dicts.

    Shape: title line, whitespace-aligned header, a dashes rule, data
    rows, then summary/paper footers. Column values contain no spaces.
    """
    lines = path.read_text().splitlines()
    for index, line in enumerate(lines):
        if line.strip() and set(line.replace(" ", "")) == {"-"} and index > 0:
            headers = lines[index - 1].split()
            rows = []
            for row_line in lines[index + 1 :]:
                if not row_line.strip() or row_line.startswith(("summary:", "paper:")):
                    break
                values = [parse_cell(v) for v in row_line.split()]
                rows.append(dict(zip(headers, values)))
            return rows
    return []


#: Float tolerance of the drift check: the prose rounds, so quoted
#: floats may sit within this relative distance of the archive.
FLOAT_TOLERANCE = 0.01


def values_match(quoted, archived):
    """Exact for ints; floats within 1% (prose rounds); pairs pairwise."""
    if quoted is None or archived is None:
        return True  # '—' cells: the archive doesn't carry the figure
    if isinstance(quoted, tuple) or isinstance(archived, tuple):
        if not (isinstance(quoted, tuple) and isinstance(archived, tuple)):
            return False
        return len(quoted) == len(archived) and all(
            values_match(q, a) for q, a in zip(quoted, archived)
        )
    if isinstance(quoted, str) or isinstance(archived, str):
        return str(quoted) == str(archived)
    if isinstance(quoted, int) and isinstance(archived, int):
        return quoted == archived
    return abs(quoted - archived) <= max(FLOAT_TOLERANCE * abs(archived), 1e-9)


def tolerance_label(quoted, archived):
    if isinstance(quoted, float) or isinstance(archived, float):
        return f"±{FLOAT_TOLERANCE:.0%}"
    return "exact"


class Mismatch(NamedTuple):
    """One drifted cell (or a whole missing row/archive)."""

    table: str
    row: str
    column: str
    quoted: object
    archived: object
    tolerance: str


#: markdown header (lowercased) -> archived column(s). A tuple maps an
#: 'a / b' cell onto two archived columns.
RESILIENCE_COLUMNS = {
    "faults": "faults",
    "nacks": "nacks",
    "retries": "retries",
    "raw fallbacks": "raw_fallbacks",
    "trips / re-arms": ("breaker_trips", "breaker_rearms"),
    "silent": "silent_corruptions",
    "eff. ratio": "eff_ratio",
    "overhead": "overhead_pct",
}

#: Serving columns that are deterministic over the in-process pipes
#: (pinned seeds, per-tag reseeded injectors, index-ordered admission).
#: Latency/throughput columns are machine-dependent and not checked.
SERVING_COLUMNS = {
    "clients": "clients",
    "accesses": "accesses",
    "frames": "frames",
    "nacks": "nacks",
    "retransmits": "retransmits",
    "silent": "silent",
}

#: Failover columns deterministic for fixed arguments (per-session
#: ordinal kill schedules, work-keyed shipper cadence). Latency and
#: blip columns are wall-clock and not checked.
FAILOVER_COLUMNS = {
    "clients": "clients",
    "accesses": "accesses",
    "kills": "kills",
    "hot": "hot",
    "warm": "warm",
    "lost": "lost",
    "catch_ups": "catch_ups",
    "lag_peak": "lag_peak",
    "silent": "silent",
}

#: Cluster campaign columns: the injector's per-mode schedule is
#: deterministic (seeded RNG, fixed kill budget); the cause the
#: detector attributes each recovery to is not (a slow worker can trip
#: the hang deadline), so ``recovered_as`` is not drift-checked.
CLUSTER_COLUMNS = {
    "mode": "mode",
    "scheduled": "scheduled",
}

#: Cluster scaling columns deterministic for fixed arguments; the
#: rate/latency columns are wall-clock and not checked.
CLUSTER_SCALING_COLUMNS = {
    "workers": "workers",
    "clients": "clients",
    "accesses": "accesses",
    "completed": "completed",
    "silent": "silent",
    "drained": "drained",
}

CRASH_COLUMNS = {
    "kills": "kills",
    "replays": "replays",
    "rebuilds": "rebuilds",
    "torn snapshots detected": "snap_corrupt",
    "mean replay bits": "mean_replay_bits",
    "mean rebuild bits": "mean_rebuild_bits",
    "traffic/crash": "traffic/crash",
    "silent": "silent",
}

#: Adaptive-tuning columns: the whole ablation is seeded (static sweep,
#: bandit schedule, serve campaign), so every column is deterministic.
ADAPTIVE_COLUMNS = {
    "static_best": "static_best",
    "best_arm": "best_arm",
    "adaptive": "adaptive",
    "onoff": "onoff",
    "static_worst": "static_worst",
    "worst_arm": "worst_arm",
    "adp_vs_worst": "adp_vs_worst",
}


#: Memory-tier columns: every cell is model-time (arrival ticks, wire
#: cycles, device latencies) over pinned seeds, so the whole table is
#: deterministic — including the latency percentiles, which would be
#: wall-clock (ungated) in any other table.
TIERS_COLUMNS = {
    "accesses": "accesses",
    "transfers": "transfers",
    "ratio": "ratio",
    "eff_ratio": "eff_ratio",
    "thr_mlps": "thr_mlps",
    "p50_ns": "p50_ns",
    "p99_ns": "p99_ns",
    "admit_pct": "admit_pct",
    "tag_save_pct": "tag_save_pct",
    "cap_gain": "cap_gain",
    "net_gain": "net_gain",
    "meta_pct": "meta_pct",
    "fallbacks": "fallbacks",
}


def check_table_drift(
    name, headers, rows, archived_rows, key_header, key_column, columns
):
    """Compare one quoted markdown table against its archived rows.

    Rows are matched on *key_header*/*key_column* by string prefix
    (the prose elaborates scenario names — 'memlink (omnetpp, ...)'
    vs the archive's 'memlink:omnetpp'). Yields one :class:`Mismatch`
    per drifted cell — never stops at the first."""
    key_index = headers.index(key_header)
    for cells in rows:
        quoted = cells[key_index]
        match = None
        for archived in archived_rows:
            candidate = archived.get(key_column)
            if isinstance(quoted, (int, float)) or isinstance(candidate, (int, float)):
                if values_match(quoted, candidate):
                    match = archived
                    break
                continue
            quoted_key = str(quoted).split()[0].split(":")[0].split("(")[0]
            archived_key = str(candidate).split(":")[0]
            if archived_key.startswith(quoted_key) or quoted_key.startswith(
                archived_key
            ):
                match = archived
                break
        if match is None:
            yield Mismatch(
                name, str(cells[key_index]), "<row>", cells[key_index],
                "<absent>", "row match",
            )
            continue
        for header, column in columns.items():
            if header not in headers:
                continue
            quoted = cells[headers.index(header)]
            if isinstance(column, tuple):
                archived_value = tuple(match.get(part) for part in column)
            else:
                archived_value = match.get(column)
            if not values_match(quoted, archived_value):
                yield Mismatch(
                    name, str(cells[key_index]), header, quoted,
                    archived_value, tolerance_label(quoted, archived_value),
                )


#: Drift-check dispatch: (required headers, stem, key header, key
#: column, column map). First signature match wins, so tables with
#: distinctive headers (cluster's mode/scheduled, scaling's workers)
#: come before the broader clients/kills signatures.
DRIFT_TABLES = (
    (("mode", "scheduled"), "cluster", "mode", "mode", CLUSTER_COLUMNS),
    (
        ("workers", "completed"),
        "cluster_scaling",
        "workers",
        "workers",
        CLUSTER_SCALING_COLUMNS,
    ),
    (
        ("workload", "adp_vs_worst"),
        "adaptive_tuning",
        "workload",
        "workload",
        ADAPTIVE_COLUMNS,
    ),
    (("clients", "kills"), "failover", "clients", "clients", FAILOVER_COLUMNS),
    (
        ("fault rate", "trips / re-arms"),
        "resilience",
        "fault rate",
        "fault_rate",
        RESILIENCE_COLUMNS,
    ),
    (("clients", "frames"), "serving", "clients", "clients", SERVING_COLUMNS),
    (("scenario", "eff_ratio"), "tiers", "scenario", "scenario", TIERS_COLUMNS),
    (("scenario", "kills"), "crash_recovery", "scenario", "scenario", CRASH_COLUMNS),
)

#: Tables EXPERIMENTS.md quotes but deliberately does not drift-check,
#: as (required headers, reason). Machine-dependent numbers (wall-clock
#: rates, latency profiles) and prose roll-ups of already-gated tables
#: belong here; everything else must match a DRIFT_TABLES signature.
UNGATED_TABLES = (
    (("claim", "paper"), "headline roll-up of already-gated tables"),
    (("scheme", "paper scale"), "paper-scale appendix, regenerated manually"),
    (("stage", "total ms"), "machine-dependent latency profile"),
)


def classify_table(headers):
    """(kind, label) for one table: which gate covers it, if any."""
    for required, stem, *_ in DRIFT_TABLES:
        if all(header in headers for header in required):
            return "gated", stem
    for required, reason in UNGATED_TABLES:
        if all(header in headers for header in required):
            return "ungated", reason
    return "unknown", ""


def drift_failures():
    if not EXPERIMENTS_MD.exists():
        return
    for table in parse_markdown_tables(EXPERIMENTS_MD.read_text()):
        for required, stem, key_header, key_column, columns in DRIFT_TABLES:
            if not all(header in table.headers for header in required):
                continue
            archived = load_archived_rows(stem)
            if archived is None:
                yield Mismatch(
                    stem, "<table>", "<archive>", "quoted",
                    f"{stem}.txt/.json not archived", "presence",
                )
                break
            yield from check_table_drift(
                stem, table.headers, table.rows, archived,
                key_header, key_column, columns,
            )
            break


def render_drift_report(mismatches):
    """Group drifted cells per table: a readable diff, not a firehose."""
    lines = []
    by_table = {}
    for mismatch in mismatches:
        by_table.setdefault(mismatch.table, []).append(mismatch)
    for table, cells in sorted(by_table.items()):
        lines.append(f"  table {table}: {len(cells)} mismatched cell(s)")
        for m in cells:
            lines.append(
                f"    row {m.row!r} column {m.column!r}: quoted {m.quoted!r}, "
                f"archived {m.archived!r} (tolerance: {m.tolerance})"
            )
    return "\n".join(lines)


def list_gates():
    """Print every EXPERIMENTS.md table and the gate covering it.

    Exit nonzero when any table matches neither a DRIFT_TABLES
    signature nor the UNGATED_TABLES allowlist — the CI workflow runs
    this so a new quoted table cannot land without choosing a camp —
    or when an UNGATED_TABLES entry matches no table, so the allowlist
    cannot outlive the tables it exempts.
    """
    if not EXPERIMENTS_MD.exists():
        print("EXPERIMENTS.md not found")
        return 1
    tables = parse_markdown_tables(EXPERIMENTS_MD.read_text())
    unknown = 0
    for table in tables:
        kind, label = classify_table(table.headers)
        where = f"L{table.line} ({table.section})"
        if kind == "gated":
            print(f"GATED    {where}: drift-checked against {label}.json")
        elif kind == "ungated":
            print(f"UNGATED  {where}: {label}")
        else:
            unknown += 1
            print(
                f"UNKNOWN  {where}: headers {table.headers!r} match no "
                "DRIFT_TABLES signature and are not allowlisted in "
                "UNGATED_TABLES"
            )
    stale = [
        required
        for required, _ in UNGATED_TABLES
        if not any(all(h in table.headers for h in required) for table in tables)
    ]
    for required in stale:
        print(
            f"STALE    UNGATED_TABLES entry {required!r} matches no "
            "EXPERIMENTS.md table"
        )
    return 1 if unknown or stale else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list-gates",
        action="store_true",
        help="enumerate every EXPERIMENTS.md table with its gate; fail "
        "if any table is neither drift-checked nor allowlisted",
    )
    args = parser.parse_args(argv)
    if args.list_gates:
        return list_gates()

    failures = [
        f"{stem}: gated archive {stem}.txt is missing"
        for stem in CHECKS
        if not (OUTPUT_DIR / f"{stem}.txt").exists()
    ]
    for path in sorted(OUTPUT_DIR.glob("*.txt")):
        text = path.read_text().splitlines()
        summaries = [line for line in text if line.startswith("summary:")]
        print(f"== {path.stem}")
        for line in summaries:
            print("  ", line)
        check = CHECKS.get(path.stem)
        if check:
            # The JSON sidecar carries the summary with full precision
            # and no line-format scraping; prefer it when archived.
            json_summary = load_archived_summary(path.stem)
            if json_summary is not None:
                for problem in check(json_summary):
                    failures.append(f"{path.stem}: {problem}")
            elif summaries:
                for line in summaries:
                    for problem in check(parse_summary(line)):
                        failures.append(f"{path.stem}: {problem}")
            else:
                failures.append(f"{path.stem}: no summary line to check")

    drift = list(drift_failures())
    print(f"== drift: {len(drift)} EXPERIMENTS.md table mismatches")
    if drift:
        print(render_drift_report(drift))
        failures.extend(
            f"{m.table} row {m.row!r}: {m.column} quoted {m.quoted!r} "
            f"vs archived {m.archived!r}"
            for m in drift
        )

    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
