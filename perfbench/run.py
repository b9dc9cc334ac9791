"""Layered benchmark of the CABLE stack: one workload per invocation.

    python3 perfbench/run.py --workload sim-gcc --seed 1 --seconds 10 --trace 0

Runs repetitions of the workload, each in a fresh process
(``perfbench/rep.py``), until ``--seconds`` of timed work is done, then
prints one JSON object as the last stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timings are in reference-host units: every repetition interleaves a
short host-speed calibration with the workload (``hostspeed.py``), cuts
it out of every timing and divides each stretch of wall time by the
slowdown measured around it, so that a shared host's drifting speed
does not read as a change in the program. ``lines_per_s`` on
cluster-paced is the achieved open-loop rate, in wall-clock seconds.
The unnormalised wall-clock figures are printed on their own line.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics: self time per layer from spans recorded around each
layer's entry points, the counts taken at the same boundaries, and the
tracing overhead (traced vs untraced CPU per access). It also prints the
per-layer table and writes the spans under ``.perfbench/``.

Every repetition checks its outputs (pinned simulated stats for
sim-gcc; completions, zero silent corruptions, clean audits and a clean
drain for the served workloads). A repetition that fails a check counts
all its accesses as failed and never contributes a timing; any failure
makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import rep as repmod

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("sim-gcc", "serve-lbm", "cluster-paced")
#: Busy processes per workload: the benchmark process (load generator,
#: in-process service, router) plus cluster worker processes.
BUSY_PROCESSES = {"sim-gcc": 1, "serve-lbm": 1, "cluster-paced": 3}
MIN_REPS = 3
MIN_TRACED_REPS = 4  # two traced, two untraced
MAX_REPS = 40
#: Stop starting repetitions once this much wall time has passed, and
#: kill one that runs longer than REP_TIMEOUT_S: a run ends within 180 s.
LAUNCH_DEADLINE_S = 110.0
REP_TIMEOUT_S = 50.0

END_TO_END = (
    ("setup_s", "s"),
    ("lines_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("effective_ratio", "ratio"),
    ("ok_frac", "fraction"),
    ("rss_mb", "MB"),
)

#: Per-layer metrics and units, in BENCHMARK.json order.
PER_LAYER = (
    # The p99 of one run moves with host noise far beyond any useful
    # bound (ten runs on a shared 2-core host spread 20-100%), so it is
    # reported here, without a bound, rather than end to end.
    ("p99_ms", "ms"),
    ("trace.self_s", "s"),
    ("cache.self_s", "s"),
    ("cache.llc_miss_rate", "fraction"),
    ("core.signature.warm_batch.self_s", "s"),
    ("core.signature.warm_batch.lines", "count"),
    ("core.search.self_s", "s"),
    ("core.search.calls", "count"),
    ("core.search.data_reads_per_search", "ratio"),
    ("core.search.useful_frac", "fraction"),
    ("core.encoder.encode.self_s", "s"),
    ("core.encoder.decode.self_s", "s"),
    ("core.encoder.writeback.self_s", "s"),
    ("core.encoder.link.self_s", "s"),
    ("compression.lbe.self_s", "s"),
    ("link.wire.encode_frame.self_s", "s"),
    ("link.wire.decode_frame.self_s", "s"),
    ("link.wire.feed.self_s", "s"),
    ("link.wire.bytes_per_frame", "B"),
    ("link.recovery.deliver.self_s", "s"),
    ("link.recovery.nack_frac", "fraction"),
    ("link.recovery.retransmits", "count"),
    ("serve.server.dispatch.self_s", "s"),
    ("serve.session.process.self_s", "s"),
    ("serve.session.access.self_s", "s"),
    ("serve.session.access.total_s", "s"),
    ("serve.session.queue_depth.p50", "count"),
    ("serve.session.backpressure_frac", "fraction"),
    ("serve.protocol.self_s", "s"),
    ("serve.transport.flushes", "count"),
    ("serve.transport.records_per_flush", "ratio"),
    ("serve.transport.flush.self_s", "s"),
    ("serve.loop.busy_frac", "fraction"),
    ("serve.cluster.start_s", "s"),
    ("serve.cluster.open_ms.p50", "ms"),
    ("serve.cluster.router.bytes_per_access", "B"),
    ("replica.records_shipped_per_access", "ratio"),
    ("bench.gen_late_ms.p99", "ms"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.unattributed_frac", "fraction"),
)


def host_record(workload: str) -> dict:
    """What the numbers were measured on."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy

    from repro.util import kernels

    cores = len(os.sched_getaffinity(0))
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "batch_backend": kernels.batch_backend(),
        "REPRO_OBS": os.environ.get("REPRO_OBS", ""),
        "REPRO_PURE_PYTHON": os.environ.get("REPRO_PURE_PYTHON", ""),
        "busy_processes": BUSY_PROCESSES[workload],
        "oversubscribed": BUSY_PROCESSES[workload] > cores,
    }


def run_rep(args, rep: int, traced: bool) -> dict:
    """One repetition in a fresh process (its own process group, so a
    timeout also reaches any cluster worker it spawned)."""
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--rep", str(rep), "--trace", str(int(traced)),
        "--t0", repr(time.monotonic()),
    ]
    if traced:
        cmd += ["--spans-out", os.path.join(OUT_DIR, f"spans-{args.workload}-rep{rep}.tsv.gz")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    why = "timed out"
    try:
        stdout, _ = proc.communicate(timeout=REP_TIMEOUT_S)
        why = f"exited {proc.returncode}"
    except subprocess.TimeoutExpired:
        stdout = ""
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    # Timed out or crashed: stop whatever is left in its group (cluster
    # workers) before reporting the failure.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    return failed_rep(args, f"repetition {rep} {why}", traced)


def failed_rep(args, why: str, traced: bool) -> dict:
    planned = repmod.planned_accesses(args.workload)
    return {"failures": [why], "traced": traced, "planned": planned, "failed": planned}


def lines_per_s(workload: str, rep: dict) -> float:
    """Accesses per reference-host second; on cluster-paced the achieved
    open-loop rate, which is set by the wall-clock schedule."""
    if workload == "cluster-paced":
        return rep["completed"] / rep["elapsed_s"]
    return rep["completed"] / rep["host_s"]


def end_to_end(workload: str, reps, attempted: int, failed: int) -> dict:
    """Medians over the repetitions that passed every check."""
    ok = [rep for rep in reps if not rep["failures"] and not rep["traced"]]
    values = {
        "setup_s": statistics.median(rep["setup_s"] for rep in ok),
        "lines_per_s": statistics.median(lines_per_s(workload, rep) for rep in ok),
        "p50_ms": statistics.median(rep["p50_ms"] for rep in ok),
        "effective_ratio": sum(rep["raw_units"] for rep in ok)
        / sum(rep["wire_units"] for rep in ok),
        "ok_frac": 1.0 - failed / attempted,
        "rss_mb": statistics.median(rep["rss_mb"] for rep in ok),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(reps) -> dict:
    ok = [rep for rep in reps if not rep["failures"]]
    traced = [rep for rep in ok if rep["traced"]]
    plain = [rep for rep in ok if not rep["traced"]]
    values = {
        name: statistics.median(rep["layers"].get(name, 0.0) for rep in traced)
        for name, _unit in PER_LAYER
    }
    values["p99_ms"] = statistics.median(rep["p99_ms"] for rep in plain)
    values["serve.loop.busy_frac"] = statistics.median(
        rep["cpu_s"] / rep["elapsed_s"] for rep in plain
    )
    def cpu_per_access(rep):
        return (rep["cpu_s"] - rep["calibration_s"]) / rep["completed"]

    values["bench.trace_overhead_frac"] = (
        statistics.median(cpu_per_access(rep) for rep in traced)
        / statistics.median(cpu_per_access(rep) for rep in plain)
        - 1.0
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def layer_table(reps) -> str:
    """Mean per traced repetition: calls, self and total time per span."""
    traced = [rep for rep in reps if rep["traced"] and not rep["failures"]]
    merged = {}
    for rep in traced:
        for name, row in rep["table"].items():
            acc = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += row[key] / len(traced)
    wall = statistics.mean(rep["elapsed_s"] for rep in traced)
    lines = [
        f"{'span':36} {'calls':>9} {'self_s':>9} {'self%':>6} {'total_s':>9} {'us/call':>8}"
    ]
    for name, row in sorted(merged.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:36} {row['calls']:9.0f} {row['self_s']:9.4f} "
            f"{100 * row['self_s'] / wall:6.1f} {row['total_s']:9.4f} "
            f"{1e6 * row['self_s'] / max(row['calls'], 1):8.1f}"
        )
    lines.append(f"traced wall per repetition: {wall:.4f} s")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description="CABLE layered benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    host = host_record(args.workload)
    if not args.trace and host["REPRO_OBS"] not in ("", "0"):
        print("REPRO_OBS is set: refusing the end-to-end pass with the obs "
              "registry enabled", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in os.listdir(OUT_DIR):
        if name.startswith(f"spans-{args.workload}-"):
            os.remove(os.path.join(OUT_DIR, name))
    print("host: " + json.dumps(host, sort_keys=True), flush=True)

    started = time.monotonic()
    min_reps = MIN_TRACED_REPS if args.trace else MIN_REPS
    reps = []
    measured = 0.0
    while len(reps) < MAX_REPS and (
        len(reps) < min_reps
        or (measured < args.seconds and time.monotonic() - started < LAUNCH_DEADLINE_S)
    ):
        traced = bool(args.trace) and len(reps) % 2 == 0
        rep = run_rep(args, len(reps), traced)
        reps.append(rep)
        measured += rep.get("elapsed_s", 0.0)
        if rep["failures"]:
            # The run is incorrect either way; more repetitions add nothing.
            print(f"repetition {len(reps) - 1} failed: {rep['failures']}", file=sys.stderr)
            break

    attempted = sum(rep["planned"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    correct = failed == 0 and all(not rep["failures"] for rep in reps)
    usable = [rep for rep in reps if not rep["failures"]]
    metrics = {}
    if usable and any(not rep["traced"] for rep in usable) and (
        not args.trace or any(rep["traced"] for rep in usable)
    ):
        metrics = (
            per_layer(reps) if args.trace
            else end_to_end(args.workload, reps, attempted, failed)
        )
    else:
        correct = False
    plain = [rep for rep in usable if not rep["traced"]]
    print(f"repetitions: {len(reps)}, measured {measured:.2f} s, "
          f"latency samples per repetition: {[rep['latency_samples'] for rep in plain]}",
          flush=True)
    if plain:
        # The unnormalised wall-clock figures, for reference only.
        print("host slowdown {:.3f}; wall clock: {:.1f} lines/s, p50 {:.4f} ms".format(
            statistics.median(rep["slowdown"] for rep in plain),
            statistics.median(rep["completed"] / rep["elapsed_s"] for rep in plain),
            statistics.median(rep["p50_wall_ms"] for rep in plain),
        ), flush=True)
    table = ""
    if args.trace and metrics:
        table = layer_table(reps)
        print(table, flush=True)
        print("bench.trace_overhead_frac: {:.4f}, bench.unattributed_frac: {:.4f}".format(
            metrics["bench.trace_overhead_frac"]["value"],
            metrics["bench.unattributed_frac"]["value"],
        ), flush=True)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "repetitions": [
            {key: value for key, value in rep.items() if key != "table"}
            for rep in reps
        ],
        "metrics": metrics,
        "layer_table": table,
    }
    suffix = "layers" if args.trace else "e2e"
    with open(os.path.join(OUT_DIR, f"{args.workload}-{suffix}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
