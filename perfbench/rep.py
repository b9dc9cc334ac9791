"""One repetition of one benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition so that no
process-wide memo (kernel ``lru_cache``s, per-engine LBE/CPACK caches,
``experiments.base._CACHE``) carries over: every repetition pays for
cold caches, as a user does. The last stdout line is one JSON object.
Host-speed calibration marks (``hostspeed.py``) run inside the timed
window; ``host_s``, ``setup_s`` and the latencies are reference-host
seconds with the marks cut out, ``elapsed_s`` is plain wall time.

    python3 perfbench/rep.py --workload sim-gcc --seed 3 --rep 0 \\
        --trace 0 --t0 <time.monotonic() at spawn>

Workloads:

- ``sim-gcc``: the memory-link simulation, ``cable`` scheme, gcc
  profile, default-scale geometry (64KB LLC, 256KB L4), caches empty.
- ``serve-lbm``: an in-process ``LinkService`` over memory pipes,
  2 closed-loop ``RemoteClient``s with window 8, lbm streams, 2% wire
  faults on every category.
- ``cluster-paced``: a ``ClusterService`` (router + 2 worker
  processes, TCP loopback, buddy journal shipping), gcc streams sent
  open-loop from 2 connections at a fixed total rate; latency counts
  from when each access was due.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: sim-gcc: simulated accesses per repetition and the number of pinned
#: input sets a seed maps onto (``pinned_sim_gcc.json`` holds the
#: deterministic stats of each).
SIM_ACCESSES = 12000
SIM_INPUT_SETS = 32
#: serve-lbm: closed-loop clients, window, accesses per client.
SERVE_CLIENTS = 2
SERVE_WINDOW = 8
SERVE_ACCESSES = 2500
SERVE_FAULT_RATE = 0.02
#: cluster-paced: workers, connections, total offered rate (accesses/s,
#: about 40% of the closed-loop capacity of a 2-core host) and the
#: length of the paced window per repetition.
CLUSTER_WORKERS = 2
CLUSTER_CONNS = 2
CLUSTER_RATE = 500.0
CLUSTER_SECONDS = 5.0
#: A served repetition still incomplete this long after its last send
#: fails (its accesses all count as failed).
COMPLETION_TIMEOUT_S = 30.0
#: Host-speed calibration (``hostspeed.py``): sim-gcc marks every this
#: many accesses, the served workloads every this many seconds of loop
#: time. Each mark takes about 1 ms and is cut out of every timing.
SIM_MARK_EVERY = 100
SERVED_MARK_PERIOD_S = 0.02

PINNED = os.path.join(HERE, "pinned_sim_gcc.json")
PINNED_KEYS = ("transfers", "flits", "raw_flits", "with_references", "llc_misses")


def planned_accesses(workload: str) -> int:
    """Accesses one repetition of *workload* attempts."""
    if workload == "sim-gcc":
        return SIM_ACCESSES
    if workload == "serve-lbm":
        return SERVE_CLIENTS * SERVE_ACCESSES
    return int(CLUSTER_RATE * CLUSTER_SECONDS / CLUSTER_CONNS) * CLUSTER_CONNS


def rep_seed(seed: int, rep: int) -> int:
    """Inputs of repetition *rep* of a run with workload seed *seed*."""
    digest = hashlib.sha256(f"{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[rank]


# ----------------------------------------------------------------------
# Tracing: wrap each layer's entry points before any object is built
# ----------------------------------------------------------------------


def install_tracing():
    """Patch every layer boundary with a span wrapper; returns the
    recorder. Method patches must precede object construction, because
    the cache hierarchy captures observer callbacks as bound methods."""
    from repro.cache.hierarchy import InclusivePair
    from repro.compression.lbe import LbeCompressor
    from repro.core.encoder import CableHomeEncoder, CableLinkPair, CableRemoteDecoder
    from repro.core.search import SearchPipeline
    from repro.core.signature import SignatureExtractor
    from repro.link import wire
    from repro.link.recovery import ReliableLink
    from repro.serve import protocol, state, transport
    from repro.serve.server import LinkService
    from repro.serve.session import Session
    from repro.sim.memlink import MemLinkSimulation
    from repro.trace.stream import SharedBackingStore, WorkloadModel

    from spans import Recorder

    rec = Recorder()
    original_accesses = WorkloadModel.accesses

    def accesses(self, *args, **kwargs):
        return rec.wrap_generator(original_accesses(self, *args, **kwargs), "trace.next")

    WorkloadModel.accesses = accesses
    rec.patch_method(SharedBackingStore, "read", "trace.backing.read")
    rec.patch_method(SharedBackingStore, "peek", "trace.backing.peek")
    rec.patch_function(state, "synthetic_line", "serve.state.synthetic_line")

    rec.patch_method(InclusivePair, "access", "cache.access")

    def count_encode(args, outcome):
        rec.count("encodes")
        rec.count("encodes_with_refs", bool(outcome.payload.remote_lids))

    rec.patch_method(CableLinkPair, "_on_event", "core.encoder.link")
    rec.patch_method(CableLinkPair, "access", "serve.session.access")
    rec.patch_method(CableHomeEncoder, "encode", "core.encoder.encode", count_encode)
    rec.patch_method(CableRemoteDecoder, "decode", "core.encoder.decode")
    rec.patch_method(
        CableRemoteDecoder, "encode_writeback", "core.encoder.writeback", count_encode
    )
    rec.patch_method(CableHomeEncoder, "decode_writeback", "core.encoder.writeback_decode")
    rec.patch_method(
        SearchPipeline, "search", "core.search",
        lambda args, result: rec.count("searches"),
    )
    rec.patch_method(
        SignatureExtractor, "warm_batch", "core.signature.warm_batch",
        lambda args, result: rec.count("warm_lines", len(args[1])),
    )
    rec.patch_method(LbeCompressor, "compress_with_references", "compression.lbe.compress")
    rec.patch_method(
        LbeCompressor, "decompress_with_references", "compression.lbe.decompress"
    )

    def count_frame(args, writer):
        rec.count("frames_encoded")
        rec.count("frame_bits", writer.bit_count)

    rec.patch_function(wire, "encode_frame", "link.wire.encode_frame", count_frame)
    rec.patch_function(wire, "decode_frame", "link.wire.decode_frame")
    rec.patch_method(wire.FrameDecoder, "feed", "link.wire.feed")
    rec.patch_method(ReliableLink, "deliver", "link.recovery.deliver")

    for name, value in list(vars(protocol).items()):
        if name.startswith(("encode_", "decode_")) and getattr(
            value, "__module__", None
        ) == protocol.__name__:
            rec.patch_function(protocol, name, "serve.protocol")
    rec.patch_method(transport.StreamSender, "flush", "serve.transport.flush")
    rec.patch_method(LinkService, "_dispatch", "serve.server.dispatch")

    original_admit = Session.admit

    def admit(self, index, addr, is_write, data):
        # Sampled, not spanned: queue depth seen by each arriving access.
        depth = self.queue.qsize()
        admitted = original_admit(self, index, addr, is_write, data)
        rec.sample("queue_depth", depth)
        rec.count("admits")
        rec.count("backpressure", not admitted)
        return admitted

    Session.admit = admit
    rec.patch_method(Session, "retransmit", "serve.session.retransmit")
    rec.patch_method(Session, "_warm_block", "serve.session.warm")
    traced_process = rec.wrap(Session._process, "serve.session.process")

    def process(self, index, *args):
        rec.access = (self.client_tag << 24) | index
        try:
            return traced_process(self, index, *args)
        finally:
            rec.access = -1

    Session._process = process
    rec.patch_method(MemLinkSimulation, "_observe_cable", "sim.observe")
    return rec


#: Per-layer self-time metrics: metric name -> span names it sums.
SELF_METRICS = {
    "trace.self_s": ("trace.next", "trace.backing.read", "trace.backing.peek"),
    "cache.self_s": ("cache.access",),
    "core.signature.warm_batch.self_s": ("core.signature.warm_batch",),
    "core.search.self_s": ("core.search",),
    "core.encoder.encode.self_s": ("core.encoder.encode",),
    "core.encoder.decode.self_s": ("core.encoder.decode",),
    "core.encoder.writeback.self_s": (
        "core.encoder.writeback", "core.encoder.writeback_decode",
    ),
    "core.encoder.link.self_s": ("core.encoder.link",),
    "compression.lbe.self_s": ("compression.lbe.compress", "compression.lbe.decompress"),
    "link.wire.encode_frame.self_s": ("link.wire.encode_frame",),
    "link.wire.decode_frame.self_s": ("link.wire.decode_frame",),
    "link.wire.feed.self_s": ("link.wire.feed",),
    "link.recovery.deliver.self_s": ("link.recovery.deliver",),
    "serve.server.dispatch.self_s": ("serve.server.dispatch",),
    "serve.session.process.self_s": ("serve.session.process",),
    "serve.session.access.self_s": ("serve.session.access",),
    "serve.protocol.self_s": ("serve.protocol",),
    "serve.transport.flush.self_s": ("serve.transport.flush",),
}


def layer_metrics(rec, wall_s: float) -> dict:
    """Self-time metrics, counts and the attribution check of one
    traced window."""
    table = rec.table()
    out = {
        metric: sum(table.get(name, {}).get("self_s", 0.0) for name in names)
        for metric, names in SELF_METRICS.items()
    }
    out["serve.session.access.total_s"] = table.get(
        "serve.session.access", {}
    ).get("total_s", 0.0)
    counts = rec.counts
    out["core.signature.warm_batch.lines"] = counts.get("warm_lines", 0)
    out["core.search.calls"] = counts.get("searches", 0)
    encodes = counts.get("encodes", 0)
    out["core.search.useful_frac"] = (
        counts.get("encodes_with_refs", 0) / encodes if encodes else 0.0
    )
    frames = counts.get("frames_encoded", 0)
    out["link.wire.bytes_per_frame"] = (
        counts.get("frame_bits", 0) / 8 / frames if frames else 0.0
    )
    admits = counts.get("admits", 0)
    if admits:
        out["serve.session.queue_depth.p50"] = statistics.median(
            rec.samples["queue_depth"]
        )
        out["serve.session.backpressure_frac"] = counts.get("backpressure", 0) / admits
    attributed = rec.top_level_s()
    out["bench.unattributed_frac"] = 1.0 - attributed / wall_s if wall_s > 0 else 0.0
    return out, table


def per_search(rec, data_reads: int) -> float:
    """Cache data reads per reference search (candidate verification)."""
    searches = rec.counts.get("searches", 0)
    return data_reads / searches if searches else 0.0


# ----------------------------------------------------------------------
# sim-gcc
# ----------------------------------------------------------------------


def load_pins() -> dict:
    with open(PINNED, encoding="utf-8") as handle:
        return json.load(handle)


def sim_stats(result) -> dict:
    return {key: getattr(result, key) for key in PINNED_KEYS}


def run_sim(args, rec, host) -> dict:
    from repro.core.errors import DecompressionError
    from repro.experiments.base import memlink_config
    from repro.sim.memlink import MemLinkSimulation

    input_set = rep_seed(args.seed, args.rep) % SIM_INPUT_SETS
    config = memlink_config("default", accesses=SIM_ACCESSES, seed=input_set)
    sim = MemLinkSimulation("gcc", config)
    starts_ns, ends_ns = [], []
    access = sim.pair.access
    clock = time.perf_counter_ns

    def timed_access(line_addr, is_write=False, write_data=None):
        if len(starts_ns) % SIM_MARK_EVERY == 0:
            host.mark()
        if rec is not None:
            rec.access = len(starts_ns)
        starts_ns.append(clock())
        outcome = access(line_addr, is_write=is_write, write_data=write_data)
        ends_ns.append(clock())
        if rec is not None:
            rec.access = -1
        return outcome

    sim.pair.access = timed_access
    out = {"input_set": input_set, "planned": SIM_ACCESSES}
    setup_wall = time.monotonic() - args.t0
    failures = []
    cpu0, wall0 = time.process_time(), time.perf_counter_ns()
    if rec is not None:
        rec.active = True
    try:
        result = sim.run()
    except DecompressionError as exc:  # the per-transfer round-trip check
        failures.append(f"round-trip check failed: {exc}")
        result = None
    if rec is not None:
        rec.active = False
    wall1, cpu = time.perf_counter_ns(), time.process_time() - cpu0
    out.update(
        elapsed_s=(wall1 - wall0) / 1e9,
        host_s=host.seconds(wall0, wall1),
        setup_s=setup_wall / host.slowdown(),
        cpu_s=cpu,
        completed=len(starts_ns),
    )
    if result is not None:
        stats = sim_stats(result)
        pinned = load_pins().get(str(input_set))
        if pinned is None:
            failures.append(f"no pinned stats for input set {input_set}")
        elif stats != pinned:
            failures.append(f"simulated stats {stats} differ from pinned {pinned}")
        out["stats"] = stats
        out["raw_units"] = result.raw_flits
        out["wire_units"] = result.flits
    if len(starts_ns) != SIM_ACCESSES:
        failures.append(f"simulated {len(starts_ns)} of {SIM_ACCESSES} accesses")
    out["failed"] = SIM_ACCESSES if failures else 0
    out["intervals_ns"] = list(zip(starts_ns, ends_ns))
    out["failures"] = failures
    if rec is not None and result is not None:
        out["extra"] = {
            "cache.llc_miss_rate": result.llc_miss_rate,
            "core.search.data_reads_per_search": per_search(
                rec, sim.home.stats["data_reads"] + sim.remote.stats["data_reads"]
            ),
        }
    return out


# ----------------------------------------------------------------------
# Served workloads: shared client plumbing
# ----------------------------------------------------------------------


class CountingReader:
    """Reader proxy counting the bytes a client receives."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.bytes = 0

    async def read(self, n: int = -1) -> bytes:
        chunk = await self._reader.read(n)
        self.bytes += len(chunk)
        return chunk


def served_streams(benchmark: str, seed: int, clients: int, count: int):
    """Every client's access stream, generated before timing starts."""
    from repro.serve.loadgen import client_tag
    from repro.trace.stream import WorkloadModel

    streams = []
    for index in range(clients):
        tag = client_tag(seed, index)
        workload = WorkloadModel(benchmark, seed=tag)
        streams.append((tag, list(workload.accesses(count, stream_id=index))))
    return streams


def served_totals(clients) -> dict:
    """Client-side roll-up: completions, failures, wire ratio."""
    completed = sum(client.stats["completed"] for client in clients)
    link_failures = sum(client.stats["link_failures"] for client in clients)
    frames = sum(client.stats["frames"] for client in clients)
    received = sum(client.reader.bytes for client in clients)
    return {
        "completed": completed,
        "link_failures": link_failures,
        "frames": frames,
        "nacks": sum(client.stats["nacks"] for client in clients),
        "bytes_in": received,
        "bytes_out": sum(client.sender.stats["bytes"] for client in clients),
        # Line bytes delivered per byte the client received: every
        # verified frame carries one 64-byte line.
        "raw_units": frames * 64,
        "wire_units": received,
    }


def track_completions(client, intervals: list) -> None:
    """Append ``(sent_ns, done_ns)`` of every access *client* completes:
    the same interval as its own latency, with both ends kept so the
    calibration marks inside it can be cut out."""
    finish = client._finish_if_complete
    clock = time.perf_counter_ns

    def finish_if_complete(index, entry, pending):
        completed = client.stats["completed"]
        finish(index, entry, pending)
        if client.stats["completed"] != completed:
            intervals.append((entry.sent_ns, clock()))

    client._finish_if_complete = finish_if_complete


async def calibrated(host, coro):
    """Run *coro* with calibration marks on the event loop every
    ``SERVED_MARK_PERIOD_S``; returns the window's wall ends (ns)."""
    host.mark()
    ticker = asyncio.get_running_loop().create_task(host.ticker(SERVED_MARK_PERIOD_S))
    wall0 = time.perf_counter_ns()
    try:
        await coro
    finally:
        wall1 = time.perf_counter_ns()
        ticker.cancel()
        try:
            await ticker
        except asyncio.CancelledError:
            pass
    host.mark()
    return wall0, wall1


def serve_checks(drain: dict, totals: dict, planned: int) -> list:
    failures = []
    if totals["completed"] != planned:
        failures.append(f"completed {totals['completed']} of {planned} accesses")
    if drain.get("silent_corruptions", 0):
        failures.append(f"{drain['silent_corruptions']} silent corruptions")
    if drain.get("audit_failures", 0):
        failures.append(f"{drain['audit_failures']} sessions failed the audit")
    if not drain.get("drained_clean", 0):
        failures.append("service did not drain clean")
    if totals["link_failures"]:
        failures.append(f"{totals['link_failures']} link failures")
    return failures


# ----------------------------------------------------------------------
# serve-lbm
# ----------------------------------------------------------------------


async def run_serve(args, rec, host) -> dict:
    from repro.fault.plan import FaultPlan
    from repro.serve.client import RemoteClient
    from repro.serve.server import LinkService
    from repro.serve.session import ServeConfig

    seed = rep_seed(args.seed, args.rep)
    planned = planned_accesses("serve-lbm")
    service = LinkService(
        ServeConfig(faults=FaultPlan.uniform(SERVE_FAULT_RATE, seed=seed))
    )
    streams = served_streams("lbm", seed, SERVE_CLIENTS, SERVE_ACCESSES)
    clients = []
    intervals = []
    for tag, _stream in streams:
        reader, writer = service.connect_memory()
        client = RemoteClient(CountingReader(reader), writer)
        await client.open(client_tag=tag)
        track_completions(client, intervals)
        clients.append(client)
    setup_wall = time.monotonic() - args.t0
    out = {"planned": planned}
    cpu0 = time.process_time()
    if rec is not None:
        rec.active = True
    wall0, wall1 = await calibrated(host, asyncio.wait_for(
        asyncio.gather(
            *(
                client.run(stream, window=SERVE_WINDOW)
                for client, (_tag, stream) in zip(clients, streams)
            )
        ),
        COMPLETION_TIMEOUT_S,
    ))
    if rec is not None:
        rec.active = False
    cpu = time.process_time() - cpu0
    wall = (wall1 - wall0) / 1e9
    out.update(host_s=host.seconds(wall0, wall1), setup_s=setup_wall / host.slowdown())
    senders = [sender.stats for sender in service._senders]
    sessions = list(service.manager.sessions.values())
    for client in clients:
        await client.close(keep=True)
    drain = await service.drain()
    await service.stop()
    totals = served_totals(clients)
    failures = serve_checks(drain, totals, planned)
    out.update(
        elapsed_s=wall,
        cpu_s=cpu,
        completed=totals["completed"],
        # A repetition that fails any check counts every access as failed.
        failed=planned if failures else 0,
        raw_units=totals["raw_units"],
        wire_units=totals["wire_units"],
        intervals_ns=intervals,
        failures=failures,
        drain={key: drain[key] for key in ("accesses", "frames", "retransmits")},
    )
    if rec is not None:
        flushes = sum(stats["flushes"] for stats in senders)
        records = sum(stats["records"] for stats in senders)
        hits = sum(s.pair.pair.stats["remote_hits"] for s in sessions)
        misses = sum(s.pair.pair.stats["remote_misses"] for s in sessions)
        out["extra"] = {
            "cache.llc_miss_rate": misses / (hits + misses) if hits + misses else 0.0,
            "core.search.data_reads_per_search": per_search(rec, sum(
                s.pair.pair.home.stats["data_reads"] + s.pair.pair.remote.stats["data_reads"]
                for s in sessions
            )),
            "serve.transport.flushes": flushes,
            "serve.transport.records_per_flush": records / flushes if flushes else 0.0,
            "link.recovery.nack_frac": totals["nacks"] / drain["frames"] if drain["frames"] else 0.0,
            "link.recovery.retransmits": drain["retransmits"],
        }
    return out


# ----------------------------------------------------------------------
# cluster-paced
# ----------------------------------------------------------------------


async def paced_connection(client, stream, offset_s, interval_s, t_start_ns, late_ms):
    """Send *stream* on a fixed schedule (open loop) while a receiver
    task verifies frames; latency counts from each access's due time."""
    from repro.serve import protocol
    from repro.serve.client import _Pending

    pending = {}
    total = len(stream)

    async def receive():
        while client.stats["completed"] < total:
            record = await client._next_record()
            if record is None:
                return
            await client._handle(record, pending)

    receiver = asyncio.get_running_loop().create_task(receive())
    interval_ns = int(interval_s * 1e9)
    offset_ns = int(offset_s * 1e9)
    for index, access in enumerate(stream):
        due_ns = t_start_ns + offset_ns + index * interval_ns
        delay = (due_ns - time.perf_counter_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        late_ms.append((time.perf_counter_ns() - due_ns) / 1e6)
        record = protocol.encode_access(
            index, access.line_addr, access.is_write, access.write_data
        )
        pending[index] = _Pending(due_ns, record)
        client.sender.send(record)
        await client.sender.drain()
    await receiver


def obs_layer_metrics(obs: dict) -> dict:
    """Worker-side serve metrics from the merged registry snapshots."""
    counters = obs.get("counters", {})
    hists = obs.get("histograms", {})
    out = {}
    flushes = counters.get("serve.writer_flushes", 0)
    batch = hists.get("serve.batch_records", {})
    out["serve.transport.flushes"] = flushes
    out["serve.transport.records_per_flush"] = (
        batch.get("total", 0) / batch["count"] if batch.get("count") else 0.0
    )
    depth = hists.get("serve.queue_depth", {})
    if depth.get("count"):
        # Median from the fixed buckets: the first bound holding half.
        half, seen = depth["count"] / 2, 0
        for bound, count in zip(depth["bounds"], depth["counts"]):
            seen += count
            if seen >= half:
                out["serve.session.queue_depth.p50"] = bound
                break
    accesses = counters.get("serve.accesses", 0)
    if accesses:
        out["serve.session.backpressure_frac"] = (
            counters.get("serve.backpressure_events", 0) / accesses
        )
    frames = counters.get("serve.frames_sent", 0)
    out["link.recovery.nack_frac"] = (
        counters.get("serve.nacks_received", 0) / frames if frames else 0.0
    )
    out["link.recovery.retransmits"] = counters.get("serve.retransmits", 0)
    return out


async def run_cluster(args, rec, host) -> dict:
    from repro.serve.client import RemoteClient
    from repro.serve.cluster.config import ClusterConfig
    from repro.serve.cluster.supervisor import ClusterService

    if rec is not None:
        # Workers read REPRO_OBS at import: their registries record the
        # serve-side histograms the drain report carries back. This
        # process imported repro already and stays unobserved.
        os.environ["REPRO_OBS"] = "1"
    seed = rep_seed(args.seed, args.rep)
    planned = planned_accesses("cluster-paced")
    per_conn = planned // CLUSTER_CONNS
    service = ClusterService(ClusterConfig(workers=CLUSTER_WORKERS))
    clients = []
    drained = False
    try:
        start0 = time.perf_counter()
        host_addr, port = await service.start()
        start_s = time.perf_counter() - start0
        streams = served_streams("gcc", seed, CLUSTER_CONNS, per_conn)
        open_ms = []
        intervals = []
        for tag, _stream in streams:
            client = await RemoteClient.connect_tcp(host_addr, port)
            client.reader = CountingReader(client.reader)
            opened = time.perf_counter()
            await client.open(client_tag=tag)
            open_ms.append((time.perf_counter() - opened) * 1e3)
            track_completions(client, intervals)
            clients.append(client)
        setup_wall = time.monotonic() - args.t0
        out = {"planned": planned}
        interval = CLUSTER_CONNS / CLUSTER_RATE
        late_ms = []
        cpu0 = time.process_time()
        t_start_ns = time.perf_counter_ns()
        if rec is not None:
            rec.active = True
        wall0, wall1 = await calibrated(host, asyncio.wait_for(
            asyncio.gather(
                *(
                    paced_connection(
                        client, stream, index * interval / CLUSTER_CONNS,
                        interval, t_start_ns, late_ms,
                    )
                    for index, (client, (_tag, stream)) in enumerate(
                        zip(clients, streams)
                    )
                )
            ),
            CLUSTER_SECONDS + COMPLETION_TIMEOUT_S,
        ))
        if rec is not None:
            rec.active = False
        cpu = time.process_time() - cpu0
        wall = (wall1 - wall0) / 1e9
        out.update(host_s=host.seconds(wall0, wall1), setup_s=setup_wall / host.slowdown())
        for client in clients:
            await client.close(keep=True)
        drain = await service.drain()
        drained = True
    finally:
        if not drained:
            await service._shutdown_processes()
    totals = served_totals(clients)
    serve = drain.get("serve", {})
    failures = serve_checks(
        {**serve, "drained_clean": drain.get("drained_clean", 0)}, totals, planned
    )
    out.update(
        elapsed_s=wall,
        cpu_s=cpu,
        completed=totals["completed"],
        # A repetition that fails any check counts every access as failed.
        failed=planned if failures else 0,
        raw_units=totals["raw_units"],
        wire_units=totals["wire_units"],
        intervals_ns=intervals,
        failures=failures,
        drain={key: serve.get(key, 0) for key in ("accesses", "frames", "retransmits")},
    )
    if rec is not None:
        accesses = serve.get("accesses", 0) or 1
        extra = {
            "serve.cluster.start_s": start_s,
            "serve.cluster.open_ms.p50": statistics.median(open_ms),
            # The router splices bytes verbatim, so the bytes it moves
            # are exactly what the clients sent and received.
            "serve.cluster.router.bytes_per_access": (
                totals["bytes_in"] + totals["bytes_out"]
            ) / accesses,
            "replica.records_shipped_per_access": drain.get("shipping", {}).get(
                "records_shipped", 0
            ) / accesses,
            "bench.gen_late_ms.p99": percentile(late_ms, 0.99),
        }
        extra.update(obs_layer_metrics(drain.get("obs") or {}))
        out["extra"] = extra
    return out


# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-gcc", "serve-lbm", "cluster-paced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--spans-out", default="",
                        help="traced runs: write the spans here (gzip TSV)")
    args = parser.parse_args()
    if args.t0 is None:
        args.t0 = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from hostspeed import HostSpeed
    from repro.obs.registry import METRICS

    if METRICS.enabled:
        print("the obs registry is enabled (REPRO_OBS); refusing to time "
              "with in-program instrumentation on", file=sys.stderr)
        return 2
    rec = install_tracing() if args.trace else None
    host = HostSpeed()
    if rec is not None:
        host.mark = rec.wrap(host.mark, "bench.calibrate")
    if args.workload == "sim-gcc":
        out = run_sim(args, rec, host)
    elif args.workload == "serve-lbm":
        out = asyncio.run(run_serve(args, rec, host))
    else:
        out = asyncio.run(run_cluster(args, rec, host))
    intervals = out.pop("intervals_ns")
    out["latency_samples"] = len(intervals)
    if intervals:
        latencies = [host.seconds(sent, done) * 1e3 for sent, done in intervals]
        out["p50_ms"] = percentile(latencies, 0.50)
        out["p99_ms"] = percentile(latencies, 0.99)
        out["p50_wall_ms"] = percentile([(done - sent) / 1e6 for sent, done in intervals], 0.50)
    out["slowdown"] = host.slowdown()
    out["calibration_s"] = host.calibration_s()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["traced"] = bool(args.trace)
    if rec is not None:
        layers, table = layer_metrics(rec, out["elapsed_s"])
        layers.update(out.pop("extra", {}))
        out["layers"] = layers
        out["table"] = table
        if args.spans_out:
            rec.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
