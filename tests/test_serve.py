"""The link service end to end over in-process byte streams.

Each test runs the full stack — RemoteClient ⇄ stream records ⇄
LinkService ⇄ verified CableLinkPair — over memory pipes (arbitrary
chunk boundaries, no sockets). The invariants pinned here are the
serving layer's contract:

- every access completes with every frame checked client-side
  (length, CRC-16 and sequence tag); the bit-exact token parse runs
  once, server-side in ``ReliableLink.deliver``, over the bytes that
  CRC covers;
- send queues are bounded: overflow surfaces as RETRY/backpressure,
  never as unbounded buffering or data loss;
- injected wire damage is detected and repaired via NACK/retransmit,
  with zero silent corruptions;
- shutdown is a graceful drain whose final audit is clean.
"""

import asyncio
import random
import struct

import pytest

from repro.serve.client import RemoteClient, SessionRejected
from repro.serve.loadgen import Driver, client_tag, connector, run_loadgen
from repro.serve.server import LinkService
from repro.serve.session import ServeConfig, synthetic_line
from repro.serve.transport import StreamSender
from repro.trace.stream import WorkloadModel


def connect(service):
    reader, writer = service.connect_memory()
    return RemoteClient(reader, writer)


def stream_for(tag, count, stream_id=0, benchmark="gcc"):
    return list(WorkloadModel(benchmark, seed=tag).accesses(count, stream_id))


class TestRoundtrip:
    def test_single_client_completes_all_verified(self):
        async def scenario():
            service = LinkService(ServeConfig())
            client = connect(service)
            opened = await client.open(client_tag=11)
            assert opened.session_id == 1
            assert not opened.resumed
            accesses = stream_for(11, 64)
            completed = await client.run(accesses, window=8)
            assert completed == len(accesses)
            # Every completion implies every frame passed the client's
            # frame check; a clean run has no NACK traffic.
            assert client.stats["frames"] >= completed
            assert client.stats["crc_errors"] == 0
            assert client.stats["nacks"] == 0
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["accesses"] == len(accesses)
            assert report["silent_corruptions"] == 0
            assert report["audit_failures"] == 0
            assert report["drained_clean"] == 1

        asyncio.run(scenario())

    def test_synthetic_backing_store_is_deterministic(self):
        # The server's backing store depends only on (tag, addr): two
        # services given the same client tag serve identical lines —
        # the property the drift checks lean on.
        assert synthetic_line(7, 0x40) == synthetic_line(7, 0x40)
        assert synthetic_line(7, 0x40) != synthetic_line(8, 0x40)

        # The memoized archetypes give the bytes of the direct seeded
        # draw, the oracle the archived serving tables were made with.
        def seeded_line(tag, addr, line_bytes=64):
            rng = random.Random((tag << 3) | (addr % 5))
            words = [rng.getrandbits(32) | 0x01000000 for _ in range(line_bytes // 4)]
            line = bytearray(struct.pack(f"<{len(words)}I", *words))
            struct.pack_into("<I", line, line_bytes - 4, addr & 0xFFFFFFFF)
            return bytes(line)

        for tag in (0, 7, 0x5A, 0xFFFFFFFF):
            for addr in (0, 1, 4, 5, 0x40, 0x3FFFF, 1 << 40):
                for line_bytes in (32, 64, 128):
                    assert synthetic_line(tag, addr, line_bytes) == seeded_line(
                        tag, addr, line_bytes
                    )

    def test_writes_round_trip_through_home(self):
        async def scenario():
            service = LinkService(ServeConfig())
            client = connect(service)
            await client.open(client_tag=3)
            accesses = stream_for(3, 96, benchmark="omnetpp")
            assert any(a.is_write for a in accesses)
            completed = await client.run(accesses, window=4)
            assert completed == len(accesses)
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["drained_clean"] == 1

        asyncio.run(scenario())


class TestBackpressure:
    def test_queue_overflow_is_retry_not_loss(self):
        async def scenario():
            # Burst window wider than the queue: the reader enqueues a
            # whole decoded batch before the worker runs, so overflow
            # is guaranteed, answered with RETRY, and recovered.
            config = ServeConfig(queue_depth=2, retry_after_ms=1)
            service = LinkService(config)
            client = connect(service)
            await client.open(client_tag=5)
            accesses = stream_for(5, 48)
            completed = await client.run(accesses, window=16)
            assert completed == len(accesses)
            assert client.stats["backpressure"] > 0
            assert client.stats["retries"] == client.stats["backpressure"]
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["accesses"] == len(accesses)
            assert report["drained_clean"] == 1

        asyncio.run(scenario())

    def test_session_cap_rejects_open(self):
        async def scenario():
            service = LinkService(ServeConfig(max_sessions=1))
            first = connect(service)
            await first.open(client_tag=1)
            second = connect(service)
            with pytest.raises(SessionRejected):
                await second.open(client_tag=2)
            await second.close()
            await first.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert service.manager.stats["rejected_opens"] == 1
            assert report["drained_clean"] == 1

        asyncio.run(scenario())


class TestFaultRecovery:
    def test_wire_faults_are_nacked_and_retransmitted(self):
        from repro.fault.plan import FaultPlan

        damaged = []

        def count_damage(session):
            corrupt = session.wire_faults.corrupt

            def counting_corrupt(data, bits):
                shipped, shipped_bits = corrupt(data, bits)
                # A frame cut to nothing ships as a drop, not damage.
                if shipped_bits > 0 and (shipped, shipped_bits) != (data, bits):
                    damaged.append(shipped_bits)
                return shipped, shipped_bits

            session.wire_faults.corrupt = counting_corrupt

        async def scenario():
            config = ServeConfig(faults=FaultPlan.uniform(0.08, seed=901))
            service = LinkService(config)
            service.manager.on_open = count_damage
            client = connect(service)
            await client.open(client_tag=17)
            accesses = stream_for(17, 80)
            completed = await client.run(accesses, window=8)
            assert completed == len(accesses)
            assert client.stats["nacks"] > 0
            # Every damaged frame that reached the client was caught.
            assert damaged
            assert client.stats["crc_errors"] == len(damaged)
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["retransmits"] > 0
            assert report["silent_corruptions"] == 0
            assert report["audit_failures"] == 0

        asyncio.run(scenario())


class TestGracefulDrain:
    def test_drain_rejects_new_sessions(self):
        async def scenario():
            service = LinkService(ServeConfig())
            client = connect(service)
            await client.open(client_tag=9)
            await client.run(stream_for(9, 8), window=4)
            await client.close(keep=True)
            await service.drain()
            late = connect(service)
            with pytest.raises(SessionRejected):
                await late.open(client_tag=10)
            await late.close()
            await service.stop()

        asyncio.run(scenario())

    def test_drain_is_idempotent_and_checkpointed(self):
        async def scenario():
            service = LinkService(ServeConfig())
            client = connect(service)
            await client.open(client_tag=2)
            await client.run(stream_for(2, 24), window=4)
            await client.close(keep=True)
            first = await service.drain()
            second = await service.drain()
            await service.stop()
            assert first["drained_clean"] == 1
            # Draining twice re-audits the same checkpointed state.
            assert second["audit_failures"] == 0

        asyncio.run(scenario())

    def test_drain_roundtrips_with_and_without_an_index(self):
        # The broadcast DRAIN is empty; the refusal of one ACCESS names
        # its index, index 0 included.
        from repro.link.wire import FrameDecoder
        from repro.serve import protocol

        stream = (
            protocol.encode_drain()
            + protocol.encode_drain(0)
            + protocol.encode_drain(0xFFFFFFFF)
        )
        records = FrameDecoder().feed(stream)
        assert [channel for channel, _, _ in records] == [protocol.MSG_DRAIN] * 3
        assert [protocol.decode_drain(payload) for _, payload, _ in records] == [
            None,
            0,
            0xFFFFFFFF,
        ]


class TestLoadgen:
    def test_loadgen_report_rolls_up_clients(self):
        async def scenario():
            service = LinkService(ServeConfig())
            report = await run_loadgen(
                clients=4, accesses=24, service=service, seed=77
            )
            assert report.ok
            assert report.completed == 4 * 24
            assert report.sessions_peak == 4
            assert report.p99_ms >= report.p50_ms > 0

        asyncio.run(scenario())

    def test_client_tags_are_deterministic(self):
        tags = [client_tag(123, i) for i in range(8)]
        assert tags == [client_tag(123, i) for i in range(8)]
        assert len(set(tags)) == 8

    def test_driver_resumes_a_cut_connection_by_tag(self):
        # Drop the server's side of the pipe mid-batch, as a dying
        # worker would: the client must reopen by tag, resume the same
        # session, replay only its holes, and leave an auditable drain.
        async def scenario():
            service = LinkService(ServeConfig())
            transfers = []

            def cut_mid_batch(session):
                def listen(record):
                    transfers.append(record)
                    if len(transfers) == 40:
                        session.sender.writer.close()

                session.pair.listeners.append(listen)

            service.manager.on_open = cut_mid_batch
            driver = Driver(0, 0x5A, connector(service), window=8)
            await driver.run_batch(120)
            cut = dict(driver.stats)
            # A clean BYE between batches: the reopen echoes the
            # progress the session reached, so it resumes unrebuilt.
            await driver.run_batch(20)
            report = await service.drain()
            await service.stop()
            return cut, driver.stats, report

        cut, stats, report = asyncio.run(scenario())
        assert cut["reconnects"] >= 1
        assert cut["resumed"] >= 1
        assert cut["lost_sessions"] == 0
        assert cut["completed"] == cut["planned"] == 120
        assert stats["resumed"] == cut["resumed"] + 1
        assert stats["rebuilt"] == cut["rebuilt"]
        assert stats["completed"] == stats["planned"] == 140
        assert report["sessions"] == 1
        assert report["silent_corruptions"] == 0
        assert report["audit_failures"] == 0
        assert report["drained_clean"] == 1

    def test_driver_gives_up_on_a_tag_refused_for_good(self, monkeypatch):
        # A full service refuses the open on every retry; the batch
        # must end short instead of spinning forever.
        from repro.serve import loadgen

        monkeypatch.setattr(loadgen, "GIVE_UP_S", 0.2)

        async def scenario():
            service = LinkService(ServeConfig(max_sessions=1))
            holder = connect(service)
            await holder.open(client_tag=1)
            driver = Driver(0, 2, connector(service))
            await asyncio.wait_for(driver.run_batch(8), timeout=10)
            await holder.close(keep=True)
            await service.drain()
            await service.stop()
            return driver.stats

        stats = asyncio.run(scenario())
        assert stats["completed"] == 0 < stats["planned"]
        assert stats["rejected_opens"] >= 2

    def test_driver_stops_when_the_service_drains(self):
        # DRAIN means the service is going away: reopening would only
        # be refused, so the batch ends with what completed.
        async def scenario():
            service = LinkService(ServeConfig())
            transfers = []
            shutdown = []

            async def drain_and_stop():
                report = await service.drain()
                await service.stop()
                return report

            def drain_mid_batch(session):
                def listen(record):
                    transfers.append(record)
                    if len(transfers) == 40:
                        shutdown.append(asyncio.ensure_future(drain_and_stop()))

                session.pair.listeners.append(listen)

            service.manager.on_open = drain_mid_batch
            driver = Driver(0, 0x5B, connector(service))
            await asyncio.wait_for(driver.run_batch(400), timeout=10)
            return driver.stats, await shutdown[0]

        stats, report = asyncio.run(scenario())
        assert 0 < stats["completed"] < stats["planned"]
        assert stats["reconnects"] == 0
        assert report["drained_clean"] == 1

    def test_driver_stops_waiting_on_accesses_refused_by_a_drain(self):
        # A drain without stop() keeps the connection open. The
        # accesses the service refused while draining are never
        # answered, so the client must stop waiting on them.
        async def scenario():
            service = LinkService(ServeConfig())
            transfers = []
            drains = []

            def drain_mid_batch(session):
                def listen(record):
                    transfers.append(record)
                    if len(transfers) == 40:
                        drains.append(asyncio.ensure_future(service.drain()))

                session.pair.listeners.append(listen)

            service.manager.on_open = drain_mid_batch
            driver = Driver(0, 0x5C, connector(service))
            await asyncio.wait_for(driver.run_batch(400), timeout=5)
            report = await drains[0]
            await service.stop()
            return driver.stats, report

        stats, report = asyncio.run(scenario())
        assert 0 < stats["completed"] < stats["planned"]
        assert stats["reconnects"] == 0
        assert report["drained_clean"] == 1

    def test_loadgen_cli_memory_mode(self, capsys):
        from repro.serve.loadgen import main

        assert main(["--memory", "--clients", "2", "--accesses", "12"]) == 0
        out = capsys.readouterr().out
        assert "completed: 24" in out
        assert "drained_clean: True" in out


class TestObservability:
    @pytest.fixture
    def metrics(self):
        from repro.obs.registry import METRICS

        was_enabled = METRICS.enabled
        # With REPRO_OBS=1 the earlier tests counted into it too.
        METRICS.reset()
        METRICS.enable()
        try:
            yield METRICS
        finally:
            METRICS.reset()
            if not was_enabled:
                METRICS.disable()

    def test_serve_counters_record_a_run(self, metrics):
        async def scenario():
            service = LinkService(ServeConfig())
            report = await run_loadgen(
                clients=2, accesses=16, service=service, seed=5
            )
            assert report.ok

        asyncio.run(scenario())
        assert metrics.counter("serve.sessions_opened").value == 2
        assert metrics.counter("serve.accesses").value == 32
        assert metrics.counter("serve.frames_sent").value >= 32
        assert metrics.counter("serve.writer_flushes").value > 0
        assert metrics.histogram("serve.queue_depth").count > 0
        assert metrics.histogram("serve.rtt_us").count == 32
        assert metrics.counter("serve.drains").value == 1

    def test_dropped_frames_counter_matches_sessions(self, metrics):
        # Every shipped frame is truncated; the ones cut to zero bits
        # never reach the wire and must count as drops in the registry
        # exactly as in the sessions' own stats.
        from repro.fault.plan import FaultPlan

        async def scenario():
            config = ServeConfig(faults=FaultPlan(seed=3, truncate_rate=1.0))
            service = LinkService(config)
            report = await run_loadgen(clients=2, accesses=200, service=service)
            assert report.ok
            return sum(
                session.stats["dropped_frames"]
                for session in service.manager.sessions.values()
            )

        dropped = asyncio.run(scenario())
        assert dropped > 0
        assert metrics.counter("serve.frames_dropped").value == dropped


class TestFraming:
    def test_each_transfer_is_framed_once(self, monkeypatch):
        # The session ships the frame ReliableLink encoded and decoded
        # for the transfer; nothing on the served path encodes another.
        import sys

        from repro.fault.plan import FaultPlan
        from repro.link import wire
        from repro.serve import protocol

        original = wire.encode_frame
        calls = []

        def counting_encode_frame(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting_encode_frame)

        records = {}

        def listen(session):
            records[session.client_tag] = shipped = []
            session.pair.listeners.append(shipped.append)

        async def scenario():
            # A window wide enough to keep every frame of the run.
            config = ServeConfig(
                faults=FaultPlan.uniform(0.02, seed=5), retransmit_window=1024
            )
            service = LinkService(config)
            service.manager.on_open = listen
            report = await run_loadgen(
                clients=2, accesses=300, benchmark="lbm", service=service
            )
            assert report.ok
            return list(service.manager.sessions.values())

        sessions = asyncio.run(scenario())
        assert len(sessions) == 2
        framed = sum(
            s.pair.health["transfers"] + s.pair.health["retries"] for s in sessions
        )
        assert len(calls) == framed
        for session in sessions:
            shipped = records[session.client_tag]
            assert len(shipped) == session.stats["frames"]
            # The window holds every frame, in shipping order.
            assert list(session.window.values()) == [
                (protocol.DIR_NAMES[t.direction],) + t.frame for t in shipped
            ]


class _RecordingWriter:
    """Transport stand-in that keeps each ``write()`` as one entry."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        return None


class TestStreamSender:
    def test_one_write_per_loop_pass(self):
        records = [b"frame-1", b"frame-2", b"result"]

        async def scenario():
            writer = _RecordingWriter()
            sender = StreamSender(writer)
            for record in records:
                sender.send(record)
            assert writer.writes == []  # nothing leaves mid-pass
            await asyncio.sleep(0)
            return writer.writes, sender.stats

        writes, stats = asyncio.run(scenario())
        assert writes == [b"".join(records)]
        assert stats == {
            "records": 3,
            "flushes": 1,
            "bytes": sum(len(record) for record in records),
        }

    def test_full_batch_writes_synchronously(self):
        async def scenario():
            writer = _RecordingWriter()
            sender = StreamSender(writer, max_batch_bytes=8)
            sender.send(b"1234")
            assert writer.writes == []
            sender.send(b"5678")
            assert writer.writes == [b"12345678"]
            await asyncio.sleep(0)
            return writer.writes, sender.stats["flushes"]

        assert asyncio.run(scenario()) == ([b"12345678"], 1)

    def test_drain_writes_once(self):
        async def scenario():
            writer = _RecordingWriter()
            sender = StreamSender(writer)
            sender.send(b"open")
            await sender.drain()
            assert writer.writes == [b"open"]
            await asyncio.sleep(0)
            return writer.writes, sender.stats["flushes"]

        assert asyncio.run(scenario()) == ([b"open"], 1)

    def test_drain_cancels_the_pass_end_flush(self):
        # A batch written early must not leave send()'s scheduled flush
        # behind to run later on an empty buffer.
        buffered_at_flush = []

        async def scenario():
            sender = StreamSender(_RecordingWriter())
            flush = sender.flush

            def watched_flush():
                buffered_at_flush.append(len(sender._buffer))
                flush()

            sender.flush = watched_flush
            sender.send(b"open")
            await sender.drain()
            await asyncio.sleep(0)
            await asyncio.sleep(0)

        asyncio.run(scenario())
        assert buffered_at_flush == [len(b"open")]

    def test_later_pass_gets_its_own_write(self):
        async def scenario():
            writer = _RecordingWriter()
            sender = StreamSender(writer)
            sender.send(b"first")
            await asyncio.sleep(0)
            sender.send(b"second")
            await asyncio.sleep(0)
            return writer.writes, sender.stats["flushes"]

        assert asyncio.run(scenario()) == ([b"first", b"second"], 2)

    def test_served_batching_never_collapses_to_write_through(self, monkeypatch):
        # Each FRAME must share a write with its RESULT: write-through
        # would leave one record per write.
        from repro.fault.plan import FaultPlan
        from repro.serve import server

        senders = []

        class RecordingSender(StreamSender):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                senders.append(self)

        monkeypatch.setattr(server, "StreamSender", RecordingSender)

        async def scenario():
            service = LinkService(
                ServeConfig(faults=FaultPlan.uniform(0.02, seed=5))
            )
            report = await run_loadgen(
                clients=2, accesses=300, benchmark="lbm", service=service
            )
            assert report.ok

        asyncio.run(scenario())
        assert len(senders) == 2
        records = sum(sender.stats["records"] for sender in senders)
        flushes = sum(sender.stats["flushes"] for sender in senders)
        assert records / flushes >= 2


class TestWarmLookahead:
    def test_drain_block_changes_no_output(self, monkeypatch):
        # The worker's block warm only prefetches signature extraction
        # for the block's write payloads, so serving one access per
        # wakeup or eight must leave every stat on both endpoints and
        # the client identical.
        from repro.core.signature import SignatureExtractor

        warm_calls = []
        original = SignatureExtractor.warm_batch

        def counting_warm(self, lines):
            warm_calls.append(len(lines))
            return original(self, lines)

        monkeypatch.setattr(SignatureExtractor, "warm_batch", counting_warm)
        accesses = stream_for(21, 300, benchmark="omnetpp")

        async def serve(drain_block):
            service = LinkService(ServeConfig(drain_block=drain_block))
            client = connect(service)
            await client.open(client_tag=21)
            completed = await client.run(accesses, window=8)
            assert completed == len(accesses)
            pair = service.manager.find_by_tag(21).pair
            stats = (
                dict(pair.home_encoder.stats),
                dict(pair.remote_decoder.stats),
                dict(client.stats),
            )
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["drained_clean"] == 1
            return stats

        single = asyncio.run(serve(1))
        assert not warm_calls  # one access per wakeup never warms
        blocked = asyncio.run(serve(8))
        assert warm_calls, "drain_block=8 never drained a block with writes"
        assert blocked == single
