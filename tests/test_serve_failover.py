"""Zero-downtime failover under live client traffic (serve + replica).

The serving-layer end of the tentpole: sessions armed with replication
and a kill schedule keep serving verified traffic while their primary
is killed mid-run — the standby is promoted in place, the epoch bump
rides the normal RESULT stream, stale resumes are redirected through
resync-before-grant, and the graceful drain's per-session audits stay
green. Deterministic by construction: the shipper flushes on access
ordinals, not wall clock, so kill/promotion counts are repeatable.
"""

import asyncio

import pytest

from repro.replica.plan import FailoverPlan, ReplicationPolicy
from repro.serve.client import RemoteClient
from repro.serve.loadgen import run_loadgen
from repro.serve.server import LinkService
from repro.serve.session import ServeConfig
from repro.trace.stream import WorkloadModel


def connect(service):
    reader, writer = service.connect_memory()
    return RemoteClient(reader, writer)


def stream_for(tag, count, stream_id=0):
    return list(WorkloadModel("gcc", seed=tag).accesses(count, stream_id))


def failover_config(plan=None, **overrides):
    return ServeConfig(
        replication=ReplicationPolicy(batch_records=4, max_lag_records=8),
        failover=plan
        if plan is not None
        else FailoverPlan(seed=7, scripted_kills=(5, 17)),
        replica_flush_accesses=4,
        **overrides,
    )


class TestFailoverMidTraffic:
    def test_session_survives_scripted_kills(self):
        async def scenario():
            service = LinkService(failover_config())
            client = connect(service)
            await client.open(client_tag=13)
            # The primary dies twice mid-run (access 5 and 17); every
            # access still completes and nothing escapes the checker.
            assert await client.run(stream_for(13, 40), window=4) == 40
            epoch, _ = client.progress
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["kills"] == 2
            assert report["hot_promotions"] + report["warm_promotions"] == 2
            # Each promotion checkpointed onto the promoted image: the
            # epoch bumps rode the ordinary RESULT stream to the client.
            assert epoch >= 2
            assert report["silent_corruptions"] == 0
            assert report["audit_failures"] == 0
            assert report["drained_clean"] == 1

        asyncio.run(scenario())

    def test_kill_on_flush_point_promotes_hot(self):
        async def scenario():
            # Flush cadence 4, scripted kill at access 8: the shipper
            # drained the backlog immediately before the kill roll, so
            # the standby provably holds everything — promotion is hot.
            config = failover_config(
                plan=FailoverPlan(seed=7, scripted_kills=(8,))
            )
            service = LinkService(config)
            client = connect(service)
            await client.open(client_tag=21)
            assert await client.run(stream_for(21, 24), window=4) == 24
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["kills"] == 1
            assert report["hot_promotions"] == 1
            assert report["lost_records"] == 0
            assert report["drained_clean"] == 1

        asyncio.run(scenario())

    def test_stale_reconnect_after_failover_rebuilds(self):
        async def scenario():
            service = LinkService(failover_config())
            first = connect(service)
            opened = await first.open(client_tag=47)
            await first.run(stream_for(47, 24), window=4)
            assert first.progress[0] >= 1  # at least one promotion ran
            await first.close(keep=True)

            # A client restored from a pre-failover checkpoint echoes
            # the dead primary's epoch: the server must not resume onto
            # the promoted image without proving it — resync first.
            second = connect(service)
            resumed = await second.open(
                resume_id=opened.session_id, client_tag=47, epoch=0, records=0
            )
            assert resumed.resumed and resumed.rebuilt
            assert (resumed.epoch, resumed.records) != (0, 0)
            assert await second.run(stream_for(47, 16, stream_id=2), window=4) == 16
            assert second.stats["crc_errors"] == 0
            await second.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["silent_corruptions"] == 0
            assert report["audit_failures"] == 0
            assert report["drained_clean"] == 1

        asyncio.run(scenario())


class TestKillCampaign:
    def test_eight_sessions_with_randomized_kills_stay_green(self):
        async def scenario():
            # Randomized kills on top of a scripted point, plus
            # replication-stream sabotage: dropped/corrupted batches
            # force standby catch-ups while primaries keep dying.
            config = failover_config(
                plan=FailoverPlan(
                    seed=7,
                    kill_rate=0.05,
                    scripted_kills=(6,),
                    batch_drop_rate=0.1,
                    batch_corrupt_rate=0.05,
                ),
                queue_depth=8,
            )
            service = LinkService(config)
            report = await run_loadgen(
                clients=8, accesses=40, service=service, seed=0xCAB1E, window=8
            )
            assert report.ok
            assert report.completed == 8 * 40
            drain = report.drain_report
            assert drain["kills"] >= 8  # every session killed at least once
            assert (
                drain["hot_promotions"] + drain["warm_promotions"]
                == drain["kills"]
            )
            assert drain["catch_ups"] > 0  # sabotage forced snapshot heals
            assert drain["replica_lag_peak"] <= 8
            assert drain["silent_corruptions"] == 0
            assert drain["audit_failures"] == 0

        asyncio.run(scenario())

    def test_campaign_columns_are_deterministic(self):
        async def run_once():
            config = failover_config(
                plan=FailoverPlan(
                    seed=7, kill_rate=0.05, scripted_kills=(6,), batch_drop_rate=0.1
                ),
                queue_depth=8,
            )
            service = LinkService(config)
            report = await run_loadgen(
                clients=4, accesses=32, service=service, seed=0xCAB1E, window=8
            )
            drain = report.drain_report
            return tuple(
                drain[key]
                for key in (
                    "kills",
                    "hot_promotions",
                    "warm_promotions",
                    "lost_records",
                    "catch_ups",
                    "replica_lag_peak",
                )
            )

        # Flushing on access ordinals (not wall clock) makes the whole
        # kill/promotion ledger independent of asyncio interleaving.
        assert asyncio.run(run_once()) == asyncio.run(run_once())

    def test_unreplicated_sessions_report_empty_rollup(self):
        async def scenario():
            service = LinkService(ServeConfig())
            client = connect(service)
            await client.open(client_tag=3)
            await client.run(stream_for(3, 16), window=4)
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            for key in ("kills", "hot_promotions", "warm_promotions",
                        "lost_records", "catch_ups", "batches_shipped",
                        "batches_lost", "replica_lag_peak"):
                assert report[key] == 0

        asyncio.run(scenario())

    def test_campaign_ledger_is_transport_independent(self):
        # The served campaign over memory pipes and over localhost TCP:
        # kills land on access ordinals, so the kill/promotion ledger
        # cannot depend on the transport.
        from repro.serve.campaign import run_failover_campaign

        plan = FailoverPlan(
            seed=7, kill_rate=0.05, scripted_kills=(6,), batch_drop_rate=0.1
        )
        runs = [
            run_failover_campaign(
                plan, clients=4, accesses=32, tcp=tcp, baseline=False
            )
            for tcp in (False, True)
        ]
        ledger = [
            (r.kills, r.hot_promotions, r.warm_promotions, r.lost_records,
             r.catch_ups, r.batches_shipped, r.batches_lost, r.replica_lag_peak)
            for r in runs
        ]
        assert ledger[0] == ledger[1]
        for report in runs:
            assert report.ok
            assert report.kills >= 4
            assert report.recoveries == report.kills
            assert report.completed == report.planned == 4 * 32

    def test_failover_plan_requires_replication(self):
        with pytest.raises(ValueError):
            LinkService(
                ServeConfig(failover=FailoverPlan(seed=1, scripted_kills=(2,)))
            )
