"""Failover mid-adaptation: kills never leave knobs torn.

The serve host applies knob changes only at epoch boundaries through
``CableLinkPair.apply_config`` (which flushes the replica slot's
journal first), so a primary killed *mid-hold* must promote a standby
whose live configuration is exactly base-plus-current-arm — never a partial
mix — and the controller either carries its settled statistics across
the promotion or abandons only the in-flight epoch. These tests kill
tuned, replicated sessions at deliberately mid-hold ordinals and check
that invariant directly against the live pairs, plus the controller's
snapshot/restore path a cold standby would use.
"""

import asyncio

from repro.replica.plan import FailoverPlan, ReplicationPolicy
from repro.serve.client import RemoteClient
from repro.serve.loadgen import run_loadgen
from repro.serve.server import LinkService
from repro.serve.session import ServeConfig
from repro.trace.stream import WorkloadModel
from repro.tune.plan import TuningPlan

#: warmup 8 + hold 8 puts epoch boundaries at accesses 8, 16, 24, …
#: so the scripted kills below land provably inside a hold.
TUNING = TuningPlan(policy="ucb1", warmup_accesses=8, hold_accesses=8)


def connect(service):
    reader, writer = service.connect_memory()
    return RemoteClient(reader, writer)


def stream_for(tag, count, stream_id=0):
    return list(WorkloadModel("gcc", seed=tag).accesses(count, stream_id))


def tuned_config(plan=None, **overrides):
    return ServeConfig(
        replication=ReplicationPolicy(batch_records=4, max_lag_records=8),
        failover=plan
        if plan is not None
        else FailoverPlan(seed=7, scripted_kills=(13, 29)),
        replica_flush_accesses=4,
        tuning=TUNING,
        **overrides,
    )


def assert_knobs_not_torn(service):
    """Every tuned session's live config is exactly base + current arm."""
    checked = 0
    for session in service.manager.sessions.values():
        tuner = session.state.tuner
        assert tuner is not None, "session ran untuned"
        pair = session.state.pair
        if tuner.current_index is None:  # killed/drained during warmup
            assert pair.config == tuner._base_config
        else:
            arm = tuner.arms[tuner.current_index]
            expected = tuner._base_config.with_overrides(
                **arm.config_overrides()
            )
            assert pair.config == expected, f"torn knobs under arm {arm.name}"
            assert pair.enabled == (tuner._base_enabled and arm.enabled)
        checked += 1
    assert checked, "no sessions left to audit"


class TestKillMidHold:
    def test_scripted_mid_hold_kills_stay_green(self):
        async def scenario():
            service = LinkService(tuned_config())
            client = connect(service)
            await client.open(client_tag=13)
            # Kills at accesses 13 and 29 — both mid-hold. Every access
            # still completes and the arm schedule keeps settling.
            assert await client.run(stream_for(13, 48), window=4) == 48
            await client.close(keep=True)
            assert_knobs_not_torn(service)
            report = await service.drain()
            await service.stop()
            assert report["kills"] == 2
            assert report["hot_promotions"] + report["warm_promotions"] == 2
            assert report["tuned_sessions"] == 1
            assert report["tune_epochs"] > 0
            assert report["silent_corruptions"] == 0
            assert report["audit_failures"] == 0
            assert report["drained_clean"] == 1

        asyncio.run(scenario())

    def test_kill_during_warmup_restarts_cleanly(self):
        async def scenario():
            # Access 3 is inside the tuner's warmup: no arm has been
            # pulled yet, so the promoted image must still be at base
            # config and the schedule must arm afterwards as usual.
            config = tuned_config(plan=FailoverPlan(seed=7, scripted_kills=(3,)))
            service = LinkService(config)
            client = connect(service)
            await client.open(client_tag=31)
            assert await client.run(stream_for(31, 40), window=4) == 40
            await client.close(keep=True)
            assert_knobs_not_torn(service)
            report = await service.drain()
            await service.stop()
            assert report["kills"] == 1
            assert report["tune_epochs"] > 0
            assert report["silent_corruptions"] == 0
            assert report["audit_failures"] == 0
            assert report["drained_clean"] == 1

        asyncio.run(scenario())

    def test_randomized_kill_campaign_with_tuning(self):
        async def scenario():
            config = tuned_config(
                plan=FailoverPlan(
                    seed=7,
                    kill_rate=0.05,
                    scripted_kills=(13,),
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
            assert drain["kills"] >= 8
            assert drain["tuned_sessions"] == 8
            assert drain["tune_epochs"] > 0
            assert drain["catch_ups"] > 0  # sabotage forced standby heals
            assert drain["silent_corruptions"] == 0
            assert drain["audit_failures"] == 0

        asyncio.run(scenario())

    def test_tuned_kill_campaign_is_deterministic(self):
        async def run_once():
            config = tuned_config(
                plan=FailoverPlan(
                    seed=7, kill_rate=0.05, scripted_kills=(13,), batch_drop_rate=0.1
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
                    "tune_epochs",
                    "tune_switches",
                )
            )

        # Both the kill ledger and the arm schedule key off per-session
        # access ordinals, so the merged roll-up is interleaving-proof.
        assert asyncio.run(run_once()) == asyncio.run(run_once())


class TestControllerRestore:
    """The snapshot path a *cold* standby uses to resume the schedule."""

    def test_snapshot_restores_into_fresh_session(self):
        async def scenario():
            # Primary: run far enough to settle several epochs.
            primary = LinkService(tuned_config(plan=FailoverPlan(seed=7)))
            client = connect(primary)
            await client.open(client_tag=5)
            assert await client.run(stream_for(5, 40), window=4) == 40
            await client.close(keep=True)
            state_a = next(iter(primary.manager.sessions.values())).state
            tuner_a = state_a.tuner
            snapshot = tuner_a.state_snapshot()
            assert snapshot["epochs"] > 1 and snapshot["current_index"] is not None

            # Cold standby: an untouched session under the same config
            # and tag restores the snapshot before serving anything.
            standby = LinkService(tuned_config(plan=FailoverPlan(seed=7)))
            resumer = connect(standby)
            await resumer.open(client_tag=5)
            state_b = next(iter(standby.manager.sessions.values())).state
            tuner_b = state_b.tuner
            tuner_b.restore_state(snapshot)

            # Settled statistics carried over; the restored arm was
            # re-applied through apply_config, so the live config is
            # base + arm — identical to the primary's — and a fresh
            # epoch baseline was taken (the torn one never crosses).
            assert tuner_b.epochs == tuner_a.epochs
            assert tuner_b.switches == tuner_a.switches
            assert tuner_b.policy.state_snapshot() == tuner_a.policy.state_snapshot()
            assert tuner_b.current_index == tuner_a.current_index
            assert state_b.pair.config == state_a.pair.config
            assert state_b.pair.enabled == state_a.pair.enabled
            assert tuner_b._baseline is not None

            # The resumed session keeps serving verified traffic and
            # keeps adapting from where the snapshot left off.
            assert await resumer.run(stream_for(5, 24, stream_id=2), window=4) == 24
            await resumer.close(keep=True)
            assert tuner_b.epochs > snapshot["epochs"]
            assert_knobs_not_torn(standby)
            report = await standby.drain()
            await standby.stop()
            assert report["silent_corruptions"] == 0
            assert report["audit_failures"] == 0
            assert report["drained_clean"] == 1
            await primary.drain()
            await primary.stop()

        asyncio.run(scenario())
