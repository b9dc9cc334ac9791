"""Property suite for the adaptive knob tuner (repro.tune).

Three families of properties, per ROADMAP item 3's acceptance:

- **Determinism** — a fixed ``(seed, context)`` makes every policy's
  arm sequence exactly repeatable, at the policy level (hypothesis
  over seeds and reward streams) and end-to-end (two tuned simulator
  runs produce identical roll-ups and payload totals).
- **Convergence** — a dominating arm is eventually preferred: both
  bandits concentrate their pulls on an arm whose reward strictly
  dominates, for any arm count and dominant position.
- **Safety** — knob changes at epoch boundaries never alter payload
  correctness: for every arm, a pair *reconfigured* into the arm via
  ``apply_config`` is byte-identical (per-transfer payloads and
  totals) to a pair *constructed* at it — the twin-encoder check the
  headline experiment gates on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.adaptive_tuning import verify_arm_payload_equivalence
from repro.sim.memlink import MemLinkConfig, run_memlink
from repro.tune.bandit import OnOff, make_policy
from repro.tune.plan import KnobArm, TuningPlan, default_arm_space

ARMS = default_arm_space()
ARM_NAMES = [arm.name for arm in ARMS]

_KB = 1024


def small_config(**overrides) -> MemLinkConfig:
    """Small caches + short run: the cache-pressure regime, quickly."""
    config = MemLinkConfig(
        accesses=1500,
        llc_bytes=32 * _KB,
        l4_bytes=128 * _KB,
        ws_scale=32 * _KB / (1024 * _KB),
    )
    return config.scaled(**overrides)


# ----------------------------------------------------------------------
# Policy determinism
# ----------------------------------------------------------------------


class TestPolicyDeterminism:
    @given(
        policy=st.sampled_from(["epsilon", "ucb1", "onoff"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rewards=st.lists(
            st.floats(min_value=0.0, max_value=0.999), min_size=5, max_size=60
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_seed_same_arm_sequence(self, policy, seed, rewards):
        plan = TuningPlan(policy=policy, seed=seed)
        runs = []
        for _ in range(2):
            bandit = make_policy(plan, ARMS, context=("prop", seed))
            sequence = []
            for reward in rewards:
                index = bandit.select()
                bandit.update(index, reward)
                sequence.append(index)
            runs.append(sequence)
        assert runs[0] == runs[1]

    @given(
        policy=st.sampled_from(["epsilon", "ucb1", "onoff"]),
        seed=st.integers(min_value=0, max_value=2**16),
        split=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_snapshot_restore_resumes_identically(self, policy, seed, split):
        plan = TuningPlan(policy=policy, seed=seed)
        reference = make_policy(plan, ARMS, context=("snap",))
        rewards = [((i * 37) % 100) / 100.0 for i in range(split + 25)]
        for reward in rewards[:split]:
            reference.update(reference.select(), reward)
        snapshot = reference.state_snapshot()

        resumed = make_policy(plan, ARMS, context=("different", "context"))
        resumed.restore_state(snapshot)
        tail_ref, tail_res = [], []
        for reward in rewards[split:]:
            i = reference.select()
            reference.update(i, reward)
            tail_ref.append(i)
            j = resumed.select()
            resumed.update(j, reward)
            tail_res.append(j)
        assert tail_ref == tail_res
        assert reference.state_snapshot() == resumed.state_snapshot()

    def test_snapshot_rejects_foreign_policy_and_arms(self):
        plan = TuningPlan(policy="ucb1")
        bandit = make_policy(plan, ARMS)
        snapshot = bandit.state_snapshot()
        other = make_policy(TuningPlan(policy="epsilon"), ARMS)
        with pytest.raises(ValueError):
            other.restore_state(snapshot)
        shrunk = make_policy(plan, ARMS[:3])
        with pytest.raises(ValueError):
            shrunk.restore_state(snapshot)


# ----------------------------------------------------------------------
# Convergence: a dominating arm is eventually preferred
# ----------------------------------------------------------------------


class TestDominatingArm:
    @given(
        policy=st.sampled_from(["epsilon", "ucb1"]),
        arm_count=st.integers(min_value=2, max_value=6),
        dominant=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_dominant_arm_collects_most_pulls(
        self, policy, arm_count, dominant, seed
    ):
        dominant %= arm_count
        arms = tuple(ARMS[:arm_count])
        plan = TuningPlan(policy=policy, seed=seed, epsilon=0.1)
        bandit = make_policy(plan, arms, context=("dom", seed))
        for _ in range(300):
            index = bandit.select()
            bandit.update(index, 0.9 if index == dominant else 0.1)
        assert bandit.best_index() == dominant
        pulls = [stat.pulls for stat in bandit.stats]
        assert pulls[dominant] == max(pulls)
        # "Eventually preferred" means concentration, not a plurality
        # tie: the dominant arm takes a majority of all pulls.
        assert pulls[dominant] > sum(pulls) / 2

    def test_onoff_stays_on_while_reward_holds(self):
        plan = TuningPlan(policy="onoff")
        bandit = make_policy(plan, ARMS, context=("hold",))
        assert isinstance(bandit, OnOff)
        for _ in range(50):
            index = bandit.select()
            bandit.update(index, 0.8)
        on_index = bandit._on_index
        assert bandit.stats[on_index].pulls >= 49  # cold start may probe off

    def test_onoff_switches_off_and_reprobes(self):
        plan = TuningPlan(policy="onoff")
        bandit = make_policy(plan, ARMS, context=("drop",))
        assert isinstance(bandit, OnOff)
        # Strong rewards establish a peak, then the payoff collapses.
        for _ in range(10):
            bandit.update(bandit.select(), 0.9)
        for _ in range(40):
            bandit.update(bandit.select(), 0.05)
        off_index = bandit._off_index
        assert bandit.stats[off_index].pulls > 0, "hysteresis never opened"
        # The every-Nth probe keeps sampling the on arm while off.
        on_pulls = bandit.stats[bandit._on_index].pulls
        assert on_pulls > 10, "off state stopped probing the on arm"


# ----------------------------------------------------------------------
# Plans and arms: validation surface
# ----------------------------------------------------------------------


class TestPlanValidation:
    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError):
            KnobArm.make("bogus", not_a_knob=1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            TuningPlan(policy="thompson")

    def test_duplicate_arm_names_rejected(self):
        plan = TuningPlan(arms=(KnobArm.make("a"), KnobArm.make("a")))
        with pytest.raises(ValueError):
            plan.resolve_arms()

    def test_wire_safe_filter_drops_engine_arm(self):
        names = [arm.name for arm in default_arm_space(wire_safe=True)]
        assert "cpack" not in names
        assert "base" in names

    def test_wire_safe_resolution_of_unsafe_only_plan_fails(self):
        plan = TuningPlan(arms=(KnobArm.make("eng", engine="cpack"),))
        with pytest.raises(ValueError):
            plan.resolve_arms(wire_safe=True)


# ----------------------------------------------------------------------
# End-to-end determinism + epoch-boundary safety
# ----------------------------------------------------------------------


class TestTunedSimulation:
    def test_tuned_run_is_deterministic(self):
        plan = TuningPlan(policy="ucb1", warmup_accesses=64, hold_accesses=64)
        config = small_config(tuning=plan)
        first = run_memlink("gcc", config)
        second = run_memlink("gcc", config)
        assert first.tuning is not None
        assert first.tuning == second.tuning
        assert first.payload_bits == second.payload_bits
        assert first.raw_bits == second.raw_bits
        assert first.tuning["epochs"] > 5

    def test_tuned_run_verifies_under_faults(self):
        # verify=True decompresses and checks every transfer while the
        # controller switches arms (engine swaps, reshapes included):
        # any epoch-boundary corruption raises DecompressionError, and
        # the recovery layer's checker counts silent escapes.
        from repro.core.config import CableConfig
        from repro.fault.plan import FaultPlan

        plan = TuningPlan(policy="epsilon", warmup_accesses=64, hold_accesses=48)
        config = small_config(
            tuning=plan, cable=CableConfig(faults=FaultPlan.uniform(0.02, seed=11))
        )
        result = run_memlink("gcc", config)
        assert result.tuning is not None
        assert result.tuning["epochs"] > 5
        assert result.tuning["switches"] > 0
        assert result.health.get("silent_corruptions", 0) == 0

    def test_warmup_matches_untuned_run(self):
        # The tuner arms exactly when counting starts, so a tuned run
        # that never leaves warmup is byte-identical to an untuned one.
        plan = TuningPlan(policy="ucb1", warmup_accesses=10**9)
        tuned = run_memlink("gcc", small_config(tuning=plan))
        untuned = run_memlink("gcc", small_config())
        assert tuned.payload_bits == untuned.payload_bits
        assert tuned.raw_bits == untuned.raw_bits
        assert tuned.tuning is not None and tuned.tuning["epochs"] == 0


@pytest.mark.parametrize("arm", ARMS, ids=ARM_NAMES)
def test_twin_encoder_equivalence(arm):
    """apply_config'd pair ≡ natively-constructed pair, per arm."""
    verdicts = verify_arm_payload_equivalence("smoke", "gcc", arms=(arm,))
    assert verdicts == {arm.name: True}
