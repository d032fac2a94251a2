"""Scheduler suite tests: every scheduler honors the model contract."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.macsim.errors import ConfigurationError
from repro.macsim.schedulers import (JitteredRoundScheduler,
                                     MaxDelayScheduler,
                                     PartitionScheduler,
                                     RandomDelayScheduler,
                                     ScriptedScheduler, ScriptedStep,
                                     SilencingScheduler,
                                     StaggeredScheduler,
                                     SynchronousScheduler)

NEIGHBORS = ("a", "b", "c")


def plan_of(scheduler, start=0.0, neighbors=NEIGHBORS, sender="s"):
    plan = scheduler.plan(sender=sender, message="m", start_time=start,
                          neighbors=neighbors)
    plan.validate(start_time=start, neighbors=neighbors,
                  f_ack=scheduler.f_ack)
    return plan


class TestSynchronous:
    def test_delivers_at_next_boundary(self):
        sched = SynchronousScheduler(2.0)
        plan = plan_of(sched, start=0.0)
        assert all(t == 2.0 for t in plan.deliveries.values())
        assert plan.ack_time == 2.0

    def test_broadcast_at_boundary_lands_next_round(self):
        sched = SynchronousScheduler(1.0)
        plan = plan_of(sched, start=3.0)
        assert plan.ack_time == 4.0

    def test_round_of(self):
        sched = SynchronousScheduler(0.5)
        assert sched.round_of(2.5) == 5

    def test_rejects_bad_round_length(self):
        with pytest.raises(ValueError):
            SynchronousScheduler(0.0)


class TestRandomDelay:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_plans_always_valid(self, seed):
        sched = RandomDelayScheduler(2.0, seed=seed)
        for start in (0.0, 1.7, 42.42):
            plan_of(sched, start=start)

    def test_min_fraction_respected(self):
        sched = RandomDelayScheduler(10.0, seed=1, min_fraction=0.5)
        plan = plan_of(sched)
        assert all(t >= 5.0 for t in plan.deliveries.values())

    def test_deterministic_for_seed(self):
        a = RandomDelayScheduler(1.0, seed=7)
        b = RandomDelayScheduler(1.0, seed=7)
        assert plan_of(a) == plan_of(b)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RandomDelayScheduler(0.0)
        with pytest.raises(ValueError):
            RandomDelayScheduler(1.0, min_fraction=1.5)


class TestJittered:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_plans_always_valid(self, seed):
        sched = JitteredRoundScheduler(1.0, jitter=0.3, seed=seed)
        plan_of(sched, start=2.0)


class TestInlinedDraws:
    """Both random schedulers spell ``Random.uniform`` inline; the
    references below are the ``uniform``-calling plans they replaced,
    and every float must be equal, not close."""

    @staticmethod
    def _broadcasts(count=1_000):
        rng = random.Random(99)
        for _ in range(count):
            yield (rng.uniform(0.0, 500.0),
                   tuple(range(rng.randint(0, 6))))

    @pytest.mark.parametrize("seed,min_fraction",
                             [(0, 0.0), (1, 0.3), (12345, 0.75)])
    def test_random_delay_equals_uniform_reference(self, seed,
                                                   min_fraction):
        f_ack = 1.7
        sched = RandomDelayScheduler(f_ack, seed=seed,
                                     min_fraction=min_fraction)
        rng = random.Random(seed)
        lo = min_fraction * f_ack
        for start, neighbors in self._broadcasts():
            plan = sched.plan(sender="s", message="m", start_time=start,
                              neighbors=neighbors)
            deliveries = {v: start + rng.uniform(lo, f_ack)
                          for v in neighbors}
            latest = max(deliveries.values(), default=start)
            ack_time = rng.uniform(latest, start + f_ack)
            assert dict(plan.deliveries) == deliveries
            assert plan.ack_time == ack_time

    @pytest.mark.parametrize("seed,jitter", [(0, 0.25), (7, 0.0),
                                             (31, 0.9)])
    def test_jittered_equals_uniform_reference(self, seed, jitter):
        length = 1.3
        sched = JitteredRoundScheduler(length, jitter=jitter, seed=seed)
        rng = random.Random(seed)
        span = length * jitter
        for start, neighbors in self._broadcasts():
            plan = sched.plan(sender="s", message="m", start_time=start,
                              neighbors=neighbors)
            base = start + length * (1.0 - jitter)
            deliveries = {v: base + rng.uniform(0.0, span)
                          for v in neighbors}
            latest = max(deliveries.values(), default=start)
            ack_time = max(latest, min(latest + rng.uniform(0.0, span),
                                       start + sched.f_ack))
            assert dict(plan.deliveries) == deliveries
            assert plan.ack_time == ack_time


class TestMaxDelay:
    def test_everything_at_deadline(self):
        sched = MaxDelayScheduler(3.0)
        plan = plan_of(sched, start=1.0)
        assert all(t == 4.0 for t in plan.deliveries.values())
        assert plan.ack_time == 4.0


class TestSilencing:
    def test_silenced_node_delayed_until_release(self):
        inner = SynchronousScheduler(1.0)
        sched = SilencingScheduler(inner, ["s"], release_time=10.0)
        plan = plan_of(sched, start=0.0)
        assert all(t >= 10.0 for t in plan.deliveries.values())

    def test_other_nodes_unaffected(self):
        inner = SynchronousScheduler(1.0)
        sched = SilencingScheduler(inner, ["x"], release_time=10.0)
        plan = plan_of(sched, start=0.0)
        assert plan.ack_time == 1.0

    def test_after_release_behaves_normally(self):
        inner = SynchronousScheduler(1.0)
        sched = SilencingScheduler(inner, ["s"], release_time=5.0)
        plan = plan_of(sched, start=7.0)
        assert plan.ack_time == 8.0

    def test_release_snaps_to_round_boundary(self):
        inner = SynchronousScheduler(2.0)
        sched = SilencingScheduler(inner, ["s"], release_time=5.0)
        plan = plan_of(sched, start=0.0)
        assert plan.ack_time == 6.0  # first boundary >= 5


class TestStaggered:
    def test_neighbors_receive_in_order(self):
        sched = StaggeredScheduler(1.0, max_degree=8)
        plan = plan_of(sched)
        times = [plan.deliveries[v] for v in NEIGHBORS]
        assert times == sorted(times)
        assert plan.ack_time > max(times)

    def test_reverse_order(self):
        sched = StaggeredScheduler(1.0, max_degree=8, reverse=True)
        plan = plan_of(sched)
        assert (plan.deliveries[NEIGHBORS[0]]
                > plan.deliveries[NEIGHBORS[-1]])

    def test_degree_guard(self):
        sched = StaggeredScheduler(1.0, max_degree=2)
        with pytest.raises(ValueError):
            plan_of(sched)


class TestPartition:
    def test_cross_cut_deliveries_delayed(self):
        inner = SynchronousScheduler(1.0)
        sched = PartitionScheduler(inner, side_a=["a"],
                                   release_time=10.0)
        plan = sched.plan(sender="a", message="m", start_time=0.0,
                          neighbors=("b", "c"))
        assert all(t >= 10.0 for t in plan.deliveries.values())

    def test_same_side_deliveries_prompt(self):
        inner = SynchronousScheduler(1.0)
        sched = PartitionScheduler(inner, side_a=["a", "b"],
                                   release_time=10.0)
        plan = sched.plan(sender="a", message="m", start_time=0.0,
                          neighbors=("b",))
        assert plan.deliveries["b"] == 1.0


class TestScripted:
    def test_steps_replay_in_sequence(self):
        sched = ScriptedScheduler({
            "s": [ScriptedStep({"a": 1.0, "b": 2.0}, ack_offset=3.0),
                  ScriptedStep({"a": 0.5, "b": 0.5}, ack_offset=1.0)],
        })
        p1 = sched.plan(sender="s", message="m", start_time=0.0,
                        neighbors=("a", "b"))
        assert p1.deliveries == {"a": 1.0, "b": 2.0}
        p2 = sched.plan(sender="s", message="m", start_time=5.0,
                        neighbors=("a", "b"))
        assert p2.ack_time == 6.0

    def test_fallback_after_script_exhausted(self):
        sched = ScriptedScheduler(
            {"s": [ScriptedStep({}, ack_offset=1.0)]},
            fallback=MaxDelayScheduler(2.0))
        sched.plan(sender="s", message="m", start_time=0.0,
                   neighbors=())
        plan = sched.plan(sender="s", message="m", start_time=0.0,
                          neighbors=("a",))
        assert plan.deliveries["a"] == 2.0

    def test_unlisted_neighbor_defaults_to_ack_offset(self):
        sched = ScriptedScheduler({
            "s": [ScriptedStep({"a": 1.0}, ack_offset=4.0)],
        })
        plan = sched.plan(sender="s", message="m", start_time=0.0,
                          neighbors=("a", "b"))
        assert plan.deliveries["b"] == 4.0

    def test_invalid_script_rejected(self):
        with pytest.raises(ConfigurationError):
            ScriptedScheduler({
                "s": [ScriptedStep({"a": 5.0}, ack_offset=1.0)],
            })
        with pytest.raises(ConfigurationError):
            ScriptedScheduler(
                {"s": [ScriptedStep({"a": 500.0}, ack_offset=500.0)]},
                f_ack=100.0)
