"""Ben-Or randomized consensus tests -- E10's machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.helpers import run_and_check
from repro.core.randomized import BenOrConsensus, BenOrMessage
from repro.macsim import (CrashFaultModel, CrashPlan, build_simulation,
                          check_consensus)
from repro.macsim.schedulers import (RandomDelayScheduler,
                                     SynchronousScheduler)
from repro.topology import clique


def make_factory(n, f, base_seed=0):
    return lambda v, val: BenOrConsensus(v + 1, val, n, f,
                                         seed=base_seed * 101 + v)


class TestNoCrashCorrectness:
    @pytest.mark.parametrize("n,f", [(1, 0), (3, 1), (5, 2), (8, 3)])
    def test_synchronous(self, n, f):
        _, report = run_and_check(clique(n), make_factory(n, f),
                                  SynchronousScheduler(1.0))
        assert report.ok

    def test_unanimous_decides_fast(self):
        n, f = 5, 2
        graph = clique(n)
        for value in (0, 1):
            values = {v: value for v in graph.nodes}
            sim = build_simulation(graph,
                                   lambda v: BenOrConsensus(
                                       v + 1, values[v], n, f, seed=v),
                                   SynchronousScheduler(1.0))
            result = sim.run(max_time=500.0)
            report = check_consensus(result.trace, values)
            assert report.ok
            assert set(report.decisions.values()) == {value}
            # Unanimous inputs decide in round 1 (validity fast path).
            assert all(sim.process_at(v).round_no == 1
                       for v in graph.nodes)

    @given(n=st.integers(2, 9), sched_seed=st.integers(0, 10 ** 6),
           coin_seed=st.integers(0, 10 ** 4))
    @settings(max_examples=30, deadline=None)
    def test_property_random_schedules(self, n, sched_seed, coin_seed):
        f = (n - 1) // 2
        _, report = run_and_check(
            clique(n), make_factory(n, f, base_seed=coin_seed),
            RandomDelayScheduler(1.0, seed=sched_seed),
            max_time=10_000.0)
        assert report.ok


class TestCrashTolerance:
    """What Theorem 3.2 forbids deterministically, Ben-Or delivers."""

    @pytest.mark.parametrize("seed", range(5))
    def test_survives_one_crash(self, seed):
        n, f = 5, 2
        graph = clique(n)
        values = {v: v % 2 for v in graph.nodes}
        crashes = [CrashPlan(0, 1.5, still_delivered=frozenset({1}))]
        sim = build_simulation(
            graph, lambda v: BenOrConsensus(v + 1, values[v], n, f,
                                            seed=seed * 7 + v),
            RandomDelayScheduler(1.0, seed=seed),
            fault_model=CrashFaultModel(crashes))
        result = sim.run(max_events=3_000_000, max_time=5_000.0)
        report = check_consensus(result.trace, values)
        assert report.agreement and report.validity
        assert report.termination  # all *alive* nodes decided

    def test_survives_f_crashes(self):
        n, f = 7, 3
        graph = clique(n)
        values = {v: v % 2 for v in graph.nodes}
        crashes = [CrashPlan(v, 1.5 + v, still_delivered=frozenset())
                   for v in range(f)]
        sim = build_simulation(
            graph, lambda v: BenOrConsensus(v + 1, values[v], n, f,
                                            seed=v),
            RandomDelayScheduler(1.0, seed=11),
            fault_model=CrashFaultModel(crashes))
        result = sim.run(max_events=3_000_000, max_time=5_000.0)
        report = check_consensus(result.trace, values)
        assert report.agreement and report.validity
        assert report.termination

    def test_more_than_f_crashes_may_block_but_stays_safe(self):
        n, f = 5, 1
        graph = clique(n)
        values = {v: v % 2 for v in graph.nodes}
        crashes = [CrashPlan(0, 1.5), CrashPlan(1, 2.5)]
        sim = build_simulation(
            graph, lambda v: BenOrConsensus(v + 1, values[v], n, f,
                                            seed=v),
            SynchronousScheduler(1.0),
            fault_model=CrashFaultModel(crashes))
        result = sim.run(max_events=1_000_000, max_time=500.0)
        report = check_consensus(result.trace, values)
        assert report.agreement and report.validity


class TestParameters:
    def test_invalid_resilience_rejected(self):
        with pytest.raises(ValueError):
            BenOrConsensus(1, 0, n=4, f=2)  # needs 2f < n
        with pytest.raises(ValueError):
            BenOrConsensus(1, 0, n=3, f=-1)
        with pytest.raises(ValueError):
            BenOrConsensus(1, 0, n=0, f=0)

    def test_message_footprint(self):
        assert BenOrMessage("report", 1, 3, 0).id_footprint() == 1

    def test_determinism_for_fixed_seeds(self):
        def run_once():
            n, f = 5, 2
            graph = clique(n)
            values = {v: v % 2 for v in graph.nodes}
            sim = build_simulation(
                graph, lambda v: BenOrConsensus(v + 1, values[v], n,
                                                f, seed=v),
                RandomDelayScheduler(1.0, seed=99))
            result = sim.run(max_time=5_000.0)
            return (result.decisions,
                    result.trace.last_decision_time())

        assert run_once() == run_once()

    def test_max_rounds_valve(self):
        proc = BenOrConsensus(1, 0, n=3, f=1, max_rounds=2)
        assert proc.max_rounds == 2
