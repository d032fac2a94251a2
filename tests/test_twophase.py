"""Two-Phase Consensus tests (Theorem 4.1) including the erratum."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from tests.helpers import run_and_check
from repro.core.twophase import (BIVALENT, Phase1Message, Phase2Message,
                                 TwoPhaseConsensus)
from repro.lowerbounds.steps import StepSystem
from repro.lowerbounds.valency import ValencyAnalyzer
from repro.macsim import build_simulation, check_consensus
from repro.macsim.schedulers import (RandomDelayScheduler,
                                     ScriptedScheduler, ScriptedStep,
                                     StaggeredScheduler,
                                     SynchronousScheduler)
from repro.topology import clique


def factory(label, value):
    return TwoPhaseConsensus(uid=label, initial_value=value)


class TestMessages:
    def test_phase2_status_accessors(self):
        m = Phase2Message(sender=1, status=("decided", 0))
        assert m.decided_value() == 0
        assert not m.is_bivalent
        b = Phase2Message(sender=2, status=BIVALENT)
        assert b.decided_value() is None
        assert b.is_bivalent

    def test_footprints(self):
        assert Phase1Message(1, 0).id_footprint() == 1
        assert Phase2Message(1, BIVALENT).id_footprint() == 1


class TestBasicCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 25])
    def test_synchronous(self, n):
        result, report = run_and_check(clique(n), factory,
                                       SynchronousScheduler(1.0))
        assert report.ok
        # Theorem 4.1: two broadcast cycles.
        assert result.trace.last_decision_time() <= 2.0 + 1e-9

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_unanimous_inputs_decide_that_value(self, n):
        for value in (0, 1):
            values = {v: value for v in clique(n).nodes}
            result, report = run_and_check(
                clique(n), factory, SynchronousScheduler(1.0),
                initial_values=values)
            assert set(report.decisions.values()) == {value}

    def test_single_node(self):
        values = {0: 1}
        _, report = run_and_check(clique(1), factory,
                                  SynchronousScheduler(1.0),
                                  initial_values=values)
        assert report.decisions == {0: 1}

    def test_staggered_order_sensitivity(self):
        for reverse in (False, True):
            sched = StaggeredScheduler(0.25, max_degree=16,
                                       reverse=reverse)
            _, report = run_and_check(clique(8), factory, sched)
            assert report.ok

    def test_no_early_decide_variant(self):
        def slow_factory(label, value):
            return TwoPhaseConsensus(uid=label, initial_value=value,
                                     early_decide=False)

        _, report = run_and_check(clique(6), slow_factory,
                                  SynchronousScheduler(1.0))
        assert report.ok

    def test_time_bound_random_schedulers(self):
        for seed in range(10):
            sched = RandomDelayScheduler(1.0, seed=seed)
            result, report = run_and_check(clique(10), factory, sched)
            assert report.ok
            # O(F_ack): generous constant covering the witness wait.
            assert result.trace.last_decision_time() <= 4.0


class TestPropertyBased:
    @given(n=st.integers(1, 12),
           values_seed=st.integers(0, 2 ** 16),
           sched_seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_consensus_under_random_schedules(self, n, values_seed,
                                              sched_seed):
        import random
        rng = random.Random(values_seed)
        graph = clique(n)
        values = {v: rng.randint(0, 1) for v in graph.nodes}
        sched = RandomDelayScheduler(1.0, seed=sched_seed)
        _, report = run_and_check(graph, factory, sched,
                                  initial_values=values)
        assert report.ok


def erratum_schedule():
    """The adversarial 2-clique schedule from the module docstring.

    Node 0 (value 0) completes phase 1 instantly and its phase-2
    ``decided(0)`` reaches node 1 *during node 1's phase 1*, landing in
    R1. Node 1's literal line-23 check (R2 only) then misses it.
    """
    return ScriptedScheduler({
        0: [ScriptedStep({1: 1.0}, ack_offset=1.0),     # phase 1
            ScriptedStep({1: 1.0}, ack_offset=1.0)],    # phase 2 at t=2
        1: [ScriptedStep({0: 4.0}, ack_offset=4.0),     # phase 1
            ScriptedStep({0: 1.0}, ack_offset=1.0)],    # phase 2
    }, f_ack=100.0)


class TestErratum:
    """The paper's Algorithm 1 line 23 checks R2 only; the proof needs
    R1 union R2. These tests pin down both sides of the finding."""

    VALUES = {0: 0, 1: 1}

    def _run(self, literal):
        sim = build_simulation(
            clique(2),
            lambda v: TwoPhaseConsensus(
                uid=v, initial_value=self.VALUES[v],
                literal_r2_check=literal),
            erratum_schedule())
        result = sim.run()
        return check_consensus(result.trace, self.VALUES)

    def test_literal_pseudocode_violates_agreement(self):
        report = self._run(literal=True)
        assert not report.agreement
        assert report.decisions == {0: 0, 1: 1}

    def test_corrected_check_preserves_agreement(self):
        report = self._run(literal=False)
        assert report.agreement
        assert report.decisions == {0: 0, 1: 0}

    def test_literal_variant_fine_under_synchrony(self):
        # The erratum needs an adversarial schedule; lock-step rounds
        # never produce it (phase-2 messages always arrive in phase 2).
        def literal_factory(label, value):
            return TwoPhaseConsensus(uid=label, initial_value=value,
                                     literal_r2_check=True)

        _, report = run_and_check(clique(6), literal_factory,
                                  SynchronousScheduler(1.0))
        assert report.ok

    @pytest.mark.parametrize("literal, violating", [(True, 12),
                                                    (False, 0)])
    def test_exhaustive_search_finds_the_erratum(self, literal,
                                                 violating):
        # Search finds the schedule without being handed it: every
        # crash-free valid-step configuration from inputs (0, 1).
        system = StepSystem(clique(2), functools.partial(
            TwoPhaseConsensus, literal_r2_check=literal))
        result = ValencyAnalyzer(system).explore(
            system.initial_configuration((0, 1)))
        split = [c for c in result.reachable
                 if len({p.decision for p in c.processes
                         if p.decided}) > 1]
        assert (result.config_count, len(split)) == (168, violating)


class TestWitnessMechanism:
    def test_bivalent_node_waits_for_witnesses(self):
        """A bivalent node must not decide before every witness's
        phase-2 message arrives (the core of the agreement proof)."""
        # Stagger node 2's phase-2 far out; nodes 0/1 must wait for it.
        sched = ScriptedScheduler({
            0: [ScriptedStep({1: 1.0, 2: 1.0}, ack_offset=1.0),
                ScriptedStep({1: 1.0, 2: 1.0}, ack_offset=1.0)],
            1: [ScriptedStep({0: 1.0, 2: 1.0}, ack_offset=1.0),
                ScriptedStep({0: 1.0, 2: 1.0}, ack_offset=1.0)],
            2: [ScriptedStep({0: 1.0, 1: 1.0}, ack_offset=1.0),
                ScriptedStep({0: 30.0, 1: 30.0}, ack_offset=30.0)],
        }, f_ack=100.0)
        values = {0: 0, 1: 1, 2: 1}
        sim = build_simulation(
            clique(3),
            lambda v: TwoPhaseConsensus(uid=v,
                                        initial_value=values[v]),
            sched)
        result = sim.run()
        report = check_consensus(result.trace, values)
        assert report.ok
        times = result.trace.decision_times()
        # All three saw both values in phase 1 (lock-step), so all are
        # bivalent and must wait for node 2's phase-2 at t=31.
        assert times[0] >= 31.0
        assert times[1] >= 31.0

    def test_fingerprint_changes_as_state_evolves(self):
        proc = TwoPhaseConsensus(uid=1, initial_value=0)
        fp0 = proc.state_fingerprint()
        proc.r1.add(Phase1Message(sender=2, value=1))
        assert proc.state_fingerprint() != fp0
