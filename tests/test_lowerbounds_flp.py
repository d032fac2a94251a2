"""Theorem 3.2 artifacts: Two-Phase in both models + timed deadlock."""

import itertools

import pytest

from repro.core.twophase import TwoPhaseConsensus
from repro.lowerbounds.flp import build_witness_deadlock_execution
from repro.lowerbounds.steps import StepSystem
from repro.macsim import build_simulation, check_consensus, \
    check_model_invariants
from repro.macsim.schedulers import SynchronousScheduler
from repro.topology import clique


@pytest.mark.parametrize("values",
                         list(itertools.product((0, 1), repeat=3)))
def test_two_phase_all_inputs_n3(values):
    """The shipped class decides consistently on every n = 3 input in
    the timed model and in the step model's round-robin execution."""
    graph = clique(3)
    sim = build_simulation(
        graph, lambda v: TwoPhaseConsensus(uid=v, initial_value=values[v]),
        SynchronousScheduler(1.0))
    timed = set(sim.run().decisions.values())

    system = StepSystem(graph, TwoPhaseConsensus)
    final = system.run_round_robin(system.initial_configuration(values))
    assert final.all_alive_decided()
    stepped = final.decided_values()

    for decided in (timed, stepped):
        assert len(decided) == 1  # agreement
        assert decided <= set(values)  # validity
    if len(set(values)) == 1:
        assert timed == stepped == set(values)


class TestWitnessDeadlock:
    def test_single_crash_blocks_termination(self):
        sim = build_witness_deadlock_execution()
        result = sim.run(max_time=300.0)
        report = check_consensus(result.trace, {0: 0, 1: 1, 2: 1})

        assert result.trace.crashed_nodes() == {0}
        # Node 1 decides (0, having witnessed decided(0)); node 2 is
        # deadlocked waiting for the crashed node's phase-2.
        assert report.decisions.get(1) == 0
        assert 2 in report.undecided
        assert not report.termination
        # Safety is never violated -- only liveness dies.
        assert report.agreement
        assert report.validity

    def test_model_contract_respected_despite_crash(self):
        sim = build_witness_deadlock_execution()
        result = sim.run(max_time=300.0)
        report = check_model_invariants(sim.graph, result.trace,
                                        sim.scheduler.f_ack)
        assert report.ok, report.violations[:5]

    def test_same_schedule_without_crash_terminates(self):
        """Control: the deadlock is caused by the crash, not the
        schedule."""
        from repro.macsim.schedulers import (ScriptedScheduler,
                                             ScriptedStep)
        graph = clique(3)
        values = {0: 0, 1: 1, 2: 1}
        scripts = {
            0: [ScriptedStep({1: 1.0, 2: 1.0}, ack_offset=1.0),
                ScriptedStep({1: 1.0, 2: 90.0}, ack_offset=90.0)],
            1: [ScriptedStep({0: 6.0, 2: 6.0}, ack_offset=6.0),
                ScriptedStep({0: 1.5, 2: 1.5}, ack_offset=1.5)],
            2: [ScriptedStep({0: 6.5, 1: 6.5}, ack_offset=6.5),
                ScriptedStep({0: 1.5, 1: 1.5}, ack_offset=1.5)],
        }
        sim = build_simulation(
            graph,
            lambda v: TwoPhaseConsensus(uid=v,
                                        initial_value=values[v]),
            ScriptedScheduler(scripts, f_ack=100.0))
        result = sim.run(max_time=300.0)
        report = check_consensus(result.trace, values)
        assert report.ok
