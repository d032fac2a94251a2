"""Valency analysis tests (Theorem 3.2 machinery)."""

import functools

import pytest

from repro.core.twophase import TwoPhaseConsensus
from repro.lowerbounds.steps import StepSystem
from repro.lowerbounds.valency import (ValencyAnalyzer,
                                       bivalent_initial_configurations,
                                       extend_bivalent_round_robin,
                                       find_crash_termination_violation,
                                       verify_lemma_31)
from repro.scenario import AlgorithmSpec
from repro.topology import clique


def two_phase_system(crash_budget=1):
    return StepSystem(clique(2), TwoPhaseConsensus,
                      crash_budget=crash_budget)


@functools.lru_cache(maxsize=None)
def split_exploration(crash_budget=1):
    """The (read-only) exploration from inputs (0, 1), shared by tests."""
    system = two_phase_system(crash_budget)
    return ValencyAnalyzer(system).explore(
        system.initial_configuration((0, 1)))


class TestValencyClassification:
    def test_unanimous_inputs_are_univalent(self):
        system = two_phase_system()
        analyzer = ValencyAnalyzer(system)
        for value in (0, 1):
            result = analyzer.explore(
                system.initial_configuration((value, value)))
            assert result.valency(result.initial) == frozenset({value})

    def test_split_inputs_are_bivalent(self):
        result = split_exploration()
        assert result.is_bivalent(result.initial)

    def test_bivalent_initial_configurations_enumeration(self):
        system = two_phase_system()
        pairs = bivalent_initial_configurations(system)
        assert sorted(v for v, _ in pairs) == [(0, 1), (1, 0)]

    def test_exploration_is_exhaustive_and_finite(self):
        result = split_exploration()
        assert not result.truncated
        assert result.config_count > 100
        # Every explored config got a valency classification.
        assert set(result.values) == set(result.reachable)

    def test_truncation_flag(self):
        system = two_phase_system()
        result = ValencyAnalyzer(system, max_configs=10).explore(
            system.initial_configuration((0, 1)))
        assert result.truncated

    def test_without_crashes_still_bivalent(self):
        # Bivalence of (0,1) does not require crash moves: the valid
        # scheduler alone can steer to either decision.
        result = split_exploration(0)
        assert result.is_bivalent(result.initial)

    def test_bivalent_configurations_listing(self):
        result = split_exploration()
        bivalent = result.bivalent_configurations()
        assert result.initial in bivalent


class TestLemma31Dichotomy:
    def test_extension_exists_for_node_0(self):
        result = split_exploration()
        witness = verify_lemma_31(result, result.initial, 0)
        assert witness.found

    def test_extension_missing_for_node_1(self):
        """Two-Phase is not 1-crash-tolerant, so Lemma 3.1 (whose
        proof requires crash tolerance) is allowed to fail -- and
        does, at node 1."""
        result = split_exploration()
        witness = verify_lemma_31(result, result.initial, 1)
        assert not witness.found

    def test_round_robin_extension_raises_on_failure(self):
        result = split_exploration()
        with pytest.raises(AssertionError):
            extend_bivalent_round_robin(result, rounds=1)


class TestCrashTerminationViolation:
    def test_violation_found_with_budget(self):
        result = split_exploration()
        violation = find_crash_termination_violation(result)
        assert violation is not None
        assert violation.stuck_node not in violation.config.crashed
        assert len(violation.config.crashed) == 1

    def test_no_violation_without_crashes(self):
        result = split_exploration(0)
        assert find_crash_termination_violation(result) is None


class _RecordingAnalyzer(ValencyAnalyzer):
    """Keeps every exploration, so one sweep serves every check."""

    def __init__(self, system):
        super().__init__(system)
        self.results = []

    def explore(self, initial):
        result = super().explore(initial)
        self.results.append(result)
        return result


#: Configurations explored from each binary input vector, in the order
#: ``bivalent_initial_configurations`` visits them. They pin what
#: ``canonical_key`` merges: a process attribute that keys differently
#: across equal states moves these counts.
CONFIG_COUNTS = {
    "two-phase": [650, 554, 554, 650],
    "gatherall": [170] * 4,
    "flood-paxos": [251] * 4,
    "wpaxos": [361] * 4,
}


@pytest.mark.parametrize("name", ["two-phase", "gatherall",
                                  "flood-paxos", "wpaxos"])
def test_theorem_32_and_small_scope_safety(name):
    """Theorem 3.2's verdicts and safety on a shipped algorithm, n = 2.

    Crash moves are optional, so budget 1 also covers the crash-free
    configurations. Exhaustive over canonical valid-step schedules
    only, not over every MAC schedule.
    """
    graph = clique(2)
    system = StepSystem(graph, AlgorithmSpec(name).build(graph),
                        crash_budget=1)
    analyzer = _RecordingAnalyzer(system)
    bivalent = [values for values, _ in
                bivalent_initial_configurations(system, analyzer)]
    assert bivalent == ([(0, 1), (1, 0)] if name == "two-phase" else [])

    assert len(analyzer.results) == 4  # every binary input vector
    assert [result.config_count
            for result in analyzer.results] == CONFIG_COUNTS[name]
    for result in analyzer.results:
        assert not result.truncated
        values = {p.initial_value for p in result.initial.processes}
        for config in result.reachable:
            # Crashed nodes' decisions count, as in check_consensus.
            decided = {p.decision for p in config.processes if p.decided}
            assert len(decided) <= 1, (name, decided)  # agreement
            assert decided <= values, (name, decided)  # validity

    split = analyzer.results[1]  # inputs (0, 1)
    assert [p.initial_value for p in split.initial.processes] == [0, 1]
    violation = find_crash_termination_violation(split)
    assert violation is not None
    assert len(violation.config.crashed) == 1
    assert violation.stuck_node not in violation.config.crashed
