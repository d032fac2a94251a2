"""Replicated log (multi-decree wPAXOS) tests."""

import copy
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import ReplicatedLogNode
from repro.core.wpaxos import SafetyMonitor, WPaxosConfig
from repro.core.wpaxos.messages import PREPARE
from repro.lowerbounds.steps import StepSystem, canonical_key
from repro.lowerbounds.valency import ValencyAnalyzer
from repro.macsim import build_simulation, check_model_invariants
from repro.macsim.schedulers import (RandomDelayScheduler,
                                     SynchronousScheduler)
from repro.topology import clique, grid, line, random_connected


def run_log(graph, scheduler, log_length=4, config=None,
            commands=None):
    """Every replica gets its commands up front; the run ends when the
    log goes quiet (it never decides)."""
    n = graph.n
    commands = commands or {
        v: [f"cmd-{graph.index_of(v)}-{k}" for k in range(log_length)]
        for v in graph.nodes}

    def replica(v):
        node = ReplicatedLogNode(graph.index_of(v) + 1, n, config=config)
        for command in commands[v]:
            node.add_command(command)
        return node

    sim = build_simulation(graph, replica, scheduler)
    result = sim.run(max_events=10_000_000, max_time=5_000.0,
                     stop_when_all_decided=False)
    assert result.stop_reason == "quiescent"
    invariants = check_model_invariants(graph, result.trace,
                                        scheduler.f_ack)
    assert invariants.ok, invariants.violations[:5]
    return sim, result


def logs_of(sim, graph):
    return [tuple(sorted(sim.process_at(v).log.items()))
            for v in graph.nodes]


class TestLogReplication:
    @pytest.mark.parametrize("graph", [clique(4), line(6), grid(3, 3)],
                             ids=lambda g: f"n{g.n}")
    def test_all_replicas_commit_identical_logs(self, graph):
        sim, result = run_log(graph, SynchronousScheduler(1.0))
        logs = logs_of(sim, graph)
        assert len(set(logs)) == 1
        assert len(logs[0]) == 4
        # A log replica never decides in the consensus sense.
        assert result.decisions == {}

    def test_log_has_every_slot_exactly_once(self):
        graph = line(5)
        sim, _ = run_log(graph, SynchronousScheduler(1.0),
                         log_length=6)
        log = sim.process_at(graph.nodes[0]).log
        assert sorted(log) == list(range(6))

    def test_committed_commands_come_from_workloads(self):
        graph = grid(3, 3)
        commands = {v: [f"w{graph.index_of(v)}k{k}" for k in range(3)]
                    for v in graph.nodes}
        sim, _ = run_log(graph, SynchronousScheduler(1.0),
                         log_length=3, commands=commands)
        committed = set(sim.process_at(graph.nodes[0]).log.values())
        all_commands = {c for cs in commands.values() for c in cs}
        assert committed <= all_commands

    def test_log_stops_at_the_last_command(self):
        # The leader prepares slot 2 when it commits slot 1, but with
        # no command left its proposer parks at the promise majority:
        # the log goes quiet instead of proposing an empty slot.
        graph = clique(3)
        sim, _ = run_log(graph, SynchronousScheduler(1.0),
                         log_length=2)
        replicas = [sim.process_at(v) for v in graph.nodes]
        assert all(r.current_slot == 2 and len(r.log) == 2
                   for r in replicas)
        (leader,) = [r for r in replicas if r._is_leader()]
        proposer = leader._slots[2].proposer
        assert proposer.stage == PREPARE
        assert proposer._promise_count == 3

    def test_random_schedules(self):
        for seed in range(3):
            graph = line(7)
            sim, _ = run_log(graph,
                             RandomDelayScheduler(1.0, seed=seed))
            assert len(set(logs_of(sim, graph))) == 1

    def test_per_slot_conservation_monitor(self):
        monitor = SafetyMonitor()
        graph = grid(3, 3)
        sim, _ = run_log(graph, SynchronousScheduler(1.0),
                         config=WPaxosConfig(monitor=monitor))
        assert all(len(sim.process_at(v).log) == 4 for v in graph.nodes)
        assert monitor.conservation_holds()

    def test_amortization_over_slots(self):
        """Multi-decree amortizes the service setup: per-slot cost of
        a long log is far below the first slot's cold start."""
        graph = line(8)
        sim = build_simulation(
            graph, lambda v: ReplicatedLogNode(graph.index_of(v) + 1,
                                               graph.n),
            SynchronousScheduler(1.0))
        replicas = list(sim.processes.values())
        times = []
        for slot in range(8):
            # The service's path: hand every replica the slot's command
            # at a wakeup, resume until all of them committed it.
            sim.schedule_callback(sim.now, lambda s, k=slot: [
                r.add_command(f"c{k}") for r in replicas])
            result = sim.run(
                stop_when_all_decided=False,
                stop_predicate=lambda s, k=slot: all(
                    k in r.log for r in replicas))
            assert result.stop_reason == "predicate"
            times.append(sim.now)
        assert all(r.log == {k: f"c{k}" for k in range(8)}
                   for r in replicas)
        per_slot_long = (times[-1] - times[0]) / 7
        assert per_slot_long < 0.8 * times[0]

    @given(n=st.integers(2, 8), topo_seed=st.integers(0, 10 ** 4),
           sched_seed=st.integers(0, 10 ** 4))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_random_everything(self, n, topo_seed,
                                        sched_seed):
        graph = random_connected(n, 0.2, seed=topo_seed)
        sim, _ = run_log(graph,
                         RandomDelayScheduler(1.0, seed=sched_seed),
                         log_length=3)
        logs = logs_of(sim, graph)
        assert len(set(logs)) == 1
        assert len(logs[0]) == 3

    def test_bad_network_size_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedLogNode(1, 0)


class TestCanonicalKey:
    def test_two_slot_log_node_is_keyed(self):
        # Every callback a slot's proposer holds is a bound method of
        # the node, or a partial of one, so the valid-step explorer can
        # key a log replica: deep copies key equal, and a state change
        # or another slot index keys differently.
        node = ReplicatedLogNode(1, 3)
        node.add_command("a")
        node.add_command("b")
        node._slot(0)
        node._slot(1)
        twin = copy.deepcopy(node)
        assert twin._slots[1].proposer._flood.func.__self__ is twin
        assert twin._slots[1].proposer._flood.args == (1,)
        assert canonical_key(twin) == canonical_key(node)
        twin._slots[1].acceptor.on_prepare((1, 2), 2)
        assert canonical_key(twin) != canonical_key(node)
        swapped = copy.deepcopy(node)
        swapped._slots[0].proposer._flood = partial(
            swapped._handle_slot_proposer, 1)
        assert canonical_key(swapped) != canonical_key(node)


class TestExhaustiveTwoSlotSafety:
    """Every schedule of the valid-step model (Section 3.1) on
    clique(2), two log slots: no reachable configuration has two
    replicas holding different values for one slot, or a committed
    value no replica was given."""

    @staticmethod
    def _explore(counts, crash_budget):
        """Replica ``i`` gets ``counts[i]`` distinct commands."""

        def replica(label, _value):
            node = ReplicatedLogNode(label + 1, 2)
            for k in range(counts[label]):
                node.add_command(f"r{label}c{k}")
            return node

        system = StepSystem(clique(2), replica,
                            crash_budget=crash_budget)
        result = ValencyAnalyzer(system).explore(
            system.initial_configuration((0, 0)))
        assert not result.truncated
        commands = {f"r{i}c{k}" for i in range(2)
                    for k in range(counts[i])}
        for config in result.reachable:
            logs = [process.log for process in config.processes]
            for slot in range(2):
                held = {log[slot] for log in logs if slot in log}
                assert len(held) <= 1, (slot, logs)
                assert held <= commands, (slot, logs)
        return result

    # Configurations reached: pins what ``canonical_key`` merges in a
    # log replica (its slots, queues and proposer callbacks).
    @pytest.mark.parametrize("crash_budget, configs", [(0, 158), (1, 520)],
                             ids=["0", "1"])
    def test_two_commands_each(self, crash_budget, configs):
        result = self._explore((2, 2), crash_budget)
        assert result.config_count == configs
        # The space reaches logs that committed both slots.
        assert any(all(len(process.log) == 2
                       for process in config.processes)
                   for config in result.reachable)

    @pytest.mark.parametrize("crash_budget, configs", [(0, 110), (1, 364)],
                             ids=["0", "1"])
    def test_leader_without_a_command_parks(self, crash_budget, configs):
        # Replica 1 (the eventual leader) has no command for slot 1: it
        # prepares the slot, parks at its promise majority, and never
        # proposes a value it was not given.
        result = self._explore((2, 1), crash_budget)
        assert result.config_count == configs
        parked = 0
        for config in result.reachable:
            slot = config.processes[1]._slots.get(1)
            proposer = slot.proposer if slot is not None else None
            parked += (proposer is not None
                       and proposer.stage == PREPARE
                       and proposer.initial_value is None
                       and proposer._promise_count >= 2)
        assert parked > 0
