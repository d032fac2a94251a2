"""Baseline algorithm tests: GatherAll and flooding-PAXOS."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.helpers import run_and_check
from repro.core.baselines import GatherAllConsensus, PaxosFloodNode
from repro.core.baselines.paxos_flood import FloodMessage
from repro.macsim.schedulers import (RandomDelayScheduler,
                                     SynchronousScheduler)
from repro.topology import (clique, grid, line, random_connected,
                            star_of_cliques)


def gather_factory(graph):
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return lambda v, val: GatherAllConsensus(uid[v], val, graph.n)


def flood_factory(graph):
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return lambda v, val: PaxosFloodNode(uid[v], val, graph.n)


TOPOLOGIES = [clique(1), clique(5), line(7), grid(3, 3),
              star_of_cliques(3, 4), random_connected(15, 0.1, seed=2)]


class TestGatherAll:
    @pytest.mark.parametrize("graph", TOPOLOGIES,
                             ids=lambda g: f"n{g.n}")
    def test_correct_synchronous(self, graph):
        _, report = run_and_check(graph, gather_factory(graph),
                                  SynchronousScheduler(1.0))
        assert report.ok

    def test_decides_min_id_value(self):
        graph = line(5)
        values = {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        _, report = run_and_check(graph, gather_factory(graph),
                                  SynchronousScheduler(1.0),
                                  initial_values=values)
        # min uid is node 0 (uid 1) whose value is 1
        assert set(report.decisions.values()) == {1}

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_correct_random_delays(self, seed):
        graph = grid(3, 3)
        _, report = run_and_check(graph, gather_factory(graph),
                                  RandomDelayScheduler(1.0, seed=seed))
        assert report.ok

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            GatherAllConsensus(1, 0, 0)


class TestPaxosFlood:
    @pytest.mark.parametrize("graph", TOPOLOGIES,
                             ids=lambda g: f"n{g.n}")
    def test_correct_synchronous(self, graph):
        _, report = run_and_check(graph, flood_factory(graph),
                                  SynchronousScheduler(1.0))
        assert report.ok

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_correct_random_delays(self, seed):
        graph = line(6)
        _, report = run_and_check(graph, flood_factory(graph),
                                  RandomDelayScheduler(1.0, seed=seed))
        assert report.ok

    def test_max_id_wins_without_retries(self):
        # The liveness note: (1, max_id) dominates; one proposal each.
        graph = clique(6)
        from repro.macsim import build_simulation
        uid = {v: v + 1 for v in graph.nodes}
        sim = build_simulation(
            graph,
            lambda v: PaxosFloodNode(uid[v], v % 2, graph.n),
            SynchronousScheduler(1.0))
        sim.run()
        for v in graph.nodes:
            assert sim.process_at(v).proposals_generated <= 1
        assert sim.process_at(5).proposals_generated == 1


class ForeignPart:
    """A part of no class the node dispatches on."""

    def id_footprint(self) -> int:
        return 0


class ForeignPartFloodNode(PaxosFloodNode):
    """Flooding PAXOS that appends a :class:`ForeignPart` to every
    broadcast."""

    def broadcast(self, message):
        return super().broadcast(
            FloodMessage(parts=message.parts + (ForeignPart(),)))


class TestPaxosFloodForeignParts:
    def test_unknown_parts_are_ignored(self):
        # The same run with every message carrying an unknown part
        # decides the same values at the same times.
        graph = grid(3, 3)
        uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
        runs = []
        for node in (PaxosFloodNode, ForeignPartFloodNode):
            result, report = run_and_check(
                graph, lambda v, val, node=node: node(uid[v], val, graph.n),
                SynchronousScheduler(1.0))
            runs.append((report.decisions, result.decision_times))
        assert runs[0] == runs[1]


class TestBottleneckScaling:
    """Section 4.2's motivating claim, as a regression test."""

    def _time(self, graph, factory_builder):
        result, report = run_and_check(
            graph, factory_builder(graph), SynchronousScheduler(1.0))
        assert report.ok
        return result.trace.last_decision_time()

    def test_gatherall_scales_with_n_not_d(self):
        small = self._time(star_of_cliques(4, 6), gather_factory)
        big = self._time(star_of_cliques(8, 12), gather_factory)
        # n grows 25 -> 97 at constant D=4: time must grow ~4x.
        assert big >= 2.0 * small

    def test_paxos_flood_scales_with_n_not_d(self):
        small = self._time(star_of_cliques(4, 6), flood_factory)
        big = self._time(star_of_cliques(8, 12), flood_factory)
        assert big >= 2.0 * small

    def test_wpaxos_does_not(self):
        from repro.core.wpaxos import WPaxosConfig, WPaxosNode

        def wp_factory(graph):
            uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
            return lambda v, val: WPaxosNode(uid[v], val, graph.n,
                                             WPaxosConfig())

        small = self._time(star_of_cliques(4, 6), wp_factory)
        big = self._time(star_of_cliques(8, 12), wp_factory)
        assert big <= 1.5 * small
