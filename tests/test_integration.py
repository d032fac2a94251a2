"""Cross-cutting integration scenarios.

These tests combine several subsystems at once -- multiple algorithms
on the same network, schedulers layered with crash plans and dual
graphs, and end-to-end consistency between the metrics pipeline and
raw traces.
"""

import pytest

from tests.helpers import run_and_check
from repro.analysis import run_consensus
from repro.core import (BenOrConsensus, GatherAllConsensus,
                        PaxosFloodNode, TwoPhaseConsensus, WPaxosConfig,
                        WPaxosNode)
from repro.macsim import (CrashFaultModel, CrashPlan, build_simulation,
                          check_consensus)
from repro.macsim.schedulers import (BernoulliUnreliableScheduler,
                                     JitteredRoundScheduler,
                                     RandomDelayScheduler,
                                     SilencingScheduler,
                                     SynchronousScheduler)
from repro.topology import (barbell, clique, grid, random_geometric)
from repro.topology.standard import unreliable_overlay


class TestAllAlgorithmsAgreeOnTheSameNetwork:
    """Every implementation must produce *a* consensus -- and all are
    valid -- on a shared realistic deployment."""

    def test_geometric_swarm(self):
        graph = random_geometric(30, 0.3, seed=12)
        values = {v: i % 2 for i, v in enumerate(graph.nodes)}
        uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
        factories = {
            "wpaxos": lambda v, val: WPaxosNode(uid[v], val, graph.n,
                                                WPaxosConfig()),
            "gatherall": lambda v, val: GatherAllConsensus(
                uid[v], val, graph.n),
            "flood-paxos": lambda v, val: PaxosFloodNode(
                uid[v], val, graph.n),
        }
        for name, factory in factories.items():
            _, report = run_and_check(graph, factory,
                                      SynchronousScheduler(1.0),
                                      initial_values=values)
            assert report.ok, name

    def test_single_hop_trio(self):
        graph = clique(7)
        values = {v: v % 2 for v in graph.nodes}
        for factory in (
                lambda v, val: TwoPhaseConsensus(v + 1, val),
                lambda v, val: BenOrConsensus(v + 1, val, graph.n, 3,
                                              seed=v),
                lambda v, val: WPaxosNode(v + 1, val, graph.n,
                                          WPaxosConfig())):
            _, report = run_and_check(graph, factory,
                                      RandomDelayScheduler(1.0,
                                                           seed=4),
                                      initial_values=values,
                                      max_time=10_000.0)
            assert report.ok


class TestLayeredAdversaries:
    def test_silencing_plus_crash(self):
        """GatherAll survives a silenced node *and* a crashed node,
        as long as the silenced node is eventually released."""
        graph = clique(6)
        values = {v: v % 2 for v in graph.nodes}
        scheduler = SilencingScheduler(SynchronousScheduler(1.0),
                                       silenced=[3], release_time=15.0)
        crashes = [CrashPlan(5, 4.5, still_delivered=frozenset())]
        sim = build_simulation(
            graph,
            lambda v: GatherAllConsensus(v + 1, values[v], graph.n),
            scheduler, fault_model=CrashFaultModel(crashes))
        result = sim.run(max_time=200.0)
        report = check_consensus(result.trace, values)
        # Node 5 crashed; GatherAll waits for n pairs, so nodes
        # cannot complete -- but *safety* must hold and no model
        # invariant may break.
        assert report.agreement
        assert report.validity

    def test_unreliable_links_plus_jitter(self):
        graph = barbell(4, 3)
        overlay = unreliable_overlay(graph, 0.2, seed=5)
        inner = JitteredRoundScheduler(1.0, jitter=0.3, seed=8)
        scheduler = BernoulliUnreliableScheduler(inner, 0.9, seed=2)
        values = {v: v % 2 for v in graph.nodes}
        sim = build_simulation(
            graph,
            lambda v: WPaxosNode(v + 1, values[v], graph.n,
                                 WPaxosConfig()),
            scheduler, unreliable_graph=overlay)
        result = sim.run(max_events=5_000_000, max_time=2_000.0)
        report = check_consensus(result.trace, values)
        assert report.agreement and report.validity


class TestMetricsConsistency:
    def test_metrics_match_trace(self):
        graph = grid(3, 3)
        metrics = run_consensus(
            algorithm="wpaxos", topology="grid3x3", graph=graph,
            scheduler=SynchronousScheduler(1.0),
            factory=lambda v, val: WPaxosNode(v + 1, val, graph.n,
                                              WPaxosConfig()))
        assert metrics.correct
        assert metrics.first_decision <= metrics.last_decision
        assert metrics.broadcasts >= graph.n  # everyone spoke
        assert metrics.deliveries >= metrics.broadcasts  # fan-out >= 1
        assert metrics.events > 0


class TestDecisionConsistencyAcrossSeeds:
    """wPAXOS's decided value is a deterministic function of the
    schedule; across seeds the *value* may differ but the properties
    may not."""

    @pytest.mark.parametrize("seed", range(4))
    def test_seed_sweep(self, seed):
        graph = grid(3, 4)
        values = {v: i % 2 for i, v in enumerate(graph.nodes)}
        _, report = run_and_check(
            graph,
            lambda v, val: WPaxosNode(v + 1, val, graph.n,
                                      WPaxosConfig()),
            RandomDelayScheduler(1.0, seed=seed),
            initial_values=values)
        assert report.ok
