"""wPAXOS node integration tests (Theorem 4.6)."""

import pytest

from tests.helpers import run_and_check
from repro.core.wpaxos import (SafetyMonitor, WPaxosConfig, WPaxosNode)
from repro.core.wpaxos.messages import WMessage
from repro.macsim import build_simulation
from repro.macsim.schedulers import (JitteredRoundScheduler,
                                     MaxDelayScheduler,
                                     RandomDelayScheduler,
                                     SynchronousScheduler)
from repro.topology import (balanced_tree, barbell, clique, grid, line,
                            random_connected, ring, star,
                            star_of_cliques, torus)


def make_factory(graph, config=None):
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    n = graph.n

    def factory(label, value):
        return WPaxosNode(uid=uid[label], initial_value=value, n=n,
                          config=config or WPaxosConfig())
    return factory


TOPOLOGIES = [
    ("clique1", clique(1)),
    ("clique2", clique(2)),
    ("clique7", clique(7)),
    ("line2", line(2)),
    ("line9", line(9)),
    ("ring8", ring(8)),
    ("star9", star(9)),
    ("grid3x4", grid(3, 4)),
    ("torus3x3", torus(3, 3)),
    ("tree2x3", balanced_tree(2, 3)),
    ("barbell", barbell(4, 3)),
    ("soc", star_of_cliques(3, 4)),
    ("random18", random_connected(18, 0.1, seed=4)),
]


class TestCorrectnessAcrossTopologies:
    @pytest.mark.parametrize("name,graph", TOPOLOGIES)
    def test_synchronous(self, name, graph):
        _, report = run_and_check(graph, make_factory(graph),
                                  SynchronousScheduler(1.0))
        assert report.ok

    @pytest.mark.parametrize("name,graph", [
        ("line7", line(7)), ("grid3x3", grid(3, 3)),
        ("random14", random_connected(14, 0.15, seed=9))])
    def test_random_delays(self, name, graph):
        for seed in (0, 1, 2):
            _, report = run_and_check(
                graph, make_factory(graph),
                RandomDelayScheduler(1.0, seed=seed))
            assert report.ok

    def test_jittered_rounds(self):
        graph = grid(3, 3)
        _, report = run_and_check(
            graph, make_factory(graph),
            JitteredRoundScheduler(1.0, jitter=0.4, seed=3))
        assert report.ok

    def test_max_delay(self):
        graph = line(6)
        _, report = run_and_check(graph, make_factory(graph),
                                  MaxDelayScheduler(2.0))
        assert report.ok

    def test_unanimous_inputs(self):
        graph = grid(3, 3)
        for value in (0, 1):
            values = {v: value for v in graph.nodes}
            _, report = run_and_check(graph, make_factory(graph),
                                      SynchronousScheduler(1.0),
                                      initial_values=values)
            assert set(report.decisions.values()) == {value}


class TestTimeComplexity:
    def test_time_linear_in_diameter(self):
        """Theorem 4.6's shape: time/(D * F_ack) stays bounded."""
        ratios = []
        for d in (9, 19, 29):
            graph = line(d + 1)
            result, report = run_and_check(graph, make_factory(graph),
                                           SynchronousScheduler(1.0))
            assert report.ok
            ratios.append(result.trace.last_decision_time() / d)
        # Constant factor: bounded and non-increasing with scale.
        assert all(r < 10.0 for r in ratios)
        assert ratios[-1] <= ratios[0] + 0.5

    def test_time_flat_in_n_at_fixed_diameter(self):
        times = []
        for n in (8, 16, 32):
            graph = clique(n)
            result, _ = run_and_check(graph, make_factory(graph),
                                      SynchronousScheduler(1.0))
            times.append(result.trace.last_decision_time())
        assert max(times) - min(times) <= 2.0

    def test_time_scales_with_f_ack(self):
        graph = line(8)
        times = []
        for f_ack in (1.0, 2.0, 4.0):
            result, _ = run_and_check(graph, make_factory(graph),
                                      SynchronousScheduler(f_ack))
            times.append(result.trace.last_decision_time())
        assert times[1] == pytest.approx(2 * times[0])
        assert times[2] == pytest.approx(4 * times[0])


class TestLeaderAndValue:
    def test_max_id_leads_and_its_proposal_wins(self):
        graph = clique(5)
        values = {v: v % 2 for v in graph.nodes}
        uid = {v: v + 1 for v in graph.nodes}
        sim = build_simulation(
            graph,
            lambda v: WPaxosNode(uid[v], values[v], graph.n,
                                 WPaxosConfig()),
            SynchronousScheduler(1.0))
        result = sim.run()
        # All nodes converged to the max id as leader.
        for v in graph.nodes:
            assert sim.process_at(v).leader_svc.leader == 5
        # The chosen value came from some node (validity); since the
        # leader (label 4, value 0) proposes its own input when no
        # prior exists, 0 is the expected outcome here.
        assert set(result.decisions.values()) == {0}

    def test_leader_position_does_not_break_lines(self):
        # Max id at the far end vs the middle of a line.
        graph = line(11)
        for leader_pos in (0, 5, 10):
            uid = {v: (1000 if v == leader_pos else v + 1)
                   for v in graph.nodes}
            values = {v: v % 2 for v in graph.nodes}
            sim = build_simulation(
                graph,
                lambda v: WPaxosNode(uid[v], values[v], graph.n,
                                     WPaxosConfig()),
                SynchronousScheduler(1.0))
            result = sim.run()
            assert len(set(result.decisions.values())) == 1
            assert len(result.decisions) == graph.n


class TestSafetyMonitor:
    @pytest.mark.parametrize("name,graph", [
        ("line8", line(8)), ("grid3x3", grid(3, 3)),
        ("soc", star_of_cliques(3, 4))])
    def test_lemma_42_conservation(self, name, graph):
        monitor = SafetyMonitor()
        config = WPaxosConfig(monitor=monitor)
        _, report = run_and_check(graph, make_factory(graph, config),
                                  SynchronousScheduler(1.0))
        assert report.ok
        assert monitor.conservation_holds()
        assert monitor.max_slack() >= 0

    def test_lemma_44_tag_growth_stays_small(self):
        graph = line(16)
        factory = make_factory(graph)
        sim = build_simulation(
            graph,
            lambda v: factory(v, v % 2),
            SynchronousScheduler(1.0))
        sim.run()
        n = graph.n
        for v in graph.nodes:
            proposer = sim.process_at(v).proposer
            # Lemma 4.4: polynomial in n; in practice tiny.
            assert proposer.max_tag_seen <= n * n
            assert proposer.proposals_generated <= 2 * n


class TestMessageBudget:
    def test_all_messages_within_o1_id_budget(self):
        # strict_sizes is on by default in run_and_check's
        # build_simulation; a run completing proves the bound held.
        graph = grid(3, 3)
        _, report = run_and_check(graph, make_factory(graph),
                                  SynchronousScheduler(1.0))
        assert report.ok


class ForeignPart:
    """A part of no class the node dispatches on."""

    def id_footprint(self) -> int:
        return 0


class ForeignPartNode(WPaxosNode):
    """wPAXOS that appends a :class:`ForeignPart` to every broadcast."""

    def broadcast(self, message):
        return super().broadcast(
            WMessage(message.parts + (ForeignPart(),)))


class TestForeignParts:
    def test_unknown_parts_are_ignored(self):
        # The same run with every message carrying an unknown part
        # decides the same values at the same times.
        graph = grid(3, 3)
        uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
        runs = []
        for node in (WPaxosNode, ForeignPartNode):
            result, report = run_and_check(
                graph, lambda v, val, node=node: node(uid[v], val, graph.n),
                SynchronousScheduler(1.0))
            runs.append((report.decisions, result.decision_times))
        assert runs[0] == runs[1]


class TestConfigValidation:
    def test_bad_retry_policy_rejected(self):
        with pytest.raises(ValueError):
            WPaxosConfig(retry_policy="yolo")

    def test_bad_attempts_rejected(self):
        with pytest.raises(ValueError):
            WPaxosConfig(attempts_per_change=0)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            WPaxosNode(uid=1, initial_value=0, n=0)

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            WPaxosNode(uid=1, initial_value=7, n=3)
