"""Dynamic-topology subsystem tests: zero-churn byte-identity across
all three sinks (hypothesis property), graph-as-of-broadcast
invariants, post-epoch plans use the post-epoch neighbors, node-churn
state reset, connectivity metrics, mixed-timestamp delivery batching
A/B, the new scheduler registry entries, zip-mode scenario grids, CLI
``--dynamics`` and schema-v5 replay."""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import run_consensus
from repro.analysis.export import (load_scenario, save_trace,
                                   trace_to_json)
from repro.cli import main as cli_main
from repro.core import WPaxosConfig, WPaxosNode
from repro.macsim import (ColumnarSink, EdgeChurn, NodeChurn,
                          RandomWaypoint, ScriptedDynamics,
                          Trace, TraceRecord, build_simulation,
                          check_model_invariants, connectivity_report)
from repro.macsim.dynamics import (TOPO_EDGE_DOWN, TOPO_EDGE_UP,
                                   TOPO_NODE_DOWN, TOPO_NODE_UP,
                                   edge_timeline, max_t_interval,
                                   spanning_tree_edges,
                                   t_interval_connected)
from repro.macsim.dynamics.connectivity import is_connected
from repro.macsim.trace import make_sink
from repro.macsim.errors import ConfigurationError
from repro.macsim.schedulers import (RandomDelayScheduler, Scheduler,
                                     SynchronousScheduler)
from repro.macsim.schedulers.base import DeliveryPlan
from repro.scenario import (AlgorithmSpec, DynamicsSpec, Scenario,
                            ScenarioError, SchedulerSpec, TopologySpec,
                            parse_spec)
from repro.topology import clique, line, ring
from tests.helpers import (delivered_order, per_receiver_delivery_order,
                           trace_digest)

SETTINGS = dict(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _wpaxos_factory(graph):
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return lambda v: WPaxosNode(uid[v], uid[v] % 2, graph.n,
                                WPaxosConfig())


def _run(graph, scheduler, *, dynamics=None, sink=None, max_time=60.0):
    sim = build_simulation(graph, _wpaxos_factory(graph), scheduler,
                           dynamics=dynamics, trace_sink=sink)
    result = sim.run(max_time=max_time)
    result.trace.close()
    return result


# ----------------------------------------------------------------------
# Zero-churn byte-identity (satellite: hypothesis property)
# ----------------------------------------------------------------------
class TestZeroChurnIdentity:
    @given(n=st.integers(4, 8), seed=st.integers(0, 10 ** 6),
           model=st.sampled_from(["edge", "node", "scripted"]),
           shape=st.sampled_from(["clique", "ring"]))
    @settings(**SETTINGS)
    def test_zero_rate_byte_identical_all_sinks(self, n, seed, model,
                                                shape):
        graph = clique(n) if shape == "clique" else ring(n)

        def zero_dynamics():
            if model == "edge":
                return EdgeChurn(rate=0.0, add_rate=0.0, seed=seed)
            if model == "node":
                return NodeChurn(leave_rate=0.0, rejoin_rate=0.0,
                                 seed=seed)
            return ScriptedDynamics(timeline=())

        static = _run(graph, RandomDelayScheduler(1.0, seed=seed))
        # FULL sink: full trace must match byte for byte.
        dynamic = _run(graph, RandomDelayScheduler(1.0, seed=seed),
                       dynamics=zero_dynamics())
        assert trace_to_json(dynamic.trace) == trace_to_json(
            static.trace)
        assert dynamic.events_processed == static.events_processed
        # COLUMNAR sink: replayed record stream must match too.
        disk = ColumnarSink(chunk_records=200)
        try:
            replayed = _run(graph, RandomDelayScheduler(1.0, seed=seed),
                            dynamics=zero_dynamics(), sink=disk)
            assert ([r.time for r in replayed.trace] ==
                    [r.time for r in static.trace])
            assert ([(r.kind, r.node, r.broadcast_id)
                     for r in replayed.trace] ==
                    [(r.kind, r.node, r.broadcast_id)
                     for r in static.trace])
        finally:
            disk.cleanup()
        # DECISIONS sink: decisions, times and exact counters match.
        counting = _run(graph, RandomDelayScheduler(1.0, seed=seed),
                        dynamics=zero_dynamics(),
                        sink=Trace())
        assert counting.decisions == static.decisions
        assert counting.decision_times == static.decision_times
        for kind in ("broadcast", "deliver", "ack", "decide", "topo"):
            assert (counting.trace.count_of_kind(kind)
                    == static.trace.count_of_kind(kind))

    def test_empty_scripted_timeline_is_static(self):
        graph = clique(5)
        static = _run(graph, SynchronousScheduler(1.0))
        scripted = _run(graph, SynchronousScheduler(1.0),
                        dynamics=ScriptedDynamics(timeline=()))
        assert trace_to_json(scripted.trace) == trace_to_json(
            static.trace)


# ----------------------------------------------------------------------
# Engine semantics: epochs, graph-as-of-broadcast, topo records
# ----------------------------------------------------------------------
class TestEngineEpochs:
    def test_scripted_edge_removal_changes_future_broadcasts(self):
        # clique(3); remove edge (0, 1) at t=1.5. Broadcasts at t<=1
        # cover both neighbors; broadcasts from t>=2 (the next ack
        # boundary) must cover only the surviving neighbor.
        graph = clique(3)
        dynamics = ScriptedDynamics(
            timeline=[{"time": 1.5, "remove": [[0, 1]]}])
        result = _run(graph, SynchronousScheduler(1.0),
                      dynamics=dynamics, max_time=20.0)
        topo = result.trace.of_kind("topo")
        assert [(r.time, r.node, r.peer, r.broadcast_id)
                for r in topo] == [(1.5, 0, 1, TOPO_EDGE_DOWN)]
        report = check_model_invariants(graph, result.trace, 1.0)
        assert report.ok, report.violations[:5]
        # Deliveries for post-epoch broadcasts of node 0 never reach 1
        # (a trailing broadcast may have no deliveries at all if the
        # run stopped on all-decided first).
        delivered_any = False
        for rec in result.trace.of_kind("broadcast"):
            if rec.node != 0 or rec.time < 1.5:
                continue
            receivers = {d.node for d in result.trace
                         if d.kind == "deliver"
                         and d.broadcast_id == rec.broadcast_id}
            assert receivers <= {2}
            delivered_any = delivered_any or receivers == {2}
        assert delivered_any

    def test_invariants_flag_delivery_over_churned_edge(self):
        # A hand-built trace delivering over an edge that went down
        # *before* the broadcast must be a violation; one delivered
        # over an edge that existed at broadcast time (and churned
        # away later) must pass.
        graph = line(3)  # edges (0,1), (1,2)
        ok_trace = make_sink("full")
        ok_trace.append(TraceRecord(1.0, "broadcast", 0, broadcast_id=0,
                                    payload="m"))
        ok_trace.append(TraceRecord(1.5, "topo", 0, peer=1,
                                    broadcast_id=TOPO_EDGE_DOWN))
        ok_trace.append(TraceRecord(2.0, "deliver", 1, broadcast_id=0,
                                    peer=0, payload="m"))
        ok_trace.append(TraceRecord(2.0, "ack", 0, broadcast_id=0))
        assert check_model_invariants(graph, ok_trace, 10.0).ok

        bad_trace = make_sink("full")
        bad_trace.append(TraceRecord(0.5, "topo", 0, peer=1,
                                     broadcast_id=TOPO_EDGE_DOWN))
        bad_trace.append(TraceRecord(1.0, "broadcast", 0,
                                     broadcast_id=0, payload="m"))
        bad_trace.append(TraceRecord(2.0, "deliver", 1, broadcast_id=0,
                                     peer=0, payload="m"))
        report = check_model_invariants(graph, bad_trace, 10.0)
        assert not report.ok
        assert "as of the broadcast" in report.violations[0]

    def test_ack_coverage_uses_broadcast_time_neighbors(self):
        # Edge (0,1) appears after the broadcast: the ack must not be
        # gated on the new neighbor.
        graph = line(3)
        trace = make_sink("full")
        trace.append(TraceRecord(1.0, "topo", 0, peer=2,
                                 broadcast_id=TOPO_EDGE_UP))
        trace.append(TraceRecord(2.0, "broadcast", 0, broadcast_id=0,
                                 payload="m"))
        trace.append(TraceRecord(2.5, "topo", 0, peer=2,
                                 broadcast_id=TOPO_EDGE_DOWN))
        trace.append(TraceRecord(3.0, "deliver", 1, broadcast_id=0,
                                 peer=0, payload="m"))
        # node 2 was a neighbor at broadcast time but the edge churned
        # away before delivery: the ack *is* still gated on it --
        # missing delivery to 2 must be flagged.
        report = check_model_invariants(graph, trace, 10.0)
        assert report.ok  # no ack record yet: nothing to flag
        trace.append(TraceRecord(4.0, "ack", 0, broadcast_id=0))
        report = check_model_invariants(graph, trace, 10.0)
        assert not report.ok
        assert any("neighbor 2" in v for v in report.violations)

    def test_plans_after_an_epoch_use_the_post_epoch_neighbors(self):
        # A broadcast is planned over the topology in force at its
        # start: once the epoch at 2.5 has removed 0-1 and 2-3, every
        # plan's receivers are the sender's new neighbor tuple (the
        # engine's own object), and the run satisfies the
        # as-of-broadcast invariants.
        graph = clique(4)
        before = {v: tuple(graph.neighbors(v)) for v in graph.nodes}
        after = {0: (2, 3), 1: (2, 3), 2: (0, 1), 3: (0, 1)}
        planned = []

        class Recording(SynchronousScheduler):
            def plan(self, *, sender, message, start_time, neighbors):
                plan = super().plan(sender=sender, message=message,
                                    start_time=start_time,
                                    neighbors=neighbors)
                assert plan.receivers is neighbors
                planned.append((start_time, sender, plan.receivers))
                return plan

        dynamics = ScriptedDynamics(
            timeline=[{"time": 2.5, "remove": [[0, 1], [2, 3]]}])
        result = _run(graph, Recording(1.0), dynamics=dynamics,
                      max_time=30.0)
        assert result.end_time > 2.5
        assert check_model_invariants(graph, result.trace, 1.0).ok
        assert {start < 2.5 for start, _, _ in planned} == {True, False}
        for start, sender, receivers in planned:
            expected = before if start < 2.5 else after
            assert receivers == expected[sender], (start, sender)

    def test_epochs_do_not_keep_a_quiescent_run_alive(self):
        # Pull-based epochs: once the protocol quiesces, an infinite
        # epoch stream must not stall termination until max_time.
        graph = clique(4)
        result = _run(graph, SynchronousScheduler(1.0),
                      dynamics=EdgeChurn(rate=0.3, seed=1),
                      max_time=10_000.0)
        assert result.stop_reason in ("all_decided",
                                      "quiescent_all_decided")
        assert result.end_time < 100.0

    def test_non_advancing_epoch_stream_rejected(self):
        class Broken(EdgeChurn):
            def next_epoch_time(self, after):
                return 1.0  # never advances

        graph = clique(3)
        sim = build_simulation(graph, _wpaxos_factory(graph),
                               SynchronousScheduler(1.0),
                               dynamics=Broken(rate=0.0, seed=0))
        with pytest.raises(ConfigurationError):
            sim.run(max_time=10.0)


# ----------------------------------------------------------------------
# Node churn: departures, rejoin with state reset
# ----------------------------------------------------------------------
class _Beacon:
    """Factory for a deterministic always-broadcasting process: sends
    ``rounds`` beacons back-to-back and decides at the third ack --
    enough sustained activity that scripted epochs mid-run always
    fire, and reset semantics are directly observable."""

    def __new__(cls, label, rounds=8):
        from repro.macsim import Process

        class _P(Process):
            def __init__(self):
                super().__init__(uid=label, initial_value=0)
                self.sent = 0

            def on_start(self):
                self._next()

            def on_ack(self):
                if self.sent == 3 and not self.decided:
                    self.decide(("beacon", label))
                self._next()

            def _next(self):
                if self.sent < rounds:
                    self.sent += 1
                    self.broadcast(("b", label, self.sent))

        return _P()


class TestNodeChurn:
    def test_scripted_leave_and_rejoin_resets_state(self):
        graph = clique(4)
        dynamics = ScriptedDynamics(timeline=[
            {"time": 2.5, "leave": [3]},
            {"time": 4.5, "join": [3]},
        ])
        sim = build_simulation(graph, lambda v: _Beacon(v),
                               SynchronousScheduler(1.0),
                               dynamics=dynamics)
        before = sim.process_at(3)
        result = sim.run(max_time=60.0, stop_when_all_decided=False)
        result.trace.close()
        after = sim.process_at(3)
        # The rejoin rebuilt node 3's process from the factory.
        assert after is not before
        assert before.sent > after.sent or after.sent <= 8
        topo = result.trace.of_kind("topo")
        codes = [(r.time, r.broadcast_id, r.node) for r in topo
                 if r.broadcast_id in (TOPO_NODE_DOWN, TOPO_NODE_UP)]
        assert codes == [(2.5, TOPO_NODE_DOWN, 3),
                         (4.5, TOPO_NODE_UP, 3)]
        # Departure drops node 3's edges; rejoin restores them.
        downs = [(r.node, r.peer) for r in topo
                 if r.broadcast_id == TOPO_EDGE_DOWN]
        ups = [(r.node, r.peer) for r in topo
               if r.broadcast_id == TOPO_EDGE_UP]
        assert sorted(downs) == [(0, 3), (1, 3), (2, 3)]
        assert sorted(ups) == [(0, 3), (1, 3), (2, 3)]
        assert check_model_invariants(graph, result.trace, 1.0).ok
        # State reset: the fresh process re-runs from scratch and
        # decides a second time after the rejoin.
        decides = [r for r in result.trace.of_kind("decide")
                   if r.node == 3]
        assert len(decides) == 2
        # First decision while isolated (beacons ack even with no
        # neighbors); second one only after the reset at 4.5.
        assert decides[0].time < 4.5 < decides[1].time
        # The old process's in-flight broadcast was orphaned: every
        # acked broadcast of node 3 has a matching ack, but at least
        # one broadcast (the one cut by the reset) has none.
        bids_3 = {r.broadcast_id
                  for r in result.trace.of_kind("broadcast")
                  if r.node == 3}
        acked_3 = {r.broadcast_id for r in result.trace.of_kind("ack")
                   if r.node == 3}
        assert acked_3 < bids_3

    def test_reset_without_factory_raises(self):
        from repro.macsim import Simulator
        graph = clique(3)
        factory = _wpaxos_factory(graph)
        processes = {v: factory(v) for v in graph.nodes}
        sim = Simulator(graph, processes, SynchronousScheduler(1.0),
                        dynamics=ScriptedDynamics(timeline=[
                            {"time": 1.5, "leave": [2]},
                            {"time": 2.5, "join": [2]},
                        ]))
        with pytest.raises(ConfigurationError):
            sim.run(max_time=30.0)

    def test_bare_departed_delta_isolates_node(self):
        # The engine enforces the isolation contract itself: a custom
        # model returning only departed=(node,) -- no explicit edge
        # removals -- still strips every incident edge.
        from repro.macsim.dynamics import TopologyDelta, TopologyDynamics

        class DepartOnly(TopologyDynamics):
            def next_epoch_time(self, after):
                return 2.5 if after < 2.5 else None

            def advance(self, time, graph):
                return TopologyDelta(departed=(3,))

        graph = clique(4)
        sim = build_simulation(graph, lambda v: _Beacon(v),
                               SynchronousScheduler(1.0),
                               dynamics=DepartOnly())
        result = sim.run(max_time=30.0, stop_when_all_decided=False)
        result.trace.close()
        assert not sim.graph.neighbors(3)
        downs = [(r.node, r.peer) for r in result.trace.of_kind("topo")
                 if r.broadcast_id == TOPO_EDGE_DOWN]
        assert sorted(downs) == [(0, 3), (1, 3), (2, 3)]
        assert check_model_invariants(graph, result.trace, 1.0).ok

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scheduler", [
        SchedulerSpec("random", f_ack=2.0),
        SchedulerSpec("staggered", step=0.25, max_degree=8),
    ], ids=["random", "staggered"])
    def test_rejoin_under_continuous_delays_keeps_time_monotone(
            self, scheduler, seed):
        # A rejoining node broadcasts at its epoch's timestamp; under a
        # continuous-delay scheduler that is delivered *before* the
        # event run() popped to find the epoch due, which used to end
        # in "time went backwards" (random: every seed here; seed 2
        # needs the re-queue after each epoch, not after the batch).
        scenario = Scenario(
            AlgorithmSpec("wpaxos"), TopologySpec("clique", n=5),
            scheduler, seed=seed,
            dynamics=DynamicsSpec("node-churn", leave_rate=0.2,
                                  rejoin_rate=0.5))
        metrics = scenario.run()
        assert metrics.stop_reason in (
            "all_decided", "quiescent", "quiescent_all_decided",
            "max_time")
        result = scenario.simulate()
        times = [r.time for r in result.trace]
        assert times == sorted(times)
        assert result.trace.of_kind("topo")

    def test_node_churn_model_keeps_protected_anchor(self):
        graph = clique(6)
        churn = NodeChurn(leave_rate=0.9, rejoin_rate=0.1, protect=2,
                          seed=5)
        churn.bind(type("S", (), {"graph": graph})())
        live = graph
        for epoch in range(1, 8):
            delta = churn.advance(float(epoch), live)
            if delta is None:
                continue
            assert not set(delta.departed) & {0, 1}


# ----------------------------------------------------------------------
# Built-in model behaviour
# ----------------------------------------------------------------------
class TestModels:
    def test_edge_churn_floor_preserves_spanning_tree(self):
        graph = clique(8)
        floor = spanning_tree_edges(graph)
        churn = EdgeChurn(rate=1.0, add_rate=0.0, seed=3)
        churn.bind(type("S", (), {"graph": graph})())
        delta = churn.advance(1.0, graph)
        removed = set(delta.removed)
        assert removed  # rate 1: every non-floor edge churns off
        assert not removed & floor
        assert len(removed) == graph.edge_count - len(floor)

    def test_edge_churn_determinism(self):
        graph = ring(8)
        a = EdgeChurn(rate=0.4, seed=11)
        b = EdgeChurn(rate=0.4, seed=11)
        for model in (a, b):
            model.bind(type("S", (), {"graph": graph})())
        assert a.advance(1.0, graph) == b.advance(1.0, graph)

    def test_random_waypoint_stitch_keeps_connected(self):
        graph = ring(10)
        model = RandomWaypoint(radius=0.2, speed=0.1, seed=9)
        sim = type("S", (), {"graph": graph})()
        model.bind(sim)
        live = graph
        from repro.topology import Graph
        for epoch in range(1, 6):
            delta = model.advance(float(epoch), live)
            if delta is None:
                continue
            edges = set(live.edges()) - set(delta.removed)
            edges |= set(delta.added)
            live = Graph(edges, nodes=graph.nodes)
            assert live.is_connected()

    def test_scripted_timeline_validation(self):
        with pytest.raises(ConfigurationError):
            ScriptedDynamics(timeline=[{"time": 2.0}, {"time": 1.0}])
        with pytest.raises(ConfigurationError):
            ScriptedDynamics(timeline=[{"remove": [[0, 1]]}])
        model = ScriptedDynamics(timeline=[{"time": 1.0,
                                            "leave": [99]}])
        with pytest.raises(ConfigurationError):
            model.bind(type("S", (), {"graph": clique(3)})())


# ----------------------------------------------------------------------
# Connectivity metrics
# ----------------------------------------------------------------------
def _churned_ring(seed, snapshots, n, chords):
    """``snapshots`` edge sets over ``n`` nodes: a ring plus ``chords``
    random chords, one random edge flipped per snapshot unless the flip
    would disconnect the graph."""
    rng = random.Random(seed)
    nodes = list(range(n))
    universe = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    while len(edges) < n + chords:
        edges.add(universe[int(rng.random() * len(universe))])
    edge_sets = []
    for _ in range(snapshots):
        trial = edges ^ {universe[int(rng.random() * len(universe))]}
        if is_connected(nodes, frozenset(trial)):
            edges = trial
        edge_sets.append(frozenset(edges))
    return nodes, edge_sets


class TestConnectivity:
    def test_t_interval_basics(self):
        graph = line(3)
        e01 = frozenset({(0, 1)})
        e12 = frozenset({(1, 2)})
        both = frozenset({(0, 1), (1, 2)})
        nodes = graph.nodes
        assert t_interval_connected([both, both], nodes, 2)
        assert not t_interval_connected([e01, e12], nodes, 1)
        assert max_t_interval([both, both, both], nodes) == 3
        # Connected snapshots whose pairwise intersections disconnect.
        tri = clique(3)
        a = frozenset({(0, 1), (1, 2)})
        b = frozenset({(0, 2), (1, 2)})
        assert max_t_interval([a, b], tri.nodes) == 1

    def test_report_from_run(self):
        graph = line(3)
        dynamics = ScriptedDynamics(timeline=[
            {"time": 1.5, "remove": [[1, 2]]},   # disconnect
            {"time": 3.5, "add": [[1, 2]]},      # heal
        ])
        result = _run(graph, SynchronousScheduler(1.0),
                      dynamics=dynamics, max_time=40.0)
        report = connectivity_report(graph, result.trace)
        assert report["topologies"] == 3
        assert report["always_connected"] is False
        assert report["max_t_interval"] == 0
        assert report["min_edges"] == 1
        timeline = edge_timeline(graph, result.trace)
        assert [t for t, _ in timeline] == [0.0, 1.5, 3.5]

    def test_runner_attaches_connectivity_extras(self):
        graph = clique(5)
        metrics = run_consensus(
            algorithm="wpaxos", topology="clique(5)", graph=graph,
            scheduler=SynchronousScheduler(1.0),
            factory=lambda v, val: _wpaxos_factory(graph)(v),
            dynamics=EdgeChurn(rate=0.2, seed=4), max_time=60.0)
        conn = metrics.extras["connectivity"]
        assert conn["always_connected"] is True  # spanning-tree floor
        assert conn["topologies"] >= 1
        assert conn["max_t_interval"] == conn["topologies"]

    # The numpy edge-presence fork of these two functions is deleted;
    # the literals below are what it returned at b64f69e on sequences
    # long enough (>= 32 snapshots) to take it.
    @pytest.mark.parametrize("args, edges_seen, expected", [
        ((7, 77, 12, 30), 62, 24),
        ((11, 500, 16, 95), 120, 52),
    ])
    def test_long_sequences_match_deleted_vectorized_path(
            self, args, edges_seen, expected):
        nodes, edge_sets = _churned_ring(*args)
        assert len({e for edges in edge_sets for e in edges}) \
            == edges_seen
        assert max_t_interval(edge_sets, nodes) == expected
        for t in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64):
            assert t_interval_connected(edge_sets, nodes, t) \
                is (t <= expected)

    def test_e13_node_churn_cell_matches_deleted_vectorized_path(self):
        from repro.experiments.e13_churn import manifest
        block = next(b for b in manifest().blocks
                     if b.name == "node-churn")
        (scenario,) = block.scenarios()
        resolved = scenario.resolve()
        result = resolved.simulate()
        report = connectivity_report(resolved.graph, result.trace)
        assert report == {
            "topologies": 77, "topo_events": 1383,
            "connected_fraction": 0.1429, "always_connected": False,
            "max_t_interval": 0, "min_edges": 28, "max_edges": 66}
        edge_sets = [edges for _, edges
                     in edge_timeline(resolved.graph, result.trace)]
        assert not t_interval_connected(edge_sets,
                                        resolved.graph.nodes, 1)


# ----------------------------------------------------------------------
# Mixed-timestamp delivery batching (satellite)
# ----------------------------------------------------------------------
class _QuantizedScheduler(Scheduler):
    """Per-neighbor delays drawn from a tiny set of offsets, so plans
    mix repeated and distinct timestamps -- the grouping case."""

    trusted = True

    def __init__(self, seed=0):
        import random
        self.f_ack = 1.0
        self._rng = random.Random(seed)

    def plan(self, *, sender, message, start_time, neighbors):
        offsets = (0.25, 0.5, 0.75)
        deliveries = {v: start_time + self._rng.choice(offsets)
                      for v in neighbors}
        return DeliveryPlan(deliveries=deliveries,
                            ack_time=start_time + 1.0)


class TestMixedTimestampBatching:
    @given(n=st.integers(4, 9), seed=st.integers(0, 10 ** 6))
    @settings(**SETTINGS)
    def test_ab_byte_identity_quantized(self, n, seed):
        # B side: the reference order of one heap entry per neighbor,
        # rebuilt from a twin scheduler's plans.
        graph = clique(n)
        result = _run(graph, _QuantizedScheduler(seed))
        delivered = delivered_order(result.trace)
        expected = per_receiver_delivery_order(
            graph, result.trace, _QuantizedScheduler(seed))
        assert delivered and delivered == expected[:len(delivered)]

    def test_ab_byte_identity_with_crash_plans(self):
        # B side: (events, trace sha256) of this run with
        # batch_deliveries=False on the last commit that had the
        # toggle (20c27ed). 21 of its 191 events were popped
        # deliveries to the crashed node 5 that did nothing; a crash
        # now prunes them when they are planned, so they are no events.
        from repro.macsim import CrashFaultModel, CrashPlan
        graph = clique(6)
        sim = build_simulation(graph, _wpaxos_factory(graph),
                               _QuantizedScheduler(3),
                               fault_model=CrashFaultModel(
                                   [CrashPlan(5, 1.6, {0, 1})]))
        result = sim.run(max_time=60.0)
        assert (result.events_processed, trace_digest(result.trace)) == (
            191 - 21, "b316d41f0921f983e57f0427f4e5e835"
                 "bb85941914ead31676106f2324366a37")

    def test_grouped_entries_reduce_heap_traffic(self):
        # Direct check: a 9-receiver plan with 3 distinct timestamps
        # pushes 3 delivery entries, not 9.
        graph = clique(10)
        scheduler = _QuantizedScheduler(1)
        sim = build_simulation(graph, _wpaxos_factory(graph), scheduler)
        plan = scheduler.plan(sender=0, message="m", start_time=0.0,
                              neighbors=graph.neighbors(0))
        distinct = len(set(plan.deliveries.values()))
        before = len(sim._queue._heap)
        sim.process_at(0).broadcast("m")
        pushed = len(sim._queue._heap) - before
        assert pushed <= distinct + 1  # groups + ack
        assert pushed < len(plan.deliveries) + 1

    def test_random_delay_all_distinct_unchanged(self):
        graph = clique(5)
        result = _run(graph, RandomDelayScheduler(1.0, seed=7))
        delivered = delivered_order(result.trace)
        expected = per_receiver_delivery_order(
            graph, result.trace, RandomDelayScheduler(1.0, seed=7))
        assert delivered and delivered == expected[:len(delivered)]


# ----------------------------------------------------------------------
# Scheduler registry entries (satellite)
# ----------------------------------------------------------------------
class TestSchedulerRegistryEntries:
    def test_silencing_from_spec(self):
        spec = SchedulerSpec("silencing", silenced=[0],
                             release_time=3.0)
        scheduler = spec.build(seed=0)
        plan = scheduler.plan(sender=0, message="m", start_time=0.0,
                              neighbors=(1, 2))
        assert min(plan.deliveries.values()) >= 3.0
        plan = scheduler.plan(sender=1, message="m", start_time=0.0,
                              neighbors=(0, 2))
        assert max(plan.deliveries.values()) <= 1.0

    def test_partition_from_spec(self):
        spec = SchedulerSpec("partition", side_a=[0, 1],
                             release_time=4.0)
        scheduler = spec.build(seed=0)
        plan = scheduler.plan(sender=0, message="m", start_time=0.0,
                              neighbors=(1, 2))
        assert plan.deliveries[1] == 1.0       # same side
        assert plan.deliveries[2] >= 4.0       # crosses the cut
        with pytest.raises(ScenarioError):
            SchedulerSpec("partition", side_a=[0],
                          inner=SchedulerSpec("random")).build(seed=0)

    def test_scripted_from_json_params(self):
        spec = SchedulerSpec("scripted", scripts={
            "0": [{"ack": 2.0, "deliveries": {"1": 0.5}}],
        }, f_ack=10.0)
        scheduler = spec.build(seed=0)
        plan = scheduler.plan(sender=0, message="m", start_time=1.0,
                              neighbors=(1, 2))
        assert plan.deliveries == {1: 1.5, 2: 3.0}
        assert plan.ack_time == 3.0
        # Round-trips through real JSON (spec-friendly params).
        scenario = Scenario(algorithm=AlgorithmSpec("gatherall"),
                            topology=TopologySpec("clique", n=3),
                            scheduler=spec)
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_registered_schedulers_run_consensus(self):
        scenario = Scenario(
            algorithm=AlgorithmSpec("gatherall"),
            topology=TopologySpec("clique", n=4),
            scheduler=SchedulerSpec("silencing", silenced=[3],
                                    release_time=2.0))
        metrics = scenario.run()
        assert metrics.correct


# ----------------------------------------------------------------------
# Zip-mode grids (satellite)
# ----------------------------------------------------------------------
class TestZipGrids:
    def _base(self):
        return Scenario(algorithm=AlgorithmSpec("gatherall"),
                        topology=TopologySpec("clique", n=4),
                        scheduler=SchedulerSpec("synchronous"))

    def test_zip_only_two_axes(self):
        grid = self._base().grid(zipped={"topology.n": [4, 5, 6],
                                         "seed": [7, 8, 9]})
        assert grid.keys() == [(4, 7), (5, 8), (6, 9)]
        assert len(grid) == 3
        scenario = grid.scenario_at((5, 8))
        assert scenario.topology.params["n"] == 5
        assert scenario.seed == 8

    def test_zip_single_axis_plain_keys(self):
        grid = self._base().grid(zipped={"seed": [1, 2]})
        assert grid.keys() == [1, 2]
        assert grid.scenario_at(2).seed == 2

    def test_cartesian_times_zip(self):
        grid = self._base().grid(
            {"scheduler.f_ack": [1.0, 2.0]},
            zipped={"topology.n": [4, 6], "seed": [1, 2]})
        assert grid.keys() == [(1.0, (4, 1)), (1.0, (6, 2)),
                               (2.0, (4, 1)), (2.0, (6, 2))]
        assert len(grid) == 4
        scenario = grid.scenario_at((2.0, (6, 2)))
        assert scenario.scheduler.params["f_ack"] == 2.0
        assert scenario.topology.params["n"] == 6
        assert scenario.seed == 2

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(ScenarioError):
            self._base().grid(zipped={"topology.n": [4, 5],
                                      "seed": [1, 2, 3]})

    def test_zip_overlap_with_cartesian_rejected(self):
        with pytest.raises(ScenarioError):
            self._base().grid({"seed": [1, 2]}, zipped={"seed": [3]})

    def test_zip_grid_runs(self):
        grid = self._base().grid(zipped={"topology.n": [4, 5],
                                         "seed": [0, 1]})
        series = grid.run(workers=1)
        assert [p.key for p in series.points] == [(4, 0), (5, 1)]
        assert series.all_correct()
        assert [p.x for p in series.points] == [4.0, 5.0]


# ----------------------------------------------------------------------
# Scenario + CLI + export integration
# ----------------------------------------------------------------------
class TestScenarioIntegration:
    def test_dynamics_spec_round_trip(self):
        scenario = Scenario(
            algorithm=AlgorithmSpec("wpaxos"),
            topology=TopologySpec("clique", n=6),
            scheduler=SchedulerSpec("synchronous"),
            dynamics=DynamicsSpec("edge-churn", rate=0.1,
                                  epoch_length=2.0),
            seed=5)
        assert Scenario.from_json(scenario.to_json()) == scenario
        assert scenario.run().correct

    def test_scenario_replay_byte_identity(self, tmp_path):
        scenario = Scenario(
            algorithm=AlgorithmSpec("wpaxos"),
            topology=TopologySpec("clique", n=8),
            scheduler=SchedulerSpec("synchronous"),
            dynamics=DynamicsSpec("edge-churn", rate=0.15),
            seed=2, max_time=60.0)
        first = scenario.simulate()
        assert first.trace.count_of_kind("topo") > 0
        path = tmp_path / "churn.json"
        save_trace(first.trace, str(path), scenario=scenario)
        assert load_scenario(str(path)) == scenario
        second = load_scenario(str(path)).simulate()
        assert trace_to_json(first.trace) == trace_to_json(second.trace)

    def test_parse_dynamics_spec(self):
        spec = parse_spec("edge_churn:rate=0.05", DynamicsSpec)
        assert spec == DynamicsSpec("edge-churn", rate=0.05)
        assert parse_spec("edge-churn", DynamicsSpec) == \
            DynamicsSpec("edge-churn")
        assert parse_spec("edge-churn:0.2", DynamicsSpec) == \
            DynamicsSpec("edge-churn", rate=0.2)
        from repro.registry import UnknownNameError
        with pytest.raises(UnknownNameError):
            parse_spec("teleportation", DynamicsSpec)

    def test_cli_dynamics_run_and_replay(self, tmp_path, capsys):
        path = tmp_path / "churn.json"
        code = cli_main(["run", "--algorithm", "wpaxos",
                         "--topology", "clique:10",
                         "--scheduler", "synchronous", "--seed", "3",
                         "--dynamics", "edge_churn:rate=0.1",
                         "--trace-out", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "dynamics:" in out
        assert "T-interval connectivity" in out
        code = cli_main(["replay", str(path)])
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_cli_list_dynamics(self, capsys):
        assert cli_main(["run", "--list-dynamics"]) == 0
        out = capsys.readouterr().out
        for name in ("edge-churn", "node-churn", "random-waypoint",
                     "scripted"):
            assert name in out

    def test_dump_scenario_includes_dynamics(self, tmp_path, capsys):
        code = cli_main(["run", "--algorithm", "wpaxos",
                         "--topology", "clique:6",
                         "--dynamics", "node_churn:leave_rate=0.1",
                         "--dump-scenario", "-"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dynamics"]["name"] == "node-churn"
        assert data["dynamics"]["params"]["leave_rate"] == 0.1
