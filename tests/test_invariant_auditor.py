"""The online MAC-invariant audit: one implementation, two feeds.

``InvariantAuditor`` is fed either live -- by the counting sink's
``record`` / ``record_deliveries`` during a ``DECISIONS``-level run --
or post hoc, by
``check_model_invariants`` replaying a FULL trace. Pinned here:

* **no silent skip** -- ``check_invariants=True`` raises on a violating
  run at ``trace_level="decisions"`` exactly as it does at ``"full"``
  (on the parent commit the counting sink was simply not checked), and
  a sink that can be neither replayed nor fed refuses to run unchecked;
* **online == post hoc** -- a hypothesis property over topology x
  scheduler x fault x dynamics (and over schedulers that lie), plus a
  table of hand-injected violations, one per class the audit reports:
  same ``ok``, same violation list, from both entry points;
* **run == rows** -- a fan-out handed over as one run
  (``feed_deliveries``) is cleared with set operations when clean and
  otherwise reports what its rows, fed one by one, report: one table
  row per violation a delivery can commit;
* **the one look-ahead** -- a neighbor crashing at exactly an ack's
  timestamp is excused by both: the engine records the crash first.
"""

import inspect
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.runner import run_consensus
from repro.analysis.sweeps import parallel_sweep, sweep
from repro.core import WPaxosConfig, WPaxosNode
from repro.macsim.errors import ModelViolationError
from repro.macsim.faults import CrashFaultModel, CrashPlan
from repro.macsim.invariants import (InvariantAuditor,
                                     check_model_invariants)
from repro.macsim.schedulers import DeliveryPlan, SynchronousScheduler
from repro.macsim.trace import (TOPO_EDGE_DOWN, TOPO_EDGE_UP, Trace,
                                TraceLevel, TraceRecord, TraceSink,
                                make_sink)
from repro.scenario import (AlgorithmSpec, DynamicsSpec, FaultSpec,
                            OverlaySpec, Scenario, SchedulerSpec,
                            TopologySpec)
from repro.topology import Graph, clique, line


def _wpaxos_run(graph, scheduler, **kwargs):
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return run_consensus(
        algorithm="wpaxos", topology="test", graph=graph,
        scheduler=scheduler,
        factory=lambda v, val: WPaxosNode(uid[v], val, graph.n,
                                          WPaxosConfig()),
        max_time=60.0, **kwargs)


class LyingScheduler(SynchronousScheduler):
    """Trusted (so never validated), and wrong: every plan also
    delivers to a node two hops away."""

    def __init__(self, graph):
        super().__init__(1.0)
        self.graph = graph

    def plan(self, *, sender, message, start_time, neighbors):
        honest = super().plan(sender=sender, message=message,
                              start_time=start_time, neighbors=neighbors)
        stranger = next(v for v in self.graph.nodes
                        if v != sender and v not in neighbors)
        return DeliveryPlan({**honest.deliveries,
                             stranger: honest.ack_time}, honest.ack_time)


# ----------------------------------------------------------------------
# No silent skip
# ----------------------------------------------------------------------
class TestNoSilentSkip:
    @pytest.mark.parametrize("level", ["full", "decisions"])
    def test_violating_run_raises_at_every_level(self, level):
        graph = line(4)
        with pytest.raises(ModelViolationError, match="non-neighbor"):
            _wpaxos_run(graph, LyingScheduler(graph), trace_level=level)

    def test_caller_supplied_counting_sink_is_audited(self):
        graph = line(4)
        with pytest.raises(ModelViolationError, match="non-neighbor"):
            _wpaxos_run(graph, LyingScheduler(graph),
                        trace_sink=Trace())

    def test_unchecked_run_is_still_allowed(self):
        graph = line(4)
        metrics = _wpaxos_run(graph, LyingScheduler(graph),
                              trace_level="decisions",
                              check_invariants=False)
        assert metrics.events > 0

    def test_sink_that_cannot_be_audited_refuses(self):
        class CountOnly(TraceSink):
            pass

        with pytest.raises(NotImplementedError, match="CountOnly"):
            _wpaxos_run(clique(3), SynchronousScheduler(1.0),
                        trace_sink=CountOnly())

    def test_sweeps_default_to_the_audited_counting_level(self):
        for runner in (sweep, parallel_sweep):
            default = inspect.signature(runner).parameters["trace_level"]
            assert default.default is TraceLevel.DECISIONS
        uid = {v: v + 1 for v in range(5)}

        def build(n):
            graph = line(int(n))
            return dict(graph=graph, scheduler=LyingScheduler(graph),
                        factory=lambda v, val: WPaxosNode(
                            uid[v], val, graph.n, WPaxosConfig()))

        with pytest.raises(ModelViolationError, match="non-neighbor"):
            sweep("lying", [4, 5], build, max_time=60.0)

    def test_audited_sink_keeps_no_mac_records_and_exact_counters(self):
        graph = clique(5)
        full = _wpaxos_run(graph, SynchronousScheduler(1.0),
                           trace_level="full")
        sink = Trace()
        counted = _wpaxos_run(graph, SynchronousScheduler(1.0),
                              trace_sink=sink)
        assert counted == full
        assert {r.kind for r in sink} == {"decide"}
        assert sink.count_of_kind("deliver") == full.deliveries


# ----------------------------------------------------------------------
# Online == post hoc: property
# ----------------------------------------------------------------------
def _both_reports(scenario, scheduler_wrap=None):
    """(live, post hoc) reports of one seeded scenario."""
    def resolved():
        r = scenario.resolve()
        if scheduler_wrap is not None:
            r.scheduler = scheduler_wrap(r.scheduler, r.graph)
        faulty = (frozenset() if r.fault_model is None
                  else frozenset(r.fault_model.faulty_nodes()))
        return r, faulty

    r, faulty = resolved()
    auditor = InvariantAuditor(r.graph, r.scheduler.f_ack,
                               r.unreliable_graph, faulty)
    sink = Trace()
    sink.attach_auditor(auditor)
    live_events = r.simulate(trace_sink=sink).events_processed

    r, faulty = resolved()
    result = r.simulate(trace_sink=make_sink("full"))
    assert result.events_processed == live_events
    post_hoc = check_model_invariants(
        r.graph, result.trace, r.scheduler.f_ack,
        unreliable_graph=r.unreliable_graph, faulty=faulty)
    return auditor.report(), post_hoc


TOPOLOGIES = [TopologySpec("clique", n=5), TopologySpec("line", n=5),
              TopologySpec("grid", rows=2, cols=3),
              TopologySpec("star-of-cliques", arms=2, size=3)]
SCHEDULERS = [SchedulerSpec("synchronous", f_ack=1.0),
              SchedulerSpec("random", f_ack=2.0),
              SchedulerSpec("staggered", step=0.25, max_degree=8)]
FAULTS = [None,
          FaultSpec("crash", node=0, time=1.0),
          FaultSpec("crash", node=1, time=2.0, still_delivered=[0]),
          FaultSpec("omission", count=1, send=True, receive=True),
          FaultSpec("byzantine", count=1, strategy="corrupt"),
          FaultSpec("byzantine", count=1, strategy="equivocate"),
          FaultSpec("byzantine", count=1, strategy="silent")]
DYNAMICS = [None,
            DynamicsSpec("edge-churn", rate=0.2, epoch_length=1.0),
            DynamicsSpec("node-churn", leave_rate=0.2, rejoin_rate=0.5,
                         epoch_length=1.0)]


class TestOnlineEqualsPostHoc:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(topology=st.sampled_from(TOPOLOGIES),
           scheduler=st.sampled_from(SCHEDULERS),
           fault=st.sampled_from(FAULTS),
           dynamics=st.sampled_from(DYNAMICS),
           seed=st.integers(min_value=0, max_value=5))
    def test_honest_runs(self, topology, scheduler, fault, dynamics,
                         seed):
        scenario = Scenario(
            algorithm=AlgorithmSpec("wpaxos"), topology=topology,
            scheduler=scheduler, fault=fault, dynamics=dynamics,
            seed=seed, max_time=40.0)
        live, post_hoc = _both_reports(scenario)
        assert live.violations == post_hoc.violations == []
        assert live.ok and post_hoc.ok

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(p=st.sampled_from([0.0, 0.5, 1.0]),
           seed=st.integers(min_value=0, max_value=3))
    def test_dual_graph_runs(self, p, seed):
        scenario = Scenario(
            algorithm=AlgorithmSpec("wpaxos"),
            topology=TopologySpec("line", n=6),
            overlay=OverlaySpec("random-overlay", density=0.4, seed=3),
            scheduler=SchedulerSpec(
                "bernoulli-unreliable", p=p, seed=seed,
                inner=SchedulerSpec("synchronous", f_ack=1.0)),
            seed=seed, max_time=40.0)
        live, post_hoc = _both_reports(scenario)
        assert live.violations == post_hoc.violations == []

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(topology=st.sampled_from(TOPOLOGIES[1:]),
           dynamics=st.sampled_from(DYNAMICS[:2]),
           seed=st.integers(min_value=0, max_value=9))
    def test_lying_schedulers(self, topology, dynamics, seed):
        """A trusted scheduler that breaks the contract at random --
        drops a neighbor, reaches a stranger, acks early or late -- is
        caught identically by both feeds."""
        scenario = Scenario(
            algorithm=AlgorithmSpec("wpaxos"), topology=topology,
            dynamics=dynamics, seed=seed, max_time=12.0)
        live, post_hoc = _both_reports(
            scenario, lambda inner, graph: SloppyScheduler(graph, seed))
        assert live.violations == post_hoc.violations
        assert live.ok == post_hoc.ok


class SloppyScheduler(SynchronousScheduler):
    trusted = True

    def __init__(self, graph, seed):
        super().__init__(1.0)
        self.nodes = graph.nodes
        self.rng = random.Random(seed)

    def plan(self, *, sender, message, start_time, neighbors):
        honest = super().plan(sender=sender, message=message,
                              start_time=start_time, neighbors=neighbors)
        deliveries, ack = dict(honest.deliveries), honest.ack_time
        roll = self.rng.random()
        if roll < 0.1 and deliveries:
            del deliveries[self.rng.choice(sorted(deliveries))]
        elif roll < 0.2:
            deliveries[self.rng.choice(self.nodes)] = ack
        elif roll < 0.3:
            ack -= 0.5          # before its deliveries
        elif roll < 0.4:
            ack += 2.0          # past F_ack
            deliveries = dict.fromkeys(deliveries, ack)
        return DeliveryPlan(deliveries, ack)


# ----------------------------------------------------------------------
# Online == post hoc: one injected violation per class
# ----------------------------------------------------------------------
#: A contract-respecting stream on clique(3), node 2 faulty in the
#: fault-model cases: (time, kind, node, bid, peer, payload).
CLEAN = [
    (0.0, "broadcast", 0, 0, None, "m"),
    (1.0, "deliver", 1, 0, 0, "m"),
    (1.0, "deliver", 2, 0, 0, "m"),
    (1.0, "ack", 0, 0, None, None),
]


def _edit(stream, *, drop=(), insert=(), replace=()):
    """``stream`` with rows dropped, ``(index, row)`` replaced and
    ``(index, row)`` inserted (indexes into the original)."""
    out = []
    for i, row in enumerate(stream):
        for at, new in insert:
            if at == i:
                out.append(new)
        if i in drop:
            continue
        out.append(dict(replace).get(i, row))
    out.extend(new for at, new in insert if at >= len(stream))
    return out


#: name -> (graph, stream, audit kwargs, the one expected message)
MUTATIONS = {
    "non-neighbour": (
        line(3), _edit(CLEAN, drop={2}, insert=[(2, (1.0, "deliver", 2, 0, 0, "m"))]),
        {}, "broadcast 0 delivered to non-neighbor 2 of 0"),
    "duplicate": (
        clique(3), _edit(CLEAN, insert=[(2, (1.0, "deliver", 1, 0, 0, "m"))]),
        {}, "duplicate delivery of broadcast 0 to 1"),
    "delivery-before-start": (
        clique(3), _edit(CLEAN, replace=[(0, (1.0, "broadcast", 0, 0, None, "m")),
                                         (1, (0.5, "deliver", 1, 0, 0, "m"))]),
        {}, "delivery of broadcast 0 precedes its start"),
    "delivery-after-crash": (
        clique(3), _edit(CLEAN, insert=[(1, (0.5, "crash", 1, None, None, None))]),
        {}, "delivery to crashed node 1"),
    "broadcast-after-crash": (
        clique(3), [(0.5, "crash", 0, None, None, None),
                    (1.0, "broadcast", 0, 0, None, "m")],
        {}, "crashed node 0 broadcast at 1.0"),
    "mutated-payload-correct-sender": (
        clique(3), _edit(CLEAN, replace=[(1, (1.0, "deliver", 1, 0, 0, "forged"))]),
        {"faulty": frozenset({2})},
        "broadcast 0 of correct node 0 delivered mutated payload to 1"),
    "drop-between-correct-nodes": (
        clique(3), _edit(CLEAN, replace=[(1, (1.0, "drop", 1, 0, 0, "m"))]),
        {"faulty": frozenset({2})},
        "broadcast 0 dropped between correct nodes 0 -> 1"),
    "ack-to-wrong-node": (
        clique(3), _edit(CLEAN, replace=[(3, (1.0, "ack", 1, 0, None, None))]),
        {}, "ack for broadcast 0 went to 1 instead of sender 0"),
    "ack-before-last-delivery": (
        clique(3), _edit(CLEAN, replace=[(2, (1.5, "deliver", 2, 0, 0, "m"))]),
        {"f_ack": 2.0}, "ack for broadcast 0 precedes its last delivery"),
    "ack-after-f-ack": (
        clique(3), _edit(CLEAN, replace=[(3, (3.0, "ack", 0, 0, None, None))]),
        {}, "ack for broadcast 0 took 3.0 > F_ack=1.0"),
    "ack-before-neighbour-received": (
        clique(3), _edit(CLEAN, drop={2}),
        {}, "ack for broadcast 0 of 0 before non-faulty neighbor 2 received"),
    "deliver-on-closed-broadcast": (
        clique(3), CLEAN + [(1.5, "deliver", 1, 0, 0, "m")],
        {"f_ack": 2.0},
        "delivery for unknown or closed (already acked) broadcast 0"),
    "ack-on-closed-broadcast": (
        clique(3), CLEAN + [(1.0, "ack", 0, 0, None, None)],
        {}, "ack for unknown or closed broadcast 0"),
    "drop-on-closed-broadcast": (
        clique(3), CLEAN + [(1.0, "drop", 2, 0, 0, "m")],
        {"faulty": frozenset({2})},
        "drop for unknown or closed broadcast 0"),
    "edge-absent-as-of-broadcast": (
        clique(3), [(0.5, "topo", 0, TOPO_EDGE_DOWN, 2, None),
                    (1.0, "broadcast", 0, 0, None, "m"),
                    (2.0, "deliver", 1, 0, 0, "m"),
                    (2.0, "deliver", 2, 0, 0, "m"),
                    (2.0, "ack", 0, 0, None, None)],
        {}, "broadcast 0 delivered to non-neighbor 2 of 0 "
            "(as of the broadcast)"),
    "edge-added-after-broadcast-is-not-owed": (
        line(3), [(0.5, "topo", 0, TOPO_EDGE_DOWN, 1, None),
                  (1.0, "broadcast", 0, 0, None, "m"),
                  (1.5, "topo", 0, TOPO_EDGE_UP, 1, None),
                  (2.0, "deliver", 1, 0, 0, "m"),
                  (2.0, "ack", 0, 0, None, None)],
        {}, "broadcast 0 delivered to non-neighbor 1 of 0 "
            "(as of the broadcast)"),
}

#: Streams that must stay clean (the licences the audit grants).
LICENCES = {
    "clean": (clique(3), CLEAN, {}),
    "faulty-sender-may-mutate-and-drop": (
        clique(3), [(0.0, "broadcast", 2, 0, None, "m"),
                    (1.0, "deliver", 0, 0, 2, "forged"),
                    (1.0, "drop", 1, 0, 2, "m"),
                    (1.0, "ack", 2, 0, None, None)],
        {"faulty": frozenset({2})}),
    "edge-churned-away-after-broadcast": (
        clique(3), [(0.5, "topo", 0, TOPO_EDGE_UP, 1, None),
                    (1.0, "broadcast", 0, 0, None, "m"),
                    (1.5, "topo", 0, TOPO_EDGE_DOWN, 2, None),
                    (2.0, "deliver", 1, 0, 0, "m"),
                    (2.0, "deliver", 2, 0, 0, "m"),
                    (2.0, "ack", 0, 0, None, None)],
        {}),
    "crash-then-ack-at-one-timestamp": (
        clique(3), _edit(CLEAN, drop={2},
                         insert=[(1, (1.0, "crash", 2, None, None, None))]),
        {}),
}


def _rows(stream):
    """``stream`` with each run row ``(time, "run", receivers, bid,
    sender, payload)`` expanded into its deliveries."""
    out = []
    for row in stream:
        if row[1] == "run":
            time, _, receivers, bid, sender, payload = row
            out.extend((time, "deliver", v, bid, sender, payload)
                       for v in receivers)
        else:
            out.append(row)
    return out


def _audit_both(graph, stream, kwargs):
    """(live, post hoc) reports of ``stream``; the live sink is handed
    run rows whole (``record_deliveries``), the replay their rows."""
    kwargs = dict({"f_ack": 1.0}, **kwargs)
    rows = _rows(stream)
    post_hoc = check_model_invariants(
        graph, [TraceRecord(*row) for row in rows], **kwargs)
    auditor = InvariantAuditor(graph, kwargs["f_ack"],
                               faulty=kwargs.get("faulty", frozenset()))
    sink = Trace()
    sink.attach_auditor(auditor)
    for time, kind, node, bid, peer, payload in stream:
        if kind == "run":
            sink.record_deliveries(time, bid, peer, payload, node)
        else:
            sink.record(time, kind, node, broadcast_id=bid, peer=peer,
                        payload=payload)
    assert len(sink) == sum(row[1] in ("crash", "topo") for row in rows)
    assert sink.delivery_count() == sum(row[1] == "deliver"
                                        for row in rows)
    return auditor.report(), post_hoc


class TestInjectedViolations:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_same_message_from_both_entry_points(self, name):
        graph, stream, kwargs, message = MUTATIONS[name]
        live, post_hoc = _audit_both(graph, stream, kwargs)
        assert live.violations == post_hoc.violations == [message]
        assert not live.ok and not post_hoc.ok

    @pytest.mark.parametrize("name", sorted(LICENCES))
    def test_licensed_streams_stay_clean(self, name):
        live, post_hoc = _audit_both(*LICENCES[name])
        assert live.violations == post_hoc.violations == []
        assert live.ok and post_hoc.ok


# ----------------------------------------------------------------------
# Audited run == audited rows
# ----------------------------------------------------------------------
def _run(time, receivers, payload="m", bid=0, sender=0):
    """A run row: one broadcast delivered to ``receivers`` at once."""
    return (time, "run", receivers, bid, sender, payload)


_BROADCAST, _ACK = CLEAN[0], CLEAN[3]

#: name -> (graph, stream with run rows, audit kwargs, expected
#: messages): every violation a delivery can commit, inside a run.
RUN_MUTATIONS = {
    "non-neighbour": (
        line(3), [_BROADCAST, _run(1.0, (1, 2)), _ACK], {},
        ["broadcast 0 delivered to non-neighbor 2 of 0"]),
    "duplicate-across-runs": (
        clique(3), [_BROADCAST, _run(0.5, (1,)), _run(1.0, (1, 2)), _ACK],
        {}, ["duplicate delivery of broadcast 0 to 1"]),
    "duplicate-within-one-run": (
        clique(3), [_BROADCAST, _run(1.0, (1, 2, 1)), _ACK], {},
        ["duplicate delivery of broadcast 0 to 1"]),
    "delivery-before-start": (
        clique(3), [(1.0, "broadcast", 0, 0, None, "m"),
                    _run(0.5, (1, 2)), (2.0, "ack", 0, 0, None, None)],
        {}, ["delivery of broadcast 0 precedes its start"] * 2),
    "delivery-to-crashed-node": (
        clique(3), [_BROADCAST, (0.5, "crash", 1, None, None, None),
                    _run(1.0, (1, 2)), _ACK],
        {}, ["delivery to crashed node 1"]),
    "mutated-payload-correct-sender": (
        clique(3), [_BROADCAST, _run(1.0, (1, 2), payload="forged"), _ACK],
        {"faulty": frozenset({2})},
        ["broadcast 0 of correct node 0 delivered mutated payload to 1",
         "broadcast 0 of correct node 0 delivered mutated payload to 2"]),
    "run-on-closed-broadcast": (
        clique(3), CLEAN + [_run(1.5, (1, 2))], {"f_ack": 2.0},
        ["delivery for unknown or closed (already acked) broadcast 0"]
        * 2),
}

#: Runs that must stay clean.
RUN_LICENCES = {
    "whole-fan-out": (clique(3), [_BROADCAST, _run(1.0, (1, 2)), _ACK],
                      {}),
    "split-fan-out": (clique(4), [_BROADCAST, _run(1.0, (1,)),
                                  _run(1.0, (2, 3)), _ACK], {}),
    "equal-payload-of-another-identity": (
        clique(3), [(0.0, "broadcast", 0, 0, None, ("m", 1)),
                    _run(1.0, (1, 2), payload=tuple(["m", 1])), _ACK],
        {}),
    "faulty-sender-may-mutate": (
        clique(3), [(0.0, "broadcast", 2, 0, None, "m"),
                    _run(1.0, (0, 1), payload="forged", sender=2),
                    (1.0, "ack", 2, 0, None, None)],
        {"faulty": frozenset({2})}),
    "crashed-receiver-before-its-crash": (
        clique(3), [_BROADCAST, _run(1.0, (1, 2)), _ACK,
                    (2.0, "crash", 1, None, None, None),
                    (2.0, "broadcast", 0, 1, None, "m"),
                    _run(3.0, (2,), bid=1),
                    (3.0, "ack", 0, 1, None, None)], {}),
}


class TestRunsAuditedAsTheirRows:
    @pytest.mark.parametrize("name", sorted(RUN_MUTATIONS))
    def test_same_messages_per_run_per_row_and_post_hoc(self, name):
        graph, stream, kwargs, messages = RUN_MUTATIONS[name]
        per_run, _ = _audit_both(graph, stream, kwargs)
        per_row, post_hoc = _audit_both(graph, _rows(stream), kwargs)
        assert (per_run.violations == per_row.violations
                == post_hoc.violations == messages)
        assert not per_run.ok

    @pytest.mark.parametrize("name", sorted(RUN_LICENCES))
    def test_licensed_runs_stay_clean(self, name):
        graph, stream, kwargs = RUN_LICENCES[name]
        per_run, _ = _audit_both(graph, stream, kwargs)
        per_row, post_hoc = _audit_both(graph, _rows(stream), kwargs)
        assert (per_run.violations == per_row.violations
                == post_hoc.violations == [])
        assert per_run.ok

    def test_dual_graph_run_over_an_unreliable_link_is_clean(self):
        graph = line(3)
        auditor = InvariantAuditor(
            graph, 1.0, unreliable_graph=Graph([(0, 2)], nodes=graph.nodes))
        auditor.feed(0.0, "broadcast", 0, 0, None, "m")
        auditor.feed_deliveries(1.0, 0, 0, "m", (1, 2))
        auditor.feed(1.0, "ack", 0, 0)
        assert auditor.report().ok

    def test_the_engine_feeds_synchronous_fan_outs_whole(self):
        """What the property above relies on: under the synchronous
        scheduler the audited sink is handed runs longer than one."""
        graph = clique(5)
        lengths = []

        class Spy(InvariantAuditor):
            def feed_deliveries(self, time, bid, sender, payload,
                                receivers):
                lengths.append(len(receivers))
                super().feed_deliveries(time, bid, sender, payload,
                                        receivers)

        auditor = Spy(graph, 1.0)
        sink = Trace()
        sink.attach_auditor(auditor)
        counted = _wpaxos_run(graph, SynchronousScheduler(1.0),
                              trace_sink=sink, check_invariants=False)
        assert auditor.report().ok
        assert sum(lengths) == counted.deliveries == sink.delivery_count()
        assert max(lengths) == graph.n - 1 and min(lengths) >= 1


# ----------------------------------------------------------------------
# The one look-ahead: a crash and an ack at one timestamp
# ----------------------------------------------------------------------
class TestSameTimestampCrashAndAck:
    """Node 2 crashes at t=1.0, exactly when round 1's deliveries and
    acks fire. Its delivery is cut, so every ack at 1.0 lacks it:
    the audit must already know about the crash."""

    def _run(self, **kwargs):
        return _wpaxos_run(clique(4), SynchronousScheduler(1.0),
                           fault_model=CrashFaultModel([CrashPlan(2, 1.0)]),
                           **kwargs)

    def test_engine_records_the_crash_before_the_acks(self):
        sink = make_sink("full")
        self._run(trace_sink=sink)
        at_one = [r.kind for r in sink if r.time == 1.0]
        assert at_one[0] == "crash" and "ack" in at_one
        assert not any(r.kind == "deliver" and r.node == 2 for r in sink)

    def test_audited_online_and_post_hoc_agree(self):
        assert self._run(trace_level="decisions") \
            == self._run(trace_level="full")
