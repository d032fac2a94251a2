"""PR 1 fast-path tests: quiescence counters, trace indexes, levels,
event-queue compaction, and parallel sweep determinism."""

import gc
import hashlib
import random

import pytest

from repro.analysis import parallel_sweep, run_consensus, sweep
from repro.core.twophase import TwoPhaseConsensus
from repro.core.wpaxos import WPaxosConfig, WPaxosNode
from repro.macsim import (ColumnarSink, OmissionFaultModel, OmissionPlan,
                          Process, TraceLevel, build_simulation,
                          crash_plan)
from repro.macsim.errors import SimulationLimitError
from repro.macsim.events import (ACK_PRIORITY, DELIVER_PRIORITY,
                                 EventQueue)
from repro.macsim.schedulers import (RandomDelayScheduler,
                                     SynchronousScheduler)
from repro.macsim.simulator import _BroadcastRecord
from repro.macsim.trace import TRACE_KINDS, Trace, TraceSink
from repro.topology import Graph, clique, line
from tests.helpers import AckFirstScheduler, trace_digest


class Chatter(Process):
    """Broadcasts forever; decides after ``decide_after`` acks."""

    def __init__(self, uid, decide_after=None):
        super().__init__(uid=uid, initial_value=0)
        self.decide_after = decide_after
        self.acks = 0

    def on_start(self):
        self.broadcast(("m", self.uid))

    def on_ack(self):
        self.acks += 1
        if self.decide_after is not None and self.acks >= self.decide_after:
            self.decide(0)
        self.broadcast(("m", self.uid))


def oracle_all_alive_decided(sim):
    """The seed engine's O(n) quiescence scan, as a reference."""
    return all(sim.process_at(v).decided
               for v in sim.graph.nodes if v not in sim._crashed)


class TestQuiescenceCounter:
    def test_counter_matches_oracle_under_interleaving(self):
        # Nodes decide at different times; two crash along the way,
        # one of them mid-broadcast, one after it already decided.
        graph = clique(6)
        decide_after = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 9}
        sim = build_simulation(
            graph, lambda v: Chatter(v, decide_after[v]),
            SynchronousScheduler(1.0),
            crashes=[crash_plan(5, 3.5, still_delivered=()),
                     crash_plan(0, 4.5)])
        checks = []

        def predicate(s):
            checks.append((s._undecided_alive == 0,
                           oracle_all_alive_decided(s)))
            return False

        result = sim.run(stop_predicate=predicate)
        assert result.stop_reason == "all_decided"
        assert checks, "predicate never ran"
        for fast, slow in checks:
            assert fast == slow
        assert sim._undecided_alive == 0
        assert oracle_all_alive_decided(sim)

    def test_crash_after_decide_does_not_double_count(self):
        graph = clique(3)
        sim = build_simulation(
            graph, lambda v: Chatter(v, 1),
            SynchronousScheduler(1.0),
            # Node 0 decides at t=1, crashes at t=2.5.
            crashes=[crash_plan(0, 2.5)])
        result = sim.run(stop_when_all_decided=False, max_time=6.0)
        assert sim._undecided_alive == 0
        assert oracle_all_alive_decided(sim)
        assert result.trace.crashed_nodes() == {0}

    def test_undecided_forever_never_reaches_zero(self):
        graph = clique(3)
        sim = build_simulation(graph, lambda v: Chatter(v, None),
                               SynchronousScheduler(1.0))
        result = sim.run(max_events=200)
        assert result.stop_reason == "max_events"
        assert sim._undecided_alive == 3
        assert not oracle_all_alive_decided(sim)

    def test_all_crashed_counts_as_all_decided(self):
        graph = clique(2)
        sim = build_simulation(
            graph, lambda v: Chatter(v, None),
            SynchronousScheduler(1.0),
            crashes=[crash_plan(0, 1.5), crash_plan(1, 1.5)])
        sim.run(max_time=5.0)
        assert sim._undecided_alive == 0
        assert oracle_all_alive_decided(sim)  # vacuous truth


class TestFinishObserverGuard:
    def test_on_finish_fires_once_across_resumed_runs(self):
        calls = []

        class Observer:
            def on_finish(self, sim):
                calls.append(sim.now)

        graph = clique(2)
        sim = build_simulation(graph, lambda v: Chatter(v, None),
                               SynchronousScheduler(1.0))
        sim.add_observer(Observer())
        sim.run(max_events=10)
        sim.run(max_events=10)
        sim.run(max_events=10)
        assert len(calls) == 1


def live_broadcast_records():
    return sum(isinstance(obj, _BroadcastRecord)
               for obj in gc.get_objects())


class _Hello(Process):
    def __init__(self, uid):
        super().__init__(uid=uid, initial_value=0)
        self.heard = []
        self.acked_at = None

    def on_start(self):
        self.broadcast(("hello", self.uid))

    def on_receive(self, message):
        self.heard.append((self.now(), message))

    def on_ack(self):
        self.acked_at = self.now()


class TestBroadcastRecordLifetime:
    """A broadcast's record lives exactly as long as an event can
    reach it: nothing indexes records, so after a long run only the
    in-flight ones are alive -- for every scheduler, trusted or not,
    and without the cyclic GC's help."""

    @pytest.fixture(autouse=True)
    def _refcounts_only(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @pytest.mark.parametrize("crashes", [
        (), (crash_plan(0, 3.5, still_delivered=(1,)),
             crash_plan(5, 40.25)),
    ], ids=["crash-free", "crash-plan"])
    @pytest.mark.parametrize("make_scheduler,validate", [
        (lambda: SynchronousScheduler(1.0), None),
        (lambda: RandomDelayScheduler(1.0, seed=5), None),
        (lambda: RandomDelayScheduler(1.0, seed=5), True),
    ], ids=["synchronous", "random", "random-validated"])
    def test_only_inflight_records_survive_a_long_run(
            self, make_scheduler, validate, crashes):
        graph = clique(8)
        before = live_broadcast_records()
        sim = build_simulation(graph, lambda v: Chatter(v),
                               make_scheduler(), crashes=crashes,
                               validate_plans=validate,
                               trace_level=TraceLevel.DECISIONS)
        result = sim.run(max_events=20_000)
        assert result.events_processed == 20_000
        assert sim.trace.broadcast_count() > 2_000
        alive = live_broadcast_records() - before
        assert 0 < alive <= graph.n
        assert alive == len(sim._inflight)

    def test_trusted_scheduler_delivering_after_its_ack(self):
        scheduler = AckFirstScheduler(late=2.0)
        scheduler.trusted = True
        before = live_broadcast_records()
        sim = build_simulation(clique(3), _Hello, scheduler)
        sim.run(max_time=5.0)
        for v in range(3):
            process = sim.process_at(v)
            assert process.acked_at == 0.5
            assert sorted(process.heard) == [
                (2.0, ("hello", u)) for u in range(3) if u != v]
        assert live_broadcast_records() == before

    def test_dual_graph_delivery_just_after_the_ack(self):
        graph = line(3)  # reliable 0-1-2, unreliable chord 0-2
        before = live_broadcast_records()
        sim = build_simulation(
            graph, _Hello, AckFirstScheduler(late=0.25),
            unreliable_graph=Graph([(0, 2)], nodes=graph.nodes))
        result = sim.run(max_time=5.0)
        late = 0.5 + 1e-9
        assert sim.process_at(2).heard == [(0.25, ("hello", 1)),
                                           (late, ("hello", 0))]
        assert sim.process_at(0).heard == [(0.25, ("hello", 1)),
                                           (late, ("hello", 2))]
        order = [(r.kind, r.node) for r in result.trace
                 if r.time >= 0.5]
        assert order.index(("ack", 0)) < order.index(("deliver", 2))
        assert live_broadcast_records() == before


def naive_trace_queries(records):
    """Full-scan oracle for every indexed Trace query."""
    decisions, decision_times = {}, {}
    for r in records:
        if r.kind == "decide" and r.node not in decisions:
            decisions[r.node] = r.payload
            decision_times[r.node] = r.time
    return {
        "of_kind": {k: [r for r in records if r.kind == k]
                    for k in TRACE_KINDS},
        "for_node": lambda v: [r for r in records if r.node == v],
        "decisions": decisions,
        "decision_times": decision_times,
        "broadcast_count": sum(1 for r in records
                               if r.kind == "broadcast"),
        "delivery_count": sum(1 for r in records if r.kind == "deliver"),
        "crashed": {r.node for r in records if r.kind == "crash"},
    }


class TestTraceIndexes:
    def test_indexes_match_naive_oracle_on_random_log(self):
        rng = random.Random(1234)
        trace = Trace()
        for i in range(3000):
            kind = rng.choice(TRACE_KINDS)
            node = rng.randrange(12)
            trace.record(float(i), kind, node, broadcast_id=i,
                         peer=rng.randrange(12), payload=rng.random())
        oracle = naive_trace_queries(list(trace))
        for kind in TRACE_KINDS:
            assert trace.of_kind(kind) == oracle["of_kind"][kind]
        for node in range(12):
            assert trace.for_node(node) == oracle["for_node"](node)
        assert trace.decisions() == oracle["decisions"]
        assert trace.decision_times() == oracle["decision_times"]
        assert trace.broadcast_count() == oracle["broadcast_count"]
        assert trace.delivery_count() == oracle["delivery_count"]
        assert trace.crashed_nodes() == oracle["crashed"]
        per_node = trace.broadcasts_per_node()
        for node in range(12):
            assert trace.broadcast_count(node) == per_node.get(node, 0)
            assert per_node.get(node, 0) == sum(
                1 for r in oracle["of_kind"]["broadcast"]
                if r.node == node)

    def test_decisions_level_counts_match_full_level(self):
        graph = clique(8)
        uid = {v: i + 1 for i, v in enumerate(graph.nodes)}

        def run(level):
            sim = build_simulation(
                graph,
                lambda v: WPaxosNode(uid[v], graph.index_of(v) % 2,
                                     graph.n, WPaxosConfig()),
                SynchronousScheduler(1.0), trace_level=level)
            return sim.run()

        full = run(TraceLevel.FULL)
        fast = run(TraceLevel.DECISIONS)
        assert fast.decisions == full.decisions
        assert fast.decision_times == full.decision_times
        assert fast.events_processed == full.events_processed
        assert fast.end_time == full.end_time
        assert (fast.trace.broadcast_count()
                == full.trace.broadcast_count())
        assert (fast.trace.delivery_count()
                == full.trace.delivery_count())
        assert (fast.trace.broadcasts_per_node()
                == full.trace.broadcasts_per_node())
        # Only decide/crash records are materialized.
        assert {r.kind for r in fast.trace} <= {"decide", "crash"}
        assert len(fast.trace) == len(full.trace.of_kind("decide"))

    def test_trace_level_coerce_accepts_strings(self):
        assert TraceLevel.coerce("decisions") is TraceLevel.DECISIONS
        assert TraceLevel.coerce(TraceLevel.FULL) is TraceLevel.FULL
        assert Trace("decisions").level is TraceLevel.DECISIONS


class TestEventQueueCompaction:
    def test_mass_cancellation_preserves_order(self):
        queue = EventQueue()
        events = [queue.push(float(i % 31), DELIVER_PRIORITY, "deliver",
                             node=i) for i in range(500)]
        keep = [e for i, e in enumerate(events) if i % 7 == 0]
        for i, event in enumerate(events):
            if i % 7 != 0:
                queue.cancel(event)
        assert len(queue) == len(keep)
        popped = []
        while True:
            event = queue.pop()
            if event is None:
                break
            popped.append(event)
        assert popped == sorted(keep, key=lambda e: e.sort_key)

    def test_peek_time_skips_cancelled_run(self):
        queue = EventQueue()
        early = [queue.push(1.0, DELIVER_PRIORITY, "deliver", node=i)
                 for i in range(10)]
        queue.push(2.0, ACK_PRIORITY, "ack", node="x")
        for event in early:
            queue.cancel(event)
        assert queue.peek_time() == 2.0
        assert queue.pop().node == "x"
        assert queue.peek_time() is None

    def test_mid_run_compaction_does_not_orphan_the_heap(self):
        # Regression: _compact() must keep the heap *list object*
        # (in-place slice assignment), because Simulator.run() holds a
        # direct reference across dispatches. A crash cancelling >= 64
        # pending deliveries triggers compaction mid-run; everything
        # scheduled afterwards must still be processed.
        from repro.topology import star

        graph = star(101)  # hub 0, leaves 1..100

        class HubTalker(Process):
            def __init__(self, uid):
                super().__init__(uid=uid, initial_value=0)
                self.acks = 0
                self.received = []

            def on_start(self):
                if self.uid == 0:
                    self.broadcast(("hub", 0))

            def on_ack(self):
                self.acks += 1
                if self.uid == 1 and self.acks == 1:
                    return  # leaf 1 broadcasts from on_receive below

            def on_receive(self, message):
                self.received.append(message)
                if self.uid == 1 and len(self.received) == 1:
                    self.broadcast(("leaf", 1))

        sim = build_simulation(
            graph, lambda v: HubTalker(v), SynchronousScheduler(1.0),
            # Hub crashes mid-broadcast, cancelling all ~100 pending
            # deliveries plus its ack: well past the compaction
            # threshold, while later events are already scheduled.
            crashes=[crash_plan(0, 0.5, still_delivered=(1,))])
        result = sim.run(max_time=10.0)
        queue = sim._queue
        assert len(queue) == 0, "live events left behind after run"
        assert queue._dead == 0
        # Leaf 1 received the hub's partial broadcast, and its own
        # follow-up broadcast -- scheduled *after* the compaction --
        # must still have been acked (pre-fix the run went quiescent
        # with those events stranded in an orphaned heap list).
        assert sim.process_at(1).received == [("hub", 0)]
        assert sim.process_at(1).acks == 1
        deliveries = result.trace.of_kind("deliver")
        assert [(r.node, r.broadcast_id) for r in deliveries] == [(1, 0)]

    def test_push_light_interleaves_deterministically(self):
        queue = EventQueue()
        queue.push(2.0, DELIVER_PRIORITY, "deliver", node="heavy")
        queue.push_light(1.0, DELIVER_PRIORITY, "deliver", node="light")
        queue.push_light(2.0, ACK_PRIORITY, "ack", node="lite-ack")
        assert len(queue) == 3
        order = [queue.pop().node for _ in range(3)]
        assert order == ["light", "heavy", "lite-ack"]
        assert queue.pop() is None


# ---------------------------------------------------------------------
# Delivery-batch expansion: stops and resumes land on the same receiver
# ---------------------------------------------------------------------
class _Listener(Process):
    """Broadcasts back to back; decides on hearing its 12th message
    (clique-6/synchronous: the second delivery of its third round, so
    the last decision falls in the middle of a batch)."""

    def __init__(self, uid):
        super().__init__(uid=uid, initial_value=0)
        self.sent = 0
        self.heard = []

    def on_start(self):
        self.broadcast(("m", self.uid, 0))

    def on_ack(self):
        self.sent += 1
        self.broadcast(("m", self.uid, self.sent))

    def on_receive(self, message):
        self.heard.append((self.now(), message))
        if len(self.heard) == 12:
            self.decide(message)


_BATCH_VARIANTS = ("crash-free", "crash-plan", "omission")
_BATCH_LEVELS = (TraceLevel.FULL, TraceLevel.DECISIONS)

#: variant -> (events of the unsliced run, which ``stop_when_all_decided``
#: ends mid-batch; calls a never-true ``stop_predicate`` receives over
#: it). Measured on the commit before the inner batch loop (57f7cfd).
_BATCH_COMMITTED = {
    "crash-free": (84, 99),
    "crash-plan": (87, 106),
    "omission": (166, 195),
}


def _batch_sim(variant, level, **kwargs):
    if variant == "crash-plan":
        # Both die mid-broadcast: node 0's batch loses three receivers
        # (cancelled, filtered at expansion), node 4's is delivered whole.
        kwargs["crashes"] = (crash_plan(0, 0.5, still_delivered=(1, 3)),
                             crash_plan(4, 2.5))
    elif variant == "omission":
        kwargs["fault_model"] = OmissionFaultModel([OmissionPlan(
            node=1, send=True, receive=True, drop_rate=0.5, seed=3)])
    return build_simulation(clique(6), _Listener,
                            SynchronousScheduler(1.0),
                            trace_level=level, **kwargs)


def _batch_signature(sim):
    trace = sim.trace
    return (trace_digest(trace) if trace.replayable else None,
            trace.decisions(), trace.decision_times(),
            {kind: trace.count_of_kind(kind) for kind in TRACE_KINDS},
            {v: (p.sent, p.heard) for v, p in sim.processes.items()})


def _resume_to_completion(sim, **limits):
    reasons, total = [], 0
    while True:
        result = sim.run(**limits)
        reasons.append(result.stop_reason)
        total += result.events_processed
        if result.stop_reason != "max_events":
            return reasons, total


@pytest.mark.parametrize("level", _BATCH_LEVELS, ids=lambda l: l.value)
@pytest.mark.parametrize("variant", _BATCH_VARIANTS)
class TestBatchExpansionStopsAndResumes:
    def _whole(self, variant, level):
        sim = _batch_sim(variant, level)
        result = sim.run()
        assert result.stop_reason == "all_decided"
        return sim, result

    def test_unsliced_run_ends_mid_batch_on_the_committed_event(
            self, variant, level):
        sim, result = self._whole(variant, level)
        assert sim._pending_batch is not None
        assert sim.next_event_time() == result.end_time
        assert result.events_processed == _BATCH_COMMITTED[variant][0]

    @pytest.mark.parametrize("k", range(1, 8))
    def test_max_events_slices_equal_the_unsliced_run(self, variant,
                                                      level, k):
        whole, result = self._whole(variant, level)
        sliced = _batch_sim(variant, level)
        reasons, total = _resume_to_completion(sliced, max_events=k)
        assert total == result.events_processed
        assert reasons == ["max_events"] * (total // k) + ["all_decided"]
        assert _batch_signature(sliced) == _batch_signature(whole)

    def test_predicate_is_evaluated_once_per_loop_step(self, variant,
                                                       level):
        calls = 0

        def never(sim):
            nonlocal calls
            calls += 1
            return False

        sim = _batch_sim(variant, level)
        result = sim.run(stop_predicate=never)
        assert (result.events_processed, calls) == _BATCH_COMMITTED[variant]
        assert _batch_signature(sim) == _batch_signature(
            self._whole(variant, level)[0])

    def test_predicate_tripping_mid_batch_resumes_at_next_receiver(
            self, variant, level):
        whole, _ = self._whole(variant, level)
        sim = _batch_sim(variant, level)
        result = sim.run(
            stop_predicate=lambda s: s.trace.delivery_count() == 8)
        assert result.stop_reason == "predicate"
        assert sim.trace.delivery_count() == 8
        _, record, receivers, index = sim._pending_batch
        assert 0 < index < len(receivers)
        assert sim.next_event_time() == sim.now == 1.0
        # One more event is the interrupted broadcast reaching (or, for
        # the omission model, being dropped at) its next receiver.
        handled = (sim.trace.delivery_count()
                   + sim.trace.count_of_kind("drop"))
        assert sim.run(max_events=1).events_processed == 1
        assert (sim.trace.delivery_count()
                + sim.trace.count_of_kind("drop")) == handled + 1
        if level is TraceLevel.FULL:
            last = sim.trace[len(sim.trace) - 1]
            assert (last.node, last.broadcast_id) == (receivers[index],
                                                      record.bid)
        assert sim.run().stop_reason == "all_decided"
        assert _batch_signature(sim) == _batch_signature(whole)

    def test_max_time_falling_on_a_resumed_batch(self, variant, level):
        whole, _ = self._whole(variant, level)
        sim = _batch_sim(variant, level)
        assert sim.run(max_events=6).stop_reason == "max_events"
        cursor = list(sim._pending_batch)
        assert 0 < cursor[3] < len(cursor[2])
        result = sim.run(max_time=0.5)
        assert (result.stop_reason, result.events_processed) == (
            "max_time", 0)
        with pytest.raises(SimulationLimitError):
            sim.run(max_time=0.5, raise_on_limit=True)
        assert sim._pending_batch == cursor
        assert sim.next_event_time() == 1.0
        assert sim.run().stop_reason == "all_decided"
        assert _batch_signature(sim) == _batch_signature(whole)


def _twophase_build(f_ack):
    graph = clique(5)
    return dict(
        graph=graph,
        scheduler=SynchronousScheduler(f_ack),
        factory=lambda v, val: TwoPhaseConsensus(uid=v,
                                                 initial_value=val))


def _wpaxos_line_build(d):
    graph = line(int(d) + 1)
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return dict(
        graph=graph,
        scheduler=RandomDelayScheduler(1.0, seed=int(d)),
        factory=lambda v, val: WPaxosNode(uid[v], val, graph.n,
                                          WPaxosConfig()))


def _points_signature(result):
    return [(p.x, p.metrics.algorithm, p.metrics.topology,
             p.metrics.n, p.metrics.correct, p.metrics.first_decision,
             p.metrics.last_decision, p.metrics.broadcasts,
             p.metrics.deliveries, p.metrics.events,
             p.metrics.stop_reason) for p in result.points]


class TestParallelSweep:
    def test_matches_sequential_sweep_exactly(self):
        xs = [1.0, 2.0, 4.0]
        sequential = sweep("time vs f_ack", xs, _twophase_build)
        parallel = parallel_sweep("time vs f_ack", xs, _twophase_build,
                                  workers=3)
        assert _points_signature(parallel) == _points_signature(
            sequential)
        assert parallel.xs == sequential.xs == xs

    def test_random_scheduler_sweep_is_deterministic(self):
        xs = [3, 5, 7]
        runs = [parallel_sweep("wpaxos line", xs, _wpaxos_line_build,
                               workers=2) for _ in range(2)]
        assert (_points_signature(runs[0])
                == _points_signature(runs[1]))
        sequential = sweep("wpaxos line", xs, _wpaxos_line_build)
        assert _points_signature(runs[0]) == _points_signature(
            sequential)

    def test_workers_one_falls_back_to_sequential(self):
        xs = [1.0, 2.0]
        result = parallel_sweep("fallback", xs, _twophase_build,
                                workers=1)
        assert [p.x for p in result.points] == xs
        assert result.all_correct()

    def test_decisions_level_sweep_matches_full(self):
        xs = [1.0, 2.0]
        full = sweep("levels", xs, _twophase_build,
                     trace_level=TraceLevel.FULL)
        fast = parallel_sweep("levels", xs, _twophase_build,
                              trace_level="decisions", workers=2)
        assert _points_signature(fast) == _points_signature(full)


# ---------------------------------------------------------------------
# Run rows: one sink call per fan-out writes the rows one call per
# receiver wrote, in the same places
# ---------------------------------------------------------------------
class _Interjector(Process):
    """Writes every kind of row a handler can from inside
    ``on_receive``, mid-batch: on every third message it broadcasts (a
    ``broadcast`` row when idle, a ``discard`` row when not) and
    broadcasts again at once (always a ``discard`` row); it decides on
    its eleventh message."""

    def __init__(self, uid):
        super().__init__(uid=uid, initial_value=0)
        self.heard = 0

    def on_start(self):
        if self.uid % 2 == 0:
            self.broadcast(("start", self.uid))

    def on_receive(self, message):
        self.heard += 1
        if self.heard % 3 == 1:
            self.broadcast(("relay", self.uid, self.heard))
            self.broadcast(("again", self.uid, self.heard))
        if self.heard == 11:
            self.decide(message)


def _colb_digest(sink):
    digest = hashlib.sha256()
    for path in sink.chunk_paths():
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


class _RowsOnlySink(TraceSink):
    """A third-party sink: ``record``/``bump`` and the queries the
    engine reads, nothing else."""

    materializes_mac = True

    def __init__(self):
        self.rows = []

    def record(self, time, kind, node, *, broadcast_id=None, peer=None,
               payload=None):
        self.rows.append((time, kind, node, broadcast_id, peer, payload))

    def bump(self, kind, node=None):
        raise AssertionError("a MAC-materializing sink is never bumped")

    def decisions(self):
        return {}

    def decision_times(self):
        return {}


class TestRunRows:
    #: Generated on the commit before run rows (1a4866e): the FULL
    #: trace (``helpers.trace_digest``) and, at ``chunk_records=7``,
    #: the concatenated ``.colb`` files.
    INTERJECTOR_ROWS = 135
    INTERJECTOR_FULL = (
        "f37affe04d859d618b15778b8a35b0d0dc033ab6f4c5e1c91d6c133835256e07")
    INTERJECTOR_COLB = (
        "9566c2d0a9e7f0b51a6af00ff5d9fcdef3a2aea6321ae0436c00efd3d2fc97c9")

    def _interjector(self, **kwargs):
        return build_simulation(clique(6), _Interjector,
                                SynchronousScheduler(1.0), **kwargs)

    def test_rows_written_from_inside_on_receive_keep_their_place(
            self, tmp_path):
        sim = self._interjector()
        assert sim.run().stop_reason == "all_decided"
        trace = sim.trace
        # Each kind really does land between two deliveries of one
        # batch, or this pins nothing.
        for kind in ("broadcast", "discard", "decide"):
            assert any(
                before.kind == "deliver" and row.kind == kind
                and any(later.kind == "deliver"
                        and later.broadcast_id == before.broadcast_id
                        for later in trace[i + 1:i + 8])
                for i, (before, row) in enumerate(zip(trace, trace[1:]),
                                                  start=1)), kind
        assert (len(trace), trace_digest(trace)) == (
            self.INTERJECTOR_ROWS, self.INTERJECTOR_FULL)
        sink = ColumnarSink(str(tmp_path), chunk_records=7)
        assert self._interjector(
            trace_sink=sink).run().stop_reason == "all_decided"
        sink.close()
        assert (len(sink), _colb_digest(sink)) == (
            self.INTERJECTOR_ROWS, self.INTERJECTOR_COLB)

    @pytest.mark.parametrize("level", [TraceLevel.FULL,
                                       TraceLevel.COLUMNAR],
                             ids=lambda l: l.value)
    def test_stop_predicate_sees_every_delivery_made_so_far(self, level):
        sim = self._interjector(trace_level=level)
        sink = sim.trace
        calls = 0

        def watching(sim):
            nonlocal calls
            calls += 1
            heard = sum(p.heard for p in sim.processes.values())
            assert sink.delivery_count() == heard
            assert len(sink) == heard + sum(
                sink.count_of_kind(kind) for kind in TRACE_KINDS
                if kind != "deliver")
            return False

        assert sim.run(stop_predicate=watching).stop_reason == "all_decided"
        assert calls > sink.delivery_count() == 66

    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize("variant", _BATCH_VARIANTS)
    def test_max_events_slices_write_the_unsliced_chunk_bytes(
            self, variant, k, tmp_path):
        digests = []
        for name, limits in (("whole", {}), ("sliced", {"max_events": k})):
            sink = ColumnarSink(str(tmp_path / name), chunk_records=7)
            sim = _batch_sim(variant, TraceLevel.FULL, trace_sink=sink)
            reasons, _ = _resume_to_completion(sim, **limits)
            assert reasons[-1] == "all_decided"
            sink.close()
            digests.append((len(sink), len(sink.chunk_paths()),
                            _colb_digest(sink)))
        assert digests[0] == digests[1]

    def test_third_party_sink_sees_one_record_per_delivery_in_order(self):
        reference = self._interjector()
        reference.run()
        sink = _RowsOnlySink()
        result = self._interjector(trace_sink=sink).run()
        assert result.events_processed == 78
        assert sink.rows == [
            (r.time, r.kind, r.node, r.broadcast_id, r.peer, r.payload)
            for r in reference.trace]
