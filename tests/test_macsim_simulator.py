"""Engine tests: MAC semantics, crash handling, observers, limits."""

import pytest

from repro.macsim import (ConfigurationError, CrashFaultModel, CrashPlan,
                          ModelViolationError, Process, Simulator,
                          build_simulation)
from repro.macsim.schedulers import (RandomDelayScheduler, Scheduler,
                                     SynchronousScheduler)
from repro.macsim.schedulers.base import DeliveryPlan
from repro.topology import clique, line


class Echo(Process):
    """Broadcasts `count` messages, recording everything it sees."""

    def __init__(self, uid, count=1):
        super().__init__(uid=uid, initial_value=0)
        self.count = count
        self.sent = 0
        self.received = []
        self.acks = 0

    def on_start(self):
        self._send_next()

    def on_receive(self, message):
        self.received.append(message)

    def on_ack(self):
        self.acks += 1
        self._send_next()

    def _send_next(self):
        if self.sent < self.count:
            self.sent += 1
            self.broadcast(("msg", self.uid, self.sent))


class TestBroadcastSemantics:
    def test_all_neighbors_receive_before_ack(self):
        graph = clique(4)
        sim = build_simulation(graph, lambda v: Echo(v),
                               SynchronousScheduler(1.0))
        sim.run()
        for v in graph.nodes:
            proc = sim.process_at(v)
            assert proc.acks == 1
            # Received exactly one message from each neighbor.
            senders = sorted(m[1] for m in proc.received)
            assert senders == sorted(u for u in graph.nodes if u != v)

    def test_second_broadcast_while_inflight_is_discarded(self):
        class Greedy(Process):
            def __init__(self, uid):
                super().__init__(uid=uid, initial_value=0)
                self.results = []

            def on_start(self):
                self.results.append(self.broadcast("first"))
                self.results.append(self.broadcast("second"))

        graph = clique(2)
        sim = build_simulation(graph, lambda v: Greedy(v),
                               SynchronousScheduler(1.0))
        sim.run()
        proc = sim.process_at(0)
        assert proc.results == [True, False]
        discards = sim.trace.of_kind("discard")
        assert len(discards) == 2  # one per node

    def test_broadcast_after_ack_succeeds(self):
        graph = clique(2)
        sim = build_simulation(graph, lambda v: Echo(v, count=3),
                               SynchronousScheduler(1.0))
        sim.run()
        assert sim.process_at(0).sent == 3
        assert sim.process_at(1).acks == 3

    def test_isolated_node_gets_ack(self):
        graph = clique(1)
        sim = build_simulation(graph, lambda v: Echo(v),
                               SynchronousScheduler(1.0))
        sim.run()
        assert sim.process_at(0).acks == 1

    def test_ack_frees_mac_before_handler(self):
        class ChainSender(Process):
            def __init__(self, uid):
                super().__init__(uid=uid, initial_value=0)
                self.ok = None

            def on_start(self):
                self.broadcast("a")

            def on_ack(self):
                if self.ok is None:
                    self.ok = self.broadcast("b")

        graph = clique(2)
        sim = build_simulation(graph, lambda v: ChainSender(v),
                               SynchronousScheduler(1.0))
        sim.run()
        assert sim.process_at(0).ok is True


def crash_model(*plans):
    """A crash fault model from ``(node, time[, still_delivered])``."""
    return CrashFaultModel([CrashPlan(*plan) for plan in plans])


class TestCrashes:
    def test_crashed_node_stops_receiving_and_sending(self):
        graph = clique(3)
        sim = build_simulation(graph, lambda v: Echo(v, count=5),
                               SynchronousScheduler(1.0),
                               fault_model=crash_model((0, 2.5)))
        sim.run()
        crashed = sim.process_at(0)
        alive = sim.process_at(1)
        assert crashed.crashed
        # Node 0 acked at t=1 and t=2 only (crash at 2.5).
        assert crashed.acks <= 2
        assert alive.acks == 5

    def test_mid_broadcast_crash_splits_audience(self):
        graph = clique(3)
        # Node 0's broadcast at t=0 delivers at t=1; crash at t=0.5
        # cancels all pending deliveries.
        sim = build_simulation(
            graph, lambda v: Echo(v),
            SynchronousScheduler(1.0),
            fault_model=crash_model((0, 0.5, ())))
        sim.run()
        for v in (1, 2):
            senders = [m[1] for m in sim.process_at(v).received]
            assert 0 not in senders

    def test_partial_delivery_subset_respected(self):
        graph = clique(3)
        sim = build_simulation(
            graph, lambda v: Echo(v),
            SynchronousScheduler(1.0),
            fault_model=crash_model((0, 0.5, {1})))
        sim.run()
        assert 0 in [m[1] for m in sim.process_at(1).received]
        assert 0 not in [m[1] for m in sim.process_at(2).received]

    def test_neighbors_still_get_acks_when_peer_crashes(self):
        # Ack requires only *non-faulty* neighbors to receive.
        graph = line(3)
        sim = build_simulation(
            graph, lambda v: Echo(v, count=3),
            SynchronousScheduler(1.0),
            fault_model=crash_model((1, 1.5, ())))
        sim.run()
        assert sim.process_at(0).acks == 3
        assert sim.process_at(2).acks == 3

    def test_crash_plan_for_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError):
            build_simulation(clique(2), lambda v: Echo(v),
                             SynchronousScheduler(1.0),
                             fault_model=crash_model((99, 1.0)))

    def test_duplicate_crash_plans_rejected(self):
        with pytest.raises(ConfigurationError):
            build_simulation(clique(2), lambda v: Echo(v),
                             SynchronousScheduler(1.0),
                             fault_model=crash_model((0, 1.0),
                                                     (0, 2.0)))


class TestSchedulerValidation:
    def test_late_ack_rejected(self):
        class BadScheduler(Scheduler):
            f_ack = 1.0

            def plan(self, *, sender, message, start_time, neighbors):
                return DeliveryPlan(
                    deliveries={v: start_time + 0.5 for v in neighbors},
                    ack_time=start_time + 5.0)

        sim = build_simulation(clique(2), lambda v: Echo(v),
                               BadScheduler())
        with pytest.raises(ModelViolationError):
            sim.run()

    def test_ack_before_delivery_rejected(self):
        class BadScheduler(Scheduler):
            f_ack = 10.0

            def plan(self, *, sender, message, start_time, neighbors):
                return DeliveryPlan(
                    deliveries={v: start_time + 2.0 for v in neighbors},
                    ack_time=start_time + 1.0)

        sim = build_simulation(clique(2), lambda v: Echo(v),
                               BadScheduler())
        with pytest.raises(ModelViolationError):
            sim.run()

    def test_missing_neighbor_rejected(self):
        class BadScheduler(Scheduler):
            f_ack = 10.0

            def plan(self, *, sender, message, start_time, neighbors):
                return DeliveryPlan(deliveries={},
                                    ack_time=start_time + 1.0)

        sim = build_simulation(clique(3), lambda v: Echo(v),
                               BadScheduler())
        with pytest.raises(ModelViolationError):
            sim.run()


class TestStrictSizes:
    class BigMessage:
        def id_footprint(self):
            return 1000

    def test_oversized_message_rejected_in_strict_mode(self):
        class Sender(Process):
            def on_start(self):
                self.broadcast(TestStrictSizes.BigMessage())

        sim = build_simulation(clique(2),
                               lambda v: Sender(uid=v, initial_value=0),
                               SynchronousScheduler(1.0))
        with pytest.raises(ModelViolationError):
            sim.run()

    def test_oversized_message_allowed_when_lenient(self):
        class Sender(Process):
            def on_start(self):
                self.broadcast(TestStrictSizes.BigMessage())

        sim = build_simulation(clique(2),
                               lambda v: Sender(uid=v, initial_value=0),
                               SynchronousScheduler(1.0),
                               strict_sizes=False)
        sim.run()  # should not raise


class TestRunControl:
    def test_stop_predicate(self):
        graph = clique(2)
        sim = build_simulation(graph, lambda v: Echo(v, count=100),
                               SynchronousScheduler(1.0))
        result = sim.run(
            stop_predicate=lambda s: s.process_at(0).acks >= 3)
        assert result.stop_reason == "predicate"
        assert sim.process_at(0).acks == 3

    def test_max_time(self):
        graph = clique(2)
        sim = build_simulation(graph, lambda v: Echo(v, count=10 ** 6),
                               SynchronousScheduler(1.0))
        result = sim.run(max_time=10.0)
        assert result.stop_reason == "max_time"
        assert result.end_time <= 10.0 + 1.0

    def test_max_events(self):
        graph = clique(2)
        sim = build_simulation(graph, lambda v: Echo(v, count=10 ** 6),
                               SynchronousScheduler(1.0))
        result = sim.run(max_events=50)
        assert result.stop_reason == "max_events"
        assert result.events_processed == 50

    def test_quiescent_stop(self):
        graph = clique(2)
        sim = build_simulation(graph, lambda v: Echo(v, count=2),
                               SynchronousScheduler(1.0))
        result = sim.run()
        assert result.stop_reason == "quiescent"

    def test_process_for_every_node_required(self):
        graph = clique(3)
        with pytest.raises(ConfigurationError):
            Simulator(graph, {0: Echo(0)}, SynchronousScheduler(1.0))

    def test_unknown_node_binding_rejected(self):
        graph = clique(2)
        with pytest.raises(ConfigurationError):
            Simulator(graph, {0: Echo(0), 1: Echo(1), 7: Echo(7)},
                      SynchronousScheduler(1.0))


class TestObservers:
    def test_time_advance_observer_sees_boundaries(self):
        times = []

        class Observer:
            def on_time_advance(self, sim, new_time):
                times.append(new_time)

        graph = clique(2)
        sim = build_simulation(graph, lambda v: Echo(v, count=3),
                               SynchronousScheduler(1.0))
        sim.add_observer(Observer())
        sim.run()
        assert times == [1.0, 2.0, 3.0]

    def test_finish_observer_called(self):
        seen = []

        class Observer:
            def on_finish(self, sim):
                seen.append(sim.now)

        sim = build_simulation(clique(2), lambda v: Echo(v),
                               SynchronousScheduler(1.0))
        sim.add_observer(Observer())
        sim.run()
        assert seen == [1.0]


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        def run_once(seed):
            sim = build_simulation(
                clique(4), lambda v: Echo(v, count=3),
                RandomDelayScheduler(1.0, seed=seed))
            sim.run()
            return [(r.time, r.kind, r.node) for r in sim.trace]

        assert run_once(42) == run_once(42)
        assert run_once(42) != run_once(43)
