"""The two plan forms are one contract.

``UniformPlan(receivers, when, ack_time)`` is the compact way to say
what ``DeliveryPlan({v: when for v in receivers}, ack_time)`` says.
Three things keep the pair honest:

* **uniform == mapping, byte for byte** -- a run whose scheduler's
  uniform plans are each rewritten into the mapping form writes the
  same FULL trace and the same ``.colb`` chunk bytes as the run that
  hands the engine the uniform plans, on every engine path a fan-out
  can take (batch, single ``deliver`` entry, no entry, crash-cut batch,
  fault-model dispatch, dual graph, churn);
* **validate parity** -- for each way a plan can break the model both
  forms raise ``ModelViolationError`` with the same message, and the
  O(1) cover check applies only to the engine's own neighbor tuple;
* **no time that is not a number** -- NaN delivery and ack times fail
  ``validate`` in both forms, at the broadcast, instead of ordering
  the event heap by comparisons that are all false.
"""

from dataclasses import dataclass

import pytest

from repro.macsim import (ByzantineFaultModel, ByzantinePlan, ColumnarSink,
                          CrashFaultModel, CrashPlan, EquivocateStrategy,
                          Process, build_simulation)
from repro.macsim.dynamics import NodeChurn
from repro.macsim.errors import ModelViolationError
from repro.macsim.schedulers import (AdversarialUnreliableScheduler,
                                     DeliveryPlan, MaxDelayScheduler,
                                     Scheduler, SynchronousScheduler,
                                     UniformPlan)
from repro.topology import Graph, clique, line, star
from tests.helpers import trace_digest

NAN = float("nan")


def _forms(receivers, when, ack_time):
    """The same plan in both forms."""
    return (UniformPlan(receivers, when, ack_time),
            DeliveryPlan(dict.fromkeys(receivers, when), ack_time))


def _violation(plan, **kwargs):
    with pytest.raises(ModelViolationError) as caught:
        plan.validate(**kwargs)
    return str(caught.value)


# ---------------------------------------------------------------------
# validate: parity of the two forms, and non-finite times
# ---------------------------------------------------------------------
class TestValidateParity:
    #: class -> (receivers, when, ack_time, neighbors), validated at
    #: start_time=1.0, f_ack=1.0; and a fragment of the message.
    VIOLATIONS = {
        "missing-neighbor": ((1, 2), 1.5, 1.5, (1, 2, 3), "plan covers"),
        "extra-neighbor": ((1, 2, 3), 1.5, 1.5, (1, 2), "plan covers"),
        "delivery-before-start": ((1, 2), 0.5, 1.5, (1, 2),
                                  "delivery to 1 at 0.5 precedes"),
        "delivery-after-ack": ((1, 2), 1.75, 1.5, (1, 2),
                               "delivery to 1 at 1.75 is later than"),
        "ack-before-start": ((), 0.5, 0.5, (), "ack precedes"),
        "ack-past-f-ack": ((1, 2), 1.5, 2.5, (1, 2),
                           "ack delay 1.5 exceeds F_ack=1.0"),
    }

    @pytest.mark.parametrize("name", VIOLATIONS)
    def test_both_forms_raise_the_same_message(self, name):
        receivers, when, ack_time, neighbors, fragment = (
            self.VIOLATIONS[name])
        messages = [_violation(plan, start_time=1.0, neighbors=neighbors,
                               f_ack=1.0)
                    for plan in _forms(receivers, when, ack_time)]
        assert messages[0] == messages[1]
        assert fragment in messages[0]

    def test_valid_plans_pass_in_both_forms(self):
        for receivers in ((), (1,), (1, 2, 3)):
            for plan in _forms(receivers, 1.5, 2.0):
                plan.validate(start_time=1.0, neighbors=receivers,
                              f_ack=1.0)

    def test_only_the_engines_own_tuple_skips_the_set_comparison(self):
        neighbors = (1, 2, 3)
        check = dict(start_time=1.0, neighbors=neighbors, f_ack=1.0)
        UniformPlan(neighbors, 1.5, 1.5).validate(**check)
        # Equal but not identical: compared as sets, so another order
        # of the same neighbors passes and a wrong set does not.
        UniformPlan((3, 1, 2), 1.5, 1.5).validate(**check)
        UniformPlan(tuple([1, 2, 3]), 1.5, 1.5).validate(**check)
        assert "plan covers" in _violation(
            UniformPlan((1, 2), 1.5, 1.5), **check)
        # A tuple can say what a mapping cannot: the same receiver twice.
        assert "twice" in _violation(
            UniformPlan((1, 2, 3, 3), 1.5, 1.5), **check)

    @pytest.mark.parametrize("when, ack_time, fragment", [
        (NAN, 1.0, "delivery to 1 at nan"),
        (1.0, NAN, "delivery to 1 at 1.0 is not inside"),
        (NAN, NAN, "delivery to 1 at nan"),
    ], ids=["nan-delivery", "nan-ack", "both"])
    def test_nan_times_are_rejected_in_both_forms(self, when, ack_time,
                                                  fragment):
        messages = [_violation(plan, start_time=0.0, neighbors=(1,),
                               f_ack=1.0)
                    for plan in _forms((1,), when, ack_time)]
        assert messages[0] == messages[1]
        assert fragment in messages[0] and "nan" in messages[0]

    def test_nan_ack_with_nobody_listening_is_rejected(self):
        for plan in _forms((), 1.0, NAN):
            assert "ack delay nan exceeds" in _violation(
                plan, start_time=0.0, neighbors=(), f_ack=1.0)

    def test_infinite_times_are_rejected(self):
        inf = float("inf")
        for when, ack_time in ((inf, inf), (1.0, inf), (-inf, 1.0)):
            for plan in _forms((1,), when, ack_time):
                _violation(plan, start_time=0.0, neighbors=(1,),
                           f_ack=1.0)


class _Hello(Process):
    def on_start(self):
        self.broadcast("hello")


class _OneNeighborAtNaN(Scheduler):
    """Untrusted, and plans its first neighbor at NaN."""

    f_ack = 1.0

    def plan(self, *, sender, message, start_time, neighbors):
        deliveries = dict.fromkeys(neighbors, start_time + 1.0)
        deliveries[neighbors[0]] = NAN
        return DeliveryPlan(deliveries, start_time + 1.0)


def test_nan_plan_is_refused_at_the_broadcast():
    # Before the bounds were written to fail on NaN this run finished
    # "quiescent" and only the post-hoc audit noticed.
    sim = build_simulation(clique(3), _Hello, _OneNeighborAtNaN(),
                           validate_plans=True)
    with pytest.raises(ModelViolationError, match="at nan"):
        sim.run(max_time=5.0)
    # Untrusted schedulers are validated by default.
    sim = build_simulation(clique(3), _Hello, _OneNeighborAtNaN())
    with pytest.raises(ModelViolationError, match="at nan"):
        sim.run(max_time=5.0)


# ---------------------------------------------------------------------
# uniform == mapping, byte for byte
# ---------------------------------------------------------------------
class _AsMapping(Scheduler):
    """Hands the engine every uniform plan of ``inner`` in the mapping
    form instead."""

    def __init__(self, inner):
        self.inner = inner
        self.f_ack = inner.f_ack
        self.trusted = inner.trusted
        self.rewritten = []  # fan-out of each rewritten plan

    def plan(self, **kwargs):
        plan = self.inner.plan(**kwargs)
        if type(plan) is UniformPlan:
            self.rewritten.append(len(plan.receivers))
            return DeliveryPlan(plan.deliveries, plan.ack_time)
        return plan

    def plan_unreliable(self, **kwargs):
        return self.inner.plan_unreliable(**kwargs)


@dataclass(frozen=True)
class _Note:
    """Forgeable payload (``forge_payload`` rewrites ``value``)."""

    origin: int
    value: object


class _Gossip(Process):
    """Five back-to-back broadcasts; also broadcasts from inside
    ``on_receive`` on every third message (a ``broadcast`` row when
    idle, a ``discard`` row when not, both mid-batch) and decides on
    its eleventh."""

    def __init__(self, uid):
        super().__init__(uid=uid, initial_value=uid % 2)
        self.sent = self.heard = 0

    def on_start(self):
        self.on_ack()

    def on_ack(self):
        if self.sent < 5:
            self.sent += 1
            self.broadcast(_Note(self.uid, self.sent % 2))

    def on_receive(self, message):
        self.heard += 1
        if self.heard % 3 == 0:
            self.broadcast(_Note(self.uid, ("relay", self.heard)))
        if self.heard == 11:
            self.decide(message.value)


def _synchronous():
    return SynchronousScheduler(1.0)


#: name -> (graph, scheduler factory, build_simulation kwargs factory,
#: the fan-outs the scenario must plan).
SCENARIOS = {
    "clique6": (clique(6), _synchronous, dict, {5}),
    "star6-fanout-1-leaves": (star(6), _synchronous, dict, {1, 5}),
    "isolated-node-fanout-0": (
        Graph([(0, 1), (1, 2), (0, 2)], nodes=range(4)), _synchronous,
        dict, {0, 2}),
    "crash-cuts-a-batch": (
        clique(6), _synchronous,
        lambda: dict(fault_model=CrashFaultModel([
            CrashPlan(2, 1.5, still_delivered=(0, 4)),
            CrashPlan(3, 2.0, still_delivered=())])),
        {5}),
    "byzantine-sender": (
        clique(5), _synchronous,
        lambda: dict(fault_model=ByzantineFaultModel(
            [ByzantinePlan(node=0, strategy=EquivocateStrategy())])),
        {4}),
    "dual-graph": (
        line(4),
        lambda: AdversarialUnreliableScheduler(SynchronousScheduler(1.0),
                                               cutoff=3.0),
        lambda: dict(unreliable_graph=Graph([(0, 2), (1, 3), (0, 3)],
                                            nodes=range(4))),
        {1, 2}),
    "node-churn": (
        clique(6), _synchronous,
        lambda: dict(dynamics=NodeChurn(leave_rate=0.4, rejoin_rate=0.5,
                                        seed=3)),
        {0, 5}),
    "max-delay": (clique(4), lambda: MaxDelayScheduler(2.0), dict, {3}),
}


def _run_both_sinks(graph, scheduler_factory, kwargs_factory, wrap,
                    directory):
    """(FULL-trace digest, row count, ``.colb`` chunk bytes, scheduler)
    of one scenario, run once into each sink."""
    scheduler = wrap(scheduler_factory())
    sim = build_simulation(graph, _Gossip, scheduler, **kwargs_factory())
    sim.run(max_time=12.0)
    rows, digest = len(sim.trace), trace_digest(sim.trace)
    sink = ColumnarSink(str(directory), chunk_records=7)
    build_simulation(graph, _Gossip, wrap(scheduler_factory()),
                     trace_sink=sink, **kwargs_factory()).run(max_time=12.0)
    sink.close()
    chunks = []
    for path in sink.chunk_paths():
        with open(path, "rb") as handle:
            chunks.append(handle.read())
    assert len(sink) == rows
    return digest, rows, chunks, scheduler


@pytest.mark.parametrize("name", SCENARIOS)
def test_uniform_and_mapping_plans_write_the_same_bytes(name, tmp_path):
    graph, scheduler_factory, kwargs_factory, fanouts = SCENARIOS[name]
    uniform = _run_both_sinks(graph, scheduler_factory, kwargs_factory,
                              lambda s: s, tmp_path / "uniform")
    mapping = _run_both_sinks(graph, scheduler_factory, kwargs_factory,
                              _AsMapping, tmp_path / "mapping")
    assert uniform[:3] == mapping[:3]
    rows, chunks, rewriting = mapping[1], mapping[2], mapping[3]
    # The scenario exercised what its name says, or this pins nothing.
    assert rows > 40 and len(chunks) > 5
    assert fanouts <= set(rewriting.rewritten), set(rewriting.rewritten)
