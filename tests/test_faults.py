"""Fault-model subsystem tests.

Covers the adversary interface end to end: crash runs (nine fixed
scenarios pinned by trace digest, crashed nodes never scoped out as
faulty, the vectorized columnar audit on a ``FaultSpec`` crash run),
omission and Byzantine hook-point semantics, correct-node scoping of
the invariant checkers, trusted-scheduler plan validation, the
synchronous scheduler's plans, and `CrashPlan` round-tripping.
"""

import hashlib
import random
from dataclasses import dataclass

import pytest

from repro.analysis.export import load_scenario, save_trace, trace_to_json
from repro.analysis.runner import run_consensus
from repro.core import (BenOrConsensus, GatherAllConsensus,
                        TwoPhaseConsensus, WPaxosConfig, WPaxosNode)
from repro.macsim import (ByzantineFaultModel, ByzantinePlan,
                          ColumnarSink, CorruptStrategy, CrashFaultModel,
                          CrashPlan, EquivocateStrategy,
                          OmissionFaultModel, OmissionPlan, Process,
                          SilentStrategy, Simulator, build_simulation,
                          check_consensus, check_model_invariants)
from repro.macsim import columnar as columnar_mod
from repro.macsim.columnar import have_numpy
from repro.macsim.errors import ConfigurationError, ModelViolationError
from repro.macsim.faults import DROP, FaultModel, forge_payload
from repro.macsim.schedulers import (AdversarialUnreliableScheduler,
                                     DeliveryPlan, RandomDelayScheduler,
                                     Scheduler, SynchronousScheduler,
                                     UniformPlan)
from repro.scenario import (AlgorithmSpec, FaultSpec, Scenario,
                            SchedulerSpec, TopologySpec)
from repro.topology import clique, line, random_connected, star


@dataclass(frozen=True)
class Payload:
    """Minimal forgeable protocol message for hook-point tests."""

    origin: int
    value: object


# ---------------------------------------------------------------------------
# Crash runs: pinned traces and the full audit
# ---------------------------------------------------------------------------
def _run_trace(graph, factory, scheduler_factory, fault_model, **build):
    sim = build_simulation(graph, factory, scheduler_factory(),
                           fault_model=fault_model, **build)
    sim.run(max_events=500_000, max_time=500.0)
    return trace_to_json(sim.trace)


def _wpaxos_factory(graph):
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return lambda v: WPaxosNode(uid[v], uid[v] % 2, graph.n,
                                WPaxosConfig())


#: The engine's original six byte-identity scenarios -- a spread of
#: algorithms, topologies, schedulers and crash shapes (mid-broadcast
#: partial delivery included) -- then three shapes on the boundaries of
#: the crash rule: a crash at time 0 of a node whose ``on_start``
#: broadcast is in flight, a sender crash while unreliable (dual-graph)
#: deliveries are pending, and a synchronous crash at the very instant
#: of a round's deliveries and acks. The last field of each tuple holds
#: extra ``build_simulation`` keywords.
def _scenarios():
    g1 = clique(6)
    g2 = line(8)
    g3 = clique(5)
    g4 = star(9)
    g5 = random_connected(10, 0.3, seed=5)
    g6 = clique(4)
    g7 = clique(5)
    g8 = line(5)
    g9 = clique(4)
    return [
        ("twophase-sync-partial", g1,
         lambda v: TwoPhaseConsensus(v + 1, v % 2),
         lambda: SynchronousScheduler(1.0),
         [CrashPlan(0, 0.5, still_delivered=(1, 2)),
          CrashPlan(5, 2.5)], {}),
        ("wpaxos-line-random", g2, _wpaxos_factory(g2),
         lambda: RandomDelayScheduler(1.0, seed=11),
         [CrashPlan(3, 4.25)], {}),
        ("gatherall-random-two", g3,
         lambda v: GatherAllConsensus(v + 1, v % 2, 5),
         lambda: RandomDelayScheduler(1.0, seed=2),
         [CrashPlan(1, 0.75, still_delivered=()),
          CrashPlan(4, 1.5, still_delivered=(0,))], {}),
        ("wpaxos-star-hub", g4, _wpaxos_factory(g4),
         lambda: SynchronousScheduler(1.0),
         [CrashPlan(0, 1.0, still_delivered=(1, 2, 3))], {}),
        ("wpaxos-random-late", g5, _wpaxos_factory(g5),
         lambda: RandomDelayScheduler(1.0, seed=9),
         [CrashPlan(list(g5.nodes)[2], 9.0)], {}),
        ("benor-sync", g6,
         lambda v: BenOrConsensus(v + 1, v % 2, 4, 1, seed=v),
         lambda: SynchronousScheduler(1.0),
         [CrashPlan(2, 1.5, still_delivered=(0,))], {}),
        ("twophase-crash-at-zero", g7,
         lambda v: TwoPhaseConsensus(v + 1, v % 2),
         lambda: SynchronousScheduler(1.0),
         [CrashPlan(0, 0.0, still_delivered=(1, 2))], {}),
        ("wpaxos-unreliable-sender", g8, _wpaxos_factory(g8),
         lambda: AdversarialUnreliableScheduler(
             RandomDelayScheduler(1.0, seed=3), cutoff=100.0),
         [CrashPlan(2, 2.3, still_delivered=(0, 3))],
         {"unreliable_graph": clique(5)}),
        ("wpaxos-sync-crash-at-round", g9, _wpaxos_factory(g9),
         lambda: SynchronousScheduler(1.0),
         [CrashPlan(1, 2.0, still_delivered=(2,))], {}),
    ]


#: sha256 of each scenario's ``trace_to_json``: pins the engine's
#: crash machinery (cut deliveries and acks, partial delivery) byte
#: for byte.
CRASH_TRACE_SHA256 = {
    "twophase-sync-partial":
        "d0097dcabeadd93b797a8cb00a8184f408d33978e92cf1a5544c8e416dc73da2",
    "wpaxos-line-random":
        "d4cc8ddc8f2ebb03c10fea01ee954df8e05a6a1f460f0bf305ff651db5d695c1",
    "gatherall-random-two":
        "173c1b6d799e89390bdbfbf66d44c245d4bc7708f73ef4f6a0b713eeefc4c5a3",
    "wpaxos-star-hub":
        "b3569a188b03f1534facee18d737abc12b2f50244e9846520d822da32a0d79a6",
    "wpaxos-random-late":
        "ddf54152f3203166abdab551d058fcd4e1a6f7a94817438e88d82aa925fef96e",
    "benor-sync":
        "0f3be954e8ee67e91734bf3cd51195910b275b35f86451160e5656ebbb06c64e",
    "twophase-crash-at-zero":
        "b995351bec3e9a310503636fab4ee700eb502f13a69bc4fe31b04d7832427a7e",
    "wpaxos-unreliable-sender":
        "37f628a450429311c8c777c238f547b5815d6af6029f7287902759420648fc2d",
    "wpaxos-sync-crash-at-round":
        "dbd9c8841430ec08cb034a3e063935a263b5463dea2c2e18625f8d61440d39bd",
}


class TestCrashModelTraces:
    @pytest.mark.parametrize(
        "name,graph,factory,sched,plans,build",
        _scenarios(), ids=[s[0] for s in _scenarios()])
    def test_crash_scenarios_match_pinned_digests(
            self, name, graph, factory, sched, plans, build):
        text = _run_trace(graph, factory, sched, CrashFaultModel(plans),
                          **build)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == CRASH_TRACE_SHA256[name]

    def test_duplicate_plans_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="multiple crash plans for node 0"):
            build_simulation(
                clique(3), lambda v: TwoPhaseConsensus(v + 1, v % 2),
                SynchronousScheduler(1.0),
                fault_model=CrashFaultModel([CrashPlan(0, 1.0),
                                             CrashPlan(0, 2.0)]))

    @pytest.mark.parametrize("entry", ["Simulator", "build_simulation",
                                       "run_consensus"])
    def test_crashes_keyword_is_gone(self, entry):
        # ``fault_model=`` is the one way to inject a crash.
        graph = clique(3)
        factory = lambda v: TwoPhaseConsensus(v + 1, v % 2)
        plans = [CrashPlan(0, 0.5)]
        calls = {
            "Simulator": lambda: Simulator(
                graph, {v: factory(v) for v in graph.nodes},
                SynchronousScheduler(1.0), crashes=plans),
            "build_simulation": lambda: build_simulation(
                graph, factory, SynchronousScheduler(1.0),
                crashes=plans),
            "run_consensus": lambda: run_consensus(
                algorithm="two-phase", topology="clique:3", graph=graph,
                scheduler=SynchronousScheduler(1.0),
                factory=lambda v, x: TwoPhaseConsensus(v + 1, x),
                crashes=plans),
        }
        with pytest.raises(TypeError,
                           match="unexpected keyword argument 'crashes'"):
            calls[entry]()

    @pytest.mark.skipif(not have_numpy(),
                        reason="vectorized audit needs numpy")
    def test_crash_spec_run_takes_the_vectorized_audit(
            self, tmp_path, monkeypatch):
        fast_reports = []
        real = columnar_mod.try_vectorized_invariants

        def spy(*args, **kwargs):
            report = real(*args, **kwargs)
            fast_reports.append(report)
            return report

        monkeypatch.setattr(columnar_mod, "try_vectorized_invariants",
                            spy)
        scenario = Scenario(
            algorithm=AlgorithmSpec("two-phase"),
            topology=TopologySpec("clique", n=6),
            scheduler=SchedulerSpec("synchronous", f_ack=1.0),
            fault=FaultSpec("crash", node=0, time=0.5,
                            still_delivered=[1, 2]),
            trace_level="columnar", max_time=40.0)
        sink = ColumnarSink(str(tmp_path / "col"), chunk_records=64)
        scenario.run(trace_sink=sink)
        assert sink.crashed_nodes() == {0}
        assert len(fast_reports) == 1 and fast_reports[0] is not None
        reference = check_model_invariants(
            scenario.topology.build(), iter(list(sink)), 1.0)
        assert fast_reports[0].ok == reference.ok
        assert reference.ok, reference.violations[:5]


# ---------------------------------------------------------------------------
# Omission semantics
# ---------------------------------------------------------------------------
class Echo(Process):
    """Broadcasts one message at start; records everything received."""

    def __init__(self, uid):
        super().__init__(uid=uid, initial_value=0)
        self.received = []

    def on_start(self):
        self.broadcast(("hello", self.uid))

    def on_receive(self, message):
        self.received.append(message)


class TestOmission:
    def test_send_omission_drops_everything_but_acks(self):
        graph = clique(4)
        model = OmissionFaultModel([OmissionPlan(node=0, send=True)])
        sim = build_simulation(graph, Echo, SynchronousScheduler(1.0),
                               fault_model=model)
        sim.run(max_time=10.0)
        # Nobody heard node 0; node 0 heard everyone; acks still fired.
        for v in (1, 2, 3):
            senders = {m[1] for m in sim.process_at(v).received}
            assert 0 not in senders
            assert senders == {1, 2, 3} - {v}
        assert {m[1] for m in sim.process_at(0).received} == {1, 2, 3}
        assert not sim.process_at(0).ack_pending
        assert sim.trace.count_of_kind("drop") == 3

    def test_receive_omission_blinds_only_the_faulty_node(self):
        graph = clique(4)
        model = OmissionFaultModel(
            [OmissionPlan(node=2, send=False, receive=True)])
        sim = build_simulation(graph, Echo, SynchronousScheduler(1.0),
                               fault_model=model)
        sim.run(max_time=10.0)
        assert sim.process_at(2).received == []
        for v in (0, 1, 3):
            assert {m[1] for m in sim.process_at(v).received} \
                == {0, 1, 2, 3} - {v}

    def test_start_time_gates_the_fault(self):
        graph = clique(3)
        model = OmissionFaultModel(
            [OmissionPlan(node=0, send=True, start=100.0)])
        sim = build_simulation(graph, Echo, SynchronousScheduler(1.0),
                               fault_model=model)
        sim.run(max_time=10.0)
        assert {m[1] for m in sim.process_at(1).received} == {0, 2}

    def test_scoped_invariants_pass_unscoped_fail(self):
        graph = clique(4)
        model = OmissionFaultModel([OmissionPlan(node=0, send=True)])
        sim = build_simulation(graph, Echo, SynchronousScheduler(1.0),
                               fault_model=model)
        sim.run(max_time=10.0)
        scoped = check_model_invariants(graph, sim.trace, 1.0,
                                        faulty=model.faulty_nodes())
        assert scoped.ok, scoped.violations[:5]
        unscoped = check_model_invariants(graph, sim.trace, 1.0)
        assert not unscoped.ok  # ack before "non-faulty" neighbors

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            OmissionPlan(node=0, send=False, receive=False)
        with pytest.raises(ConfigurationError):
            OmissionPlan(node=0, drop_rate=1.5)


# ---------------------------------------------------------------------------
# Byzantine semantics
# ---------------------------------------------------------------------------
class TestByzantineModel:
    def test_equivocation_delivers_different_payloads(self):
        graph = clique(3)
        strategy = EquivocateStrategy(assignment={1: ("a",), 2: ("b",)})
        model = ByzantineFaultModel(
            [ByzantinePlan(node=0, strategy=strategy)])

        class Tagged(Echo):
            def on_start(self):
                self.broadcast(Payload(self.uid, ("orig",)))

        sim = build_simulation(graph, Tagged, SynchronousScheduler(1.0),
                               fault_model=model)
        sim.run(max_time=5.0)
        from_zero_at_1 = [m.value for m in sim.process_at(1).received
                          if isinstance(m, Payload) and m.origin == 0]
        from_zero_at_2 = [m.value for m in sim.process_at(2).received
                          if isinstance(m, Payload) and m.origin == 0]
        assert from_zero_at_1 == [("a",)]
        assert from_zero_at_2 == [("b",)]

    def test_payload_integrity_check_is_scoped(self):
        graph = clique(3)
        model = ByzantineFaultModel(
            [ByzantinePlan(node=0, strategy=CorruptStrategy(value=9))])

        class Tagged(Echo):
            def on_start(self):
                self.broadcast(Payload(self.uid, self.uid))

        sim = build_simulation(graph, Tagged, SynchronousScheduler(1.0),
                               fault_model=model)
        sim.run(max_time=5.0)
        scoped = check_model_invariants(graph, sim.trace, 1.0,
                                        faulty=model.faulty_nodes())
        assert scoped.ok, scoped.violations[:5]
        unscoped = check_model_invariants(graph, sim.trace, 1.0)
        assert any("mutated payload" in v for v in unscoped.violations)

    def test_silent_strategy_traces_drops(self):
        graph = clique(3)
        model = ByzantineFaultModel(
            [ByzantinePlan(node=0, strategy=SilentStrategy())])
        sim = build_simulation(graph, Echo, SynchronousScheduler(1.0),
                               fault_model=model)
        sim.run(max_time=5.0)
        assert sim.trace.count_of_kind("drop") == 2
        assert all(m[1] != 0
                   for m in sim.process_at(1).received)

    def test_forged_decision_fires_and_is_ignored_by_scoping(self):
        graph = clique(3)
        model = ByzantineFaultModel(
            [ByzantinePlan(node=0, strategy=SilentStrategy(),
                           decide_at=1.0, decide_value=42)])
        sim = build_simulation(graph, Echo, SynchronousScheduler(1.0),
                               fault_model=model)
        sim.run(max_time=5.0, stop_when_all_decided=False)
        assert sim.trace.decisions() == {0: 42}
        # The forged decide is a real event: stamped at exactly
        # decide_at, not at whatever event happened to precede it.
        assert sim.trace.decision_times() == {0: 1.0}
        report = check_consensus(sim.trace, {v: 0 for v in graph.nodes},
                                 faulty=model.faulty_nodes())
        # The forged decision does not count; the correct nodes (which
        # never decide in this toy run) drive termination instead.
        assert report.decisions == {}
        assert report.agreement

    def test_forged_decision_fires_past_last_protocol_event(self):
        # All protocol events drain by t=1; a forgery at t=3 must
        # still fire (it is queued, not piggybacked on time advance).
        graph = clique(2)
        model = ByzantineFaultModel(
            [ByzantinePlan(node=1, strategy=SilentStrategy(),
                           decide_at=3.0, decide_value=7)])
        sim = build_simulation(graph, Echo, SynchronousScheduler(1.0),
                               fault_model=model)
        result = sim.run(max_time=10.0, stop_when_all_decided=False)
        assert sim.trace.decision_times() == {1: 3.0}
        assert result.end_time == 3.0

    def test_equivocate_default_split_is_position_parity(self):
        strategy = EquivocateStrategy()
        rng = random.Random(0)
        overrides = strategy.mutate_all(9, (3, 1, 2), Payload(9, None),
                                        0.0, rng)
        # Sorted receiver order 1, 2, 3 -> values 0, 1, 0.
        assert {v: m.value for v, m in overrides.items()} \
            == {1: 0, 2: 1, 3: 0}

    def test_budget_enforced(self):
        plans = [ByzantinePlan(node=v) for v in range(3)]
        with pytest.raises(ConfigurationError):
            ByzantineFaultModel(plans, budget=2)
        assert ByzantineFaultModel(plans).f == 3

    def test_forge_payload_fallbacks(self):
        assert forge_payload(("opaque",), 1) == ("opaque",)
        forged = forge_payload(Payload(3, 0), 1)
        assert forged == Payload(3, 1)

    def test_corrupt_strategy_never_equivocates(self):
        # One rng draw per broadcast: even payloads without a binary
        # value must be forged identically for every receiver.
        strategy = CorruptStrategy()
        rng = random.Random(5)
        for _ in range(20):
            overrides = strategy.mutate_all(
                0, (1, 2, 3, 4, 5), Payload(0, None), 0.0, rng)
            assert len({m.value for m in overrides.values()}) == 1

    def test_lying_nodes_distinguishes_benign_models(self):
        # A crashed node runs its program correctly until it stops;
        # the trace's crash records tell the checkers who stopped.
        crash_model = CrashFaultModel([CrashPlan(0, 1.0)])
        assert crash_model.faulty_nodes() == frozenset()
        assert crash_model.lying_nodes() == frozenset()
        omission = OmissionFaultModel([OmissionPlan(node=1)])
        assert omission.lying_nodes() == frozenset()
        byz = ByzantineFaultModel([ByzantinePlan(node=2)])
        assert byz.lying_nodes() == {2}

    def test_crashed_nodes_input_still_validates_decisions(self):
        # A value held only by the crashed node is a legitimate
        # decision under crash faults (untrusted is empty), but not
        # under Byzantine faults (untrusted == faulty).
        graph = clique(3)
        values = {0: 1, 1: 0, 2: 0}
        sim = build_simulation(
            graph, lambda v: GatherAllConsensus(v + 1, values[v], 3),
            SynchronousScheduler(1.0),
            fault_model=CrashFaultModel([CrashPlan(0, 1.5)]))
        sim.run(max_time=30.0)
        assert 1 in set(sim.trace.decisions().values())
        benign = check_consensus(sim.trace, values, faulty={0},
                                 untrusted=frozenset())
        assert benign.validity
        byzantine_reading = check_consensus(sim.trace, values,
                                            faulty={0})
        assert not byzantine_reading.validity


# ---------------------------------------------------------------------------
# Trusted schedulers and their plans
# ---------------------------------------------------------------------------
class _EvilScheduler(Scheduler):
    """Produces a plan violating the model (delivery after ack)."""

    f_ack = 1.0

    def plan(self, *, sender, message, start_time, neighbors):
        return DeliveryPlan(
            deliveries={v: start_time + 2.0 for v in neighbors},
            ack_time=start_time + 0.5)


class TestTrustedSchedulers:
    def test_untrusted_evil_scheduler_is_caught(self):
        graph = clique(3)
        sim = build_simulation(graph, Echo, _EvilScheduler())
        with pytest.raises(ModelViolationError):
            sim.run(max_time=5.0)

    def test_trusted_flag_skips_validation(self):
        scheduler = _EvilScheduler()
        scheduler.trusted = True
        graph = clique(3)
        sim = build_simulation(graph, Echo, scheduler)
        sim.run(max_time=5.0)  # no raise: validation skipped

    def test_validate_plans_overrides_trust(self):
        scheduler = _EvilScheduler()
        scheduler.trusted = True
        graph = clique(3)
        sim = build_simulation(graph, Echo, scheduler,
                               validate_plans=True)
        with pytest.raises(ModelViolationError):
            sim.run(max_time=5.0)

    def test_builtin_schedulers_are_trusted(self):
        assert SynchronousScheduler(1.0).trusted
        assert RandomDelayScheduler(1.0, seed=0).trusted

    def test_synchronous_plans_are_the_round_and_the_neighbor_tuple(self):
        scheduler = SynchronousScheduler(1.0)
        neighbors = (1, 2, 3)
        plan_a = scheduler.plan(sender=0, message="x", start_time=0.2,
                                neighbors=neighbors)
        plan_b = scheduler.plan(sender=9, message="y", start_time=0.7,
                                neighbors=neighbors)
        # Same round, same neighbors: equal plans, nothing remembered.
        assert plan_a == plan_b == UniformPlan(neighbors, 1.0, 1.0)
        assert plan_a.receivers is neighbors
        assert dict(plan_a.deliveries) == {1: 1.0, 2: 1.0, 3: 1.0}
        plan_c = scheduler.plan(sender=0, message="x", start_time=1.2,
                                neighbors=neighbors)
        assert (plan_c.when, plan_c.ack_time) == (2.0, 2.0)
        assert set(plan_c.deliveries.values()) == {2.0}
        plan_d = scheduler.plan(sender=0, message="x", start_time=0.2,
                                neighbors=(1, 2))
        assert plan_d.receivers == (1, 2)
        assert set(plan_d.deliveries) == {1, 2}
        assert vars(scheduler) == {"round_length": 1.0, "f_ack": 1.0}

    def test_a_plan_cannot_be_mutated(self):
        plan = SynchronousScheduler(1.0).plan(
            sender=0, message="x", start_time=0.2, neighbors=(1, 2, 3))
        with pytest.raises(AttributeError):
            plan.when = 5.0
        with pytest.raises(AttributeError):
            plan.receivers = (1,)
        with pytest.raises(TypeError):
            plan.deliveries[1] = 5.0
        assert plan == UniformPlan((1, 2, 3), 1.0, 1.0)

    def test_synchronous_plan_validates(self):
        scheduler = SynchronousScheduler(0.5)
        neighbors = (1, 2)
        plan = scheduler.plan(sender=0, message="m", start_time=0.1,
                              neighbors=neighbors)
        plan.validate(start_time=0.1, neighbors=neighbors,
                      f_ack=scheduler.f_ack)


# ---------------------------------------------------------------------------
# CrashPlan round-tripping
# ---------------------------------------------------------------------------
class TestCrashPlanRoundTrip:
    def test_repr_is_deterministic_and_eval_round_trips(self):
        plan = CrashPlan(3, 1.5, still_delivered=(5, 1, 2))
        assert repr(plan) == ("CrashPlan(node=3, time=1.5, "
                              "still_delivered={1, 2, 5})")
        assert eval(repr(plan), {"CrashPlan": CrashPlan}) == plan
        assert repr(CrashPlan(0, 2.0)) == (
            "CrashPlan(node=0, time=2.0, still_delivered=None)")
        assert repr(CrashPlan(0, 2.0, still_delivered=())) == (
            "CrashPlan(node=0, time=2.0, still_delivered=frozenset())")

    def test_dict_round_trip_preserves_subset_semantics(self):
        plans = [CrashPlan("a", 1.0),
                 CrashPlan("b", 2.0, still_delivered=()),
                 CrashPlan("c", 3.0, still_delivered=("a", "b"))]
        for plan in plans:
            again = CrashPlan.from_dict(plan.to_dict())
            assert again == plan
            assert again.still_delivered == plan.still_delivered

    def test_export_round_trip_through_json(self, tmp_path):
        # The plans travel inside the embedded ``FaultSpec``: the None /
        # empty / subset forms of ``still_delivered`` all survive.
        plans = [CrashPlan(0, 0.5, still_delivered=(1, 3)),
                 CrashPlan(2, 2.0),
                 CrashPlan(3, 1.5, still_delivered=())]
        scenario = Scenario(
            algorithm=AlgorithmSpec("gatherall"),
            topology=TopologySpec("clique", n=4),
            fault=FaultSpec("crash",
                            plans=[plan.to_dict() for plan in plans]),
            max_time=20.0)
        first = scenario.simulate()
        path = tmp_path / "run.json"
        save_trace(first.trace, str(path), metadata={"seed": 0},
                   scenario=scenario)
        reloaded = load_scenario(str(path))
        assert reloaded == scenario
        assert list(reloaded.resolve().fault_model.crash_plans()) == plans
        # The reloaded scenario re-drives an identical simulation.
        again = reloaded.simulate()
        assert trace_to_json(again.trace) == trace_to_json(first.trace)
