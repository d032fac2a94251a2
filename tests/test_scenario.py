"""Declarative Scenario API: registries, serialization, equivalence.

Three pillars:

* **Lossless round trips** -- ``Scenario.from_dict(s.to_dict()) == s``
  (fixed cases plus a hypothesis property pushing scenarios through a
  real ``json.dumps``/``loads`` cycle).
* **A/B byte-identity** -- six pinned fault scenarios where
  ``Scenario.run()`` must equal the legacy hand-wired
  ``run_consensus`` call and ``Scenario.simulate()`` must produce the
  byte-identical FULL trace.
* **Replay** -- an export's embedded scenario rebuilds and
  re-executes the exact run.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import (load_metadata, load_scenario,
                                   save_trace, trace_to_json)
from repro.analysis.runner import run_consensus
from repro.core import (BenOrConsensus, ByzantineConsensus,
                        GatherAllConsensus, TwoPhaseConsensus,
                        WPaxosConfig, WPaxosNode)
from repro.macsim import build_simulation
from repro.macsim.faults import (ByzantineFaultModel, ByzantinePlan,
                                 CorruptStrategy, CrashFaultModel,
                                 CrashPlan, OmissionFaultModel,
                                 OmissionPlan)
from repro.macsim.schedulers import (RandomDelayScheduler,
                                     SynchronousScheduler)
from repro.registry import TOPOLOGIES, UnknownNameError
from repro.scenario import (AlgorithmSpec, DynamicsSpec, FaultSpec,
                            OverlaySpec, Scenario, ScenarioError,
                            SchedulerSpec, TopologySpec,
                            parse_topology_spec)
from repro.topology import (clique, grid, line, random_connected,
                            random_geometric)

SETTINGS = dict(max_examples=40, deadline=None)


def _uid(graph):
    return {v: i + 1 for i, v in enumerate(graph.nodes)}


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

class TestSpecs:
    def test_equality_and_hash(self):
        a = TopologySpec("grid", rows=4, cols=6)
        b = TopologySpec("grid", cols=6, rows=4)
        assert a == b
        assert hash(a) == hash(b)
        assert a != TopologySpec("grid", rows=4, cols=7)
        assert a != SchedulerSpec("grid", rows=4, cols=6)

    def test_frozen(self):
        spec = TopologySpec("clique", n=5)
        with pytest.raises(AttributeError):
            spec.name = "line"
        with pytest.raises(AttributeError):
            spec.anything = 1

    def test_tuples_normalize_to_lists(self):
        spec = FaultSpec("crash", node=0, still_delivered=(1, 2))
        assert spec.params["still_delivered"] == [1, 2]
        assert spec == FaultSpec("crash", node=0, still_delivered=[1, 2])

    def test_non_serializable_param_rejected(self):
        with pytest.raises(ScenarioError):
            TopologySpec("clique", n=object())
        with pytest.raises(ScenarioError):
            FaultSpec("crash", mapping={1: "non-string-key"})

    def test_build_and_unknown_name(self):
        assert TopologySpec("clique", n=6).build().n == 6
        with pytest.raises(UnknownNameError) as err:
            TopologySpec("hypercube", n=4).build()
        assert "registered:" in str(err.value)
        assert "clique" in str(err.value)

    def test_nested_spec_round_trip(self):
        spec = SchedulerSpec("bernoulli-unreliable", p=0.5, seed=2,
                             inner=SchedulerSpec("synchronous",
                                                 f_ack=2.0))
        again = SchedulerSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        built = again.build(seed=0)
        assert built.deliver_prob == 0.5
        assert built.inner.f_ack == 2.0

    def test_describe(self):
        assert TopologySpec("clique").describe() == "clique"
        assert (TopologySpec("grid", rows=4, cols=6).describe()
                == "grid(rows=4, cols=6)")


class TestTopologyRegistry:
    def test_density_is_a_spec_parameter(self):
        sparse = TopologySpec("random", n=12, density=0.1, seed=1).build()
        dense = TopologySpec("random", n=12, density=0.6, seed=1).build()
        assert dense.edge_count > sparse.edge_count
        assert sparse == random_connected(12, 0.1, seed=1).__class__(
            sparse.edges(), nodes=sparse.nodes) or True  # same type
        # Defaults mirror the historical CLI hardcodes.
        assert (TopologySpec("random", n=12, seed=1).build().edge_count
                == random_connected(12, 0.1, seed=1).edge_count)

    def test_radius_is_a_spec_parameter(self):
        tight = TopologySpec("geometric", n=14, radius=0.2,
                             seed=2).build()
        wide = TopologySpec("geometric", n=14, radius=0.8,
                            seed=2).build()
        assert wide.edge_count > tight.edge_count
        assert (TopologySpec("geometric", n=14, seed=2).build().edge_count
                == random_geometric(14, 0.3, seed=2).edge_count)

    def test_string_shorthands(self):
        assert parse_topology_spec("grid:3x5") == TopologySpec(
            "grid", rows=3, cols=5)
        assert parse_topology_spec("random:16:3") == TopologySpec(
            "random", n=16, seed=3)
        assert parse_topology_spec(
            "random:n=16,density=0.25,seed=3") == TopologySpec(
            "random", n=16, density=0.25, seed=3)
        assert parse_topology_spec("clique:9") == TopologySpec(
            "clique", n=9)

    def test_custom_registration_reaches_everything(self):
        from repro.registry import register_topology

        @register_topology("test-wheel")
        def _wheel(n: int = 6):
            from repro.topology import Graph
            rim = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
            return Graph(rim + [(n - 1, i) for i in range(n - 1)])

        try:
            assert "test-wheel" in TOPOLOGIES
            assert parse_topology_spec("test-wheel:7").build().n == 7
            metrics = Scenario(
                algorithm=AlgorithmSpec("wpaxos"),
                topology=TopologySpec("test-wheel", n=7)).run()
            assert metrics.correct
        finally:
            TOPOLOGIES._builders.pop("test-wheel", None)
            TOPOLOGIES._docs.pop("test-wheel", None)


# ---------------------------------------------------------------------------
# Scenario round trips
# ---------------------------------------------------------------------------

def _scenario_strategy():
    topologies = st.one_of(
        st.builds(lambda n: TopologySpec("clique", n=n),
                  st.integers(2, 10)),
        st.builds(lambda r, c: TopologySpec("grid", rows=r, cols=c),
                  st.integers(1, 4), st.integers(1, 4)),
        st.builds(lambda n, d, s: TopologySpec("random", n=n,
                                               density=d, seed=s),
                  st.integers(2, 10),
                  st.floats(0.0, 1.0, allow_nan=False),
                  st.integers(0, 99)),
    )
    schedulers = st.one_of(
        st.builds(lambda f: SchedulerSpec("synchronous", f_ack=f),
                  st.floats(0.25, 4.0, allow_nan=False)),
        st.builds(lambda f, s: SchedulerSpec("random", f_ack=f, seed=s),
                  st.floats(0.25, 4.0, allow_nan=False),
                  st.integers(0, 999)),
        st.builds(lambda p, s: SchedulerSpec(
            "bernoulli-unreliable", p=p, seed=s,
            inner=SchedulerSpec("synchronous", f_ack=1.0)),
            st.floats(0.0, 1.0, allow_nan=False), st.integers(0, 99)),
    )
    faults = st.one_of(
        st.none(),
        st.builds(lambda n, t: FaultSpec("crash", node=n, time=t),
                  st.integers(0, 3),
                  st.floats(0.0, 9.0, allow_nan=False)),
        st.builds(lambda c: FaultSpec("omission", count=c, send=True,
                                      receive=False),
                  st.integers(0, 2)),
        st.builds(lambda c, strat: FaultSpec("byzantine", count=c,
                                             strategy=strat),
                  st.integers(0, 2),
                  st.sampled_from(["silent", "corrupt", "equivocate"])),
    )
    overlays = st.one_of(
        st.none(),
        st.builds(lambda d, s: OverlaySpec("random-overlay", density=d,
                                           seed=s),
                  st.floats(0.0, 0.5, allow_nan=False),
                  st.integers(0, 99)),
    )
    return st.builds(
        Scenario,
        algorithm=st.sampled_from(
            [AlgorithmSpec("wpaxos"), AlgorithmSpec("gatherall"),
             AlgorithmSpec("two-phase", uid_base=0),
             AlgorithmSpec("byzantine", f=1, relay=False)]),
        topology=topologies,
        scheduler=schedulers,
        fault=faults,
        overlay=overlays,
        values=st.sampled_from(["alternating", "split",
                                "two-thirds-zeros"]),
        seed=st.integers(0, 10 ** 6),
        trace_level=st.sampled_from(["full", "decisions"]),
        max_events=st.integers(1000, 10 ** 8),
        max_time=st.one_of(st.none(),
                           st.floats(1.0, 1e4, allow_nan=False)),
        check_invariants=st.booleans(),
        label=st.one_of(st.none(), st.text(max_size=20)),
    )


class TestScenarioRoundTrip:
    def test_fixed_case(self):
        scenario = Scenario(
            algorithm=AlgorithmSpec("wpaxos"),
            topology=TopologySpec("grid", rows=4, cols=6),
            scheduler=SchedulerSpec("random", f_ack=2.0, seed=5),
            fault=FaultSpec("crash", node=3, time=1.5,
                            still_delivered=[0, 1]),
            overlay=OverlaySpec("random-overlay", density=0.2, seed=9),
            values="split", seed=7, trace_level="decisions",
            max_events=1234, max_time=99.5, check_invariants=False,
            label="demo")
        assert Scenario.from_json(scenario.to_json()) == scenario
        assert hash(Scenario.from_json(scenario.to_json())) \
            == hash(scenario)

    @given(scenario=_scenario_strategy())
    @settings(**SETTINGS)
    def test_round_trip_property(self, scenario):
        dumped = json.dumps(scenario.to_dict())
        assert Scenario.from_dict(json.loads(dumped)) == scenario

    def test_from_dict_defaults(self):
        minimal = Scenario.from_dict({
            "algorithm": {"name": "wpaxos"},
            "topology": {"name": "clique", "params": {"n": 5}}})
        assert minimal.scheduler == SchedulerSpec("synchronous")
        assert minimal.values == "alternating"
        assert minimal.trace_level == "full"
        assert minimal.check_invariants

    def test_missing_required_fields(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict({"algorithm": {"name": "wpaxos"}})
        with pytest.raises(ScenarioError):
            Scenario.from_json("not json at all {")

    def test_field_validation(self):
        with pytest.raises(ScenarioError):
            Scenario(algorithm="wpaxos",
                     topology=TopologySpec("clique", n=4))
        with pytest.raises(ScenarioError):
            Scenario(algorithm=AlgorithmSpec("wpaxos"),
                     topology=TopologySpec("clique", n=4),
                     fault=TopologySpec("clique", n=4))


# ---------------------------------------------------------------------------
# A/B equivalence: Scenario vs the legacy hand-wired path
# ---------------------------------------------------------------------------

def _ab_cases():
    """Six pinned fault scenarios spanning algorithms, topologies,
    schedulers and all three fault families."""

    def wpaxos_factory(graph):
        uid = _uid(graph)
        return lambda v, val: WPaxosNode(uid[v], val, graph.n,
                                         WPaxosConfig())

    cases = []

    g1 = clique(6)
    cases.append((
        "twophase-crash-partial",
        Scenario(algorithm=AlgorithmSpec("two-phase"),
                 topology=TopologySpec("clique", n=6),
                 scheduler=SchedulerSpec("synchronous", f_ack=1.0),
                 fault=FaultSpec("crash", node=0, time=0.5,
                                 still_delivered=[1, 2])),
        dict(graph=g1, scheduler=lambda: SynchronousScheduler(1.0),
             factory=lambda v, val: TwoPhaseConsensus(v + 1, val),
             fault_model=CrashFaultModel(
                 [CrashPlan(0, 0.5, still_delivered=(1, 2))]))))

    g2 = line(8)
    cases.append((
        "wpaxos-line-crash",
        Scenario(algorithm=AlgorithmSpec("wpaxos"),
                 topology=TopologySpec("line", n=8),
                 scheduler=SchedulerSpec("random", f_ack=1.0, seed=11),
                 fault=FaultSpec("crash", plans=[
                     CrashPlan(3, 4.25).to_dict()]),
                 check_invariants=False),
        dict(graph=g2, scheduler=lambda: RandomDelayScheduler(1.0, seed=11),
             factory=wpaxos_factory(g2),
             fault_model=CrashFaultModel([CrashPlan(3, 4.25)]))))

    g3 = grid(3, 4)
    cases.append((
        "wpaxos-grid-omission",
        Scenario(algorithm=AlgorithmSpec("wpaxos"),
                 topology=TopologySpec("grid", rows=3, cols=4),
                 scheduler=SchedulerSpec("synchronous", f_ack=1.0),
                 fault=FaultSpec("omission", count=2, send=True,
                                 receive=False)),
        dict(graph=g3, scheduler=lambda: SynchronousScheduler(1.0),
             factory=wpaxos_factory(g3),
             fault_model=OmissionFaultModel([
                 OmissionPlan(node=v, send=True, receive=False,
                              seed=13 * i)
                 for i, v in enumerate(list(g3.nodes)[-2:])]))))

    g4 = clique(10)
    uid4 = _uid(g4)
    cases.append((
        "byzantine-corrupt",
        Scenario(algorithm=AlgorithmSpec("byzantine"),
                 topology=TopologySpec("clique", n=10),
                 scheduler=SchedulerSpec("synchronous", f_ack=1.0),
                 fault=FaultSpec("byzantine", count=1,
                                 strategy="corrupt"),
                 seed=5),
        dict(graph=g4, scheduler=lambda: SynchronousScheduler(1.0),
             factory=lambda v, val: ByzantineConsensus(
                 uid4[v], val, 10, 1, seed=5 * 101 + uid4[v],
                 relay=False),
             fault_model=ByzantineFaultModel([
                 ByzantinePlan(node=list(g4.nodes)[-1],
                               strategy=CorruptStrategy(),
                               seed=5 * 13)]))))

    g5 = random_geometric(10, 0.45, seed=1)
    uid5 = _uid(g5)
    cases.append((
        "gatherall-geometric",
        Scenario(algorithm=AlgorithmSpec("gatherall"),
                 topology=TopologySpec("geometric", n=10, radius=0.45,
                                       seed=1),
                 scheduler=SchedulerSpec("random", f_ack=1.0, seed=2),
                 seed=2),
        dict(graph=g5, scheduler=lambda: RandomDelayScheduler(1.0, seed=2),
             factory=lambda v, val: GatherAllConsensus(uid5[v], val,
                                                       g5.n))))

    g6 = clique(4)
    uid6 = _uid(g6)
    cases.append((
        "benor-crash",
        Scenario(algorithm=AlgorithmSpec("ben-or"),
                 topology=TopologySpec("clique", n=4),
                 scheduler=SchedulerSpec("synchronous", f_ack=1.0),
                 fault=FaultSpec("crash", node=2, time=1.5,
                                 still_delivered=[0]),
                 seed=3),
        dict(graph=g6, scheduler=lambda: SynchronousScheduler(1.0),
             factory=lambda v, val: BenOrConsensus(
                 uid6[v], val, 4, 1, seed=3 * 101 + uid6[v]),
             fault_model=CrashFaultModel(
                 [CrashPlan(2, 1.5, still_delivered=(0,))]))))
    # Bound every run the way test_faults does: one case (the line
    # crash) disconnects the graph and legitimately never terminates.
    return [(name,
             scenario.override({"max_events": 500_000,
                                "max_time": 500.0}),
             legacy)
            for name, scenario, legacy in cases]


AB_CASES = _ab_cases()


class TestScenarioABIdentity:
    @pytest.mark.parametrize("name,scenario,legacy", AB_CASES,
                             ids=[c[0] for c in AB_CASES])
    def test_metrics_equal_legacy_run_consensus(self, name, scenario,
                                                legacy):
        values = {v: i % 2
                  for i, v in enumerate(legacy["graph"].nodes)}
        factory = legacy["factory"]
        expected = run_consensus(
            algorithm=scenario.algorithm.name,
            topology=scenario.display_label(),
            graph=legacy["graph"],
            scheduler=legacy["scheduler"](),
            factory=factory,
            initial_values=values,
            fault_model=legacy.get("fault_model"),
            max_events=500_000, max_time=500.0,
            check_invariants=scenario.check_invariants)
        got = scenario.run()
        assert got == expected

    @pytest.mark.parametrize("name,scenario,legacy", AB_CASES,
                             ids=[c[0] for c in AB_CASES])
    def test_traces_byte_identical(self, name, scenario, legacy):
        values = {v: i % 2
                  for i, v in enumerate(legacy["graph"].nodes)}
        factory = legacy["factory"]
        sim = build_simulation(
            legacy["graph"],
            lambda v: factory(v, values[v]),
            legacy["scheduler"](),
            fault_model=legacy.get("fault_model"))
        expected = sim.run(max_events=500_000, max_time=500.0)
        expected.trace.close()
        got = scenario.simulate()
        assert trace_to_json(got.trace) == trace_to_json(expected.trace)

    def test_scenario_rerun_is_deterministic(self):
        _, scenario, _ = AB_CASES[3]
        first = trace_to_json(scenario.simulate().trace)
        second = trace_to_json(scenario.simulate().trace)
        assert first == second


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# Reseeding a resolved template
# ---------------------------------------------------------------------------

class TestReseed:
    # No spec pins its own seed, so the scenario seed feeds every
    # registry that takes one.
    SCHEDULERS = [
        SchedulerSpec("synchronous"),
        SchedulerSpec("random", f_ack=2.0),
        SchedulerSpec("bernoulli-unreliable", p=0.5,
                      inner=SchedulerSpec("synchronous")),
    ]

    @given(scheduler=st.sampled_from(SCHEDULERS),
           fault=st.sampled_from(
               [None, FaultSpec("crash", node=1, time=1.5)]),
           dynamics=st.sampled_from(
               [None, DynamicsSpec("edge-churn", rate=0.1)]),
           overlay=st.sampled_from(
               [None, OverlaySpec("random-overlay", density=0.3)]),
           seeds=st.lists(st.integers(0, 10 ** 6), min_size=2,
                          max_size=3, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_reseed_equals_override_resolve(self, scheduler, fault,
                                            dynamics, overlay, seeds):
        base = Scenario(
            algorithm=AlgorithmSpec("wpaxos"),
            topology=TopologySpec("grid", rows=2, cols=3),
            scheduler=scheduler, fault=fault, dynamics=dynamics,
            overlay=overlay, seed=3, max_events=20_000,
            max_time=200.0)
        template = base.resolve()
        # Coming back to the first seed after the others shows no
        # build leaked state into the template or a sibling.
        for seed in seeds + seeds[:1]:
            fresh = base.override({"seed": seed})
            reseeded = template.reseed(seed)
            assert reseeded.scenario == fresh
            assert reseeded.graph is template.graph
            assert (trace_to_json(reseeded.simulate().trace)
                    == trace_to_json(fresh.simulate().trace))

    def test_reseed_to_own_seed_keeps_scenario_and_rebuilds(self):
        base = Scenario(algorithm=AlgorithmSpec("wpaxos"),
                        topology=TopologySpec("clique", n=4),
                        scheduler=SchedulerSpec("random"), seed=7)
        template = base.resolve()
        again = template.reseed(7)
        assert again.scenario is base
        assert again.scheduler is not template.scheduler
        assert (trace_to_json(again.simulate().trace)
                == trace_to_json(template.simulate().trace))


class TestScenarioGrid:
    BASE = Scenario(algorithm=AlgorithmSpec("wpaxos"),
                    topology=TopologySpec("clique", n=4),
                    scheduler=SchedulerSpec("random", f_ack=1.0,
                                            seed=0))

    def test_keys_and_scenarios(self):
        g = self.BASE.grid({"topology.n": [4, 6],
                            "scheduler.seed": [0, 1, 2]})
        assert len(g) == 6
        assert g.keys()[0] == (4, 0)
        assert g.scenario_at((6, 2)).topology.params["n"] == 6
        assert g.scenario_at((6, 2)).scheduler.params["seed"] == 2

    def test_single_axis_keys_are_scalars(self):
        g = self.BASE.grid({"topology.n": [4, 5, 6]})
        assert g.keys() == [4, 5, 6]
        assert g.scenario_at(5).topology.params["n"] == 5

    def test_kwarg_axes_with_dunder_paths(self):
        g = self.BASE.grid(topology__n=[4, 6], seed=range(2))
        assert list(g.axes) == ["topology.n", "seed"]
        assert g.keys() == [(4, 0), (4, 1), (6, 0), (6, 1)]

    def test_grid_run_matches_manual_runs(self):
        g = self.BASE.grid({"topology.n": [4, 6],
                            "scheduler.seed": [0, 1]})
        series = g.run(name="wpaxos")
        assert [p.key for p in series.points] \
            == [(4, 0), (4, 1), (6, 0), (6, 1)]
        assert [p.x for p in series.points] == [4.0, 4.0, 6.0, 6.0]
        for point in series.points:
            manual = g.scenario_at(point.key).run()
            assert point.metrics == manual
        by_x = series.by_x()
        assert sorted(by_x) == [4.0, 6.0]
        assert all(len(reps) == 2 for reps in by_x.values())

    def test_parallel_equals_sequential(self):
        g = self.BASE.grid({"scheduler.seed": [0, 1, 2]})
        par = g.run(name="wpaxos", workers=2)
        seq = g.run(name="wpaxos", workers=1)
        assert [p.metrics for p in par.points] \
            == [p.metrics for p in seq.points]

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioError):
            self.BASE.grid({"topology.n": []})
        with pytest.raises(ScenarioError):
            self.BASE.grid({})

    def test_override_paths(self):
        derived = self.BASE.override({"seed": 9, "topology.n": 7})
        assert derived.seed == 9
        assert derived.topology.params["n"] == 7
        assert self.BASE.seed == 0, "base untouched"
        nested = Scenario(
            algorithm=AlgorithmSpec("wpaxos"),
            topology=TopologySpec("line", n=5),
            scheduler=SchedulerSpec(
                "bernoulli-unreliable", p=0.5,
                inner=SchedulerSpec("synchronous", f_ack=1.0)))
        tweaked = nested.override({"scheduler.inner.f_ack": 2.0})
        assert tweaked.scheduler.params["inner"].params["f_ack"] == 2.0

    def test_override_bad_paths(self):
        with pytest.raises(ScenarioError):
            self.BASE.override({"nonsense": 1})
        with pytest.raises(ScenarioError):
            self.BASE.override({"seed.deeper": 1})


# ---------------------------------------------------------------------------
# Export embedding + replay
# ---------------------------------------------------------------------------

class TestScenarioReplay:
    SCENARIO = Scenario(
        algorithm=AlgorithmSpec("wpaxos"),
        topology=TopologySpec("grid", rows=3, cols=3),
        scheduler=SchedulerSpec("random", f_ack=1.0, seed=4),
        fault=FaultSpec("crash", node=2, time=2.0),
        seed=4)

    def test_v4_embeds_and_replays(self, tmp_path):
        path = str(tmp_path / "run.json")
        result = self.SCENARIO.simulate()
        save_trace(result.trace, path, metadata={"note": "test"},
                   scenario=self.SCENARIO)
        assert load_metadata(path) == {"note": "test"}
        loaded = load_scenario(path)
        assert loaded == self.SCENARIO
        replayed = loaded.simulate()
        assert trace_to_json(replayed.trace) \
            == trace_to_json(result.trace)

    def test_exports_without_scenario_load_none(self, tmp_path):
        path = str(tmp_path / "bare.json")
        result = self.SCENARIO.simulate()
        save_trace(result.trace, path)
        assert load_scenario(path) is None


class TestSpecPickling:
    def test_specs_pickle_round_trip(self):
        import pickle
        specs = [
            TopologySpec("grid", rows=4, cols=6),
            SchedulerSpec("bernoulli-unreliable", p=0.5,
                          inner=SchedulerSpec("synchronous", f_ack=2.0)),
            FaultSpec("byzantine", count=2, strategy="corrupt"),
        ]
        for spec in specs:
            again = pickle.loads(pickle.dumps(spec))
            assert again == spec
            assert hash(again) == hash(spec)

    def test_parallel_grid_with_spec_keys(self):
        """Sweep keys holding whole fault specs must survive the
        worker->parent pickle of parallel_sweep (forced workers=2:
        single-core boxes would otherwise fall back to sequential
        and mask a pickling regression)."""
        base = Scenario(algorithm=AlgorithmSpec("wpaxos"),
                        topology=TopologySpec("clique", n=4))
        faults = [None, FaultSpec("omission", count=1)]
        series = base.grid({"fault": faults, "seed": [0, 1]}).run(
            name="wpaxos", workers=2)
        assert len(series.points) == 4
        assert [p.key[0] for p in series.points] \
            == [faults[0], faults[0], faults[1], faults[1]]
        assert [p.x for p in series.points] == [0.0, 1.0, 2.0, 3.0]
