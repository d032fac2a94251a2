"""PR 3 trace-pipeline tests: sink equivalence (FULL / DECISIONS /
COLUMNAR) under fault models, batched delivery scheduling
byte-identity, disk-sink replay and reload, streaming export (schema
6), and structured sweep keys."""

import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import parallel_sweep, run_consensus, sweep
from repro.analysis.export import (iter_saved_records, load_metadata,
                                   load_trace, save_trace, trace_to_json)
from repro.core import (BenOrConsensus, GatherAllConsensus,
                        TwoPhaseConsensus, WPaxosConfig, WPaxosNode)
from repro.macsim import (ByzantineFaultModel, ByzantinePlan,
                          ColumnarSink, CorruptStrategy, CrashFaultModel,
                          CrashPlan, EquivocateStrategy,
                          OmissionFaultModel, OmissionPlan,
                          SilentStrategy, Trace, TraceLevel,
                          build_simulation, check_consensus,
                          check_model_invariants, make_sink)
from repro.macsim import TraceSink as TraceSinkBase
from repro.macsim.schedulers import (RandomDelayScheduler,
                                     SynchronousScheduler)
from repro.macsim.trace import TRACE_KINDS
from repro.topology import clique, line, star
from tests.helpers import (delivered_order, per_receiver_delivery_order,
                           trace_digest)

SETTINGS = dict(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _wpaxos_factory(graph):
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return lambda v: WPaxosNode(uid[v], uid[v] % 2, graph.n,
                                WPaxosConfig())


#: Six fault scenarios spanning the model families: crash (partial
#: mid-broadcast delivery), send/receive omission (drop records), and
#: Byzantine corruption/equivocation/silence with forged decisions.
def _fault_scenarios():
    g1 = clique(6)
    g2 = line(8)
    g3 = clique(5)
    g4 = star(9)
    g5 = clique(7)
    g6 = clique(4)
    return [
        ("crash-partial", g1,
         lambda v: TwoPhaseConsensus(v + 1, v % 2),
         lambda: SynchronousScheduler(1.0),
         lambda: CrashFaultModel([
             CrashPlan(0, 0.5, still_delivered=(1, 2)),
             CrashPlan(5, 2.5)])),
        ("omission-send", g2, _wpaxos_factory(g2),
         lambda: RandomDelayScheduler(1.0, seed=11),
         lambda: OmissionFaultModel([OmissionPlan(node=3, send=True)])),
        ("omission-receive", g3,
         lambda v: GatherAllConsensus(v + 1, v % 2, 5),
         lambda: SynchronousScheduler(1.0),
         lambda: OmissionFaultModel([
             OmissionPlan(node=4, send=False, receive=True,
                          start=2.0)])),
        ("byzantine-corrupt-forged", g4, _wpaxos_factory(g4),
         lambda: SynchronousScheduler(1.0),
         lambda: ByzantineFaultModel([
             ByzantinePlan(node=8, strategy=CorruptStrategy(), seed=3,
                           decide_at=1.5, decide_value=7)])),
        ("byzantine-equivocate", g5,
         lambda v: BenOrConsensus(v + 1, v % 2, 7, 1, seed=v),
         lambda: RandomDelayScheduler(1.0, seed=5),
         lambda: ByzantineFaultModel([
             ByzantinePlan(node=6, strategy=EquivocateStrategy(),
                           seed=1)])),
        ("byzantine-silent-forged", g6,
         lambda v: GatherAllConsensus(v + 1, v % 2, 4),
         lambda: SynchronousScheduler(1.0),
         lambda: ByzantineFaultModel([
             ByzantinePlan(node=3, strategy=SilentStrategy(),
                           decide_at=0.5, decide_value=1)])),
    ]


def _run_with_sink(graph, factory, sched, model_factory, sink):
    sim = build_simulation(graph, factory, sched(),
                           fault_model=model_factory(),
                           trace_sink=sink)
    result = sim.run(max_events=500_000, max_time=500.0)
    sink.close()
    return result


def _verdict(trace, graph, fault_model):
    values = {v: i % 2 for i, v in enumerate(graph.nodes)}
    report = check_consensus(
        trace, values, faulty=frozenset(fault_model.faulty_nodes()),
        untrusted=frozenset(fault_model.lying_nodes()))
    return (report.agreement, report.validity, report.termination,
            report.decisions, sorted(map(str, report.undecided)))


class TestSinkEquivalenceUnderFaults:
    """Counters and consensus verdicts must be sink-independent."""

    @pytest.mark.parametrize(
        "name,graph,factory,sched,model",
        _fault_scenarios(), ids=[s[0] for s in _fault_scenarios()])
    def test_counters_and_verdicts_match_full(
            self, tmp_path, name, graph, factory, sched, model):
        full = _run_with_sink(graph, factory, sched, model, make_sink("full"))
        fast = _run_with_sink(graph, factory, sched, model,
                              Trace())
        disk = _run_with_sink(
            graph, factory, sched, model,
            ColumnarSink(str(tmp_path / name), chunk_records=512))

        reference = full.trace
        for result in (fast, disk):
            trace = result.trace
            assert result.decisions == full.decisions
            assert result.decision_times == full.decision_times
            assert result.events_processed == full.events_processed
            assert result.stop_reason == full.stop_reason
            for kind in TRACE_KINDS:
                assert trace.count_of_kind(kind) == \
                    reference.count_of_kind(kind), kind
            assert trace.broadcast_count() == reference.broadcast_count()
            assert trace.delivery_count() == reference.delivery_count()
            assert (trace.broadcasts_per_node()
                    == reference.broadcasts_per_node())
            assert trace.crashed_nodes() == reference.crashed_nodes()
            assert _verdict(trace, graph, model()) == \
                _verdict(reference, graph, model())

    @pytest.mark.parametrize(
        "name,graph,factory,sched,model",
        _fault_scenarios(), ids=[s[0] for s in _fault_scenarios()])
    def test_columnar_replay_matches_full_structurally(
            self, tmp_path, name, graph, factory, sched, model):
        full = _run_with_sink(graph, factory, sched, model, make_sink("full"))
        sink = ColumnarSink(str(tmp_path / name), chunk_records=256)
        disk = _run_with_sink(graph, factory, sched, model, sink)
        assert len(sink) == len(full.trace)
        for mine, ref in zip(sink, full.trace):
            assert (mine.time, mine.kind, mine.node, mine.broadcast_id,
                    mine.peer) == (ref.time, ref.kind, ref.node,
                                   ref.broadcast_id, ref.peer)
            expected = None if ref.payload is None else repr(ref.payload)
            assert mine.payload == expected
        # The streaming invariant replay accepts the disk trace
        # exactly like the in-RAM one.
        faulty = frozenset(model().faulty_nodes())
        for trace in (full.trace, sink):
            report = check_model_invariants(graph, trace, 1.0,
                                            faulty=faulty)
            assert report.ok, (name, report.violations[:3])
        assert disk.events_processed == full.events_processed


class TestSinkPropertyEquivalence:
    """Random scenario + random sink: decision times, counts and
    verdicts are identical across all three sinks."""

    @given(n=st.integers(3, 7), seed=st.integers(0, 10 ** 6),
           crash_count=st.integers(0, 2),
           synchronous=st.booleans())
    @settings(**SETTINGS)
    def test_three_sinks_agree(self, tmp_path_factory, n, seed,
                               crash_count, synchronous):
        rng = random.Random(seed)
        graph = clique(n)
        plans = []
        for victim in rng.sample(list(graph.nodes),
                                 min(crash_count, n - 1)):
            others = [v for v in graph.nodes if v != victim]
            survivors = frozenset(
                rng.sample(others, rng.randint(0, len(others))))
            plans.append(CrashPlan(victim, rng.uniform(0.0, 4.0),
                                   still_delivered=survivors))
        factory = lambda v: TwoPhaseConsensus(v + 1, v % 2)
        values = {v: v % 2 for v in graph.nodes}

        def sched():
            return (SynchronousScheduler(1.0) if synchronous
                    else RandomDelayScheduler(1.0, seed=seed))

        outcomes = []
        for level in ("full", "decisions", "columnar"):
            if level == "columnar":
                base = tmp_path_factory.mktemp("sink-prop")
                sink = make_sink(level, directory=str(base / "s"),
                                 chunk_records=128)
            else:
                sink = make_sink(level)
            sim = build_simulation(graph, factory, sched(),
                                   fault_model=CrashFaultModel(plans),
                                   trace_sink=sink)
            result = sim.run(max_events=200_000, max_time=200.0)
            sink.close()
            report = check_consensus(result.trace, values)
            outcomes.append((
                result.decisions, result.decision_times,
                result.events_processed, result.stop_reason,
                sink.broadcast_count(), sink.delivery_count(),
                sink.broadcasts_per_node(), sink.crashed_nodes(),
                {k: sink.count_of_kind(k) for k in TRACE_KINDS},
                report.agreement, report.validity, report.termination,
            ))
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestBatchedDeliveryScheduling:
    """The bdeliver path is byte-identical to per-receiver scheduling,
    crash cuts included. The per-receiver side is a committed golden:
    ``(events, trace sha256)`` of the same runs with
    ``batch_deliveries=False`` on the last commit that had the toggle
    (20c27ed). Ten of each crash run's events there were popped
    deliveries to a crashed node that did nothing; a crash now prunes
    them when they are planned, so they are no events."""

    @pytest.mark.parametrize("crashes,unbatched", [
        ([], (72, "b80a05dae119d21528f3cebf7cfb1aa0"
                  "37de01519b12152dd0c7fb969e05a539")),
        ([CrashPlan(0, 0.5, still_delivered=(1, 2))],
         (63 - 10, "dcb788cb2e869ee31e33c36c69446c14"
              "ba156ed4e4c43dafe06749a55e0dc948")),
        ([CrashPlan(2, 1.0, still_delivered=()), CrashPlan(4, 2.5)],
         (61 - 10, "ffa376d74e37d62ab27650e1c3cfb90e"
              "97a4b960f33389a2c602e0050a11c325")),
    ], ids=["clean", "partial", "two-crashes"])
    def test_batched_equals_unbatched(self, crashes, unbatched):
        graph = clique(6)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0),
            fault_model=CrashFaultModel(crashes))
        result = sim.run(max_events=100_000, max_time=100.0)
        assert (result.events_processed,
                trace_digest(sim.trace)) == unbatched

    def test_batch_entry_per_broadcast_on_dense_clique(self):
        # One bdeliver + one ack per broadcast: heap traffic is O(1)
        # per broadcast, not O(deg).
        graph = clique(16)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0))
        sim.run()
        broadcasts = sim.trace.broadcast_count()
        assert broadcasts > 0
        # Every scheduled entry consumed exactly one seq; per-receiver
        # scheduling would have needed ~deg seqs per broadcast.
        assert sim._queue._next_seq < broadcasts * 3
        assert sim.trace.delivery_count() == broadcasts * 15

    def test_resume_mid_batch_preserves_trace(self):
        def run_resumed(step):
            sim = build_simulation(
                clique(5), lambda v: TwoPhaseConsensus(v + 1, v % 2),
                SynchronousScheduler(1.0))
            total = 0
            while True:
                result = sim.run(max_events=step)
                total += result.events_processed
                if result.stop_reason != "max_events":
                    return trace_to_json(sim.trace), total
        whole, ev_whole = run_resumed(10 ** 9)
        for step in (1, 2, 3, 7):
            chunked, ev_chunked = run_resumed(step)
            assert chunked == whole, f"step={step}"
            assert ev_chunked == ev_whole

    def test_random_scheduler_unbatched_path_still_used(self):
        # Distinct per-receiver delivery times: plans fall back to
        # one entry per receiver (4 deliveries + the ack) and match
        # the reference order built from the plans.
        graph = clique(5)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            RandomDelayScheduler(1.0, seed=3))
        sim.run(max_events=100_000, max_time=100.0)
        assert sim._queue._next_seq == sim.trace.broadcast_count() * 5
        delivered = delivered_order(sim.trace)
        expected = per_receiver_delivery_order(
            graph, sim.trace, RandomDelayScheduler(1.0, seed=3))
        assert delivered and delivered == expected[:len(delivered)]


class TestTraceLevels:
    """Three levels, two sink classes: ``ColumnarSink`` keeps a run's
    rows in RAM at ``full`` and on disk at ``columnar``, ``Trace``
    counts them at ``decisions``."""

    def test_levels_are_full_decisions_columnar(self):
        assert [level.value for level in TraceLevel] \
            == ["full", "decisions", "columnar"]

    @pytest.mark.parametrize("level, cls", [("full", ColumnarSink),
                                            ("decisions", Trace)])
    def test_memory_levels_build_a_trace(self, level, cls):
        sink = make_sink(level)
        assert type(sink) is cls
        assert sink.level is TraceLevel(level)
        assert sink.replayable is (level == "full")
        assert getattr(sink, "directory", None) is None

    @pytest.mark.parametrize("level", ["full", "decisions"])
    def test_memory_levels_reject_spill_options(self, tmp_path, level):
        with pytest.raises(ValueError, match="spill options"):
            make_sink(level, directory=str(tmp_path / "s"))

    def test_spill_is_not_a_level(self):
        with pytest.raises(ValueError):
            make_sink("spill")


class TestStreamingExport:
    def _sample(self):
        graph = clique(4)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0))
        sim.run()
        return sim.trace

    def test_v3_roundtrip_structure(self, tmp_path):
        trace = self._sample()
        path = str(tmp_path / "t.json")
        save_trace(trace, path, metadata={"seed": 9})
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["schema"] == 6
        reloaded = load_trace(path)
        assert len(reloaded) == len(trace)
        assert reloaded.decision_times() == trace.decision_times()
        assert reloaded.broadcast_count() == trace.broadcast_count()
        assert load_metadata(path) == {"seed": 9}
        assert [r.kind for r in iter_saved_records(path)] \
            == [r.kind for r in trace]

    def test_columnar_sink_exports_without_double_repr(self, tmp_path):
        graph = clique(4)
        sink = ColumnarSink(str(tmp_path / "s"), chunk_records=16)
        ref = self._sample()
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0), trace_sink=sink)
        sim.run()
        sink.close()
        disk_path = str(tmp_path / "disk.json")
        full_path = str(tmp_path / "full.json")
        save_trace(sink, disk_path)
        save_trace(ref, full_path)
        disk_recs = list(iter_saved_records(disk_path))
        full_recs = list(iter_saved_records(full_path))
        assert [(r.kind, r.node, r.payload) for r in disk_recs] \
            == [(r.kind, r.node, r.payload) for r in full_recs]

    def test_load_into_columnar_sink_is_streamed(self, tmp_path):
        trace = self._sample()
        path = str(tmp_path / "t.json")
        save_trace(trace, path)
        sink = load_trace(path, sink=ColumnarSink(str(tmp_path / "s"),
                                                  chunk_records=5))
        sink.close()
        assert isinstance(sink, ColumnarSink)
        assert len(sink.chunk_paths()) > 1
        assert len(sink) == len(trace)
        assert sink.broadcast_count() == trace.broadcast_count()


class TestReviewRegressions:
    """Fixes pinned from the PR 3 review pass."""

    def test_reload_into_columnar_sink_does_not_double_repr(self,
                                                            tmp_path):
        graph = clique(4)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0))
        sim.run()
        original = str(tmp_path / "orig.json")
        save_trace(sim.trace, original)
        reloaded = load_trace(original,
                              sink=ColumnarSink(str(tmp_path / "s"),
                                                chunk_records=8))
        reloaded.close()
        # Payloads come back as the *single* repr from the export...
        by_payload = [r.payload for r in reloaded if r.kind == "broadcast"]
        assert by_payload == [r.payload for r in
                              iter_saved_records(original)
                              if r.kind == "broadcast"]
        assert not any(p.startswith('"') for p in by_payload)
        # ...and re-exporting the reloaded sink round-trips.
        reexport = str(tmp_path / "again.json")
        save_trace(reloaded, reexport)
        assert list(iter_saved_records(original)) \
            == list(iter_saved_records(reexport))

    def test_third_party_sink_only_needs_the_protocol(self):
        class CountingSink(TraceSinkBase):
            level = TraceLevel.DECISIONS
            replayable = False
            materializes_mac = False

            def __init__(self):
                self.counts = {}
                self.decided = {}

            def record(self, time, kind, node, *, broadcast_id=None,
                       peer=None, payload=None):
                self.bump(kind, node)
                if kind == "decide" and node not in self.decided:
                    self.decided[node] = (payload, time)

            def bump(self, kind, node=None):
                self.counts[kind] = self.counts.get(kind, 0) + 1

            def of_kind(self, kind):
                return []

            def decisions(self):
                return {n: v for n, (v, _) in self.decided.items()}

            def decision_times(self):
                return {n: t for n, (_, t) in self.decided.items()}

            def broadcast_count(self, node=None):
                return self.counts.get("broadcast", 0)

            def broadcasts_per_node(self):
                return {}

            def count_of_kind(self, kind):
                return self.counts.get(kind, 0)

        sink = CountingSink()
        reference = build_simulation(
            clique(5), lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0))
        ref_result = reference.run()
        sim = build_simulation(
            clique(5), lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0), trace_sink=sink)
        result = sim.run()
        assert result.decisions == ref_result.decisions
        # Every counted kind -- including the engine's deliver/ack
        # fast-path sites -- routed through the sink's own bump().
        for kind in ("broadcast", "deliver", "ack", "decide"):
            assert sink.counts.get(kind, 0) \
                == ref_result.trace.count_of_kind(kind), kind

    def test_unreliable_delivery_at_ack_time_with_validation(self):
        # _schedule_unreliable tolerates deliveries up to
        # ack_time + 1e-9, which sort *after* the ack; the engine must
        # not have freed the broadcast record by then.
        from repro.macsim.schedulers import SynchronousScheduler as Sync
        from repro.topology.standard import unreliable_overlay

        class AckEdgeScheduler(Sync):
            def plan_unreliable(self, *, sender, message, start_time,
                                ack_time, neighbors):
                return {v: ack_time for v in neighbors}

        graph = line(6)
        overlay = unreliable_overlay(graph, 0.9, seed=1)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            AckEdgeScheduler(1.0), unreliable_graph=overlay,
            validate_plans=True)
        result = sim.run(max_events=50_000, max_time=50.0)
        assert result.events_processed > 0

    def test_invariants_accept_generator_input(self):
        graph = clique(4)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0))
        sim.run()
        ok = check_model_invariants(graph, iter(list(sim.trace)), 1.0)
        assert ok.ok
        # A malformed stream must still be caught, not silently pass.
        from repro.macsim import TraceRecord
        bad = iter([TraceRecord(1.0, "deliver", 1, broadcast_id=99,
                                peer=0)])
        report = check_model_invariants(graph, bad, 1.0)
        assert not report.ok


class TestStructuredSweepKeys:
    @staticmethod
    def _build(key):
        n, seed = key
        graph = clique(int(n))
        return dict(
            graph=graph,
            scheduler=RandomDelayScheduler(1.0, seed=seed),
            factory=lambda v, val: TwoPhaseConsensus(v + 1, val),
            topology=f"clique({n})")

    def test_tuple_keys_fan_out_and_regroup(self):
        keys = [(n, s) for n in (4, 6) for s in range(3)]
        result = sweep("structured", keys, self._build)
        assert [p.key for p in result.points] == keys
        assert result.xs == [4.0, 4.0, 4.0, 6.0, 6.0, 6.0]
        groups = result.by_x()
        assert set(groups) == {4.0, 6.0}
        assert all(len(g) == 3 for g in groups.values())
        assert result.all_correct()

    def test_parallel_matches_sequential_on_tuple_keys(self):
        keys = [(5, s) for s in range(4)]
        seq = sweep("structured", keys, self._build)
        par = parallel_sweep("structured", keys, self._build,
                             workers=2)
        sig = lambda r: [(p.x, p.key, p.metrics.last_decision,
                          p.metrics.broadcasts, p.metrics.events)
                         for p in r.points]
        assert sig(par) == sig(seq)

    def test_nested_tuple_keys_take_first_numeric_leaf(self):
        result = sweep(
            "nested", [((4, 1), 0), ((6, 2), 1)],
            lambda key: self._build((key[0][0], key[1])))
        assert result.xs == [4.0, 6.0]

    def test_explicit_x_overrides_key_leaf(self):
        result = sweep(
            "explicit", [("label-a", 0)],
            lambda key: dict(x=42.0,
                             **self._build((5, key[1]))))
        assert result.xs == [42.0]

    def test_probe_extras_travel_through_sweeps(self):
        def build(key):
            spec = self._build(key)
            spec["probe"] = lambda sim: {
                "n_alive": len(sim.alive_nodes())}
            return spec
        result = parallel_sweep("probed", [(4, 0), (4, 1)], build,
                                workers=2)
        assert [p.metrics.extras for p in result.points] \
            == [{"n_alive": 4}, {"n_alive": 4}]
