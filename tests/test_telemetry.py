"""PR 7 observability tests: telemetry counters vs full-trace counts
across sinks and fault models, trace byte-identity with telemetry on
vs off, live/derived F_ack histogram identity (record stream and
columns),
abort-snapshot flushing, the phase profiler, span/kind registry
guards, and sweep progress heartbeats."""

import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import run_consensus
from repro.analysis.export import (iter_saved_records, save_trace,
                                   trace_to_json)
from repro.analysis.stats_report import (KIND_TO_COUNTER, SPAN_RULES,
                                         derive_spans, render_stats,
                                         stats_from_file)
from repro.analysis.sweeps import SweepProgress, sweep
from repro.cli import main as cli_main
from repro.core import (GatherAllConsensus, TwoPhaseConsensus,
                        WPaxosConfig, WPaxosNode)
from repro.macsim import (ByzantineFaultModel, ByzantinePlan,
                          ColumnarSink, CorruptStrategy, CrashFaultModel,
                          CrashPlan, OmissionFaultModel, OmissionPlan,
                          SpillBudgetError, Telemetry, Trace,
                          build_simulation)
from repro.macsim.columnar import KIND_CODES, have_numpy
from repro.macsim.schedulers import (RandomDelayScheduler,
                                     SynchronousScheduler)
from repro.macsim.telemetry import (PHASES, quantile, summarize_samples)
from repro.macsim.trace import TRACE_KINDS, make_sink
from repro.scenario import AlgorithmSpec, Scenario, TopologySpec
from repro.topology import clique, line, star

SETTINGS = dict(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Telemetry counter name -> trace kind it must equal (the satellite
#: property: counters are exactly the full-trace counts).
COUNTER_KINDS = {
    "broadcasts_opened": "broadcast",
    "deliveries": "deliver",
    "broadcasts_acked": "ack",
    "decisions": "decide",
    "drops": "drop",
    "crashes": "crash",
    "discards": "discard",
    "topo_records": "topo",
}


def _wpaxos_factory(graph):
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return lambda v: WPaxosNode(uid[v], uid[v] % 2, graph.n,
                                WPaxosConfig())


def _fault_scenarios():
    g1 = clique(6)
    g2 = line(7)
    g3 = star(8)
    return [
        ("crash", g1, lambda v: TwoPhaseConsensus(v + 1, v % 2),
         lambda: SynchronousScheduler(1.0),
         lambda: CrashFaultModel([
             CrashPlan(0, 0.5, still_delivered=(1, 2)),
             CrashPlan(5, 2.5)])),
        ("omission", g2, _wpaxos_factory(g2),
         lambda: RandomDelayScheduler(1.0, seed=11),
         lambda: OmissionFaultModel([
             OmissionPlan(node=3, send=True)])),
        ("byzantine", g3, _wpaxos_factory(g3),
         lambda: SynchronousScheduler(1.0),
         lambda: ByzantineFaultModel([
             ByzantinePlan(node=7, strategy=CorruptStrategy(), seed=3,
                           decide_at=1.5, decide_value=7)])),
    ]


def _sink_factories(tmp_path, tag):
    return [
        ("full", lambda: make_sink("full")),
        ("decisions", Trace),
        ("columnar", lambda: ColumnarSink(str(tmp_path / f"co-{tag}"),
                                          chunk_records=256)),
    ]


def _run(graph, factory, sched, model, sink, telemetry=None):
    sim = build_simulation(graph, factory, sched(),
                           fault_model=model(), trace_sink=sink,
                           telemetry=telemetry)
    result = sim.run(max_events=200_000, max_time=200.0)
    sink.close()
    return sim, result


class TestCountersMatchTrace:
    """Telemetry counters == counts derived from the FULL trace, for
    every sink family x {crash, omission, Byzantine}."""

    @pytest.mark.parametrize(
        "name,graph,factory,sched,model",
        _fault_scenarios(), ids=[s[0] for s in _fault_scenarios()])
    def test_all_sinks(self, tmp_path, name, graph, factory, sched,
                       model):
        # Reference counts from an untelemetered full-trace run.
        _, ref = _run(graph, factory, sched, model, make_sink("full"))
        for sink_name, sink_cls in _sink_factories(tmp_path, name):
            telemetry = Telemetry()
            sim, result = _run(graph, factory, sched, model,
                               sink_cls(), telemetry=telemetry)
            counters = telemetry.counters
            for counter, kind in COUNTER_KINDS.items():
                assert counters[counter] == \
                    ref.trace.count_of_kind(kind), (sink_name, counter)
            assert counters["events_processed"] == \
                result.events_processed == ref.events_processed
            # Engine heap accounting must balance: every pushed entry
            # was popped or is still pending.
            assert counters["events_popped"] <= counters["events_pushed"]

    @given(n=st.integers(3, 7), seed=st.integers(0, 50),
           fault=st.sampled_from(["none", "crash", "omission",
                                  "byzantine"]))
    @settings(**SETTINGS)
    def test_property_counters_and_byte_identity(self, n, seed, fault):
        graph = clique(n)
        factory = _wpaxos_factory(graph)
        sched = lambda: RandomDelayScheduler(1.0, seed=seed)
        models = {
            "none": lambda: None,
            "crash": lambda: CrashFaultModel([CrashPlan(0, 1.5)]),
            "omission": lambda: OmissionFaultModel([
                OmissionPlan(node=n - 1, send=True, start=1.0)]),
            "byzantine": lambda: ByzantineFaultModel([
                ByzantinePlan(node=n - 1, strategy=CorruptStrategy(),
                              seed=seed)]),
        }
        model = models[fault]
        telemetry = Telemetry()
        _, plain = _run(graph, factory, sched, model, make_sink("full"))
        _, telem = _run(graph, factory, sched, model,
                        make_sink("full"), telemetry=telemetry)
        # Byte-identity: telemetry must not perturb the trace.
        assert trace_to_json(telem.trace) == trace_to_json(plain.trace)
        for counter, kind in COUNTER_KINDS.items():
            assert telemetry.counters[counter] == \
                plain.trace.count_of_kind(kind), counter
        # Live spans == spans replayed from the records.
        samples, _ = derive_spans(telem.trace)
        assert summarize_samples(samples["f_ack"]) == \
            summarize_samples(telemetry.f_ack)
        assert summarize_samples(samples["f_prog"]) == \
            summarize_samples(telemetry.f_prog)


class TestByteIdentityOnDisk:
    """Exports of a FULL trace and of a ColumnarSink are each
    byte-identical with telemetry on/off."""

    @pytest.mark.parametrize("fmt", ["full", "columnar"])
    def test_export_bytes(self, tmp_path, fmt):
        graph = clique(6)
        paths = []
        for tag in ("off", "on"):
            sink = (make_sink("full") if fmt == "full" else
                    ColumnarSink(str(tmp_path / f"{fmt}-{tag}"),
                                 chunk_records=128))
            telemetry = Telemetry() if tag == "on" else None
            _run(graph, _wpaxos_factory(graph),
                 lambda: RandomDelayScheduler(1.0, seed=9),
                 lambda: None, sink, telemetry=telemetry)
            out = tmp_path / f"{fmt}-{tag}.trace"
            save_trace(sink, str(out))
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestHistogramIdentity:
    """Live telemetry, the vectorized columnar derivation and the
    record-stream derivation of one seeded run summarize F_ack/F_prog
    identically."""

    def _seeded_run(self, sink, telemetry=None):
        graph = clique(8)
        return _run(graph, _wpaxos_factory(graph),
                    lambda: RandomDelayScheduler(1.0, seed=3),
                    lambda: None, sink, telemetry=telemetry)

    def test_live_vs_jsonl_vs_columnar(self, tmp_path):
        # Three span sets on the FULL trace's export: live, derived
        # from the columns, and derived from the record stream.
        telemetry = Telemetry()
        _, result = self._seeded_run(make_sink("full"), telemetry)
        live = telemetry.snapshot()["spans"]
        assert live["f_ack"]["count"] > 0
        assert live["f_prog"]["count"] > 0

        path = str(tmp_path / "run.trace")
        save_trace(result.trace, path)
        derived = stats_from_file(path, derive=True)
        assert derived["source"] == ("derived-columnar" if have_numpy()
                                     else "derived-columnar-stream")
        assert derived["spans"] == live
        samples, _ = derive_spans(iter_saved_records(path))
        assert {name: summarize_samples(values)
                for name, values in samples.items()} == live

    def test_embedded_snapshot_preferred(self, tmp_path):
        telemetry = Telemetry(label="pinned")
        _, result = self._seeded_run(make_sink("full"), telemetry)
        path = str(tmp_path / "embedded.trace")
        save_trace(result.trace, path,
                   metadata={"telemetry": telemetry.snapshot()})
        doc = stats_from_file(path)
        assert doc["source"] == "embedded-telemetry"
        assert doc["label"] == "pinned"
        assert doc["spans"] == telemetry.snapshot()["spans"]
        # --derive bypasses the embedded snapshot and must agree.
        rederived = stats_from_file(path, derive=True)
        assert rederived["spans"] == doc["spans"]

    def test_render_stats_smoke(self, tmp_path):
        from repro.analysis.stats_report import _doc_from_snapshot
        telemetry = Telemetry(label="render")
        self._seeded_run(make_sink("full"), telemetry)
        text = render_stats(_doc_from_snapshot(
            telemetry.snapshot(), "<live>", "telemetry"))
        assert "f_ack" in text
        assert "broadcasts_opened" in text


class TestRegistryGuards:
    """Every registered trace kind must have a columnar kind code, a
    span-derivation rule and a counter mapping -- adding a kind
    without extending the observability layer fails here."""

    def test_span_rules_cover_all_kinds(self):
        assert set(SPAN_RULES) == set(TRACE_KINDS)

    def test_columnar_codes_cover_all_kinds(self):
        assert set(KIND_CODES) == set(TRACE_KINDS)

    def test_counter_mapping_covers_all_kinds(self):
        assert set(KIND_TO_COUNTER) == set(TRACE_KINDS)
        assert set(COUNTER_KINDS) == set(KIND_TO_COUNTER.values())


class TestAbortSnapshot:
    """Engine-raised exceptions flush a partial snapshot (satellite:
    SpillBudgetError post-mortems keep their telemetry)."""

    def test_spill_budget_abort(self, tmp_path):
        out_path = str(tmp_path / "abort.json")
        telemetry = Telemetry(label="budget", out_path=out_path)
        graph = clique(8)
        sink = ColumnarSink(str(tmp_path / "sp"), chunk_records=64,
                            max_bytes=1_000)
        sim = build_simulation(
            graph, _wpaxos_factory(graph), SynchronousScheduler(1.0),
            trace_sink=sink, telemetry=telemetry)
        with pytest.raises(SpillBudgetError):
            sim.run(max_events=500_000, max_time=500.0)
        assert telemetry.aborted
        assert "SpillBudgetError" in telemetry.error
        # Counters were harvested from the partial state...
        assert telemetry.counters["broadcasts_opened"] > 0
        # ...and the snapshot reached disk without caller involvement.
        doc = json.load(open(out_path, encoding="utf-8"))
        assert doc["aborted"] is True
        assert doc["counters"]["events_processed"] == \
            telemetry.events_processed
        # `repro stats` reads the post-mortem artifact.
        stats = stats_from_file(out_path)
        assert stats["source"] == "telemetry"
        assert stats["aborted"] is True

    def test_crashing_handler_abort(self):
        class Bomb(TwoPhaseConsensus):
            def on_receive(self, message):
                raise RuntimeError("handler bomb")

        telemetry = Telemetry()
        graph = clique(4)
        sim = build_simulation(
            graph, lambda v: Bomb(v + 1, v % 2),
            SynchronousScheduler(1.0), telemetry=telemetry)
        with pytest.raises(RuntimeError):
            sim.run(max_events=10_000, max_time=50.0)
        assert telemetry.aborted
        assert "handler bomb" in telemetry.error


class TestResumableRuns:
    """Slicing a run into max_events resumptions (a heartbeat loop
    over a long run) is telemetry- and trace-identical to one run."""

    def test_sliced_equals_single(self):
        graph = clique(6)

        def build(telemetry):
            return build_simulation(
                graph, _wpaxos_factory(graph),
                RandomDelayScheduler(1.0, seed=7), telemetry=telemetry)

        tel_one = Telemetry()
        sim_one = build(tel_one)
        result_one = sim_one.run(max_events=100_000, max_time=100.0)

        tel_sliced = Telemetry()
        sim_sliced = build(tel_sliced)
        total = 0
        while True:
            result = sim_sliced.run(max_events=25, max_time=100.0)
            total += result.events_processed
            if result.stop_reason != "max_events":
                break
        assert total == result_one.events_processed
        assert tel_sliced.events_processed == tel_one.events_processed
        assert tel_sliced.counters == tel_one.counters
        assert list(tel_sliced.f_ack) == list(tel_one.f_ack)
        assert trace_to_json(sim_sliced.trace) == \
            trace_to_json(sim_one.trace)


class TestPhaseProfiler:
    def test_phases_attributed(self):
        telemetry = Telemetry()
        graph = clique(6)
        sim = build_simulation(
            graph, _wpaxos_factory(graph), SynchronousScheduler(1.0),
            fault_model=OmissionFaultModel([
                OmissionPlan(node=0, send=False, receive=True,
                             start=2.0)]),
            validate_plans=True, telemetry=telemetry)
        sim.run(max_events=100_000, max_time=100.0)
        snapshot = telemetry.snapshot()
        opened = telemetry.counters["broadcasts_opened"]
        assert snapshot["phases"]["scheduler_plan"]["calls"] == opened
        assert snapshot["phases"]["plan_validate"]["calls"] == opened
        # Each planned drop is counted once, when it is planned.
        assert telemetry.fault_injections == \
            sim.trace.count_of_kind("drop") > 0
        assert snapshot["wall_seconds"] > 0.0
        assert snapshot["phase_residual_seconds"] >= 0.0
        assert set(snapshot["phases"]) == set(PHASES)

    def test_disabled_fast_path_untouched(self):
        graph = clique(4)
        sim = build_simulation(graph, _wpaxos_factory(graph),
                               SynchronousScheduler(1.0))
        assert sim.telemetry is None
        assert sim._tel_spans is None
        result = sim.run(max_events=50_000, max_time=50.0)
        assert result.all_decided


class TestRunnerAndScenario:
    def test_run_consensus_attaches_snapshot(self):
        graph = clique(5)
        uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
        metrics = run_consensus(
            algorithm="wpaxos", topology="clique(5)", graph=graph,
            scheduler=SynchronousScheduler(1.0),
            factory=lambda v, val: WPaxosNode(uid[v], val, graph.n,
                                              WPaxosConfig()),
            telemetry=True)
        snap = metrics.extras["telemetry"]
        assert snap["schema"] == "telemetry/v1"
        assert snap["context"]["algorithm"] == "wpaxos"
        assert snap["context"]["scheduler"] == "SynchronousScheduler"
        assert snap["counters"]["decisions"] == 5
        assert snap["spans"]["f_ack"]["count"] > 0

    def test_scenario_field_round_trip(self):
        scenario = Scenario(algorithm=AlgorithmSpec("wpaxos"),
                            topology=TopologySpec("clique", n=5),
                            telemetry=True)
        data = scenario.to_dict()
        assert data["telemetry"] is True
        assert Scenario.from_dict(data).telemetry is True

    def test_scenario_field_omitted_when_off(self):
        scenario = Scenario(algorithm=AlgorithmSpec("wpaxos"),
                            topology=TopologySpec("clique", n=5))
        assert "telemetry" not in scenario.to_dict()
        assert Scenario.from_dict(scenario.to_dict()).telemetry is False


class TestCliStats:
    def test_run_telemetry_flag_and_stats(self, tmp_path, capsys):
        tel_path = str(tmp_path / "tel.json")
        trace_path = str(tmp_path / "run.trace")
        code = cli_main(["run", "--algorithm", "wpaxos",
                         "--topology", "clique:6",
                         "--scheduler", "random", "--seed", "5",
                         "--telemetry", tel_path,
                         "--trace-out", trace_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert os.path.exists(tel_path)

        assert cli_main(["stats", tel_path]) == 0
        live = capsys.readouterr().out
        assert "f_ack" in live

        assert cli_main(["stats", trace_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "embedded-telemetry"

        assert cli_main(["stats", trace_path, "--derive",
                         "--json"]) == 0
        derived = json.loads(capsys.readouterr().out)
        assert derived["spans"] == doc["spans"]

    def test_stats_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all\n")
        with pytest.raises(SystemExit):
            cli_main(["stats", str(bad)])


class TestSweepProgress:
    def _build(self, graph):
        uid = {v: i + 1 for i, v in enumerate(graph.nodes)}

        def factory(v, val):
            return WPaxosNode(uid[v], val, graph.n, WPaxosConfig())

        return lambda key: dict(graph=graph,
                                scheduler=SynchronousScheduler(1.0),
                                factory=factory)

    def test_heartbeat_lines(self):
        stream = io.StringIO()
        reporter = SweepProgress("unit", total=3, stream=stream)
        reporter.point_done(4, 0.01)
        reporter.point_done((9, 1), 0.02)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[sweep unit] 1/3 key=4 ")
        assert "eta" in lines[0]
        assert "key=(9, 1)" in lines[1]

    def test_straggler_flagging(self):
        stream = io.StringIO()
        reporter = SweepProgress("unit", total=6, stream=stream)
        for _ in range(4):
            reporter.point_done("fast", 0.05)
        assert not reporter.stragglers
        # 4x the median AND above the absolute floor: flagged.
        reporter.point_done("slow", 5.0)
        assert reporter.stragglers == ["slow"]
        assert "** straggler" in stream.getvalue()

    def test_straggler_needs_minimum_runtime(self):
        reporter = SweepProgress("unit", total=9,
                                 stream=io.StringIO())
        for _ in range(5):
            reporter.point_done("fast", 0.001)
        # 100x the median but under STRAGGLER_MIN_SECONDS: jitter.
        reporter.point_done("jitter", 0.1)
        assert not reporter.stragglers

    def test_sweep_progress_does_not_perturb_results(self, capsys):
        graph = clique(4)
        silent = sweep("tel", [1, 2], self._build(graph),
                       progress=False)
        loud = sweep("tel", [1, 2], self._build(graph), progress=True)
        err = capsys.readouterr().err
        assert "[sweep tel] 1/2" in err
        assert "[sweep tel] 2/2" in err
        assert silent.xs == loud.xs
        assert [p.metrics.last_decision for p in silent.points] == \
            [p.metrics.last_decision for p in loud.points]

    def test_env_toggle(self, capsys, monkeypatch):
        graph = clique(4)
        monkeypatch.setenv("MACSIM_SWEEP_PROGRESS", "1")
        sweep("envtel", [1], self._build(graph))
        assert "[sweep envtel] 1/1" in capsys.readouterr().err


class TestSummaryPrimitives:
    def test_quantiles(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert quantile(data, 0.0) == 1.0
        assert quantile(data, 1.0) == 4.0
        assert quantile(data, 0.5) == 2.5
        assert quantile([7.0], 0.95) == 7.0

    def test_summaries_order_insensitive(self):
        forward = summarize_samples([3.0, 1.0, 2.0, 8.0, 5.0])
        backward = summarize_samples([5.0, 8.0, 2.0, 1.0, 3.0])
        assert forward == backward
        assert forward["count"] == 5
        assert forward["min"] == 1.0 and forward["max"] == 8.0

    def test_empty_summary(self):
        empty = summarize_samples([])
        assert empty["count"] == 0
        assert empty["p50"] is None
