"""Request tracing & live service metrics tests (PR 10).

The load-bearing contracts:

* **Reconciliation** -- span-derived per-request latencies are the
  *same multiset* the service reported, so ``reduce_spans`` reproduces
  the exact p50/p99 (pinned by a hypothesis property over workload
  shape); per-group attribution matches the report's group stats.
* **Sharded == serial** -- span and metrics snapshots from a forked
  run equal the serial ones on everything but shard attribution and
  wall-clock scheduler profiles.
* **No-op when off** -- ``repro serve --json-out`` reports are
  identical with tracing on vs off, wall-clock fields aside (the
  tracer only annotates).
* **Surfaces agree** -- `repro stats` renders spans, metrics and
  service-telemetry artifacts and serve reports, the windowed series
  of each through one table; unsupported artifacts fail naming the
  expected schemas.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.service_stats import (SERVICE_STATS_SCHEMA,
                                          is_serve_report,
                                          metrics_from_spans,
                                          reduce_metrics, reduce_spans,
                                          reduce_service_telemetry,
                                          render_service_stats,
                                          service_doc)
from repro.analysis.sweeps import flag_stragglers
from repro.cli import main
from repro.macsim.service import (METRICS_SCHEMA, SPAN_SCHEMA,
                                  SPAN_STAGES, ConsensusService,
                                  MetricsRegistry, RequestTracer,
                                  ShardedService, WorkloadGenerator,
                                  latency_summary, run_service)
from repro.scenario import (AlgorithmSpec, Scenario, SchedulerSpec,
                            TopologySpec)

BASE = Scenario(
    algorithm=AlgorithmSpec("wpaxos"),
    topology=TopologySpec("clique", n=5),
    scheduler=SchedulerSpec("synchronous", f_ack=1.0),
    seed=0)


def _strip_shard(spans_doc):
    """Span records minus the per-shard attribution stamp."""
    return [{k: v for k, v in record.items() if k != "shard"}
            for record in spans_doc["requests"]]


def _metrics_identity_view(doc):
    """Metrics snapshot minus shard bookkeeping and counters (whose
    engine breakdown legitimately differs across shard layouts)."""
    return {k: v for k, v in doc.items()
            if k not in ("shards", "capacity", "counters")}


# ----------------------------------------------------------------------
# Tentpole: spans reconcile exactly with the service report
# ----------------------------------------------------------------------
class TestSpanReconciliation:
    @settings(max_examples=8, deadline=None)
    @given(groups=st.integers(min_value=1, max_value=4),
           clients=st.integers(min_value=4, max_value=24),
           seed=st.integers(min_value=0, max_value=3))
    def test_latency_reconciles_exactly(self, groups, clients, seed):
        workload = WorkloadGenerator(groups=groups, clients=clients,
                                     seed=seed,
                                     requests_per_client=2)
        tracer = RequestTracer()
        report = ConsensusService(BASE, workload,
                                  tracer=tracer).run()
        reduced = reduce_spans(report.tracing)
        # Same multiset of latencies through the same summary: the
        # reported p50/p99 reproduce exactly, not approximately.
        spans = report.tracing["requests"]
        assert len(spans) == report.requests + report.failed
        derived = sorted(r["reply"] - r["enqueue"] for r in spans
                         if r["ok"])
        assert derived == sorted(report.latencies)
        assert reduced["latency"] == report.latency
        assert reduced["breakdown"]["total"] == report.latency
        # Per-group attribution matches the report's group stats.
        for gid, stats in report.per_group.items():
            entry = reduced["per_group"].get(str(gid))
            if entry is None:
                # Zipf draw sent no client there: no spans either.
                assert stats.requests == 0 and stats.failed == 0
                continue
            assert entry["requests"] == stats.requests
            assert entry["failed"] == stats.failed
            assert entry["slots"] == stats.slots

    def test_span_stages_ordered(self):
        workload = WorkloadGenerator(groups=2, clients=12, seed=1)
        tracer = RequestTracer()
        ConsensusService(BASE, workload, tracer=tracer).run()
        doc = tracer.snapshot()
        assert doc["schema"] == SPAN_SCHEMA
        assert tuple(doc["stages"]) == SPAN_STAGES
        for record in doc["requests"]:
            assert (record["enqueue"] <= record["batch_admit"]
                    <= record["slot_start"] <= record["decide"]
                    <= record["reply"])

    def test_breakdown_components_sum(self):
        workload = WorkloadGenerator(groups=2, clients=16, seed=0)
        tracer = RequestTracer()
        report = ConsensusService(BASE, workload, tracer=tracer).run()
        for record in report.tracing["requests"]:
            queueing = record["batch_admit"] - record["enqueue"]
            service = record["reply"] - record["batch_admit"]
            total = record["reply"] - record["enqueue"]
            assert queueing + service == pytest.approx(total)

    def test_scheduler_profile_present(self):
        workload = WorkloadGenerator(groups=3, clients=12, seed=0)
        tracer = RequestTracer()
        report = ConsensusService(BASE, workload, tracer=tracer).run()
        totals = report.tracing["scheduler"]["totals"]
        assert totals["advance_calls"] > 0
        assert totals["advance_seconds"] >= 0.0
        # Exactly one engine call per slot, none outside it.
        assert totals["engine_slices"] == report.slots
        assert totals["engine_seconds"] > 0.0
        assert "startup_slices" not in totals
        assert totals["overhead_seconds"] >= 0.0
        assert 0.0 <= totals["overhead_fraction"] < 1.0


# ----------------------------------------------------------------------
# Tentpole: sharded == serial, modulo shard stamps and wall clock
# ----------------------------------------------------------------------
class TestShardedTracingIdentity:
    def test_spans_and_metrics_identical(self):
        workload = WorkloadGenerator(groups=5, clients=40, seed=2,
                                     requests_per_client=2)
        serial = ShardedService(BASE, workload, shards=1,
                                trace_requests=True,
                                metrics_window=50.0).run()
        sharded = ShardedService(BASE, workload, shards=3,
                                 trace_requests=True,
                                 metrics_window=50.0).run()
        assert _strip_shard(serial.tracing) \
            == _strip_shard(sharded.tracing)
        assert _metrics_identity_view(serial.metrics) \
            == _metrics_identity_view(sharded.metrics)

    def test_merged_scheduler_totals(self):
        workload = WorkloadGenerator(groups=4, clients=24, seed=0)
        report = ShardedService(BASE, workload, shards=2,
                                trace_requests=True).run()
        sched = report.tracing["scheduler"]
        # One profile per worker that served a group: which worker
        # serves which group varies from run to run.
        assert set(sched["shards"]) == {
            str(row["shard"]) for row in report.shards if row["groups"]}
        # A worker's profiles add up over the groups it served.
        assert sched["totals"]["engine_slices"] == report.slots
        summed = sum(prof["advance_seconds"]
                     for prof in sched["shards"].values())
        assert sched["totals"]["advance_seconds"] \
            == pytest.approx(summed)


# ----------------------------------------------------------------------
# Tentpole: tracing off is a no-op (byte-identity through the CLI)
# ----------------------------------------------------------------------
class TestTracingIsNoOp:
    def test_serve_report_unaffected(self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        spans = tmp_path / "spans.json"
        code = main(["serve", "--groups", "1", "--clients", "8",
                     "--json-out", str(plain)])
        assert code == 0
        code = main(["serve", "--groups", "1", "--clients", "8",
                     "--json-out", str(traced),
                     "--trace-requests", str(spans)])
        assert code == 0
        capsys.readouterr()
        reports = [json.loads(path.read_text())
                   for path in (plain, traced)]
        assert "tracing" in reports[1]
        for report in reports:
            for key in ("wall_seconds", "wall_throughput", "tracing",
                        "shards"):
                report.pop(key, None)
        assert reports[0] == reports[1]
        assert json.loads(spans.read_text())["schema"] == SPAN_SCHEMA

    def test_report_results_unaffected(self):
        workload = WorkloadGenerator(groups=3, clients=24, seed=1)
        plain = ConsensusService(BASE, workload).run()
        traced = run_service(BASE, groups=3, clients=24, seed=1,
                             trace_requests=True, metrics_window=25.0)
        assert sorted(plain.latencies) == sorted(traced.latencies)
        assert plain.latency == traced.latency
        assert plain.slots == traced.slots
        assert plain.events == traced.events


# ----------------------------------------------------------------------
# MetricsRegistry unit behavior
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_windows_and_in_flight(self):
        reg = MetricsRegistry(window=10.0)
        reg.record_arrival(1.0, 0)
        reg.record_arrival(2.0, 1)
        reg.record_commit(12.0, 0, 11.0)
        doc = reg.snapshot()
        assert doc["schema"] == METRICS_SCHEMA
        assert [w["start"] for w in doc["windows"]] == [0.0, 10.0]
        assert doc["windows"][0]["in_flight"] == 2
        assert doc["windows"][1]["in_flight"] == 1
        assert doc["totals"] == {"arrivals": 2, "commits": 1,
                                 "failed": 0, "in_flight_final": 1}

    def test_eviction_keeps_totals_exact(self):
        reg = MetricsRegistry(window=1.0, capacity=4)
        for t in range(10):
            reg.record_arrival(float(t), 0)
            reg.record_commit(float(t) + 0.5, 0, 0.5)
        doc = reg.snapshot()
        assert doc["dropped_windows"] == 6
        assert len(doc["windows"]) == 4
        assert doc["totals"]["arrivals"] == 10
        assert doc["totals"]["in_flight_final"] == 0
        assert doc["windows"][-1]["in_flight"] == 0

    def test_merge_requires_same_window(self):
        a = MetricsRegistry(window=10.0).snapshot()
        b = MetricsRegistry(window=20.0).snapshot()
        with pytest.raises(ValueError):
            MetricsRegistry.merge_snapshots([a, b])

    def test_merge_is_exact(self):
        a = MetricsRegistry(window=10.0, shard=0)
        b = MetricsRegistry(window=10.0, shard=1)
        whole = MetricsRegistry(window=10.0)
        for t, group, registry in ((1.0, 0, a), (3.0, 1, b),
                                   (11.0, 0, a), (13.0, 1, b)):
            registry.record_arrival(t, group)
            registry.record_commit(t + 2.0, group, 2.0)
            whole.record_arrival(t, group)
            whole.record_commit(t + 2.0, group, 2.0)
        merged = MetricsRegistry.merge_snapshots(
            [a.snapshot(), b.snapshot()])
        assert _metrics_identity_view(merged) \
            == _metrics_identity_view(whole.snapshot())
        assert merged["shards"] == [0, 1]


# ----------------------------------------------------------------------
# Surfaces: repro stats
# ----------------------------------------------------------------------
class TestStatsSurfaces:
    def _artifacts(self, tmp_path, capsys):
        spans = tmp_path / "spans.json"
        metrics = tmp_path / "metrics.json"
        telemetry = tmp_path / "telemetry.json"
        report = tmp_path / "report.json"
        code = main(["serve", "--groups", "3", "--clients", "18",
                     "--shards", "2",
                     "--trace-requests", str(spans),
                     "--metrics-out", str(metrics),
                     "--telemetry", str(telemetry),
                     "--json-out", str(report)])
        assert code == 0
        capsys.readouterr()
        return spans, metrics, telemetry, report

    def test_stats_renders_all_service_artifacts(self, tmp_path,
                                                 capsys):
        spans, metrics, telemetry, _ = self._artifacts(tmp_path,
                                                       capsys)
        assert main(["stats", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "queueing" in out and "per-group" in out
        assert main(["stats", str(metrics)]) == 0
        assert "window" in capsys.readouterr().out
        assert main(["stats", str(telemetry)]) == 0
        assert "group" in capsys.readouterr().out

    def test_stats_consistent_across_surfaces(self, tmp_path, capsys):
        spans, metrics, telemetry, report = self._artifacts(tmp_path,
                                                            capsys)
        spans_doc = json.loads(spans.read_text())
        metrics_doc = json.loads(metrics.read_text())
        report_doc = json.loads(report.read_text())
        reduced = reduce_spans(spans_doc)
        assert reduced["requests"] == report_doc["requests"]
        assert reduced["latency"]["p50"] \
            == report_doc["latency"]["p50"]
        assert reduced["latency"]["p99"] \
            == report_doc["latency"]["p99"]
        totals = metrics_doc["totals"]
        assert totals["commits"] == report_doc["requests"]
        metric_groups = reduce_metrics(metrics_doc)["groups"]
        for gid, cell in reduced["per_group"].items():
            assert metric_groups[gid]["commits"] == cell["requests"], gid
        tel_reduced = reduce_service_telemetry(
            json.loads(telemetry.read_text()))
        assert sorted(tel_reduced["groups"]) \
            == sorted(reduced["per_group"])
        for gid, entry in tel_reduced["groups"].items():
            assert entry["slots"] \
                == reduced["per_group"][gid]["slots"]

    def test_stats_unsupported_names_schemas(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "nope/v1"}))
        with pytest.raises(SystemExit) as err:
            main(["stats", str(bogus)])
        message = str(err.value)
        assert "service-spans/v1" in message
        assert "service-metrics/v1" in message
        assert "service-telemetry/v1" in message

    def test_stats_renders_windowed_series_of_each_artifact(
            self, tmp_path, capsys):
        spans, metrics, _, report = self._artifacts(tmp_path, capsys)
        for path in (metrics, spans, report):
            assert main(["stats", str(path)]) == 0
            out = capsys.readouterr().out
            assert "time series" in out
            assert "per-group totals" in out
            assert ("per-shard" in out) == (path == report)
        report_doc = json.loads(report.read_text())
        for key in ("metrics", "tracing"):
            report_doc.pop(key, None)
        report.write_text(json.dumps(report_doc))
        with pytest.raises(SystemExit, match="not a stats-able"):
            main(["stats", str(report)])

    def test_closed_stdout_exits_quietly(self, tmp_path, capsys):
        spans, _, _, _ = self._artifacts(tmp_path, capsys)
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before any write
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "stats", str(spans)],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120)
        finally:
            os.close(write_end)
        assert result.returncode == 0
        assert b"Traceback" not in result.stderr
        assert b"BrokenPipeError" not in result.stderr

    def test_spans_replay_through_registry(self, tmp_path, capsys):
        spans, _, _, report = self._artifacts(tmp_path, capsys)
        doc = metrics_from_spans(json.loads(spans.read_text()))
        report_doc = json.loads(report.read_text())
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["totals"]["commits"] == report_doc["requests"]

    def test_spans_replay_windows_and_failures(self):
        doc = metrics_from_spans({"schema": SPAN_SCHEMA, "requests": [
            {"group": 0, "enqueue": 0.0, "reply": 4.0, "ok": True},
            {"group": 1, "enqueue": 10.0, "reply": 60.0, "ok": False},
            {"group": 0, "enqueue": 55.0, "reply": 70.0, "ok": True},
        ]})
        assert doc["window"] == 50.0
        assert doc["totals"]["arrivals"] == 3
        assert doc["totals"]["commits"] == 2
        assert doc["totals"]["failed"] == 1
        assert [(w["start"], w["arrivals"], w["commits"])
                for w in doc["windows"]] == [(0.0, 2, 1), (50.0, 1, 1)]
        assert doc["windows"][1]["latencies"] == [15.0]
        assert doc["groups"]["0"]["commits"] == 2
        assert doc["groups"]["1"]["commits"] == 0
        assert doc["groups"]["1"]["failed"] == 1

    def test_is_serve_report(self):
        assert is_serve_report({"requests": 3, "metrics": {}})
        assert not is_serve_report({"requests": 3})
        assert not is_serve_report({"schema": METRICS_SCHEMA,
                                    "metrics": {}})
        assert not is_serve_report({"metrics": None})
        assert not is_serve_report([{"metrics": {}}])

    def test_report_doc_carries_shard_rows(self, tmp_path, capsys):
        _, _, _, report = self._artifacts(tmp_path, capsys)
        report_doc = json.loads(report.read_text())
        doc = service_doc(report_doc, str(report))
        assert doc["kind"] == "metrics"
        assert doc["source"] == str(report)
        assert doc["shards"] == [0, 1]
        assert doc["shard_rows"] == report_doc["shards"]
        assert sum(row["requests"] for row in doc["shard_rows"]) \
            == report_doc["requests"]
        assert doc["totals"]["commits"] == report_doc["requests"]
        out = render_service_stats(doc)
        assert "shards: 0,1" in out
        for row in report_doc["shards"]:
            assert str(row["requests"]) in out

    def test_group_share_column(self):
        reg = MetricsRegistry(window=10.0)
        for t, group in ((1.0, 0), (2.0, 0), (3.0, 0), (4.0, 1)):
            reg.record_arrival(t, group)
            reg.record_commit(t + 1.0, group, 1.0)
        doc = service_doc(reg.snapshot(), "m.json")
        out = render_service_stats(doc)
        assert "75.0%" in out
        assert "25.0%" in out
        empty = service_doc(MetricsRegistry(window=10.0).snapshot())
        assert "commits: 0" in render_service_stats(empty)


# ----------------------------------------------------------------------
# Satellite: sweep stragglers surface in summaries
# ----------------------------------------------------------------------
class TestFlagStragglers:
    def test_flags_above_factor_and_floor(self):
        runtimes = [("a", 0.1), ("b", 0.1), ("c", 0.1), ("d", 0.1),
                    ("slow", 3.0)]
        assert flag_stragglers(runtimes) == ["slow"]

    def test_small_samples_never_flag(self):
        assert flag_stragglers([("only", 100.0)]) == []
        assert flag_stragglers([("a", 0.1), ("b", 9.9),
                                ("c", 0.1)]) == []

    def test_fast_outliers_below_floor_never_flag(self):
        runtimes = [("a", 0.01), ("b", 0.01), ("c", 0.01),
                    ("d", 0.01), ("e", 0.3)]
        assert flag_stragglers(runtimes) == []
