"""Consensus-as-a-service tests (PR 9).

The load-bearing contracts:

* **Byte-identity** -- a 1-group :class:`GroupRuntime` run produces
  the *same bytes* as the scenario's own ``simulate()``: identical
  trace records across FULL / COLUMNAR sinks, identical
  decisions, times and event counts (pinned by a hypothesis property
  over scenario parameters).
* **Multiplexing is invisible** -- K groups under one runtime decide
  exactly what K standalone runs decide, and finished runs are handed
  out in ``(finish_time, registration order)``.
* **Sharding is exact** -- a forked :class:`ShardedService` run equals
  the serial run on everything but wall-clock fields, and a worker
  that dies once costs a retry, not a difference.
"""

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import trace_to_json, trace_to_records
from repro.cli import main
from repro.macsim.columnar import ColumnarSink
from repro.macsim.schedulers import SynchronousScheduler
from repro.macsim.service import (ConsensusService, GroupRuntime,
                                  RequestTracer, ShardedService,
                                  WorkloadGenerator, latency_summary,
                                  run_service,
                                  slot_scenario, slot_seed)
from repro.registry import SCHEDULERS
from repro.scenario import (AlgorithmSpec, Scenario, SchedulerSpec,
                            TopologySpec)

BASE = Scenario(
    algorithm=AlgorithmSpec("wpaxos"),
    topology=TopologySpec("clique", n=5),
    scheduler=SchedulerSpec("synchronous", f_ack=1.0),
    seed=0)


def _report_dict(report):
    """Report dict with the wall-clock-dependent fields stripped."""
    data = report.to_dict(include_latencies=True)
    data.pop("wall_seconds")
    data.pop("wall_throughput", None)
    if report.telemetry is not None:
        # Engine wall seconds are measured, not simulated.
        data["telemetry"]["totals"].pop("wall_seconds")
        for group in data["telemetry"]["groups"].values():
            group.pop("wall_seconds", None)
    return data


# ----------------------------------------------------------------------
# Tentpole: 1-group byte-identity with the standalone engine
# ----------------------------------------------------------------------
class TestSingleGroupIdentity:
    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(min_value=3, max_value=6),
           f_ack=st.sampled_from([0.5, 1.0, 2.0]),
           seed=st.integers(min_value=0, max_value=4),
           scheduler=st.sampled_from(["synchronous", "random"]))
    def test_byte_identity_property(self, n, f_ack, seed, scheduler):
        spec = (SchedulerSpec("random", f_ack=f_ack, seed=seed)
                if scheduler == "random"
                else SchedulerSpec("synchronous", f_ack=f_ack))
        scenario = BASE.override({
            "topology.n": n, "seed": seed, "scheduler": spec})
        standalone = scenario.simulate()
        runtime = GroupRuntime()
        runtime.add_group(scenario)
        (run,) = runtime.run()
        assert run.result.decisions == standalone.decisions
        assert run.result.decision_times == standalone.decision_times
        assert run.result.end_time == standalone.end_time
        assert run.result.events_processed == standalone.events_processed
        assert run.result.stop_reason == standalone.stop_reason
        assert (trace_to_json(run.result.trace)
                == trace_to_json(standalone.trace))

    def test_byte_identity_columnar_sink(self, tmp_path):
        reference = BASE.simulate()
        runtime = GroupRuntime()
        runtime.add_group(BASE, trace_sink=ColumnarSink(
            str(tmp_path / "svc"), chunk_records=64))
        (run,) = runtime.run()
        assert (trace_to_records(run.result.trace)
                == trace_to_records(reference.trace))

    def test_columnar_sink_reloads_to_the_same_stream(self, tmp_path):
        # The chunks a service group leaves on disk reopen to the
        # standalone run's record stream and decisions.
        reference = BASE.simulate()
        sink = ColumnarSink(str(tmp_path / "svc"), chunk_records=64)
        runtime = GroupRuntime()
        runtime.add_group(BASE, trace_sink=sink)
        runtime.run()
        sink.close()
        reopened = ColumnarSink.load(str(tmp_path / "svc"))
        assert len(reopened.chunk_paths()) > 1
        assert (trace_to_records(reopened)
                == trace_to_records(reference.trace))
        assert reopened.decision_times() == reference.decision_times


# ----------------------------------------------------------------------
# K groups under one runtime == K independent runs
# ----------------------------------------------------------------------
class TestMultiGroupEquivalence:
    SEEDS = (0, 1, 2)

    def test_interleaved_equals_standalone(self, tmp_path):
        scenarios = [BASE.override({"seed": seed,
                                    "topology.n": 4 + seed})
                     for seed in self.SEEDS]
        references = [scenario.simulate() for scenario in scenarios]
        sink_factories = [
            lambda gid: None,  # the scenario's own in-memory sink
            lambda gid: ColumnarSink(str(tmp_path / f"col{gid}"),
                                     chunk_records=64),
        ]
        for make_sink in sink_factories:
            runtime = GroupRuntime()
            for gid, scenario in enumerate(scenarios):
                runtime.add_group(scenario, group_id=gid,
                                  trace_sink=make_sink(gid))
            runs = {run.group_id: run for run in runtime.run()}
            assert sorted(runs) == list(range(len(scenarios)))
            for gid, standalone in enumerate(references):
                result = runs[gid].result
                assert result.decisions == standalone.decisions
                assert (result.decision_times
                        == standalone.decision_times)
                assert result.end_time == standalone.end_time
                assert (result.events_processed
                        == standalone.events_processed)
                assert result.stop_reason == standalone.stop_reason
                assert (trace_to_records(result.trace)
                        == trace_to_records(standalone.trace))

    def test_staggered_starts_offset_times(self):
        runtime = GroupRuntime()
        runtime.add_group(BASE, group_id="a")
        runtime.add_group(BASE, group_id="b", start_time=100.0)
        runs = {run.group_id: run for run in runtime.run()}
        assert (runs["b"].finish_time
                == pytest.approx(runs["a"].finish_time + 100.0))
        # Offsets shift global time only; local results are identical.
        assert (runs["a"].result.end_time
                == runs["b"].result.end_time)

    def test_advance_until_is_resumable(self):
        local = BASE.simulate().end_time
        runtime = GroupRuntime()
        # "tie-a"/"tie-b" finish at the same instant (same scenario,
        # same start): registration order must break the tie.
        runtime.add_group(BASE, group_id="late", start_time=10.0)
        runtime.add_group(BASE, group_id="tie-a", start_time=4.0)
        runtime.add_group(BASE, group_id="tie-b", start_time=4.0)
        runtime.add_group(BASE, group_id="early")
        assert runtime.next_time() == local
        assert runtime.advance(until=local - 0.5) == []
        handed_out = []
        for horizon in (local, local + 4.0, local + 9.0, local + 10.0,
                        local + 50.0):
            runs = runtime.advance(until=horizon)
            assert all(run.finish_time <= horizon for run in runs)
            pending = runtime.next_time()
            assert pending is None or pending > horizon
            handed_out.append([run.group_id for run in runs])
        assert handed_out == [["early"], ["tie-a", "tie-b"], [],
                              ["late"], []]
        assert runtime.active_groups == 0


# ----------------------------------------------------------------------
# Workload determinism
# ----------------------------------------------------------------------
class TestWorkload:
    def test_draws_are_deterministic(self):
        a = WorkloadGenerator(groups=4, clients=16, seed=7)
        b = WorkloadGenerator(groups=4, clients=16, seed=7)
        for client in range(16):
            assert a.client_group(client) == b.client_group(client)
            for request in range(3):
                assert (a.think_time(client, request)
                        == b.think_time(client, request))

    def test_group_partition_is_exact(self):
        workload = WorkloadGenerator(groups=6, clients=48, seed=3)
        shard_a = workload.clients_for_groups({0, 1, 2})
        shard_b = workload.clients_for_groups({3, 4, 5})
        assert sorted(shard_a + shard_b) == list(range(48))

    def test_zipf_skews_toward_group_zero(self):
        workload = WorkloadGenerator(groups=8, clients=400, seed=0,
                                     zipf_s=1.5)
        counts = [0] * 8
        for client in range(400):
            counts[workload.client_group(client)] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 400 // 8


# ----------------------------------------------------------------------
# Slot derivation
# ----------------------------------------------------------------------
class TestSlotDerivation:
    def test_slot_zero_of_group_zero_is_base(self):
        assert slot_seed(BASE.seed, 0, 0) == BASE.seed
        assert slot_scenario(BASE, 0, 0) is BASE

    def test_slots_get_distinct_seeds(self):
        seeds = {slot_seed(0, group, slot)
                 for group in range(4) for slot in range(8)}
        assert len(seeds) == 32


# ----------------------------------------------------------------------
# Serve loop and sharding
# ----------------------------------------------------------------------
class TestConsensusService:
    def test_first_slot_byte_identity(self):
        workload = WorkloadGenerator(groups=1, clients=8, seed=0)
        service = ConsensusService(BASE, workload,
                                   capture_first_slot=True)
        report = service.run()
        assert report.failed == 0
        assert (trace_to_json(service.first_slot_trace)
                == trace_to_json(BASE.simulate().trace))

    def test_report_is_deterministic(self):
        def once():
            workload = WorkloadGenerator(groups=3, clients=24, seed=1)
            return ConsensusService(BASE, workload,
                                    telemetry=True).run()
        assert _report_dict(once()) == _report_dict(once())

    def test_all_requests_commit(self):
        workload = WorkloadGenerator(groups=2, clients=20, seed=0,
                                     requests_per_client=2)
        report = ConsensusService(BASE, workload).run()
        assert report.requests == workload.total_requests()
        assert report.failed == 0
        assert len(report.latencies) == report.requests
        assert report.latency["count"] == report.requests
        assert all(lat > 0 for lat in report.latencies)

    def test_slots_run_their_slot_scenario(self):
        # The reseeded template executes exactly what slot_scenario
        # names: every slot is reproducible standalone from the seeds.
        base = BASE.override({
            "scheduler": SchedulerSpec("random", f_ack=1.0)})
        workload = WorkloadGenerator(groups=2, clients=10, seed=0,
                                     requests_per_client=2)
        tracer = RequestTracer()
        report = ConsensusService(base, workload, tracer=tracer).run()
        slots = {(r["group"], r["slot"]): r["reply"] - r["slot_start"]
                 for r in report.tracing["requests"]}
        assert len(slots) == report.slots > 2
        for (group, slot), duration in slots.items():
            standalone = slot_scenario(base, group, slot).simulate()
            assert duration == pytest.approx(standalone.end_time)

    def test_partly_decided_slot_fails_its_batch(self):
        # 140 events let exactly one of the five wPAXOS nodes decide.
        starved = BASE.override({"max_events": 140})
        partial = starved.simulate()
        assert len(partial.decisions) == 1
        assert partial.stop_reason == "max_events"
        workload = WorkloadGenerator(groups=2, clients=12, seed=0,
                                     requests_per_client=2)
        tracer = RequestTracer()
        report = ConsensusService(starved, workload,
                                  tracer=tracer).run()
        total = workload.total_requests()
        assert report.requests == 0
        assert report.failed == total
        assert report.latencies == []
        assert report.failure_reasons == {"max_events": total}
        assert report.to_dict()["failure_reasons"] == {
            "max_events": total}
        assert sum(g.failed for g in report.per_group.values()) == total
        spans = report.tracing["requests"]
        assert len(spans) == total
        assert all(not r["ok"] and r["stop_reason"] == "max_events"
                   for r in spans)

    def test_telemetry_attribution(self):
        workload = WorkloadGenerator(groups=2, clients=16, seed=0)
        report = ConsensusService(BASE, workload, telemetry=True).run()
        snapshot = report.telemetry
        assert snapshot["schema"] == "service-telemetry/v1"
        assert sorted(snapshot["groups"]) == ["0", "1"]
        totals = snapshot["totals"]
        assert totals["slots"] == report.slots
        assert totals["events_processed"] == report.events
        per_group = {gid: entry["events_processed"]
                     for gid, entry in snapshot["groups"].items()}
        assert sum(per_group.values()) == report.events


class TestShardedService:
    def test_sharded_equals_serial(self):
        workload = WorkloadGenerator(groups=5, clients=40, seed=2,
                                     requests_per_client=2)
        serial = ConsensusService(BASE, workload, telemetry=True).run()
        sharded = ShardedService(BASE, workload, shards=3,
                                 telemetry=True).run()
        serial_dict = _report_dict(serial)
        sharded_dict = _report_dict(sharded)
        # Shard rows and latency order differ by construction; the
        # multisets and every per-group stat must not.
        serial_dict.pop("shards", None)
        sharded_dict.pop("shards", None)
        assert sorted(serial_dict.pop("latencies")) == \
            sorted(sharded_dict.pop("latencies"))
        assert serial_dict == sharded_dict

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_failed_shard_stops_its_siblings(self, monkeypatch):
        def explode_on(f_ack=1.0, bad_seed=-1, seed=None):
            """Synchronous scheduler whose builder rejects one seed."""
            if seed == bad_seed:
                raise ValueError(f"no scheduler for seed {seed}")
            return SynchronousScheduler(f_ack)

        monkeypatch.setitem(SCHEDULERS._builders, "explode-on",
                            explode_on)
        # Enough work that the healthy worker is still serving when
        # the bad group reports.
        workload = WorkloadGenerator(groups=4, clients=64, seed=0,
                                     zipf_s=0.0,
                                     requests_per_client=200)
        # Group 0's first slot runs the base seed, which the template
        # itself resolves with; any other group's is distinct.
        bad_group = 2
        base = BASE.override({"scheduler": SchedulerSpec(
            "explode-on", bad_seed=slot_seed(BASE.seed, bad_group, 0))})
        service = ShardedService(base, workload, shards=2)
        with pytest.raises(RuntimeError) as failure:
            service.run()
        message = str(failure.value)
        assert f"service group {bad_group} failed" in message
        assert "no scheduler for seed" in message
        assert multiprocessing.active_children() == []

    @staticmethod
    def _kill_worker_serving(monkeypatch, group, marker=None):
        """The worker that serves ``group`` dies before reporting it:
        once when ``marker`` names a file to leave behind, else on
        every attempt."""
        run = ConsensusService.run

        def dying(service):
            if service.group_ids == [group] and not (
                    marker is not None and marker.exists()):
                if marker is not None:
                    marker.touch()
                os._exit(9)
            return run(service)

        monkeypatch.setattr(ConsensusService, "run", dying)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_dead_worker_costs_a_retry(self, monkeypatch, tmp_path):
        workload = WorkloadGenerator(groups=5, clients=40, seed=2,
                                     requests_per_client=2)
        clean = ShardedService(BASE, workload, shards=2,
                               telemetry=True).run()
        marker = tmp_path / "died"
        self._kill_worker_serving(monkeypatch, 3, marker)
        retried = ShardedService(BASE, workload, shards=2,
                                 telemetry=True).run()
        assert marker.exists()
        assert len(retried.shards) == 2
        clean_dict, retried_dict = (_report_dict(clean),
                                    _report_dict(retried))
        clean_dict.pop("shards")
        retried_dict.pop("shards")
        assert retried_dict == clean_dict
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_worker_dying_every_attempt_loses_its_group(
            self, monkeypatch):
        workload = WorkloadGenerator(groups=3, clients=30, seed=0,
                                     requests_per_client=2)
        clean = ShardedService(BASE, workload, shards=2).run()
        lost = workload.total_requests([0])
        assert lost > 0
        self._kill_worker_serving(monkeypatch, 0)
        report = ShardedService(BASE, workload, shards=2).run()
        assert report.failure_reasons == {"worker-lost": lost}
        assert report.failed == lost
        assert report.requests == clean.requests - lost
        assert report.per_group[0].failed == lost
        assert report.per_group[0].requests == 0
        assert {g: s.to_dict() for g, s in report.per_group.items()
                if g != 0} == {g: s.to_dict() for g, s
                               in clean.per_group.items() if g != 0}
        assert len(report.shards) == 2
        assert multiprocessing.active_children() == []

    def test_run_service_wrapper(self):
        report = run_service(BASE, groups=2, clients=12, shards=1,
                             requests_per_client=1)
        assert report.failed == 0
        assert report.requests == 12
        assert report.shards and report.shards[0]["groups"] == 2


# ----------------------------------------------------------------------
# Latency summary
# ----------------------------------------------------------------------
class TestLatencySummary:
    def test_nearest_rank_percentiles(self):
        latencies = [float(i) for i in range(1, 101)]
        summary = latency_summary(latencies)
        assert summary["count"] == 100
        assert summary["p50"] == 50.0
        assert summary["p99"] == 99.0
        assert summary["max"] == 100.0

    def test_empty(self):
        assert latency_summary([]) == {"count": 0}


# ----------------------------------------------------------------------
# CLI: repro serve / repro cache
# ----------------------------------------------------------------------
class TestServeCommand:
    def test_serve_smoke(self, capsys):
        code = main(["serve", "--groups", "2", "--clients", "16",
                     "--requests-per-client", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "latency:" in out
        assert "group 0:" in out
        assert "shard 0:" in out

    def test_serve_trace_out_replays(self, tmp_path, capsys):
        trace_path = str(tmp_path / "slot0.json")
        code = main(["serve", "--groups", "1", "--clients", "8",
                     "--trace-out", trace_path])
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out
        code = main(["replay", trace_path])
        assert code == 0
        assert "replay matched" in capsys.readouterr().out

    def test_serve_trace_out_needs_single_group(self):
        with pytest.raises(SystemExit):
            main(["serve", "--groups", "2", "--trace-out", "x.json"])

    def test_serve_json_and_telemetry_out(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        telemetry_path = tmp_path / "telemetry.json"
        code = main(["serve", "--groups", "2", "--clients", "12",
                     "--json-out", str(report_path),
                     "--telemetry", str(telemetry_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["failed"] == 0
        snapshot = json.loads(telemetry_path.read_text())
        assert snapshot["schema"] == "service-telemetry/v1"


class TestCacheCommand:
    def _populate(self, directory, cells=3):
        from repro.analysis.cache import ResultCache, cached_run
        cache = ResultCache(str(directory))
        for seed in range(cells):
            cached_run(BASE.override({"seed": seed,
                                      "topology.n": 4}), cache)
        return cache

    def test_stats(self, tmp_path, capsys):
        self._populate(tmp_path)
        code = main(["cache", "stats", "--cache", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "entries:         3" in out

    def test_stats_json(self, tmp_path, capsys):
        self._populate(tmp_path)
        code = main(["cache", "stats", "--cache", str(tmp_path),
                     "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["entries"] == 3
        assert data["bytes"] > 0

    def test_prune_to_budget(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        keep = max(len(open(p, "rb").read()) for p in cache.entries())
        code = main(["cache", "prune", "--cache", str(tmp_path),
                     "--max-bytes", str(keep)])
        assert code == 0
        assert "pruned" in capsys.readouterr().out
        assert len(cache.entries()) < 3

    def test_prune_requires_budget(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--cache", str(tmp_path)])

    def test_clear(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        code = main(["cache", "clear", "--cache", str(tmp_path)])
        assert code == 0
        assert "cleared 3" in capsys.readouterr().out
        assert cache.entries() == []

    def test_parse_bytes_suffixes(self):
        from repro.cli import _parse_bytes
        assert _parse_bytes("1024") == 1024
        assert _parse_bytes("4K") == 4096
        assert _parse_bytes("2M") == 2 * 1024 ** 2
        assert _parse_bytes("1G") == 1024 ** 3
