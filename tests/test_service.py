"""Consensus-as-a-service tests (PR 9).

The load-bearing contracts:

* **A group is a checked log** -- every slot of a group runs on the
  group's one long-lived replicated log and commits at its first
  commit; a slot that misses its budget fails its batch under a named
  reason, and the group goes on with a fresh log. A replica that holds
  another entry than the slot's batch of request ids is an agreement
  violation, reported once, and no committed request is taken back.
* **Multiplexing is invisible** -- groups under one runtime commit
  exactly what each commits alone, and finished slots are handed out
  in ``(finish_time, registration order)``.
* **Sharding is exact** -- a forked :class:`ShardedService` run equals
  the serial run on everything but wall-clock fields, and a worker
  that dies once costs a retry, not a difference.
"""

import json
import multiprocessing
import os
import random
import time
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import trace_to_json, trace_to_records
from repro.apps import ReplicatedLogNode
from repro.cli import main
from repro.macsim import build_simulation, check_model_invariants
from repro.macsim.columnar import ColumnarSink
from repro.macsim.service import (ConsensusService, GroupRuntime,
                                  MetricsRegistry, RequestTracer,
                                  ShardedService, WorkloadGenerator,
                                  latency_summary, run_service)
from repro.macsim.service.runtime import _GroupLog
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


def _replicas(runtime, group):
    return list(runtime._logs[group].sim.processes.values())


def _forge_follower(monkeypatch):
    """Make replica uid 1, a follower, commit ``("forged",)`` in place
    of every value."""
    commit = ReplicatedLogNode._commit

    def forging(node, index, value):
        commit(node, index, ("forged",) if node.uid == 1 else value)

    monkeypatch.setattr(ReplicatedLogNode, "_commit", forging)


def _follower(log):
    """Replica uid 1 of a group's log."""
    (follower,) = [r for r in log.replicas.values() if r.uid == 1]
    return follower


def _serve_runs(monkeypatch):
    """Collect every slot a serve's runtime hands out."""
    runs = []
    advance = GroupRuntime.advance

    def collecting(runtime, until=None):
        finished = advance(runtime, until)
        runs.extend(finished)
        return finished

    monkeypatch.setattr(GroupRuntime, "advance", collecting)
    return runs


# ----------------------------------------------------------------------
# Tentpole: one long-lived, verified log per group
# ----------------------------------------------------------------------
class TestGroupLog:
    def test_slot_commits_its_command_on_every_replica(self):
        # The slot ends at its first commit, the leader's: it holds
        # the decide for the next slot's proposal, and the end-of-run
        # drain flushes it to every replica.
        runtime = GroupRuntime(BASE)
        runtime.add_group(("a",), group_id=0)
        (run,) = runtime.advance()
        assert run.failure is None
        assert run.result.stop_reason == "predicate"
        assert [replica.log for replica in _replicas(runtime, 0)] == [
            {}, {}, {}, {}, {0: ("a",)}]
        assert run.finish_time == run.result.end_time > 0
        ((group, events),) = runtime._drain()
        assert group == 0 and events > 0
        assert (runtime.violations, runtime.unlearned) == ([], 0)
        assert all(replica.log == {0: ("a",)}
                   for replica in _replicas(runtime, 0))

    def test_slots_reuse_one_log(self):
        runtime = GroupRuntime(BASE)
        runs, start = [], 0.0
        for slot in range(4):
            runtime.add_group(("c", slot), group_id=0, start_time=start)
            (run,) = runtime.advance()
            runs.append(run)
            start = run.finish_time + 0.5
        sim = runtime._logs[0].sim
        assert all(run.failure is None for run in runs)
        assert {id(run.result.trace) for run in runs} == {id(sim.trace)}
        # Election and trees are paid once: every later slot costs the
        # steady-state prepare/accept, the same every time.
        first, *later = [run.result.events_processed for run in runs]
        assert len(set(later)) == 1 and later[0] < first / 2
        durations = [run.finish_time - run.start_time for run in runs]
        assert max(durations[1:]) < durations[0]
        # The followers lag by the slot whose decide the leader holds
        # until the drain flushes it.
        logs = [replica.log for replica in _replicas(runtime, 0)]
        assert sorted(map(len, logs)) == [3, 3, 3, 3, 4]
        runtime._drain()
        assert (runtime.violations, runtime.unlearned) == ([], 0)
        assert all(replica.log == {k: ("c", k) for k in range(4)}
                   for replica in _replicas(runtime, 0))

    def test_a_forged_commit_is_listed_when_it_is_made(self,
                                                       monkeypatch):
        # The commit hook checks each entry as a replica commits it:
        # the forging follower's entries are listed slot by slot,
        # before any whole-log compare, and the drain adds only the
        # slot whose decide the leader held.
        _forge_follower(monkeypatch)
        runtime = GroupRuntime(BASE)
        start, seen = 0.0, []
        for slot in range(3):
            runtime.add_group(("c", slot), group_id=0, start_time=start)
            (run,) = runtime.advance()
            assert run.failure is None
            start = run.finish_time
            seen.append(len(runtime.violations))
        assert seen == [0, 1, 2]
        runtime._drain()
        assert runtime.violations == [
            (0, k, 1, ("forged",), ("c", k)) for k in range(3)]
        assert runtime.unlearned == 0

    @pytest.mark.parametrize("topology, warm", [
        (TopologySpec("clique", n=5), [(5, 26, 2.0)]),
        (TopologySpec("line", n=5), [(11, 32, 5.0)]),
        (TopologySpec("grid", rows=3, cols=3),
         [(20, 81, 5.0), (16, 54, 4.0), (15, 60, 4.0)]),
    ], ids=["clique5", "line5", "grid3x3"])
    def test_warm_slot_cost_is_pinned(self, topology, warm):
        # Back to back, a warm slot is one leader broadcast carrying
        # the previous slot's decide, this slot's PROPOSE and the next
        # slot's PREPARE, and one round of answers carrying the
        # accepted and the next promise; it ends at the leader's
        # commit. On the 5-clique: 5 broadcasts, 26 events and 2 F_ack.
        # On the line and the grid the responses route up the
        # leader's tree and the flood is relayed, so (broadcasts,
        # events, F_ack) pins the multi-hop work as well; the grid
        # settles into a cycle of three slots. Each is <= D + 2 F_ack.
        runtime = GroupRuntime(BASE.override({"topology": topology}))
        costs, start, broadcasts = [], 0.0, 0
        for slot in range(8):
            runtime.add_group(("c", slot), group_id=0, start_time=start)
            (run,) = runtime.advance()
            assert run.failure is None
            total = run.result.trace.broadcast_count()
            costs.append((total - broadcasts,
                          run.result.events_processed,
                          run.finish_time - run.start_time))
            broadcasts, start = total, run.finish_time
        assert costs[2:] == (warm * 6)[:6]
        diameter = topology.build().diameter()
        assert max(cost for *_, cost in costs[1:]) <= diameter + 2

    def test_only_wpaxos_has_a_log(self):
        two_phase = BASE.override({"algorithm": AlgorithmSpec("two-phase")})
        workload = WorkloadGenerator(groups=1, clients=2, seed=0)
        for build in (lambda: GroupRuntime(two_phase),
                      lambda: ConsensusService(two_phase, workload).run(),
                      lambda: ShardedService(two_phase, workload)):
            with pytest.raises(ValueError, match="'two-phase'"):
                build()

    def test_log_trace_passes_the_model_invariants(self, monkeypatch):
        runs = _serve_runs(monkeypatch)
        workload = WorkloadGenerator(groups=1, clients=12, seed=0,
                                     requests_per_client=2)
        report = ConsensusService(BASE, workload,
                                  slot_trace_level="full").run()
        assert report.failed == 0 and report.slots == len(runs) > 2
        (trace,) = {run.result.trace for run in runs}
        verdict = check_model_invariants(BASE.topology.build(), trace,
                                         1.0)
        assert verdict.ok, verdict.violations[:3]
        # One trace holds the whole log, every slot's broadcasts.
        assert trace.broadcast_count() > 5 * report.slots


def _serve_slots(base, gaps):
    """One group's log on a :class:`GroupRuntime`, one slot per gap
    (each slot starting ``gap`` after the previous one finished)."""
    runtime = GroupRuntime(base)
    runs, start = [], 0.0
    for slot, gap in enumerate(gaps):
        runtime.add_group(("c", slot), group_id=0, start_time=start)
        (run,) = runtime.advance()
        runs.append(run)
        start = run.finish_time + gap
    return runtime, runs


# ----------------------------------------------------------------------
# 1-group byte-identity with a log driven by hand on the engine
# ----------------------------------------------------------------------
class TestSingleGroupIdentity:
    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(min_value=3, max_value=6),
           f_ack=st.sampled_from([0.5, 1.0, 2.0]),
           seed=st.integers(min_value=0, max_value=4),
           scheduler=st.sampled_from(["synchronous", "random"]),
           gaps=st.lists(st.sampled_from([0.0, 0.5, 3.0]), min_size=1,
                         max_size=3))
    def test_byte_identity_property(self, n, f_ack, seed, scheduler,
                                    gaps):
        # The runtime adds nothing to the engine: a log built from the
        # scenario's graph and scheduler, handed each slot's command at
        # the slot's start and resumed until a replica committed it,
        # runs the same events at the same times, byte for byte.
        spec = (SchedulerSpec("random", f_ack=f_ack, seed=seed)
                if scheduler == "random"
                else SchedulerSpec("synchronous", f_ack=f_ack))
        scenario = BASE.override({
            "topology.n": n, "seed": seed, "scheduler": spec})
        runtime, runs = _serve_slots(scenario, gaps)
        resolved = scenario.resolve()
        graph = resolved.graph
        sim = build_simulation(
            graph, lambda v: ReplicatedLogNode(graph.index_of(v) + 1, n),
            resolved.scheduler)
        replicas = list(sim.processes.values())
        start = 0.0
        for slot, (run, gap) in enumerate(zip(runs, gaps)):
            sim.schedule_callback(start, lambda s, k=slot: [
                r.add_command(("c", k)) for r in replicas])
            result = sim.run(
                max_time=start + 10_000.0 * f_ack,
                stop_when_all_decided=False,
                stop_predicate=lambda s, k=slot: any(
                    k in r.log for r in replicas))
            assert run.failure is None
            assert run.start_time == start
            assert result.stop_reason == run.result.stop_reason
            assert result.end_time == run.finish_time
            assert (result.events_processed
                    == run.result.events_processed)
            start = result.end_time + gap
        assert ([r.log for r in replicas]
                == [r.log for r in _replicas(runtime, 0)])
        assert (trace_to_json(sim.trace)
                == trace_to_json(runs[0].result.trace))

    def test_byte_identity_columnar_sink(self):
        # A log traced to disk records what the in-memory log records,
        # slot after slot, while it is still open.
        _, full = _serve_slots(BASE, [0.5, 0.5, 0.5])
        _, columnar = _serve_slots(
            BASE.override({"trace_level": "columnar"}), [0.5, 0.5, 0.5])
        sink = columnar[0].result.trace
        assert isinstance(sink, ColumnarSink)
        assert {id(run.result.trace) for run in columnar} == {id(sink)}
        assert ([run.result.events_processed for run in columnar]
                == [run.result.events_processed for run in full])
        assert (trace_to_records(sink)
                == trace_to_records(full[0].result.trace))

    def test_columnar_sink_reloads_to_the_same_stream(self):
        # The chunks a group's log leaves on disk reopen to the
        # in-memory log's record stream, every slot's broadcasts in it.
        _, full = _serve_slots(BASE, [0.5, 0.5])
        _, columnar = _serve_slots(
            BASE.override({"trace_level": "columnar"}), [0.5, 0.5])
        sink = columnar[0].result.trace
        sink.close()
        reopened = ColumnarSink.load(sink.directory)
        assert reopened.chunk_paths()
        reference = full[0].result.trace
        assert (trace_to_records(reopened)
                == trace_to_records(reference))
        assert reopened.broadcast_count() == reference.broadcast_count()
        # A log replica commits slots; it never decides.
        assert reopened.decision_times() == {}


# ----------------------------------------------------------------------
# Groups under one runtime == each group alone
# ----------------------------------------------------------------------
class TestMultiGroupEquivalence:
    def test_interleaved_equals_standalone(self):
        base = BASE.override({
            "scheduler": SchedulerSpec("random", f_ack=1.0)})
        starts = {"a": (0.0, 3.0, 40.0), "b": (1.0, 30.0, 31.0)}

        def serve(groups):
            runtime = GroupRuntime(base)
            out, clock = {}, {g: 0.0 for g in groups}
            for slot in range(3):
                for gid in groups:
                    start = max(starts[gid][slot], clock[gid])
                    runtime.add_group((gid, slot), group_id=gid,
                                      start_time=start)
                for run in runtime.advance():
                    clock[run.group_id] = run.finish_time
                    out[(run.group_id, slot)] = (
                        run.start_time, run.finish_time,
                        run.result.events_processed, run.failure)
            return out

        together = serve(["a", "b"])
        assert together == {**serve(["a"]), **serve(["b"])}
        assert all(failure is None
                   for *_, failure in together.values())

    def test_a_late_first_slot_finds_the_log_warm(self):
        # Every log's clock starts at virtual time 0 with the service's:
        # a group whose first batch comes late has its leader and trees
        # by then, and its slot costs the steady state.
        runtime = GroupRuntime(BASE)
        runtime.add_group(("x",), group_id="a")
        runtime.add_group(("x",), group_id="b", start_time=100.0)
        runtime.add_group(("y",), group_id="a", start_time=100.0)
        runs = runtime.advance()
        assert [(run.group_id, run.start_time) for run in runs] == [
            ("a", 0.0), ("b", 100.0), ("a", 100.0)]
        cold, warm_b, warm_a = runs
        assert warm_b.finish_time == warm_a.finish_time
        assert (warm_b.finish_time - 100.0
                < cold.finish_time - cold.start_time)

    def test_advance_until_is_resumable(self):
        finish = {}
        for start in (0.0, 20.0, 40.0):
            probe = GroupRuntime(BASE)
            probe.add_group(("x",), start_time=start)
            finish[start] = probe.next_time()
        runtime = GroupRuntime(BASE)
        # "tie-a"/"tie-b" finish at the same instant (same log, same
        # start): registration order must break the tie.
        runtime.add_group(("x",), group_id="late", start_time=40.0)
        runtime.add_group(("x",), group_id="tie-a", start_time=20.0)
        runtime.add_group(("x",), group_id="tie-b", start_time=20.0)
        runtime.add_group(("x",), group_id="early")
        assert runtime.next_time() == finish[0.0]
        assert finish[0.0] < finish[20.0] < finish[40.0]
        assert runtime.advance(until=finish[0.0] - 0.5) == []
        handed_out = []
        for horizon in (finish[0.0], finish[20.0], finish[40.0] - 0.5,
                        finish[40.0], finish[40.0] + 50.0):
            runs = runtime.advance(until=horizon)
            assert all(run.finish_time <= horizon for run in runs)
            pending = runtime.next_time()
            assert pending is None or pending > horizon
            handed_out.append([run.group_id for run in runs])
        assert handed_out == [["early"], ["tie-a", "tie-b"], [],
                              ["late"], []]
        assert runtime.next_time() is None


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

    def test_client_group_is_drawn_once(self, monkeypatch):
        from repro.macsim.service import workload as workload_module
        workload = WorkloadGenerator(groups=8, clients=64, seed=5)
        draws = []
        draw_seed = workload_module._draw_seed

        def counting(seed, client, draw):
            draws.append((client, draw))
            return draw_seed(seed, client, draw)

        monkeypatch.setattr(workload_module, "_draw_seed", counting)
        groups = [workload.client_group(c) for c in range(64)]
        assert groups == [workload.client_group(c) for c in range(64)]
        assert draws == [(c, 0) for c in range(64)]
        # The memo holds the session draw itself.
        assert groups == [
            bisect_left(workload._cdf, random.Random(
                draw_seed(5, c, 0)).random()) for c in range(64)]

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
# Serve loop and sharding
# ----------------------------------------------------------------------
class TestConsensusService:
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

    def test_logs_hold_every_batch_in_slot_order(self, monkeypatch):
        # What each group's log committed is exactly its batches' request
        # ids, slot by slot, on every replica.
        runtimes = []
        init = GroupRuntime.__init__

        def keep_runtime(runtime, *args, **kwargs):
            init(runtime, *args, **kwargs)
            runtimes.append(runtime)

        monkeypatch.setattr(GroupRuntime, "__init__", keep_runtime)
        base = BASE.override({
            "scheduler": SchedulerSpec("random", f_ack=1.0)})
        workload = WorkloadGenerator(groups=2, clients=10, seed=0,
                                     requests_per_client=2)
        report = ConsensusService(base, workload,
                                  tracer=RequestTracer()).run()
        assert report.failed == 0
        batches = {}
        for span in report.tracing["requests"]:
            batches.setdefault(span["group"], {}).setdefault(
                span["slot"], []).append((span["client"], span["index"]))
        (runtime,) = runtimes
        logs = {gid: [r.log for r in _replicas(runtime, gid)]
                for gid in runtime._logs}
        assert sorted(logs) == sorted(batches) == [0, 1]
        for gid, slots in batches.items():
            # Spans sort canonically, not in batch order.
            expected = {slot: sorted(ids) for slot, ids in slots.items()}
            assert all({slot: sorted(ids) for slot, ids in log.items()}
                       == expected for log in logs[gid])

    def test_slot_out_of_budget_fails_its_batch(self):
        # A fresh log needs 200 events for its first slot (election and
        # trees included): 150 leave every slot of every group short,
        # and each failure restarts the group on a fresh log.
        starved = BASE.override({"max_events": 150})
        workload = WorkloadGenerator(groups=2, clients=12, seed=0,
                                     requests_per_client=2)
        tracer = RequestTracer()
        metrics = MetricsRegistry(window=25.0)
        report = ConsensusService(starved, workload, tracer=tracer,
                                  metrics=metrics).run()
        total = workload.total_requests()
        assert report.requests == 0
        assert report.failed == total
        assert report.latencies == []
        assert report.failure_reasons == {"max_events": total}
        assert report.to_dict()["failure_reasons"] == {
            "max_events": total}
        # Each failed slot drops its log after one whole-log compare.
        assert (report.violations, report.unlearned) == ([], 0)
        assert sum(g.failed for g in report.per_group.values()) == total
        spans = report.tracing["requests"]
        assert len(spans) == total
        assert all(not r["ok"] and r["stop_reason"] == "max_events"
                   for r in spans)
        assert report.metrics["totals"]["failed"] == total
        assert report.metrics["totals"]["commits"] == 0
        assert sum(group["failed"] for group
                   in report.metrics["groups"].values()) == total

    def test_slot_budget_counts_from_the_slot(self):
        # 150 events cover every warm slot: only a log's first slot
        # runs short, so budgets are per slot, not per log.
        runtime = GroupRuntime(BASE.override({"max_events": 150}))
        runtime.add_group(("a",), group_id=0)
        (first,) = runtime.advance()
        assert first.failure == "max_events"
        full = GroupRuntime(BASE)
        start = 0.0
        for slot in range(5):
            full.add_group(("c", slot), group_id=0, start_time=start)
            (run,) = full.advance()
            assert run.failure is None
            start = run.finish_time
            if slot:
                assert run.result.events_processed < 150

    @staticmethod
    def _mutant_serve(workload, shards):
        """Serve ``workload`` with spans and metrics on, inline
        (``shards=1``) or forked, and check that no request moved:
        every request committed, in the spans and the metrics too."""
        report = ShardedService(BASE, workload, shards=shards,
                                trace_requests=True,
                                metrics_window=50.0).run()
        total = workload.total_requests()
        assert (report.requests, report.failed) == (total, 0)
        assert report.failure_reasons == {}
        assert all(r["ok"] for r in report.tracing["requests"])
        totals = report.metrics["totals"]
        assert (totals["commits"], totals["failed"]) == (total, 0)
        return report

    @staticmethod
    def _batches(report):
        """``(group, slot) -> sorted request ids`` off the spans."""
        batches = {}
        for span in report.tracing["requests"]:
            batches.setdefault((span["group"], span["slot"]), []).append(
                (span["client"], span["index"]))
        return {key: sorted(ids) for key, ids in batches.items()}

    @pytest.mark.parametrize("shards", [1, 2])
    def test_forged_commit_is_a_violation(self, monkeypatch, shards):
        # A mutant follower commits a forged value for every slot. The
        # slot was chosen when a majority accepted, so its requests
        # commit; each forged entry is one agreement violation, found
        # at the follower's commit, and the end-of-run compare lists it
        # no second time.
        workload = WorkloadGenerator(groups=2, clients=12, seed=0,
                                     requests_per_client=2)
        clean = ConsensusService(BASE, workload).run()
        _forge_follower(monkeypatch)
        serial = ConsensusService(BASE, workload).run()
        report = self._mutant_serve(workload, shards)
        assert sorted(report.latencies) == sorted(clean.latencies)
        assert report.unlearned == 0
        batches = self._batches(report)
        assert len(report.violations) == len(batches) == report.slots == 22
        assert [v[:4] for v in report.violations] == [
            (g, s, 1, ("forged",)) for g, s in sorted(batches)]
        assert all(sorted(v[4]) == batches[v[0], v[1]]
                   for v in report.violations)
        assert report.violations == serial.violations
        assert report.to_dict()["violations"] == [
            list(v) for v in report.violations]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_end_of_run_check_counts_a_corrupted_entry(self, monkeypatch,
                                                       shards):
        # An entry corrupted after its commit passes no commit hook: the
        # end-of-run drain, which compares every replica's whole log,
        # reports it as one violation, and no request moves.
        workload = WorkloadGenerator(groups=2, clients=12, seed=0,
                                     requests_per_client=2)
        clean = ConsensusService(BASE, workload).run()
        drain = GroupRuntime._drain

        def corrupting(runtime):
            log = runtime._logs.get(0)
            if log is not None:
                _follower(log).log[0] = ("corrupted",)
            return drain(runtime)

        monkeypatch.setattr(GroupRuntime, "_drain", corrupting)
        report = self._mutant_serve(workload, shards)
        assert sorted(report.latencies) == sorted(clean.latencies)
        assert report.per_group == clean.per_group
        (violation,) = report.violations
        assert violation[:4] == (0, 0, 1, ("corrupted",))
        assert sorted(violation[4]) == self._batches(report)[0, 0]
        assert report.unlearned == 0

    @pytest.mark.parametrize("shards", [1, 2])
    def test_commit_past_the_log_is_a_violation(self, monkeypatch,
                                                shards):
        # A mutant follower commits one slot past the log asked for: a
        # violation with nothing expected, not an IndexError, listed
        # once although the whole-log compare sees it too.
        drain = _GroupLog.drain

        def overcommitting(log, budget, max_events):
            events = drain(log, budget, max_events)
            if log.group_id == 0:
                _follower(log)._commit(len(log.expected), ("extra",))
            return events

        monkeypatch.setattr(_GroupLog, "drain", overcommitting)
        workload = WorkloadGenerator(groups=2, clients=12, seed=0,
                                     requests_per_client=2)
        report = self._mutant_serve(workload, shards)
        slots = report.per_group[0].slots
        assert report.violations == [(0, slots, 1, ("extra",), None)]
        assert report.unlearned == 0

    def test_an_entry_lacking_after_the_drain_is_unlearned(
            self, monkeypatch):
        # A live replica that still lacks an entry once the log is
        # quiet is a liveness outcome: counted in ``unlearned``, while
        # every request stays committed and nothing is a violation.
        drain = _GroupLog.drain

        def forgetting(log, budget, max_events):
            events = drain(log, budget, max_events)
            del _follower(log).log[0]
            return events

        workload = WorkloadGenerator(groups=1, clients=12, seed=0,
                                     requests_per_client=2)
        clean = ConsensusService(BASE, workload).run()
        monkeypatch.setattr(_GroupLog, "drain", forgetting)
        report = ConsensusService(BASE, workload).run()
        assert (report.requests, report.failed) == (
            clean.requests, clean.failed) == (24, 0)
        assert report.latencies == clean.latencies
        assert (report.violations, report.unlearned) == ([], 1)
        assert report.to_dict()["unlearned"] == 1
        assert "unlearned" not in clean.to_dict()

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
    def test_failed_shard_stops_its_siblings(self, monkeypatch, tmp_path):
        # Workers claim one group at a time, so the worker that claims
        # the busy group blocks in it and the other one reaches the bad
        # group. The bad group reports only once the busy one started,
        # and the busy one would leave "finished" only after blocking
        # for a minute: the pool must stop a live sibling.
        busy_group, bad_group = 0, 2
        started, finished = tmp_path / "started", tmp_path / "finished"
        open_log = GroupRuntime._open_log

        def explode_on_bad_group(runtime, group_id, telemetry):
            if group_id == busy_group:
                started.touch()
                time.sleep(60.0)
                finished.touch()
            elif group_id == bad_group:
                deadline = time.monotonic() + 60.0
                while not started.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
                raise ValueError(f"no log for group {group_id}")
            return open_log(runtime, group_id, telemetry)

        monkeypatch.setattr(GroupRuntime, "_open_log",
                            explode_on_bad_group)
        workload = WorkloadGenerator(groups=4, clients=16, seed=0,
                                     zipf_s=0.0, requests_per_client=1)
        assert all(workload.total_requests([g])
                   for g in (busy_group, bad_group))
        service = ShardedService(BASE, workload, shards=2)
        with pytest.raises(RuntimeError) as failure:
            service.run()
        message = str(failure.value)
        assert f"service group {bad_group} failed" in message
        assert f"no log for group {bad_group}" in message
        assert multiprocessing.active_children() == []
        assert started.exists() and not finished.exists()

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

    def test_serve_rejects_an_algorithm_without_a_log(self, tmp_path):
        # serve takes no --algorithm; a base scenario naming another
        # algorithm is still refused.
        path = tmp_path / "two_phase.json"
        BASE.override({"algorithm": AlgorithmSpec("two-phase")}).dump(
            str(path))
        with pytest.raises(SystemExit, match="'two-phase'"):
            main(["serve", "--scenario", str(path), "--groups", "1"])
        with pytest.raises(SystemExit):
            main(["serve", "--algorithm", "wpaxos", "--groups", "1"])

    def test_one_group_serve_commits_every_request(self, tmp_path,
                                                   capsys):
        report_path = tmp_path / "report.json"
        code = main(["serve", "--groups", "1", "--clients", "8",
                     "--json-out", str(report_path)])
        assert code == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["failed"] == 0
        assert report["requests"] == 8 * 2
        assert "failure_reasons" not in report

    def test_serve_exits_1_on_a_violation(self, monkeypatch, tmp_path,
                                          capsys):
        # Every request commits, but a forging follower breaks
        # agreement: serve prints each violation and exits 1.
        _forge_follower(monkeypatch)
        report_path = tmp_path / "report.json"
        code = main(["serve", "--groups", "1", "--clients", "4",
                     "--requests-per-client", "1",
                     "--json-out", str(report_path)])
        assert code == 1
        out = capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert (report["requests"], report["failed"]) == (4, 0)
        violations = report["violations"]
        assert violations and all(v[2:4] == [1, ["forged"]]
                                  for v in violations)
        assert out.count("violation:      group 0 slot ") == len(violations)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_progress_names_no_cache(self, capsys):
        code = main(["serve", "--groups", "3", "--shards", "2",
                     "--clients", "12", "--requests-per-client", "1",
                     "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "[sweep serve] summary: 3/3 points" in err
        assert "cache" not in err

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
