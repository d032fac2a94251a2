"""Sharded service: consensus groups as items of the forked pool.

Groups share no state, so each one is served by its own
:class:`ConsensusService` as one item of
:func:`~repro.analysis.sweeps.fork_map`, the pool ``repro regen`` runs
on: ``shards`` workers steal groups off a shared counter, and a worker
that dies costs a retry of its groups. Because the workload derives
every client's behaviour from ``(seed, client)`` alone (see
:mod:`.workload`), a group's serve replays exactly its clients without
coordination, and the merged report is **identical** to an unsharded
run of the same configuration -- the shard count is a pure wall-clock
knob, which the equivalence tests pin. Which worker serves which group
varies from run to run, so the ``shard`` stamps on spans and metrics
parts sit outside that identity, like wall-clock fields.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from .loop import ConsensusService, GroupStats, ServiceReport
from .tracing import MetricsRegistry, RequestTracer
from .workload import WorkloadGenerator

__all__ = ["ShardedService", "run_service"]

class ShardedService:
    """Run a consensus service with its groups spread over forked
    engine workers.

    ``shards=None`` saturates the machine
    (``min(groups, saturating_workers())``); ``shards=1`` runs inline
    in-process (no fork), which is also the automatic fallback where
    forking is unavailable. The inline run is the reference the
    forked one must equal.
    """

    def __init__(self, base: Any, workload: WorkloadGenerator, *,
                 shards: Optional[int] = None,
                 group_ids: Optional[Sequence[int]] = None,
                 batch_size: int = 8,
                 slot_trace_level: Optional[str] = "decisions",
                 telemetry: bool = False,
                 capture_first_slot: bool = False,
                 horizon: Optional[float] = None,
                 progress: Optional[bool] = None,
                 trace_requests: bool = False,
                 metrics_window: Optional[float] = None,
                 metrics_out: Optional[str] = None) -> None:
        self.base = base
        self.workload = workload
        if group_ids is None:
            group_ids = range(workload.groups)
        self.group_ids = sorted(group_ids)
        if shards is None:
            from ...analysis.sweeps import saturating_workers
            shards = max(1, min(len(self.group_ids),
                                saturating_workers()))
        self.shards = max(1, int(shards))
        self.progress = progress
        #: Request tracing + windowed metrics (``None`` window =
        #: metrics off). ``metrics_out`` live-flushes the JSON
        #: snapshot on window rollovers -- inline (single-shard) runs
        #: only; forked runs write one merged snapshot at the end.
        self.trace_requests = bool(trace_requests)
        self.metrics_window = metrics_window
        self.metrics_out = metrics_out
        self._service_kwargs: Dict[str, Any] = {
            "batch_size": batch_size,
            "slot_trace_level": slot_trace_level,
            "telemetry": telemetry,
            "horizon": horizon,
        }
        self.capture_first_slot = capture_first_slot
        self.first_slot_trace: Any = None
        self.first_slot_scenario: Any = None

    # ------------------------------------------------------------------
    def run(self) -> ServiceReport:
        started = perf_counter()
        workers = min(self.shards, len(self.group_ids))
        report = (self._run_forked(workers) if workers > 1
                  else self._run_inline())
        report.wall_seconds = perf_counter() - started
        return report

    def _observers(self, shard: int, out_path: Optional[str] = None):
        """Tracer and metrics registry stamped ``shard`` (``None``
        where disabled)."""
        tracer = RequestTracer(shard=shard) if self.trace_requests else None
        metrics = None
        if self.metrics_window is not None:
            metrics = MetricsRegistry(window=self.metrics_window,
                                      shard=shard, out_path=out_path)
        return tracer, metrics

    def _run_inline(self) -> ServiceReport:
        tracer, metrics = self._observers(0, out_path=self.metrics_out)
        service = ConsensusService(
            self.base, self.workload, group_ids=self.group_ids,
            capture_first_slot=self.capture_first_slot,
            tracer=tracer, metrics=metrics,
            **self._service_kwargs)
        report = service.run()
        self.first_slot_trace = service.first_slot_trace
        self.first_slot_scenario = service.first_slot_scenario
        report.shards = [{
            "shard": 0, "groups": len(self.group_ids),
            "requests": report.requests,
            "wall_seconds": report.wall_seconds,
            "utilization": 1.0, "straggler": False,
        }]
        return report

    def _serve_group(self, group: int) -> ServiceReport:
        """One pool item: the whole serve of one group."""
        from ...analysis.sweeps import pool_worker
        tracer, metrics = self._observers(pool_worker())
        return ConsensusService(self.base, self.workload,
                                group_ids=[group], tracer=tracer,
                                metrics=metrics,
                                **self._service_kwargs).run()

    def _lost_group(self, group: int) -> ServiceReport:
        """The report of a group whose worker died on every attempt:
        each of its requests fails under the reason ``worker-lost``."""
        lost = self.workload.total_requests([group])
        return ServiceReport(
            groups=1, clients=self.workload.clients, requests=0,
            failed=lost, slots=0, events=0, virtual_time=0.0,
            wall_seconds=0.0, per_group={group: GroupStats(failed=lost)},
            failure_reasons={"worker-lost": lost} if lost else {})

    def _run_forked(self, workers: int) -> ServiceReport:
        # The pool's module loads only here: an inline serve never
        # imports it.
        from ...analysis.sweeps import (SweepProgress, SweepWorkerError,
                                        _progress_enabled, can_fork,
                                        flag_stragglers, fork_map)
        if not can_fork():
            return self._run_inline()
        # Resolving imports the classes the scenario names: once here,
        # and every worker inherits them instead of compiling its own.
        self.base.resolve()
        reporter = None
        if _progress_enabled(self.progress):
            reporter = SweepProgress("serve", len(self.group_ids))
        served: List[List[int]] = [[] for _ in range(workers)]

        def on_result(index: int, report: ServiceReport, seconds: float,
                      worker: int) -> None:
            served[worker].append(index)
            if reporter is not None:
                reporter.point_done(f"group{self.group_ids[index]}",
                                    seconds)

        try:
            reports, worker_stats, lost = fork_map(
                self._serve_group, self.group_ids, workers=workers,
                on_result=on_result)
        except SweepWorkerError as exc:
            raise RuntimeError(f"service group {exc.items[0]} failed: "
                               f"{exc}") from exc
        for index in lost:
            reports[index] = self._lost_group(self.group_ids[index])
        if reporter is not None:
            reporter.finish(worker_stats=worker_stats)
        walls = [(entry["worker"], entry["busy_seconds"])
                 for entry in worker_stats]
        longest = max(wall for _, wall in walls)
        slow = flag_stragglers(walls)
        merged = ServiceReport.merge(reports, self.workload.clients)
        merged.shards = [{
            "shard": worker, "groups": len(served[worker]),
            "requests": sum(reports[i].requests for i in served[worker]),
            "wall_seconds": wall,
            "utilization": wall / longest if longest else 0.0,
            "straggler": worker in slow,
        } for worker, wall in walls]
        return merged


def run_service(base: Any, *, groups: int, clients: int,
                shards: Optional[int] = 1, seed: int = 0,
                zipf_s: float = 1.1, think_mu: float = 3.0,
                think_sigma: float = 1.0, requests_per_client: int = 2,
                **options: Any) -> ServiceReport:
    """One-call service run: build the workload, shard, serve, merge;
    ``options`` are :class:`ShardedService`'s keywords."""
    workload = WorkloadGenerator(
        groups=groups, clients=clients, seed=seed, zipf_s=zipf_s,
        think_mu=think_mu, think_sigma=think_sigma,
        requests_per_client=requests_per_client)
    return ShardedService(base, workload, shards=shards, **options).run()
