"""Sharded service: groups pinned across forked engine shards.

One engine process per core (``saturating_workers()``), each running
its own :class:`ConsensusService` over the groups the placement pins
to it. Because the workload derives every client's behaviour from
``(seed, client)`` alone (see :mod:`.workload`), a shard can replay
exactly its clients without coordination, and the aggregated report is
**identical** to an unsharded run of the same configuration -- the
shard count is a pure wall-clock knob, which the equivalence tests
pin.

Shard lifecycle reuses the sweep fabric's conventions: fork-based
workers, :class:`~repro.analysis.sweeps.SweepProgress` heartbeats (one
per shard completion, with the closing per-worker utilization line)
and the same :data:`~repro.analysis.sweeps.STRAGGLER_FACTOR` rule for
flagging shards that ran far slower than the median -- the placement
skew signal.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from .loop import ConsensusService, GroupStats, ServiceReport
from .placement import rendezvous_place
from .tracing import MetricsRegistry, RequestTracer
from .workload import WorkloadGenerator

__all__ = ["ShardedService", "run_service"]


def _observers(shard: int, trace_requests: bool,
               metrics_window: Optional[float],
               out_path: Optional[str] = None):
    """Per-shard tracer/metrics instances (``None`` when disabled)."""
    tracer = RequestTracer(shard=shard) if trace_requests else None
    metrics = None
    if metrics_window is not None:
        metrics = MetricsRegistry(window=metrics_window, shard=shard,
                                  out_path=out_path)
    return tracer, metrics


def _shard_worker(conn, shard, base, workload, group_ids,
                  service_kwargs, trace_requests,
                  metrics_window) -> None:
    """Child entry point: serve one shard's groups, ship the report."""
    try:
        tracer, metrics = _observers(shard, trace_requests,
                                     metrics_window)
        service = ConsensusService(base, workload, group_ids=group_ids,
                                   tracer=tracer, metrics=metrics,
                                   **service_kwargs)
        report = service.run()
        conn.send(("ok", report))
    except BaseException as exc:  # pragma: no cover - child crash path
        try:
            conn.send(("error", repr(exc)))
        except Exception:
            pass
        raise
    finally:
        conn.close()


class ShardedService:
    """Run a consensus service with groups placed across forked
    engine shards.

    ``shards=None`` saturates the machine
    (``min(groups, saturating_workers())``); ``shards=1`` runs inline
    in-process (no fork), which is also the automatic fallback on
    platforms without ``fork``. Placement is rendezvous hashing of
    group ids over shard ids -- deterministic and minimally disruptive
    (see :mod:`.placement`).
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
    def placement(self) -> Dict[int, List[int]]:
        """Shard id -> sorted group ids pinned to it."""
        if self.shards == 1:
            return {0: list(self.group_ids)}
        assignment = rendezvous_place(self.group_ids,
                                      list(range(self.shards)))
        by_shard: Dict[int, List[int]] = {s: [] for s in
                                          range(self.shards)}
        for group, shard in assignment.items():
            by_shard[shard].append(group)
        for groups in by_shard.values():
            groups.sort()
        return by_shard

    def run(self) -> ServiceReport:
        started = perf_counter()
        by_shard = self.placement()
        populated = [(shard, groups)
                     for shard, groups in sorted(by_shard.items())
                     if groups]
        if len(populated) <= 1 or not _can_fork():
            report = self._run_inline()
        else:
            report = self._run_forked(populated)
        report.wall_seconds = perf_counter() - started
        return report

    # ------------------------------------------------------------------
    def _run_inline(self) -> ServiceReport:
        tracer, metrics = _observers(0, self.trace_requests,
                                     self.metrics_window,
                                     out_path=self.metrics_out)
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

    def _run_forked(self, populated) -> ServiceReport:
        import multiprocessing as mp

        from ...analysis.sweeps import (STRAGGLER_FACTOR, SweepProgress,
                                        _progress_enabled)
        # Resolving imports the classes the scenario names: once here,
        # and every shard inherits them instead of compiling its own.
        self.base.resolve()
        ctx = mp.get_context("fork")
        reporter = None
        if _progress_enabled(self.progress):
            reporter = SweepProgress(name="serve", total=len(populated))
        children = []
        shard_reports: List[ServiceReport] = []
        shard_rows: List[Dict[str, Any]] = []
        worker_stats: List[Dict[str, Any]] = []
        try:
            for shard, groups in populated:
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, shard, self.base, self.workload,
                          groups, self._service_kwargs,
                          self.trace_requests, self.metrics_window))
                proc.start()
                child_conn.close()
                children.append((shard, groups, proc, parent_conn))
            for shard, groups, proc, conn in children:
                try:
                    status, payload = conn.recv()
                except EOFError:
                    status, payload = ("error",
                                       "shard died without a report")
                proc.join()
                if status != "ok":
                    raise RuntimeError(
                        f"service shard {shard} (groups {groups}) "
                        f"failed: {payload}")
                report: ServiceReport = payload
                shard_reports.append(report)
                shard_rows.append({
                    "shard": shard, "groups": len(groups),
                    "requests": report.requests,
                    "wall_seconds": report.wall_seconds,
                })
                worker_stats.append({
                    "worker": shard, "points": len(groups),
                    "chunks": report.slots,
                    "busy_seconds": report.wall_seconds,
                })
                if reporter is not None:
                    reporter.point_done(f"shard{shard}",
                                        report.wall_seconds)
        finally:
            # A failed shard must not leave its siblings serving into
            # pipes nobody reads.
            for _shard, _groups, proc, conn in children:
                conn.close()
                if proc.is_alive():
                    proc.terminate()
                proc.join()
        walls = sorted(row["wall_seconds"] for row in shard_rows)
        median_wall = walls[len(walls) // 2]
        total_wall = max(walls) if walls else 0.0
        for row in shard_rows:
            wall = row["wall_seconds"]
            row["utilization"] = (wall / total_wall
                                  if total_wall > 0 else 0.0)
            row["straggler"] = (median_wall > 0.0
                                and wall > STRAGGLER_FACTOR
                                * median_wall)
        if reporter is not None:
            reporter.finish(worker_stats=worker_stats)
        merged = _merge_reports(self.workload, shard_reports)
        merged.shards = shard_rows
        return merged


def _can_fork() -> bool:
    return hasattr(os, "fork")


def _merge_reports(workload: WorkloadGenerator,
                   reports: List[ServiceReport]) -> ServiceReport:
    """Aggregate disjoint-group shard reports into one service report.

    Latency percentiles are computed over the union sample, so the
    merge is exact -- not an average of per-shard percentiles.
    """
    per_group: Dict[int, GroupStats] = {}
    latencies: List[float] = []
    telemetry_parts = [r.telemetry for r in reports
                       if r.telemetry is not None]
    tracing_parts = [r.tracing for r in reports
                     if r.tracing is not None]
    metrics_parts = [r.metrics for r in reports
                     if r.metrics is not None]
    failure_reasons: Dict[str, int] = {}
    for report in reports:
        per_group.update(report.per_group)
        latencies.extend(report.latencies)
        for reason, count in report.failure_reasons.items():
            failure_reasons[reason] = (failure_reasons.get(reason, 0)
                                       + count)
    telemetry = None
    if telemetry_parts:
        groups: Dict[str, Any] = {}
        totals = {"slots": 0, "events_processed": 0,
                  "wall_seconds": 0.0}
        counters: Dict[str, Any] = {}
        for part in telemetry_parts:
            groups.update(part["groups"])
            part_totals = part["totals"]
            totals["slots"] += part_totals["slots"]
            totals["events_processed"] += \
                part_totals["events_processed"]
            totals["wall_seconds"] += part_totals["wall_seconds"]
            for key, value in part_totals["counters"].items():
                counters[key] = counters.get(key, 0) + value
        totals["counters"] = counters
        telemetry = {
            "schema": "service-telemetry/v1",
            "groups": dict(sorted(groups.items(),
                                  key=lambda kv: int(kv[0]))),
            "totals": totals,
        }
    return ServiceReport(
        groups=sum(r.groups for r in reports),
        clients=workload.clients,
        requests=sum(r.requests for r in reports),
        failed=sum(r.failed for r in reports),
        slots=sum(r.slots for r in reports),
        events=sum(r.events for r in reports),
        virtual_time=max((r.virtual_time for r in reports),
                         default=0.0),
        wall_seconds=0.0,  # refreshed by the caller
        latencies=latencies,
        per_group=per_group,
        telemetry=telemetry,
        tracing=(RequestTracer.merge_snapshots(tracing_parts)
                 if tracing_parts else None),
        metrics=(MetricsRegistry.merge_snapshots(metrics_parts)
                 if metrics_parts else None),
        failure_reasons=failure_reasons,
    )


def run_service(base: Any, *, groups: int, clients: int,
                shards: Optional[int] = 1, seed: int = 0,
                zipf_s: float = 1.1, think_mu: float = 3.0,
                think_sigma: float = 1.0,
                requests_per_client: int = 2, batch_size: int = 8,
                telemetry: bool = False,
                capture_first_slot: bool = False,
                horizon: Optional[float] = None,
                progress: Optional[bool] = None,
                trace_requests: bool = False,
                metrics_window: Optional[float] = None,
                metrics_out: Optional[str] = None) -> ServiceReport:
    """One-call service run: build the workload, shard, serve, merge."""
    workload = WorkloadGenerator(
        groups=groups, clients=clients, seed=seed, zipf_s=zipf_s,
        think_mu=think_mu, think_sigma=think_sigma,
        requests_per_client=requests_per_client)
    service = ShardedService(
        base, workload, shards=shards, batch_size=batch_size,
        telemetry=telemetry, capture_first_slot=capture_first_slot,
        horizon=horizon, progress=progress,
        trace_requests=trace_requests, metrics_window=metrics_window,
        metrics_out=metrics_out)
    return service.run()
