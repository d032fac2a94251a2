"""The consensus service: a closed-loop virtual-time serve driver.

Ties the pieces together: a :class:`WorkloadGenerator` produces client
arrivals, the :class:`ServiceFrontend` batches proposals into per-group
*slots*, and a :class:`GroupRuntime` runs each group as one long-lived
replicated wPAXOS log (:mod:`repro.apps.replicated_log`): a batch is
one slot of its group's log, whose command is the batch's tuple of
request ids ``(client, index)``. The runtime hands finished slots back
in virtual-time order, and the loop commits them. Every log starts
from the base scenario, so the whole service run is reproducible from
the seeds alone.

Running a slot ahead of the virtual clock is unobservable: its batch
is fixed when it starts, every client is pinned to one group, a group
runs one slot at a time, and groups share no state -- so the only
thing the loop needs from a slot is *when* it finished, and it
commits slots strictly in ``(finish time, start order)``.

A request's end-to-end latency is ``commit - arrival`` in virtual time
(the engine's ``F_ack`` units): queueing delay behind the group's
current slot plus the time its slot took to commit. Throughput is
committed requests per virtual time unit. A slot commits at its first
commit on any replica (a majority accepted it), once every live
replica's newly learned entries check out against the batches asked
for. A slot that misses its budget or fails that check fails its
whole batch, counted under the reason (the engine's ``stop_reason``,
or ``"unverified"``), and its group's next slot starts a fresh log.
A slot found diverged later -- when its log is dropped, or when the
workload is done and every open log is flushed, drained and compared
whole -- fails after all: its requests move from committed to failed
under ``"unverified"``, and their latency samples, spans and metrics
go with them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from .frontend import Request, ServiceFrontend
from .runtime import GroupRun, GroupRuntime
from .tracing import MetricsRegistry, RequestTracer, latency_summary
from .workload import WorkloadGenerator

__all__ = ["ConsensusService", "GroupStats", "ServiceReport",
           "latency_summary"]


@dataclass
class GroupStats:
    """Per-group accounting (the attribution side of the contract)."""

    requests: int = 0
    failed: int = 0
    slots: int = 0
    events: int = 0
    last_commit: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"requests": self.requests, "failed": self.failed,
                "slots": self.slots, "events": self.events,
                "last_commit": self.last_commit}


@dataclass
class ServiceReport:
    """Outcome of one service run (mergeable across disjoint groups)."""

    groups: int
    clients: int
    requests: int
    failed: int
    slots: int
    events: int
    virtual_time: float
    wall_seconds: float
    latencies: List[float] = field(default_factory=list)
    per_group: Dict[int, GroupStats] = field(default_factory=dict)
    telemetry: Optional[Dict[str, Any]] = None
    shards: Optional[List[Dict[str, Any]]] = None
    #: ``service-spans/v1`` snapshot when request tracing was on.
    tracing: Optional[Dict[str, Any]] = None
    #: ``service-metrics/v1`` snapshot when the metrics registry was on.
    metrics: Optional[Dict[str, Any]] = None
    #: Failed requests by the reason their slot failed.
    failure_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def latency(self) -> Dict[str, Any]:
        return latency_summary(self.latencies)

    @property
    def throughput(self) -> float:
        """Committed requests per virtual time unit."""
        if self.virtual_time <= 0.0:
            return 0.0
        return self.requests / self.virtual_time

    @property
    def wall_throughput(self) -> float:
        """Committed requests per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.requests / self.wall_seconds

    @classmethod
    def merge(cls, reports: Sequence["ServiceReport"],
              clients: int) -> "ServiceReport":
        """Aggregate disjoint-group reports into one service report.

        Latency percentiles are computed over the union sample, so the
        merge is exact -- not an average of per-group percentiles.
        """
        per_group: Dict[int, GroupStats] = {}
        latencies: List[float] = []
        tel_groups: Dict[int, Dict[str, Any]] = {}
        failure_reasons: Dict[str, int] = {}
        for report in reports:
            per_group.update(report.per_group)
            latencies.extend(report.latencies)
            if report.telemetry is not None:
                tel_groups.update((int(gid), acc) for gid, acc
                                  in report.telemetry["groups"].items())
            for reason, count in report.failure_reasons.items():
                failure_reasons[reason] = (failure_reasons.get(reason, 0)
                                           + count)
        tracing = [r.tracing for r in reports if r.tracing is not None]
        metrics = [r.metrics for r in reports if r.metrics is not None]
        telemetry = any(r.telemetry is not None for r in reports)
        return cls(
            groups=sum(r.groups for r in reports),
            clients=clients,
            requests=sum(r.requests for r in reports),
            failed=sum(r.failed for r in reports),
            slots=sum(r.slots for r in reports),
            events=sum(r.events for r in reports),
            virtual_time=max((r.virtual_time for r in reports),
                             default=0.0),
            wall_seconds=0.0,  # refreshed by the caller
            latencies=latencies,
            per_group=per_group,
            telemetry=(ConsensusService._telemetry_snapshot(tel_groups)
                       if telemetry else None),
            tracing=(RequestTracer.merge_snapshots(tracing)
                     if tracing else None),
            metrics=(MetricsRegistry.merge_snapshots(metrics)
                     if metrics else None),
            failure_reasons=failure_reasons,
        )

    def to_dict(self, *, include_latencies: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "groups": self.groups,
            "clients": self.clients,
            "requests": self.requests,
            "failed": self.failed,
            "slots": self.slots,
            "events": self.events,
            "virtual_time": self.virtual_time,
            "wall_seconds": self.wall_seconds,
            "latency": self.latency,
            "throughput": self.throughput,
            "wall_throughput": self.wall_throughput,
            "per_group": {str(gid): stats.to_dict()
                          for gid, stats in sorted(self.per_group.items())},
        }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        if self.shards is not None:
            out["shards"] = self.shards
        if self.tracing is not None:
            out["tracing"] = self.tracing
        if self.metrics is not None:
            out["metrics"] = self.metrics
        if self.failure_reasons:
            out["failure_reasons"] = dict(sorted(
                self.failure_reasons.items()))
        if include_latencies:
            out["latencies"] = list(self.latencies)
        return out


class ConsensusService:
    """Serve a closed-loop workload over many consensus groups.

    Parameters
    ----------
    base:
        The :class:`~repro.scenario.Scenario` every group's log is
        built from (its topology, scheduler, trace level and wPAXOS
        parameters; ``max_events``/``max_time`` are per-slot budgets).
        Its algorithm must be ``wpaxos``.
    workload:
        The arrival process. Only clients pinned (by the workload's own
        deterministic choice) to a group in ``group_ids`` are replayed,
        which is how a shard serves its subset exactly.
    group_ids:
        Groups this instance serves; defaults to all of
        ``workload.groups``. A forked serve passes one group per
        instance.
    batch_size:
        Frontend batch window per slot.
    slot_trace_level:
        Trace level of every group's log (default ``"decisions"``
        keeps long serve runs lean); ``None`` keeps the base
        scenario's level.
    telemetry:
        When true, every log runs with its own
        :class:`~repro.macsim.telemetry.Telemetry` and the per-group
        accumulated counters land in ``report.telemetry``.
    horizon:
        Optional virtual-time admission deadline: arrivals past it are
        dropped (in-flight and queued work still drains).
    tracer:
        Optional :class:`~repro.macsim.service.tracing.RequestTracer`;
        when set, every finished slot records one span per request
        and the runtime runs with its engine/overhead profile on,
        both landing in ``report.tracing``.
    metrics:
        Optional
        :class:`~repro.macsim.service.tracing.MetricsRegistry`; when
        set, arrivals and commits feed its windowed time series and
        the snapshot lands in ``report.metrics``.
    """

    def __init__(self, base: Any, workload: WorkloadGenerator, *,
                 group_ids: Optional[Sequence[int]] = None,
                 batch_size: int = 8,
                 slot_trace_level: Optional[str] = "decisions",
                 telemetry: bool = False,
                 horizon: Optional[float] = None,
                 tracer: Optional[RequestTracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.base = base
        self.workload = workload
        self.tracer = tracer
        self.metrics = metrics
        if group_ids is None:
            group_ids = range(workload.groups)
        self.group_ids = sorted(group_ids)
        if not self.group_ids:
            raise ValueError("service needs at least one group")
        self.batch_size = batch_size
        self.slot_trace_level = slot_trace_level
        self.telemetry_enabled = telemetry
        self.horizon = horizon

    # ------------------------------------------------------------------
    def run(self) -> ServiceReport:
        wall_start = perf_counter()
        wl = self.workload
        tracer = self.tracer
        metrics = self.metrics
        base = self.base
        if (self.slot_trace_level is not None
                and base.trace_level != self.slot_trace_level):
            base = base.override({"trace_level": self.slot_trace_level})
        frontend = ServiceFrontend(batch_size=self.batch_size)
        runtime = GroupRuntime(base, profile=tracer is not None)
        served = self.group_ids
        stats: Dict[int, GroupStats] = {g: GroupStats() for g in served}
        slot_counts: Dict[int, int] = {g: 0 for g in served}
        busy: Dict[int, bool] = {g: False for g in served}
        latencies: List[Optional[float]] = []
        #: Per group, by slot number, where each slot's latency samples
        #: (and spans, when traced) start: a slot that fails after it
        #: was handed out takes them back.
        samples_at: Dict[int, List[int]] = {g: [] for g in served}
        spans_at: Dict[int, List[int]] = {g: [] for g in served}
        taken_back = 0
        failure_reasons: Dict[str, int] = {}
        #: Per group, the telemetry of each log it ran, in order.
        tel_logs: Dict[int, List[Any]] = {g: [] for g in served}
        committed = 0
        failed = 0
        total_slots = 0
        total_events = 0
        virtual_end = 0.0
        tel = True if self.telemetry_enabled else None

        # (wake_time, client, request_index) -- the closed loop's heap.
        heap: List[Any] = []
        for client in wl.clients_for_groups(served):
            wake = wl.think_time(client, 0)
            if self.horizon is not None and wake > self.horizon:
                continue
            heapq.heappush(heap, (wake, client, 0))

        def start_slot(gid: int, now: float) -> None:
            batch = frontend.next_batch(gid)
            if not batch:
                return
            slot = slot_counts[gid]
            slot_counts[gid] = slot + 1
            command = tuple([(req.client, req.index) for req in batch])
            runtime.add_group(command, group_id=gid, start_time=now,
                              telemetry=tel, context=(batch, slot))
            busy[gid] = True
            if runtime._revoked:
                revoke()

        def commit(run: GroupRun) -> None:
            nonlocal committed, failed, total_slots, total_events
            nonlocal virtual_end
            gid = run.group_id
            batch, slot = run.context
            busy[gid] = False
            t_commit = run.finish_time
            reason = run.failure
            ok = reason is None
            events = run.result.events_processed
            gstats = stats[gid]
            gstats.slots += 1
            gstats.events += events
            gstats.last_commit = max(gstats.last_commit, t_commit)
            total_slots += 1
            total_events += events
            virtual_end = max(virtual_end, t_commit)
            logs = tel_logs[gid]
            if run.telemetry is not None and not (
                    logs and logs[-1] is run.telemetry):
                logs.append(run.telemetry)
            samples_at[gid].append(len(latencies))
            if tracer is not None:
                spans_at[gid].append(len(tracer.records))
                # The slot stops the instant its first replica commits.
                tracer.record_slot(group=gid, slot=slot, batch=batch,
                                   start=run.start_time,
                                   decide=t_commit, reply=t_commit,
                                   ok=ok, stop_reason=reason or "committed")
            if not ok:
                failure_reasons[reason] = (
                    failure_reasons.get(reason, 0) + len(batch))
            for req in batch:
                if ok:
                    committed += 1
                    gstats.requests += 1
                    latencies.append(t_commit - req.arrival)
                    if metrics is not None:
                        metrics.record_commit(t_commit, gid,
                                              t_commit - req.arrival)
                else:
                    failed += 1
                    gstats.failed += 1
                    if metrics is not None:
                        metrics.record_failure(t_commit, gid)
                nxt = req.index + 1
                if nxt < wl.requests_per_client:
                    wake = t_commit + wl.think_time(req.client, nxt)
                    if self.horizon is not None and wake > self.horizon:
                        continue
                    heapq.heappush(heap, (wake, req.client, nxt))
            if frontend.pending(gid):
                start_slot(gid, t_commit)

        def revoke() -> None:
            """Count the requests of every slot the runtime failed
            after it was handed out (a group's slot is handed out
            before its next one starts, so each was counted committed)
            as failed under ``"unverified"``."""
            nonlocal committed, failed, taken_back
            for gid, slot, t_commit, command in runtime._revoked:
                lost = len(command)
                committed -= lost
                failed += lost
                gstats = stats[gid]
                gstats.requests -= lost
                gstats.failed += lost
                failure_reasons["unverified"] = (
                    failure_reasons.get("unverified", 0) + lost)
                at = samples_at[gid][slot]
                samples = latencies[at:at + lost]
                latencies[at:at + lost] = [None] * lost
                taken_back += lost
                if tracer is not None:
                    at = spans_at[gid][slot]
                    for span in tracer.records[at:at + lost]:
                        span["ok"] = False
                        span["stop_reason"] = "unverified"
                if metrics is not None:
                    for latency in samples:
                        metrics._revoke_commit(t_commit, gid, latency)
            runtime._revoked.clear()

        while True:
            t_wake = heap[0][0] if heap else None
            t_slot = runtime.next_time()
            if t_slot is None and t_wake is None:
                break
            if t_slot is not None and (t_wake is None or t_slot <= t_wake):
                for run in runtime.advance(until=t_wake):
                    commit(run)
                continue
            wake, client, index = heapq.heappop(heap)
            gid = wl.client_group(client)
            frontend.submit(Request(client=client, index=index,
                                    group=gid, arrival=wake))
            virtual_end = max(virtual_end, wake)
            if metrics is not None:
                metrics.record_arrival(wake, gid)
            if not busy[gid]:
                start_slot(gid, wake)

        # Every log flushes and goes quiet, and is compared whole: an
        # entry a replica learned after its slot ended is checked here.
        for gid, events in runtime._drain():
            stats[gid].events += events
            total_events += events
        revoke()
        if taken_back:
            latencies = [x for x in latencies if x is not None]

        telemetry = None
        if self.telemetry_enabled:
            telemetry = self._telemetry_snapshot({
                gid: self._group_telemetry(tel_logs[gid],
                                           stats[gid].slots)
                for gid in served if stats[gid].slots})
        tracing = None
        if tracer is not None:
            tracing = tracer.snapshot(
                scheduler=runtime.scheduler_profile())
        metrics_doc = None
        if metrics is not None:
            metrics.set_queue_peaks(frontend.queue_peaks())
            metrics.add_counter("frontend_submitted", frontend.submitted)
            metrics.add_counter("slots_committed", total_slots)
            metrics.add_counter("engine_events", total_events)
            if telemetry is not None:
                heap_keys = ("events_pushed", "events_popped")
                counters = telemetry["totals"]["counters"]
                for key in heap_keys:
                    if key in counters:
                        metrics.add_counter(f"engine_{key}",
                                            counters[key])
            metrics_doc = metrics.snapshot()
            metrics.flush()
        return ServiceReport(
            groups=len(served),
            clients=wl.clients,
            requests=committed,
            failed=failed,
            slots=total_slots,
            events=total_events,
            virtual_time=virtual_end,
            wall_seconds=perf_counter() - wall_start,
            latencies=latencies,
            per_group=stats,
            telemetry=telemetry,
            tracing=tracing,
            metrics=metrics_doc,
            failure_reasons=failure_reasons,
        )

    # ------------------------------------------------------------------
    # Telemetry attribution
    # ------------------------------------------------------------------
    @staticmethod
    def _group_telemetry(logs: Sequence[Any],
                         slots: int) -> Dict[str, Any]:
        """One group's accumulated telemetry: the sum over its logs,
        each of whose :class:`~repro.macsim.telemetry.Telemetry` is
        cumulative over that log's slots."""
        acc: Dict[str, Any] = {"slots": slots, "events_processed": 0,
                               "wall_seconds": 0.0, "counters": {}}
        counters = acc["counters"]
        for tel in logs:
            acc["events_processed"] += tel.events_processed
            acc["wall_seconds"] += tel.wall_seconds
            for key, value in tel.counters.items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    counters[key] = counters.get(key, 0) + value
        return acc

    @staticmethod
    def _telemetry_snapshot(
            tel_groups: Dict[int, Dict[str, Any]]) -> Dict[str, Any]:
        totals = {"slots": 0, "events_processed": 0,
                  "wall_seconds": 0.0}
        counters: Dict[str, Any] = {}
        for acc in tel_groups.values():
            totals["slots"] += acc["slots"]
            totals["events_processed"] += acc["events_processed"]
            totals["wall_seconds"] += acc["wall_seconds"]
            for key, value in acc["counters"].items():
                counters[key] = counters.get(key, 0) + value
        totals["counters"] = counters
        return {
            "schema": "service-telemetry/v1",
            "groups": {str(gid): acc
                       for gid, acc in sorted(tel_groups.items())},
            "totals": totals,
        }
