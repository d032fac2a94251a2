"""The consensus service: a closed-loop virtual-time serve driver.

Ties the pieces together: a :class:`WorkloadGenerator` produces client
arrivals, the :class:`ServiceFrontend` batches proposals into per-group
consensus *slots*, and a :class:`GroupRuntime` runs each slot to
completion and hands the finished slots back in virtual-time order.
Each slot is a fresh consensus instance whose scenario derives
deterministically from the base scenario and the ``(group, slot)``
coordinate (see :func:`slot_scenario`), so any slot -- and therefore
the whole service run -- is reproducible from the seeds alone. The
base is resolved once into a template; a slot only rebuilds what its
seed feeds (``ResolvedScenario.reseed``).

Running a slot ahead of the virtual clock is unobservable: its batch
is fixed when it starts, every client is pinned to one group, a group
runs one slot at a time, and groups share no state -- so the only
thing the loop needs from a slot is *when* it finished, and it
commits slots strictly in ``(finish time, start order)``.

A request's end-to-end latency is ``commit - arrival`` in virtual time
(the engine's ``F_ack`` units): queueing delay behind the group's
current slot plus the consensus decision time of the slot that carries
it. Throughput is committed requests per virtual time unit. A slot
commits only when every correct node decided; one that ran out of
events or time first fails its whole batch, counted under the engine's
terminal ``stop_reason``.

Determinism: byte-identity anchor
---------------------------------

``slot_scenario(base, group, 0)`` for the first group **is** ``base``
(group 0, slot 0 derives the identity seed), so a 1-group service run
with ``capture_first_slot=True`` holds a trace byte-identical to
``base.simulate()`` -- the acceptance pin the tests and the
``repro serve --trace-out`` path enforce.
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
           "latency_summary", "slot_scenario", "slot_seed"]

_SLOT_GROUP_SALT = 2654435761
_SLOT_INDEX_SALT = 2246822519
_SEED_MASK = (1 << 31) - 1


def slot_seed(seed: int, group: int, slot: int) -> int:
    """Derive the consensus seed for ``(group, slot)``.

    ``slot_seed(seed, 0, 0) == seed``: the first slot of group 0 runs
    the base scenario unchanged, which anchors the service's
    byte-identity contract against ``Scenario.simulate()``.
    """
    return seed ^ ((group * _SLOT_GROUP_SALT
                    + slot * _SLOT_INDEX_SALT) & _SEED_MASK)


def slot_scenario(base: Any, group: int, slot: int) -> Any:
    """The scenario a given slot executes: ``base`` reseeded for the
    ``(group, slot)`` coordinate (identity for group 0, slot 0)."""
    seed = slot_seed(base.seed, group, slot)
    if seed == base.seed:
        return base
    return base.override({"seed": seed})


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
    #: Failed requests by the terminal ``stop_reason`` of their slot.
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
        The :class:`~repro.scenario.Scenario` every slot derives from
        (its seed is re-derived per slot; everything else -- algorithm,
        topology, scheduler, faults -- is shared service configuration).
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
        Trace level for slot scenarios (default ``"decisions"`` keeps
        long serve runs lean); ``None`` keeps the base scenario's
        level. The captured first slot always keeps the base level so
        byte-identity compares full traces.
    telemetry:
        When true, every slot runs with its own
        :class:`~repro.macsim.telemetry.Telemetry` and the per-group
        accumulated counters land in ``report.telemetry``.
    capture_first_slot:
        Keep the first served group's slot-0 trace (and its scenario)
        on ``self.first_slot_trace`` / ``self.first_slot_scenario``
        for export/byte-identity checks.
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
                 capture_first_slot: bool = False,
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
        self.capture_first_slot = capture_first_slot
        self.horizon = horizon
        self.first_slot_trace: Any = None
        self.first_slot_scenario: Any = None

    # ------------------------------------------------------------------
    def run(self) -> ServiceReport:
        wall_start = perf_counter()
        wl = self.workload
        tracer = self.tracer
        metrics = self.metrics
        base = self.base
        slot_base = base
        if (self.slot_trace_level is not None
                and base.trace_level != self.slot_trace_level):
            slot_base = base.override(
                {"trace_level": self.slot_trace_level})
        template = slot_base.resolve()
        frontend = ServiceFrontend(batch_size=self.batch_size)
        runtime = GroupRuntime(profile=tracer is not None)
        served = self.group_ids
        stats: Dict[int, GroupStats] = {g: GroupStats() for g in served}
        slot_counts: Dict[int, int] = {g: 0 for g in served}
        busy: Dict[int, bool] = {g: False for g in served}
        latencies: List[float] = []
        failure_reasons: Dict[str, int] = {}
        tel_groups: Dict[int, Dict[str, Any]] = {}
        committed = 0
        failed = 0
        total_slots = 0
        total_events = 0
        virtual_end = 0.0
        capture_group = served[0] if self.capture_first_slot else None

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
            capture = (gid == capture_group and slot == 0)
            if capture:
                # The captured slot keeps the base trace level.
                resolved = slot_scenario(base, gid, slot).resolve()
                self.first_slot_scenario = resolved.scenario
            else:
                resolved = template.reseed(
                    slot_seed(base.seed, gid, slot))
            tel = True if self.telemetry_enabled else None
            runtime.add_group(resolved, group_id=gid, start_time=now,
                              telemetry=tel,
                              context=(batch, slot, capture))
            busy[gid] = True

        def commit(run: GroupRun) -> None:
            nonlocal committed, failed, total_slots, total_events
            nonlocal virtual_end
            gid = run.group_id
            batch, _slot, capture = run.context
            busy[gid] = False
            t_commit = run.finish_time
            ok = run.result.all_decided
            reason = run.result.stop_reason
            gstats = stats[gid]
            gstats.slots += 1
            gstats.events += run.result.events_processed
            gstats.last_commit = max(gstats.last_commit, t_commit)
            total_slots += 1
            total_events += run.result.events_processed
            virtual_end = max(virtual_end, t_commit)
            if capture:
                self.first_slot_trace = run.result.trace
            if run.telemetry is not None:
                self._accumulate_telemetry(tel_groups, gid, run)
            if tracer is not None:
                times = run.result.decision_times
                t_decide = (run.start_time + max(times.values())
                            if times else t_commit)
                tracer.record_slot(group=gid, slot=_slot, batch=batch,
                                   start=run.start_time,
                                   decide=t_decide, reply=t_commit,
                                   ok=ok, stop_reason=reason)
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

        while heap or runtime.active_groups:
            t_wake = heap[0][0] if heap else None
            t_slot = runtime.next_time()
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

        telemetry = None
        if self.telemetry_enabled:
            telemetry = self._telemetry_snapshot(tel_groups)
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
    def _accumulate_telemetry(tel_groups: Dict[int, Dict[str, Any]],
                              gid: int, run: GroupRun) -> None:
        tel = run.telemetry
        acc = tel_groups.get(gid)
        if acc is None:
            acc = tel_groups[gid] = {
                "slots": 0, "events_processed": 0,
                "wall_seconds": 0.0, "counters": {},
            }
        acc["slots"] += 1
        acc["events_processed"] += tel.events_processed
        acc["wall_seconds"] += tel.wall_seconds
        counters = acc["counters"]
        for key, value in tel.counters.items():
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                counters[key] = counters.get(key, 0) + value

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
