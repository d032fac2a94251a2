"""Which public entry points the traced repeat wraps, layer by layer,
and how the recorded spans reduce to the per-layer metrics.

A layer is a repo module. Wrappers go over the attributes callers
already use (``Scenario.resolve``, a scheduler's ``plan``, an
algorithm's handlers, the sink's ``record`` ...), found by walking the
imported subclasses rather than by a per-workload list, so a workload
that swaps its algorithm or scheduler is still attributed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Any, Dict, List

from .catalogue import PER_LAYER
from .stats import iqr_frac, nearest_rank
from .tracer import END, NAME, START, Tracer, all_subclasses

_HANDLERS = ("on_start", "on_receive", "on_ack", "broadcast")
_METRICS_REGISTRY_CALLS = ("record_arrival", "record_commit",
                           "record_failure", "set_queue_peaks",
                           "add_counter", "snapshot", "flush")


@dataclass
class Probes:
    """What the wrappers read off public arguments and results."""

    sim_events: int = 0
    slots: int = 0
    slot_events: int = 0
    slot_slices: int = 0
    #: Per request, in virtual time: wait in the frontend queue before
    #: its slot started, and that slot's consensus time.
    queue_wait: List[float] = field(default_factory=list)
    service_time: List[float] = field(default_factory=list)
    frontends: List[Any] = field(default_factory=list)


def install(tracer: Tracer) -> Probes:
    """Assign the ledger's wrappers over every layer's entry points."""
    from repro.analysis import cache as cache_module
    from repro.analysis import metrics as metrics_module
    from repro.analysis import runner as runner_module
    from repro.experiments.common import ExperimentReport
    from repro.macsim import invariants as invariants_module
    from repro.macsim.columnar import ColumnarSink
    from repro.macsim.process import Process
    from repro.macsim.schedulers.base import Scheduler
    from repro.macsim.service import (ConsensusService, GroupRuntime,
                                      MetricsRegistry, RequestTracer,
                                      ServiceFrontend, WorkloadGenerator)
    from repro.macsim.simulator import Simulator
    from repro.macsim.trace import TraceSink
    from repro.scenario import ResolvedScenario, Scenario

    probes = Probes()

    def span(name: str, **hooks):
        return lambda fn: tracer.span_wrapper(name, fn, **hooks)

    def fold(name: str, **hooks):
        return lambda fn: tracer.fold_wrapper(name, fn, **hooks)

    def patch_own(root: type, attrs, name_of) -> None:
        for cls in all_subclasses(root):
            for attr in attrs:
                if attr in vars(cls):
                    tracer.patch_attr(cls, attr, fold(name_of(attr)))

    # scenario
    tracer.patch_attr(Scenario, "override", fold("scenario.override"))
    tracer.patch_attr(Scenario, "resolve", span("scenario.resolve"))
    tracer.patch_attr(ResolvedScenario, "build", span("scenario.build"))
    # macsim.schedulers, core handlers, macsim.trace / macsim.columnar
    patch_own(Scheduler, ("plan",), lambda attr: "schedulers.plan")
    patch_own(Process, _HANDLERS, lambda attr: f"handlers.{attr}")
    patch_own(TraceSink, ("record", "flush"), lambda attr: f"sink.{attr}")
    tracer.patch_attr(ColumnarSink, "load", span("columnar.load"))

    # macsim.simulator
    def count_events(args, kwargs, result) -> None:
        probes.sim_events += result.events_processed

    tracer.patch_attr(Simulator, "run",
                      fold("simulator.run", after=count_events))

    # macsim.service
    def slot_key(args, kwargs):
        context = kwargs.get("context")
        slot = context[1] if isinstance(context, tuple) else None
        return (kwargs.get("group_id"), slot)

    def note_admission(args, kwargs) -> None:
        context = kwargs.get("context")
        if isinstance(context, tuple):
            start = kwargs.get("start_time", 0.0)
            probes.queue_wait.extend(start - request.arrival
                                     for request in context[0])

    def note_commits(args, kwargs, finished) -> None:
        for run in finished:
            probes.slots += 1
            probes.slot_events += run.result.events_processed
            probes.slot_slices += run.slices
            if isinstance(run.context, tuple):
                probes.service_time.extend(
                    [run.finish_time - run.start_time]
                    * len(run.context[0]))

    def note_frontend(args, kwargs, result) -> None:
        if args[0] not in probes.frontends:
            probes.frontends.append(args[0])

    tracer.patch_attr(ConsensusService, "run", span("service.loop"))
    tracer.patch_attr(GroupRuntime, "add_group",
                      span("service.add_group", key_of=slot_key,
                           before=note_admission))
    tracer.patch_attr(GroupRuntime, "advance",
                      span("service.advance", after=note_commits))
    tracer.patch_attr(ServiceFrontend, "next_batch",
                      fold("service.frontend", after=note_frontend))
    tracer.patch_attr(ServiceFrontend, "submit",
                      fold("service.frontend"))
    for attr in ("think_time", "client_group"):
        tracer.patch_attr(WorkloadGenerator, attr,
                          fold("service.workload"))
    for attr in ("record_slot", "snapshot"):
        tracer.patch_attr(RequestTracer, attr, fold("service.tracer"))
    for attr in _METRICS_REGISTRY_CALLS:
        tracer.patch_attr(MetricsRegistry, attr, fold("service.metrics"))

    # analysis.sweeps / analysis.cache / analysis.manifests, replay
    tracer.patch_attr(cache_module.ResultCache, "get", fold("cache.get"))
    tracer.patch_attr(cache_module.ResultCache, "put", fold("cache.put"))
    tracer.patch_attr(ExperimentReport, "render",
                      fold("manifests.render"))
    tracer.patch_function(runner_module.run_consensus,
                          span("sweeps.cell"))
    tracer.patch_function(invariants_module.check_model_invariants,
                          span("invariants.check"))
    tracer.patch_function(invariants_module.check_consensus,
                          span("consensus.check"))
    tracer.patch_function(metrics_module.collect_metrics,
                          span("metrics.collect"))
    return probes


def queue_ops_per_s(ops: int) -> float:
    """Stand-alone ``EventQueue`` rate for ``ops`` pushes and as many
    pops: what the heap alone costs for the run's own operation count,
    with no dispatch around it."""
    from repro.macsim.events import DELIVER_PRIORITY, EventQueue
    ops = max(1, ops)
    rng = random.Random(0)
    jitter = [rng.random() for _ in range(4096)]
    queue = EventQueue()
    start = perf_counter()
    for i in range(ops):
        queue.push_light((i >> 12) + jitter[i & 4095], DELIVER_PRIORITY,
                         "deliver", i, i)
    while queue.pop_entry() is not None:
        pass
    return 2 * ops / (perf_counter() - start)


def budget_rows(totals: Dict[str, Dict[str, float]],
                traced_wall: float) -> List[Dict[str, Any]]:
    """The wall-time budget: self time per boundary, largest first.
    The rows' self times sum to the traced wall by construction."""
    rows = [{"name": name, "calls": row["calls"],
             "total_s": row["total_s"], "self_s": row["self_s"],
             "share": row["self_s"] / traced_wall if traced_wall else 0.0}
            for name, row in totals.items()]
    rows.sort(key=lambda row: -row["self_s"])
    return rows


def layer_share(totals: Dict[str, Dict[str, float]], prefix: str,
                traced_wall: float) -> float:
    """Self time of every boundary under ``prefix`` as a share of the
    traced wall."""
    own = sum(row["self_s"] for name, row in totals.items()
              if name.startswith(prefix))
    return own / traced_wall if traced_wall else 0.0


def per_layer_metrics(*, tracer: Tracer,
                      totals: Dict[str, Dict[str, float]],
                      probes: Probes, traced, timed: list,
                      import_s: float, warmup_s: float,
                      cpu_s: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric for one workload; a layer the
    workload never enters reads 0.

    ``totals`` is ``tracer.totals()``, ``traced`` the traced repeat's
    outcome and ``timed`` the untraced repeats' outcomes.
    """
    out: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    traced_wall = tracer.wall_s

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    for name in ("scenario.override", "scenario.resolve",
                 "scenario.build", "simulator.run", "sink.record",
                 "service.workload", "service.frontend",
                 "service.advance", "cache.put", "cache.get",
                 "handlers.on_receive", "handlers.on_ack",
                 "handlers.broadcast"):
        out[f"{name}_calls"] = calls(name)
        out[f"{name}_s"] = total(name)
    # Wrapped schedulers nest (a silencing scheduler plans through its
    # inner one), so the layer's time is the self times' sum.
    out["schedulers.plan_calls"] = calls("schedulers.plan")
    out["schedulers.plan_s"] = own("schedulers.plan")
    out["handlers.on_start_s"] = total("handlers.on_start")
    out["columnar.flush_calls"] = calls("sink.flush")
    out["columnar.flush_s"] = total("sink.flush")

    counters = ((traced.extras.get("telemetry") or {}).get("counters")
                or {})
    out["events.pushed"] = counters.get("events_pushed", 0)
    out["events.popped"] = counters.get("events_popped", 0)
    out["events.cancelled"] = counters.get("events_cancelled", 0)
    out["events.compactions"] = counters.get("heap_compactions", 0)
    if out["events.pushed"]:
        out["events.queue_ops_per_s"] = queue_ops_per_s(
            int(out["events.pushed"]))

    out["simulator.run_self_s"] = own("simulator.run")
    out["simulator.events"] = probes.sim_events
    if total("simulator.run"):
        out["simulator.events_per_s"] = (probes.sim_events
                                         / total("simulator.run"))

    out["columnar.chunks"] = traced.extras.get("chunks", 0)
    if traced.extras.get("records"):
        records = traced.extras["records"]
        out["columnar.bytes_per_record"] = (traced.extras["bytes"]
                                            / records)
        if total("invariants.check"):
            out["invariants.records_per_s"] = (
                records / total("invariants.check"))
    out["invariants.check_s"] = total("invariants.check")
    out["metrics.collect_s"] = total("metrics.collect")
    out["columnar.load_s"] = total("columnar.load")
    out["consensus.check_s"] = total("consensus.check")

    if probes.slots:
        out["simulator.slices_per_slot"] = (probes.slot_slices
                                            / probes.slots)
        out["service.batch_mean"] = (len(probes.service_time)
                                     / probes.slots)
        out["service.slots"] = probes.slots
        out["service.events_per_slot"] = (probes.slot_events
                                          / probes.slots)
        out["service.virt_queue_p50"] = nearest_rank(
            probes.queue_wait, 0.50)
        out["service.virt_service_p50"] = nearest_rank(
            probes.service_time, 0.50)
    peaks = [depth for frontend in probes.frontends
             for depth in frontend.queue_peaks().values()]
    out["service.queue_peak"] = max(peaks, default=0)
    out["service.add_group_s"] = total("service.add_group")
    out["service.advance_self_s"] = own("service.advance")
    out["service.loop_self_s"] = own("service.loop")
    out["service.tracer_s"] = total("service.tracer")
    out["service.metrics_s"] = total("service.metrics")

    # Forked work is invisible to the wrappers: the shard and sweep
    # rows come from the timed repeats' own public outputs.
    shard_rows = [outcome.extras.get("shards") or [] for outcome in timed]
    if any(len(rows) > 1 for rows in shard_rows):
        maxima, imbalance, fork_merge = [], [], []
        for outcome, rows in zip(timed, shard_rows):
            walls = [row["wall_seconds"] for row in rows]
            maxima.append(max(walls))
            imbalance.append(max(walls) / (sum(walls) / len(walls)))
            fork_merge.append(outcome.wall_s - max(walls))
        out["sharded.shard_wall_max_s"] = median(maxima)
        out["sharded.shard_imbalance"] = median(imbalance)
        out["sharded.fork_merge_s"] = median(fork_merge)

    if calls("sweeps.cell") and "warm_pass_s" in traced.extras:
        cell_walls = [span[END] - span[START] for span in tracer.spans
                      if span[NAME] == "sweeps.cell"]
        out["sweeps.cells"] = median([o.work for o in timed])
        out["sweeps.cell_s_sum"] = sum(cell_walls)
        out["sweeps.cell_max_s"] = max(cell_walls)
        out["sweeps.parallel_efficiency"] = median(
            [o.extras["cold_cpu_s"]
             / (o.extras["workers"] * o.wall_s) for o in timed])
        out["cache.warm_pass_s"] = median(
            [o.extras["warm_pass_s"] for o in timed])
        out["cache.warm_hit_ratio"] = min(
            o.extras["warm_hit_ratio"] for o in timed)
        out["cache.bytes"] = traced.extras["cache_bytes"]
        out["manifests.render_s"] = total("manifests.render")
        for eid in ("E1", "E2", "E3", "E9", "E12", "E13"):
            out[f"regen.{eid}_s"] = total(f"regen.{eid}")

    timed_walls = [o.wall_s for o in timed]
    # The traced repeat runs forked work inline, so its base is the
    # timed repeats' serial cost (shard walls summed, sweep CPU), not
    # their parallel wall.
    base_wall = median([o.extras.get("serial_s", o.wall_s)
                        for o in timed])
    out["cli.import_s"] = import_s
    out["bench.warmup_s"] = warmup_s
    out["bench.cpu_s"] = cpu_s
    out["bench.virt_p99"] = nearest_rank(traced.virt, 0.99)
    out["bench.iqr_frac"] = iqr_frac(timed_walls)
    out["bench.trace_overhead_frac"] = traced_wall / base_wall - 1.0
    out["bench.unattributed_frac"] = (tracer.unattributed_s
                                      / traced_wall)
    return out
