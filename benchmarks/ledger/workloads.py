"""The five workloads: what each builds from the seed, runs and checks.

Every workload is ``build(seed, smoke) -> inputs`` (the part
``setup_s`` times, together with importing ``repro``) and
``run(inputs, tracer) -> Outcome`` (one repeat). ``run`` times only
the workload's *measured region* and does its verification outside
it. With a tracer the repeat runs the same work in-process (shards
inline, serial sweep executor): forked work is invisible to wrappers.

Nothing here imports from the legacy ``benchmarks/*.py`` harness.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import resource
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from .stats import latency_digest

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
#: Everything the benchmark writes (traces, results, temp dirs) lands
#: here, inside the checkout.
OUT_DIR = LEDGER_DIR / "out"


def import_repro() -> float:
    """Put the checkout's ``src`` on the path and import the package
    the way ``repro serve``/``repro regen`` would; returns seconds."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmarks.ledger: no repro package at {SRC_DIR}; the "
            f"ledger measures the source tree it sits in")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    start = perf_counter()
    importlib.import_module("repro")
    importlib.import_module("repro.macsim.service")
    importlib.import_module("repro.analysis.manifests")
    return perf_counter() - start


def nproc() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def scratch_dir(prefix: str) -> tempfile.TemporaryDirectory:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=prefix, dir=OUT_DIR)


@dataclass
class Outcome:
    """One repeat: the measured wall, the checked work, the samples."""

    wall_s: float
    #: Consecutive pieces of the measured region, summing to
    #: ``wall_s``; the same pieces in the same order on every repeat.
    segments: List[float]
    #: Fixed work count in the workload's unit (requests, events, cells).
    work: int
    attempted: int
    failed: int
    #: Virtual-time completion samples in F_ack units.
    virt: List[float]
    #: Digest of the outputs that must be identical on every repeat.
    digest: str
    #: ``(check name, passed, detail)``.
    checks: List[tuple] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def _span(tracer, name: str, key: Any = None):
    return tracer.span(name, key) if tracer is not None else nullcontext()


class Measured:
    """A workload's measured region: the wall clock every repeat
    reports and, on the traced repeat, the root span the budget must
    sum to -- one boundary for both, so traced and timed walls compare
    like for like.

    :meth:`lap` cuts the region into segments wherever the public API
    lets the work pause (the engine resumes a ``max_events`` stop
    event for event; each experiment driver is its own call). Short
    segments are what make the timing steady: the runner keeps each
    segment's fastest repeat (see ``runner.composite_wall``).
    """

    def __init__(self, tracer, name: str) -> None:
        self._span = _span(tracer, "bench.repeat", name)
        self.segments: List[float] = []
        self.wall_s = 0.0

    def __enter__(self) -> "Measured":
        self._span.__enter__()
        self._start = self._lap = perf_counter()
        return self

    def lap(self) -> None:
        now = perf_counter()
        self.segments.append(now - self._lap)
        self._lap = now

    def __exit__(self, *exc_info) -> None:
        self.lap()
        self.wall_s = self._lap - self._start
        self._span.__exit__(*exc_info)


@dataclass
class Workload:
    name: str
    why: str
    work_unit: str
    build: Callable[[int, bool], Dict[str, Any]]
    run: Callable[[Dict[str, Any], Any], Outcome]
    #: Cold-by-construction workloads skip the warm-up repeat.
    warmup: bool = True


# ---------------------------------------------------------------------
# serve_zipf8 / serve_full2
# ---------------------------------------------------------------------
_SERVE_SIZES = {
    # name: (groups, clients, requests per client, shards, observed)
    "serve_zipf8": (8, 200, 10, 1, False),
    "serve_full2": (8, 200, 16, 2, True),
}
_SERVE_SMOKE = (2, 24, 3)


def _build_serve(name: str):
    groups, clients, per_client, shards, observed = _SERVE_SIZES[name]

    def build(seed: int, smoke: bool) -> Dict[str, Any]:
        from repro.macsim.service import WorkloadGenerator
        from repro.scenario import (AlgorithmSpec, Scenario,
                                    SchedulerSpec, TopologySpec)
        g, c, r = _SERVE_SMOKE if smoke else (groups, clients, per_client)
        base = Scenario(
            algorithm=AlgorithmSpec("wpaxos"),
            topology=TopologySpec("clique", n=5),
            scheduler=SchedulerSpec("synchronous", f_ack=1.0),
            seed=seed)
        workload = WorkloadGenerator(
            groups=g, clients=c, seed=seed, zipf_s=1.1, think_mu=3.0,
            think_sigma=1.0, requests_per_client=r)
        return {"name": name, "base": base, "workload": workload,
                "f_ack": 1.0, "expected": c * r,
                "shards": min(shards, nproc()), "observed": observed}
    return build


def _run_serve(inputs: Dict[str, Any], tracer) -> Outcome:
    from repro.macsim.service import ShardedService
    observed = inputs["observed"]
    traced = tracer is not None
    service = ShardedService(
        inputs["base"], inputs["workload"],
        shards=1 if traced else inputs["shards"], batch_size=8,
        # The traced repeat reads the engine's heap counters off the
        # per-slot Telemetry, so it switches telemetry on even where
        # the timed repeats run bare.
        telemetry=observed or traced, progress=False,
        trace_requests=observed,
        metrics_window=50.0 if observed else None)
    with Measured(tracer, inputs["name"]) as region:
        report = service.run()

    f_ack = inputs["f_ack"]
    expected = inputs["expected"]
    out = Outcome(
        wall_s=region.wall_s, segments=region.segments,
        work=report.requests, attempted=expected,
        failed=expected - report.requests,
        virt=[lat / f_ack for lat in report.latencies],
        digest=latency_digest(report.latencies),
        extras={"shards": report.shards or [],
                "serial_s": (sum(row["wall_seconds"]
                                 for row in report.shards)
                             if len(report.shards or ()) > 1
                             else region.wall_s),
                "telemetry": (report.telemetry or {}).get("totals")})
    out.check("no request failed", report.failed == 0,
              f"{report.failed} failed")
    out.check("every request committed", report.requests == expected,
              f"{report.requests} of {expected}")
    out.check("one latency per request",
              len(report.latencies) == expected,
              f"{len(report.latencies)} samples")
    if observed:
        out.check("observers reported",
                  report.tracing is not None
                  and report.metrics is not None
                  and report.telemetry is not None)
    return out


# ---------------------------------------------------------------------
# wpaxos_grid20
# ---------------------------------------------------------------------
def _build_grid(seed: int, smoke: bool) -> Dict[str, Any]:
    from repro.scenario import (AlgorithmSpec, Scenario, SchedulerSpec,
                                TopologySpec)
    side = 5 if smoke else 20
    scenario = Scenario(
        algorithm=AlgorithmSpec("wpaxos"),
        topology=TopologySpec("grid", rows=side, cols=side),
        scheduler=SchedulerSpec("random", f_ack=1.0),
        seed=seed, trace_level="decisions")
    return {"scenario": scenario, "n": side * side,
            "diameter": 2 * (side - 1), "f_ack": 1.0,
            "slice_events": 1_000 if smoke else 25_000}


def _run_sliced(sim, region: "Measured", slice_events: int, *,
                max_events: int, max_time: float):
    """``sim.run`` to its terminal state in ``slice_events`` pieces,
    one timed segment each. A ``max_events`` stop resumes exactly
    where it left off, so the events and the trace are those of one
    uninterrupted call. Returns the last result and the event total."""
    events = 0
    while True:
        result = sim.run(max_events=min(slice_events, max_events - events),
                         max_time=max_time)
        events += result.events_processed
        region.lap()
        if result.stop_reason != "max_events" or events >= max_events:
            return result, events


def _run_grid(inputs: Dict[str, Any], tracer) -> Outcome:
    from repro.macsim import Telemetry, check_consensus
    scenario = inputs["scenario"]
    telemetry = Telemetry() if tracer is not None else None
    with Measured(tracer, "wpaxos_grid20") as region:
        resolved = scenario.resolve()
        sim = resolved.build(telemetry=telemetry)
        region.lap()
        result, events = _run_sliced(sim, region, inputs["slice_events"],
                                     max_events=scenario.max_events,
                                     max_time=scenario.max_time)
        result.trace.close()
        report = check_consensus(result.trace, resolved.initial_values)

    n, f_ack = inputs["n"], inputs["f_ack"]
    times = sorted(result.decision_times.values())
    bound = 5 * inputs["diameter"] * f_ack
    out = Outcome(
        wall_s=region.wall_s, segments=region.segments, work=events,
        attempted=n, failed=n - len(times),
        virt=[t / f_ack for t in times],
        digest=latency_digest(times),
        extras={"telemetry": ({"counters": telemetry.counters}
                              if telemetry is not None else None)})
    out.check("agreement, validity, termination", report.ok,
              f"agreement={report.agreement} validity={report.validity} "
              f"termination={report.termination}")
    out.check("every node decided",
              result.stop_reason == "all_decided" and len(times) == n,
              f"{len(times)} of {n}, stop={result.stop_reason}")
    out.check("decided within 5*D*F_ack",
              bool(times) and times[-1] <= bound,
              f"max {times[-1] if times else None} vs bound {bound}")
    return out


# ---------------------------------------------------------------------
# columnar_flood24
# ---------------------------------------------------------------------
def _build_flood(seed: int, smoke: bool) -> Dict[str, Any]:
    from repro.macsim.columnar import have_numpy
    from repro.topology import clique
    if not have_numpy():
        raise SystemExit(
            "columnar_flood24 needs numpy: without it the replay runs "
            "the record-loop fallback, which is a different workload")
    n = 24
    min_events = 20_000 if smoke else 1_000_000
    base = min_events // (n * n) + 1
    # The seed spreads the per-node round budgets (+-5%, mirrored so
    # their sum, and with it the event count, is the same for every
    # seed) and draws the inputs; nodes then finish -- "decide" -- at
    # different virtual times.
    rng = random.Random(seed)
    half = [rng.randint(-(base // 20), base // 20) for _ in range(n // 2)]
    rounds = [base + d for d in half] + [base - d for d in half]
    rng.shuffle(rounds)
    graph = clique(n)
    labels = list(graph.nodes)
    total_rounds = sum(rounds)
    return {
        "graph": graph, "n": n, "f_ack": 1.0,
        "rounds": dict(zip(labels, rounds)),
        "values": {v: rng.randint(0, 1) for v in labels},
        # A broadcast is n-1 deliveries and one ack.
        "events": total_rounds * n,
        # ... plus its own record, and one decide per node.
        "records": total_rounds * (n + 1) + n,
        "deadline": float(max(rounds)) + 10.0,
        "chunk_records": 2_000 if smoke else 50_000,
        "slice_events": 2_000 if smoke else 50_000,
    }


def _run_flood(inputs: Dict[str, Any], tracer) -> Outcome:
    from repro.analysis import collect_metrics
    from repro.macsim import (ColumnarSink, Telemetry, build_simulation,
                              check_model_invariants)
    from repro.macsim.schedulers import SynchronousScheduler
    from .flood import FloodProcess
    graph, values, rounds = (inputs["graph"], inputs["values"],
                             inputs["rounds"])
    n, f_ack = inputs["n"], inputs["f_ack"]
    telemetry = Telemetry() if tracer is not None else None
    label = f"clique({n})"
    with scratch_dir("flood-") as spill:
        chunk_dir = os.path.join(spill, "chunks")
        with Measured(tracer, "columnar_flood24") as region:
            sink = ColumnarSink(chunk_dir,
                                chunk_records=inputs["chunk_records"])
            sim = build_simulation(
                graph, lambda v: FloodProcess(v, values[v], rounds[v]),
                SynchronousScheduler(f_ack), trace_sink=sink,
                # Validated plans let the engine free each broadcast's
                # record at its ack: O(n) of them in RAM, not O(events).
                validate_plans=True, telemetry=telemetry)
            result, events = _run_sliced(
                sim, region, inputs["slice_events"],
                max_events=2 * inputs["events"],
                max_time=inputs["deadline"])
            sink.close()
            region.lap()
            invariants = check_model_invariants(graph, sink, f_ack)
            region.lap()
            live = collect_metrics(
                algorithm="flood", topology=label, graph=graph,
                scheduler=sim.scheduler, result=result,
                initial_values=values, diameter=1)
            reopened = ColumnarSink.load(chunk_dir)
            replay = collect_metrics(
                algorithm="flood", topology=label, graph=graph,
                scheduler=sim.scheduler, trace=reopened,
                initial_values=values, diameter=1)

        records = len(sink)
        times = sorted(sink.decision_times().values())
        out = Outcome(
            wall_s=region.wall_s, segments=region.segments,
            work=events, attempted=inputs["records"],
            failed=len(invariants.violations),
            virt=[t / f_ack for t in times],
            digest=latency_digest(times),
            extras={"records": records,
                    "chunks": len(sink.chunk_paths()),
                    "bytes": sink.spilled_bytes(),
                    "telemetry": ({"counters": telemetry.counters}
                                  if telemetry is not None else None)})
        out.check("model invariants hold", invariants.ok,
                  "; ".join(invariants.violations[:3]))
        out.check("event count is the seed-independent one",
                  events == inputs["events"],
                  f"{events} vs {inputs['events']}")
        out.check("record count matches, live and reopened",
                  records == inputs["records"]
                  and len(reopened) == records,
                  f"live {records}, reopened {len(reopened)}, "
                  f"expected {inputs['records']}")
        out.check("every node finished", live.termination
                  and len(times) == n, f"{len(times)} of {n}")
        out.check("reopened metrics match the live run",
                  replay.broadcasts == live.broadcasts
                  and replay.deliveries == live.deliveries
                  and replay.last_decision == live.last_decision
                  and reopened.decision_times() == sink.decision_times(),
                  f"broadcasts {replay.broadcasts}/{live.broadcasts}, "
                  f"deliveries {replay.deliveries}/{live.deliveries}")
    return out


# ---------------------------------------------------------------------
# regen_full
# ---------------------------------------------------------------------
#: Pinned here, not read from ``MANIFEST_SOURCES``: migrating more
#: experiments to manifests later must not change this workload.
REGEN_MODULES = {
    "E1": "repro.experiments.e1_single_hop",
    "E2": "repro.experiments.e2_wpaxos_scaling",
    "E3": "repro.experiments.e3_baselines",
    "E9": "repro.experiments.e9_unreliable_links",
    "E12": "repro.experiments.e12_byzantine",
    "E13": "repro.experiments.e13_churn",
}
REGEN_CELLS = 125
_REGEN_SMOKE = ("E1",)
_REGEN_SMOKE_CELLS = 20


def _build_regen(seed: int, smoke: bool) -> Dict[str, Any]:
    ids = _REGEN_SMOKE if smoke else tuple(REGEN_MODULES)
    return {
        "drivers": {eid: importlib.import_module(REGEN_MODULES[eid])
                    for eid in ids},
        "cells": _REGEN_SMOKE_CELLS if smoke else REGEN_CELLS,
        # The tables are the paper's, so the seed cannot move the work;
        # it moves every cache address instead.
        "salt": f"ledger-{seed}",
        "workers": nproc(),
    }


def _regen_pass(drivers, cache, workers: int, tracer=None,
                region: Optional[Measured] = None) -> Dict[str, Any]:
    reports = {}
    for eid, module in drivers.items():
        with _span(tracer, f"regen.{eid}", eid):
            reports[eid] = module.run(cache=cache, workers=workers)
        if region is not None:
            region.lap()
    return reports


def _run_regen(inputs: Dict[str, Any], tracer) -> Outcome:
    from repro.analysis.cache import ResultCache
    drivers, cells = inputs["drivers"], inputs["cells"]
    # workers=1 keeps every sweep on the sequential path in-process.
    workers = 1 if tracer is not None else inputs["workers"]
    with scratch_dir("regen-") as cache_dir:
        cache = ResultCache(cache_dir, salt=inputs["salt"])
        cpu_start = cpu_seconds()
        with Measured(tracer, "regen_full") as region:
            cold = _regen_pass(drivers, cache, workers, tracer, region)
            cold_tables = {eid: report.render()
                           for eid, report in cold.items()}
        cold_cpu = cpu_seconds() - cpu_start
        stores, hits, misses = cache.stores, cache.hits, cache.misses

        start = perf_counter()
        warm = _regen_pass(drivers, cache, workers)
        warm_s = perf_counter() - start
        warm_hits = cache.hits - hits
        warm_misses = cache.misses - misses

        virt: List[float] = []
        cache_bytes = 0
        for path in cache.entries():
            cache_bytes += os.path.getsize(path)
            with open(path, encoding="utf-8") as handle:
                metrics = json.load(handle)["metrics"]
            if metrics.get("last_decision") is not None:
                virt.append(metrics["last_decision"] / metrics["f_ack"])

    failing = [eid for eid, report in cold.items() if not report.passed]
    digest = hashlib.sha256(
        "\n".join(cold_tables[eid] for eid in sorted(cold_tables))
        .encode("utf-8")).hexdigest()[:16]
    out = Outcome(
        wall_s=region.wall_s, segments=region.segments, work=stores,
        attempted=cells,
        failed=cells if failing else cells - stores,
        virt=virt, digest=digest,
        extras={"warm_pass_s": warm_s,
                "warm_hit_ratio": (warm_hits / (warm_hits + warm_misses)
                                   if warm_hits + warm_misses else 0.0),
                "cache_bytes": cache_bytes, "workers": workers,
                "cold_cpu_s": cold_cpu, "serial_s": cold_cpu})
    out.check("every report passed", not failing,
              f"failed: {', '.join(failing)}")
    out.check("cold pass computed the pinned cells",
              stores == cells and hits == 0,
              f"{stores} stored, {hits} hits, pinned {cells}")
    out.check("warm pass is all hits",
              warm_misses == 0 and warm_hits == cells,
              f"{warm_hits} hits / {warm_misses} misses")
    out.check("warm tables byte-identical to cold",
              all(warm[eid].render() == cold_tables[eid]
                  for eid in cold_tables))
    return out


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "serve_zipf8",
        "bare serve path: ~1400 tiny wPAXOS slots, so per-slot "
        "override/resolve/build and the handlers dominate; sink, cache "
        "and executor do nothing",
        "req", _build_serve("serve_zipf8"), _run_serve),
    Workload(
        "serve_full2",
        "same service with 2 forked shards, telemetry, span trees and "
        "the metrics registry on, so a gain for the bare path that "
        "costs the observed or sharded path shows",
        "req", _build_serve("serve_full2"), _run_serve),
    Workload(
        "wpaxos_grid20",
        "one multihop wPAXOS run (n=400, D=38, random scheduler): "
        "handler and engine-core bound with a single setup, so "
        "per-slot setup work must read flat here",
        "events", _build_grid, _run_grid),
    Workload(
        "columnar_flood24",
        "1.0M-event flood at FULL level into ColumnarSink, then "
        "vectorized replay and reopen: engine core and sink write "
        "beside replay, no wPAXOS and no service",
        "events", _build_flood, _run_flood),
    Workload(
        "regen_full",
        "E1/E2/E3/E9/E12/E13 (125 cells) cold into an empty "
        "ResultCache on the steal executor: the only workload where "
        "executor, cache, rendering and the baseline algorithms work",
        "cells", _build_regen, _run_regen, warmup=False),
)}
