"""Command line interface.

Subcommands::

    python -m repro run --algorithm wpaxos --topology grid:5x5 \\
        --scheduler random --seed 7 --trace-out run.json
    python -m repro run --scenario saved_scenario.json
    python -m repro replay run.json
    python -m repro stats run.json
    python -m repro experiments E3 E4
    python -m repro regen --manifest results/MANIFEST.json
    python -m repro serve --groups 8 --shards 0 --clients 200
    python -m repro cache stats
    python -m repro demo

``run`` executes one consensus instance and prints its metrics; every
flag combination is internally a :class:`repro.scenario.Scenario`, so
``--dump-scenario`` prints the equivalent JSON description and
``--scenario`` executes one from a file. Exported traces (schema v6)
embed the scenario, and ``replay`` re-executes a saved trace's
embedded scenario and verifies the records match byte for byte.
``--list-algorithms`` / ``--list-topologies`` / ``--list-schedulers``
print the live registry catalogues (including anything registered by
user code). ``run --telemetry [out.json]`` collects run telemetry
(engine counters, measured F_ack/F_prog spans, phase profile) without
perturbing the trace; ``stats`` renders those histograms from a
telemetry snapshot or *any* trace export -- deriving the spans from
the records (vectorized on columnar files) when no snapshot is
embedded. ``experiments`` forwards to the E1-E14 drivers; ``demo``
runs the impossibility tour.

``serve`` drives the consensus-as-a-service stack
(:mod:`repro.macsim.service`): a closed-loop Zipf/lognormal client
workload over ``--groups`` multiplexed consensus groups, optionally
sharded across forked engines (``--shards 0`` = one per core), and
prints the end-to-end latency table, per-group attribution and shard
utilization. With ``--groups 1 --shards 1``, ``--trace-out`` exports
the first slot's trace -- byte-identical to ``repro run`` of the same
scenario and accepted by ``replay``. ``cache`` maintains the
scenario-hash result cache used by ``regen`` and the sweep fabric:
``stats`` / ``prune --max-bytes 500M`` / ``clear``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .analysis.export import (iter_saved_records, iter_trace_dicts,
                              load_scenario, record_to_dict, save_trace)
from .analysis.runner import run_consensus
from .macsim.errors import ModelViolationError
from .macsim.trace import make_sink
from .registry import (ALGORITHMS, DYNAMICS, SCHEDULERS, TOPOLOGIES,
                       UnknownNameError)
from .scenario import (BYZANTINE_STRATEGIES, AlgorithmSpec, DynamicsSpec,
                       FaultSpec, Scenario, ScenarioError, SchedulerSpec,
                       parse_spec, parse_topology_spec)

#: Flag defaults, applied after ``--scenario`` merging so an explicit
#: flag overrides the scenario file while an omitted one defers to it.
RUN_DEFAULTS = {
    "algorithm": "wpaxos",
    "topology": "grid:4x4",
    "scheduler": "random",
    "f_ack": 1.0,
    "seed": 0,
    "trace_level": "full",
}


def parse_topology(spec: str):
    """Parse ``name[:args]`` topology specs, e.g. ``grid:4x6``."""
    try:
        return parse_topology_spec(spec).build()
    except (UnknownNameError, ScenarioError, ValueError) as exc:
        raise SystemExit(str(exc)) from None


def _scheduler_accepts(name: str, param: str) -> bool:
    import inspect
    try:
        builder = SCHEDULERS.get(name)
    except UnknownNameError as exc:
        raise SystemExit(str(exc)) from None
    return param in inspect.signature(builder).parameters


def make_scheduler(name: str, f_ack: float, seed: int):
    params = {"f_ack": f_ack} if _scheduler_accepts(name, "f_ack") else {}
    return SchedulerSpec(name, **params).build(seed=seed)


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """Build the scenario the ``run`` flags describe.

    With ``--scenario FILE`` the file is the base and explicitly
    passed flags override it; without, built-in defaults fill the
    gaps.
    """
    if args.scenario:
        base = Scenario.from_file(args.scenario)
        if args.algorithm is not None:
            base = base.override({"algorithm":
                                  AlgorithmSpec(args.algorithm)})
        if args.topology is not None:
            base = base.override(
                {"topology": parse_topology_spec(args.topology),
                 "label": args.topology})
        if args.scheduler is not None:
            # New scheduler name: inherit the file's f_ack when the
            # new scheduler has that knob and no flag pins it.
            if args.f_ack is not None:
                f_ack = args.f_ack
            else:
                f_ack = base.scheduler.params.get(
                    "f_ack", RUN_DEFAULTS["f_ack"])
            params = ({"f_ack": f_ack}
                      if _scheduler_accepts(args.scheduler, "f_ack")
                      else {})
            if args.f_ack is not None and not params:
                raise SystemExit(f"--f-ack: scheduler "
                                 f"{args.scheduler!r} takes no f_ack "
                                 f"parameter")
            base = base.override(
                {"scheduler": SchedulerSpec(args.scheduler, **params)})
        elif args.f_ack is not None:
            # Override just f_ack, keeping every other pinned param.
            if not _scheduler_accepts(base.scheduler.name, "f_ack"):
                raise SystemExit(f"--f-ack: scheduler "
                                 f"{base.scheduler.name!r} takes no "
                                 f"f_ack parameter")
            base = base.override({"scheduler.f_ack": args.f_ack})
        if args.seed is not None:
            base = base.override({"seed": args.seed})
        if args.trace_level is not None:
            base = base.override({"trace_level": args.trace_level})
        if args.max_time is not None:
            base = base.override({"max_time": args.max_time})
        if args.fault is not None:
            base = base.override(
                {"fault": parse_spec(args.fault, FaultSpec)})
        if args.dynamics is not None:
            base = base.override(
                {"dynamics": parse_spec(args.dynamics, DynamicsSpec)})
        if args.telemetry is not None:
            base = base.override({"telemetry": True})
        return base

    algorithm = args.algorithm or RUN_DEFAULTS["algorithm"]
    topology = args.topology or RUN_DEFAULTS["topology"]
    scheduler = args.scheduler or RUN_DEFAULTS["scheduler"]
    seed = args.seed if args.seed is not None else RUN_DEFAULTS["seed"]
    trace_level = args.trace_level or RUN_DEFAULTS["trace_level"]
    if _scheduler_accepts(scheduler, "f_ack"):
        f_ack = (args.f_ack if args.f_ack is not None
                 else RUN_DEFAULTS["f_ack"])
        scheduler_spec = SchedulerSpec(scheduler, f_ack=f_ack)
    elif args.f_ack is not None:
        raise SystemExit(f"--f-ack: scheduler {scheduler!r} takes no "
                         f"f_ack parameter")
    else:
        scheduler_spec = SchedulerSpec(scheduler)
    return Scenario(
        algorithm=AlgorithmSpec(algorithm),
        topology=parse_topology_spec(topology),
        scheduler=scheduler_spec,
        fault=(parse_spec(args.fault, FaultSpec)
               if args.fault else None),
        dynamics=(parse_spec(args.dynamics, DynamicsSpec)
                  if args.dynamics else None),
        seed=seed,
        trace_level=trace_level,
        max_time=args.max_time,
        label=topology,
        telemetry=args.telemetry is not None,
    )


def _print_catalogue(title: str, registry) -> None:
    print(f"{title}:")
    for name in registry.names():
        summary = registry.describe(name)
        print(f"  {name:<24}{summary}" if summary else f"  {name}")


def cmd_run(args: argparse.Namespace) -> int:
    listed = False
    for flag, title, registry in (
            (args.list_algorithms, "algorithms", ALGORITHMS),
            (args.list_topologies, "topologies", TOPOLOGIES),
            (args.list_schedulers, "schedulers", SCHEDULERS),
            (args.list_dynamics, "dynamics", DYNAMICS)):
        if flag:
            _print_catalogue(title, registry)
            listed = True
    if listed:
        return 0

    try:
        scenario = _scenario_from_args(args)
    except (ScenarioError, UnknownNameError, ValueError) as exc:
        raise SystemExit(str(exc)) from None

    if args.dump_scenario:
        text = scenario.to_json()
        if args.dump_scenario == "-":
            print(text)
        else:
            with open(args.dump_scenario, "w", encoding="utf-8") as out:
                out.write(text)
                out.write("\n")
            print(f"scenario written: {args.dump_scenario}")
        return 0

    try:
        kwargs = scenario.run_kwargs()
    except (ScenarioError, UnknownNameError, ValueError,
            TypeError) as exc:
        raise SystemExit(str(exc)) from None
    graph = kwargs["graph"]
    scheduler = kwargs["scheduler"]
    fault_model = kwargs.get("fault_model")
    dynamics = kwargs.get("dynamics")
    faulty = (frozenset() if fault_model is None
              else frozenset(fault_model.faulty_nodes()))
    telemetry = None
    if scenario.telemetry:
        from .macsim.telemetry import Telemetry
        telemetry = Telemetry(label=scenario.display_label())
    sink = make_sink(scenario.trace_level)
    try:
        metrics = run_consensus(trace_sink=sink, telemetry=telemetry,
                                **kwargs)
    except ModelViolationError as exc:
        print(f"invariants:     VIOLATED: {exc}")
        # The run that broke the model is the one most worth replaying.
        if args.trace_out:
            _write_run_trace(args.trace_out, sink, scenario, kwargs,
                             telemetry)
        return 1

    print(f"algorithm:      {scenario.algorithm.name}")
    print(f"topology:       {metrics.topology} "
          f"(n={graph.n}, D={metrics.diameter})")
    print(f"scheduler:      {scheduler.describe()}")
    if fault_model is not None:
        print(f"fault model:    {fault_model.describe()} "
              f"(faulty: {sorted(map(str, faulty))})")
    if dynamics is not None:
        conn = metrics.extras["connectivity"]
        print(f"dynamics:       {dynamics.describe()} "
              f"({conn['topologies']} topologies, "
              f"{conn['topo_events']} topo events, "
              f"T-interval connectivity {conn['max_t_interval']})")
    scope = " (among correct nodes)" if faulty else ""
    decided = {value for node, value in sink.decisions().items()
               if node not in faulty}
    print(f"consensus:      agreement={metrics.agreement} "
          f"validity={metrics.validity} "
          f"termination={metrics.termination}{scope}")
    print(f"decision:       {sorted(decided)}")
    print(f"decision time:  {metrics.last_decision} "
          f"({metrics.normalized_time} x F_ack)")
    print(f"broadcasts:     {metrics.broadcasts} "
          f"(max {metrics.max_broadcasts_per_node} per node)")
    if telemetry is not None:
        telemetry.context.update(
            algorithm=scenario.algorithm.name,
            topology=metrics.topology,
            scheduler=scheduler.describe(), seed=scenario.seed,
            fault_model=(fault_model.describe()
                         if fault_model is not None else None))
        f_ack = telemetry.snapshot()["spans"]["f_ack"]
        print(f"telemetry:      {telemetry.events_processed} events in "
              f"{telemetry.wall_seconds:.3f}s wall; measured F_ack "
              f"p50={f_ack['p50']} p95={f_ack['p95']} "
              f"max={f_ack['max']} (n={f_ack['count']})")
        if isinstance(args.telemetry, str):
            telemetry.write(args.telemetry)
            print(f"telemetry written: {args.telemetry}")
    if args.trace_out:
        _write_run_trace(args.trace_out, sink, scenario, kwargs,
                         telemetry)
    return 0 if metrics.correct else 1


def _write_run_trace(path: str, sink, scenario: Scenario, kwargs: dict,
                     telemetry) -> None:
    """Export ``repro run``'s closed trace sink with its scenario."""
    fault_model = kwargs.get("fault_model")
    metadata = {
        "algorithm": scenario.algorithm.name,
        "topology": kwargs["topology"],
        "scheduler": kwargs["scheduler"].describe(),
        "seed": scenario.seed,
        "fault_model": (fault_model.describe()
                        if fault_model is not None else None)}
    if telemetry is not None:
        # `repro stats` on this export reads the live snapshot
        # instead of re-deriving spans from the records.
        metadata["telemetry"] = telemetry.snapshot()
    save_trace(sink, path, metadata=metadata, scenario=scenario)
    print(f"trace written:  {path} ({len(sink)} records)")


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-execute a saved trace's embedded scenario and verify it."""
    try:
        return _replay(args.trace)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{args.trace}: {exc}") from None


def _replay(path: str) -> int:
    scenario = load_scenario(path)
    if scenario is None:
        raise SystemExit(f"{path}: no embedded scenario (only exports "
                         f"saved with one can replay)")
    print(f"scenario:       {scenario.algorithm.name} on "
          f"{scenario.display_label()}, seed={scenario.seed}")
    result = scenario.simulate()
    saved = (record_to_dict(rec, preserialized=True)
             for rec in iter_saved_records(path))
    replayed = iter_trace_dicts(result.trace)
    count = 0
    for old, new in itertools.zip_longest(saved, replayed):
        if old != new:
            print(f"replay DIVERGED at record {count}:")
            print(f"  saved:    {json.dumps(old)}")
            print(f"  replayed: {json.dumps(new)}")
            return 1
        count += 1
    print(f"replay matched: {count} records byte-identical")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Render F_ack/F_prog histograms and counters from an artifact."""
    from .analysis.stats_report import render_stats, stats_from_file
    try:
        doc = stats_from_file(args.artifact, derive=args.derive)
    except OSError as exc:
        raise SystemExit(str(exc)) from None
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise SystemExit(f"{args.artifact}: {exc}") from None
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(render_stats(doc))
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.__main__ import main as experiments_main
    forwarded = list(args.ids)
    if args.markdown:
        forwarded.append("--markdown")
    return experiments_main(forwarded)


def cmd_regen(args: argparse.Namespace) -> int:
    """Regenerate experiment tables through the sweep fabric.

    Cells are served from the scenario-hash result cache when their
    digest is already stored; fresh cells run through the sweep
    executor and are persisted as they complete, so an
    interrupted regeneration resumes and only invalidated cells
    (changed scenario or cache salt) re-run.
    """
    import inspect
    import os
    from .analysis import manifests as manifests_module
    from .analysis.cache import ResultCache
    from .analysis.manifests import (ExperimentManifest,
                                     ManifestError, regenerate,
                                     write_manifests)

    if args.progress:
        os.environ["MACSIM_SWEEP_PROGRESS"] = "1"
    if args.write_manifests:
        try:
            paths = write_manifests(args.write_manifests,
                                    ids=args.ids or None)
        except ManifestError as exc:
            raise SystemExit(str(exc)) from None
        for path in paths:
            print(path)
        return 0

    cache = None
    if not args.fresh:
        cache = ResultCache(args.cache, salt=args.salt,
                            verify="replay" if args.verify else False)
    failures = []
    block_stats: list = []
    if args.manifest:
        for path in args.manifest:
            try:
                manifest = ExperimentManifest.from_file(path)
            except (OSError, ManifestError) as exc:
                raise SystemExit(f"{path}: {exc}") from None
            print(regenerate(manifest, cache=cache,
                             workers=args.workers,
                             block_stats=block_stats))
            print()
    else:
        from .experiments import ALL_EXPERIMENTS
        modules = dict(ALL_EXPERIMENTS)
        wanted = ([i.upper() for i in args.ids] if args.ids
                  else list(manifests_module.MANIFEST_SOURCES))
        unknown = [i for i in wanted if i not in modules]
        if unknown:
            raise SystemExit(
                f"unknown experiment ids: {', '.join(unknown)} "
                f"(known: {', '.join(modules)})")
        for experiment_id in wanted:
            module = modules[experiment_id]
            parameters = inspect.signature(module.run).parameters
            kwargs = {}
            before = ((cache.hits, cache.misses)
                      if cache is not None else (0, 0))
            if "cache" in parameters:
                kwargs["cache"] = cache
                if "workers" in parameters:
                    kwargs["workers"] = args.workers
            else:
                print(f"note: {experiment_id} is not manifest-"
                      f"migrated; running fresh", file=sys.stderr)
            report = module.run(**kwargs)
            if cache is not None and "cache" in parameters:
                block_stats.append({
                    "experiment": experiment_id,
                    "block": "*",
                    "cells": (cache.hits - before[0]
                              + cache.misses - before[1]),
                    "hits": cache.hits - before[0],
                    "misses": cache.misses - before[1],
                    "stragglers": [],
                })
            print(report.render_markdown() if args.markdown
                  else report.render())
            print()
            if not report.passed:
                failures.append(experiment_id)
    if cache is not None:
        # Per-block accounting first, aggregate footer last. All
        # `cache:`/`stragglers:`-prefixed: regeneration output above
        # the footer stays byte-identical between passes (CI diffs it
        # with these lines filtered out -- a second pass is all cache
        # hits, so both counters legitimately differ).
        for entry in block_stats:
            print(f"cache: {entry['experiment']}/{entry['block']}: "
                  f"{entry['hits']} hits / {entry['misses']} misses "
                  f"({entry['cells']} cells)")
        print(f"cache: {cache.describe()} [{cache.directory}]")
        flagged = [(entry["experiment"], entry["block"], key)
                   for entry in block_stats
                   for key in entry.get("stragglers", ())]
        if flagged:
            cells = " ".join(f"{exp}/{blk}:{key!r}"
                             for exp, blk, key in flagged)
            print(f"stragglers: {len(flagged)} ({cells})")
        else:
            print("stragglers: none")
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a closed-loop workload over multiplexed consensus groups.

    The scenario flags describe the per-slot consensus configuration
    (every slot derives from it with a ``(group, slot)`` seed); the
    workload flags shape the closed-loop client population. Prints the
    end-to-end latency table, per-group attribution and shard
    utilization; ``--trace-out`` (1 group, 1 shard) exports the first
    slot's trace, which is byte-identical to the equivalent
    ``repro run`` of the same scenario and replayable with
    ``repro replay``.
    """
    import os
    from .macsim.service import ShardedService, WorkloadGenerator

    if args.progress:
        os.environ["MACSIM_SWEEP_PROGRESS"] = "1"
    scenario_ns = argparse.Namespace(
        scenario=args.scenario, algorithm=args.algorithm,
        topology=args.topology, scheduler=args.scheduler,
        f_ack=args.f_ack, seed=args.seed, trace_level=None,
        max_time=args.max_time, fault=None, dynamics=None,
        telemetry=None)
    try:
        base = _scenario_from_args(scenario_ns)
    except (ScenarioError, UnknownNameError, ValueError) as exc:
        raise SystemExit(str(exc)) from None

    if args.groups < 1:
        raise SystemExit("--groups must be >= 1")
    if args.shards is not None and args.shards < 0:
        raise SystemExit("--shards must be >= 0 (0 = one per core)")
    if args.shards == 0:
        args.shards = None  # auto: saturate the machine
    capture = args.trace_out is not None
    if capture and (args.groups != 1 or args.shards not in (None, 1)):
        raise SystemExit("--trace-out requires --groups 1 and "
                         "--shards 1 (the byte-identity export "
                         "is the base scenario's own slot)")
    try:
        workload = WorkloadGenerator(
            groups=args.groups, clients=args.clients,
            seed=args.workload_seed, zipf_s=args.zipf,
            think_mu=args.think_mu, think_sigma=args.think_sigma,
            requests_per_client=args.requests_per_client)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    trace_requests = args.trace_requests is not None
    metrics_window = args.metrics_window
    if args.metrics_out is not None and metrics_window is None:
        metrics_window = 50.0
    metrics_prom = (args.metrics_out is not None
                    and args.metrics_out.endswith((".prom", ".txt")))
    live_metrics_out = (args.metrics_out
                        if args.metrics_out and not metrics_prom
                        else None)
    service = ShardedService(
        base, workload, shards=args.shards, batch_size=args.batch,
        telemetry=args.telemetry is not None,
        capture_first_slot=capture, horizon=args.horizon,
        progress=True if args.progress else None,
        trace_requests=trace_requests,
        metrics_window=metrics_window,
        metrics_out=live_metrics_out)
    report = service.run()

    shards_used = len(report.shards or ())
    print(f"scenario:       {base.algorithm.name} on "
          f"{base.display_label()}, "
          f"scheduler {base.scheduler.name}, seed={base.seed}")
    print(f"service:        {args.groups} group(s) across "
          f"{shards_used} shard(s), batch={args.batch}")
    print(f"workload:       {workload.describe()}")
    latency = report.latency
    if latency["count"]:
        print(f"latency:        p50={latency['p50']:.2f} "
              f"p95={latency['p95']:.2f} p99={latency['p99']:.2f} "
              f"max={latency['max']:.2f} mean={latency['mean']:.2f} "
              f"(virtual time, n={latency['count']})")
    print(f"requests:       {report.requests} committed, "
          f"{report.failed} failed, {report.slots} slots, "
          f"{report.events} engine events")
    if report.failure_reasons:
        reasons = ", ".join(
            f"{reason}={count}" for reason, count
            in sorted(report.failure_reasons.items()))
        print(f"failed:         {reasons} "
              f"(requests by their slot's stop reason)")
    print(f"throughput:     {report.throughput:.3f} req/virtual-time "
          f"over {report.virtual_time:.1f} vt; "
          f"{report.wall_throughput:.0f} req/s wall "
          f"({report.wall_seconds:.2f}s)")
    for gid, stats in sorted(report.per_group.items()):
        print(f"  group {gid}: {stats.requests} requests, "
              f"{stats.slots} slots, {stats.events} events, "
              f"last commit {stats.last_commit:.1f}")
    for row in report.shards or ():
        mark = "  ** straggler" if row.get("straggler") else ""
        print(f"  shard {row['shard']}: {row['groups']} group(s), "
              f"{row['requests']} requests, "
              f"{row['wall_seconds']:.2f}s "
              f"({row.get('utilization', 0.0):.0%} util){mark}")
    if report.telemetry is not None:
        totals = report.telemetry["totals"]
        print(f"telemetry:      {totals['events_processed']} events "
              f"across {totals['slots']} slots in "
              f"{totals['wall_seconds']:.3f}s engine wall "
              f"({len(report.telemetry['groups'])} groups attributed)")
        if isinstance(args.telemetry, str):
            with open(args.telemetry, "w", encoding="utf-8") as out:
                json.dump(report.telemetry, out, indent=2)
                out.write("\n")
            print(f"telemetry written: {args.telemetry}")
    if report.tracing is not None:
        from .analysis.service_stats import reduce_spans
        reduced = reduce_spans(report.tracing)
        queueing = reduced["breakdown"]["queueing"]
        service_t = reduced["breakdown"]["service"]
        sched = (report.tracing.get("scheduler") or {}).get("totals", {})
        line = (f"tracing:        {reduced['requests']} spans; "
                f"queueing p50={queueing.get('p50', 0.0):.2f} "
                f"service p50={service_t.get('p50', 0.0):.2f} vt")
        if sched:
            line += (f"; runtime overhead outside the engine "
                     f"{sched.get('overhead_fraction', 0.0):.1%} "
                     f"({sched.get('overhead_seconds', 0.0):.3f}s "
                     f"beside {sched.get('engine_seconds', 0.0):.3f}s "
                     f"engine)")
        print(line)
        if isinstance(args.trace_requests, str):
            with open(args.trace_requests, "w", encoding="utf-8") as out:
                json.dump(report.tracing, out, indent=2)
                out.write("\n")
            print(f"spans written:  {args.trace_requests}")
    if args.metrics_out is not None and report.metrics is not None:
        if metrics_prom:
            from .macsim.service import prometheus_text
            with open(args.metrics_out, "w", encoding="utf-8") as out:
                out.write(prometheus_text(report.metrics))
        else:
            with open(args.metrics_out, "w", encoding="utf-8") as out:
                json.dump(report.metrics, out, indent=2)
                out.write("\n")
        print(f"metrics written: {args.metrics_out}")
    if capture:
        save_trace(service.first_slot_trace, args.trace_out,
                   metadata={"service": "slot(group=0, slot=0)"},
                   scenario=service.first_slot_scenario)
        print(f"trace written:  {args.trace_out} "
              f"({len(service.first_slot_trace)} records, "
              f"byte-identical to 'repro run' of the scenario)")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as out:
            json.dump(report.to_dict(), out, indent=2)
            out.write("\n")
        print(f"report written: {args.json_out}")
    return 0 if report.failed == 0 else 1


def _top_metrics_doc(document: dict, path: str) -> dict:
    """Resolve any supported artifact to a service-metrics snapshot.

    Accepts a ``service-metrics/v1`` snapshot directly, a serve
    ``--json-out`` report (its ``metrics`` key), or a
    ``service-spans/v1`` artifact -- spans carry every arrival and
    commit timestamp, so a registry replay of them synthesizes the
    identical windowed series.
    """
    from .macsim.service import (METRICS_SCHEMA, SPAN_SCHEMA,
                                 MetricsRegistry)
    schema = document.get("schema")
    if schema == METRICS_SCHEMA:
        return document
    if schema == SPAN_SCHEMA:
        registry = MetricsRegistry(window=50.0)
        for rec in document.get("requests", ()):
            registry.record_arrival(rec["enqueue"], rec["group"])
            if rec.get("ok"):
                registry.record_commit(rec["reply"], rec["group"],
                                       rec["reply"] - rec["enqueue"])
            else:
                registry.record_failure(rec["reply"], rec["group"])
        return registry.snapshot()
    if isinstance(document.get("metrics"), dict):
        return document["metrics"]
    raise SystemExit(
        f"{path}: not a service metrics source (expected a "
        f"service-metrics/v1 or service-spans/v1 artifact, or a "
        f"'repro serve --json-out' report with a 'metrics' key -- "
        f"run serve with --metrics-out or --trace-requests)")


def _top_frame(doc: dict, source: str, upto: int,
               shard_rows=None) -> str:
    """One rendered frame: headline, time-series tail, per-group
    table. ``upto`` bounds the window index (exclusive; replay mode
    reveals windows one frame at a time)."""
    from .analysis.tables import format_table
    windows = doc.get("windows", [])[:upto]
    totals = doc.get("totals", {})
    lines = [f"repro top -- {source}",
             f"window={doc.get('window')}vt  "
             f"windows={len(windows)}/{len(doc.get('windows', []))}  "
             f"shards={','.join(str(s) for s in doc.get('shards', []))}"]
    arrivals = sum(w["arrivals"] for w in windows)
    commits = sum(w["commits"] for w in windows)
    final = upto >= len(doc.get("windows", []))
    if final:
        lines.append(
            f"arrivals={totals.get('arrivals', arrivals)}  "
            f"commits={totals.get('commits', commits)}  "
            f"failed={totals.get('failed', 0)}  "
            f"in-flight={totals.get('in_flight_final', 0)}")
    else:
        lines.append(f"arrivals={arrivals}  commits={commits}  "
                     f"in-flight={windows[-1]['in_flight'] if windows else 0}")
    blocks = ["\n".join(lines)]
    tail = windows[-12:]
    wrows = [[w["start"], w["arrivals"], w["commits"], w["rps"],
              w["in_flight"], w["latency"].get("p50"),
              w["latency"].get("p99")] for w in tail]
    blocks.append(format_table(
        ["t", "arrivals", "commits", "rps", "in-flight", "p50",
         "p99"], wrows, title="time series"))
    if final and doc.get("groups"):
        grows = []
        for gid, cell in doc["groups"].items():
            share = (cell.get("commits", 0) / commits) if commits else 0.0
            grows.append([gid, cell.get("arrivals"),
                          cell.get("commits"), f"{share:.1%}",
                          cell.get("queue_peak"),
                          cell.get("latency", {}).get("p50"),
                          cell.get("latency", {}).get("p99")])
        blocks.append(format_table(
            ["group", "arrivals", "commits", "share", "queue peak",
             "p50", "p99"], grows, title="per-group"))
    else:
        # Replay mode: accumulate per-window group counts.
        acc: dict = {}
        for win in windows:
            for gid, cell in win.get("groups", {}).items():
                gacc = acc.setdefault(gid, {"arrivals": 0,
                                            "commits": 0})
                gacc["arrivals"] += cell["arrivals"]
                gacc["commits"] += cell["commits"]
        grows = [[gid, cell["arrivals"], cell["commits"],
                  f"{(cell['commits'] / commits) if commits else 0.0:.1%}"]
                 for gid, cell in sorted(acc.items(),
                                         key=lambda kv: int(kv[0]))]
        blocks.append(format_table(
            ["group", "arrivals", "commits", "share"], grows,
            title="per-group (so far)"))
    if final and shard_rows:
        srows = [[row.get("shard"), row.get("groups"),
                  row.get("requests"), row.get("wall_seconds"),
                  f"{row.get('utilization', 0.0):.0%}",
                  row.get("straggler", False)] for row in shard_rows]
        blocks.append(format_table(
            ["shard", "groups", "requests", "wall s", "util",
             "straggler"], srows, title="per-shard"))
    return "\n\n".join(blocks)


def cmd_top(args: argparse.Namespace) -> int:
    """Live/replayed service metrics table (`repro top`).

    ``--once`` prints the final frame and exits (CI mode);
    ``--follow`` polls the artifact (a serve run with
    ``--metrics-out`` rewrites it on every window rollover) and
    redraws; the default replays a saved artifact's windows as
    animation frames.
    """
    import os
    import time

    def load():
        with open(args.artifact, encoding="utf-8") as handle:
            document = json.load(handle)
        if not isinstance(document, dict):
            raise SystemExit(f"{args.artifact}: not a JSON object")
        shard_rows = (document.get("shards")
                      if isinstance(document.get("shards"), list)
                      and document.get("shards")
                      and isinstance(document["shards"][0], dict)
                      else None)
        return _top_metrics_doc(document, args.artifact), shard_rows

    try:
        doc, shard_rows = load()
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"{args.artifact}: {exc}") from None
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    is_tty = sys.stdout.isatty()
    clear = "\x1b[2J\x1b[H" if is_tty else ""

    def show(frame: str) -> None:
        if clear:
            sys.stdout.write(clear)
        try:
            print(frame)
            sys.stdout.flush()
        except BrokenPipeError:  # downstream pager/head closed early
            sys.stderr.close()
            raise SystemExit(0)

    total = len(doc.get("windows", []))
    if args.once or total == 0 or (not is_tty and not args.follow):
        # Non-interactive stdout gets the final frame only.
        show(_top_frame(doc, args.artifact, total, shard_rows))
        return 0
    if args.follow:
        last_mtime = None
        while True:
            try:
                mtime = os.path.getmtime(args.artifact)
            except OSError:
                break
            if mtime != last_mtime:
                last_mtime = mtime
                try:
                    doc, shard_rows = load()
                except (OSError, json.JSONDecodeError, SystemExit):
                    break
                show(_top_frame(doc, args.artifact,
                                len(doc.get("windows", [])),
                                shard_rows))
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                break
        return 0
    for upto in range(1, total + 1):
        show(_top_frame(doc, args.artifact, upto, shard_rows))
        if upto < total:
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain the scenario-hash result cache."""
    from .analysis.cache import ResultCache

    import os
    cache = ResultCache(args.cache, salt=args.salt)
    if args.action == "stats":
        entries = cache.entries()
        total = 0
        for path in entries:
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        doc = {
            "directory": str(cache.directory),
            "entries": len(entries),
            "bytes": total,
        }
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print(f"cache directory: {doc['directory']}")
            print(f"entries:         {doc['entries']}")
            print(f"size:            {doc['bytes']} bytes "
                  f"({doc['bytes'] / 1_048_576:.2f} MiB)")
        return 0
    if args.action == "prune":
        if args.max_bytes is None:
            raise SystemExit("cache prune requires --max-bytes")
        removed = cache.prune(args.max_bytes)
        print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
              f"(LRU) to fit {args.max_bytes} bytes "
              f"[{cache.directory}]")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
              f"[{cache.directory}]")
        return 0
    raise SystemExit(f"unknown cache action {args.action!r}")


def _parse_bytes(text: str) -> int:
    """Parse a byte budget: plain int or K/M/G-suffixed (binary)."""
    text = text.strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1].upper() in units:
        try:
            return int(float(text[:-1]) * units[text[-1].upper()])
        except ValueError:
            raise SystemExit(f"--max-bytes: cannot parse {text!r}")
    try:
        return int(text)
    except ValueError:
        raise SystemExit(f"--max-bytes: cannot parse {text!r}")


def cmd_demo(_args: argparse.Namespace) -> int:
    import importlib.util
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "examples", "impossibility_tour.py")
    if os.path.exists(path):
        spec = importlib.util.spec_from_file_location("tour", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        return 0
    # Installed without the examples directory: run inline.
    from .lowerbounds import (build_witness_deadlock_execution,
                              kd_violation_demo, run_anonymity_demo)
    sim = build_witness_deadlock_execution()
    result = sim.run(max_time=300.0)
    print("crash demo decisions:", result.decisions)
    print("anonymity demo violated:",
          run_anonymity_demo(d=2, k=0).agreement_violated)
    print("K_D demo violated:",
          kd_violation_demo(4).agreement_violated)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Consensus with an Abstract MAC Layer -- "
                    "reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one consensus execution")
    run_p.add_argument("--algorithm", choices=ALGORITHMS.names(),
                       default=None,
                       help=f"default: {RUN_DEFAULTS['algorithm']}")
    run_p.add_argument("--topology", default=None,
                       help="e.g. clique:8, line:10, grid:4x6, "
                            "star-of-cliques:4x6, random:16:3, "
                            "random:n=16,density=0.2,seed=3 "
                            "(--list-topologies for the catalogue; "
                            f"default: {RUN_DEFAULTS['topology']})")
    run_p.add_argument("--scheduler", choices=SCHEDULERS.names(),
                       default=None,
                       help=f"default: {RUN_DEFAULTS['scheduler']}")
    run_p.add_argument("--f-ack", type=float, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--max-time", type=float, default=None)
    run_p.add_argument("--scenario", default=None, metavar="FILE",
                       help="run the Scenario described by this JSON "
                            "file (explicit flags override its "
                            "fields)")
    run_p.add_argument("--dump-scenario", default=None,
                       metavar="FILE",
                       help="write the scenario JSON these flags "
                            "describe ('-' for stdout) and exit "
                            "without running")
    run_p.add_argument("--list-algorithms", action="store_true",
                       help="list registered algorithms and exit")
    run_p.add_argument("--list-topologies", action="store_true",
                       help="list registered topologies and exit")
    run_p.add_argument("--list-schedulers", action="store_true",
                       help="list registered schedulers and exit")
    run_p.add_argument("--list-dynamics", action="store_true",
                       help="list registered dynamics models and exit")
    run_p.add_argument("--dynamics", default=None,
                       metavar="NAME[:K=V,...]",
                       help="run over a time-varying topology, e.g. "
                            "edge_churn:rate=0.05, "
                            "node_churn:leave_rate=0.1, "
                            "random_waypoint:radius=0.3,speed=0.1 "
                            "(--list-dynamics for the catalogue)")
    run_p.add_argument("--trace-out", default=None,
                       help="write the execution trace "
                            "(columnar chunks, schema 6 with the "
                            "embedded scenario; see 'repro replay')")
    run_p.add_argument("--trace-level", default=None,
                       choices=("full", "decisions", "columnar"),
                       help="trace sink: 'full' keeps every record "
                            "in RAM (default; replayable, exact); "
                            "'decisions' keeps only decisions/crashes "
                            "plus exact counters (fastest, for sweeps "
                            "and metrics-only runs); 'columnar' "
                            "streams every record to binary column "
                            "chunks on disk with an in-RAM index "
                            "(~1 B/record, replayable in bounded "
                            "memory, vectorized replay; the "
                            "10^8-event mode)")
    run_p.add_argument("--fault", default=None,
                       metavar="NAME[:K=V,...]",
                       help="inject a fault model: "
                            "crash:node=N,time=T (T defaults to "
                            "1.0), omission:K (the last K nodes "
                            "send-omission faulty), "
                            "byzantine:count=K,strategy=S (the last "
                            "K nodes; S one of "
                            f"{', '.join(sorted(BYZANTINE_STRATEGIES))}"
                            ", default corrupt)")
    run_p.add_argument("--telemetry", nargs="?", const=True,
                       default=None, metavar="OUT.json",
                       help="collect run telemetry (engine counters, "
                            "measured F_ack/F_prog spans, phase "
                            "profile; never perturbs the trace) and "
                            "print a summary line; with a path, also "
                            "write the snapshot JSON for 'repro "
                            "stats'")
    run_p.set_defaults(func=cmd_run)

    replay_p = sub.add_parser(
        "replay", help="re-execute a saved trace's embedded scenario "
                       "and verify byte-identity")
    replay_p.add_argument("trace", help="a trace export written by "
                                        "run --trace-out")
    replay_p.set_defaults(func=cmd_replay)

    stats_p = sub.add_parser(
        "stats", help="render F_ack/F_prog histograms and counters "
                      "from a trace export or telemetry snapshot, or "
                      "service tables from serve artifacts")
    stats_p.add_argument("artifact",
                         help="a trace export, a --telemetry JSON "
                              "file, or a serve artifact "
                              "(service-telemetry/v1, "
                              "service-spans/v1, service-metrics/v1)")
    stats_p.add_argument("--derive", action="store_true",
                         help="re-derive spans from the records even "
                              "when the export embeds a live "
                              "telemetry snapshot")
    stats_p.add_argument("--json", action="store_true",
                         help="print the stats document as JSON "
                              "instead of tables")
    stats_p.set_defaults(func=cmd_stats)

    exp_p = sub.add_parser("experiments",
                           help="regenerate experiment tables")
    exp_p.add_argument("ids", nargs="*",
                       help="experiment ids (default: all)")
    exp_p.add_argument("--markdown", action="store_true")
    exp_p.set_defaults(func=cmd_experiments)

    regen_p = sub.add_parser(
        "regen", help="regenerate experiment tables through the "
                      "scenario-hash result cache")
    regen_p.add_argument("ids", nargs="*",
                         help="experiment ids (default: every "
                              "manifest-migrated driver)")
    regen_p.add_argument("--manifest", action="append", default=[],
                         metavar="FILE",
                         help="regenerate from a manifest JSON file "
                              "instead of a driver (repeatable)")
    regen_p.add_argument("--write-manifests", metavar="DIR",
                         help="write each driver's manifest JSON to "
                              "DIR and exit")
    regen_p.add_argument("--cache", metavar="DIR",
                         help="cache directory (default: "
                              "$MACSIM_CACHE_DIR or .macsim-cache)")
    regen_p.add_argument("--salt", default="",
                         help="cache version salt; changing it "
                              "invalidates every cached cell")
    regen_p.add_argument("--fresh", action="store_true",
                         help="bypass the cache entirely")
    regen_p.add_argument("--verify", action="store_true",
                         help="re-execute every cache hit and fail "
                              "on divergence (replay verification)")
    regen_p.add_argument("--workers", type=int, default=None,
                         help="sweep worker count (default: one per "
                              "core; 1 runs in process)")
    regen_p.add_argument("--progress", action="store_true",
                         help="heartbeat sweep progress to stderr")
    regen_p.add_argument("--markdown", action="store_true")
    regen_p.set_defaults(func=cmd_regen)

    serve_p = sub.add_parser(
        "serve", help="serve a closed-loop client workload over "
                      "multiplexed consensus groups")
    serve_p.add_argument("--algorithm", choices=ALGORITHMS.names(),
                         default=None,
                         help="per-slot consensus algorithm "
                              f"(default: {RUN_DEFAULTS['algorithm']})")
    serve_p.add_argument("--topology", default="clique:5",
                         help="per-group topology (default: clique:5)")
    serve_p.add_argument("--scheduler", choices=SCHEDULERS.names(),
                         default="synchronous",
                         help="default: synchronous")
    serve_p.add_argument("--f-ack", type=float, default=None)
    serve_p.add_argument("--seed", type=int, default=None,
                         help="base consensus seed (each slot derives "
                              "its own from (group, slot))")
    serve_p.add_argument("--max-time", type=float, default=None)
    serve_p.add_argument("--scenario", default=None, metavar="FILE",
                         help="base slot scenario from a JSON file "
                              "(flags override its fields)")
    serve_p.add_argument("--groups", type=int, default=4,
                         help="consensus groups to serve (default: 4)")
    serve_p.add_argument("--shards", type=int, default=1,
                         help="forked engine shards; 0 = one per core "
                              "(default: 1, in-process)")
    serve_p.add_argument("--clients", type=int, default=100,
                         help="closed-loop client population "
                              "(default: 100)")
    serve_p.add_argument("--requests-per-client", type=int, default=2,
                         help="session length per client (default: 2)")
    serve_p.add_argument("--batch", type=int, default=8,
                         help="frontend batch window per consensus "
                              "slot (default: 8)")
    serve_p.add_argument("--zipf", type=float, default=1.1,
                         help="Zipf skew of group popularity "
                              "(default: 1.1)")
    serve_p.add_argument("--think-mu", type=float, default=3.0,
                         help="lognormal think-time mu; median think "
                              "= exp(mu) virtual time units "
                              "(default: 3.0)")
    serve_p.add_argument("--think-sigma", type=float, default=1.0,
                         help="lognormal think-time sigma "
                              "(default: 1.0)")
    serve_p.add_argument("--workload-seed", type=int, default=0,
                         help="workload seed (default: 0)")
    serve_p.add_argument("--horizon", type=float, default=None,
                         help="virtual-time admission deadline "
                              "(arrivals past it are dropped)")
    serve_p.add_argument("--telemetry", nargs="?", const=True,
                         default=None, metavar="OUT.json",
                         help="per-slot engine telemetry, accumulated "
                              "per group; with a path, write the "
                              "service-telemetry/v1 snapshot JSON")
    serve_p.add_argument("--trace-requests", nargs="?", const=True,
                         default=None, metavar="OUT.json",
                         help="request-level span tracing (enqueue -> "
                              "batch-admit -> slot-start -> decide -> "
                              "reply per proposal, plus the runtime's "
                              "engine/overhead wall-clock split); "
                              "with a path, write the "
                              "service-spans/v1 artifact JSON")
    serve_p.add_argument("--metrics-out", default=None, metavar="FILE",
                         help="write the windowed service-metrics/v1 "
                              "snapshot; .prom/.txt renders "
                              "Prometheus text, anything else JSON "
                              "(live-updated on window rollovers for "
                              "single-shard runs -- point 'repro top "
                              "--follow' at it)")
    serve_p.add_argument("--metrics-window", type=float, default=None,
                         metavar="VT",
                         help="metrics window width in virtual time "
                              "(default: 50 when --metrics-out is "
                              "set; setting it enables the registry "
                              "even without --metrics-out)")
    serve_p.add_argument("--trace-out", default=None, metavar="FILE",
                         help="export the first slot's trace "
                              "(requires --groups 1 --shards 1; "
                              "byte-identical to 'repro run' of the "
                              "same scenario, replayable)")
    serve_p.add_argument("--json-out", default=None, metavar="FILE",
                         help="write the full service report as JSON")
    serve_p.add_argument("--progress", action="store_true",
                         help="heartbeat shard progress to stderr")
    serve_p.set_defaults(func=cmd_serve)

    top_p = sub.add_parser(
        "top", help="live (or replayed) per-group service metrics "
                    "table from a serve artifact")
    top_p.add_argument("artifact",
                       help="a service-metrics/v1 snapshot "
                            "(serve --metrics-out), a serve "
                            "--json-out report, or a "
                            "service-spans/v1 artifact")
    top_p.add_argument("--once", action="store_true",
                       help="print the final frame and exit "
                            "(machine/CI mode)")
    top_p.add_argument("--follow", action="store_true",
                       help="poll the artifact and redraw as a "
                            "running serve rewrites it")
    top_p.add_argument("--interval", type=float, default=0.5,
                       help="seconds between frames/polls "
                            "(default: 0.5)")
    top_p.add_argument("--json", action="store_true",
                       help="print the resolved metrics snapshot as "
                            "JSON instead of tables")
    top_p.set_defaults(func=cmd_top)

    cache_p = sub.add_parser(
        "cache", help="inspect and maintain the scenario-hash result "
                      "cache")
    cache_p.add_argument("action",
                         choices=("stats", "prune", "clear"),
                         help="stats: entry count and size; prune: "
                              "LRU-evict down to --max-bytes; clear: "
                              "remove every entry")
    cache_p.add_argument("--cache", metavar="DIR",
                         help="cache directory (default: "
                              "$MACSIM_CACHE_DIR or .macsim-cache)")
    cache_p.add_argument("--salt", default="",
                         help="cache version salt (affects digests, "
                              "not maintenance)")
    cache_p.add_argument("--max-bytes", type=_parse_bytes,
                         default=None, metavar="N[K|M|G]",
                         help="byte budget for prune, e.g. 500M")
    cache_p.add_argument("--json", action="store_true",
                         help="machine-readable stats output")
    cache_p.set_defaults(func=cmd_cache)

    demo_p = sub.add_parser("demo",
                            help="run the impossibility tour")
    demo_p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
