"""Every metric the ledger reports: name, unit, direction, bound.

``BENCHMARK.json`` at the repo root mirrors these tables (the
self-test compares them), so a metric is added or renamed in exactly
one place and the contract file follows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: How long one run measures (``BENCHMARK.json``'s ``run_seconds`` and
#: the default for ``--seconds``).
RUN_SECONDS = 15

#: ``(name, unit, better, bound)``. The bound is the share of the
#: parent's median by which the metric may worsen before a change
#: counts as a regression. Bounds are sized from the measured ten-seed
#: spread (README, "Steadiness"); the virtual-time one only has to
#: absorb seed-to-seed variation, because for one seed that value is
#: bit-identical on every run. ``virt_p99`` is reported with every
#: run but is not bounded here: serve's tail moves 10-17% from seed
#: to seed however it is pooled, so no bound it could pass would
#: guard anything (README, "Where this departs from ISSUE 11").
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("virt_p50", "F_ack", "lower", 0.15),
]


def _calls_and_seconds(prefix: str) -> List[Tuple[str, str, str]]:
    return [(f"{prefix}_calls", "count", "lower"),
            (f"{prefix}_s", "s", "lower")]


#: ``(name, unit, better)``, grouped by layer (= repo module).
PER_LAYER: List[Tuple[str, str, str]] = [
    # scenario
    *_calls_and_seconds("scenario.override"),
    *_calls_and_seconds("scenario.resolve"),
    *_calls_and_seconds("scenario.build"),
    # macsim.schedulers
    *_calls_and_seconds("schedulers.plan"),
    # macsim.events
    ("events.pushed", "count", "lower"),
    ("events.popped", "count", "lower"),
    ("events.cancelled", "count", "lower"),
    ("events.compactions", "count", "lower"),
    ("events.queue_ops_per_s", "1/s", "higher"),
    # macsim.simulator
    *_calls_and_seconds("simulator.run"),
    ("simulator.run_self_s", "s", "lower"),
    ("simulator.events", "count", "lower"),
    ("simulator.events_per_s", "1/s", "higher"),
    ("simulator.slices_per_slot", "ratio", "lower"),
    # core handlers
    ("handlers.on_start_s", "s", "lower"),
    *_calls_and_seconds("handlers.on_receive"),
    *_calls_and_seconds("handlers.on_ack"),
    *_calls_and_seconds("handlers.broadcast"),
    # macsim.trace / macsim.columnar
    *_calls_and_seconds("sink.record"),
    *_calls_and_seconds("columnar.flush"),
    ("columnar.chunks", "count", "lower"),
    ("columnar.bytes_per_record", "B", "lower"),
    # replay
    ("invariants.check_s", "s", "lower"),
    ("invariants.records_per_s", "1/s", "higher"),
    ("metrics.collect_s", "s", "lower"),
    ("columnar.load_s", "s", "lower"),
    ("consensus.check_s", "s", "lower"),
    # macsim.service
    *_calls_and_seconds("service.workload"),
    *_calls_and_seconds("service.frontend"),
    ("service.batch_mean", "ratio", "higher"),
    ("service.queue_peak", "count", "lower"),
    ("service.add_group_s", "s", "lower"),
    *_calls_and_seconds("service.advance"),
    ("service.advance_self_s", "s", "lower"),
    ("service.loop_self_s", "s", "lower"),
    ("service.slots", "count", "lower"),
    ("service.events_per_slot", "ratio", "lower"),
    ("service.virt_queue_p50", "F_ack", "lower"),
    ("service.virt_service_p50", "F_ack", "lower"),
    ("service.tracer_s", "s", "lower"),
    ("service.metrics_s", "s", "lower"),
    # macsim.service.sharded
    ("sharded.shard_wall_max_s", "s", "lower"),
    ("sharded.shard_imbalance", "ratio", "lower"),
    ("sharded.fork_merge_s", "s", "lower"),
    # analysis.sweeps / analysis.cache / analysis.manifests
    ("sweeps.cells", "count", "lower"),
    ("sweeps.cell_s_sum", "s", "lower"),
    ("sweeps.cell_max_s", "s", "lower"),
    ("sweeps.parallel_efficiency", "ratio", "higher"),
    *_calls_and_seconds("cache.put"),
    *_calls_and_seconds("cache.get"),
    ("cache.warm_pass_s", "s", "lower"),
    ("cache.warm_hit_ratio", "ratio", "higher"),
    ("cache.bytes", "B", "lower"),
    ("manifests.render_s", "s", "lower"),
    ("regen.E1_s", "s", "lower"),
    ("regen.E2_s", "s", "lower"),
    ("regen.E3_s", "s", "lower"),
    ("regen.E9_s", "s", "lower"),
    ("regen.E12_s", "s", "lower"),
    ("regen.E13_s", "s", "lower"),
    # cli / the ledger itself
    ("cli.import_s", "s", "lower"),
    ("bench.warmup_s", "s", "lower"),
    ("bench.cpu_s", "s", "lower"),
    ("bench.virt_p99", "F_ack", "lower"),
    ("bench.iqr_frac", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.unattributed_frac", "ratio", "lower"),
]

E2E_UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in END_TO_END}
E2E_BETTER: Dict[str, str] = {name: better
                              for name, _, better, _ in END_TO_END}
E2E_BOUND: Dict[str, float] = {name: bound
                               for name, _, _, bound in END_TO_END}
LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def benchmark_json(workloads) -> dict:
    """The contract document this catalogue denotes."""
    return {
        "command": ["python3", "benchmarks/ledger/__main__.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
