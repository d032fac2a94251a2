"""Engine microbenchmarks: event throughput, fan-out, trace queries.

Unlike the per-experiment benchmarks (bench_e1..e11), these isolate the
discrete-event substrate itself -- the layer PR 1's fast path targets:

* ``run_event_queue`` -- raw push/pop throughput of the heap;
* ``run_broadcast_fanout`` -- a clique echo flood, stressing
  ``mac_broadcast`` scheduling and delivery dispatch;
* ``run_trace_queries`` -- repeated metric queries over a large trace
  (O(full scan) in the seed engine, O(answer) with indexes);
* ``run_wpaxos_clique`` -- the acceptance workload: a full wPAXOS
  consensus execution on a clique, reported as events/second.

Each ``run_*`` function executes one measured unit and returns the
work count, so :mod:`benchmarks.perf_report` can time them without
pytest. The ``test_*`` wrappers expose the same workloads under
pytest-benchmark (``pytest benchmarks/ --benchmark-only``).

The module runs against both the current engine and the seed engine
(``perf_report --seed-tree``): everything newer than the seed API is
imported defensively.
"""

from __future__ import annotations

import os

from repro.macsim import Process, build_simulation
from repro.macsim.events import DELIVER_PRIORITY, EventQueue
from repro.macsim.schedulers import SynchronousScheduler
from repro.macsim.trace import Trace
from repro.topology import clique

try:  # engine >= PR 1
    from repro.macsim.trace import TraceLevel
except ImportError:  # seed engine
    TraceLevel = None

try:  # engine >= PR 3
    from repro.macsim.trace import SpillSink
except ImportError:  # earlier engines
    SpillSink = None

try:  # engine >= PR 5
    from repro.macsim.dynamics import EdgeChurn
except ImportError:  # earlier engines
    EdgeChurn = None

try:  # engine >= PR 6
    from repro.macsim.columnar import ColumnarSink, have_numpy
except ImportError:  # earlier engines
    ColumnarSink = None

    def have_numpy() -> bool:
        return False

try:  # engine >= PR 7
    from repro.macsim.telemetry import Telemetry
except ImportError:  # earlier engines
    Telemetry = None

try:  # analysis >= PR 1
    from repro.analysis import parallel_sweep
except ImportError:  # seed engine
    parallel_sweep = None
from repro.analysis import sweep

try:  # analysis >= PR 8 (work-stealing executor)
    from repro.analysis import saturating_workers
    HAVE_SWEEP_EXECUTORS = True
except ImportError:  # earlier trees: parallel_sweep has no executor arg
    saturating_workers = None
    HAVE_SWEEP_EXECUTORS = False

try:  # engine >= PR 9 (consensus-as-a-service runtime)
    from repro.macsim.service import run_service
    HAVE_SERVICE = True
except ImportError:  # earlier engines
    run_service = None
    HAVE_SERVICE = False

try:  # service >= PR 10 (request tracing + metrics registry)
    from repro.macsim.service import RequestTracer  # noqa: F401
    HAVE_TRACING = HAVE_SERVICE
except ImportError:  # earlier service layers
    HAVE_TRACING = False

try:
    from repro.core.wpaxos import WPaxosConfig, WPaxosNode
except ImportError:  # pragma: no cover - wpaxos is part of the seed
    WPaxosConfig = WPaxosNode = None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_event_queue(n: int = 100_000) -> int:
    """Push ``n`` events, pop them all; returns ops performed (2n)."""
    queue = EventQueue()
    push = queue.push
    for i in range(n):
        push(float(i % 97), DELIVER_PRIORITY, "deliver", node=i)
    pop = queue.pop
    while pop() is not None:
        pass
    return 2 * n


class _EchoProcess(Process):
    """Broadcasts ``count`` messages back-to-back (ack-driven)."""

    def __init__(self, uid, count: int = 5):
        super().__init__(uid=uid, initial_value=0)
        self.count = count
        self.sent = 0

    def on_start(self):
        self._next()

    def on_ack(self):
        self._next()

    def _next(self):
        if self.sent < self.count:
            self.sent += 1
            self.broadcast(("m", self.uid, self.sent))


def run_broadcast_fanout(n_nodes: int = 48, rounds: int = 5) -> int:
    """Echo flood on a clique; returns events processed."""
    graph = clique(n_nodes)
    sim = build_simulation(graph, lambda v: _EchoProcess(v, rounds),
                           SynchronousScheduler(1.0))
    return sim.run().events_processed


def run_dense_fanout(n_nodes: int = 96, rounds: int = 3) -> int:
    """The batched-scheduling showcase: an echo flood on a dense
    clique under the synchronous scheduler, where every broadcast's
    fan-out shares one timestamp -- one ``bdeliver`` heap entry per
    broadcast on PR 3+, one entry per neighbor before. Returns events
    processed (identical across engines)."""
    return run_broadcast_fanout(n_nodes, rounds)


def run_spill_clique(n: int = 24, rounds: int = 40,
                     chunk_records: int = 20_000,
                     telemetry: bool = False) -> int:
    """Full-level SpillSink throughput: an echo flood whose complete
    trace streams to chunked JSONL on disk. Returns events processed;
    the sink's temp directory is removed before returning.
    ``telemetry=True`` runs the identical workload with a live
    Telemetry attached (the PR 7 overhead-gate counterpart)."""
    graph = clique(n)
    sink = SpillSink(chunk_records=chunk_records)
    try:
        sim = build_simulation(graph, lambda v: _EchoProcess(v, rounds),
                               SynchronousScheduler(1.0),
                               trace_sink=sink,
                               **({"telemetry": Telemetry()}
                                  if telemetry else {}))
        result = sim.run()
        sink.close()
        assert len(sink) > 0
        if telemetry:
            assert sim.telemetry.counters["deliveries"] > 0
        return result.events_processed
    finally:
        sink.cleanup()


def run_spill_clique_tel(n: int = 24, rounds: int = 40) -> int:
    """``run_spill_clique`` with telemetry on (overhead measurement)."""
    return run_spill_clique(n, rounds, telemetry=True)


def run_columnar_clique(n: int = 24, rounds: int = 40,
                        chunk_records: int = 20_000) -> int:
    """Full-level ColumnarSink throughput: the spill_clique24 workload
    writing binary struct-packed column chunks instead of JSONL.
    Returns events processed; the temp directory is removed before
    returning."""
    graph = clique(n)
    sink = ColumnarSink(chunk_records=chunk_records)
    try:
        sim = build_simulation(graph, lambda v: _EchoProcess(v, rounds),
                               SynchronousScheduler(1.0),
                               trace_sink=sink)
        result = sim.run()
        sink.close()
        assert len(sink) > 0
        return result.events_processed
    finally:
        sink.cleanup()


def build_replay_corpus(n: int = 24, rounds: int = 40,
                        chunk_records: int = 20_000,
                        columnar: bool = True):
    """One spill_clique24-shaped execution persisted to disk for the
    replay benchmarks: ``(graph, sink)``, with the sink closed and its
    chunks on disk. Keep the sink referenced -- its temp directory is
    removed when it is garbage collected."""
    graph = clique(n)
    cls = ColumnarSink if columnar else SpillSink
    sink = cls(chunk_records=chunk_records)
    sim = build_simulation(graph, lambda v: _EchoProcess(v, rounds),
                           SynchronousScheduler(1.0), trace_sink=sink)
    sim.run()
    sink.close()
    return graph, sink


def run_columnar_replay(graph, directory: str, f_ack: float = 1.0) -> int:
    """Vectorized disk replay: reopen a columnar spill directory
    (numpy index rebuild -- the metrics path) and run the
    whole-chunk invariant audit over it. Returns records verified."""
    from repro.macsim import check_model_invariants

    sink = ColumnarSink.load(directory)
    report = check_model_invariants(graph, sink, f_ack)
    assert report.ok, report.violations[:3]
    assert sink.broadcast_count() > 0 and sink.decisions() is not None
    return len(sink)


class _ReferenceReplayView:
    """Presents a disk sink to ``check_model_invariants`` without its
    ``columnar`` capability flag, pinning the per-record reference
    replay path (the pre-PR 6 cost of the same audit)."""

    def __init__(self, sink):
        self._sink = sink

    def of_kind(self, kind):
        return self._sink.of_kind(kind)

    def __iter__(self):
        return self._sink.iter_records()


def run_reference_replay(graph, sink, f_ack: float = 1.0) -> int:
    """Record-iterator disk replay baseline: the same invariant audit
    driven record by record off ``sink``'s chunk iterator. Returns
    records verified."""
    from repro.macsim import check_model_invariants

    report = check_model_invariants(graph, _ReferenceReplayView(sink),
                                    f_ack)
    assert report.ok, report.violations[:3]
    return len(sink)


def build_query_trace(records: int = 50_000) -> Trace:
    """A synthetic mixed-kind trace for the query benchmark."""
    trace = Trace()
    kinds = ("broadcast", "deliver", "deliver", "ack", "decide")
    for i in range(records):
        trace.record(float(i), kinds[i % 5], i % 64,
                     broadcast_id=i // 5, payload=i % 2)
    return trace


def run_trace_queries(trace: Trace, iterations: int = 100) -> int:
    """Metric-style query sweeps over ``trace``; returns query count."""
    for _ in range(iterations):
        trace.decisions()
        trace.decision_times()
        trace.of_kind("deliver")
        trace.broadcast_count()
        trace.delivery_count()
    return 5 * iterations


def run_wpaxos_clique(n: int = 32, trace_level=None,
                      telemetry: bool = False) -> int:
    """Full wPAXOS consensus on clique(n); returns events processed.

    ``trace_level`` is forwarded when the engine supports it (PR 1+);
    ``None`` means the engine default (full trace) everywhere.
    ``telemetry=True`` attaches a live Telemetry (PR 7+) so
    perf_report can price the observability layer against the same
    run with it off.
    """
    graph = clique(n)
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    kwargs = {}
    if trace_level is not None:
        kwargs["trace_level"] = trace_level
    if telemetry:
        kwargs["telemetry"] = Telemetry()
    sim = build_simulation(
        graph,
        lambda v: WPaxosNode(uid[v], graph.index_of(v) % 2, graph.n,
                             WPaxosConfig()),
        SynchronousScheduler(1.0), **kwargs)
    result = sim.run()
    assert result.stop_reason in ("all_decided", "quiescent_all_decided")
    if telemetry:
        assert sim.telemetry.counters["events_processed"] \
            == result.events_processed
    return result.events_processed


def run_wpaxos_clique_tel(n: int = 32) -> int:
    """``run_wpaxos_clique`` with telemetry on (overhead measurement)."""
    return run_wpaxos_clique(n, telemetry=True)


def run_churn_clique(n: int = 24, rounds: int = 40,
                     rate: float = 0.1) -> int:
    """The E13-shaped dynamic-topology workload: an echo flood on a
    clique under per-epoch edge churn (spanning-tree floor). Measures
    the cost of epoch application -- per-epoch graph rebuild, neighbor
    recomputation, scheduler hook, topo trace records -- on
    top of the normal delivery path. Returns events processed."""
    graph = clique(n)
    sim = build_simulation(
        graph, lambda v: _EchoProcess(v, rounds),
        SynchronousScheduler(1.0),
        dynamics=EdgeChurn(rate=rate, seed=7))
    return sim.run().events_processed


SWEEP_SIZES = (16, 24, 32, 40)


def _sweep_point_build(n):
    graph = clique(int(n))
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return dict(
        graph=graph, scheduler=SynchronousScheduler(1.0),
        factory=lambda v, val: WPaxosNode(uid[v], val, graph.n,
                                          WPaxosConfig()),
        topology=f"clique({int(n)})")


def run_sweep_sequential(sizes=SWEEP_SIZES) -> int:
    """An E2-style wPAXOS clique sweep, sequentially (works on seed)."""
    result = sweep("bench-sweep", sizes, _sweep_point_build)
    assert result.all_correct()
    return len(result.points)


def run_sweep_parallel(sizes=SWEEP_SIZES) -> int:
    """The same sweep through parallel_sweep + decisions-level traces."""
    result = parallel_sweep("bench-sweep", sizes, _sweep_point_build,
                            trace_level=TraceLevel.DECISIONS)
    assert result.all_correct()
    return len(result.points)


# --- uneven-grid sweep: the work-stealing acceptance workload ----------
#
# A grid where every 4th cell does UNEVEN_SLOW_FACTOR x the echo rounds
# of the others. The PR 7 pool executor hands tasks out dynamically
# too, but at half the cores and one IPC round-trip per point; the
# work-stealing executor saturates every available core and amortizes
# the handout over guided-size chunks, so the mixed fast/straggler grid
# is where the gap shows. Cell sizes are chosen so one fast cell costs
# ~15-20 ms -- heavy enough that scheduling, not fork/IPC overhead,
# decides the comparison. Keys carry the round count, making each
# cell's cost explicit and deterministic.

UNEVEN_POINTS = 24
UNEVEN_N = 16
UNEVEN_FAST_ROUNDS = 24
UNEVEN_SLOW_FACTOR = 4


def uneven_keys(points: int = UNEVEN_POINTS,
                fast_rounds: int = UNEVEN_FAST_ROUNDS,
                slow_factor: int = UNEVEN_SLOW_FACTOR):
    """``points`` echo-round counts, every 4th one ``slow_factor``x."""
    return tuple(
        fast_rounds * (slow_factor if i % 4 == 3 else 1)
        for i in range(points))


def _uneven_build(rounds):
    graph = clique(UNEVEN_N)
    return dict(
        graph=graph, scheduler=SynchronousScheduler(1.0),
        factory=lambda v, val: _EchoProcess(v, int(rounds)),
        initial_values={v: 0 for v in graph.nodes},
        topology=f"clique({UNEVEN_N})x{int(rounds)}")


def run_sweep_uneven(executor: str = "steal", points: int = UNEVEN_POINTS,
                     workers=None) -> int:
    """The uneven grid through one of the parallel executors.

    ``executor="pool"`` is the PR 7 one-task-per-point baseline at its
    own defaults (half the cores); ``"steal"`` is the PR 8
    work-stealing pool at its defaults (every available core, chunked
    claims). Identical work either way -- only the scheduling
    differs."""
    xs = uneven_keys(points)
    result = parallel_sweep("bench-uneven", xs, _uneven_build,
                            trace_level=TraceLevel.DECISIONS,
                            workers=workers, executor=executor,
                            progress=False)
    assert len(result.points) == len(xs)
    return len(result.points)


# --- consensus-as-a-service workloads (PR 9) --------------------------
#
# End-to-end request throughput of the multi-group serve loop: the
# closed-loop workload, frontend batching, slot derivation and the
# run-to-completion GroupRuntime all sit on the measured path, so this
# prices the whole service stack, not just the engine underneath. Sized so one
# run costs ~0.5 s: heavy enough to dominate per-call setup, light
# enough for interleaved repeats.

SERVE_GROUPS = 8
SERVE_CLIENTS = 96
SERVE_REQUESTS_PER_CLIENT = 3


def _serve_base():
    from repro.scenario import (AlgorithmSpec, Scenario, SchedulerSpec,
                                TopologySpec)
    return Scenario(algorithm=AlgorithmSpec("wpaxos"),
                    topology=TopologySpec("clique", n=5),
                    scheduler=SchedulerSpec("synchronous", f_ack=1.0),
                    seed=0)


def run_serve_multigroup(groups: int = SERVE_GROUPS,
                         clients: int = SERVE_CLIENTS,
                         shards: int = 1) -> int:
    """Serve a full closed-loop session; returns committed requests."""
    report = run_service(
        _serve_base(), groups=groups, clients=clients, shards=shards,
        requests_per_client=SERVE_REQUESTS_PER_CLIENT)
    assert report.failed == 0
    return report.requests


def run_serve_sharded(shards=None) -> int:
    """The same session across forked shards (auto = one per core)."""
    return run_serve_multigroup(shards=shards)


def run_serve_traced(groups: int = SERVE_GROUPS,
                     clients: int = SERVE_CLIENTS,
                     shards: int = 1) -> int:
    """``run_serve_multigroup`` with request tracing and the windowed
    metrics registry attached -- the tracing-overhead gate's "on"
    side. Returns committed requests (same unit as the off side)."""
    report = run_service(
        _serve_base(), groups=groups, clients=clients, shards=shards,
        requests_per_client=SERVE_REQUESTS_PER_CLIENT,
        trace_requests=True, metrics_window=50.0)
    assert report.failed == 0
    return report.requests


def run_spill_probe(n: int = 24, rounds: int = 120,
                    chunk_records: int = 20_000) -> dict:
    """RSS/throughput probe for the spill pipeline.

    Runs a full-level SpillSink execution, replays it through
    ``check_model_invariants`` (the chunk-iterating query API), and
    reports throughput plus the peak *Python-heap* footprint of the
    whole run+replay (``tracemalloc``, deterministic) and the process
    ``ru_maxrss`` for context. The point being probed: peak memory is
    O(n + chunk), not O(records).
    """
    import resource
    import time
    import tracemalloc

    from repro.macsim import check_model_invariants

    graph = clique(n)
    sink = SpillSink(chunk_records=chunk_records)
    try:
        tracemalloc.start()
        start = time.perf_counter()
        sim = build_simulation(graph, lambda v: _EchoProcess(v, rounds),
                               SynchronousScheduler(1.0),
                               trace_sink=sink)
        result = sim.run()
        sink.close()
        run_seconds = time.perf_counter() - start
        start = time.perf_counter()
        report = check_model_invariants(graph, sink, 1.0)
        replay_seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert report.ok, report.violations[:3]
        spilled_bytes = sum(os.path.getsize(p)
                            for p in sink.chunk_paths())
        return {
            "events": result.events_processed,
            "records": len(sink),
            "chunks": len(sink.chunk_paths()),
            "spilled_mb": round(spilled_bytes / 1e6, 2),
            "run_seconds": round(run_seconds, 4),
            "replay_seconds": round(replay_seconds, 4),
            "events_per_sec": round(
                result.events_processed / run_seconds, 1),
            "replay_records_per_sec": round(
                len(sink) / replay_seconds, 1),
            "py_heap_peak_mb": round(peak / 1e6, 2),
            "ru_maxrss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, 1),
        }
    finally:
        sink.cleanup()


# ----------------------------------------------------------------------
# pytest-benchmark wrappers
# ----------------------------------------------------------------------
def test_event_queue_throughput(benchmark):
    assert benchmark(run_event_queue, 20_000) == 40_000


def test_broadcast_fanout(benchmark):
    events = benchmark(run_broadcast_fanout, 24, 5)
    assert events > 0


def test_trace_queries(benchmark):
    trace = build_query_trace(10_000)
    assert benchmark(run_trace_queries, trace, 20) == 100


def test_wpaxos_clique32_events(benchmark):
    events = benchmark(run_wpaxos_clique, 32)
    assert events > 0


def test_wpaxos_clique32_events_decisions_level(benchmark):
    if TraceLevel is None:
        import pytest
        pytest.skip("engine predates TraceLevel")
    events = benchmark(run_wpaxos_clique, 32, TraceLevel.DECISIONS)
    assert events > 0


def test_parallel_sweep_e2_style(benchmark):
    if parallel_sweep is None:
        import pytest
        pytest.skip("engine predates parallel_sweep")
    assert benchmark(run_sweep_parallel, (8, 12)) == 2


def test_dense_fanout_batched(benchmark):
    events = benchmark(run_dense_fanout, 48, 2)
    assert events > 0


def test_spill_clique_throughput(benchmark):
    if SpillSink is None:
        import pytest
        pytest.skip("engine predates SpillSink")
    events = benchmark(run_spill_clique, 16, 10)
    assert events > 0


def test_columnar_clique_throughput(benchmark):
    if ColumnarSink is None:
        import pytest
        pytest.skip("engine predates ColumnarSink")
    events = benchmark(run_columnar_clique, 16, 10)
    assert events > 0


def test_wpaxos_clique32_events_telemetry(benchmark):
    if Telemetry is None:
        import pytest
        pytest.skip("engine predates Telemetry")
    events = benchmark(run_wpaxos_clique_tel, 32)
    assert events > 0


def test_columnar_replay_throughput(benchmark):
    if ColumnarSink is None:
        import pytest
        pytest.skip("engine predates ColumnarSink")
    graph, sink = build_replay_corpus(16, 10)
    records = benchmark(run_columnar_replay, graph, sink.directory)
    assert records == len(sink)
