"""Parameter sweep helpers.

Thin declarative layer over :func:`repro.analysis.runner.run_consensus`
for producing the (x, y) series the experiments fit lines through.
Two runners share one point-execution helper:

* :func:`sweep` -- sequential, one consensus execution per key.
* :func:`parallel_sweep` -- same contract and *identical results*, but
  sweep points fan out over ``multiprocessing`` workers. Results come
  back in the order of ``xs`` regardless of worker completion order,
  and each point is itself deterministic (fixed scheduler/seed), so a
  parallel sweep is byte-for-byte equivalent to the sequential one.

Scenario cells (a ``ScenarioGrid``, an experiment manifest) get here
through :meth:`repro.analysis.manifests.ExperimentManifest.run`: a
result cache in front, all of an experiment's blocks in one pool.

Structured sweep keys
---------------------
A sweep key may be a plain scalar (the classic ``x``) or any tuple --
``(x, seed)``, ``((n, f), seed)`` -- and ``build(key)`` receives it
verbatim. This is how seed-replicated series (one execution per
``(x, seed)`` pair, the shape of E1/E9/E10) fan out across workers
instead of looping seeds sequentially inside each x. The point's
scalar axis is the first numeric leaf of the key, unless ``build``
returns an explicit ``x`` entry; :meth:`SweepResult.by_x` regroups the
replicas for aggregation.

Executor
--------
:func:`fork_map` is the one process pool: ``parallel_sweep`` runs
sweep points on it and
:class:`~repro.macsim.service.sharded.ShardedService` runs service
groups on it. Its ``workers`` forked processes *pull* item indexes
from a shared counter in small chunks (guided self-scheduling: chunk
size shrinks toward 1 near the tail), so an uneven grid -- E9/E13's
deadlocking cells run orders of magnitude slower than their
neighbors -- keeps every core busy instead of idling behind
stragglers. ``workers`` defaults to one per core
(:func:`saturating_workers`); ``workers=1`` is the sequential path.

A dead worker (killed, out of memory) costs a retry, not the run: the
counter hands out each index once, so the items without a result are
exactly the claims of workers that died, and they re-run in a fresh
pool. Items are deterministic, so the re-run is exact. A task that
*raises* is just as deterministic and is not retried: the pool stops
and :class:`SweepWorkerError` names the item.

Workers are forked, so the (typically unpicklable) tasks and
``build`` closures never cross a process boundary: workers inherit
them and receive only item indexes; only results (plain dataclasses)
are pickled back, each over its worker's own pipe. On platforms
without ``fork``, or inside a pool worker, the sweep runs in process.

Progress telemetry
------------------
Long sweeps (E9/E13 grids) used to run dark: a deadlocking cell was
indistinguishable from a slow one until the whole pool drained. All
runners take ``progress=True`` (or the ``MACSIM_SWEEP_PROGRESS=1``
environment toggle, which reaches sweeps buried inside experiment
drivers; ``0``/``false``/``no``/``off``/empty disable it) and emit one
heartbeat line per completed point to stderr -- ``done/total``, the
point's ``SweepPoint.key``, its runtime, overall elapsed and ETA --
flagging stragglers whose runtime exceeds :data:`STRAGGLER_FACTOR` x
the median of completed points. After the last point a single summary
line reports total points, wall time, points/s, straggler count, cache
hit ratio (when a result cache was consulted) and, for the
work-stealing executor, per-worker utilization and chunk-steal counts.
Heartbeats are stderr-only and never alter results or point order.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import wait
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..macsim.trace import TraceLevel
from .metrics import RunMetrics
from .runner import run_consensus
from .stats import linear_fit


class SweepError(RuntimeError):
    """A sweep could not complete."""


class SweepWorkerError(SweepError):
    """A task raised, or its worker died on every attempt; ``items``
    holds the failing item(s)."""

    def __init__(self, message: str, items: Sequence[Any] = ()) -> None:
        super().__init__(message)
        self.items = list(items)


@dataclass(slots=True)
class SweepPoint:
    """One measured point of a sweep."""

    x: float
    metrics: RunMetrics
    #: The full sweep key this point was built from (equal to ``x``
    #: for scalar sweeps; the ``(x, seed)``-style tuple otherwise).
    key: Any = None


@dataclass
class SweepResult:
    """A complete sweep with fitting helpers."""

    name: str
    points: List[SweepPoint] = field(default_factory=list)
    #: Executor telemetry (worker counts, per-worker points/chunks/
    #: busy-seconds, flagged ``stragglers`` keys) for parallel runs;
    #: ``None`` on sequential paths.
    #: Observability only -- never part of the measured results.
    executor_stats: Optional[Dict[str, Any]] = None

    @property
    def xs(self) -> List[float]:
        return [p.x for p in self.points]

    def ys(self, attribute: str = "last_decision") -> List[float]:
        return [getattr(p.metrics, attribute) for p in self.points]

    def all_correct(self) -> bool:
        return all(p.metrics.correct for p in self.points)

    def by_x(self) -> Dict[float, List[SweepPoint]]:
        """Points regrouped by scalar axis, in first-seen x order.

        The aggregation view for seed-replicated sweeps: every
        ``(x, seed)`` replica of one x lands in one bucket.
        """
        groups: Dict[float, List[SweepPoint]] = {}
        for point in self.points:
            groups.setdefault(point.x, []).append(point)
        return groups

    def fit(self, attribute: str = "last_decision"):
        """Least-squares (slope, intercept) of ``attribute`` vs x."""
        return linear_fit(self.xs, self.ys(attribute))

    def rows(self, attribute: str = "last_decision") -> List[list]:
        """Table rows: one per point (x, correct, value)."""
        return [[p.x, p.metrics.correct,
                 getattr(p.metrics, attribute)] for p in self.points]


def _scalar_axis(key: Any) -> float:
    """The plotting axis of a sweep key: its first numeric leaf."""
    while isinstance(key, tuple):
        if not key:
            raise ValueError("empty tuple sweep key")
        key = key[0]
    if isinstance(key, bool) or not isinstance(key, (int, float)):
        raise ValueError(
            f"cannot derive a scalar axis from sweep key leaf {key!r}; "
            f"have build() return an explicit 'x' entry")
    return float(key)


#: A completed point is flagged as a straggler when its runtime
#: exceeds this multiple of the median completed-point runtime (and
#: :data:`STRAGGLER_MIN_SECONDS`, so micro-point jitter never flags).
STRAGGLER_FACTOR = 4.0
STRAGGLER_MIN_SECONDS = 0.5


def flag_stragglers(runtimes: Sequence[tuple]) -> List[Any]:
    """Post-hoc straggler detection over ``(key, seconds)`` pairs.

    Applies the same rule as the live heartbeat marker
    (:meth:`SweepProgress.is_straggler`) but against the *complete*
    runtime distribution, so the flagged set is deterministic rather
    than dependent on completion order: a key is a straggler when its
    runtime is at least :data:`STRAGGLER_MIN_SECONDS` and exceeds
    :data:`STRAGGLER_FACTOR` x the median runtime. Fewer than four
    points never flag (too little signal for a median to mean much).
    Returns the flagged keys in input order.
    """
    if len(runtimes) < 4:
        return []
    ordered = sorted(seconds for _, seconds in runtimes)
    median = ordered[len(ordered) // 2]
    return [key for key, seconds in runtimes
            if seconds >= STRAGGLER_MIN_SECONDS
            and seconds > STRAGGLER_FACTOR * median]

#: Environment values that disable ``MACSIM_SWEEP_PROGRESS`` (any
#: other non-empty value enables it).
_FALSY_ENV = frozenset({"", "0", "false", "no", "off"})


def _progress_enabled(progress: Optional[bool]) -> bool:
    if progress is None:
        value = os.environ.get("MACSIM_SWEEP_PROGRESS", "")
        return value.strip().lower() not in _FALSY_ENV
    return bool(progress)


class SweepProgress:
    """Heartbeat emitter for sweep runners (stderr by default).

    One :meth:`point_done` call per completed point prints the running
    tally, the point's key and runtime, total elapsed wall time, a
    completion-rate ETA for the remainder, and a ``** straggler``
    marker when the point ran :data:`STRAGGLER_FACTOR` x slower than
    the median completed point (E13's deadlocking-cell signature).
    :meth:`note_cached` accounts result-cache hits that skipped
    execution; :meth:`finish` prints the closing summary line (and a
    per-worker utilization line when the work-stealing executor hands
    over its stats). Pure observer: it never reorders or mutates
    results.
    """

    def __init__(self, name: str, total: int, stream=None) -> None:
        self.name = name
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.runtimes: List[float] = []
        self.stragglers: List[Any] = []
        self.started = perf_counter()

    def is_straggler(self, seconds: float) -> bool:
        if len(self.runtimes) < 3 or seconds < STRAGGLER_MIN_SECONDS:
            return False
        median = sorted(self.runtimes)[len(self.runtimes) // 2]
        return seconds > STRAGGLER_FACTOR * median

    def point_done(self, key: Any, seconds: float) -> None:
        straggler = self.is_straggler(seconds)
        self.done += 1
        self.runtimes.append(seconds)
        elapsed = perf_counter() - self.started
        eta = elapsed / self.done * (self.total - self.done)
        mark = ""
        if straggler:
            self.stragglers.append(key)
            mark = "  ** straggler"
        print(f"[sweep {self.name}] {self.done}/{self.total} "
              f"key={key!r} {seconds:.2f}s "
              f"(elapsed {elapsed:.1f}s, eta {eta:.1f}s){mark}",
              file=self.stream, flush=True)

    def note_cached(self, count: int) -> None:
        """Account ``count`` points served from the result cache."""
        if count <= 0:
            return
        self.cache_hits += count
        self.done += count
        print(f"[sweep {self.name}] {self.done}/{self.total} "
              f"({count} cached point{'s' if count != 1 else ''} "
              f"reused)", file=self.stream, flush=True)

    def finish(self, worker_stats: Optional[List[dict]] = None) -> None:
        """Print the closing summary line after the last heartbeat."""
        elapsed = perf_counter() - self.started
        rate = self.done / elapsed if elapsed > 0 else float("inf")
        cache = ""
        if self.cache_hits or self.cache_misses:
            # Only a run that consulted a result cache counted either.
            hit_ratio = self.cache_hits / self.total if self.total else 0.0
            cache = (f", cache {self.cache_hits}/{self.total} hits, "
                     f"{self.cache_misses} misses [{hit_ratio:.0%}]")
        print(f"[sweep {self.name}] summary: {self.done}/{self.total} "
              f"points in {elapsed:.2f}s ({rate:.1f} points/s, "
              f"{len(self.stragglers)} stragglers{cache})",
              file=self.stream, flush=True)
        if worker_stats:
            cells = []
            for entry in worker_stats:
                busy = entry.get("busy_seconds", 0.0)
                util = busy / elapsed if elapsed > 0 else 0.0
                cells.append(f"w{entry['worker']}="
                             f"{entry['points']}pt/"
                             f"{entry['chunks']}steals/"
                             f"{util:.0%}util")
            print(f"[sweep {self.name}] workers: {' '.join(cells)}",
                  file=self.stream, flush=True)


def _run_point(name: str, key: Any,
               build: Callable[[Any], Dict[str, Any]]) -> SweepPoint:
    """Execute one sweep point; shared by all runners."""
    spec = dict(build(key))
    spec.setdefault("algorithm", name)
    spec.setdefault("topology", f"{name}@{key}")
    x = spec.pop("x", None)
    if x is None:
        x = _scalar_axis(key)
    return SweepPoint(x=float(x), metrics=run_consensus(**spec), key=key)


def _with_run_defaults(build: Callable[[Any], Dict[str, Any]],
                       **defaults: Any) -> Callable[[Any], Dict[str, Any]]:
    """``build`` with the sweep-wide limits and trace level filled in
    under whatever a cell declares for itself."""
    return lambda key: {**defaults, **build(key)}


def sweep(name: str, xs: Sequence[Any],
          build: Callable[[Any], Dict[str, Any]],
          *, max_events: int = 20_000_000,
          max_time: Optional[float] = None,
          trace_level: "TraceLevel | str" = TraceLevel.DECISIONS,
          progress: Optional[bool] = None,
          reporter: Optional[SweepProgress] = None,
          on_point: Optional[Callable[[SweepPoint], None]] = None,
          ) -> SweepResult:
    """Run one consensus execution per key in ``xs`` and collect metrics.

    ``build(key)`` returns the keyword arguments for
    :func:`run_consensus` at that sweep point: ``graph``,
    ``scheduler``, ``factory`` and optionally ``initial_values`` /
    ``topology`` / ``fault_model`` / ``unreliable_graph`` /
    ``check_invariants`` / ``probe``, plus ``x`` to pin the point's
    scalar axis when the key alone does not determine it. A cell's own
    ``algorithm`` label (default: ``name``), ``max_events``,
    ``max_time`` or ``trace_level`` win over the sweep-wide arguments.

    A :class:`SweepPoint` carries only :class:`RunMetrics`, so cells
    run at ``TraceLevel.DECISIONS`` by default: no MAC record is kept
    and the model invariants are audited online (:func:`run_consensus`).

    Example::

        result = sweep(
            "time vs D", [4, 9, 19],
            lambda d: dict(
                graph=line(int(d) + 1),
                scheduler=SynchronousScheduler(1.0),
                factory=make_wpaxos_factory(line(int(d) + 1))))
        slope, intercept = result.fit()

    Seed-replicated series pass ``(x, seed)`` tuples::

        result = sweep(
            "time vs p", [(p, s) for p in probs for s in range(5)],
            lambda key: build_for(prob=key[0], seed=key[1]))
        for p, replicas in result.by_x().items(): ...

    ``progress`` (or ``MACSIM_SWEEP_PROGRESS=1``) emits one heartbeat
    line per completed point to stderr plus a closing summary line.
    ``on_point`` is called with each completed :class:`SweepPoint` in
    completion order (the result-cache store hook). A caller-owned
    ``reporter`` suppresses the summary (the caller finishes it).
    """
    xs = list(xs)
    build = _with_run_defaults(build, max_events=max_events,
                               max_time=max_time, trace_level=trace_level)
    owns_reporter = reporter is None
    if owns_reporter and _progress_enabled(progress):
        reporter = SweepProgress(name, len(xs))
    result = SweepResult(name=name)
    for x in xs:
        t0 = perf_counter()
        point = _run_point(name, x, build)
        if reporter is not None:
            reporter.point_done(point.key, perf_counter() - t0)
        result.points.append(point)
        if on_point is not None:
            on_point(point)
    if owns_reporter and reporter is not None:
        reporter.finish()
    return result


#: Fresh pools that the items of a dead worker get before they count
#: as lost.
_RETRIES = 1

# (task, items) the forked workers inherit. Only valid while
# :func:`fork_map` runs.
_FORK_STATE: Optional[tuple] = None
# The pool worker this process is (0 outside a pool).
_WORKER = 0


def saturating_workers() -> int:
    """Work-stealing worker count: one per *available* core."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def can_fork() -> bool:
    """Whether :func:`fork_map` can run here: the platform has
    ``fork`` and this process is not itself a pool worker."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


def pool_worker() -> int:
    """The :func:`fork_map` worker running the current task (0 outside
    a pool)."""
    return _WORKER


#: Upper bound on a single work-stealing claim. Chunks amortize the
#: shared-counter lock on huge grids without re-creating pool-sized
#: head-of-line blocking: near the tail the guided rule below shrinks
#: claims back to single items.
CHUNK_MAX = 16


def _claim_chunk(counter, total: int, workers: int):
    """Claim the next chunk of item positions (guided self-scheduling).

    Chunk size is ``remaining / (2 * workers)`` clamped to
    ``[1, CHUNK_MAX]``: big grids hand out multi-item chunks while
    plenty of work remains, and the final claims degrade to one item
    each so no worker gets stuck behind a straggler's tail.
    """
    with counter.get_lock():
        start = counter.value
        if start >= total:
            return None
        remaining = total - start
        size = min(max(1, min(CHUNK_MAX, remaining // (2 * workers))),
                   remaining)
        counter.value = start + size
    return start, size


def _fork_worker(worker: int, conn, indices: List[int], workers: int,
                 counter) -> None:
    """Worker loop: claim chunks of ``indices`` until the counter drains.

    Each result ships back at once as ``("item", index, seconds,
    result, first_of_chunk)``; a task that raises ships ``("error",
    index, text)`` and stops this worker. Anything else that ends the
    worker (a signal, ``os._exit``, ``SystemExit``) leaves its claimed
    items unreported, which is how the parent sees a dead worker.
    """
    global _WORKER
    _WORKER = worker
    task, items = _FORK_STATE
    with conn:
        while (claim := _claim_chunk(counter, len(indices), workers)):
            start, size = claim
            for pos in range(start, start + size):
                index = indices[pos]
                t0 = perf_counter()
                try:
                    result = task(items[index])
                    conn.send(("item", index, perf_counter() - t0,
                               result, pos == start))
                except Exception as exc:
                    conn.send(("error", index,
                               f"{type(exc).__name__}: {exc}"))
                    return


def _run_pool(indices: List[int], workers: int, receive) -> None:
    """Fork one pool over ``indices`` and hand every message to
    ``receive(worker, message)`` until each worker's pipe is at EOF.

    A worker that dies mid-message reads as EOF too. Whatever way the
    pool ends, every worker is terminated and joined.
    """
    context = multiprocessing.get_context("fork")
    counter = context.Value("l", 0)
    procs = []
    readers: Dict[Any, int] = {}
    try:
        for worker in range(workers):
            reader, writer = context.Pipe(duplex=False)
            proc = context.Process(
                target=_fork_worker,
                args=(worker, writer, indices, workers, counter),
                daemon=True)
            proc.start()
            # Closed before the next fork, so only its worker holds
            # the write end and its exit is this pipe's EOF.
            writer.close()
            procs.append(proc)
            readers[reader] = worker
        while readers:
            for reader in wait(list(readers)):
                try:
                    message = reader.recv()
                except (EOFError, OSError):
                    reader.close()
                    del readers[reader]
                    continue
                receive(readers[reader], message)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join()
        for reader in readers:
            reader.close()


def fork_map(task: Callable[[Any], Any], items: Sequence[Any], *,
             workers: int,
             on_result: Optional[Callable[[int, Any, float, int], None]]
             = None):
    """Run ``task(item)`` for every item on ``workers`` forked processes.

    Returns ``(results, worker_stats, lost)``: the results in input
    order, one dict per worker (``worker``/``points``/``chunks``/
    ``busy_seconds``), and the indexes of the items whose worker died
    on every attempt (their result is ``None``). ``on_result(index,
    result, seconds, worker)`` fires in the parent, in completion
    order. A task that raises stops the pool and raises
    :class:`SweepWorkerError` naming the item.
    """
    global _FORK_STATE
    items = list(items)
    results: List[Any] = [None] * len(items)
    done = [False] * len(items)
    stats = [{"worker": w, "points": 0, "chunks": 0, "busy_seconds": 0.0}
             for w in range(workers)]

    def receive(worker: int, message: tuple) -> None:
        if message[0] == "error":
            _, index, text = message
            raise SweepWorkerError(f"{text} (item {items[index]!r})",
                                   [items[index]])
        _, index, seconds, result, first = message
        results[index] = result
        done[index] = True
        entry = stats[worker]
        entry["points"] += 1
        entry["chunks"] += first
        entry["busy_seconds"] += seconds
        if on_result is not None:
            on_result(index, result, seconds, worker)

    pending = list(range(len(items)))
    _FORK_STATE = (task, items)
    try:
        for _ in range(1 + _RETRIES):
            if not pending:
                break
            _run_pool(pending, min(workers, len(pending)), receive)
            pending = [i for i in pending if not done[i]]
    finally:
        _FORK_STATE = None
    for entry in stats:
        entry["busy_seconds"] = round(entry["busy_seconds"], 4)
    return results, stats, pending


def parallel_sweep(name: str, xs: Sequence[Any],
                   build: Callable[[Any], Dict[str, Any]],
                   *, max_events: int = 20_000_000,
                   max_time: Optional[float] = None,
                   trace_level: "TraceLevel | str" = TraceLevel.DECISIONS,
                   workers: Optional[int] = None,
                   progress: Optional[bool] = None,
                   reporter: Optional[SweepProgress] = None,
                   on_point: Optional[Callable[[SweepPoint], None]]
                   = None) -> SweepResult:
    """Like :func:`sweep`, but fan sweep points out over processes.

    Results are deterministic and identical to :func:`sweep`: points
    come back tagged with their input index and are reassembled into
    ``xs`` order, and each point's execution is fully determined by
    its scheduler and seed. Structured ``(x, seed)`` keys fan every
    replica out as its own worker task.

    Points run on :func:`fork_map` with ``workers`` processes
    (default: one per available core, :func:`saturating_workers`).
    The sweep runs in process -- it *is* :func:`sweep` -- when
    ``workers <= 1``, with fewer than two points, or where forking is
    unavailable (:func:`can_fork`). A point whose worker died on every
    attempt raises :class:`SweepWorkerError` naming its key.

    ``progress`` (or ``MACSIM_SWEEP_PROGRESS=1``) heartbeats each
    point to stderr *as it completes* -- completion order, not input
    order -- so a straggling worker is visible while the rest of the
    pool drains around it, then prints a summary line. ``on_point``
    fires in the parent, in completion order, with each completed
    point (the result-cache store hook, so interrupted sweeps keep
    their finished work). A caller-owned ``reporter`` suppresses the
    summary (the caller finishes it).
    """
    xs = list(xs)
    if workers is None:
        workers = min(saturating_workers(), len(xs)) if xs else 1
    if len(xs) < 2 or workers < 2 or not can_fork():
        return sweep(name, xs, build, max_events=max_events,
                     max_time=max_time, trace_level=trace_level,
                     progress=progress, reporter=reporter,
                     on_point=on_point)

    build = _with_run_defaults(build, max_events=max_events,
                               max_time=max_time, trace_level=trace_level)
    owns_reporter = reporter is None
    if owns_reporter and _progress_enabled(progress):
        reporter = SweepProgress(name, len(xs))
    runtimes: List[Optional[float]] = [None] * len(xs)

    def on_result(index: int, point: SweepPoint, seconds: float,
                  _worker: int) -> None:
        runtimes[index] = seconds
        if on_point is not None:
            on_point(point)
        if reporter is not None:
            reporter.point_done(point.key, seconds)

    points, worker_stats, lost = fork_map(
        partial(_run_point, name, build=build), xs, workers=workers,
        on_result=on_result)
    if lost:
        keys = [xs[i] for i in lost]
        raise SweepWorkerError(
            f"sweep worker(s) died before reporting points {keys!r} "
            f"on all {1 + _RETRIES} attempts", keys)
    executor_stats = {"workers": workers,
                      "per_worker": worker_stats,
                      "stragglers": flag_stragglers(list(zip(xs, runtimes)))}
    if owns_reporter and reporter is not None:
        reporter.finish(worker_stats=worker_stats)
    return SweepResult(name=name, points=points,
                       executor_stats=executor_stats)
