"""Request-level tracing and windowed service metrics.

Two opt-in observers for the serve path, in the Dapper tradition of
span-per-request tracing applied to the service's virtual-time world:

* :class:`RequestTracer` stamps every client proposal with a span tree
  -- ``enqueue -> batch_admit -> slot_start -> decide -> reply`` -- in
  virtual time, attributed to ``(group, slot, shard)``. The reduction
  side (queueing-delay vs service-time breakdowns, per-group latency
  histograms) lives in :mod:`repro.analysis.service_stats`; the raw
  artifact is schema ``service-spans/v1``.
* :class:`MetricsRegistry` keeps a ring buffer of fixed-width
  virtual-time windows -- arrivals, commits, RPS, in-flight, per-window
  latency percentiles -- plus cumulative per-group series and free-form
  counters (frontend queue peaks, serve-heap churn, engine heap
  counters when telemetry rides along). Snapshots carry schema
  ``service-metrics/v1``; ``repro stats`` renders them.

Both observers follow the telemetry subsystem's design contract:

* **Byte-identity.** Neither ever touches the engines or the closed
  loop's event order; a serve run with tracing on produces traces and
  reports identical to tracing off (pinned by the test suite).
* **No-op fast path.** Disabled observers cost the serve loop one
  ``is None`` check per arrival/commit. No timing gate holds the
  enabled cost today: the <= 5% gate lived in the retired legacy bench
  harness (CHANGES.md) and waits for the perf ledger's paired on/off
  estimator (ROADMAP item 2(c)). What guards the behaviour is the
  on == off identity tests.
* **Exact merging.** Span records are pure virtual time, so the merge
  of per-group snapshots is *identical* (modulo the wall-clock
  ``scheduler`` section and the ``shard`` stamps) to a serial run's
  snapshot: records sort on a canonical key, window counts add, and
  per-group series union (every group is served by exactly one part).
  A part's ``shard`` stamp names the pool worker that served it, which
  varies from run to run, and a worker stamps one part per group it
  served. Wall-clock scheduler profiles are kept under a separate
  ``scheduler`` key precisely so identity comparisons can strip them,
  mirroring ``wall_seconds``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = ["RequestTracer", "MetricsRegistry", "latency_summary",
           "SPAN_SCHEMA", "METRICS_SCHEMA", "SPAN_STAGES"]

#: Schema tag for span artifacts (``repro serve --trace-requests``).
SPAN_SCHEMA = "service-spans/v1"
#: Schema tag for windowed metrics snapshots (``--metrics-out``).
METRICS_SCHEMA = "service-metrics/v1"
#: A request's span stages, in causal order. ``batch_admit`` and
#: ``slot_start`` coincide today (the frontend closes a batch exactly
#: when its slot starts); both are recorded so the schema survives a
#: future slot-pipelining split.
SPAN_STAGES = ("enqueue", "batch_admit", "slot_start", "decide", "reply")

#: Canonical sort key for span records: merge of per-shard snapshots
#: equals the serial snapshot because both sort on it.
_SPAN_KEY = ("group", "slot", "client", "index")


def latency_summary(latencies: Sequence[float]) -> Dict[str, Any]:
    """Nearest-rank percentile summary of a latency sample."""
    n = len(latencies)
    if n == 0:
        return {"count": 0}
    ordered = sorted(latencies)

    def pct(q: float) -> float:
        return ordered[max(0, math.ceil(q * n) - 1)]

    return {
        "count": n,
        "mean": sum(ordered) / n,
        "p50": pct(0.50),
        "p95": pct(0.95),
        "p99": pct(0.99),
        "max": ordered[-1],
    }


def overhead_fraction(overhead: float, engine: float) -> float:
    """The ``scheduler`` block's ``overhead_fraction``: the share of
    runtime wall time spent outside the engine."""
    busy = overhead + engine
    return overhead / busy if busy > 0.0 else 0.0


def _span_sort_key(record: Dict[str, Any]):
    return tuple(record[k] for k in _SPAN_KEY)


class RequestTracer:
    """Collect one span record per client proposal.

    The serve loop calls :meth:`record_slot` once per finished slot
    (it already holds every timestamp a span needs: the request's
    arrival, the slot's start, the instant its replicas committed and
    the commit instant), so tracing adds one dict append per request and
    zero work per event.
    """

    __slots__ = ("shard", "records")

    def __init__(self, *, shard: int = 0) -> None:
        self.shard = shard
        self.records: List[Dict[str, Any]] = []

    def record_slot(self, *, group: int, slot: int, batch: Iterable[Any],
                    start: float, decide: float, reply: float,
                    ok: bool, stop_reason: str) -> None:
        """Record the spans of every request carried by one slot.

        ``start`` is the global instant the slot began (batch
        admission and slot start coincide), ``decide`` the global
        instant its first replica committed it, ``reply`` the commit
        instant the service stamps latencies with. ``stop_reason`` is
        ``"committed"`` for a committed slot, else why a request with
        ``ok`` false failed.
        """
        shard = self.shard
        for req in batch:
            self.records.append({
                "client": req.client,
                "index": req.index,
                "group": group,
                "slot": slot,
                "shard": shard,
                "ok": ok,
                "stop_reason": stop_reason,
                "enqueue": req.arrival,
                "batch_admit": start,
                "slot_start": start,
                "decide": decide,
                "reply": reply,
            })

    def snapshot(self, *, scheduler: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
        """``service-spans/v1`` artifact: canonically sorted records
        plus the (wall-clock, hence identity-exempt) scheduler profile."""
        doc: Dict[str, Any] = {
            "schema": SPAN_SCHEMA,
            "stages": list(SPAN_STAGES),
            "shards": [self.shard],
            "requests": sorted(self.records, key=_span_sort_key),
        }
        if scheduler is not None:
            doc["scheduler"] = {
                "shards": {str(self.shard): scheduler},
                "totals": dict(scheduler),
            }
        return doc

    @staticmethod
    def merge_snapshots(parts: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        """Merge per-part span snapshots into one artifact.

        Virtual-time records concatenate and re-sort (== a serial
        run's snapshot); wall-clock scheduler profiles sum per field
        and per ``shard`` stamp, with the overhead fraction recomputed
        from the summed split.
        """
        parts = [p for p in parts if p is not None]
        if not parts:
            return {}
        records: List[Dict[str, Any]] = []
        shards: List[int] = []
        sched_shards: Dict[str, List[Dict[str, Any]]] = {}
        for part in parts:
            records.extend(part.get("requests", ()))
            shards.extend(part.get("shards", ()))
            # A worker serves several groups, so it stamps several
            # parts: its profiles add up.
            for sid, prof in part.get("scheduler", {}).get(
                    "shards", {}).items():
                sched_shards.setdefault(sid, []).append(prof)
        doc: Dict[str, Any] = {
            "schema": SPAN_SCHEMA,
            "stages": list(SPAN_STAGES),
            "shards": sorted(set(shards)),
            "requests": sorted(records, key=_span_sort_key),
        }
        if sched_shards:
            by_shard = {sid: _sum_profiles(sched_shards[sid])
                        for sid in sorted(sched_shards, key=int)}
            doc["scheduler"] = {
                "shards": by_shard,
                "totals": _sum_profiles(by_shard.values()),
            }
        return doc


def _sum_profiles(profiles: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Field-wise sum of scheduler profiles, with the overhead fraction
    recomputed from the summed split."""
    totals: Dict[str, Any] = {}
    for prof in profiles:
        for key, value in prof.items():
            if key != "overhead_fraction":
                totals[key] = totals.get(key, 0) + value
    totals["overhead_fraction"] = overhead_fraction(
        totals.get("overhead_seconds", 0.0),
        totals.get("engine_seconds", 0.0))
    return totals


class MetricsRegistry:
    """Windowed time-series + cumulative counters for a serve run.

    Windows are fixed-width intervals of *virtual* time, keyed by
    ``int(t // window)`` and bounded by ``capacity`` (a ring buffer:
    the oldest window is evicted once the buffer is full, its counts
    folded into the eviction base so in-flight derivation stays exact).
    Because windows are virtual-time-aligned, per-shard registries
    merge exactly: same-key windows add, per-group series union.

    When ``out_path`` is set, every window rollover rewrites the
    snapshot atomically (tmp + rename), so the file holds the series
    so far while a serve runs.
    """

    __slots__ = ("window", "capacity", "shard", "out_path",
                 "_windows", "_order", "dropped_windows",
                 "_evicted_arrivals", "_evicted_commits",
                 "_arrivals", "_commits", "_failed",
                 "_group_arrivals", "_group_commits", "_group_failed",
                 "_group_latencies", "counters", "queue_peaks")

    def __init__(self, *, window: float = 50.0, capacity: int = 256,
                 shard: int = 0, out_path: Optional[str] = None) -> None:
        if window <= 0.0:
            raise ValueError("metrics window must be positive")
        if capacity < 1:
            raise ValueError("metrics capacity must be >= 1")
        self.window = window
        self.capacity = capacity
        self.shard = shard
        self.out_path = out_path
        self._windows: Dict[int, Dict[str, Any]] = {}
        self._order: List[int] = []  # insertion order == time order
        self.dropped_windows = 0
        self._evicted_arrivals = 0
        self._evicted_commits = 0
        self._arrivals = 0
        self._commits = 0
        self._failed = 0
        self._group_arrivals: Dict[int, int] = {}
        self._group_commits: Dict[int, int] = {}
        self._group_failed: Dict[int, int] = {}
        self._group_latencies: Dict[int, List[float]] = {}
        self.counters: Dict[str, Any] = {}
        self.queue_peaks: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording (serve-loop hot path: dict lookups and int adds only)
    # ------------------------------------------------------------------
    def _window_for(self, t: float) -> Dict[str, Any]:
        idx = int(t // self.window)
        win = self._windows.get(idx)
        if win is None:
            win = self._windows[idx] = {
                "arrivals": 0, "commits": 0, "latencies": [],
                "groups": {},
            }
            self._order.append(idx)
            if len(self._order) > self.capacity:
                oldest = min(self._order)
                self._order.remove(oldest)
                evicted = self._windows.pop(oldest)
                self.dropped_windows += 1
                self._evicted_arrivals += evicted["arrivals"]
                self._evicted_commits += evicted["commits"]
            if self.out_path is not None:
                self.flush()
        return win

    def _group_cell(self, win: Dict[str, Any], group: int) -> Dict[str, int]:
        cell = win["groups"].get(group)
        if cell is None:
            cell = win["groups"][group] = {"arrivals": 0, "commits": 0}
        return cell

    def record_arrival(self, t: float, group: int) -> None:
        self._arrivals += 1
        self._group_arrivals[group] = self._group_arrivals.get(group, 0) + 1
        win = self._window_for(t)
        win["arrivals"] += 1
        self._group_cell(win, group)["arrivals"] += 1

    def record_commit(self, t: float, group: int, latency: float) -> None:
        self._commits += 1
        self._group_commits[group] = self._group_commits.get(group, 0) + 1
        self._group_latencies.setdefault(group, []).append(latency)
        win = self._window_for(t)
        win["commits"] += 1
        win["latencies"].append(latency)
        self._group_cell(win, group)["commits"] += 1

    def record_failure(self, t: float, group: int) -> None:
        self._failed += 1
        self._group_failed[group] = self._group_failed.get(group, 0) + 1

    def add_counter(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_queue_peaks(self, peaks: Dict[int, int]) -> None:
        self.queue_peaks = dict(peaks)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        windows: List[Dict[str, Any]] = []
        in_flight = self._evicted_arrivals - self._evicted_commits
        for idx in sorted(self._windows):
            win = self._windows[idx]
            in_flight += win["arrivals"] - win["commits"]
            windows.append({
                "start": idx * self.window,
                "end": (idx + 1) * self.window,
                "arrivals": win["arrivals"],
                "commits": win["commits"],
                "rps": win["commits"] / self.window,
                "in_flight": in_flight,
                "latencies": sorted(win["latencies"]),
                "latency": latency_summary(win["latencies"]),
                "groups": {str(g): dict(cell) for g, cell
                           in sorted(win["groups"].items())},
            })
        groups: Dict[str, Any] = {}
        for gid in sorted(set(self._group_arrivals)
                          | set(self._group_commits)
                          | set(self._group_failed)):
            groups[str(gid)] = {
                "arrivals": self._group_arrivals.get(gid, 0),
                "commits": self._group_commits.get(gid, 0),
                "failed": self._group_failed.get(gid, 0),
                "queue_peak": self.queue_peaks.get(gid, 0),
                "latency": latency_summary(
                    self._group_latencies.get(gid, ())),
            }
        return {
            "schema": METRICS_SCHEMA,
            "window": self.window,
            "capacity": self.capacity,
            "shards": [self.shard],
            "dropped_windows": self.dropped_windows,
            "windows": windows,
            "groups": groups,
            "totals": {
                "arrivals": self._arrivals,
                "commits": self._commits,
                "failed": self._failed,
                "in_flight_final": self._arrivals - self._commits
                - self._failed,
            },
            "counters": dict(sorted(self.counters.items())),
        }

    def flush(self) -> None:
        """Atomically rewrite ``out_path`` with the current snapshot."""
        if self.out_path is None:
            return
        tmp = self.out_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2)
            fh.write("\n")
        os.replace(tmp, self.out_path)

    @staticmethod
    def merge_snapshots(parts: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        """Merge per-part metrics snapshots exactly.

        Windows align on virtual time, so same-start windows add their
        counts and pool their latency samples; per-group series union
        (groups are part-disjoint); in-flight gauges add because the
        client population partitions across parts.
        """
        parts = [p for p in parts if p is not None]
        if not parts:
            return {}
        window = parts[0]["window"]
        merged_windows: Dict[float, Dict[str, Any]] = {}
        groups: Dict[str, Any] = {}
        shards: List[int] = []
        totals = {"arrivals": 0, "commits": 0, "failed": 0,
                  "in_flight_final": 0}
        counters: Dict[str, Any] = {}
        dropped = 0
        for part in parts:
            if part["window"] != window:
                raise ValueError("cannot merge metrics snapshots with "
                                 "different window widths")
            shards.extend(part.get("shards", ()))
            dropped += part.get("dropped_windows", 0)
            for win in part["windows"]:
                acc = merged_windows.get(win["start"])
                if acc is None:
                    acc = merged_windows[win["start"]] = {
                        "start": win["start"], "end": win["end"],
                        "arrivals": 0, "commits": 0, "in_flight": 0,
                        "latencies": [], "groups": {},
                    }
                acc["arrivals"] += win["arrivals"]
                acc["commits"] += win["commits"]
                acc["in_flight"] += win["in_flight"]
                acc["latencies"].extend(win["latencies"])
                for g, cell in win["groups"].items():
                    gacc = acc["groups"].setdefault(
                        g, {"arrivals": 0, "commits": 0})
                    gacc["arrivals"] += cell["arrivals"]
                    gacc["commits"] += cell["commits"]
            groups.update(part.get("groups", {}))
            for key in totals:
                totals[key] += part["totals"].get(key, 0)
            for key, value in part.get("counters", {}).items():
                counters[key] = counters.get(key, 0) + value
        windows = []
        # A part records windows only while *its* groups are active;
        # in-flight gauges must carry forward through windows a part
        # did not record, so re-derive each part's carried gauge. (One
        # worker stamps several parts, so the key is the part.)
        carried: Dict[int, int] = {}
        per_part_windows: Dict[float, Dict[int, int]] = {}
        for index, part in enumerate(parts):
            for win in part["windows"]:
                per_part_windows.setdefault(
                    win["start"], {})[index] = win["in_flight"]
        for start in sorted(merged_windows):
            win = merged_windows[start]
            for index, gauge in per_part_windows.get(start, {}).items():
                carried[index] = gauge
            win["in_flight"] = sum(carried.values())
            win["latencies"].sort()
            win["rps"] = win["commits"] / window
            win["latency"] = latency_summary(win["latencies"])
            win["groups"] = {g: win["groups"][g]
                             for g in sorted(win["groups"], key=int)}
            windows.append(win)
        return {
            "schema": METRICS_SCHEMA,
            "window": window,
            "capacity": max(p.get("capacity", 0) for p in parts),
            "shards": sorted(set(shards)),
            "dropped_windows": dropped,
            "windows": windows,
            "groups": {g: groups[g] for g in sorted(groups, key=int)},
            "totals": totals,
            "counters": dict(sorted(counters.items())),
        }
