"""Opt-in run telemetry: engine counters, measured F_ack/F_prog spans,
and a wall-time phase profiler.

The paper's abstract MAC layer is *parameterized* by the ack/progress
bounds ``F_ack``/``F_prog``; every algorithm's time complexity is
stated against them. A :class:`Telemetry` object threaded through
:class:`~repro.macsim.simulator.Simulator` turns the realized bounds
into first-class observables: per-broadcast **causal spans**
(open -> first delivery -> last delivery -> ack) reduced into
empirical F_ack/F_prog/F_cover histograms, plus engine counters
(heap pushes/pops, broadcasts opened/acked, deliveries, drops,
topology epochs, fault injections, sink bytes/flushes) and a
monotonic wall-clock profile of the engine's phases (scheduler
planning, plan validation, dynamics epochs).

Design constraints, in priority order:

* **Byte-identity.** Telemetry never calls ``trace.record`` and never
  perturbs the event order: a run with telemetry on produces a trace
  byte-identical to the same run with telemetry off (pinned by the
  test suite).
* **No-op fast path.** Disabled telemetry costs the hot loop one
  ``is None`` check per delivery. Span bookkeeping is a dict update
  per delivery and one close per ack; the wall-clock profiler samples
  only at per-*broadcast* granularity (scheduler plan/validate) and
  per-epoch granularity (dynamics), never per event.
  No timing gate holds the overhead today: the <= 5% gate lived in the
  retired legacy bench harness (CHANGES.md) and waits for the perf
  ledger's paired on/off estimator (ROADMAP item 2(c)). What guards
  the behaviour is the on == off byte-identity tests.
* **Abort-safe.** Engine-raised exceptions
  (:class:`~repro.macsim.columnar.SpillBudgetError`, a crashing process
  handler) flush a partial snapshot -- marked ``aborted`` with the
  error -- via :meth:`Telemetry.record_abort`, so post-mortems of
  straggling or budget-killed runs keep their counters.

Span semantics mirror the invariant checker's eviction-at-ack model
exactly: a span opens at the ``broadcast`` record, tracks the first
and last ``deliver`` times, and closes (emitting its samples) at the
``ack`` -- deliveries after the ack (possible on unreliable-overlay
runs) belong to no span. :mod:`repro.analysis.stats_report` derives
the same spans from saved trace records, so live telemetry and both
of its derivations (record stream, whole columns) of one seeded run
summarize identically.

Summaries are computed from *sorted* samples with ``math.fsum`` for
the mean, so they are order-insensitive: any producer of the same
sample multiset (live engine, record stream, vectorized columnar
pass) reports bit-identical statistics.
"""

from __future__ import annotations

import json
import math
from array import array
from time import perf_counter
from typing import Any, Dict, Optional, Sequence

__all__ = ["Telemetry", "TELEMETRY_SCHEMA", "PHASES", "quantile",
           "summarize_samples", "MonotonicProfile"]

#: Schema tag stamped into telemetry snapshots and ``--telemetry``
#: JSON files (what ``repro stats`` keys its detection on).
TELEMETRY_SCHEMA = "telemetry/v1"

#: Wall-clock phases the profiler attributes. Everything else
#: (delivery dispatch, heap operations, per-record sink appends) is
#: the run-loop residual: ``wall_seconds`` minus the phase total.
PHASES = ("scheduler_plan", "plan_validate", "dynamics_epochs",
          "sink_flush")


def quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already *sorted* sequence."""
    n = len(ordered)
    if n == 1:
        return ordered[0]
    pos = q * (n - 1)
    lo = int(pos)
    hi = lo + 1
    if hi >= n:
        return ordered[-1]
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def summarize_samples(samples) -> Dict[str, Any]:
    """count/min/p50/p95/max/mean of a sample sequence.

    Sorts first, so producers of the same multiset in any order (live
    spans, streamed record derivation, vectorized columnar derivation)
    produce identical summaries -- the cross-source identity the
    acceptance tests pin.
    """
    data = sorted(samples)
    n = len(data)
    if not n:
        return {"count": 0, "min": None, "p50": None, "p95": None,
                "max": None, "mean": None}
    return {
        "count": n,
        "min": data[0],
        "p50": quantile(data, 0.50),
        "p95": quantile(data, 0.95),
        "max": data[-1],
        "mean": math.fsum(data) / n,
    }


class MonotonicProfile:
    """Named monotonic wall-clock accumulators.

    The phase-profiler primitive behind :attr:`Telemetry.phase_seconds`,
    factored out so other layers (the service's group runtime,
    request tracing) can accumulate coarse-grained wall time without
    carrying a full :class:`Telemetry`. Accumulation is two float adds
    per sample; reading the clock stays the caller's job so disabled
    profiles cost nothing.
    """

    __slots__ = ("seconds", "calls")

    def __init__(self, names: Sequence[str]):
        self.seconds: Dict[str, float] = {name: 0.0 for name in names}
        self.calls: Dict[str, int] = {name: 0 for name in names}

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] += seconds
        self.calls[name] += 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in self.seconds
        }


def _sink_count(sink, kind: str) -> int:
    counts = getattr(sink, "_kind_counts", None)
    if counts is not None:
        return counts.get(kind, 0)
    counter = getattr(sink, "count_of_kind", None)
    return counter(kind) if counter is not None else 0


class Telemetry:
    """Low-overhead observability for one (possibly resumed) run.

    Create one, pass it as ``telemetry=`` to
    :func:`~repro.macsim.simulator.build_simulation` /
    :class:`~repro.macsim.simulator.Simulator` (or ``telemetry=True``
    to :func:`~repro.analysis.runner.run_consensus`, which creates
    it), and read :meth:`snapshot` after the run. ``Simulator.run``
    finalizes the engine counters on every exit -- normal completion
    *and* engine-raised exceptions (:meth:`record_abort`).
    """

    __slots__ = ("label", "context", "f_ack", "f_prog", "f_cover",
                 "phase_seconds", "phase_calls", "events_processed",
                 "fault_injections", "topo_epochs", "wall_seconds",
                 "counters", "aborted", "error", "out_path")

    def __init__(self, label: Optional[str] = None,
                 out_path: Optional[str] = None) -> None:
        self.label = label
        #: Attachment context (algorithm/scheduler/fault-model names);
        #: the runner fills it so histograms stay attributable when
        #: snapshots from many runs are archived together.
        self.context: Dict[str, Any] = {}
        self.f_ack = array("d")
        self.f_prog = array("d")
        self.f_cover = array("d")
        self.phase_seconds = {name: 0.0 for name in PHASES}
        self.phase_calls = {name: 0 for name in PHASES}
        self.events_processed = 0
        self.fault_injections = 0
        self.topo_epochs = 0
        self.wall_seconds = 0.0
        self.counters: Dict[str, Any] = {}
        self.aborted = False
        self.error: Optional[str] = None
        #: Best-effort snapshot destination for :meth:`record_abort`
        #: (set it when a crash of the host process would otherwise
        #: lose the snapshot, e.g. a long spilling run under a disk
        #: budget).
        self.out_path = out_path

    # -- engine hooks ---------------------------------------------------
    def close_span(self, start: float, first: float, last: float,
                   ack_time: float) -> None:
        """Close one broadcast span at its ack.

        ``first``/``last`` are negative when the broadcast had no
        deliveries before its ack (a single-node component): F_ack is
        still measured, F_prog/F_cover are not defined for it.
        """
        self.f_ack.append(ack_time - start)
        if first >= 0.0:
            self.f_prog.append(first - start)
            self.f_cover.append(last - start)

    def note_events(self, n: int) -> None:
        """Accumulate processed-event counts (resumable runs call
        ``Simulator.run`` more than once)."""
        self.events_processed += n

    def phase_add(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] += seconds
        self.phase_calls[name] += 1

    def finalize(self, sim) -> None:
        """Harvest the engine/sink counters from a simulator.

        Idempotent -- recomputes the counter dict from current engine
        state, so calling it again after more events (or after
        ``record_abort``) refreshes rather than double-counts.
        """
        queue = sim._queue
        pushed = queue._next_seq
        sink = sim.trace
        counters: Dict[str, Any] = {
            # Heap-entry accounting: one batched `bdeliver` entry
            # covers a whole fan-out, so pushes count heap entries,
            # not logical occurrences.
            "events_pushed": pushed,
            "events_popped": pushed - len(queue),
            "events_processed": self.events_processed,
            "broadcasts_opened": _sink_count(sink, "broadcast"),
            "broadcasts_acked": _sink_count(sink, "ack"),
            "deliveries": _sink_count(sink, "deliver"),
            "drops": _sink_count(sink, "drop"),
            "decisions": _sink_count(sink, "decide"),
            "crashes": _sink_count(sink, "crash"),
            "discards": _sink_count(sink, "discard"),
            "topo_records": _sink_count(sink, "topo"),
            "topo_epochs": self.topo_epochs,
            "fault_injections": self.fault_injections,
            "spans_open": len(sim._tel_spans or ()),
        }
        spilled = getattr(sink, "spilled_bytes", None)
        if spilled is not None:
            counters["sink_bytes"] = spilled()
        chunk_paths = getattr(sink, "chunk_paths", None)
        if chunk_paths is not None:
            counters["sink_flushes"] = len(chunk_paths())
        self.counters = counters

    def record_abort(self, sim, exc: BaseException) -> None:
        """Flush a partial snapshot for an engine-raised exception.

        Marks the telemetry ``aborted``, refreshes the counters from
        whatever state the engine reached, and -- when ``out_path``
        is set -- writes the snapshot to disk best-effort, so
        ``SpillBudgetError``/straggler post-mortems keep their
        evidence even if the caller never regains control.
        """
        self.aborted = True
        self.error = f"{type(exc).__name__}: {exc}"
        self.finalize(sim)
        if self.out_path:
            try:
                self.write(self.out_path)
            except OSError:  # pragma: no cover - disk-full post-mortem
                pass

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The full JSON-serializable telemetry snapshot."""
        phase_total = math.fsum(self.phase_seconds.values())
        return {
            "schema": TELEMETRY_SCHEMA,
            "label": self.label,
            "context": dict(self.context),
            "aborted": self.aborted,
            "error": self.error,
            "wall_seconds": self.wall_seconds,
            "counters": dict(self.counters),
            "phases": {
                name: {"seconds": self.phase_seconds[name],
                       "calls": self.phase_calls[name]}
                for name in PHASES},
            "phase_residual_seconds": max(
                0.0, self.wall_seconds - phase_total),
            "spans": {
                "f_ack": summarize_samples(self.f_ack),
                "f_prog": summarize_samples(self.f_prog),
                "f_cover": summarize_samples(self.f_cover),
            },
        }

    def write(self, path: str) -> None:
        """Write :meth:`snapshot` as an indented JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2)
            handle.write("\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Telemetry(events={self.events_processed}, "
                f"spans={len(self.f_ack)}, aborted={self.aborted})")


#: Re-exported so the engine's no-op fast path can hoist it without a
#: second import site.
_perf_counter = perf_counter
