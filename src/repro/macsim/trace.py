"""Execution traces: the pluggable sink pipeline.

Every run of the simulator produces a stream of model-level
*occurrences* (broadcasts, deliveries, acks, decisions, crashes). The
engine does not mutate a concrete log; it emits each occurrence to a
:class:`TraceSink`, and the sink decides what to materialize. Traces
serve three purposes in this reproduction:

1. **Metrics** -- decision times and message counts for the experiment
   harness (`repro.analysis.metrics`).
2. **Model invariants** -- `repro.macsim.invariants` checks the abstract
   MAC layer contract (exactly-once delivery to each non-faulty
   neighbor, acks after deliveries, acks within ``F_ack``), replaying a
   stored trace or fed by a counting sink as the run goes.
3. **Indistinguishability** -- the lower-bound experiments compare
   per-node event sequences across executions in different networks
   (`repro.lowerbounds.indist`).

Choosing a sink
---------------
Two classes ship behind the protocol, one in RAM and one on disk
(:func:`make_sink` maps a :class:`TraceLevel` to one):

* :class:`Trace` in RAM, at one of two levels.
  ``TraceLevel.FULL`` (the default) stores every occurrence as a
  :class:`TraceRecord`, with every query backed by an index maintained
  incrementally at append time. Required by the indistinguishability
  experiments and anything that touches original payload objects.
  Memory is O(events) -- fine up to a few million records.
  ``TraceLevel.DECISIONS`` stores only ``decide``/``crash``/``topo``
  records; MAC-level occurrences still update the occurrence
  *counters* (so ``broadcast_count()``, ``delivery_count()`` and
  per-node broadcast counts stay exact) but no record object is
  allocated. The sweep/benchmark mode: consensus checking and metrics
  work, full-trace replays do not -- invariants are audited *online*
  instead (:meth:`Trace.attach_auditor`).
* :class:`repro.macsim.columnar.ColumnarSink` on disk
  (``TraceLevel.COLUMNAR``) -- every occurrence is packed into binary
  *column* chunks (typed arrays plus per-chunk interned label/payload
  tables, zlib-compressed, ~1 B/record) while decisions, crashes and
  all counters stay in an in-RAM index. Replay consumers iterate the
  chunks back in order with O(chunk) memory, and those with a columnar
  fast path (invariants, metrics rebuild) read whole chunks as numpy
  views. Replayed payloads come back as ``repr`` strings (the export
  convention). The 10^8-event mode.

The protocol has two write doors. :meth:`TraceSink.record` takes one
occurrence. :meth:`TraceSink.record_deliveries` takes a *run*: the
model's one primitive hands one message to every neighbor, so the
deliveries of a fan-out that share a timestamp differ only in the
receiver, and the engine's crash-free, hook-free fast path hands them
over as one ``(time, broadcast_id, sender, payload, receivers)`` call
per expanded delivery batch -- cut wherever a handler, a stop
predicate or the end of a ``run()`` slice has to see the sink whole, so
rows always land in event order. The base class defines the run as the
loop over ``record`` (that loop is what the row *means*; third-party
sinks inherit it); :class:`Trace` and ``ColumnarSink`` write the same
rows natively. Everything else -- broadcasts, acks, decisions, single
deliveries (random delays), and every delivery under a crash plan or a
fault model, where the payload can differ per receiver -- arrives
through ``record``.

Sink capability flags drive the harness:

* ``replayable`` -- iterating the sink yields every occurrence, so
  model-invariant replay is possible (FULL and COLUMNAR, not
  DECISIONS);
* ``materializes_mac`` -- the engine must call :meth:`TraceSink.record`
  / :meth:`TraceSink.record_deliveries` for MAC-level kinds (vs. the
  counter-only ``bump`` fast path); also true of a counting sink while
  an auditor is attached;
* ``payloads_preserialized`` -- replayed payloads are already ``repr``
  strings (COLUMNAR), so exporters must not re-``repr`` them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

#: The record kinds a trace may contain.
TRACE_KINDS = ("broadcast", "deliver", "ack", "decide", "crash",
               "discard", "drop", "topo")
_TRACE_KIND_SET = frozenset(TRACE_KINDS)

#: Kinds always materialized in RAM, even by counting/spilling sinks.
#: ``topo`` is essential so the connectivity probe (and invariant
#: replay of dynamic-topology runs) can read the epoch timeline from
#: any sink -- there is at most a handful of records per epoch.
_ESSENTIAL_KINDS = frozenset(("decide", "crash", "topo"))
#: The MAC-level kinds a counting sink counts without a record.
_COUNTED_KINDS = _TRACE_KIND_SET - _ESSENTIAL_KINDS

#: ``broadcast_id`` codes of ``topo`` records (dynamic-topology runs;
#: see :mod:`repro.macsim.dynamics`). Edge events carry the endpoints
#: in ``node``/``peer``; node events carry the node alone.
TOPO_EDGE_DOWN = 0
TOPO_EDGE_UP = 1
TOPO_NODE_DOWN = 2
TOPO_NODE_UP = 3


class TraceLevel(enum.Enum):
    """How much of an execution a trace sink materializes, and where."""

    #: Store every occurrence in RAM (the default; required by the
    #: indistinguishability experiments).
    FULL = "full"
    #: Store only decisions and crashes; count everything else.
    DECISIONS = "decisions"
    #: Store every occurrence on disk as binary struct-packed columns
    #: (typed arrays + interned string tables, zlib) with an in-RAM
    #: decisions/counter index: bounded-memory full traces with
    #: vectorized whole-chunk replay. See
    #: :class:`repro.macsim.columnar.ColumnarSink`.
    COLUMNAR = "columnar"

    @classmethod
    def coerce(cls, value: "TraceLevel | str") -> "TraceLevel":
        """Accept a :class:`TraceLevel` or its string value."""
        if isinstance(value, cls):
            return value
        return cls(value)


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One occurrence in an execution.

    Fields are interpreted per ``kind``:

    * ``broadcast``: ``node`` is the sender, ``payload`` the message,
      ``broadcast_id`` the fresh broadcast identifier.
    * ``deliver``: ``node`` is the receiver; ``peer`` the sender.
    * ``ack``: ``node`` is the sender being acked.
    * ``decide``: ``node`` decided value ``payload``.
    * ``crash``: ``node`` crashed.
    * ``discard``: ``node`` attempted a broadcast while one was already
      in flight; the message was dropped (Section 2 of the paper).
    * ``drop``: a fault model swallowed the delivery of broadcast
      ``broadcast_id`` (from ``peer``) to ``node``; ``payload`` is the
      original (pre-forgery) payload that was lost.
    * ``topo``: a topology-dynamics epoch changed the live graph
      (:mod:`repro.macsim.dynamics`). ``broadcast_id`` is one of the
      ``TOPO_*`` codes: edge up/down events carry the endpoints in
      ``node``/``peer``; node leave/join events carry the node alone.
      All fields are JSON-lossless, so dynamic runs replay exactly.
    """

    time: float
    kind: str
    node: Any
    broadcast_id: Optional[int] = None
    peer: Any = None
    payload: Any = None


class TraceSink:
    """Protocol for execution-trace consumers.

    The simulator emits every occurrence through :meth:`record` or,
    for a same-timestamp fan-out on its fast path,
    :meth:`record_deliveries` (or :meth:`bump` when the sink does not
    materialize MAC-level kinds); the analysis layer reads results back
    through the query API. All query methods must stay exact regardless
    of what is materialized -- counters count every reported
    occurrence.

    Subclasses must implement :meth:`record`, :meth:`bump` and the
    queries (:meth:`record_deliveries` is inherited as the loop over
    :meth:`record`); the capability flags (class attributes here) tell
    the engine and harness what the sink supports.
    """

    __slots__ = ()

    #: Level tag for introspection / CLI round-tripping.
    level = TraceLevel.FULL
    #: Whether iterating the sink replays every occurrence in order.
    replayable = False
    #: Whether the engine must route MAC-level kinds through record().
    materializes_mac = False
    #: Whether replayed payloads are already ``repr`` strings.
    payloads_preserialized = False

    def record(self, time: float, kind: str, node: Any, *,
               broadcast_id: Optional[int] = None, peer: Any = None,
               payload: Any = None) -> None:
        """Consume one occurrence."""
        raise NotImplementedError

    def record_deliveries(self, time: float, broadcast_id: int,
                          sender: Any, payload: Any,
                          receivers: tuple) -> None:
        """Consume a *run*: broadcast ``broadcast_id`` of ``sender``
        delivered ``payload`` to each of ``receivers``, in that order,
        at ``time``. This loop is what the row means; a sink overrides
        it only to write the same rows faster."""
        record = self.record
        for receiver in receivers:
            record(time, "deliver", receiver, broadcast_id=broadcast_id,
                   peer=sender, payload=payload)

    def bump(self, kind: str, node: Any = None) -> None:
        """Count an occurrence without materializing a record."""
        raise NotImplementedError

    def attach_auditor(self, auditor) -> None:
        """Feed every occurrence to ``auditor`` as it is recorded: how
        a sink that is not ``replayable`` gets its run audited."""
        raise NotImplementedError(
            f"{type(self).__name__} can be neither replayed nor fed to "
            f"an auditor: pass check_invariants=False to run unchecked")

    # -- queries (shared contract; see Trace for semantics) ------------
    def of_kind(self, kind: str) -> List[TraceRecord]:
        raise NotImplementedError

    def for_node(self, node: Any) -> List[TraceRecord]:
        raise NotImplementedError

    def decisions(self) -> Dict[Any, Any]:
        raise NotImplementedError

    def decision_times(self) -> Dict[Any, float]:
        raise NotImplementedError

    def last_decision_time(self) -> Optional[float]:
        times = self.decision_times()
        return max(times.values()) if times else None

    def broadcast_count(self, node: Any = None) -> int:
        raise NotImplementedError

    def broadcasts_per_node(self) -> Dict[Any, int]:
        raise NotImplementedError

    def delivery_count(self) -> int:
        return self.count_of_kind("deliver")

    def count_of_kind(self, kind: str) -> int:
        raise NotImplementedError

    def crashed_nodes(self) -> set:
        return {r.node for r in self.of_kind("crash")}

    def close(self) -> None:
        """Flush buffered state; queries stay valid afterwards."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class Trace(TraceSink):
    """Append-only in-memory event log with indexed query helpers.

    The record log stays append-only, but every query the harness
    performs is backed by an index maintained incrementally at
    ``append`` time: per-kind and per-node record lists, first-decision
    maps, and occurrence counters. ``decisions()``,
    ``decision_times()``, ``of_kind()``, ``for_node()`` and the count
    helpers are therefore O(1)/O(k) in the size of their *answer*,
    never in the length of the trace.
    """

    __slots__ = ("level", "_records", "_by_kind", "_by_node",
                 "_decisions", "_decision_times", "_kind_counts",
                 "_broadcasts_by_node", "_feed", "_feed_deliveries")

    def __init__(self, level: "TraceLevel | str" = TraceLevel.FULL) -> None:
        self.level = TraceLevel.coerce(level)
        self._records: List[TraceRecord] = []
        self._by_kind: Dict[str, List[TraceRecord]] = {}
        self._by_node: Dict[Any, List[TraceRecord]] = {}
        self._decisions: Dict[Any, Any] = {}
        self._decision_times: Dict[Any, float] = {}
        #: Occurrence counters; unlike the record log these count every
        #: reported occurrence regardless of the trace level. Prefilled
        #: so hot paths may increment without a .get() dance.
        self._kind_counts: Dict[str, int] = {k: 0 for k in TRACE_KINDS}
        self._broadcasts_by_node: Dict[Any, int] = {}
        #: The attached auditor's ``feed`` / ``feed_deliveries``, if any.
        self._feed = None
        self._feed_deliveries = None

    @property
    def replayable(self) -> bool:
        return self.level is TraceLevel.FULL

    @property
    def materializes_mac(self) -> bool:
        return self.level is TraceLevel.FULL or self._feed is not None

    def attach_auditor(self, auditor) -> None:
        """Feed every occurrence to ``auditor.feed(time, kind, node,
        broadcast_id, peer, payload)`` as it is recorded, and every
        run to ``auditor.feed_deliveries``
        (:class:`repro.macsim.invariants.InvariantAuditor`). Attach
        before the simulator is built: an audited sink reports
        ``materializes_mac``, so the engine routes MAC-level kinds
        through :meth:`record` / :meth:`record_deliveries` instead of
        the counter-only fast path.
        """
        self._feed = auditor.feed
        self._feed_deliveries = auditor.feed_deliveries

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    def append(self, record: TraceRecord) -> None:
        """Append a record, updating every index incrementally."""
        self._records.append(record)
        kind = record.kind
        node = record.node
        by_kind = self._by_kind.get(kind)
        if by_kind is None:
            by_kind = self._by_kind[kind] = []
        by_kind.append(record)
        by_node = self._by_node.get(node)
        if by_node is None:
            by_node = self._by_node[node] = []
        by_node.append(record)
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        if kind == "decide":
            if node not in self._decisions:
                self._decisions[node] = record.payload
                self._decision_times[node] = record.time
        elif kind == "broadcast":
            self._broadcasts_by_node[node] = (
                self._broadcasts_by_node.get(node, 0) + 1)

    def record(self, time: float, kind: str, node: Any, *,
               broadcast_id: Optional[int] = None, peer: Any = None,
               payload: Any = None) -> None:
        """Convenience constructor-and-append.

        At :attr:`TraceLevel.DECISIONS`, MAC-level kinds are counted but
        not materialized.
        """
        feed = self._feed
        if feed is not None:
            feed(time, kind, node, broadcast_id, peer, payload)
        if kind in _COUNTED_KINDS and self.level is TraceLevel.DECISIONS:
            # bump(), inlined: an audited run pays this per delivery.
            self._kind_counts[kind] += 1
            if kind == "broadcast":
                self._broadcasts_by_node[node] = (
                    self._broadcasts_by_node.get(node, 0) + 1)
            return
        if kind not in _TRACE_KIND_SET:
            raise ValueError(f"unknown trace kind: {kind!r}")
        self.append(TraceRecord(time, kind, node, broadcast_id, peer,
                                payload))

    def record_deliveries(self, time: float, broadcast_id: int,
                          sender: Any, payload: Any,
                          receivers: tuple) -> None:
        """The run's rows in one local loop; at
        :attr:`TraceLevel.DECISIONS` one audit call and one count."""
        feed_deliveries = self._feed_deliveries
        if feed_deliveries is not None:
            feed_deliveries(time, broadcast_id, sender, payload, receivers)
        self._kind_counts["deliver"] += len(receivers)
        if self.level is TraceLevel.DECISIONS:
            return
        records = self._records
        by_node = self._by_node
        by_kind = self._by_kind.get("deliver")
        if by_kind is None:
            by_kind = self._by_kind["deliver"] = []
        for receiver in receivers:
            record = TraceRecord(time, "deliver", receiver, broadcast_id,
                                 sender, payload)
            records.append(record)
            by_kind.append(record)
            bucket = by_node.get(receiver)
            if bucket is None:
                bucket = by_node[receiver] = []
            bucket.append(record)

    def bump(self, kind: str, node: Any = None) -> None:
        """Count an occurrence without materializing a record."""
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        if kind == "broadcast":
            self._broadcasts_by_node[node] = (
                self._broadcasts_by_node.get(node, 0) + 1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records with the given kind, in order."""
        return list(self._by_kind.get(kind, ()))

    def for_node(self, node: Any) -> List[TraceRecord]:
        """All records whose primary node is ``node``, in order."""
        return list(self._by_node.get(node, ()))

    def decisions(self) -> Dict[Any, Any]:
        """Map of node -> decided value (first decision per node)."""
        return dict(self._decisions)

    def decision_times(self) -> Dict[Any, float]:
        """Map of node -> time of its (first) decision."""
        return dict(self._decision_times)

    def last_decision_time(self) -> Optional[float]:
        """Time at which the final node decided, or ``None``."""
        if not self._decision_times:
            return None
        return max(self._decision_times.values())

    def broadcast_count(self, node: Any = None) -> int:
        """Number of completed broadcast events (optionally per node)."""
        if node is None:
            return self._kind_counts.get("broadcast", 0)
        return self._broadcasts_by_node.get(node, 0)

    def broadcasts_per_node(self) -> Dict[Any, int]:
        """Map of node -> number of broadcasts it started."""
        return dict(self._broadcasts_by_node)

    def delivery_count(self) -> int:
        """Total number of message deliveries in the execution."""
        return self._kind_counts.get("deliver", 0)

    def count_of_kind(self, kind: str) -> int:
        """Occurrence count for ``kind`` (counts skipped records too)."""
        return self._kind_counts.get(kind, 0)

    def crashed_nodes(self) -> set:
        """The set of nodes that crashed during the execution."""
        return {r.node for r in self._by_kind.get("crash", ())}


class SpillBudgetError(RuntimeError):
    """A disk-spilling sink exceeded its configured byte budget.

    Raised at flush time by
    :class:`repro.macsim.columnar.ColumnarSink` when ``max_bytes`` is
    set and the chunk files have grown past it. The run fails loudly
    instead of silently truncating the trace; everything spilled so
    far remains on disk for post-mortem inspection.
    """


def make_sink(level: "TraceLevel | str", **spill_kwargs) -> TraceSink:
    """Construct the sink for a :class:`TraceLevel`.

    ``spill_kwargs`` (``directory``, ``chunk_records``, ``max_bytes``)
    apply only to the disk level (:attr:`TraceLevel.COLUMNAR`).
    """
    level = TraceLevel.coerce(level)
    if level is TraceLevel.COLUMNAR:
        # Deferred import: columnar.py imports from this module.
        from .columnar import ColumnarSink
        return ColumnarSink(**spill_kwargs)
    if spill_kwargs:
        raise ValueError(f"spill options are invalid for {level}")
    return Trace(level)
