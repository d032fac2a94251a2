"""Execution traces: the pluggable sink pipeline.

The engine emits every model-level *occurrence* of a run (broadcast,
delivery, ack, decision, crash) to a :class:`TraceSink`, which decides
what to materialize for the metrics, the MAC-contract audit and the
lower-bound experiments' per-node event sequences.

Choosing a sink
---------------
One class materializes MAC rows:
:class:`repro.macsim.columnar.ColumnarSink`, in typed columns (times,
kind codes, node/peer/broadcast-id/payload ids). :func:`make_sink`
maps a :class:`TraceLevel` to a sink:

* ``FULL`` (the default) -- a ``ColumnarSink`` in RAM whose builders
  never spill (~30 B/record). Its payload column indexes a table of
  the payload *objects*, so a replay hands back the very objects the
  run sent (an equal forgery keeps an index of its own). A
  :class:`TraceRecord` is built only when a caller iterates or queries.
* ``COLUMNAR`` -- the same class spilling zlib chunks to disk (~1
  B/record) beside an in-RAM index: O(chunk) replay, numpy-vectorized
  audit and metrics rebuild, payloads as ``repr`` strings (the export
  convention). The 10^8-event mode.
* ``DECISIONS`` -- :class:`Trace`, the counting sink: it keeps only
  ``decide``/``crash``/``topo`` records and counts the rest exactly,
  allocating nothing. The sweep mode: no replay, so invariants are
  audited online (:meth:`Trace.attach_auditor`).

The protocol has two write doors. :meth:`TraceSink.record` takes one
occurrence. :meth:`TraceSink.record_deliveries` takes a *run*: the
model's one primitive hands one message to every neighbor, so the
same-timestamp deliveries of a fan-out differ only in the receiver and
arrive as one call per expanded delivery batch -- cut wherever a
handler, a stop predicate or the end of a ``run()`` slice has to see
the sink whole, so rows land in event order. The base class defines a
run as the loop over ``record`` (what the rows *mean*); the shipped
sinks write the same rows natively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

#: The record kinds a trace may contain.
TRACE_KINDS = ("broadcast", "deliver", "ack", "decide", "crash",
               "discard", "drop", "topo")
_TRACE_KIND_SET = frozenset(TRACE_KINDS)

#: Kinds every sink keeps as records: ``topo`` too, so the epoch
#: timeline of a dynamic-topology run can be read from any sink.
_ESSENTIAL_KINDS = frozenset(("decide", "crash", "topo"))
#: The MAC-level kinds a counting sink counts without a record.
_COUNTED_KINDS = _TRACE_KIND_SET - _ESSENTIAL_KINDS

#: ``broadcast_id`` codes of ``topo`` records: edge events carry the
#: endpoints in ``node``/``peer``, node events the node alone.
TOPO_EDGE_DOWN = 0
TOPO_EDGE_UP = 1
TOPO_NODE_DOWN = 2
TOPO_NODE_UP = 3


class TraceLevel(enum.Enum):
    """How much of an execution a trace sink materializes, and where."""

    #: Every occurrence in RAM, payload objects included (the default).
    FULL = "full"
    #: Decisions, crashes and topology epochs; everything else counted.
    DECISIONS = "decisions"
    #: Every occurrence on disk in compressed column chunks.
    COLUMNAR = "columnar"

    @classmethod
    def coerce(cls, value: "TraceLevel | str") -> "TraceLevel":
        """Accept a :class:`TraceLevel` or its string value."""
        if isinstance(value, cls):
            return value
        return cls(value)


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One occurrence in an execution, its fields read per ``kind``:

    * ``broadcast``: sender ``node`` sent ``payload`` as the fresh
      ``broadcast_id``; ``deliver``: ``node`` received it from ``peer``;
      ``ack``: the sender ``node`` was acked.
    * ``decide``: ``node`` decided ``payload``; ``crash``: ``node``
      crashed.
    * ``discard``: ``node`` broadcast while one of its broadcasts was in
      flight, and the message was dropped (Section 2 of the paper).
    * ``drop``: a fault model swallowed the delivery of
      ``broadcast_id`` (from ``peer``) to ``node``; ``payload`` is the
      original, pre-forgery payload.
    * ``topo``: a topology-dynamics epoch changed the live graph;
      ``broadcast_id`` is a ``TOPO_*`` code.
    """

    time: float
    kind: str
    node: Any
    broadcast_id: Optional[int] = None
    peer: Any = None
    payload: Any = None


class TraceSink:
    """Protocol for execution-trace consumers, with the exact index the
    shipped sinks keep: counters, first decisions, broadcasts per node
    and the ``decide``/``crash``/``topo`` records in order. A subclass
    implements :meth:`record` and fills the index through :meth:`bump`
    and :meth:`_keep`, or overrides the queries that read it."""

    __slots__ = ("_kind_counts", "_broadcasts_by_node", "_decisions",
                 "_decision_times", "_essential")

    #: Level tag for introspection / CLI round-tripping.
    level = TraceLevel.FULL
    #: Whether iterating the sink replays every occurrence in order.
    replayable = False
    #: Whether the engine must route MAC-level kinds through record().
    materializes_mac = False
    #: Whether replayed payloads are ``repr`` strings already.
    payloads_preserialized = False

    def __init__(self) -> None:
        #: Occurrence counters, prefilled so hot paths (and the
        #: engine's alias to this dict) may increment without .get().
        self._kind_counts: Dict[str, int] = {k: 0 for k in TRACE_KINDS}
        self._broadcasts_by_node: Dict[Any, int] = {}
        self._decisions: Dict[Any, Any] = {}
        self._decision_times: Dict[Any, float] = {}
        self._essential: List[TraceRecord] = []

    def record(self, time: float, kind: str, node: Any, *,
               broadcast_id: Optional[int] = None, peer: Any = None,
               payload: Any = None) -> None:
        """Consume one occurrence."""
        raise NotImplementedError

    def record_deliveries(self, time: float, broadcast_id: int,
                          sender: Any, payload: Any,
                          receivers: tuple) -> None:
        """Consume a *run*: ``sender``'s broadcast ``broadcast_id``
        delivered ``payload`` to each of ``receivers``, in order, at
        ``time``. A sink overrides the loop only to write it faster."""
        record = self.record
        for receiver in receivers:
            record(time, "deliver", receiver, broadcast_id=broadcast_id,
                   peer=sender, payload=payload)

    def bump(self, kind: str, node: Any = None) -> None:
        """Count an occurrence without materializing a record."""
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        if kind == "broadcast":
            self._broadcasts_by_node[node] = (
                self._broadcasts_by_node.get(node, 0) + 1)

    def _keep(self, record: TraceRecord) -> None:
        """Index a ``decide``/``crash``/``topo`` record (uncounted)."""
        self._essential.append(record)
        if record.kind == "decide" and record.node not in self._decisions:
            self._decisions[record.node] = record.payload
            self._decision_times[record.node] = record.time

    def attach_auditor(self, auditor) -> None:
        """Feed every occurrence to ``auditor`` as it is recorded: how
        a sink that is not ``replayable`` gets its run audited."""
        raise NotImplementedError(
            f"{type(self).__name__} can be neither replayed nor fed to "
            f"an auditor: pass check_invariants=False to run unchecked")

    # -- queries -------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceRecord]:
        """The records of ``kind``, in order (kept kinds only here)."""
        return [r for r in self._essential if r.kind == kind]

    def for_node(self, node: Any) -> List[TraceRecord]:
        """The records whose primary node is ``node``, in order."""
        return [r for r in self._essential if r.node == node]

    def decisions(self) -> Dict[Any, Any]:
        """Map of node -> decided value (first decision per node)."""
        return dict(self._decisions)

    def decision_times(self) -> Dict[Any, float]:
        """Map of node -> time of its (first) decision."""
        return dict(self._decision_times)

    def last_decision_time(self) -> Optional[float]:
        """Time at which the final node decided, or ``None``."""
        times = self.decision_times()
        return max(times.values()) if times else None

    def broadcast_count(self, node: Any = None) -> int:
        """Number of completed broadcast events (optionally per node)."""
        if node is None:
            return self.count_of_kind("broadcast")
        return self._broadcasts_by_node.get(node, 0)

    def broadcasts_per_node(self) -> Dict[Any, int]:
        """Map of node -> number of broadcasts it started."""
        return dict(self._broadcasts_by_node)

    def delivery_count(self) -> int:
        """Total number of message deliveries in the execution."""
        return self.count_of_kind("deliver")

    def count_of_kind(self, kind: str) -> int:
        """Occurrence count for ``kind``, materialized or not."""
        return self._kind_counts.get(kind, 0)

    def crashed_nodes(self) -> set:
        """The set of nodes that crashed during the execution."""
        return {r.node for r in self.of_kind("crash")}

    def close(self) -> None:
        """Flush buffered state; queries stay valid afterwards."""


class Trace(TraceSink):
    """The counting sink (:attr:`TraceLevel.DECISIONS`).

    MAC-level occurrences only move the counters; iterating yields the
    kept records (what a DECISIONS-level export holds). Not
    ``replayable``: a run on it is audited online.
    """

    __slots__ = ("_feed", "_feed_deliveries")

    level = TraceLevel.DECISIONS

    def __init__(self) -> None:
        super().__init__()
        self._feed = None
        self._feed_deliveries = None

    @property
    def materializes_mac(self) -> bool:
        return self._feed is not None

    def attach_auditor(self, auditor) -> None:
        """Feed every occurrence and run to ``auditor``'s ``feed`` /
        ``feed_deliveries``. Attach before the simulator is built: the
        sink then ``materializes_mac``, so every row reaches it."""
        self._feed = auditor.feed
        self._feed_deliveries = auditor.feed_deliveries

    def __len__(self) -> int:
        return len(self._essential)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._essential)

    def record(self, time: float, kind: str, node: Any, *,
               broadcast_id: Optional[int] = None, peer: Any = None,
               payload: Any = None) -> None:
        """Count a MAC-level occurrence; keep any other."""
        feed = self._feed
        if feed is not None:
            feed(time, kind, node, broadcast_id, peer, payload)
        if kind in _COUNTED_KINDS:
            # bump(), inlined: an audited run pays this per delivery.
            self._kind_counts[kind] += 1
            if kind == "broadcast":
                self._broadcasts_by_node[node] = (
                    self._broadcasts_by_node.get(node, 0) + 1)
            return
        if kind not in _TRACE_KIND_SET:
            raise ValueError(f"unknown trace kind: {kind!r}")
        self._kind_counts[kind] += 1
        self._keep(TraceRecord(time, kind, node, broadcast_id, peer,
                               payload))

    def record_deliveries(self, time: float, broadcast_id: int,
                          sender: Any, payload: Any,
                          receivers: tuple) -> None:
        """One audit call and one count for the whole run."""
        feed_deliveries = self._feed_deliveries
        if feed_deliveries is not None:
            feed_deliveries(time, broadcast_id, sender, payload, receivers)
        self._kind_counts["deliver"] += len(receivers)


def make_sink(level: "TraceLevel | str", **spill_kwargs) -> TraceSink:
    """The sink for a :class:`TraceLevel`; ``spill_kwargs``
    (``directory``, ``chunk_records``, ``max_bytes``) apply only to
    COLUMNAR, the level that spills."""
    level = TraceLevel.coerce(level)
    if level is not TraceLevel.COLUMNAR and spill_kwargs:
        raise ValueError(f"spill options are invalid for {level}")
    if level is TraceLevel.DECISIONS:
        return Trace()
    # Deferred import: columnar.py imports from this module.
    from .columnar import ColumnarSink
    if level is TraceLevel.COLUMNAR:
        return ColumnarSink(**spill_kwargs)
    return ColumnarSink._in_memory()
