"""Event queue primitives for the discrete-event engine.

The simulator is driven by a single priority queue of events ordered by
``(time, priority, seq)``:

* ``time`` -- the simulated global time of the event.
* ``priority`` -- a small integer that orders simultaneous events. The
  ordering (crashes, then deliveries, then acks, then node wake-ups)
  implements the synchronous scheduler's "deliver everything, then ack
  everything" convention from Section 3.2 of the paper.
* ``seq`` -- a monotonically increasing tiebreak, making every run fully
  deterministic for a fixed scheduler.

Events carry a ``kind`` tag plus the broadcast record / node they refer
to. Cancellation is implemented with a lazy tombstone flag, the standard
approach for binary-heap based simulators.

Fast-path design
----------------
The heap stores plain tuples ``(time, priority, seq, kind, node,
broadcast_id, handle)``. Because ``seq`` is unique, tuple comparison
always resolves at C speed on the first three fields without touching
the payload -- this removes the per-comparison Python ``__lt__`` call
that dominated the seed engine's heap cost. The queue never looks at
``node`` or ``broadcast_id``: the simulator puts the broadcast's
*record* in the ``broadcast_id`` slot of its own entries, so a record
stays reachable exactly as long as one of its events is queued.

``handle`` is an :class:`Event` object, allocated *only* when the
caller needs to cancel the entry later (:meth:`EventQueue.push`).
:meth:`EventQueue.push_light` skips the allocation entirely -- the
simulator uses it for deliveries and acks whenever no crash plan could
ever cancel them. The simulator's hot loop consumes raw entries via
:meth:`EventQueue.pop_entry`; :meth:`EventQueue.pop` keeps the
object-returning API for callers that want :class:`Event`.

Tombstones are compacted in batch: when more than half of a large heap
is cancelled events, the heap is rebuilt without them in one O(live)
pass instead of paying one ``heappop`` per tombstone.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional, Tuple

#: Event priority classes, ordered: crash < deliver < ack < wakeup.
CRASH_PRIORITY = 0
DELIVER_PRIORITY = 1
ACK_PRIORITY = 2
WAKEUP_PRIORITY = 3

#: Valid ``Event.kind`` values. ``bdeliver`` is a *delivery batch*: one
#: entry for a whole broadcast fan-out whose deliveries share a
#: timestamp; the simulator expands it into per-receiver deliveries at
#: pop time (its ``node`` slot carries the receiver tuple).
EVENT_KINDS = ("crash", "deliver", "bdeliver", "ack", "wakeup")
_EVENT_KIND_SET = frozenset(EVENT_KINDS)

#: Heap entry layout (see module docstring).
ENTRY_TIME, ENTRY_PRIORITY, ENTRY_SEQ = 0, 1, 2
ENTRY_KIND, ENTRY_NODE, ENTRY_BROADCAST_ID, ENTRY_HANDLE = 3, 4, 5, 6

#: Minimum number of tombstones before batch compaction is considered.
_COMPACT_MIN_DEAD = 64


class Event:
    """A cancellable handle to one scheduled occurrence.

    Only ``sort_key`` (the precomputed ``(time, priority, seq)`` tuple)
    participates in ordering; payload fields never enter comparisons.
    """

    __slots__ = ("time", "priority", "seq", "kind", "node",
                 "broadcast_id", "cancelled", "sort_key")

    def __init__(self, time: float, priority: int, seq: int, kind: str,
                 node: Any = None,
                 broadcast_id: Optional[int] = None) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.kind = kind
        self.node = node
        self.broadcast_id = broadcast_id
        self.cancelled = False
        self.sort_key = (time, priority, seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "Event") -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other: "Event") -> bool:
        return self.sort_key > other.sort_key

    def __ge__(self, other: "Event") -> bool:
        return self.sort_key >= other.sort_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event(time={self.time}, priority={self.priority}, "
                f"seq={self.seq}, kind={self.kind!r}, node={self.node!r}, "
                f"broadcast_id={self.broadcast_id}, "
                f"cancelled={self.cancelled})")

    def cancel(self) -> None:
        """Mark the event as a tombstone; it will be skipped when popped."""
        self.cancelled = True


class EventQueue:
    """A deterministic priority queue of simulation events.

    The simulator's hot loop (same package) reaches into ``_heap`` /
    ``_next_seq`` / ``_live`` directly to batch pushes and pops without
    per-event call overhead; every invariant (live/dead accounting,
    entry layout, seq monotonicity) is maintained at each step, so the
    public API observes a consistent queue at all times.
    """

    __slots__ = ("_heap", "_next_seq", "_live", "_dead",
                 "_cancelled_total", "_compactions", "_compacted_entries")

    def __init__(self) -> None:
        self._heap: list = []
        self._next_seq = 0
        self._live = 0
        self._dead = 0
        # Lifetime telemetry counters (cold paths only): cancellations
        # ever issued, batch compactions run, and tombstones removed by
        # compaction rather than popped. `_next_seq` doubles as the
        # lifetime push count.
        self._cancelled_total = 0
        self._compactions = 0
        self._compacted_entries = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, priority: int, kind: str,
             node: Any = None, broadcast_id: Optional[int] = None) -> Event:
        """Schedule a new event and return it (for later cancellation)."""
        if kind not in _EVENT_KIND_SET:
            raise ValueError(f"unknown event kind: {kind!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, kind, node, broadcast_id)
        heapq.heappush(self._heap,
                       (time, priority, seq, kind, node, broadcast_id,
                        event))
        self._live += 1
        return event

    def push_light(self, time: float, priority: int, kind: str,
                   node: Any = None,
                   broadcast_id: Optional[int] = None) -> None:
        """Schedule an event with no cancellation handle (no allocation).

        Use only when the caller can prove the event will never be
        cancelled; the entry cannot be reached by :meth:`cancel`.
        """
        if kind not in _EVENT_KIND_SET:
            raise ValueError(f"unknown event kind: {kind!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap,
                       (time, priority, seq, kind, node, broadcast_id,
                        None))
        self._live += 1

    def pop_entry(self) -> Optional[Tuple]:
        """Remove and return the next live heap entry, or ``None``.

        Entries are ``(time, priority, seq, kind, node, broadcast_id,
        handle)`` tuples; cancelled entries are discarded transparently.
        This is the simulator's hot-loop accessor -- no per-event
        allocation happens here.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            handle = entry[6]
            if handle is not None and handle.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            return entry
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` when empty.

        Cancelled events are discarded transparently. Entries scheduled
        via :meth:`push_light` are materialized on the way out.
        """
        entry = self.pop_entry()
        if entry is None:
            return None
        handle = entry[6]
        if handle is None:
            handle = Event(entry[0], entry[1], entry[2], entry[3],
                           entry[4], entry[5])
        return handle

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (idempotent)."""
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1
            self._dead += 1
            self._cancelled_total += 1
            if (self._dead >= _COMPACT_MIN_DEAD
                    and self._dead * 2 > len(self._heap)):
                self._compact()

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event without popping."""
        self._drain_cancelled()
        if self._heap:
            return self._heap[0][0]
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drain_cancelled(self) -> None:
        """Pop tombstones sitting at the front of the heap."""
        heap = self._heap
        while heap:
            handle = heap[0][6]
            if handle is None or not handle.cancelled:
                break
            heapq.heappop(heap)
            self._dead -= 1

    def _compact(self) -> None:
        """Rebuild the heap without tombstones in one O(live) pass.

        ``heapify`` over the surviving entries preserves pop order
        exactly: entry keys are unique, so heap order is a total order
        independent of the heap's internal layout. The compaction is
        done *in place* (slice assignment) because the simulator's hot
        loop holds a direct reference to the heap list across
        dispatches that may cancel events.
        """
        self._heap[:] = [entry for entry in self._heap
                         if entry[6] is None or not entry[6].cancelled]
        heapq.heapify(self._heap)
        self._compactions += 1
        self._compacted_entries += self._dead
        self._dead = 0
