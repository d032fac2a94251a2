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
to. Nothing is ever cancelled: every crash plan is known before the run
starts, so the simulator leaves out of a broadcast's schedule whatever
a crash would cut (see :mod:`repro.macsim.simulator`), and every entry
pushed is popped.

Fast-path design
----------------
The heap stores plain tuples ``(time, priority, seq, kind, node,
broadcast_id)``. Because ``seq`` is unique, tuple comparison always
resolves at C speed on the first three fields without touching the
payload -- no per-comparison Python ``__lt__`` call. The queue never
looks at ``node`` or ``broadcast_id``: the simulator puts the
broadcast's *record* in the ``broadcast_id`` slot of its own entries,
so a record stays reachable exactly as long as one of its events is
queued, and a wakeup's callback in the same slot of its entry. The
simulator's hot loop pushes and pops raw entries on ``_heap`` itself;
:meth:`EventQueue.push_light` and :meth:`EventQueue.pop_entry` are the
same operations for everyone else.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional, Tuple

#: Event priority classes, ordered: crash < deliver < ack < wakeup.
CRASH_PRIORITY = 0
DELIVER_PRIORITY = 1
ACK_PRIORITY = 2
WAKEUP_PRIORITY = 3

#: Valid event kinds. ``bdeliver`` is a *delivery batch*: one entry for
#: a whole broadcast fan-out whose deliveries share a timestamp; the
#: simulator expands it into per-receiver deliveries at pop time (its
#: ``node`` slot carries the receiver tuple). ``drop`` is a delivery
#: the fault model dropped when the broadcast was planned.
_EVENT_KINDS = frozenset(("crash", "deliver", "bdeliver", "ack", "drop",
                          "wakeup"))


class EventQueue:
    """A deterministic priority queue of simulation events.

    The simulator's hot loop (same package) reaches into ``_heap`` and
    ``_next_seq`` directly to batch pushes and pops without per-event
    call overhead. ``_next_seq`` doubles as the lifetime push count, so
    ``_next_seq - len(queue)`` entries have been popped.
    """

    __slots__ = ("_heap", "_next_seq")

    def __init__(self) -> None:
        self._heap: list = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push_light(self, time: float, priority: int, kind: str,
                   node: Any = None,
                   broadcast_id: Optional[int] = None) -> None:
        """Schedule an event."""
        if kind not in _EVENT_KINDS:
            raise ValueError(f"unknown event kind: {kind!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap,
                       (time, priority, seq, kind, node, broadcast_id))

    def pop_entry(self) -> Optional[Tuple]:
        """Remove and return the next heap entry, or ``None`` when empty.

        Entries are ``(time, priority, seq, kind, node, broadcast_id)``
        tuples.
        """
        if self._heap:
            return heapq.heappop(self._heap)
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next event without popping."""
        if self._heap:
            return self._heap[0][0]
        return None
