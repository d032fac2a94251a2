"""Adversarial schedulers used by the lower-bound reproductions.

Three adversaries appear in the paper's arguments:

* **Maximum delay** (Theorem 3.10): every broadcast takes the full
  ``F_ack`` to complete, so information crosses at most one hop per
  ``F_ack`` -- the engine of the ``Omega(D * F_ack)`` bound.
* **Silencing / semi-synchronous** (Theorems 3.3 and 3.9): the network
  runs synchronously except that the deliveries *from* a designated set
  of nodes are withheld until a release time. This is legal because the
  adversary's ``F_ack`` is simply larger than the silence window -- the
  nodes cannot tell a slow bridge from an absent one.
* **Staggered delivery**: neighbors receive one at a time in a fixed
  order, the timed analogue of the FLP proof's *valid steps*; used to
  stress order-sensitive logic such as Two-Phase Consensus's witness
  sets.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from .base import DeliveryPlan, Plan, Scheduler, UniformPlan
from .synchronous import SynchronousScheduler


class MaxDelayScheduler(Scheduler):
    """Every delivery and ack at exactly ``start + f_ack``.

    The slowest scheduler the model admits; per-hop progress is exactly
    one ``F_ack``. Used to measure worst-case decision times against the
    Theorem 3.10 bound.
    """

    def __init__(self, f_ack: float = 1.0) -> None:
        if f_ack <= 0:
            raise ValueError("f_ack must be positive")
        self.f_ack = float(f_ack)

    def plan(self, *, sender: Any, message: Any, start_time: float,
             neighbors: tuple) -> UniformPlan:
        deadline = start_time + self.f_ack
        return UniformPlan(neighbors, deadline, deadline)


class SilencingScheduler(Scheduler):
    """Wrap another scheduler, withholding deliveries from chosen nodes.

    Broadcasts by nodes in ``silenced`` are delivered (and acked) at the
    first inner-scheduler boundary at or after ``release_time`` instead
    of on their normal schedule. All other broadcasts are passed through
    to the inner scheduler untouched.

    This is the paper's semi-synchronous scheduler when the inner
    scheduler is :class:`SynchronousScheduler`: it isolates the
    sub-networks on either side of the silenced bridge for the first
    ``t`` rounds (Sections 3.2 and 3.3).
    """

    def __init__(self, inner: Scheduler, silenced: Iterable[Any],
                 release_time: float) -> None:
        if release_time < 0:
            raise ValueError("release_time must be non-negative")
        self.inner = inner
        self.silenced = frozenset(silenced)
        self.release_time = float(release_time)
        # The adversary's F_ack must cover the silence window.
        self.f_ack = float(release_time) + 2.0 * inner.f_ack

    def _release_boundary(self, start_time: float) -> float:
        release = max(self.release_time, start_time)
        if isinstance(self.inner, SynchronousScheduler):
            boundary = self.inner.next_boundary(release - 1e-9)
            return max(boundary, self.inner.next_boundary(start_time))
        return release + self.inner.f_ack

    def plan(self, *, sender: Any, message: Any, start_time: float,
             neighbors: tuple) -> Plan:
        if sender in self.silenced and start_time < self.release_time:
            when = self._release_boundary(start_time)
            return UniformPlan(neighbors, when, when)
        return self.inner.plan(sender=sender, message=message,
                               start_time=start_time, neighbors=neighbors)

    def describe(self) -> str:
        return (f"SilencingScheduler(inner={self.inner.describe()}, "
                f"silenced={sorted(map(str, self.silenced))}, "
                f"release_time={self.release_time})")


class StaggeredScheduler(Scheduler):
    """Deliver to neighbors one at a time, in graph order.

    Neighbor ``i`` (0-based, in the graph's deterministic neighbor
    order) receives at ``start + (i + 1) * step`` and the ack follows
    the last delivery by one further ``step``. This serializes
    receptions the way the FLP valid-step model does, exposing
    order-dependent behaviour that lock-step rounds hide.
    """

    def __init__(self, step: float = 1.0, max_degree: int = 64,
                 reverse: bool = False) -> None:
        if step <= 0:
            raise ValueError("step must be positive")
        if max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        self.step = float(step)
        self.max_degree = int(max_degree)
        self.reverse = bool(reverse)
        self.f_ack = float(step) * (max_degree + 1)

    def plan(self, *, sender: Any, message: Any, start_time: float,
             neighbors: tuple) -> DeliveryPlan:
        if len(neighbors) > self.max_degree:
            raise ValueError(
                f"degree {len(neighbors)} exceeds max_degree="
                f"{self.max_degree}; raise max_degree for this graph")
        ordered = tuple(reversed(neighbors)) if self.reverse else neighbors
        deliveries = {
            v: start_time + (i + 1) * self.step
            for i, v in enumerate(ordered)
        }
        last = start_time + len(ordered) * self.step
        return DeliveryPlan(deliveries=deliveries, ack_time=last + self.step)


class PartitionScheduler(Scheduler):
    """Synchronous rounds with all cross-cut deliveries delayed.

    Messages between the two sides of a vertex bipartition flow only
    after ``release_time``; each side runs lock-step internally. Unlike
    :class:`SilencingScheduler` this delays *individual deliveries*
    crossing the cut rather than whole broadcasts, which is what the
    Theorem 3.10 partition argument needs on a line network.
    """

    def __init__(self, inner: SynchronousScheduler, side_a: Iterable[Any],
                 release_time: float) -> None:
        self.inner = inner
        self.side_a = frozenset(side_a)
        self.release_time = float(release_time)
        self.f_ack = float(release_time) + 2.0 * inner.f_ack

    def _crosses(self, sender: Any, receiver: Any) -> bool:
        return (sender in self.side_a) != (receiver in self.side_a)

    def plan(self, *, sender: Any, message: Any, start_time: float,
             neighbors: tuple) -> Plan:
        base = self.inner.plan(sender=sender, message=message,
                               start_time=start_time, neighbors=neighbors)
        if start_time >= self.release_time:
            return base
        late = self.inner.next_boundary(
            max(self.release_time, start_time) - 1e-9)
        late = max(late, self.inner.next_boundary(start_time))
        deliveries = dict(base.deliveries)
        changed = False
        for receiver in neighbors:
            if self._crosses(sender, receiver):
                deliveries[receiver] = late
                changed = True
        if not changed:
            return base
        ack_time = max(base.ack_time, late)
        return DeliveryPlan(deliveries=deliveries, ack_time=ack_time)

    def describe(self) -> str:
        return (f"PartitionScheduler(side_a={sorted(map(str, self.side_a))},"
                f" release_time={self.release_time})")
