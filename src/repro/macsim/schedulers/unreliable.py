"""Schedulers for the dual-graph (unreliable links) model variant.

Some definitions of the abstract MAC layer (Kuhn, Lynch, Newport 2011)
include a second topology of *unreliable* links that sometimes deliver
and sometimes do not. The paper under reproduction omits them -- which
strengthens its lower bounds -- and explicitly leaves upper bounds for
the dual-graph variant as an open question (Section 5). Experiment E9
explores that question empirically; these wrappers provide the
unreliable-delivery policies it sweeps:

* :class:`BernoulliUnreliableScheduler` -- each unreliable delivery
  happens independently with probability ``deliver_prob``;
* :class:`AdversarialUnreliableScheduler` -- deterministic all-or-
  nothing per phase windows (deliver everything before ``cutoff``,
  nothing after), the worst-case "links die mid-protocol" adversary.
"""

from __future__ import annotations

import random
from typing import Any, Mapping, Optional

from .base import Plan, Scheduler


class _Wrapper(Scheduler):
    """Delegate reliable planning to an inner scheduler."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.f_ack = inner.f_ack

    def plan(self, *, sender: Any, message: Any, start_time: float,
             neighbors: tuple) -> Plan:
        return self.inner.plan(sender=sender, message=message,
                               start_time=start_time,
                               neighbors=neighbors)


class BernoulliUnreliableScheduler(_Wrapper):
    """Deliver over each unreliable link independently w.p. ``p``.

    Delivery times are sampled uniformly in the broadcast's window,
    so unreliable receptions interleave arbitrarily with reliable
    ones (they are *not* synchronized to round boundaries).
    """

    def __init__(self, inner: Scheduler, deliver_prob: float,
                 seed: Optional[int] = None) -> None:
        super().__init__(inner)
        if not 0.0 <= deliver_prob <= 1.0:
            raise ValueError("deliver_prob must lie in [0, 1]")
        self.deliver_prob = deliver_prob
        self._rng = random.Random(seed)

    def plan_unreliable(self, *, sender: Any, message: Any,
                        start_time: float, ack_time: float,
                        neighbors: tuple) -> Mapping[Any, float]:
        out = {}
        for v in neighbors:
            if self._rng.random() < self.deliver_prob:
                out[v] = self._rng.uniform(start_time, ack_time)
        return out

    def describe(self) -> str:
        return (f"BernoulliUnreliable(p={self.deliver_prob}, "
                f"inner={self.inner.describe()})")


class AdversarialUnreliableScheduler(_Wrapper):
    """Unreliable links work until ``cutoff``, then go silent forever.

    The classic trap for algorithms that let routing state form over
    unreliable links: the links behave perfectly while trees are
    built, then vanish when the traffic that matters flows.
    """

    def __init__(self, inner: Scheduler, cutoff: float) -> None:
        super().__init__(inner)
        self.cutoff = float(cutoff)

    def plan_unreliable(self, *, sender: Any, message: Any,
                        start_time: float, ack_time: float,
                        neighbors: tuple) -> Mapping[Any, float]:
        if start_time >= self.cutoff:
            return {}
        return {v: ack_time for v in neighbors}

    def describe(self) -> str:
        return (f"AdversarialUnreliable(cutoff={self.cutoff}, "
                f"inner={self.inner.describe()})")
