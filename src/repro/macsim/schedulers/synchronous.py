"""The synchronous scheduler (Section 3.2 of the paper).

The paper defines the *synchronous scheduler* as the message scheduler
that delivers messages in lock-step rounds: it delivers every in-flight
message to all recipients, then provides every sender with an ack, and
then moves on to the next batch.

Here rounds are aligned to multiples of ``round_length``. A broadcast
submitted at time ``t`` is delivered to all neighbors at the next round
boundary strictly after ``t`` and acked at that same boundary. The
engine's event ordering (deliveries before acks at equal timestamps)
realizes the paper's "deliver all, then ack all" convention, so a node's
round ``r+1`` broadcast -- issued from its ack handler at boundary
``r`` -- lands in the next batch, exactly like a synchronous round model.

With ``round_length = F_ack`` this doubles as the slowest synchronous
adversary used by the Theorem 3.10 lower bound.
"""

from __future__ import annotations

import math
from typing import Any

from .base import Scheduler, UniformPlan

#: Tolerance used when snapping times to round boundaries.
_EPS = 1e-9


class SynchronousScheduler(Scheduler):
    """Lock-step round delivery.

    A broadcast's plan is the next round boundary and the sender's
    neighbor tuple as the engine passed it: one
    :class:`~repro.macsim.schedulers.base.UniformPlan`, nothing built
    per neighbor and nothing remembered between broadcasts (a sender's
    neighbor tuple is its own and every round has a new boundary, so
    there is nothing to share). The scheduler is ``trusted``: such a
    plan is correct by construction, so the engine skips ``validate``
    unless asked to run it.

    Parameters
    ----------
    round_length:
        Wall-clock length of one synchronous round; also the scheduler's
        ``F_ack`` (every broadcast completes within one round).
    """

    trusted = True

    def __init__(self, round_length: float = 1.0) -> None:
        if round_length <= 0:
            raise ValueError("round_length must be positive")
        self.round_length = float(round_length)
        self.f_ack = float(round_length)

    def next_boundary(self, after: float) -> float:
        """The first round boundary strictly later than ``after``."""
        k = math.floor(after / self.round_length + _EPS) + 1
        return k * self.round_length

    def round_of(self, time: float) -> int:
        """The round index whose boundary is at ``time`` (1-based)."""
        return int(round(time / self.round_length))

    def plan(self, *, sender: Any, message: Any, start_time: float,
             neighbors: tuple) -> UniformPlan:
        boundary = self.next_boundary(start_time)
        return UniformPlan(neighbors, boundary, boundary)

    def describe(self) -> str:
        return f"SynchronousScheduler(round_length={self.round_length})"
