"""Randomized schedulers.

These model well-behaved but unpredictable MAC layers: each neighbor
receives a broadcast after an independent random delay, and the ack
follows the last delivery after a further random lag, all within
``F_ack``. Deterministic under a fixed seed, which the property-based
tests exploit to explore many interleavings.

Both schedulers draw ``a + (b - a) * rng.random()`` inline -- the
expression ``Random.uniform(a, b)`` evaluates, so every float is the
one ``uniform`` would return, without a Python call per draw.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from .base import DeliveryPlan, Scheduler


class RandomDelayScheduler(Scheduler):
    """Independent uniform per-neighbor delivery delays.

    Parameters
    ----------
    f_ack:
        Upper bound on broadcast completion.
    seed:
        RNG seed; runs are reproducible for a fixed seed.
    min_fraction:
        Deliveries happen no earlier than ``min_fraction * f_ack`` after
        the broadcast (defaults to 0, i.e. arbitrarily fast deliveries).
    """

    trusted = True  # plans are in-bounds by construction

    def __init__(self, f_ack: float = 1.0, seed: Optional[int] = None,
                 min_fraction: float = 0.0) -> None:
        if f_ack <= 0:
            raise ValueError("f_ack must be positive")
        if not 0.0 <= min_fraction < 1.0:
            raise ValueError("min_fraction must lie in [0, 1)")
        self.f_ack = float(f_ack)
        self.min_fraction = float(min_fraction)
        self._rng = random.Random(seed)

    def plan(self, *, sender: Any, message: Any, start_time: float,
             neighbors: tuple) -> DeliveryPlan:
        rand = self._rng.random
        f_ack = self.f_ack
        lo = self.min_fraction * f_ack
        width = f_ack - lo
        deliveries = {}
        latest = start_time  # no delivery precedes the broadcast
        for v in neighbors:
            when = deliveries[v] = start_time + (lo + width * rand())
            if when > latest:
                latest = when
        ack_time = latest + (start_time + f_ack - latest) * rand()
        return DeliveryPlan(deliveries, ack_time)

    def describe(self) -> str:
        return (f"RandomDelayScheduler(f_ack={self.f_ack}, "
                f"min_fraction={self.min_fraction})")


class JitteredRoundScheduler(Scheduler):
    """Mostly-synchronous rounds with bounded per-delivery jitter.

    Models a TDMA-like MAC: deliveries cluster near round boundaries but
    individual receptions drift by up to ``jitter * round_length``. Used
    by robustness tests to confirm the algorithms do not secretly rely
    on exact lock-step timing.
    """

    trusted = True  # plans are clamped in-bounds by construction

    def __init__(self, round_length: float = 1.0, jitter: float = 0.25,
                 seed: Optional[int] = None) -> None:
        if round_length <= 0:
            raise ValueError("round_length must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        self.round_length = float(round_length)
        self.jitter = float(jitter)
        self.f_ack = float(round_length) * (1.0 + jitter)
        self._rng = random.Random(seed)

    def plan(self, *, sender: Any, message: Any, start_time: float,
             neighbors: tuple) -> DeliveryPlan:
        rand = self._rng.random
        base = start_time + self.round_length * (1.0 - self.jitter)
        span = self.round_length * self.jitter
        # uniform(0.0, span) == 0.0 + (span - 0.0) * random(): the
        # zero terms are exact, so the draw is span * random().
        deliveries = {}
        latest = start_time  # no delivery precedes the broadcast
        for v in neighbors:
            when = deliveries[v] = base + span * rand()
            if when > latest:
                latest = when
        ack_time = min(latest + span * rand(), start_time + self.f_ack)
        if ack_time < latest:
            ack_time = latest
        return DeliveryPlan(deliveries, ack_time)

    def describe(self) -> str:
        return (f"JitteredRoundScheduler(round_length={self.round_length}, "
                f"jitter={self.jitter})")
