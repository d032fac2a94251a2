"""A fully scripted scheduler for hand-built adversarial executions.

Lower-bound arguments construct *specific* executions: this scheduler
lets a test spell one out. Each node's successive broadcasts are matched
against a list of :class:`ScriptedStep` entries giving per-neighbor
delivery offsets and the ack offset; broadcasts beyond the script fall
back to a default scheduler.

Used by the Two-Phase pseudocode-erratum regression test and by the
Theorem 3.2 (crash) counterexample construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

from ..errors import ConfigurationError
from .base import DeliveryPlan, Plan, Scheduler, UniformPlan


@dataclass(frozen=True)
class ScriptedStep:
    """Relative timing for one broadcast of one node.

    ``delivery_offsets`` maps neighbor label -> offset after the
    broadcast start; neighbors not listed receive at ``ack_offset``.
    """

    delivery_offsets: Mapping[Any, float]
    ack_offset: float


class ScriptedScheduler(Scheduler):
    """Replay scripted delivery plans per (sender, broadcast index).

    Parameters
    ----------
    scripts:
        Mapping from node label to the sequence of steps for that
        node's 1st, 2nd, ... broadcasts.
    fallback:
        Scheduler used for any broadcast without a scripted step.
    f_ack:
        Model bound; must dominate every scripted ack offset.
    """

    def __init__(self, scripts: Mapping[Any, Sequence[ScriptedStep]],
                 fallback: Optional[Scheduler] = None,
                 f_ack: float = 100.0) -> None:
        self.scripts: Dict[Any, list] = {
            node: list(steps) for node, steps in scripts.items()
        }
        self.fallback = fallback
        self.f_ack = float(f_ack)
        self._progress: Dict[Any, int] = {}
        for node, steps in self.scripts.items():
            for step in steps:
                offsets = list(step.delivery_offsets.values())
                worst = max(offsets + [step.ack_offset])
                if worst > self.f_ack:
                    raise ConfigurationError(
                        f"scripted step for {node!r} exceeds f_ack="
                        f"{self.f_ack}")
                if any(o > step.ack_offset for o in offsets):
                    raise ConfigurationError(
                        f"scripted step for {node!r} delivers after its "
                        f"own ack")

    def plan(self, *, sender: Any, message: Any, start_time: float,
             neighbors: tuple) -> Plan:
        index = self._progress.get(sender, 0)
        steps = self.scripts.get(sender, ())
        if index < len(steps):
            self._progress[sender] = index + 1
            step = steps[index]
            deliveries = {
                v: start_time + step.delivery_offsets.get(
                    v, step.ack_offset)
                for v in neighbors
            }
            return DeliveryPlan(deliveries=deliveries,
                                ack_time=start_time + step.ack_offset)
        if self.fallback is not None:
            return self.fallback.plan(sender=sender, message=message,
                                      start_time=start_time,
                                      neighbors=neighbors)
        # Default: complete promptly, one time unit after start.
        deadline = start_time + 1.0
        return UniformPlan(neighbors, deadline, deadline)
