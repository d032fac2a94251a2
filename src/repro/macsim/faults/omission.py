"""Omission faults: nodes whose sends and/or receives are dropped.

An omission-faulty node runs its program correctly but the adversary
discards some of its traffic. Two directions, per
:class:`OmissionPlan`:

* **Send omission** -- the node's broadcasts are (probabilistically)
  dropped before reaching any neighbor. The MAC layer still acks the
  broadcast: the fault sits between the MAC and the air, so the sender
  cannot detect it (the defining property of omission faults).
* **Receive omission** -- deliveries *to* the node are dropped, so its
  ``on_receive`` never fires for them.

Both are decided when the broadcast is planned
(:meth:`OmissionFaultModel.outcomes`). A dropped delivery never gates
another sender's ack -- the dropped receiver is faulty, so the model's
"every non-faulty neighbor receives before the ack" contract is
untouched. The engine records each drop as a ``drop`` trace record at
the delivery's planned time, which the scoped invariant checker
verifies only ever involves a faulty endpoint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional

from ..errors import ConfigurationError
from .base import DROP, FaultModel


@dataclass(frozen=True)
class OmissionPlan:
    """Omission behaviour for one node.

    Parameters
    ----------
    node:
        Graph label of the faulty node.
    send:
        Drop the node's outgoing deliveries.
    receive:
        Drop deliveries addressed to the node.
    start:
        Faults only apply from this simulated time on (the node is
        correct before it; models a component failing mid-run).
    drop_rate:
        Probability that any individual delivery is dropped. ``1.0``
        (default) is deterministic total omission.
    seed:
        Seed of the ``drop_rate < 1`` draws. Each delivery's draw is a
        pure function of ``(seed, broadcast id, receiver)``, so runs
        stay deterministic for a fixed seed and scheduler.
    """

    node: Any
    send: bool = True
    receive: bool = False
    start: float = 0.0
    drop_rate: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.send or self.receive):
            raise ConfigurationError(
                f"omission plan for {self.node!r} omits nothing")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ConfigurationError(
                f"drop_rate must lie in [0, 1], got {self.drop_rate}")


class OmissionFaultModel(FaultModel):
    """Per-node send/receive omission under an adversary policy."""

    name = "omission"

    def __init__(self, plans: Iterable[OmissionPlan] = ()) -> None:
        self._by_node: Dict[Any, OmissionPlan] = {}
        for plan in plans:
            if plan.node in self._by_node:
                raise ConfigurationError(
                    f"multiple omission plans for node {plan.node!r}")
            self._by_node[plan.node] = plan
        self._send_nodes = {n for n, p in self._by_node.items() if p.send}
        self._recv_nodes = {n for n, p in self._by_node.items()
                            if p.receive}

    def faulty_nodes(self) -> FrozenSet[Any]:
        return frozenset(self._by_node)

    @staticmethod
    def _drops(plan: OmissionPlan, at: float, bid: int,
               receiver: Any) -> bool:
        if at < plan.start:
            return False
        if plan.drop_rate >= 1.0:
            return True
        # Independent of delivery order; ``random`` hashes a str seed
        # with SHA-512, never with the salted ``hash``.
        rng = random.Random(f"{plan.seed}:{bid}:{receiver!r}")
        return rng.random() < plan.drop_rate

    def outcomes(self, bid: int, sender: Any, payload: Any,
                 neighbors: tuple, now: float,
                 planned: tuple) -> Optional[dict]:
        # Send omission acts from the broadcast's start on, over the
        # reliable neighbors; receive omission from each delivery's
        # own time on, dual-graph deliveries included.
        drops = {}
        if sender in self._send_nodes:
            plan = self._by_node[sender]
            drops = {v: DROP for v in neighbors
                     if self._drops(plan, now, bid, v)}
        for node in self._recv_nodes:
            for when, receivers in planned:
                if node in receivers:
                    if self._drops(self._by_node[node], when, bid, node):
                        drops[node] = DROP
                    break
        return drops or None

    def describe(self) -> str:
        return (f"omission(send={sorted(map(str, self._send_nodes))}, "
                f"receive={sorted(map(str, self._recv_nodes))})")
