"""Byzantine adversaries: corruption, equivocation, forged decisions.

Following the abstract-MAC Byzantine line of work (Tseng & Sardina
2023; Zhang & Tseng 2024), a Byzantine node is still *physically*
bound by the MAC layer -- its broadcasts are scheduled, delivered and
acked like anyone else's, and it cannot exceed the O(1)-ids message
bound -- but the adversary controls the *content* of everything it
sends:

* **Corruption** -- rewrite the payload (e.g. flip the reported value)
  before it reaches any receiver.
* **Equivocation** -- send *different* payloads to different
  neighbors within one broadcast. Plain local broadcast makes
  equivocation impossible (every neighbor hears the same frame);
  modelling it as an explicit strategy lets experiments compare the
  non-equivocating adversary (n > 3f suffices for much more) with the
  stronger equivocating one the conservative thresholds defend
  against.
* **Forged decisions** -- a Byzantine node may "decide" any value at
  any time; the correct-node-scoped checkers ignore it.

Identity forgery (Sybil attacks -- claiming another node's id inside a
payload) is *out of scope*, matching the papers' oral-messages model
with authenticated local channels and known ids.

The adversary budget ``f`` is the number of Byzantine identities; the
model refuses plans exceeding an explicit budget so experiments state
their assumptions up front.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from ..errors import ConfigurationError, ProcessError
from .base import DROP, FaultModel, forge_payload


class ByzantineStrategy:
    """How one Byzantine node rewrites each broadcast.

    ``mutate_all`` is called once per broadcast with the sender's full
    neighbor tuple and returns the per-receiver outcome map: the
    payload that receiver should observe, or :data:`DROP`; a receiver
    the map does not name observes ``payload``. The base strategy
    forges nothing. Strategies must be deterministic given ``rng`` (a
    per-node seeded generator) so executions stay reproducible.
    """

    name = "byzantine"

    def mutate_all(self, sender: Any, receivers: tuple, payload: Any,
                   now: float, rng: random.Random) -> dict:
        return {}

    def describe(self) -> str:
        return self.name


class SilentStrategy(ByzantineStrategy):
    """Send nothing: the Byzantine node's broadcasts all vanish."""

    name = "silent"

    def mutate_all(self, sender, receivers, payload, now, rng):
        return dict.fromkeys(receivers, DROP)


class CorruptStrategy(ByzantineStrategy):
    """Rewrite every payload's value (consistently to all receivers).

    With ``value=None`` binary payloads are flipped and anything else
    is randomized over ``{0, 1}``; an explicit ``value`` forges that
    value always. Consistent corruption is exactly what a
    non-equivocating Byzantine node can do under local broadcast.
    """

    name = "corrupt"

    def __init__(self, value: Optional[Any] = None) -> None:
        self.value = value

    def _forged_value(self, payload, rng):
        if self.value is not None:
            return self.value
        current = getattr(payload, "value", None)
        if current in (0, 1):
            return 1 - current
        return rng.randint(0, 1)

    def mutate_all(self, sender, receivers, payload, now, rng):
        # One draw per broadcast: every receiver sees the same forgery
        # (non-equivocation), even for payloads without a binary value.
        forged = forge_payload(payload, self._forged_value(payload, rng))
        return dict.fromkeys(receivers, forged)


class EquivocateStrategy(ByzantineStrategy):
    """Send different values to different neighbors.

    ``assignment`` maps receiver label -> forged value for targeted
    split-world attacks (the E12 violation construction). Without it,
    receivers are split by their position parity in the deterministic
    sort of the broadcast's receiver tuple: even positions see 0, odd
    positions see 1. (Python's salted ``hash`` is never used -- the
    split must be identical across interpreter runs.)
    """

    name = "equivocate"

    def __init__(self, assignment: Optional[Dict[Any, Any]] = None) -> None:
        self.assignment = dict(assignment) if assignment else None

    @staticmethod
    def _sort_key(label: Any):
        return (str(type(label)), str(label), repr(label))

    def mutate_all(self, sender, receivers, payload, now, rng):
        if self.assignment is not None:
            return {v: forge_payload(payload,
                                     self.assignment.get(v, 0))
                    for v in receivers}
        ordered = sorted(receivers, key=self._sort_key)
        return {v: forge_payload(payload, index % 2)
                for index, v in enumerate(ordered)}


@dataclass
class ByzantinePlan:
    """One Byzantine node: its strategy plus optional forged decision."""

    node: Any
    strategy: ByzantineStrategy = field(default_factory=CorruptStrategy)
    seed: int = 0
    #: Forge an explicit ``decide`` at this time (None: never).
    decide_at: Optional[float] = None
    decide_value: Any = None


def _forge_decision(plan: ByzantinePlan):
    """A scheduled-callback closure firing one forged decision.

    Runs as a real event, so the decide record carries exactly
    ``plan.decide_at`` and fires even when no protocol event happens
    to follow it.
    """
    def fire(sim) -> None:
        process = sim.process_at(plan.node)
        if process.crashed:
            return
        try:
            process.decide(plan.decide_value)
        except ProcessError:
            # The adversary re-deciding a different value hits the
            # irrevocability guard; the first decision stands and
            # correct nodes never see the difference.
            pass

    return fire


class ByzantineFaultModel(FaultModel):
    """Up to ``budget`` Byzantine nodes, one strategy each.

    Parameters
    ----------
    plans:
        One :class:`ByzantinePlan` per Byzantine node.
    budget:
        Optional declared bound ``f``; more plans than budget is a
        configuration error. Defaults to ``len(plans)``.
    """

    name = "byzantine"

    def __init__(self, plans: Iterable[ByzantinePlan] = (),
                 budget: Optional[int] = None) -> None:
        self._plans: List[ByzantinePlan] = list(plans)
        by_node: Dict[Any, ByzantinePlan] = {}
        for plan in self._plans:
            if plan.node in by_node:
                raise ConfigurationError(
                    f"multiple Byzantine plans for node {plan.node!r}")
            by_node[plan.node] = plan
        if budget is not None and len(self._plans) > budget:
            raise ConfigurationError(
                f"{len(self._plans)} Byzantine plans exceed the "
                f"adversary budget f={budget}")
        self._by_node = by_node
        self._rngs = {node: random.Random(plan.seed)
                      for node, plan in by_node.items()}

    @property
    def f(self) -> int:
        """The adversary's identity budget actually in use."""
        return len(self._plans)

    def faulty_nodes(self) -> FrozenSet[Any]:
        return frozenset(self._by_node)

    def lying_nodes(self) -> FrozenSet[Any]:
        return frozenset(self._by_node)

    def outcomes(self, bid: int, sender: Any, payload: Any,
                 neighbors: tuple, now: float,
                 planned: tuple) -> Optional[dict]:
        plan = self._by_node.get(sender)
        if plan is None:
            return None
        # Once per broadcast over the full neighbor tuple, whatever a
        # crash cut from ``planned``: the strategy's RNG stream and an
        # equivocation split never depend on the crash plan. Dual-graph
        # receivers are not neighbors, so no forgery reaches them.
        return plan.strategy.mutate_all(sender, neighbors, payload, now,
                                        self._rngs[sender])

    def attach(self, sim) -> None:
        for node in self._by_node:
            if not sim.graph.has_node(node):
                raise ConfigurationError(
                    f"Byzantine plan for unknown node {node!r}")
        for plan in self._plans:
            if plan.decide_at is not None:
                sim.schedule_callback(plan.decide_at,
                                      _forge_decision(plan))

    def describe(self) -> str:
        kinds = sorted({p.strategy.describe() for p in self._plans})
        return f"byzantine(f={self.f}, strategies={kinds})"
