"""The adversary (fault model) interface.

A :class:`FaultModel` is the engine's second adversary, orthogonal to
the message scheduler: the scheduler controls *when* things happen,
the fault model *which nodes misbehave and how*. It contributes crash
plans (:meth:`FaultModel.crash_plans`) and the outcome of each planned
delivery (:meth:`FaultModel.outcomes`: deliver, forge or
:data:`DROP`), both applied when a broadcast is planned (see
:mod:`repro.macsim.faults`), plus step behaviour
(:meth:`FaultModel.attach`).
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from typing import TYPE_CHECKING, Any, FrozenSet, Iterable, Optional

if TYPE_CHECKING:
    from .crash import CrashPlan


class _Drop:
    """Sentinel: the adversary swallows this delivery."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DROP"


#: The outcome that drops a delivery instead of rewriting it.
DROP = _Drop()


class FaultModel:
    """Base class for pluggable fault models.

    The default implementation is the fault-free model: no crash plans,
    no faulty nodes, every delivery as planned. Subclasses
    override exactly the surface they need; see
    :class:`~repro.macsim.faults.crash.CrashFaultModel`,
    :class:`~repro.macsim.faults.omission.OmissionFaultModel` and
    :class:`~repro.macsim.faults.byzantine.ByzantineFaultModel`.
    """

    #: Human-readable model family name (experiment tables).
    name = "fault-free"

    def crash_plans(self) -> Iterable[CrashPlan]:
        """Crash plans to feed the engine's crash machinery."""
        return ()

    def faulty_nodes(self) -> FrozenSet[Any]:
        """Every node this model may make deviate from its program.

        Invariant and consensus checkers scope agreement/validity to
        the complement of this set (the *correct* nodes).
        """
        return frozenset()

    def lying_nodes(self) -> FrozenSet[Any]:
        """Nodes whose *claims* (including inputs) cannot be trusted.

        Distinct from :meth:`faulty_nodes`: omission-faulty nodes
        execute their program correctly -- their inputs remain
        legitimate decision values under the standard crash-fault
        validity -- whereas a Byzantine node's input is whatever the
        adversary claims it is. Validity checking excludes only the
        lying nodes' inputs.
        """
        return frozenset()

    def outcomes(self, bid: int, sender: Any, payload: Any,
                 neighbors: tuple, now: float,
                 planned: tuple) -> Optional[dict]:
        """What the adversary does to broadcast ``bid``: ``None`` when
        nothing, else a mapping receiver -> forged payload or
        :data:`DROP` (unnamed receivers get ``payload``; keys that are
        not planned receivers are ignored).

        ``neighbors`` is the sender's (reliable) neighbor tuple and
        ``planned`` the schedule left after the crash cuts: ``(time,
        receivers)`` groups, every delivery -- dual-graph ones too --
        in exactly one. Called once per broadcast, and only when
        :meth:`faulty_nodes` is non-empty.
        """
        return None

    def attach(self, sim) -> None:
        """Called once when a simulator adopts this model.

        Subclasses may register observers (step-boundary behaviour) or
        validate that their target nodes exist in ``sim.graph``.
        """

    def describe(self) -> str:
        """One-line description for experiment reports."""
        return self.name


def forge_payload(payload: Any, value: Any) -> Any:
    """Best-effort rewrite of a protocol payload's value.

    The generic entry point Byzantine strategies use to corrupt
    messages without knowing every protocol's message classes:

    * payloads exposing ``forge(value)`` (the convention of
      :mod:`repro.core.byzantine`) are asked to forge themselves;
    * frozen dataclasses with a ``value`` field are rebuilt via
      :func:`dataclasses.replace`;
    * anything else is returned unchanged -- the adversary cannot
      usefully corrupt what it cannot parse.
    """
    forge = getattr(payload, "forge", None)
    if callable(forge):
        return forge(value)
    if is_dataclass(payload) and not isinstance(payload, type):
        if any(f.name == "value" for f in fields(payload)):
            return replace(payload, value=value)
    return payload
