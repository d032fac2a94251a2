"""The adversary (fault model) interface.

A :class:`FaultModel` is the engine's second adversary, orthogonal to
the message scheduler: the scheduler controls *when* things happen,
the fault model controls *which nodes misbehave and how*. The
simulator consults the model at three boundaries:

* **Broadcast boundary** -- when a faulty node starts a broadcast, the
  model may rewrite the payload per receiver (Byzantine corruption and
  equivocation) or suppress individual deliveries (send omission) via
  :meth:`FaultModel.send_hook`.
* **Delivery boundary** -- just before a payload reaches a receiver's
  ``on_receive``, the model may drop or substitute it
  (:meth:`FaultModel.deliver_hook`), e.g. receive omission.
* **Step boundary** -- via :meth:`FaultModel.attach` a model may
  register simulator observers and act whenever simulated time
  advances (e.g. forge a Byzantine node's decision).

Crash semantics stay on the engine's own crash machinery: a model
contributes :class:`~repro.macsim.faults.crash.CrashPlan` instances
through :meth:`FaultModel.crash_plans` and the engine schedules the
crash events and cancels the deliveries they cut off. A model is the
only way a crash reaches the engine.

Hook discipline: both hooks return ``None`` from the base class, which
tells the simulator the model never intercepts that boundary -- the
engine then keeps PR 1's inlined fast path. A model that *does*
intercept returns a callable once, at construction time; the engine
caches it so the hot loop pays one attribute test, never a dispatch
through the model object.

Batched delivery scheduling (PR 3) does not change the contract: a
broadcast whose fan-out shares one timestamp is *scheduled* as a
single heap entry, but it still expands into per-receiver dispatches,
so :meth:`FaultModel.deliver_hook` fires once per (sender, receiver)
delivery and ``drop``/substitution semantics are unchanged. The
send-hook override map is likewise applied per receiver at expansion
time, and crash plans cancel batched receivers individually.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from typing import (TYPE_CHECKING, Any, Callable, FrozenSet, Iterable,
                    Optional)

if TYPE_CHECKING:
    from .crash import CrashPlan


class _Drop:
    """Sentinel: the adversary swallows this delivery."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DROP"


#: Returned by send/deliver hooks (or stored in a send-override map) to
#: drop a delivery instead of rewriting it.
DROP = _Drop()

#: Send hook signature: (sender, payload, neighbors, now) ->
#: ``None`` (send untouched) or a mapping receiver -> forged payload
#: (or :data:`DROP`). Receivers absent from the mapping get the
#: original payload.
SendHook = Callable[[Any, Any, tuple, float], Optional[dict]]

#: Deliver hook signature: (sender, receiver, payload, now) -> payload
#: to deliver, or :data:`DROP`.
DeliverHook = Callable[[Any, Any, Any, float], Any]


class FaultModel:
    """Base class for pluggable fault models.

    The default implementation is the fault-free model: no crash plans,
    no faulty nodes, no interception at any boundary. Subclasses
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

    def send_hook(self) -> Optional[SendHook]:
        """Broadcast-boundary interceptor, or ``None`` (fast path)."""
        return None

    def deliver_hook(self) -> Optional[DeliverHook]:
        """Delivery-boundary interceptor, or ``None`` (fast path)."""
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


def payload_value(payload: Any) -> Any:
    """The adversary's read of a payload's value field (or ``None``)."""
    return getattr(payload, "value", None)
