"""Pluggable fault models for the abstract MAC layer engine.

The seed reproduced Newport's PODC 2014 results under crash faults
only. This package generalizes crash injection into an *adversary
interface* the simulator consults at three hook points, opening the
fault-tolerance axis the follow-on papers explore (Tseng & Sardina
2023, Byzantine consensus in the abstract MAC layer; Zhang & Tseng
2024, the abstract MAC layer from a fault-tolerance perspective):

Hook points
-----------
* **Broadcast boundary** (``FaultModel.send_hook``): when a faulty
  node starts a broadcast, the model may rewrite the payload per
  receiver (Byzantine corruption / equivocation) or drop individual
  deliveries (send omission). The engine applies the returned
  override map when each delivery fires.
* **Delivery boundary** (``FaultModel.deliver_hook``): just before a
  receiver's ``on_receive``, the model may drop or substitute the
  payload (receive omission).
* **Step boundary** (``FaultModel.attach`` + simulator observers): the
  model may act whenever simulated time advances, e.g. forge a
  Byzantine node's decision.

Crash semantics ride on the engine's own crash machinery via
``FaultModel.crash_plans``: :class:`CrashFaultModel` wraps
:class:`CrashPlan` instances and intercepts nothing. A fault model is
the one way to inject a fault (``Simulator(..., fault_model=...)``, or
a ``FaultSpec`` in a scenario).

Fast-path contract
------------------
Models report interception by returning callables from
``send_hook``/``deliver_hook`` *once at construction*; returning
``None`` (the default) tells the engine that boundary is never
intercepted, and fault-free and crash-only runs keep the PR 1 inlined
hot path bit-for-bit.

Correct-node scoping
--------------------
``FaultModel.faulty_nodes()`` names every node the model may make
deviate from its program. The checkers in
:mod:`repro.macsim.invariants` take that set via their ``faulty=``
parameter: under Byzantine faults, agreement and validity are only
meaningful *among correct (non-Byzantine) nodes* -- a Byzantine node
may "decide" anything, deliver corrupted payloads, and skip the ack
coverage rule for its own broadcasts, none of which counts against the
protocol. A crashed node is *not* faulty in this sense: it runs its
program correctly until it stops, and the trace's ``crash`` records
tell the checkers who stopped, so :class:`CrashFaultModel` names no
faulty node and crash runs get the full audit. Omission drops are
additionally audited: a ``drop`` trace record whose sender *and*
receiver are both correct is a model violation.
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": "DROP FaultModel forge_payload payload_value",
    "crash": "CrashFaultModel CrashPlan",
    "omission": "OmissionFaultModel OmissionPlan",
    "byzantine": "ByzantineFaultModel ByzantinePlan ByzantineStrategy "
                 "SilentStrategy CorruptStrategy EquivocateStrategy",
})
