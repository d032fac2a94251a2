"""Pluggable fault models for the abstract MAC layer engine.

The seed reproduced Newport's PODC 2014 results under crash faults
only. This package generalizes crash injection into an *adversary
interface*, opening the fault-tolerance axis the follow-on papers
explore (Tseng & Sardina 2023, Byzantine consensus in the abstract MAC
layer; Zhang & Tseng 2024, the abstract MAC layer from a
fault-tolerance perspective).

Every fault is planned
----------------------
A faulty node is still bound by the MAC layer: its broadcasts are
scheduled, delivered and acked like anyone else's. Everything the
adversary may decide about a broadcast -- the sender, the receivers,
the payload, the send time, each delivery time -- is therefore known
when the broadcast is planned, and that is when it is decided:

* **Crashes** (``FaultModel.crash_plans``): :class:`CrashFaultModel`
  wraps :class:`CrashPlan` instances; the engine leaves out of each
  broadcast's schedule what a crash cuts.
* **Delivery outcomes** (``FaultModel.outcomes``): once per
  broadcast, after the crash cuts, the model maps each planned
  delivery to one outcome -- deliver the payload, deliver a forged
  payload (Byzantine corruption / equivocation), or drop it (send or
  receive omission). The engine turns the outcomes into heap entries
  (a drop writes its ``drop`` record at the delivery's time), so
  every delivery takes the engine's one delivery path.
* **Step behaviour** (``FaultModel.attach``): the model may register
  observers or schedule callbacks, e.g. forge a Byzantine node's
  decision at a fixed time.

A fault model is the one way to inject a fault
(``Simulator(..., fault_model=...)``, or a ``FaultSpec`` in a
scenario). A model that names no faulty node (fault-free, crash-only)
is never asked for outcomes.

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
    "base": "DROP FaultModel forge_payload",
    "crash": "CrashFaultModel CrashPlan",
    "omission": "OmissionFaultModel OmissionPlan",
    "byzantine": "ByzantineFaultModel ByzantinePlan ByzantineStrategy "
                 "SilentStrategy CorruptStrategy EquivocateStrategy",
})
