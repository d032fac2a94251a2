"""Theorem 3.2 reproduction: consensus fails with one crash.

Two executable artifacts back the theorem:

1. :class:`StepTwoPhase` -- Algorithm 1 re-expressed in the pure
   valid-step interface, so the valency machinery can exhaustively
   analyse it: a bivalent initial configuration exists, and with a
   crash budget of one the algorithm has reachable configurations in
   which some non-crashed node can never decide.
2. :func:`build_witness_deadlock_execution` -- the concrete timed
   execution in which a mid-broadcast crash deadlocks Two-Phase
   Consensus's witness wait: ``u`` (status ``decided(0)``) crashes
   after its phase-2 message reaches ``v`` but not ``w``; ``w`` holds
   ``u`` in its witness set and blocks forever. One crash, termination
   violated -- exactly the failure mode Theorem 3.2 proves is
   unavoidable for *every* deterministic algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Tuple

from ..core.twophase import BIVALENT, Phase1Message, Phase2Message
from ..macsim import (CrashFaultModel, CrashPlan, Simulator,
                      build_simulation)
from ..macsim.schedulers import ScriptedScheduler, ScriptedStep
from ..topology import clique
from .steps import StepAlgorithm


@dataclass(frozen=True)
class NoopMessage:
    """Placeholder message sent by nodes that finished the protocol.

    The valid-step model assumes nodes always send; terminated nodes
    cycle on noops, which the valency explorer's memoization folds
    into finitely many configurations.
    """

    sender: int

    def id_footprint(self) -> int:
        return 1


@dataclass(frozen=True)
class TPState:
    """Hashable Two-Phase node state for the step model."""

    uid: int
    value: int
    phase: str  # "phase1" | "phase2" | "witness" | "done"
    status: Any
    r1: FrozenSet[Any]
    r2: FrozenSet[Any]
    witnesses: FrozenSet[int]
    decision: Optional[int]


class StepTwoPhase(StepAlgorithm):
    """Algorithm 1 as a pure :class:`StepAlgorithm`.

    Mirrors :class:`repro.core.twophase.TwoPhaseConsensus` with the
    corrected (R1 union R2) decision check and early decide; the
    equivalence of the two implementations is covered by tests that
    run both under matching schedules.
    """

    def initial_state(self, uid: int, value: int) -> TPState:
        own = Phase1Message(sender=uid, value=value)
        return TPState(uid=uid, value=value, phase="phase1",
                       status=None, r1=frozenset([own]), r2=frozenset(),
                       witnesses=frozenset(), decision=None)

    # ------------------------------------------------------------------
    def message(self, state: TPState) -> Any:
        if state.phase == "phase1":
            return Phase1Message(sender=state.uid, value=state.value)
        if state.phase == "phase2":
            return Phase2Message(sender=state.uid, status=state.status)
        return NoopMessage(sender=state.uid)

    # ------------------------------------------------------------------
    def on_receive(self, state: TPState, message: Any) -> TPState:
        if isinstance(message, NoopMessage):
            return state
        if state.phase == "phase1":
            return _replace(state, r1=state.r1 | {message})
        if state.phase == "phase2":
            return _replace(state, r2=state.r2 | {message})
        if state.phase == "witness" and isinstance(message, Phase2Message):
            return self._check_witnesses(
                _replace(state, r2=state.r2 | {message}))
        return state

    def on_ack(self, state: TPState) -> TPState:
        if state.phase == "phase1":
            other = 1 - state.value
            saw_other = any(isinstance(m, Phase1Message)
                            and m.value == other for m in state.r1)
            saw_bivalent = any(isinstance(m, Phase2Message)
                               and m.is_bivalent for m in state.r1)
            status = (BIVALENT if saw_other or saw_bivalent
                      else ("decided", state.value))
            own = Phase2Message(sender=state.uid, status=status)
            return _replace(state, phase="phase2", status=status,
                            r2=state.r2 | {own})
        if state.phase == "phase2":
            if state.status != BIVALENT:
                return _replace(state, phase="done",
                                decision=state.status[1])
            witnesses = frozenset(
                m.sender for m in state.r1 | state.r2
                if isinstance(m, (Phase1Message, Phase2Message)))
            return self._check_witnesses(
                _replace(state, phase="witness", witnesses=witnesses))
        return state

    def decision(self, state: TPState) -> Optional[int]:
        return state.decision

    # ------------------------------------------------------------------
    def _check_witnesses(self, state: TPState) -> TPState:
        heard = state.r1 | state.r2
        phase2_senders = {m.sender for m in heard
                          if isinstance(m, Phase2Message)}
        if not state.witnesses <= phase2_senders:
            return state
        decided_zero = any(isinstance(m, Phase2Message)
                           and m.decided_value() == 0 for m in heard)
        return _replace(state, phase="done",
                        decision=0 if decided_zero else 1)


def _replace(state: TPState, **kwargs) -> TPState:
    fields = dict(uid=state.uid, value=state.value, phase=state.phase,
                  status=state.status, r1=state.r1, r2=state.r2,
                  witnesses=state.witnesses, decision=state.decision)
    fields.update(kwargs)
    return TPState(**fields)


# ---------------------------------------------------------------------------
# The concrete timed counterexample
# ---------------------------------------------------------------------------
def build_witness_deadlock_execution() -> Simulator:
    """Timed 3-clique execution where one crash deadlocks Two-Phase.

    Construction (nodes 0, 1, 2 with values 0, 1, 1):

    * Node 0's phase-1 completes instantly (delivered + acked at t=1)
      before it hears anyone, so its status is ``decided(0)``.
    * Node 0's phase-2 (``decided(0)``) reaches node 1 at t=2, then
      node 0 *crashes mid-broadcast* at t=3: node 2 never receives it.
    * Nodes 1 and 2 finish phase 1 at t=6/t=6.5, both bivalent (they
      saw value 0 and value 1); both hold node 0 in their witness set.
    * Node 1 eventually holds node 0's phase-2 (from R1) and node 2's,
      and decides 0. Node 2 waits for node 0's phase-2 forever.

    Run the returned simulator and check: node 1 decides 0, node 2
    never decides -- a termination violation caused by a single crash.
    """
    from ..core.twophase import TwoPhaseConsensus

    graph = clique(3)
    values = {0: 0, 1: 1, 2: 1}
    scripts = {
        0: [
            # phase 1: deliver to both at 1, ack at 1.
            ScriptedStep(delivery_offsets={1: 1.0, 2: 1.0},
                         ack_offset=1.0),
            # phase 2 (starts t=1): node 1 gets it at t=2; node 2's
            # delivery is scheduled late and pruned when planned (the
            # crash at t=3 cuts it).
            ScriptedStep(delivery_offsets={1: 1.0, 2: 90.0},
                         ack_offset=90.0),
        ],
        1: [
            # phase 1: deliveries at t=6, ack at t=6.
            ScriptedStep(delivery_offsets={0: 6.0, 2: 6.0},
                         ack_offset=6.0),
            # phase 2 (starts t=6): deliveries at t=7.5 (node 0 is
            # crashed by then; its delivery is pruned when planned),
            # ack t=7.5.
            ScriptedStep(delivery_offsets={0: 1.5, 2: 1.5},
                         ack_offset=1.5),
        ],
        2: [
            # phase 1: deliveries at t=6.5.
            ScriptedStep(delivery_offsets={0: 6.5, 1: 6.5},
                         ack_offset=6.5),
            # phase 2 (starts t=6.5): deliveries at t=8.
            ScriptedStep(delivery_offsets={0: 1.5, 1: 1.5},
                         ack_offset=1.5),
        ],
    }
    scheduler = ScriptedScheduler(scripts, f_ack=100.0)
    return build_simulation(
        graph,
        lambda v: TwoPhaseConsensus(uid=v, initial_value=values[v]),
        scheduler,
        fault_model=CrashFaultModel(
            [CrashPlan(node=0, time=3.0, still_delivered=())]),
    )
