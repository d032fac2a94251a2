"""Theorem 3.2 reproduction: the timed crash execution.

:func:`build_witness_deadlock_execution` is the concrete timed
execution in which a mid-broadcast crash deadlocks Two-Phase
Consensus's witness wait: ``u`` (status ``decided(0)``) crashes after
its phase-2 message reaches ``v`` but not ``w``; ``w`` holds ``u`` in
its witness set and blocks forever. One crash, termination violated --
exactly the failure mode Theorem 3.2 proves is unavoidable for *every*
deterministic algorithm. The exhaustive step-model side of the theorem
runs the shipped :class:`~repro.core.twophase.TwoPhaseConsensus`
through :class:`~repro.lowerbounds.steps.StepSystem`.
"""

from __future__ import annotations

from ..core.twophase import TwoPhaseConsensus
from ..macsim import (CrashFaultModel, CrashPlan, Simulator,
                      build_simulation)
from ..macsim.schedulers import ScriptedScheduler, ScriptedStep
from ..topology import clique


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
