"""Abstract MAC layer simulation substrate.

This package implements the execution model of *Consensus with an
Abstract MAC Layer* (Newport, PODC 2014), Section 2: acknowledged local
broadcast over a fixed connected graph, all timing controlled by an
(possibly adversarial) message scheduler with an unknown completion
bound ``F_ack``, zero-time local computation, and crash failures that
may interrupt a broadcast midway.

Entry points:

* :class:`~repro.macsim.simulator.Simulator` /
  :func:`~repro.macsim.simulator.build_simulation` -- run algorithms.
* :mod:`repro.macsim.schedulers` -- the scheduler suite, including the
  adversaries used by the paper's lower bounds.
* :mod:`repro.macsim.invariants` -- post-hoc model/consensus checking.

Every name is resolved on first use (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "errors": "MacSimError ConfigurationError ModelViolationError "
              "ProcessError",
    "faults.base": "DROP FaultModel",
    "faults.crash": "CrashFaultModel CrashPlan",
    "faults.omission": "OmissionFaultModel OmissionPlan",
    "faults.byzantine": "ByzantineFaultModel ByzantinePlan ByzantineStrategy "
                        "SilentStrategy CorruptStrategy EquivocateStrategy",
    "process": "Process",
    "simulator": "Simulator RunResult build_simulation",
    "telemetry": "Telemetry",
    "trace": "Trace TraceLevel TraceRecord TraceSink make_sink",
    "columnar": "ColumnarSink SpillBudgetError",
    "invariants": "InvariantReport ConsensusReport check_model_invariants "
                  "InvariantAuditor check_consensus",
    "dynamics.base": "TopologyDynamics TopologyDelta",
    "dynamics.churn": "EdgeChurn NodeChurn",
    "dynamics.mobility": "RandomWaypoint",
    "dynamics.scripted": "ScriptedDynamics",
    "dynamics.connectivity": "connectivity_report",
    "": "dynamics faults schedulers",
})
