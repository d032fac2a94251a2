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
"""

from .errors import (ConfigurationError, MacSimError, ModelViolationError,
                     ProcessError, SimulationLimitError)
from .faults import (DROP, ByzantineFaultModel, ByzantinePlan,
                     ByzantineStrategy, CorruptStrategy, CrashFaultModel,
                     CrashPlan, EquivocateStrategy, FaultModel,
                     OmissionFaultModel, OmissionPlan, SilentStrategy)
from .dynamics import (EdgeChurn, NodeChurn, RandomWaypoint,
                       ScriptedDynamics, TopologyDelta, TopologyDynamics,
                       connectivity_report)
from .invariants import (ConsensusReport, InvariantAuditor, InvariantReport,
                         check_consensus, check_model_invariants)
from .process import Process
from .simulator import RunResult, Simulator, build_simulation
from .telemetry import Telemetry
from .columnar import ColumnarSink
from .trace import (SpillBudgetError, Trace, TraceLevel, TraceRecord,
                    TraceSink, make_sink)
from . import dynamics, faults, schedulers

__all__ = [
    "CrashPlan",
    "DROP",
    "FaultModel",
    "CrashFaultModel",
    "OmissionFaultModel",
    "OmissionPlan",
    "ByzantineFaultModel",
    "ByzantinePlan",
    "ByzantineStrategy",
    "SilentStrategy",
    "CorruptStrategy",
    "EquivocateStrategy",
    "faults",
    "MacSimError",
    "ConfigurationError",
    "ModelViolationError",
    "ProcessError",
    "SimulationLimitError",
    "Process",
    "Simulator",
    "RunResult",
    "build_simulation",
    "Telemetry",
    "Trace",
    "TraceLevel",
    "TraceRecord",
    "TraceSink",
    "ColumnarSink",
    "SpillBudgetError",
    "make_sink",
    "InvariantReport",
    "ConsensusReport",
    "check_model_invariants",
    "InvariantAuditor",
    "check_consensus",
    "schedulers",
    "dynamics",
    "TopologyDynamics",
    "TopologyDelta",
    "EdgeChurn",
    "NodeChurn",
    "RandomWaypoint",
    "ScriptedDynamics",
    "connectivity_report",
]
