"""Executable reproductions of the paper's lower bounds (Section 3)."""

from .anonymity import AnonymityDemoResult, run_anonymity_demo
from .flp import build_witness_deadlock_execution
from .indist import FingerprintObserver, LockstepReport, compare_lockstep
from .partition import (EagerMinFlood, KDDemoResult, TimingResult,
                        ViolationResult, eager_violation_demo,
                        isolated_line_success, kd_violation_demo,
                        measure_decision_time)
from .steps import Configuration, Step, StepSystem
from .valency import (ExplorationResult, Lemma31Witness,
                      TerminationViolation, ValencyAnalyzer,
                      bivalent_initial_configurations,
                      extend_bivalent_round_robin,
                      find_crash_termination_violation, verify_lemma_31)

__all__ = [
    "run_anonymity_demo",
    "AnonymityDemoResult",
    "build_witness_deadlock_execution",
    "FingerprintObserver",
    "LockstepReport",
    "compare_lockstep",
    "measure_decision_time",
    "eager_violation_demo",
    "kd_violation_demo",
    "isolated_line_success",
    "EagerMinFlood",
    "TimingResult",
    "ViolationResult",
    "KDDemoResult",
    "StepSystem",
    "Step",
    "Configuration",
    "ValencyAnalyzer",
    "ExplorationResult",
    "Lemma31Witness",
    "TerminationViolation",
    "verify_lemma_31",
    "extend_bivalent_round_robin",
    "find_crash_termination_violation",
    "bivalent_initial_configurations",
]
