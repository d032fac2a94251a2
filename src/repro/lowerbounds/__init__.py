"""Executable reproductions of the paper's lower bounds (Section 3)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "anonymity": "run_anonymity_demo AnonymityDemoResult",
    "flp": "build_witness_deadlock_execution",
    "indist": "FingerprintObserver LockstepReport compare_lockstep",
    "partition": "measure_decision_time eager_violation_demo "
                 "kd_violation_demo isolated_line_success EagerMinFlood "
                 "TimingResult ViolationResult KDDemoResult",
    "steps": "StepSystem Step Configuration",
    "valency": "ValencyAnalyzer ExplorationResult Lemma31Witness "
               "TerminationViolation verify_lemma_31 "
               "extend_bivalent_round_robin "
               "find_crash_termination_violation "
               "bivalent_initial_configurations",
})
