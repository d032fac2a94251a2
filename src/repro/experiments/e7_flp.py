"""E7 -- Theorem 3.2: no deterministic consensus with one crash.

Three executable artifacts:

1. **Bivalent initial configurations exist** (the FLP "Lemma 2"
   analog): exhaustive valency classification of every binary input
   vector for the registered ``two-phase`` processes on the 2-clique.
2. **The Lemma 3.1 dichotomy**: for the (non-crash-tolerant) Two-Phase
   algorithm the lemma's extension exists for some nodes and provably
   fails for others -- the exit FLP denies to any algorithm that *is*
   1-crash-tolerant.
3. **The crash execution**: both in the step model (exhaustive search
   finds a post-crash configuration from which an alive node can never
   decide) and as a concrete timed run (mid-broadcast crash deadlocks
   the witness wait on a 3-clique).
"""

from __future__ import annotations

from ..lowerbounds.flp import build_witness_deadlock_execution
from ..lowerbounds.steps import StepSystem
from ..lowerbounds.valency import (ValencyAnalyzer,
                                   bivalent_initial_configurations,
                                   find_crash_termination_violation,
                                   verify_lemma_31)
from ..macsim import check_consensus
from ..scenario import AlgorithmSpec
from ..topology import clique
from .common import ExperimentReport


def run() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E7",
        title="FLP in the abstract MAC layer model",
        paper_claim=("Theorem 3.2: no deterministic algorithm solves "
                     "consensus with a single crash failure"),
        headers=["artifact", "instance", "result"],
    )

    # 1. Exhaustive valency classification, n = 2, crash budget 1.
    graph = clique(2)
    system = StepSystem(graph, AlgorithmSpec("two-phase").build(graph),
                        crash_budget=1)
    analyzer = ValencyAnalyzer(system)
    bivalent = bivalent_initial_configurations(system, analyzer)
    bivalent_inputs = [values for values, _ in bivalent]
    report.add_row("bivalent initial configs", "two-phase, n=2",
                   f"{bivalent_inputs}")
    report.conclude(
        f"bivalent initial configurations exist: {bivalent_inputs} "
        f"(exhaustive over all 2^n input vectors)",
        ok=len(bivalent_inputs) == 2)

    # 2. The Lemma 3.1 dichotomy on the (0, 1) instance.
    exploration = analyzer.explore(
        system.initial_configuration((0, 1)))
    report.add_row("explored configurations", "two-phase, n=2",
                   exploration.config_count)
    lemma_outcomes = {}
    for node in range(2):
        witness = verify_lemma_31(exploration, exploration.initial,
                                  node)
        lemma_outcomes[node] = witness.found
        report.add_row(f"Lemma 3.1 extension, node {node}",
                       "two-phase, n=2",
                       "exists" if witness.found else "does not exist")
    report.conclude(
        f"Lemma 3.1 dichotomy: extension exists for node 0 "
        f"({lemma_outcomes[0]}) but not node 1 ({lemma_outcomes[1]}) "
        f"-- exactly what the theorem predicts for an algorithm that "
        f"is *not* crash-tolerant (the lemma holds only for "
        f"hypothetical 1-crash-tolerant algorithms)",
        ok=lemma_outcomes[0] and not lemma_outcomes[1])

    # 3a. Step-model crash deadlock (exhaustive).
    violation = find_crash_termination_violation(exploration)
    report.add_row("crash termination violation (step model)",
                   "two-phase, n=2",
                   f"node {violation.stuck_node} stuck after crash of "
                   f"{set(violation.config.crashed)}"
                   if violation else "none found")
    report.conclude(
        "exhaustive search finds a post-crash configuration from "
        "which an alive node can never decide",
        ok=violation is not None)

    # 3b. The concrete timed execution.
    sim = build_witness_deadlock_execution()
    result = sim.run(max_time=300.0)
    consensus = check_consensus(result.trace, {0: 0, 1: 1, 2: 1})
    crashed = result.trace.crashed_nodes()
    report.add_row("witness-deadlock execution (timed)",
                   "two-phase, 3-clique",
                   f"decisions={consensus.decisions}, "
                   f"undecided={consensus.undecided}, "
                   f"crashed={sorted(crashed)}")
    report.conclude(
        "one mid-broadcast crash deadlocks Two-Phase Consensus's "
        "witness wait: node 1 decides 0, node 2 never decides "
        "(termination violated; agreement preserved)",
        ok=(consensus.decisions.get(1) == 0
            and 2 in consensus.undecided
            and crashed == {0}
            and consensus.agreement))
    return report
