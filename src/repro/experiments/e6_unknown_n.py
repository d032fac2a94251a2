"""E6 -- Theorem 3.9 / Figure 2: knowledge of n is necessary.

For several diameters: the ``n``-ignorant (but id-using, D-knowing)
algorithm is correct on the isolated line ``L_D``, yet violates
agreement in ``K_D`` when the semi-synchronous scheduler silences the
contact endpoint -- the two executions its nodes cannot distinguish.
wPAXOS (which knows ``n``) is run on the same ``K_D`` networks as the
positive control.
"""

from __future__ import annotations

from ..analysis import run_consensus
from ..core.wpaxos import WPaxosConfig, WPaxosNode
from ..lowerbounds.partition import (isolated_line_success,
                                     kd_violation_demo)
from ..topology import kd_network
from .common import ExperimentReport

DIAMETERS = (3, 5, 7)


def run(*, diameters=DIAMETERS) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E6",
        title="Knowledge-of-n lower bound on K_D",
        paper_claim=("Theorem 3.9: without knowledge of n, consensus "
                     "is impossible in multihop networks even with "
                     "ids and knowledge of D"),
        headers=["D", "network", "algorithm", "line1 / line2 decide",
                 "outcome"],
    )
    for diameter in diameters:
        ok_line = isolated_line_success(diameter)
        report.add_row(diameter, f"L_{diameter} (isolated)",
                       "no-n stability", "-",
                       "correct" if ok_line else "FAILED")
        if not ok_line:
            report.conclude(f"isolated line D={diameter} failed",
                            ok=False)

        demo = kd_violation_demo(diameter)
        report.add_row(
            diameter, f"K_{diameter} (contact silenced)",
            "no-n stability",
            f"{sorted(demo.line1_decisions)} / "
            f"{sorted(demo.line2_decisions)}",
            "agreement VIOLATED" if demo.agreement_violated
            else "no violation (FAILED)")
        if not demo.agreement_violated:
            report.conclude(f"K_D D={diameter} did not violate",
                            ok=False)

        # Positive control: wPAXOS (knows n) is fine on K_D.
        net = kd_network(diameter)
        graph = net.graph
        uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
        from ..macsim.schedulers import SynchronousScheduler
        metrics = run_consensus(
            algorithm="wpaxos", topology=f"K_{diameter}", graph=graph,
            scheduler=SynchronousScheduler(1.0),
            factory=lambda v, val: WPaxosNode(uid[v], val, graph.n,
                                              WPaxosConfig()))
        report.add_row(diameter, f"K_{diameter}", "wpaxos (knows n)",
                       "-", "correct" if metrics.correct else "FAILED")
        if not metrics.correct:
            report.conclude(f"wPAXOS control on K_{diameter} failed",
                            ok=False)
    report.conclude(
        "the n-ignorant algorithm decides correctly on L_D but splits "
        "0/1 in K_D under the semi-synchronous scheduler -- the "
        "indistinguishability of Theorem 3.9, realized")
    report.conclude(
        "wPAXOS, which uses n for majorities, is correct on every "
        "K_D tested (knowledge of n is what breaks the symmetry)")
    return report
