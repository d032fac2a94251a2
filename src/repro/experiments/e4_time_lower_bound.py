"""E4 -- Theorem 3.10: consensus needs >= floor(D/2) * F_ack time.

Both directions of the bound:

* every *correct* algorithm we have, run on the worst-case split-input
  line under maximum delay, first decides no earlier than
  ``floor(D/2) * F_ack``;
* a strawman that decides earlier (:class:`EagerMinFlood` with
  ``rounds < floor(D/2)``) is driven into the partition argument's
  agreement violation.
"""

from __future__ import annotations

from ..core.baselines import GatherAllConsensus, PaxosFloodNode
from ..core.wpaxos import WPaxosConfig, WPaxosNode
from ..lowerbounds.partition import (eager_violation_demo,
                                     measure_decision_time)
from .common import ExperimentReport

DIAMETERS = (4, 8, 12, 16)


def run(*, diameters=DIAMETERS, f_ack: float = 2.0) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E4",
        title="The Omega(D * F_ack) time lower bound",
        paper_claim=("Theorem 3.10: no algorithm solves consensus in "
                     "less than floor(D/2) * F_ack time"),
        headers=["algorithm", "D", "bound", "first decision",
                 "respects bound", "correct"],
    )

    factories = {
        "wpaxos": lambda v, val, n: WPaxosNode(v + 1, val, n,
                                               WPaxosConfig()),
        "flood-paxos": lambda v, val, n: PaxosFloodNode(v + 1, val, n),
        "gatherall": lambda v, val, n: GatherAllConsensus(v + 1, val, n),
    }
    for name, factory in factories.items():
        for diameter in diameters:
            timing = measure_decision_time(factory, name, diameter,
                                           f_ack=f_ack)
            report.add_row(name, diameter, timing.bound,
                           timing.first_decision,
                           timing.respects_bound, timing.correct)
            if not (timing.respects_bound and timing.correct):
                report.conclude(
                    f"{name} at D={diameter} violated the bound or "
                    f"failed", ok=False)
    report.conclude(
        "every correct algorithm's first decision respects "
        "floor(D/2) * F_ack on the worst-case line")

    # The strawman that ignores the bound.
    for diameter in diameters:
        outcome = eager_violation_demo(diameter)
        report.add_row("eager-strawman", diameter, diameter // 2,
                       max(1, diameter // 2 - 1),
                       False, not outcome.agreement_violated)
        if not outcome.agreement_violated:
            report.conclude(
                f"strawman at D={diameter} failed to violate "
                f"agreement", ok=False)
    report.conclude(
        "deciding before the bound forces the partition argument's "
        "agreement violation (eager strawman, split inputs)")
    return report
