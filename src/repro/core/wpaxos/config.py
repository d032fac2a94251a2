"""wPAXOS configuration and the Lemma 4.2 safety monitor.

:class:`WPaxosConfig` gathers the design choices the paper's Section
4.2 analysis calls out, so the E8 ablation experiments can toggle them:

* ``tree_priority`` -- Algorithm 4's optimization of moving the current
  leader's search messages to the front of the tree queue (what makes
  the leader's tree stabilize in ``O(D * F_ack)`` after election).
* ``aggregation`` -- combining same-type responses in acceptor queues
  (what reduces response collection from ``Theta(n)`` messages through
  a bottleneck to ``Theta(D)`` tree hops).
* ``retry_policy`` -- how many proposal numbers a proposer tries per
  change-service notification. ``"paper"`` is the literal "up to 2";
  ``"learned"`` retries as long as each rejection reveals a strictly
  larger committed proposal number (the reading that makes the Lemma
  4.5 liveness argument airtight when several stale high promises
  hide in different majorities; E8,
  :mod:`repro.experiments.e8_ablations`, compares the two).

:class:`SafetyMonitor` implements Lemma 4.2's conservation check as a
runtime invariant: for every proposition ``p``, the count of
affirmative responses the proposer tallies (``c(p)``) never exceeds the
number of affirmative responses acceptors generated (``a(p)``) --
aggregation in dynamic trees must never duplicate a response.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ...macsim.errors import ModelViolationError

#: Valid retry policies.
RETRY_PAPER = "paper"
RETRY_LEARNED = "learned"


class SafetyMonitor:
    """Cross-node bookkeeping asserting Lemma 4.2's ``c(p) <= a(p)``.

    The monitor is test/experiment infrastructure, not algorithm state:
    nodes report generation and counting events, and the monitor raises
    immediately if a proposer ever counts more affirmative responses
    than were generated for that proposition.
    """

    def __init__(self) -> None:
        self.generated: Dict[tuple, int] = {}
        self.counted: Dict[tuple, int] = {}

    def note_generated(self, proposition: tuple, count: int = 1) -> None:
        """An acceptor generated ``count`` affirmative responses."""
        self.generated[proposition] = (
            self.generated.get(proposition, 0) + count)

    def note_counted(self, proposition: tuple, count: int) -> None:
        """The proposer tallied ``count`` affirmative responses."""
        total = self.counted.get(proposition, 0) + count
        self.counted[proposition] = total
        available = self.generated.get(proposition, 0)
        if total > available:
            raise ModelViolationError(
                f"Lemma 4.2 violated for proposition {proposition!r}: "
                f"counted {total} > generated {available}")

    def conservation_holds(self) -> bool:
        """Whether ``c(p) <= a(p)`` held for every proposition."""
        return all(self.counted.get(p, 0) <= g
                   for p, g in self.generated.items())

    def max_slack(self) -> int:
        """Largest ``a(p) - c(p)`` observed (responses lost in transit)."""
        return max((g - self.counted.get(p, 0)
                    for p, g in self.generated.items()), default=0)


@dataclass
class WPaxosConfig:
    """Tunable design choices of the wPAXOS implementation."""

    tree_priority: bool = True
    aggregation: bool = True
    retry_policy: str = RETRY_PAPER
    #: Attempts per change notification under the "paper" policy.
    attempts_per_change: int = 2
    #: Optional Lemma 4.2 monitor shared by all nodes of a run.
    monitor: Optional[SafetyMonitor] = None

    def __post_init__(self) -> None:
        if self.retry_policy not in (RETRY_PAPER, RETRY_LEARNED):
            raise ValueError(
                f"unknown retry policy {self.retry_policy!r}")
        if self.attempts_per_change < 1:
            raise ValueError("attempts_per_change must be >= 1")
