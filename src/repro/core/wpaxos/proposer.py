"""PAXOS proposer logic adapted to the wPAXOS services.

The proposer follows Section 4.2.1's description:

* A fresh proposal is generated when the change service calls
  ``generate_new_proposal`` (and only while this node believes itself
  the leader). Its tag is one larger than any tag seen or used.
* When a *majority* of (aggregated) promise counts arrive, the proposer
  issues a propose message carrying either the value of the
  highest-numbered prior proposal learned from the promises or its own
  initial value. A proposer started without a value (a replicated
  log's slot, prepared before its command exists) *parks* there when
  the promises hold no prior either, and proposes the moment
  :meth:`Proposer.offer` gives it one; Paxos allows any delay between
  the promise majority and the propose.
* When a majority of accepted counts arrive, the proposer decides.
* On a majority of rejections the proposer may retry with a larger tag:
  under the paper policy at most ``attempts_per_change`` numbers per
  change notification; under the "learned" policy whenever the
  rejection revealed a strictly larger committed number (see
  ``config.py`` for why both exist).

The proposer never parses individual acceptor identities -- only
counts -- which is exactly what makes the tree aggregation scheme
(and its Lemma 4.2 conservation invariant) sufficient.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .config import RETRY_LEARNED, RETRY_PAPER, WPaxosConfig
from .messages import (ACCEPTED, PREPARE, PROMISE, PROPOSE,
                       REJECT_PREPARE, REJECT_PROPOSE, ProposalNumber,
                       ProposerPart, ResponsePart, proposition_key)


class Proposer:
    """The proposer role of one wPAXOS node.

    Collaborators are injected as callables so the proposer is unit
    testable without a simulator:

    * ``is_leader()`` -- whether this node currently believes it leads;
    * ``flood(part)`` -- hand a proposer message to the flooding layer;
    * ``on_chosen(value)`` -- called when a proposal is chosen (majority
      accepted); the node decides and floods the decision.
    """

    def __init__(self, uid: int, initial_value: Optional[int], n: int,
                 config: WPaxosConfig, *,
                 is_leader: Callable[[], bool],
                 flood: Callable[[ProposerPart], None],
                 on_chosen: Callable[[int], None]) -> None:
        self.uid = uid
        self.initial_value = initial_value
        self.majority = n // 2 + 1
        self.config = config
        self._is_leader = is_leader
        self._flood = flood
        self._on_chosen = on_chosen

        self.max_tag_seen = 0
        self.active_number: Optional[ProposalNumber] = None
        self.stage: Optional[str] = None  # PREPARE or PROPOSE
        self.proposal_value: Optional[int] = None
        self.chosen = False

        self._promise_count = 0
        self._accept_count = 0
        self._reject_count = 0
        self._best_prior: Optional[Tuple[ProposalNumber, int]] = None
        self._attempts_left = 0
        self._learned_higher = False
        #: Number of proposal numbers this proposer used (Lemma 4.4 data).
        self.proposals_generated = 0

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def observe_number(self, number: Optional[ProposalNumber]) -> None:
        """Track the largest tag seen anywhere (floods, responses)."""
        if number is not None and number[0] > self.max_tag_seen:
            self.max_tag_seen = number[0]

    # ------------------------------------------------------------------
    # Proposal generation
    # ------------------------------------------------------------------
    def generate_new_proposal(self) -> None:
        """Change-service notification: start over with a fresh number."""
        if self.chosen or not self._is_leader():
            return
        self._attempts_left = self.config.attempts_per_change
        self._start_attempt()

    def _start_attempt(self) -> None:
        if self.chosen or not self._is_leader():
            self.stage = None
            return
        self._attempts_left -= 1
        tag = self.max_tag_seen + 1
        self.max_tag_seen = tag
        self.active_number = (tag, self.uid)
        self.stage = PREPARE
        self.proposal_value = None
        self._promise_count = 0
        self._accept_count = 0
        self._reject_count = 0
        self._best_prior = None
        self._learned_higher = False
        self.proposals_generated += 1
        self._flood(ProposerPart(kind=PREPARE, number=self.active_number))

    def abdicate(self) -> None:
        """Another node took leadership; stop proposing."""
        self.stage = None
        self.active_number = None

    # ------------------------------------------------------------------
    # Response handling
    # ------------------------------------------------------------------
    def on_response(self, part: ResponsePart) -> int:
        """Process an aggregated response addressed to this proposer.

        Returns the number of *affirmative* responses newly tallied for
        the active proposition (for the Lemma 4.2 monitor).
        """
        self.observe_number(part.number)
        self.observe_number(part.committed)
        if part.prior is not None:
            self.observe_number(part.prior[0])

        if self.chosen or part.number != self.active_number:
            return 0
        if self.stage == PREPARE and part.kind == PROMISE:
            self._promise_count += part.count
            self._best_prior = _max_prior(self._best_prior, part.prior)
            if self._promise_count >= self.majority:
                self._begin_propose()
            return part.count
        if self.stage == PREPARE and part.kind == REJECT_PREPARE:
            self._note_rejection(part)
            return 0
        if self.stage == PROPOSE and part.kind == ACCEPTED:
            self._accept_count += part.count
            if self._accept_count >= self.majority:
                self.chosen = True
                self.stage = None
                self._on_chosen(self.proposal_value)
            return part.count
        if self.stage == PROPOSE and part.kind == REJECT_PROPOSE:
            self._note_rejection(part)
            return 0
        return 0

    def offer(self, value: int) -> None:
        """Give the proposer its value after an attempt started.

        A parked attempt (a promise majority, no prior) proposes
        ``value`` at once; an attempt still preparing proposes it at
        its promise majority; a proposal already in flight keeps its
        value.
        """
        self.initial_value = value
        if self.stage == PREPARE and self._promise_count >= self.majority:
            self._begin_propose()

    def _begin_propose(self) -> None:
        if self._best_prior is not None:
            value = self._best_prior[1]
        elif self.initial_value is not None:
            value = self.initial_value
        else:
            return  # parked in PREPARE until offer() brings a value
        self.stage = PROPOSE
        self._reject_count = 0
        self.proposal_value = value
        self._flood(ProposerPart(kind=PROPOSE, number=self.active_number,
                                 value=value))

    def _note_rejection(self, part: ResponsePart) -> None:
        self._reject_count += part.count
        if (part.committed is not None
                and part.committed > self.active_number):
            self._learned_higher = True
        if self._reject_count >= self.majority:
            self._maybe_retry()

    def _maybe_retry(self) -> None:
        """A majority rejected; retry per the configured policy."""
        if not self._learned_higher or not self._is_leader():
            self.stage = None
            return
        if self.config.retry_policy == RETRY_PAPER:
            if self._attempts_left > 0:
                self._start_attempt()
            else:
                self.stage = None  # wait for the change service
        elif self.config.retry_policy == RETRY_LEARNED:
            self._start_attempt()

    # ------------------------------------------------------------------
    def active_proposition(self) -> Optional[tuple]:
        """Key of the proposition currently awaiting responses."""
        if self.stage is None or self.active_number is None:
            return None
        return proposition_key(self.uid, self.stage, self.active_number)


def _max_prior(a: Optional[Tuple[ProposalNumber, int]],
               b: Optional[Tuple[ProposalNumber, int]]
               ) -> Optional[Tuple[ProposalNumber, int]]:
    if a is None:
        return b
    if b is None:
        return a
    return a if a[0] >= b[0] else b
