"""Flooding PAXOS: the ``O(n * F_ack)`` baseline of Section 4.2.

The paper motivates wPAXOS's tree aggregation by observing that PAXOS
logic combined with *basic flooding* costs ``O(n * F_ack)``: acceptor
responses carry acceptor identities, messages hold O(1) ids, so a
bottleneck node must forward ``Theta(n)`` individual responses.

This module implements exactly that combination: max-id leader
election (flooded), prepare/propose messages (flooded), and acceptor
responses flooded network-wide one per message, with the proposer
counting *distinct acceptor ids*. No trees, no aggregation, no change
service -- proposal generation is triggered by leadership beliefs only,
which suffices here because all initial proposals share tag 1 and the
maximum id wins every comparison (see the liveness note below).

Liveness note: every node initially believes itself leader and proposes
``(1, id)``; acceptors promise the lexicographically largest number
they have seen, so the true maximum id's proposal ``(1, max_id)``
dominates every competing ``(1, id)`` and is never rejected. The
eventual leader therefore decides without ever needing a retry, and
rejection handling (retry with a larger tag while still leader) exists
only as a safety net.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..base import ConsensusProcess
from ..wpaxos.acceptor import AcceptorState
from ..wpaxos.messages import (DecidePart, LeaderPart, PREPARE, PROPOSE,
                               ProposalNumber, ProposerPart)


@dataclass(frozen=True)
class FloodedResponse:
    """An individual acceptor response, flooded with its identity."""

    acceptor: int
    proposer: int
    kind: str  # "promise" | "reject_prepare" | "accepted" | "reject_propose"
    number: ProposalNumber
    prior: Optional[Tuple[ProposalNumber, int]] = None
    committed: Optional[ProposalNumber] = None

    def id_footprint(self) -> int:
        footprint = 3
        if self.prior is not None:
            footprint += 1
        if self.committed is not None:
            footprint += 1
        return footprint


@dataclass(frozen=True)
class FloodMessage:
    """One physical broadcast of the flooding baseline."""

    parts: Tuple[object, ...]

    def id_footprint(self) -> int:
        return sum(part.id_footprint() for part in self.parts)


class PaxosFloodNode(ConsensusProcess):
    """PAXOS over naive flooding (the E3 baseline)."""

    def __init__(self, uid: int, initial_value: int, n: int) -> None:
        super().__init__(uid=uid, initial_value=initial_value)
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.majority = n // 2 + 1

        self.leader = uid
        self.leader_queue: List[LeaderPart] = [LeaderPart(leader=uid)]
        self.acceptor = AcceptorState(uid)
        self.proposer_queue: List[ProposerPart] = []
        self.response_queue: List[FloodedResponse] = []
        self.decide_queue: List[DecidePart] = []
        self._seen_proposer: Set[tuple] = set()
        self._seen_responses: Set[tuple] = set()
        self._decide_flooded = False

        # Proposer bookkeeping (counts distinct acceptor ids).
        self.max_tag_seen = 0
        self.active_number: Optional[ProposalNumber] = None
        self.stage: Optional[str] = None
        self.proposal_value: Optional[int] = None
        self.promisers: Set[int] = set()
        self.rejecters: Set[int] = set()
        self.accepters: Set[int] = set()
        self.best_prior: Optional[Tuple[ProposalNumber, int]] = None
        self.proposals_generated = 0

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._generate_proposal()
        self._pump()

    def on_receive(self, message: Any) -> None:
        if (message.__class__ is not FloodMessage
                and not isinstance(message, FloodMessage)):
            return
        # Exact-class dispatch, responses first: a bottleneck node
        # forwards Theta(n) of them for every other part it sees. A
        # part of any other class is ignored.
        for part in message.parts:
            cls = part.__class__
            if cls is FloodedResponse:
                self._handle_response(part)
            elif cls is LeaderPart:
                if part.leader > self.leader:
                    self._handle_leader(part)
            elif cls is ProposerPart:
                self._handle_proposer_part(part)
            elif cls is DecidePart:
                self._handle_decide(part)
        if not self._mac_pending:
            self._pump()

    def on_ack(self) -> None:
        self._pump()

    # ------------------------------------------------------------------
    # Leader election (flooded max id)
    # ------------------------------------------------------------------
    def _handle_leader(self, part: LeaderPart) -> None:
        if part.leader > self.leader:
            self.leader = part.leader
            self.leader_queue = [part]
            if self.stage is not None:
                self.stage = None  # abdicate
            self.proposer_queue = [p for p in self.proposer_queue
                                   if p.number[1] == self.leader]
            self.response_queue = [r for r in self.response_queue
                                   if r.proposer == self.leader]

    # ------------------------------------------------------------------
    # Proposer-message flooding
    # ------------------------------------------------------------------
    def _handle_proposer_part(self, part: ProposerPart) -> None:
        key = (part.kind, part.number)
        if key in self._seen_proposer:
            return
        self._seen_proposer.add(key)
        self._observe(part.number)
        proposer_id = part.number[1]
        if proposer_id == self.leader:
            self.proposer_queue.append(part)
        if part.kind == PREPARE:
            seed = self.acceptor.on_prepare(part.number, proposer_id)
        else:
            seed = self.acceptor.on_propose(part.number, part.value,
                                            proposer_id)
        response = FloodedResponse(
            acceptor=self.uid, proposer=proposer_id, kind=seed.kind,
            number=seed.number, prior=seed.prior, committed=seed.committed)
        self._handle_response(response)

    # ------------------------------------------------------------------
    # Response flooding and counting
    # ------------------------------------------------------------------
    def _handle_response(self, part: FloodedResponse) -> None:
        key = (part.acceptor, part.kind, part.number)
        if key in self._seen_responses:
            return
        self._seen_responses.add(key)
        self._observe(part.number)
        self._observe(part.committed)
        if part.prior is not None:
            self._observe(part.prior[0])
        if part.proposer == self.uid:
            self._tally(part)
        elif part.proposer == self.leader:
            self.response_queue.append(part)

    def _tally(self, part: FloodedResponse) -> None:
        if self.decided or part.number != self.active_number:
            return
        if self.stage == PREPARE and part.kind == "promise":
            self.promisers.add(part.acceptor)
            if part.prior is not None and (
                    self.best_prior is None
                    or part.prior[0] > self.best_prior[0]):
                self.best_prior = part.prior
            if len(self.promisers) >= self.majority:
                self._begin_propose()
        elif self.stage == PREPARE and part.kind == "reject_prepare":
            self.rejecters.add(part.acceptor)
            if len(self.rejecters) >= self.majority:
                self._retry()
        elif self.stage == PROPOSE and part.kind == "accepted":
            self.accepters.add(part.acceptor)
            if len(self.accepters) >= self.majority:
                self.stage = None
                self.decide(self.proposal_value)
                self._flood_decision(self.proposal_value)
        elif self.stage == PROPOSE and part.kind == "reject_propose":
            self.rejecters.add(part.acceptor)
            if len(self.rejecters) >= self.majority:
                self._retry()

    # ------------------------------------------------------------------
    # Proposer control
    # ------------------------------------------------------------------
    def _generate_proposal(self) -> None:
        if self.decided or self.leader != self.uid:
            return
        tag = self.max_tag_seen + 1
        self.max_tag_seen = tag
        self.active_number = (tag, self.uid)
        self.stage = PREPARE
        self.proposal_value = None
        self.promisers = set()
        self.rejecters = set()
        self.accepters = set()
        self.best_prior = None
        self.proposals_generated += 1
        self._handle_proposer_part(
            ProposerPart(kind=PREPARE, number=self.active_number))

    def _begin_propose(self) -> None:
        self.stage = PROPOSE
        self.rejecters = set()
        if self.best_prior is not None:
            self.proposal_value = self.best_prior[1]
        else:
            self.proposal_value = self.initial_value
        self._handle_proposer_part(
            ProposerPart(kind=PROPOSE, number=self.active_number,
                         value=self.proposal_value))

    def _retry(self) -> None:
        if self.leader == self.uid and not self.decided:
            self._generate_proposal()
        else:
            self.stage = None

    def _observe(self, number: Optional[ProposalNumber]) -> None:
        if number is not None and number[0] > self.max_tag_seen:
            self.max_tag_seen = number[0]

    # ------------------------------------------------------------------
    # Decision flooding
    # ------------------------------------------------------------------
    def _handle_decide(self, part: DecidePart) -> None:
        if not self.decided:
            self.decide(part.value)
        self._flood_decision(part.value)

    def _flood_decision(self, value: int) -> None:
        if not self._decide_flooded:
            self._decide_flooded = True
            self.decide_queue.append(DecidePart(value=value))

    # ------------------------------------------------------------------
    # Broadcast multiplexer (one part per queue, like Algorithm 5)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        # _mac_pending is the engine-maintained mirror behind the
        # ack_pending property; read it directly in this hot path.
        if self.crashed or self._mac_pending:
            return
        parts: List[object] = []
        if self.decide_queue:
            parts.append(self.decide_queue.pop(0))
        if not self.decided:
            if self.leader_queue:
                parts.append(self.leader_queue.pop(0))
            if self.proposer_queue:
                parts.append(self.proposer_queue.pop(0))
            if self.response_queue:
                parts.append(self.response_queue.pop(0))
        if parts:
            self.broadcast(FloodMessage(parts=tuple(parts)))

    def state_fingerprint(self) -> Tuple:
        return (self.leader, self.stage, self.decided, self.decision)
