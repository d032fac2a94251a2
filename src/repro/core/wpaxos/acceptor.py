"""PAXOS acceptor state and the aggregating response queue.

:class:`AcceptorState` is the textbook single-decree acceptor ("Paxos
Made Simple", which the paper builds on): it promises to the highest
prepare it has seen and accepts proposals not older than its promise,
reporting its previously accepted proposal in promises and its current
commitment in rejections.

:class:`ResponseQueue` implements Section 4.2.1's response plumbing:
responses are unicast-over-broadcast to ``parent[proposer]`` and
*aggregated* -- multiple responses of the same type to the same
proposition merge into a single counted message, keeping only the
highest-numbered prior proposal (footnote 6) and the largest committed
number among rejections. The queue maintains the paper's invariant:
only responses to the current leader's largest-known proposition are
retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .messages import (ACCEPTED, PROMISE, PROPOSE, PREPARE,
                       REJECT_PREPARE, REJECT_PROPOSE, ProposalNumber,
                       ResponsePart, proposition_key)


@dataclass
class ResponseSeed:
    """A single acceptor response before queueing/aggregation."""

    proposer: int
    kind: str
    number: ProposalNumber
    prior: Optional[Tuple[ProposalNumber, int]] = None
    committed: Optional[ProposalNumber] = None

    @property
    def affirmative(self) -> bool:
        return self.kind in (PROMISE, ACCEPTED)


class AcceptorState:
    """Single-decree PAXOS acceptor."""

    def __init__(self, uid: int) -> None:
        self.uid = uid
        self.promised: Optional[ProposalNumber] = None
        self.accepted: Optional[Tuple[ProposalNumber, int]] = None

    def on_prepare(self, number: ProposalNumber,
                   proposer: int) -> ResponseSeed:
        """Handle a prepare; promise or reject with our commitment."""
        if self.promised is None or number > self.promised:
            self.promised = number
            return ResponseSeed(proposer=proposer, kind=PROMISE,
                                number=number, prior=self.accepted)
        return ResponseSeed(proposer=proposer, kind=REJECT_PREPARE,
                            number=number, committed=self.promised)

    def on_propose(self, number: ProposalNumber, value: int,
                   proposer: int) -> ResponseSeed:
        """Handle a propose; accept unless committed to a higher number."""
        if self.promised is None or number >= self.promised:
            self.promised = number
            self.accepted = (number, value)
            return ResponseSeed(proposer=proposer, kind=ACCEPTED,
                                number=number)
        return ResponseSeed(proposer=proposer, kind=REJECT_PROPOSE,
                            number=number, committed=self.promised)


@dataclass
class _Entry:
    """One (possibly aggregated) queued response."""

    proposer: int
    kind: str
    number: ProposalNumber
    count: int
    prior: Optional[Tuple[ProposalNumber, int]] = None
    committed: Optional[ProposalNumber] = None


class ResponseQueue:
    """Aggregating, invariant-maintaining acceptor response queue.

    Parameters
    ----------
    aggregation:
        When false (E8 ablation), responses are queued individually and
        only their transport (the routing tree) is shared -- message
        *counts* then scale with n instead of D.
    """

    def __init__(self, aggregation: bool = True) -> None:
        self.aggregation = aggregation
        #: The queued responses, oldest first. The broadcast pump tests
        #: it before it calls :meth:`pop_route`.
        self.entries: List[_Entry] = []

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    def add(self, proposer: int, kind: str, number: ProposalNumber,
            count: int,
            prior: Optional[Tuple[ProposalNumber, int]] = None,
            committed: Optional[ProposalNumber] = None) -> None:
        """Queue a response (merging with a same-proposition entry)."""
        if self.aggregation:
            for entry in self.entries:
                if (entry.proposer == proposer and entry.kind == kind
                        and entry.number == number):
                    entry.count += count
                    entry.prior = _max_prior(entry.prior, prior)
                    entry.committed = _max_number(entry.committed,
                                                  committed)
                    return
        self.entries.append(_Entry(proposer=proposer, kind=kind,
                                    number=number, count=count,
                                    prior=prior, committed=committed))

    def add_seed(self, seed: ResponseSeed) -> None:
        self.add(seed.proposer, seed.kind, seed.number, 1,
                 prior=seed.prior, committed=seed.committed)

    def add_part(self, part: ResponsePart) -> None:
        """Queue a forwarded response received from a tree child."""
        self.add(part.proposer, part.kind, part.number, part.count,
                 prior=part.prior, committed=part.committed)

    # ------------------------------------------------------------------
    def enforce_invariant(self, leader: int,
                          largest: Optional[ProposalNumber]) -> None:
        """Drop responses not for the leader's largest proposition.

        The paper's queue invariant (Section 4.2.1): the queue only
        holds responses to the current leader's propositions, and only
        for the largest proposal number seen so far from that leader.
        Dropping responses never threatens safety (Lemma 4.2 is an
        upper bound on counts); it prevents stale traffic from
        delaying fresh propositions.
        """
        for entry in self.entries:
            if entry.proposer != leader or (largest is not None
                                            and entry.number < largest):
                break
        else:
            return  # nothing stale -- the common case; keep the list
        self.entries = [
            e for e in self.entries
            if e.proposer == leader
            and (largest is None or e.number >= largest)
        ]

    # ------------------------------------------------------------------
    def pop_route(self, parent_of: Callable[[int], Optional[int]]
                  ) -> Optional[ResponsePart]:
        """Dequeue the first routable entry as a :class:`ResponsePart`.

        ``parent_of(proposer)`` resolves the next hop at *send* time
        (the tree may have changed since the response was queued);
        entries whose proposer has no known parent yet stay queued.
        """
        for i, entry in enumerate(self.entries):
            dest = parent_of(entry.proposer)
            if dest is None:
                continue
            del self.entries[i]
            return ResponsePart(dest=dest, proposer=entry.proposer,
                                kind=entry.kind, number=entry.number,
                                count=entry.count, prior=entry.prior,
                                committed=entry.committed)
        return None

    def total_count(self, proposer: int, kind: str,
                    number: ProposalNumber) -> int:
        """Aggregate count queued for one proposition/kind (testing)."""
        return sum(e.count for e in self.entries
                   if (e.proposer, e.kind, e.number)
                   == (proposer, kind, number))


def _max_prior(a: Optional[Tuple[ProposalNumber, int]],
               b: Optional[Tuple[ProposalNumber, int]]
               ) -> Optional[Tuple[ProposalNumber, int]]:
    """Keep the previously-accepted proposal with the larger number."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a[0] >= b[0] else b


def _max_number(a: Optional[ProposalNumber],
                b: Optional[ProposalNumber]) -> Optional[ProposalNumber]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)
