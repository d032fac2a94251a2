"""Message vocabulary of wPAXOS.

wPAXOS multiplexes several logical services over the single broadcast
primitive (Algorithm 5 of the paper): every physical broadcast carries a
:class:`WMessage` composed of at most one part per service. Each part
type reports its ``id_footprint`` -- the number of node ids it contains
-- and the engine's strict mode verifies the composite stays O(1),
enforcing the paper's bounded-message assumption (Section 2).

Proposal numbers are ``(tag, id)`` pairs compared lexicographically,
exactly as in Section 4.2.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: A PAXOS proposal number: (tag, proposer id), compared lexicographically.
ProposalNumber = Tuple[int, int]

#: Response kinds an acceptor can produce.
PROMISE = "promise"
REJECT_PREPARE = "reject_prepare"
ACCEPTED = "accepted"
REJECT_PROPOSE = "reject_propose"

#: Affirmative response kinds (the ones Lemma 4.2's conservation covers).
AFFIRMATIVE_KINDS = (PROMISE, ACCEPTED)

#: Proposer message kinds.
PREPARE = "prepare"
PROPOSE = "propose"


@dataclass(frozen=True)
class LeaderPart:
    """Leader-election flood: the largest id seen (Algorithm 2)."""

    leader: int

    def id_footprint(self) -> int:
        return 1


@dataclass(frozen=True)
class ChangePart:
    """Change-service flood (Algorithm 3).

    ``stamp`` is ``(timestamp, origin id)``; the id breaks timestamp
    ties so change events are totally ordered.
    """

    stamp: Tuple[float, int]

    def id_footprint(self) -> int:
        return 1


@dataclass(frozen=True)
class SearchPart:
    """Tree-building Bellman-Ford step (Algorithm 4).

    ``root`` identifies the tree; ``hops`` is the advertised distance;
    ``sender`` is the broadcasting node, which receivers adopt as their
    ``parent[root]`` when ``hops`` improves on their current distance.
    """

    root: int
    hops: int
    sender: int

    def id_footprint(self) -> int:
        return 2


@dataclass(frozen=True)
class ProposerPart:
    """A flooded proposer message: prepare or propose.

    ``value`` is carried only by propose messages.
    """

    kind: str  # PREPARE or PROPOSE
    number: ProposalNumber
    value: Optional[int] = None

    def id_footprint(self) -> int:
        return 1

    def __post_init__(self) -> None:
        if self.kind not in (PREPARE, PROPOSE):
            raise ValueError(f"bad proposer message kind {self.kind!r}")
        if self.kind == PROPOSE and self.value is None:
            raise ValueError("propose messages must carry a value")


@dataclass(frozen=True)
class ResponsePart:
    """An (aggregated) acceptor response routed up the proposer's tree.

    The broadcast is overheard by all neighbors but processed only by
    ``dest`` -- the sender's current ``parent[proposer]`` -- emulating
    unicast over the broadcast primitive as described in Section 4.2.1.

    ``count`` aggregates that many identical responses (positive or
    negative) to the proposition ``(proposer, kind-family, number)``.
    ``prior`` is the highest-numbered previously-accepted proposal
    among the aggregated promises (``(number, value)`` or ``None``);
    ``committed`` is the highest proposal number any aggregated
    rejection is committed to.
    """

    dest: int
    proposer: int
    kind: str
    number: ProposalNumber
    count: int
    prior: Optional[Tuple[ProposalNumber, int]] = None
    committed: Optional[ProposalNumber] = None

    def id_footprint(self) -> int:
        footprint = 3  # dest, proposer, number id
        if self.prior is not None:
            footprint += 1
        if self.committed is not None:
            footprint += 1
        return footprint

    def __post_init__(self) -> None:
        if self.kind not in (PROMISE, REJECT_PREPARE, ACCEPTED,
                             REJECT_PROPOSE):
            raise ValueError(f"bad response kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("response count must be positive")


@dataclass(frozen=True)
class DecidePart:
    """Flooded decision announcement."""

    value: int

    def id_footprint(self) -> int:
        return 0


@dataclass(frozen=True)
class WMessage:
    """One physical broadcast: at most one part per service queue."""

    parts: Tuple[object, ...]

    def id_footprint(self) -> int:
        total = 0
        for part in self.parts:
            total += part.id_footprint()
        return total

    def __iter__(self):
        return iter(self.parts)


def proposition_key(proposer: int, kind: str,
                    number: ProposalNumber) -> tuple:
    """Canonical key for a *proposition* (Section 4.2.2).

    Responses to a prepare (promise / reject_prepare) share one
    proposition; responses to a propose (accepted / reject_propose)
    share another.
    """
    family = PREPARE if kind in (PROMISE, REJECT_PREPARE, PREPARE) \
        else PROPOSE
    return (proposer, family, number)
