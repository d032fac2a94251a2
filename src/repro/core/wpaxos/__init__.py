"""wPAXOS: wireless PAXOS for multihop abstract MAC layer networks.

The paper's Section 4.2 algorithm: PAXOS logic connected to four
model-specific support services (leader election, change, tree
building, broadcast multiplexing), achieving consensus in
``O(D * F_ack)`` time with unique ids and knowledge of ``n``
(Theorem 4.6).
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "node": "WPaxosNode",
    "config": "WPaxosConfig SafetyMonitor RETRY_PAPER RETRY_LEARNED",
    "proposer": "Proposer",
    "acceptor": "AcceptorState ResponseQueue ResponseSeed",
    "services": "LeaderElectionService ChangeService TreeService",
    "messages": "WMessage LeaderPart ChangePart SearchPart ProposerPart "
                "ResponsePart DecidePart ProposalNumber proposition_key "
                "PREPARE PROPOSE PROMISE ACCEPTED REJECT_PREPARE "
                "REJECT_PROPOSE",
})
