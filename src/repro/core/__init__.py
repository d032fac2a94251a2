"""Consensus algorithms: the paper's contributions and baselines.

* :mod:`repro.core.twophase` -- Algorithm 1 (single hop, Theorem 4.1).
* :mod:`repro.core.wpaxos` -- wPAXOS (multihop, Theorem 4.6).
* :mod:`repro.core.baselines` -- GatherAll and flooding-PAXOS, the
  ``O(n * F_ack)`` comparison points of Section 4.2.
* :mod:`repro.core.heuristics` -- stability heuristics used to exhibit
  the Section 3 impossibility results.
* :mod:`repro.core.byzantine` -- Byzantine-tolerant grading +
  amplification consensus (the Tseng-Sardina direction), paired with
  the :mod:`repro.macsim.faults` adversary subsystem.

Importing the package loads none of them: each name is resolved on
first use (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": "ConsensusProcess VALUES",
    "byzantine": "ByzantineConsensus max_tolerance",
    "twophase": "TwoPhaseConsensus Phase1Message Phase2Message",
    "wpaxos.node": "WPaxosNode",
    "wpaxos.config": "WPaxosConfig SafetyMonitor",
    "baselines.gatherall": "GatherAllConsensus",
    "baselines.paxos_flood": "PaxosFloodNode",
    "heuristics.stability": "AnonymousMinFlood NoSizeMinIdFlood",
    "randomized": "BenOrConsensus",
})
