"""Baseline consensus algorithms the paper compares against."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "gatherall": "GatherAllConsensus PairMessage",
    "paxos_flood": "PaxosFloodNode FloodMessage FloodedResponse",
})
