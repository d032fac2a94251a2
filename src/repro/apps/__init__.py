"""Applications built on the consensus library.

The paper motivates consensus as the building block for reliable
distributed systems; this package provides the canonical one -- a
replicated command log (multi-decree wPAXOS).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "replicated_log": "ReplicatedLogNode LogMessage SlotMessage SlotDecide",
})
