"""Heuristic algorithms used to exhibit the paper's impossibilities."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "stability": "AnonymousMinFlood NoSizeMinIdFlood ValueSetMessage "
                 "KnownSetMessage",
})
