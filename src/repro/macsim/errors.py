"""Exception hierarchy for the abstract MAC layer simulator.

Every failure mode of the simulator is reported through a subclass of
:class:`MacSimError` so callers can distinguish configuration mistakes
from genuine model violations detected at run time.
"""

from __future__ import annotations


class MacSimError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(MacSimError):
    """The simulation was assembled inconsistently.

    Examples: a process bound to a node that is not in the graph, a
    scheduler with a non-positive ``f_ack``, or a crash plan referring to
    an unknown node.
    """


class ModelViolationError(MacSimError):
    """The abstract MAC layer contract was violated.

    Raised when a scheduler produces a plan that breaks the model --
    e.g. an ack scheduled before all deliveries, an ack later than
    ``F_ack`` after the broadcast, or a delivery to a non-neighbor.
    The engine validates every plan, so schedulers cannot silently
    deviate from the model of Section 2 of the paper.
    """


class ProcessError(MacSimError):
    """An algorithm implementation misused the process API.

    Examples: deciding twice, or broadcasting from a crashed process.
    """
