"""The topology-dynamics interface.

A :class:`TopologyDynamics` is the engine's third adversary, orthogonal
to the message scheduler (which controls *when* things happen) and the
fault model (which controls *which nodes misbehave*): it controls *what
the communication graph looks like* as the run progresses. The
simulator consults the model at **epoch boundaries**: whenever
simulated time is about to advance past the model's next epoch time,
the engine asks it for a :class:`TopologyDelta` and applies it --
rewriting the live graph, recomputing the cached neighbor tuples,
calling ``Scheduler.on_topology_change`` and emitting ``topo`` trace
records -- before any event at or after the epoch executes.

Semantics (the *graph-as-of-broadcast* rule):

* A broadcast started at time ``t`` uses the topology in force at
  ``t``: its delivery plan covers exactly the sender's neighbors as of
  ``t``, and those deliveries run to completion even if edges vanish
  while the broadcast is in flight. Topology changes therefore affect
  *future* broadcasts only, which is what
  :func:`~repro.macsim.invariants.check_model_invariants` audits from
  the ``topo`` records in the trace.
* Epochs are *pull-based*: they take effect only when the simulation
  is about to execute an event at or after the epoch time. A quiescent
  run is never kept alive by topology changes alone, and a model whose
  epochs produce no changes (zero churn) leaves the execution -- trace
  and all -- byte-identical to the equivalent static run.
* Node churn keeps the node *set* fixed: a departed node is isolated
  (all incident edges removed), not deleted. A node named in
  :attr:`TopologyDelta.arrived` has its process **reset** -- rebuilt
  fresh from the simulation's process factory, ``on_start`` and all --
  which is how rejoin-after-churn loses volatile protocol state.

Determinism: models hold their own seeded RNG and are consulted in a
fixed order, so a dynamic run is exactly as reproducible as a static
one -- replay of an exported churn trace is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..trace import (TOPO_EDGE_DOWN, TOPO_EDGE_UP, TOPO_NODE_DOWN,
                     TOPO_NODE_UP)
from ...topology.graphs import label_sort_key

__all__ = ["TopologyDelta", "TopologyDynamics", "edge_key",
           "TOPO_EDGE_DOWN", "TOPO_EDGE_UP", "TOPO_NODE_DOWN",
           "TOPO_NODE_UP"]


def edge_key(u: Any, v: Any) -> Tuple[Any, Any]:
    """The canonical (sorted) form of an undirected edge.

    Matches :meth:`repro.topology.graphs.Graph.edges` ordering, so
    edge sets built from either source compare equal.
    """
    if label_sort_key(u) <= label_sort_key(v):
        return (u, v)
    return (v, u)


@dataclass(frozen=True)
class TopologyDelta:
    """One epoch's worth of topology change.

    ``added``/``removed`` are edge tuples; ``departed``/``arrived``
    are node labels (``arrived`` nodes additionally have their process
    state reset). The engine canonicalizes edges, ignores no-op
    changes (removing an absent edge, adding a present one) and
    applies the pieces in a fixed order: departures, removals,
    additions, arrivals.
    """

    added: Tuple = ()
    removed: Tuple = ()
    departed: Tuple = ()
    arrived: Tuple = ()

    def __bool__(self) -> bool:
        return bool(self.added or self.removed
                    or self.departed or self.arrived)


class TopologyDynamics:
    """Base class for pluggable topology-dynamics models.

    The default implementation is the static model: no epochs, no
    changes. Subclasses override :meth:`next_epoch_time` and
    :meth:`advance`; see :class:`~repro.macsim.dynamics.EdgeChurn`,
    :class:`~repro.macsim.dynamics.NodeChurn`,
    :class:`~repro.macsim.dynamics.RandomWaypoint` and
    :class:`~repro.macsim.dynamics.ScriptedDynamics`.
    """

    #: Human-readable model family name (experiment tables).
    name = "static"

    def bind(self, sim) -> None:
        """Called once when a simulator adopts this model.

        Subclasses capture whatever initial-topology state they need
        (``sim.graph`` is the graph at time zero) and validate their
        parameters against it.
        """

    def next_epoch_time(self, after: float) -> Optional[float]:
        """The first epoch boundary strictly after ``after``.

        ``None`` means the topology never changes again. Returned
        times must be strictly increasing -- the engine raises on a
        non-advancing epoch stream.
        """
        return None

    def advance(self, time: float, graph) -> Optional[TopologyDelta]:
        """The change to apply at epoch ``time``.

        ``graph`` is the live graph just before the epoch. Returning
        ``None`` (or an empty delta) records nothing and leaves the
        run byte-identical to one without the epoch.
        """
        return None

    def describe(self) -> str:
        """One-line description for experiment reports."""
        return self.name


class PeriodicDynamics(TopologyDynamics):
    """Base for models whose epochs fire every ``epoch_length``.

    Centralizes the epoch grid -- validation and the float-tolerant
    boundary computation -- so every periodic model advances on
    exactly the same schedule.
    """

    def __init__(self, epoch_length: float = 1.0) -> None:
        from ..errors import ConfigurationError
        if epoch_length <= 0:
            raise ConfigurationError("epoch_length must be positive")
        self.epoch_length = float(epoch_length)

    def next_epoch_time(self, after: float) -> Optional[float]:
        k = int(after / self.epoch_length + 1e-9) + 1
        return k * self.epoch_length
