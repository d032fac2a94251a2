"""Dynamic topologies: time-varying graphs, churn and mobility.

The abstract MAC layer was designed for wireless *mobile* ad hoc
networks, yet a plain simulation freezes its graph at time zero. This
package makes the communication graph a first-class time-varying
object: a pluggable :class:`~repro.macsim.dynamics.base.TopologyDynamics`
model (hooked into the engine at event boundaries, like a
:class:`~repro.macsim.faults.base.FaultModel`) rewrites the live graph
at epoch boundaries during a run. Four models ship:

* :class:`EdgeChurn` -- seeded per-epoch link add/remove with a
  protected floor (spanning tree by default) so a guaranteed core
  survives, mirroring the dual-graph unreliable-link variant;
* :class:`NodeChurn` -- node leave/join with process-state reset on
  rejoin;
* :class:`RandomWaypoint` -- unit-square waypoint mobility with a
  geometric link radius, recomputing edges each epoch;
* :class:`ScriptedDynamics` -- an explicit JSON-friendly timeline for
  hand-built executions and scenario files.

Every change lands in the trace as ``topo`` records (essential on all
sinks, JSON-lossless), which is how
:func:`~repro.macsim.invariants.check_model_invariants` audits
deliveries against the graph *as of each broadcast* and how
:func:`connectivity_report` measures a run's T-interval connectivity.
Scenario integration (``DynamicsSpec`` / ``@register_dynamics`` /
``--dynamics``) lives in :mod:`repro.scenario`.
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": "TopologyDynamics PeriodicDynamics TopologyDelta edge_key "
            "TOPO_EDGE_DOWN TOPO_EDGE_UP TOPO_NODE_DOWN TOPO_NODE_UP",
    "churn": "EdgeChurn NodeChurn spanning_tree_edges",
    "mobility": "RandomWaypoint",
    "scripted": "ScriptedDynamics",
    "connectivity": "connectivity_report edge_timeline max_t_interval "
                    "t_interval_connected",
})
