"""repro: reproduction of "Consensus with an Abstract MAC Layer".

A full Python implementation of Calvin Newport's PODC 2014 paper
(arXiv:1405.1382): the abstract MAC layer model as an executable
simulator, the paper's two consensus algorithms (Two-Phase Consensus
and wPAXOS with its four support services), the baselines it argues
against, and machine-checked reproductions of every lower bound.

Quick start::

    from repro import (build_simulation, check_consensus, clique,
                       SynchronousScheduler, TwoPhaseConsensus)

    graph = clique(5)
    values = {v: v % 2 for v in graph.nodes}
    sim = build_simulation(
        graph,
        lambda v: TwoPhaseConsensus(uid=v, initial_value=values[v]),
        SynchronousScheduler(1.0))
    result = sim.run()
    print(result.decisions)                       # everyone agrees
    print(check_consensus(result.trace, values).ok)  # True

Importing the package loads none of this: every name below is
resolved on first use (:mod:`repro._lazy`), so a process compiles only
the modules its path runs -- ``from repro import WPaxosNode`` loads
wPAXOS, not the baselines. See README.md for the architecture tour;
``repro regen`` regenerates the measured results (``EXPERIMENTS.md``).
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    # substrate
    "macsim.simulator": "Simulator build_simulation RunResult",
    "macsim.process": "Process",
    "macsim.faults.crash": "CrashPlan",
    "macsim.invariants": "check_consensus check_model_invariants",
    # schedulers
    "macsim.schedulers.base": "Scheduler",
    "macsim.schedulers.synchronous": "SynchronousScheduler",
    "macsim.schedulers.random_delay":
        "RandomDelayScheduler JitteredRoundScheduler",
    "macsim.schedulers.adversarial": "MaxDelayScheduler SilencingScheduler "
                                     "StaggeredScheduler PartitionScheduler",
    "macsim.schedulers.scripted": "ScriptedScheduler",
    "macsim.schedulers.unreliable":
        "BernoulliUnreliableScheduler AdversarialUnreliableScheduler",
    # topologies
    "topology.graphs": "Graph",
    "topology.standard": "clique line ring star grid torus star_of_cliques "
                         "random_connected random_geometric "
                         "unreliable_overlay",
    "topology.gadgets": "network_a network_b kd_network verify_figure1",
    # algorithms
    "core.base": "ConsensusProcess",
    "core.twophase": "TwoPhaseConsensus",
    "core.wpaxos.node": "WPaxosNode",
    "core.wpaxos.config": "WPaxosConfig SafetyMonitor",
    "core.baselines.gatherall": "GatherAllConsensus",
    "core.baselines.paxos_flood": "PaxosFloodNode",
    "core.heuristics.stability": "AnonymousMinFlood NoSizeMinIdFlood",
    "core.randomized": "BenOrConsensus",
    # dynamics
    "macsim.dynamics.base": "TopologyDynamics TopologyDelta",
    "macsim.dynamics.churn": "EdgeChurn NodeChurn",
    "macsim.dynamics.mobility": "RandomWaypoint",
    "macsim.dynamics.scripted": "ScriptedDynamics",
    "macsim.dynamics.connectivity": "connectivity_report",
    # scenarios
    "scenario": "Scenario ScenarioError ScenarioGrid AlgorithmSpec "
                "TopologySpec SchedulerSpec FaultSpec OverlaySpec "
                "DynamicsSpec",
    "registry": "register_algorithm register_topology register_scheduler "
                "register_fault_model register_dynamics register_overlay "
                "register_values",
})
__all__.insert(0, "__version__")
