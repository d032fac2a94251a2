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

See README.md for the architecture tour; ``repro regen`` and
``python -m repro experiments`` regenerate the measured results.
"""

from .macsim import (CrashPlan, EdgeChurn, NodeChurn, Process,
                     RandomWaypoint, RunResult, ScriptedDynamics,
                     Simulator, TopologyDelta, TopologyDynamics,
                     build_simulation, check_consensus,
                     check_model_invariants, connectivity_report)
from .macsim.schedulers import (AdversarialUnreliableScheduler,
                                BernoulliUnreliableScheduler,
                                JitteredRoundScheduler,
                                MaxDelayScheduler, PartitionScheduler,
                                RandomDelayScheduler, Scheduler,
                                ScriptedScheduler, SilencingScheduler,
                                StaggeredScheduler, SynchronousScheduler)
from .topology import (Graph, clique, grid, kd_network, line,
                       network_a, network_b, random_connected,
                       random_geometric, ring, star, star_of_cliques,
                       torus, verify_figure1)
from .topology.standard import unreliable_overlay
from .core import (AnonymousMinFlood, BenOrConsensus,
                   ConsensusProcess, GatherAllConsensus,
                   NoSizeMinIdFlood, PaxosFloodNode, SafetyMonitor,
                   TwoPhaseConsensus, WPaxosConfig, WPaxosNode)
from .registry import (register_algorithm, register_dynamics,
                       register_fault_model, register_overlay,
                       register_scheduler, register_topology,
                       register_values)
from .scenario import (AlgorithmSpec, DynamicsSpec, FaultSpec,
                       OverlaySpec, Scenario, ScenarioError,
                       ScenarioGrid, SchedulerSpec, TopologySpec)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # substrate
    "Simulator",
    "build_simulation",
    "RunResult",
    "Process",
    "CrashPlan",
    "check_consensus",
    "check_model_invariants",
    # schedulers
    "Scheduler",
    "SynchronousScheduler",
    "RandomDelayScheduler",
    "JitteredRoundScheduler",
    "MaxDelayScheduler",
    "SilencingScheduler",
    "StaggeredScheduler",
    "PartitionScheduler",
    "ScriptedScheduler",
    "BernoulliUnreliableScheduler",
    "AdversarialUnreliableScheduler",
    # topologies
    "Graph",
    "clique",
    "line",
    "ring",
    "star",
    "grid",
    "torus",
    "star_of_cliques",
    "random_connected",
    "random_geometric",
    "network_a",
    "network_b",
    "kd_network",
    "verify_figure1",
    "unreliable_overlay",
    # algorithms
    "ConsensusProcess",
    "TwoPhaseConsensus",
    "WPaxosNode",
    "WPaxosConfig",
    "SafetyMonitor",
    "GatherAllConsensus",
    "PaxosFloodNode",
    "AnonymousMinFlood",
    "NoSizeMinIdFlood",
    "BenOrConsensus",
    # dynamics
    "TopologyDynamics",
    "TopologyDelta",
    "EdgeChurn",
    "NodeChurn",
    "RandomWaypoint",
    "ScriptedDynamics",
    "connectivity_report",
    # scenarios
    "Scenario",
    "ScenarioError",
    "ScenarioGrid",
    "AlgorithmSpec",
    "TopologySpec",
    "SchedulerSpec",
    "FaultSpec",
    "OverlaySpec",
    "DynamicsSpec",
    "register_algorithm",
    "register_topology",
    "register_scheduler",
    "register_fault_model",
    "register_dynamics",
    "register_overlay",
    "register_values",
]
