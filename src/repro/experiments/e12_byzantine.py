"""E12 -- Byzantine fault tolerance in the abstract MAC layer.

The follow-on line to the source paper (Tseng & Sardina 2023; Zhang &
Tseng 2024) shows the abstract MAC layer supports consensus under
Byzantine behaviour. This experiment exercises
:class:`repro.core.byzantine.ByzantineConsensus` (value grading +
amplification, tolerance bound ``n > 5f``) against the
:mod:`repro.macsim.faults` adversary subsystem:

* **Within the bound** -- sweeping the adversary budget ``f`` from 0
  to ``max_tolerance(n)`` across three strategies (silent, corrupt,
  equivocate) on a clique and, in relay mode, on a multi-hop random
  graph: agreement and validity must hold *among correct nodes* in
  every run, and every correct node must decide.
* **Past the bound** -- a targeted split-world equivocation against a
  protocol instance assuming ``f = 0``: the adversary steers half the
  correct nodes to decide 0 and half to decide 1. The violating
  decisions are pulled out of the full execution trace and recorded
  in the report -- the measured reason the tolerance bound is not an
  artifact of the analysis.

All within-bound points are one manifest block per (topology,
strategy): the base :class:`~repro.scenario.Scenario` pins the
uid-proportional RNG construction (``uid_seed_scale`` /
``plan_seed_scale``) and the block sweeps ``fault.count``; each worker
builds its own fault model (models hold per-run RNG state).
"""

from __future__ import annotations

from ..core.byzantine import ByzantineConsensus, max_tolerance
from ..macsim import build_simulation, check_consensus
from ..macsim.faults import (ByzantineFaultModel, ByzantinePlan,
                             EquivocateStrategy)
from ..macsim.schedulers import SynchronousScheduler
from ..scenario import (AlgorithmSpec, FaultSpec, Scenario,
                        SchedulerSpec, TopologySpec)
from ..topology import clique
from .common import ExperimentReport

#: Adversary strategies swept within the tolerance bound.
STRATEGIES = ("silent", "corrupt", "equivocate")

CLIQUE_N = 16
MULTIHOP_N = 12
MULTIHOP_EDGE_PROB = 0.35
MULTIHOP_SEED = 7


def _base_scenario(topology: TopologySpec, n: int, relay: bool,
                   strategy: str) -> Scenario:
    """One within-bound base: Byzantine consensus assuming
    ``f = max_tolerance(n)``, uid-scaled process seeds (1013 * uid)
    and plan seeds (11 * uid), two-thirds-zeros inputs."""
    f_assumed = max_tolerance(n)
    return Scenario(
        algorithm=AlgorithmSpec("byzantine", f=f_assumed, relay=relay,
                                uid_seed_scale=1013),
        topology=topology,
        scheduler=SchedulerSpec("synchronous", f_ack=1.0),
        fault=FaultSpec("byzantine", count=0, strategy=strategy,
                        plan_seed_scale=11, budget=f_assumed),
        values="two-thirds-zeros",
        trace_level="decisions",
        label=("multihop" if relay else "clique") + f"({n})")


def manifest():
    """The within-bound grids as a scenario-native manifest.

    The past-the-bound violation run is hand-wired (it digs decide
    records out of the raw trace) and deliberately stays outside the
    manifest/cache layer.
    """
    from ..analysis.manifests import ExperimentManifest, ManifestBlock
    blocks = []
    for topology, n, relay in (
            (TopologySpec("clique", n=CLIQUE_N), CLIQUE_N, False),
            (TopologySpec("random", n=MULTIHOP_N,
                          density=MULTIHOP_EDGE_PROB, seed=MULTIHOP_SEED),
             MULTIHOP_N, True)):
        f_assumed = max_tolerance(n)
        counts = list(range(f_assumed + 1))
        kind = "multihop" if relay else "clique"
        for strategy_name in STRATEGIES:
            blocks.append(ManifestBlock(
                f"{kind}-{strategy_name}",
                _base_scenario(topology, n, relay, strategy_name),
                axes={"fault.count": counts}))
    return ExperimentManifest(
        experiment="E12",
        title="Byzantine consensus under the fault-model subsystem",
        blocks=blocks)


def _violation_run():
    """Budget past the bound: targeted split-world equivocation.

    5 nodes, protocol instances assuming ``f = 0``; one equivocating
    Byzantine node sends value 0 to nodes {0, 2} and value 1 to
    {1, 3} in both steps, handing each side a decisive majority for a
    different value.
    """
    graph = clique(5)
    values = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
    byz = 4
    strategy = EquivocateStrategy(assignment={0: 0, 2: 0, 1: 1, 3: 1})
    fault_model = ByzantineFaultModel(
        [ByzantinePlan(node=byz, strategy=strategy)])
    sim = build_simulation(
        graph,
        lambda v: ByzantineConsensus(v + 1, values[v], 5, 0,
                                     seed=3 * v),
        SynchronousScheduler(1.0), fault_model=fault_model)
    result = sim.run(max_time=500.0)
    report = check_consensus(result.trace, values,
                             faulty=frozenset({byz}))
    return result, report, byz


def run(*, cache=None, workers=None) -> ExperimentReport:
    plan = manifest()
    report = ExperimentReport(
        experiment_id="E12",
        title=plan.title,
        paper_claim=("Tseng-Sardina 2023 / Zhang-Tseng 2024: the "
                     "abstract MAC layer supports Byzantine consensus; "
                     "grading+amplification tolerates f Byzantine "
                     "nodes for n > 5f, and not beyond"),
        headers=["topology", "strategy", "f assumed", "byz actual",
                 "agreement", "validity", "correct decided",
                 "decision time"],
    )

    # --- within the bound: clique and multi-hop grids ------------------
    all_safe = True
    results = plan.run(cache=cache, workers=workers)
    for block in plan.blocks:
        strategy_name = block.base.fault.params["strategy"]
        f_assumed = block.base.fault.params["budget"]
        for point in results[block.name].points:
            m, b = point.metrics, point.key
            report.add_row(
                m.topology, strategy_name, f_assumed, b,
                m.agreement, m.validity, m.termination,
                m.last_decision)
            if not m.correct:
                all_safe = False
                report.conclude(
                    f"{m.topology} {strategy_name} b={b}: "
                    f"agreement={m.agreement} "
                    f"validity={m.validity} "
                    f"termination={m.termination}", ok=False)
    report.conclude(
        "agreement and validity held among correct nodes, and every "
        "correct node decided, for every strategy and every budget "
        "f <= max_tolerance(n) on both topologies", ok=all_safe)

    # --- past the bound: traced violation ------------------------------
    result, violation, byz = _violation_run()
    decides = [(r.node, r.payload, r.time)
               for r in result.trace.of_kind("decide") if r.node != byz]
    report.add_row("clique(5)", "equivocate(split)", 0, 1,
                   violation.agreement, violation.validity,
                   violation.termination,
                   result.trace.last_decision_time())
    report.conclude(
        f"budget past the bound (f=0 assumed, 1 equivocator): "
        f"agreement among correct nodes violated -- decide records "
        f"{decides} ({len(result.trace)} trace records)",
        ok=not violation.agreement)
    return report
