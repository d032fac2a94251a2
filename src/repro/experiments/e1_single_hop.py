"""E1 -- Theorem 4.1: Two-Phase Consensus decides in O(F_ack).

Regenerates two series:

* decision time vs ``n`` at fixed ``F_ack`` (the claim: *flat* -- the
  algorithm needs no knowledge of ``n`` and its time does not depend
  on it);
* decision time vs ``F_ack`` at fixed ``n`` (the claim: linear with
  slope <= 2 under round-structured schedulers -- two broadcast
  cycles).

Also exercises the witness path with adversarial (staggered) and
random schedulers, and records the pseudocode-erratum regression
(module docstring of :mod:`repro.core.twophase`).

All series are declarative scenario grids: one base
:class:`~repro.scenario.Scenario` per claim, swept along dotted-path
axes (``topology.n``, ``scheduler.f_ack``, ``scheduler.seed``).
"""

from __future__ import annotations

from ..analysis import linear_fit
from ..scenario import AlgorithmSpec, Scenario, SchedulerSpec, TopologySpec
from .common import ExperimentReport

N_SWEEP = (1, 2, 3, 5, 8, 13, 21, 34, 55)
F_SWEEP = (0.5, 1.0, 2.0, 4.0, 8.0)
RANDOM_SEEDS = (0, 1, 2, 3, 4)

#: Two-Phase with label uids (``uid_base=0``: node label == uid on
#: cliques, the construction this experiment has always used). The
#: table reads decisions and counters only: no MAC records are kept.
BASE = Scenario(
    algorithm=AlgorithmSpec("two-phase", uid_base=0),
    topology=TopologySpec("clique", n=10),
    scheduler=SchedulerSpec("synchronous", f_ack=1.0),
    trace_level="decisions")

#: Witness-path bases.
RANDOM_BASE = BASE.override(
    {"scheduler": SchedulerSpec("random", f_ack=2.0),
     "label": "clique(12)"})
STAGGERED = BASE.override(
    {"topology.n": 12,
     "scheduler": SchedulerSpec("staggered", step=0.25, max_degree=16),
     "label": "clique(12)"})


def manifest():
    """This experiment's row blocks as a scenario-native manifest."""
    from ..analysis.manifests import ExperimentManifest, ManifestBlock
    return ExperimentManifest(
        experiment="E1",
        title="Two-Phase Consensus in single hop networks",
        blocks=[
            ManifestBlock("time-vs-n", BASE,
                          axes={"topology.n": list(N_SWEEP)}),
            ManifestBlock("time-vs-fack", BASE,
                          axes={"scheduler.f_ack": list(F_SWEEP)}),
            ManifestBlock("random-scheduler", RANDOM_BASE,
                          axes={"topology.n": [12],
                                "scheduler.seed": list(RANDOM_SEEDS)}),
            ManifestBlock("staggered", STAGGERED,
                          note="adversarial staggered-start witness"),
        ])


def run(*, cache=None, workers=None) -> ExperimentReport:
    plan = manifest()
    report = ExperimentReport(
        experiment_id="E1",
        title=plan.title,
        paper_claim=("Theorem 4.1: solves consensus in O(F_ack) time "
                     "with unique ids, no knowledge of n"),
        headers=["scheduler", "n", "F_ack", "correct",
                 "decision time", "time/F_ack"],
    )
    results = plan.run(cache=cache, workers=workers)

    # --- time vs n (fixed F_ack = 1) ---------------------------------
    times_vs_n = []
    for n, point in zip(N_SWEEP, results["time-vs-n"].points):
        metrics = point.metrics
        times_vs_n.append((n, metrics.last_decision))
        report.add_row("synchronous", n, 1.0, metrics.correct,
                       metrics.last_decision, metrics.normalized_time)
        if not metrics.correct:
            report.conclude(f"n={n} failed", ok=False)
    if len(times_vs_n) >= 2:
        slope, _ = linear_fit([float(n) for n, _ in times_vs_n],
                              [t for _, t in times_vs_n])
        report.conclude(
            f"time vs n slope = {slope:.4f} (claim: ~0, no n "
            f"dependence)", ok=abs(slope) < 0.05)

    # --- time vs F_ack (fixed n = 10) ---------------------------------
    times_vs_f = []
    for f_ack, point in zip(F_SWEEP, results["time-vs-fack"].points):
        metrics = point.metrics
        times_vs_f.append((f_ack, metrics.last_decision))
        report.add_row("synchronous", 10, f_ack, metrics.correct,
                       metrics.last_decision, metrics.normalized_time)
    slope, intercept = linear_fit([f for f, _ in times_vs_f],
                                  [t for _, t in times_vs_f])
    report.conclude(
        f"time vs F_ack: slope={slope:.2f}, intercept={intercept:.2f} "
        f"(claim: linear, slope <= 2)",
        ok=slope <= 2.0 + 1e-9)

    # --- adversarial and random schedulers ----------------------------
    worst_ratio = 0.0
    for point in results["random-scheduler"].points:
        metrics = point.metrics
        seed = point.key[1]
        worst_ratio = max(worst_ratio, metrics.normalized_time or 0.0)
        if seed == 0:
            report.add_row("random", 12, 2.0, metrics.correct,
                           metrics.last_decision,
                           metrics.normalized_time)
        if not metrics.correct:
            report.conclude(f"random seed {seed} failed", ok=False)
    metrics = results["staggered"].points[0].metrics
    report.add_row("staggered", 12, metrics.f_ack, metrics.correct,
                   metrics.last_decision, metrics.normalized_time)
    report.conclude(
        f"correct under random/staggered schedulers; worst observed "
        f"time = {worst_ratio:.2f} x F_ack (O(F_ack) as claimed)",
        ok=metrics.correct and worst_ratio <= 4.0)
    report.conclude(
        "pseudocode erratum: literal line-23 (R2-only) decision check "
        "admits an agreement violation; corrected check (R1 u R2) "
        "used -- see tests/test_twophase.py::TestErratum")
    return report
