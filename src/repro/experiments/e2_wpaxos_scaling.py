"""E2 -- Theorem 4.6: wPAXOS decides in O(D * F_ack).

Regenerates three series:

* decision time vs diameter ``D`` on lines (the worst case): the claim
  is a linear fit in ``D`` with a modest constant;
* decision time vs ``n`` at (near-)fixed ``D`` on cliques and grids of
  growing width: the claim is no ``n`` dependence beyond ``D``;
* decision time vs ``F_ack``: linear.

Each row also re-verifies agreement/validity/termination and the model
invariants (the runner checks them on every trace). Every series is a
declarative scenario grid over one axis (``topology.n``,
``scheduler.f_ack``); the grid/random spot checks derive from the same
base scenario via dotted-path overrides.
"""

from __future__ import annotations

from ..analysis import linear_fit
from ..scenario import AlgorithmSpec, Scenario, SchedulerSpec, TopologySpec
from .common import ExperimentReport

LINE_DIAMETERS = (4, 9, 19, 29, 39)
CLIQUE_SIZES = (4, 8, 16, 32, 48)
F_SWEEP = (0.5, 1.0, 2.0, 4.0)
MESH_SHAPES = ((4, 4), (6, 6), (8, 8))
RANDOM_SPOTS = ((24, 1), (48, 2))

#: Rows read decisions and counters only: no MAC records are kept.
BASE = Scenario(
    algorithm=AlgorithmSpec("wpaxos"),
    topology=TopologySpec("line", n=13),
    scheduler=SchedulerSpec("synchronous", f_ack=1.0),
    trace_level="decisions")

CLIQUE_BASE = BASE.override({"topology": TopologySpec("clique", n=4)})
F_BASE = BASE.override({"label": "line(D=12)"})


def manifest():
    """This experiment's row blocks as a scenario-native manifest."""
    from ..analysis.manifests import ExperimentManifest, ManifestBlock
    return ExperimentManifest(
        experiment="E2",
        title="wPAXOS scaling in multihop networks",
        blocks=[
            ManifestBlock("time-vs-D-lines", BASE,
                          axes={"topology.n": [int(d) + 1 for d
                                               in LINE_DIAMETERS]}),
            ManifestBlock("time-vs-n-cliques", CLIQUE_BASE,
                          axes={"topology.n": [int(n) for n
                                               in CLIQUE_SIZES]}),
            # Spot checks: correlated (topology[, scheduler], label) axes.
            ManifestBlock("mesh-grids", BASE, zipped={
                "topology": [TopologySpec("grid", rows=r, cols=c)
                             for r, c in MESH_SHAPES],
                "label": [f"grid({r}x{c})" for r, c in MESH_SHAPES]}),
            ManifestBlock("random-graphs", BASE, zipped={
                "topology": [TopologySpec("random", n=n, density=0.08,
                                          seed=seed)
                             for n, seed in RANDOM_SPOTS],
                "scheduler": [SchedulerSpec("random", f_ack=1.0, seed=seed)
                              for _, seed in RANDOM_SPOTS],
                "label": [f"random({n})" for n, _ in RANDOM_SPOTS]}),
            ManifestBlock("time-vs-fack", F_BASE,
                          axes={"scheduler.f_ack": list(F_SWEEP)}),
        ])


def run(*, cache=None, workers=None) -> ExperimentReport:
    plan = manifest()
    report = ExperimentReport(
        experiment_id="E2",
        title=plan.title,
        paper_claim=("Theorem 4.6: solves consensus in O(D * F_ack) "
                     "time with unique ids and knowledge of n"),
        headers=["topology", "n", "D", "F_ack", "correct",
                 "decision time", "time/(D*F_ack)"],
    )
    results = plan.run(cache=cache, workers=workers)

    # --- time vs D on lines --------------------------------------------
    points = []
    for d, point in zip(LINE_DIAMETERS,
                        results["time-vs-D-lines"].points):
        metrics = point.metrics
        points.append((d, metrics.last_decision))
        report.add_row(f"line", metrics.n, d, 1.0, metrics.correct,
                       metrics.last_decision, metrics.time_per_diameter)
        if not metrics.correct:
            report.conclude(f"line D={d} failed", ok=False)
    slope, intercept = linear_fit([float(d) for d, _ in points],
                                  [t for _, t in points])
    report.conclude(
        f"time vs D on lines: slope={slope:.2f} x D x F_ack, "
        f"intercept={intercept:.2f} (claim: linear in D; constant "
        f"factor small)", ok=0.5 <= slope <= 12.0)

    # --- time vs n at fixed D (cliques, D=1) ---------------------------
    clique_times = []
    for n, point in zip(CLIQUE_SIZES,
                        results["time-vs-n-cliques"].points):
        metrics = point.metrics
        clique_times.append((n, metrics.last_decision))
        report.add_row("clique", n, 1, 1.0, metrics.correct,
                       metrics.last_decision, metrics.time_per_diameter)
    slope_n, _ = linear_fit([float(n) for n, _ in clique_times],
                            [t for _, t in clique_times])
    report.conclude(
        f"time vs n at fixed D=1: slope={slope_n:.4f} (claim: ~0, no "
        f"n dependence beyond D)", ok=abs(slope_n) < 0.1)

    # --- grids and random graphs (zipped spot-check grids) -------------
    for (rows, cols), point in zip(MESH_SHAPES,
                                   results["mesh-grids"].points):
        metrics = point.metrics
        report.add_row(f"grid {rows}x{cols}", metrics.n,
                       metrics.diameter, 1.0, metrics.correct,
                       metrics.last_decision, metrics.time_per_diameter)
    for (n, _seed), point in zip(RANDOM_SPOTS,
                                 results["random-graphs"].points):
        metrics = point.metrics
        report.add_row(f"random({n})", metrics.n, metrics.diameter,
                       1.0, metrics.correct, metrics.last_decision,
                       metrics.time_per_diameter)
        if not metrics.correct:
            report.conclude(f"random n={n} failed", ok=False)

    # --- time vs F_ack --------------------------------------------------
    f_points = []
    for f_ack, point in zip(F_SWEEP, results["time-vs-fack"].points):
        metrics = point.metrics
        f_points.append((f_ack, metrics.last_decision))
        report.add_row("line", metrics.n, 12, f_ack, metrics.correct,
                       metrics.last_decision, metrics.time_per_diameter)
    f_slope, _ = linear_fit([f for f, _ in f_points],
                            [t for _, t in f_points])
    report.conclude(
        f"time vs F_ack at D=12: slope={f_slope:.1f} (claim: linear "
        f"in F_ack)", ok=f_slope > 0)
    return report
