"""E3 -- Section 4.2's motivation: flooding costs Theta(n * F_ack).

The paper motivates wPAXOS's aggregation trees by observing that PAXOS
+ basic flooding (and any gather-everything scheme) pays ``Theta(n)``
message-slots at a bottleneck, since each O(1)-id message moves one
response. This experiment pits wPAXOS against the two baselines on
bottleneck topologies with fixed diameter and growing ``n`` and
records:

* decision times (claim: wPAXOS flat, baselines grow linearly in n);
* maximum per-node broadcast counts (claim: Theta(D)-ish vs Theta(n)).

All series are declarative scenario grids: one base
:class:`~repro.scenario.Scenario` per algorithm over correlated
``(topology.arms, topology.size)`` axes, declared once in
``manifest()`` -- ``repro regen E3`` and ``repro regen --manifest``
of its exported manifest share cells.
"""

from __future__ import annotations

from ..analysis import growth_ratio
from ..scenario import AlgorithmSpec, Scenario, SchedulerSpec, TopologySpec
from ..topology import star_of_cliques
from .common import ExperimentReport

ARM_SWEEP = ((4, 6), (6, 8), (8, 10), (10, 12))

#: The three contenders; registry builders replicate the legacy
#: factories (uids are label order + 1 on every topology).
ALGORITHMS = ("wpaxos", "flood-paxos", "gatherall")

#: Rows read decision times and per-node broadcast counts, both exact
#: at ``decisions``: the 10^5-event flooding cells keep no MAC records.
BASE = Scenario(
    algorithm=AlgorithmSpec("wpaxos"),
    topology=TopologySpec("star-of-cliques", arms=4, size=6),
    scheduler=SchedulerSpec("synchronous", f_ack=1.0),
    trace_level="decisions")

#: A plain star (hub bottleneck, D=2) for good measure.
STAR_BASE = BASE.override({"topology": TopologySpec("star", n=41),
                           "label": "star(41)"})
STAR_ALGORITHMS = ("wpaxos", "gatherall")


def _algo(base: Scenario, name: str) -> Scenario:
    return base.override({"algorithm": AlgorithmSpec(name)})


def manifest():
    """This experiment's row blocks as a scenario-native manifest."""
    from ..analysis.manifests import ExperimentManifest, ManifestBlock
    # Correlated (arms, size, label) axes for the bottleneck sweep.
    soc = {"topology.arms": [int(arms) for arms, _ in ARM_SWEEP],
           "topology.size": [int(size) for _, size in ARM_SWEEP],
           "label": [f"star_of_cliques({arms},{size})"
                     for arms, size in ARM_SWEEP]}
    blocks = [ManifestBlock(f"soc-{name}", _algo(BASE, name),
                            zipped=dict(soc))
              for name in ALGORITHMS]
    blocks += [ManifestBlock(f"star-{name}", _algo(STAR_BASE, name),
                             note="hub bottleneck, D=2")
               for name in STAR_ALGORITHMS]
    return ExperimentManifest(
        experiment="E3",
        title="wPAXOS vs flooding baselines at bottlenecks",
        blocks=blocks)


def run(*, cache=None, workers=None) -> ExperimentReport:
    plan = manifest()
    report = ExperimentReport(
        experiment_id="E3",
        title=plan.title,
        paper_claim=("Section 4.2: PAXOS + basic flooding costs "
                     "O(n * F_ack); aggregation trees reduce this to "
                     "O(D * F_ack)"),
        headers=["topology", "n", "D", "algorithm", "correct",
                 "decision time", "max bcasts/node"],
    )

    # One block per algorithm over the zipped (arms, size) points; rows
    # are emitted per topology. Diameters are structural, so they are
    # computed once here rather than in the sweep workers.
    diameters = [star_of_cliques(arms, size).diameter()
                 for arms, size in ARM_SWEEP]
    results = plan.run(cache=cache, workers=workers)
    series: dict = {name: [] for name in ALGORITHMS}
    for index, (arms, size) in enumerate(ARM_SWEEP):
        diameter = diameters[index]
        for name in ALGORITHMS:
            metrics = results[f"soc-{name}"].points[index].metrics
            n = metrics.n
            series[name].append((n, metrics.last_decision,
                                 metrics.max_broadcasts_per_node))
            report.add_row(f"soc({arms},{size})", n, diameter, name,
                           metrics.correct, metrics.last_decision,
                           metrics.max_broadcasts_per_node)
            if not metrics.correct:
                report.conclude(f"{name} on n={n} failed", ok=False)

    for name in STAR_ALGORITHMS:
        metrics = results[f"star-{name}"].points[0].metrics
        report.add_row("star(41)", metrics.n, 2, name, metrics.correct,
                       metrics.last_decision,
                       metrics.max_broadcasts_per_node)

    # Shape conclusions: growth of time as n grows, D fixed.
    ns = [float(n) for n, _, _ in series["wpaxos"]]
    for name, expect_flat in (("wpaxos", True), ("flood-paxos", False),
                              ("gatherall", False)):
        times = [t for _, t, _ in series[name]]
        ratio = growth_ratio(ns, times)
        if expect_flat:
            report.conclude(
                f"{name}: time growth ratio {ratio:.2f} as n grows "
                f"3x at fixed D (claim: ~0, flat)", ok=ratio < 0.4)
        else:
            report.conclude(
                f"{name}: time growth ratio {ratio:.2f} (claim: ~1, "
                f"linear in n)", ok=ratio > 0.6)
    wp = series["wpaxos"][-1]
    fp = series["flood-paxos"][-1]
    report.conclude(
        f"at n={int(ns[-1])}: wPAXOS {wp[1]:.0f} vs flooding-PAXOS "
        f"{fp[1]:.0f} rounds -- x{fp[1] / wp[1]:.1f} speedup "
        f"(claim: ~n/D factor)", ok=fp[1] > 2 * wp[1])
    return report
