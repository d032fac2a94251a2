"""E11 -- the F_prog refinement the paper defers (extension).

The two-parameter abstract MAC layer bounds message *progress*
(``F_prog``) separately from broadcast *completion* (``F_ack``).
Holding ``F_ack = 8`` fixed and shrinking ``F_prog`` from 8 to 1, this
experiment measures which algorithms exploit fast deliveries:

* **Two-Phase Consensus** is ack-bound by construction (each phase
  ends at an ack), so its decision time stays pinned near
  ``2 x F_ack`` -- the refinement cannot help it.
* **GatherAll / wPAXOS** interleave many broadcasts; information can
  hop ``F_prog``-fast between a node's ack-bound sending slots, so
  their times drop partway as ``F_prog`` shrinks, without reaching an
  ``F_prog``-only bound -- each node's *own* next broadcast still
  waits for its ack.

The measured gap quantifies what the deferred "upper bounds in the
two-parameter model" future work could gain and which algorithmic
structure (fewer ack-serialized phases) it would need.

The three series are scenario blocks declared once in ``manifest()``.
"""

from __future__ import annotations

from ..scenario import AlgorithmSpec, Scenario, SchedulerSpec, TopologySpec
from .common import ExperimentReport

F_ACK = 8.0
F_PROGS = (8.0, 4.0, 2.0, 1.0)

#: One block per algorithm: ``(algorithm, topology, label)``.
SERIES = (
    ("two-phase", TopologySpec("clique", n=8), "clique(8)"),
    ("gatherall", TopologySpec("line", n=10), "line(10)"),
    ("wpaxos", TopologySpec("line", n=10), "line(10)"),
)


def manifest():
    """This experiment's row blocks as a scenario-native manifest.

    Each block zips ``scheduler.f_prog`` with its scheduler seed
    ``int(f_prog * 1000) + 1`` at a fixed ``F_ack``.
    """
    from ..analysis.manifests import ExperimentManifest, ManifestBlock
    zipped = {"scheduler.f_prog": list(F_PROGS),
              "scheduler.seed": [int(f_prog * 1000) + 1
                                 for f_prog in F_PROGS]}
    blocks = [
        ManifestBlock(name, Scenario(
            algorithm=AlgorithmSpec(name), topology=topology,
            scheduler=SchedulerSpec("eager", f_ack=F_ACK),
            label=label, trace_level="decisions"), zipped=dict(zipped))
        for name, topology, label in SERIES]
    return ExperimentManifest(
        experiment="E11",
        title="The F_prog refinement (two-parameter model)",
        blocks=blocks)


def run(*, cache=None, workers=None) -> ExperimentReport:
    plan = manifest()
    report = ExperimentReport(
        experiment_id="E11",
        title=plan.title,
        paper_claim=("Section 2: upper bounds in the model with the "
                     "F_prog progress bound are deferred as future "
                     "work"),
        headers=["algorithm", "topology", "F_prog", "F_ack",
                 "decision time", "time/F_ack"],
    )

    results = plan.run(cache=cache, workers=workers)
    series = {name: [p.metrics for p in results[name].points]
              for name, _, _ in SERIES}
    # Rows interleave the blocks: every algorithm at one F_prog.
    for i, f_prog in enumerate(F_PROGS):
        for name, _, label in SERIES:
            metrics = series[name][i]
            report.add_row(name, label, f_prog, F_ACK,
                           metrics.last_decision, metrics.normalized_time)

    tp = [m.last_decision for m in series["two-phase"]]
    report.conclude(
        f"two-phase is ack-bound: {tp[0]:.0f} -> {tp[-1]:.0f} as "
        f"F_prog shrinks 8x (phases end at acks; the refinement "
        f"cannot speed it up)",
        ok=tp[-1] >= 0.8 * tp[0])
    for name in ("gatherall", "wpaxos"):
        first = series[name][0].last_decision
        last = series[name][-1].last_decision
        report.conclude(
            f"{name} gains {first / last:.2f}x from F_prog 8 -> 1 at "
            f"fixed F_ack: deliveries hop faster than acks, but each "
            f"node's next send still waits for its own ack",
            ok=last <= first)
    return report
