"""E9 -- the dual-graph open question (Section 5, future work #1).

The paper omits unreliable links from its model (strengthening the
lower bounds) and explicitly leaves "consensus in an abstract MAC
layer model that includes unreliable links" open. This experiment
measures what happens when wPAXOS -- unmodified -- runs over a
reliable line augmented with random unreliable chords:

* **Safety is unconditional**: agreement and validity hold at every
  delivery probability, including the adversarial links-die-mid-run
  policy. (Lemma 4.2's conservation argument never assumed link
  reliability; lost responses only lower counts.)
* **Liveness is not**: at intermediate delivery probabilities the
  tree service can adopt parents across unreliable links whose later
  silence swallows acceptor responses, and the run deadlocks. This is
  a *measured* demonstration of why the dual-graph upper bound is
  genuinely open rather than a routine extension.

Both policies are scenario grids over one base description (line +
random overlay); the Bernoulli grid sweeps the full
``(scheduler.p, scheduler.seed)`` product across workers and regroups
per probability via :meth:`~repro.analysis.sweeps.SweepResult.by_x`.
"""

from __future__ import annotations

from ..scenario import (AlgorithmSpec, OverlaySpec, Scenario,
                        SchedulerSpec, TopologySpec)
from .common import ExperimentReport

PROBS = (0.0, 0.25, 0.5, 0.75, 1.0)
SEEDS = range(5)
CUTOFFS = (5.0, 10.0, 20.0)

#: Reliable line(12) plus 15%-density unreliable chords; the invariant
#: audit is off because deadlocking runs hit the time limit mid-ack.
BASE = Scenario(
    algorithm=AlgorithmSpec("wpaxos"),
    topology=TopologySpec("line", n=12),
    overlay=OverlaySpec("random-overlay", density=0.15, seed=3),
    scheduler=SchedulerSpec(
        "bernoulli-unreliable", p=1.0, seed=0,
        inner=SchedulerSpec("synchronous", f_ack=1.0)),
    label="line(12)+overlay",
    trace_level="decisions",
    check_invariants=False,
    max_events=5_000_000,
    max_time=2_000.0)

#: Links work, then vanish at a cutoff time.
ADVERSARIAL_BASE = BASE.override(
    {"scheduler": SchedulerSpec(
        "adversarial-unreliable", cutoff=5.0,
        inner=SchedulerSpec("synchronous", f_ack=1.0))})


def manifest():
    """This experiment's row blocks as a scenario-native manifest."""
    from ..analysis.manifests import ExperimentManifest, ManifestBlock
    return ExperimentManifest(
        experiment="E9",
        title="wPAXOS over unreliable links (dual-graph model)",
        blocks=[
            ManifestBlock("bernoulli", BASE,
                          axes={"scheduler.p": list(PROBS),
                                "scheduler.seed": list(SEEDS)},
                          note="deadlock-prone cells at mid p"),
            ManifestBlock("adversarial", ADVERSARIAL_BASE,
                          axes={"scheduler.cutoff": list(CUTOFFS)}),
        ])


def run(*, cache=None, workers=None) -> ExperimentReport:
    plan = manifest()
    report = ExperimentReport(
        experiment_id="E9",
        title=plan.title,
        paper_claim=("Section 5 open question: the paper's upper "
                     "bounds are not established for models with "
                     "unreliable links"),
        headers=["policy", "runs", "agreement", "terminated",
                 "mean time (when terminating)"],
    )

    # The full (prob, seed) grid fans out across workers -- every
    # replica is one sweep point, grouped back per probability below.
    results = plan.run(cache=cache, workers=workers)
    bernoulli = results["bernoulli"]

    liveness_ever_lost = False
    total = len(list(SEEDS))
    for prob, replicas in bernoulli.by_x().items():
        agree = sum(p.metrics.agreement and p.metrics.validity
                    for p in replicas)
        times = [p.metrics.last_decision for p in replicas
                 if p.metrics.termination]
        finished = len(times)
        mean_time = (sum(times) / len(times)) if times else None
        report.add_row(f"bernoulli p={prob}", total,
                       f"{agree}/{total}", f"{finished}/{total}",
                       mean_time)
        if agree != total:
            report.conclude(f"safety violated at p={prob}", ok=False)
        if finished < total:
            liveness_ever_lost = True

    # Adversarial policy: links work, then vanish.
    adversarial = results["adversarial"]
    agree = sum(p.metrics.agreement and p.metrics.validity
                for p in adversarial.points)
    finished = sum(p.metrics.termination for p in adversarial.points)
    report.add_row("adversarial cutoffs 5/10/20", 3, f"{agree}/3",
                   f"{finished}/3", None)
    if agree != 3:
        report.conclude("safety violated under adversarial links",
                        ok=False)
    if finished < 3:
        liveness_ever_lost = True

    report.conclude(
        "agreement and validity held in every run: wPAXOS's safety "
        "argument (Lemma 4.2/4.3) does not depend on link "
        "reliability")
    report.conclude(
        "liveness was lost in at least one configuration: response "
        "routes formed over unreliable links can starve the leader "
        "of responses -- the measured reason the dual-graph upper "
        "bound is an open question, not a routine extension",
        ok=liveness_ever_lost)
    return report
