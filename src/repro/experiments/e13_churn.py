"""E13 -- Consensus under topology churn.

The abstract MAC layer was designed for mobile ad hoc networks, where
links and nodes come and go; this experiment runs the repo's consensus
families over the :mod:`repro.macsim.dynamics` subsystem and measures
how decision latency and the consensus properties respond to churn:

* **Churn rate x algorithm (clique).** Two-Phase, wPAXOS and Ben-Or
  on a clique under :class:`~repro.macsim.dynamics.EdgeChurn` with a
  spanning-tree floor (the network stays connected; completeness does
  not survive). Two-Phase assumes a single-hop topology, so churn is
  precisely its failure mode -- the interesting question is whether it
  fails *safe* (stalls, agreement intact) or unsafe.
* **Churn rate (geometric).** wPAXOS on a random geometric graph
  under edge churn, and under :class:`RandomWaypoint` mobility -- the
  paper's deployment scenario, nodes drifting across the unit square.
* **Node churn.** wPAXOS under leave/rejoin with state reset: rejoined
  nodes lose their protocol state and must be brought back to the
  decision.
* **Churn rate x n (zip-mode grid).** The latency trend as both churn
  and network size grow, using ``Scenario.grid``'s zipped correlated
  ``(n, seed)`` axes.

Every point is a manifest cell executed through one experiment-wide
sweep pool; the ``connectivity`` probe (T-interval
connectivity over the run's topology timeline) rides along in
``RunMetrics.extras``.
"""

from __future__ import annotations

from ..scenario import (AlgorithmSpec, DynamicsSpec, Scenario,
                        SchedulerSpec, TopologySpec)
from .common import ExperimentReport

#: Per-epoch edge churn probabilities swept everywhere.
RATES = (0.0, 0.05, 0.15)

#: The three consensus families of the rate x algorithm block.
ALGORITHMS = ("two-phase", "wpaxos", "ben-or")

CLIQUE_N = 12
GEO_N = 16
GEO_RADIUS = 0.42
SEED = 3
MAX_TIME = 120.0


def _base(algorithm: str, topology: TopologySpec,
          dynamics: DynamicsSpec, label: str) -> Scenario:
    return Scenario(
        algorithm=AlgorithmSpec(algorithm),
        topology=topology,
        scheduler=SchedulerSpec("synchronous", f_ack=1.0),
        dynamics=dynamics,
        seed=SEED,
        # Rows read decisions and the ``topo`` timeline; audited online.
        trace_level="decisions",
        max_time=MAX_TIME,
        label=label)


CHURN0 = DynamicsSpec("edge-churn", rate=0.0, epoch_length=1.0)

ZIP_NS = (8, 12, 16)
ZIP_SEEDS = (SEED, SEED + 1, SEED + 2)


def manifest():
    """This experiment's row blocks as a scenario-native manifest."""
    from ..analysis.manifests import ExperimentManifest, ManifestBlock
    clique = TopologySpec("clique", n=CLIQUE_N)
    geometric = TopologySpec("geometric", n=GEO_N, radius=GEO_RADIUS,
                             seed=SEED)
    rate_axis = {"dynamics.rate": list(RATES)}
    blocks = [
        ManifestBlock(f"clique-churn-{algorithm}",
                      _base(algorithm, clique, CHURN0,
                            f"clique({CLIQUE_N})"),
                      axes=dict(rate_axis))
        for algorithm in ALGORITHMS
    ]
    blocks.extend([
        ManifestBlock("geometric-churn",
                      _base("wpaxos", geometric, CHURN0,
                            f"geometric({GEO_N})"),
                      axes=dict(rate_axis)),
        ManifestBlock("random-waypoint",
                      _base("wpaxos", geometric,
                            DynamicsSpec("random-waypoint",
                                         radius=GEO_RADIUS, speed=0.06,
                                         epoch_length=1.0),
                            f"geometric({GEO_N})"),
                      note="mobility, not churn: nodes drift"),
        ManifestBlock("node-churn",
                      _base("wpaxos", clique,
                            DynamicsSpec("node-churn", leave_rate=0.05,
                                         rejoin_rate=0.5,
                                         epoch_length=1.0),
                            f"clique({CLIQUE_N})"),
                      note="leave/rejoin with state reset"),
        ManifestBlock("rate-x-n", _base("wpaxos", clique, CHURN0, None),
                      axes=dict(rate_axis),
                      zipped={"topology.n": list(ZIP_NS),
                              "seed": list(ZIP_SEEDS)}),
    ])
    return ExperimentManifest(
        experiment="E13",
        title="Consensus under topology churn and mobility",
        blocks=blocks)


def _row(report: ExperimentReport, m, dynamics_label: str,
         rate) -> None:
    conn = (m.extras or {}).get("connectivity") or {}
    report.add_row(
        m.topology, m.algorithm, dynamics_label, rate,
        m.agreement, m.validity, m.termination,
        m.last_decision, conn.get("topologies"),
        conn.get("max_t_interval"))


def run(*, cache=None, workers=None) -> ExperimentReport:
    plan = manifest()
    report = ExperimentReport(
        experiment_id="E13",
        title=plan.title,
        paper_claim=("the abstract MAC layer targets mobile ad hoc "
                     "networks; algorithms that only assume local "
                     "broadcast + acks should degrade gracefully "
                     "under topology change, while single-hop "
                     "assumptions (Two-Phase) become unsound"),
        headers=["topology", "algorithm", "dynamics", "rate",
                 "agreement", "validity", "termination",
                 "decision time", "topologies", "T-interval"],
    )

    results = plan.run(cache=cache, workers=workers)
    safety_ok = True
    zero_rate_ok = True
    decided = 0
    stalled = 0

    def _tally(m) -> None:
        nonlocal safety_ok, decided, stalled
        if not (m.agreement and m.validity):
            safety_ok = False
        if m.termination:
            decided += 1
        else:
            stalled += 1

    # --- churn rate x algorithm on the clique --------------------------
    for algorithm in ALGORITHMS:
        series = results[f"clique-churn-{algorithm}"]
        for rate, point in zip(RATES, series.points):
            m = point.metrics
            _row(report, m, "edge-churn", rate)
            _tally(m)
            if rate == 0.0 and not m.correct:
                zero_rate_ok = False
    report.conclude(
        "zero-churn rows are byte-equivalent static runs: every "
        "algorithm decides correctly at rate 0", ok=zero_rate_ok)

    # --- wPAXOS on a geometric graph: churn and mobility ---------------
    for rate, point in zip(RATES, results["geometric-churn"].points):
        m = point.metrics
        _row(report, m, "edge-churn", rate)
        _tally(m)
    m = results["random-waypoint"].points[0].metrics
    _row(report, m, "random-waypoint", "-")
    _tally(m)

    # --- wPAXOS under node churn (leave/rejoin with state reset) -------
    m = results["node-churn"].points[0].metrics
    _row(report, m, "node-churn", 0.05)
    _tally(m)

    # --- churn rate x n (zip-mode correlated axes) ---------------------
    series = results["rate-x-n"]
    latency_by_rate = {}
    for point in series.points:
        rate, (n, _seed) = point.key
        m = point.metrics
        conn = (m.extras or {}).get("connectivity") or {}
        report.add_row(
            f"clique({n})", "wpaxos", "edge-churn", rate,
            m.agreement, m.validity, m.termination, m.last_decision,
            conn.get("topologies"), conn.get("max_t_interval"))
        _tally(m)
        if m.last_decision is not None:
            latency_by_rate.setdefault(rate, []).append(
                m.last_decision)
    trend = {rate: round(sum(vals) / len(vals), 2)
             for rate, vals in latency_by_rate.items()}

    report.conclude(
        f"agreement and validity hold in all {decided + stalled} "
        f"cells, at every churn rate, for every algorithm and "
        f"dynamic -- churn may stall a protocol but never tricks it "
        f"into conflicting decisions", ok=safety_ok)
    report.conclude(
        f"liveness is the churn casualty: {decided} cells decided, "
        f"{stalled} stalled safe (quiescent deadlock -- the "
        f"message-driven retries the algorithms rely on cannot fire "
        f"once a flood wave misses a transient link; Two-Phase's "
        f"single-hop assumption and wPAXOS on sparse geometric "
        f"graphs are the main casualties). Mean decided wPAXOS "
        f"latency by churn rate: {trend}", ok=stalled < decided)
    return report
