"""E14 -- Consensus as a service: latency/throughput under load.

The paper's algorithms decide one instance; a deployment serves many
groups forever. This experiment drives the `repro.macsim.service`
stack -- closed-loop Zipf/lognormal workload, per-group slot batching,
one replicated wPAXOS log per group (a batch is one slot of it),
optional fork-per-core sharding -- across a groups x shards grid and
sweeps offered load (client population), reporting end-to-end p50/p99
request latency (virtual time units, i.e. multiples of F_ack) and
committed-request throughput.

What the table shows:

* **Latency grows with offered load at fixed capacity** -- queueing
  behind a group's in-flight slot dominates once arrivals outpace
  slot decision time. The ``queue p50`` / ``serve p50`` columns
  (request-span breakdown, PR 10) show it directly: the service
  component stays O(F_ack) -- a log's steady-state slot, its leader
  and trees built once -- while the queueing component absorbs the
  extra load.
* **A warm slot costs 2 F_ack** -- the leader's one broadcast
  carries the previous slot's decide, the slot's PROPOSE and the next
  slot's PREPARE, the followers' one round of answers carries their
  accepted and the next promise, and a slot ends at its first commit:
  ``serve p50`` is at most 2.00 in every 5-clique cell.
* **Multi-hop groups** -- on line(5) and grid(3x3) the responses route
  up the leader's tree and the proposal is relayed, and a warm slot
  costs at most ``D + 2`` F_ack (``D`` the diameter).
* **Sharding is exact** -- the same (groups, clients) cell run on 1
  shard and on many produces the *same* latency sample (the workload
  derives every client from the seed alone), so shard count is purely
  a wall-clock knob.
* **Every slot verified** -- at every slot's end each replica's newly
  learned entries must equal the slots' batches of request ids, and at
  the end of the run every log is flushed, drained and compared whole.
"""

from __future__ import annotations

from ..analysis.service_stats import reduce_spans
from ..macsim.service import run_service
from ..scenario import AlgorithmSpec, Scenario, SchedulerSpec, TopologySpec
from .common import ExperimentReport

#: (groups, shards) capacity grid.
GRID = ((1, 1), (4, 1), (4, 2), (8, 2))
#: Offered load sweep: closed-loop client population.
LOADS = (40, 120, 240)
#: Proposals each closed-loop client makes.
REQUESTS_PER_CLIENT = 2
#: Seed of the workload's arrival draws.
WORKLOAD_SEED = 0
#: Ceiling on every 5-clique cell's ``serve p50`` (F_ack): a warm
#: slot of the log, one leader broadcast and one round of answers.
SERVE_P50_BOUND = 2.0
#: Multi-hop groups, one cell each (1 group, 1 shard, ``LOADS[0]``
#: clients): their ``serve p50`` is at most ``D + 2`` F_ack.
MULTIHOP = (TopologySpec("line", n=5), TopologySpec("grid", rows=3, cols=3))

#: Every group's log, in every 5-clique cell.
BASE = Scenario(
    algorithm=AlgorithmSpec("wpaxos"),
    topology=TopologySpec("clique", n=5),
    scheduler=SchedulerSpec("synchronous", f_ack=1.0),
    seed=0)


def run() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E14",
        title="Consensus as a service: p50/p99 latency and throughput "
              "vs offered load",
        paper_claim=("service regime (cf. Newport-Robinson "
                     "arXiv:1810.02848): multiplexed groups keep "
                     "deciding under sustained load; latency = "
                     "queueing + O(F_ack) decision time"),
        headers=["topology", "D", "groups", "shards", "clients",
                 "requests", "p50", "p99", "queue p50", "serve p50",
                 "throughput", "slots", "req/slot"],
    )

    def cell(base, groups, shards, clients):
        # trace_requests splits each cell's latency into queueing
        # (enqueue -> batch admission) vs service (slot execution) --
        # virtual time, zero effect on the measured results (the
        # tracer only annotates).
        rep = run_service(
            base, groups=groups, clients=clients, shards=shards,
            seed=WORKLOAD_SEED, requests_per_client=REQUESTS_PER_CLIENT,
            trace_requests=True)
        latency = rep.latency
        breakdown = reduce_spans(rep.tracing)["breakdown"]
        serve_p50 = breakdown["service"].get("p50", 0.0)
        report.add_row(
            _label(base.topology), base.topology.build().diameter(),
            groups, shards, clients,
            rep.requests, round(latency.get("p50", 0.0), 2),
            round(latency.get("p99", 0.0), 2),
            round(breakdown["queueing"].get("p50", 0.0), 2),
            round(serve_p50, 2), round(rep.throughput, 3), rep.slots,
            round(rep.requests / rep.slots if rep.slots else 0.0, 2))
        return rep, serve_p50

    by_cell = {}
    serve_p50s = []
    for groups, shards in GRID:
        for clients in LOADS:
            rep, serve_p50 = cell(BASE, groups, shards, clients)
            serve_p50s.append(serve_p50)
            by_cell[(groups, shards, clients)] = rep
    multihop = []
    for topology in MULTIHOP:
        rep, serve_p50 = cell(BASE.override({"topology": topology}), 1, 1,
                              LOADS[0])
        multihop.append((_label(topology), topology.build().diameter(),
                         serve_p50, rep))

    # A slot fails when it misses its budget or a replica's log is not
    # exactly the slots' batches: none may.
    reports = list(by_cell.values()) + [rep for *_, rep in multihop]
    report.conclude(f"every slot verified: all "
                    f"{sum(r.requests for r in reports)} "
                    f"requests committed over "
                    f"{sum(r.slots for r in reports)} slots, "
                    f"every log equal at the end, "
                    f"{sum(r.failed for r in reports)} failed",
                    ok=not any(r.failed for r in reports))
    worst = max(serve_p50s)
    report.conclude(f"warm slots: serve p50 <= {SERVE_P50_BOUND:.2f} "
                    f"F_ack in every 5-clique cell (worst {worst:.2f})",
                    ok=worst <= SERVE_P50_BOUND)
    report.conclude(
        "multi-hop slots: serve p50 <= D + 2 F_ack on "
        + ", ".join(f"{label} (D = {d}: {p50:.2f})"
                    for label, d, p50, _ in multihop),
        ok=all(p50 <= d + 2 for _, d, p50, _ in multihop))

    # Sharding exactness: same (groups, clients) cell across shard
    # counts must produce the same latency sample.
    shard_counts = {}
    for (groups, shards, clients) in by_cell:
        shard_counts.setdefault((groups, clients), []).append(shards)
    compared = 0
    exact = True
    for (groups, clients), counts in sorted(shard_counts.items()):
        if len(counts) < 2:
            continue
        baseline = by_cell[(groups, counts[0], clients)]
        for shards in counts[1:]:
            other = by_cell[(groups, shards, clients)]
            compared += 1
            if sorted(baseline.latencies) != sorted(other.latencies):
                exact = False
    if compared:
        report.conclude(
            f"sharding is exact: {compared} cross-shard cell pair(s) "
            f"have identical latency samples", ok=exact)

    # Queueing: at fixed capacity, mean latency grows with offered
    # load (closed-loop clients pile up behind in-flight slots).
    monotone_cells = 0
    for groups, shards in GRID:
        means = [by_cell[(groups, shards, clients)].latency.get(
                     "mean", 0.0)
                 for clients in sorted(LOADS)
                 if (groups, shards, clients) in by_cell]
        if len(means) >= 2 and means[-1] > means[0]:
            monotone_cells += 1
    report.conclude(
        f"latency rises with offered load in {monotone_cells}/"
        f"{len(GRID)} capacity cells (queueing regime reached)",
        ok=monotone_cells >= max(1, len(GRID) // 2))

    return report


def _label(topology: TopologySpec) -> str:
    """``clique(5)``, ``line(5)``, ``grid(3x3)``."""
    size = "x".join(str(value) for value in topology.params.values())
    return f"{topology.name}({size})"
