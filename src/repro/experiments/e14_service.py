"""E14 -- Consensus as a service: latency/throughput under load.

The paper's algorithms decide one instance; a deployment serves many
groups forever. This experiment drives the `repro.macsim.service`
stack -- closed-loop Zipf/lognormal workload, per-group slot batching,
multiplexed engines, optional fork-per-core sharding -- across a
groups x shards grid and sweeps offered load (client population),
reporting end-to-end p50/p99 request latency (virtual time units,
i.e. multiples of F_ack) and committed-request throughput.

What the table shows:

* **Latency grows with offered load at fixed capacity** -- queueing
  behind a group's in-flight slot dominates once arrivals outpace
  slot decision time. The ``queue p50`` / ``serve p50`` columns
  (request-span breakdown, PR 10) show it directly: the service
  component stays O(F_ack) while the queueing component absorbs the
  extra load.
* **Sharding is exact** -- the same (groups, clients) cell run on 1
  shard and on many produces the *same* latency sample (the workload
  derives every client from the seed alone), so shard count is purely
  a wall-clock knob.
* **Determinism anchor** -- the 1-group service's first slot is
  byte-identical to ``BASE.simulate()`` (the acceptance pin).
"""

from __future__ import annotations

from ..analysis.export import trace_to_json
from ..analysis.service_stats import reduce_spans
from ..macsim.service import ConsensusService, WorkloadGenerator, run_service
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

#: Per-slot consensus configuration every service cell derives from.
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
        headers=["groups", "shards", "clients", "requests", "p50",
                 "p99", "queue p50", "serve p50", "throughput",
                 "slots", "req/slot"],
    )

    # Determinism anchor: slot (group 0, slot 0) of a 1-group service
    # is the base scenario itself, byte for byte.
    workload = WorkloadGenerator(groups=1, clients=min(LOADS),
                                 seed=WORKLOAD_SEED,
                                 requests_per_client=REQUESTS_PER_CLIENT)
    probe = ConsensusService(BASE, workload, capture_first_slot=True)
    probe.run()
    identical = (trace_to_json(probe.first_slot_trace)
                 == trace_to_json(BASE.simulate().trace))
    report.conclude(
        "1-group service slot 0 trace byte-identical to "
        "BASE.simulate()", ok=identical)

    failures = 0
    by_cell = {}
    for groups, shards in GRID:
        for clients in LOADS:
            # trace_requests splits each cell's latency into
            # queueing (enqueue -> batch admission) vs service
            # (slot execution) -- virtual time, zero effect on the
            # measured results (the tracer only annotates).
            rep = run_service(
                BASE, groups=groups, clients=clients, shards=shards,
                seed=WORKLOAD_SEED,
                requests_per_client=REQUESTS_PER_CLIENT,
                trace_requests=True)
            failures += rep.failed
            latency = rep.latency
            breakdown = reduce_spans(rep.tracing)["breakdown"]
            req_per_slot = (rep.requests / rep.slots
                            if rep.slots else 0.0)
            report.add_row(
                groups, shards, clients, rep.requests,
                round(latency.get("p50", 0.0), 2),
                round(latency.get("p99", 0.0), 2),
                round(breakdown["queueing"].get("p50", 0.0), 2),
                round(breakdown["service"].get("p50", 0.0), 2),
                round(rep.throughput, 3),
                rep.slots, round(req_per_slot, 2))
            by_cell[(groups, shards, clients)] = rep

    report.conclude(f"all {sum(r.requests for r in by_cell.values())} "
                    f"requests committed, 0 failed slots",
                    ok=failures == 0)

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
