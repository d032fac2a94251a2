"""Shared helpers for the test suite."""

from __future__ import annotations

import hashlib

from repro.analysis.export import trace_to_json
from repro.analysis.runner import alternating_values
from repro.macsim import (build_simulation, check_consensus,
                          check_model_invariants)
from repro.macsim.schedulers import DeliveryPlan, Scheduler


def run_and_check(graph, factory, scheduler, *, initial_values=None,
                  max_events=20_000_000, max_time=None,
                  expect_correct=True):
    """Run a consensus simulation and assert model + consensus props.

    Returns (RunResult, ConsensusReport) for further assertions.
    """
    values = initial_values or alternating_values(graph)
    sim = build_simulation(graph, lambda v: factory(v, values[v]),
                           scheduler)
    result = sim.run(max_events=max_events, max_time=max_time)
    invariants = check_model_invariants(graph, result.trace,
                                        scheduler.f_ack)
    assert invariants.ok, invariants.violations[:5]
    report = check_consensus(result.trace, values)
    if expect_correct:
        assert report.agreement, f"agreement violated: {report.decisions}"
        assert report.validity
        assert report.termination, f"undecided: {report.undecided[:5]}"
    return result, report


def trace_digest(trace) -> str:
    """sha256 of the trace's inline JSON document (the byte-identity
    unit of the A/B pins), for goldens committed across commits."""
    return hashlib.sha256(trace_to_json(trace).encode()).hexdigest()


def per_receiver_delivery_order(graph, trace, scheduler):
    """Reference model of delivery order for a crash-free FULL trace.

    One heap entry per (broadcast, neighbor), ordered by (time,
    broadcast order, plan order) -- what the engine's batched
    ``bdeliver`` scheduling must reproduce exactly. ``scheduler`` is a
    fresh twin of the run's scheduler: replaying the trace's broadcasts
    in order redraws the same plans. Returns ``(time, receiver, bid)``
    triples; a run that stopped early delivered a prefix of them.
    """
    expected = []
    for index, rec in enumerate(trace.of_kind("broadcast")):
        plan = scheduler.plan(sender=rec.node, message=rec.payload,
                              start_time=rec.time,
                              neighbors=tuple(graph.neighbors(rec.node)))
        expected.extend(
            (when, index, position, receiver, rec.broadcast_id)
            for position, (receiver, when)
            in enumerate(plan.deliveries.items()))
    expected.sort()
    return [(when, receiver, bid)
            for when, _, _, receiver, bid in expected]


def delivered_order(trace):
    return [(rec.time, rec.node, rec.broadcast_id)
            for rec in trace.of_kind("deliver")]


class AckFirstScheduler(Scheduler):
    """Acks at +0.5; reliable deliveries land ``late`` after the start
    and unreliable ones 1e-9 after the ack (the edge of the dual-graph
    window, which sorts after the ack -- and after whatever the sender
    broadcasts from ``on_ack``)."""

    f_ack = 1.0

    def __init__(self, late):
        self.late = late

    def plan(self, *, sender, message, start_time, neighbors):
        return DeliveryPlan(
            deliveries={v: start_time + self.late for v in neighbors},
            ack_time=start_time + 0.5)

    def plan_unreliable(self, *, sender, message, start_time, ack_time,
                        neighbors):
        return {v: ack_time + 1e-9 for v in neighbors}
