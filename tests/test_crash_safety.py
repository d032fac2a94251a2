"""Crash-safety property tests.

Theorem 3.2 says one crash can destroy *termination*; nothing ever
licenses an algorithm to lose *agreement* or *validity*. These
hypothesis tests inject randomized crash plans (timing, victim,
partial-delivery subsets) into every algorithm and assert that safety
survives even where liveness does not.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (BenOrConsensus, GatherAllConsensus,
                        TwoPhaseConsensus, WPaxosConfig, WPaxosNode)
from repro.macsim import CrashFaultModel, CrashPlan, build_simulation, \
    check_consensus, check_model_invariants
from repro.macsim.schedulers import RandomDelayScheduler
from repro.topology import clique, random_connected

SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def random_crashes(rng, nodes, count):
    plans = []
    victims = rng.sample(list(nodes), min(count, len(nodes)))
    for victim in victims:
        when = rng.uniform(0.0, 8.0)
        others = [v for v in nodes if v != victim]
        survivors = frozenset(rng.sample(
            others, rng.randint(0, len(others))))
        plans.append(CrashPlan(victim, when,
                               still_delivered=survivors))
    return plans


def run_with_crashes(graph, factory, seed, crash_count):
    rng = random.Random(seed)
    values = {v: rng.randint(0, 1) for v in graph.nodes}
    crashes = random_crashes(rng, graph.nodes, crash_count)
    scheduler = RandomDelayScheduler(1.0, seed=seed)
    sim = build_simulation(graph,
                           lambda v: factory(v, values[v]),
                           scheduler, fault_model=CrashFaultModel(crashes))
    result = sim.run(max_events=2_000_000, max_time=2_000.0)
    invariants = check_model_invariants(graph, result.trace,
                                        scheduler.f_ack)
    assert invariants.ok, invariants.violations[:5]
    return check_consensus(result.trace, values)


@given(n=st.integers(2, 9), seed=st.integers(0, 10 ** 6),
       crash_count=st.integers(1, 2))
@settings(**SETTINGS)
def test_two_phase_safety_survives_crashes(n, seed, crash_count):
    report = run_with_crashes(
        clique(n), lambda v, val: TwoPhaseConsensus(v + 1, val),
        seed, crash_count)
    assert report.agreement
    assert report.validity
    # termination may legitimately fail: that IS Theorem 3.2.


@given(n=st.integers(2, 9), seed=st.integers(0, 10 ** 6))
@settings(**SETTINGS)
def test_gatherall_safety_survives_crashes(n, seed):
    report = run_with_crashes(
        clique(n),
        lambda v, val: GatherAllConsensus(v + 1, val, n), seed, 1)
    assert report.agreement
    assert report.validity


@given(n=st.integers(3, 10), topo_seed=st.integers(0, 10 ** 4),
       seed=st.integers(0, 10 ** 6))
@settings(**SETTINGS)
def test_wpaxos_safety_survives_crashes(n, topo_seed, seed):
    # wPAXOS assumes no crashes for liveness (Theorem 3.2 forces
    # that); its PAXOS core must still never violate safety.
    graph = random_connected(n, 0.2, seed=topo_seed)
    report = run_with_crashes(
        graph,
        lambda v, val: WPaxosNode(graph.index_of(v) + 1, val, n,
                                  WPaxosConfig()),
        seed, 1)
    assert report.agreement
    assert report.validity


@given(n=st.integers(3, 9), seed=st.integers(0, 10 ** 6))
@settings(**SETTINGS)
def test_benor_safety_survives_excess_crashes(n, seed):
    # Even beyond its resilience bound, Ben-Or must stay safe.
    f = (n - 1) // 2
    report = run_with_crashes(
        clique(n),
        lambda v, val: BenOrConsensus(v + 1, val, n, f,
                                      seed=seed + v),
        seed, 2)
    assert report.agreement
    assert report.validity
