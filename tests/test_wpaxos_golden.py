"""Cross-commit golden traces for wPAXOS.

The byte-identity pins elsewhere compare two paths inside one tree
(batched vs per-receiver, memory vs spill, serial vs sharded), so an
edit to a wPAXOS handler or the broadcast path that moves *both* sides
passes them. These digests were generated on the commit before the
broadcast-path diet (PR 12, 20c27ed) and are committed: a FULL-level
trace that differs in any record -- time, kind, node, broadcast id,
peer or payload repr -- fails here (``helpers.trace_digest``: sha256 of
the trace's inline JSON document).

Regenerate only for an intended behaviour change:
``PYTHONPATH=src:. python tests/test_wpaxos_golden.py``.
"""

import pytest

from repro.scenario import (AlgorithmSpec, Scenario, SchedulerSpec,
                            TopologySpec)
from tests.helpers import trace_digest

SCENARIOS = {
    "clique5-synchronous": (TopologySpec("clique", n=5),
                            SchedulerSpec("synchronous", f_ack=1.0)),
    "grid5x5-random": (TopologySpec("grid", rows=5, cols=5),
                       SchedulerSpec("random", f_ack=1.0)),
    "star-of-cliques4x6-synchronous": (
        TopologySpec("star-of-cliques", arms=4, size=6),
        SchedulerSpec("synchronous", f_ack=1.0)),
}

#: (scenario, seed) -> (FULL-trace records, ``trace_digest``).
#: The synchronous scenarios draw nothing from the seed, so their two
#: rows also pin that the seed reaches only the scheduler.
GOLDEN = {
    ("clique5-synchronous", 0): (188,
        "aa17f1614a41e306cf05b2b0c8632cc01ac83a0965308604798f139f9dec6ea6"),
    ("clique5-synchronous", 1): (188,
        "aa17f1614a41e306cf05b2b0c8632cc01ac83a0965308604798f139f9dec6ea6"),
    ("grid5x5-random", 0): (3749,
        "ca2765321d2b6b3917fb50a8f3a3e584386816c820ed0b0182a0d23d4eb72482"),
    ("grid5x5-random", 1): (3584,
        "821f861d28cf3b9d86caffde0446008b8701d0ed6dc251eee2f77fcce6b6811a"),
    ("star-of-cliques4x6-synchronous", 0): (4623,
        "ac47681448fabe082dd158d5450d91e80ff3d9b016dc24fbc457c097deb2ac3b"),
    ("star-of-cliques4x6-synchronous", 1): (4623,
        "ac47681448fabe082dd158d5450d91e80ff3d9b016dc24fbc457c097deb2ac3b"),
}


def full_trace_digest(name: str, seed: int):
    topology, scheduler = SCENARIOS[name]
    scenario = Scenario(algorithm=AlgorithmSpec("wpaxos"),
                        topology=topology, scheduler=scheduler,
                        seed=seed, trace_level="full")
    result = scenario.simulate()
    assert result.all_decided, result.stop_reason
    return len(result.trace), trace_digest(result.trace)


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_full_trace_matches_committed_digest(name, seed):
    assert full_trace_digest(name, seed) == GOLDEN[(name, seed)]


def test_every_scenario_is_pinned_on_two_seeds():
    assert sorted(GOLDEN) == sorted((name, seed) for name in SCENARIOS
                                    for seed in (0, 1))


if __name__ == "__main__":
    for name in SCENARIOS:
        for seed in (0, 1):
            records, digest = full_trace_digest(name, seed)
            print(f'    ("{name}", {seed}): ({records},\n'
                  f'        "{digest}"),')
