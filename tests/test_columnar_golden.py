"""Cross-commit golden chunk bytes for the columnar sink.

The columnar twin of ``tests/test_wpaxos_golden.py``. The in-tree pins
compare two paths of one commit (columnar vs JSONL, sliced vs
unsliced), so a change to the engine's delivery loop or to
``ColumnarSink.record`` that moves both sides passes them. These
digests were generated on the commit before the per-broadcast payload
text and the tight delivery-batch loop (PR 13, 57f7cfd) and are
committed: a run whose ``.colb`` files differ in any byte -- a row, an
intern-table entry or its position, a chunk boundary -- fails here.
Each run is pinned unsliced and in ``max_events`` slices that cut
delivery batches mid-way, which must write the very same files.

The digest covers the compressed bytes, so it also assumes stock
zlib's level-1 deflate stream (generated with zlib 1.2.13).

Regenerate only for an intended format or behaviour change:
``PYTHONPATH=src:. python tests/test_columnar_golden.py``.
"""

import hashlib

import pytest

from repro.core.byzantine import ByzantineConsensus
from repro.core.wpaxos import WPaxosConfig, WPaxosNode
from repro.macsim import (ByzantineFaultModel, ByzantinePlan,
                          ColumnarSink, CorruptStrategy, Process,
                          build_simulation)
from repro.macsim.schedulers import (RandomDelayScheduler,
                                     SynchronousScheduler)
from repro.topology import clique, grid

CHUNK_RECORDS = 5000
#: ``None`` runs to completion in one call; 777 is coprime to every
#: batch size here, so slices end inside batches.
SLICES = (None, 777)


class Flood(Process):
    """``rounds`` back-to-back broadcasts, then decide 0."""

    def __init__(self, uid, rounds):
        super().__init__(uid=uid, initial_value=uid % 2)
        self.rounds = rounds
        self.sent = 0

    def on_start(self):
        self._next()

    def on_ack(self):
        self._next()

    def _next(self):
        if self.sent < self.rounds:
            self.sent += 1
            self.broadcast(("m", self.uid, self.sent, self.initial_value))
        elif not self.decided:
            self.decide(0)


def _flood():
    graph = clique(24)
    return graph, (lambda v: Flood(v, 30)), SynchronousScheduler(1.0), None


def _wpaxos():
    graph = grid(5, 5)
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return (graph,
            lambda v: WPaxosNode(uid[v], uid[v] % 2, graph.n,
                                 WPaxosConfig()),
            RandomDelayScheduler(1.0, seed=3), None)


def _byzantine():
    graph = clique(16)
    model = ByzantineFaultModel(
        [ByzantinePlan(node=0, strategy=CorruptStrategy()),
         ByzantinePlan(node=5, strategy=CorruptStrategy(), seed=1),
         ByzantinePlan(node=10, strategy=CorruptStrategy(value=1))])
    return (graph,
            lambda v: ByzantineConsensus(v + 1, v % 2, graph.n, 3,
                                         seed=v),
            SynchronousScheduler(1.0), model)


CASES = {
    "flood-clique24-synchronous": _flood,
    "wpaxos-grid5x5-random": _wpaxos,
    "byzantine-corrupt-clique16-synchronous": _byzantine,
}

#: case -> (records, sha256 of the concatenated ``.colb`` files).
GOLDEN = {
    "flood-clique24-synchronous": (18024,
        "d7672e1cb923a7305458048bcbd47f80baddbe9913d1aa7bf75f62aa70869abc"),
    "wpaxos-grid5x5-random": (3767,
        "faf5d8daf43ebc638d9550b0c92eb5c1d0ef44cee65924f0945e86022ef68425"),
    "byzantine-corrupt-clique16-synchronous": (2128,
        "ece74dcd06148ffc5a10cb08e1e4b2974b45eb81e596a6ce66f0ae9f2cfc5511"),
}


def chunk_digest(name, slice_events, directory):
    graph, factory, scheduler, fault_model = CASES[name]()
    sink = ColumnarSink(str(directory), chunk_records=CHUNK_RECORDS)
    sim = build_simulation(graph, factory, scheduler,
                           fault_model=fault_model, trace_sink=sink)
    if slice_events is None:
        result = sim.run(max_time=500.0)
    else:
        while True:
            result = sim.run(max_events=slice_events, max_time=500.0)
            if result.stop_reason != "max_events":
                break
    assert result.stop_reason in ("all_decided", "quiescent",
                                  "quiescent_all_decided"), \
        result.stop_reason
    sink.close()
    digest = hashlib.sha256()
    for path in sink.chunk_paths():
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return len(sink), digest.hexdigest()


@pytest.mark.parametrize("slice_events", SLICES,
                         ids=["unsliced", "sliced777"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_chunk_bytes_match_committed_digest(name, slice_events, tmp_path):
    assert chunk_digest(name, slice_events, tmp_path) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            records, digest = chunk_digest(name, None, tmp)
        print(f'    "{name}": ({records},\n        "{digest}"),')
