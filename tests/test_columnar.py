"""PR 6 columnar trace engine tests: chunk codec round-trips (numpy
and pure-python), ColumnarSink behaviour + reopen (``load``), loud
disk budgets (``SpillBudgetError``), the columnar<->FULL equivalence
property (invariant verdicts, RunMetrics and decision sequences across
static / crash-fault / churn traces), vectorized-vs-reference
invariant verdicts on crafted malformed traces, schema-v6 export
round-trips and CLI replay."""

import json
import os
import random
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import collect_metrics, run_consensus
from repro.analysis.export import (iter_saved_records, load_metadata,
                                   load_scenario, load_trace, save_trace,
                                   trace_to_records)
from repro.cli import main as cli_main
from repro.core import TwoPhaseConsensus
from repro.macsim import (ByzantineFaultModel, ByzantinePlan,
                          ColumnarSink, CorruptStrategy, CrashFaultModel,
                          CrashPlan, EdgeChurn, EquivocateStrategy,
                          Process, SpillBudgetError, TraceLevel,
                          build_simulation, check_model_invariants,
                          make_sink)
from repro.macsim import columnar as columnar_mod
from repro.macsim.columnar import (ColumnarChunk, _pack_label,
                                   decode_chunk, encode_chunk, have_numpy,
                                   try_vectorized_invariants)
from repro.macsim.schedulers import (RandomDelayScheduler,
                                     SynchronousScheduler)
from repro.macsim.trace import TRACE_KINDS, TraceRecord, TraceSink
from repro.scenario import (AlgorithmSpec, Scenario, SchedulerSpec,
                            TopologySpec)
from repro.topology import Graph, clique, line
from tests.helpers import AckFirstScheduler

SETTINGS = dict(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _fill(sink, records):
    for time, kind, node, bid, peer, payload in records:
        sink.record(time, kind, node, broadcast_id=bid, peer=peer,
                    payload=payload)


def _sample_records():
    return [
        (0.0, "broadcast", 0, 0, None, ("m", 0)),
        (0.25, "deliver", 1, 0, 0, ("m", 0)),
        (0.5, "deliver", (2, "x"), 0, 0, ("m", 0)),
        (1.0, "ack", 0, 0, None, None),
        (1.5, "decide", 1, None, None, 7),
        (2.0, "crash", (2, "x"), None, None, None),
    ]


def _tuples(records):
    return [(r.time, r.kind, r.node, r.broadcast_id, r.peer, r.payload)
            for r in records]


def _jsonl_bytes(trace):
    """Bytes of ``trace`` as JSON lines -- a header line, then arrays
    of up to 50 000 record dicts -- the size of the ``jsonl-chunks``
    export earlier versions wrote, which the size bounds are against."""
    header = {"schema": 6, "format": "jsonl-chunks", "metadata": {},
              "crashes": [], "scenario": None}
    records = trace_to_records(trace)
    lines = [json.dumps(header)] + [json.dumps(records[i:i + 50_000])
                                    for i in range(0, len(records), 50_000)]
    return sum(len(line) + 1 for line in lines)


# ----------------------------------------------------------------------
# Chunk codec
# ----------------------------------------------------------------------
class TestChunkCodec:
    def _encode_sample(self, bid_offset=0):
        labels = [0, 1, (2, "x")]
        payloads = [repr(("m", 0))]
        times = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
        kinds = bytearray(
            TRACE_KINDS.index(k) for k in
            ("broadcast", "deliver", "deliver", "ack", "decide",
             "crash"))
        bid = bid_offset
        bids = [bid, bid, bid, bid, -1, -1]
        nodes = [0, 1, 2, 0, 1, 2]
        peers = [-1, 0, 0, -1, -1, -1]
        payload_idx = [0, 0, 0, -1, -1, -1]
        blob = encode_chunk(times, kinds, nodes, bids, peers,
                            payload_idx,
                            [_pack_label(v) for v in labels], payloads)
        return blob, times

    def test_round_trip(self):
        blob, times = self._encode_sample()
        chunk = decode_chunk(blob)
        assert chunk.n == 6
        records = list(chunk.records())
        assert [r.time for r in records] == times
        assert records[0].payload == repr(("m", 0))
        assert records[2].node == (2, "x")
        assert records[3].broadcast_id == 0
        assert records[3].payload is None
        assert records[4].broadcast_id is None

    def test_wide_broadcast_ids(self):
        wide = 2 ** 40 + 3
        blob, _ = self._encode_sample(bid_offset=wide)
        narrow, _ = self._encode_sample()
        assert len(blob) >= len(narrow)  # i8 column, flagged
        records = list(decode_chunk(blob).records())
        assert records[0].broadcast_id == wide
        assert records[3].broadcast_id == wide

    def test_pure_python_decode_matches_numpy(self, monkeypatch):
        blob, _ = self._encode_sample()
        with_np = _tuples(decode_chunk(blob).records())
        monkeypatch.setattr(columnar_mod, "np", None)
        assert not have_numpy()
        assert _tuples(decode_chunk(blob).records()) == with_np

    def test_corrupt_magic_rejected(self):
        blob, _ = self._encode_sample()
        with pytest.raises(ValueError):
            decode_chunk(b"XXXX" + blob[4:])


# ----------------------------------------------------------------------
# ColumnarSink
# ----------------------------------------------------------------------
class TestColumnarSink:
    def test_chunking_len_and_replay(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"), chunk_records=10)
        for i in range(35):
            sink.record(float(i), "deliver", i % 4, broadcast_id=i,
                        peer=(i + 1) % 4, payload=("m", i))
        assert len(sink.chunk_paths()) == 3
        assert len(sink) == 35
        sink.close()
        assert len(sink.chunk_paths()) == 4
        records = list(sink)
        assert [r.broadcast_id for r in records] == list(range(35))
        assert records[0].payload == repr(("m", 0))
        assert os.path.exists(str(tmp_path / "c" / "manifest.json"))

    def test_essential_kinds_keep_original_payloads(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"))
        value = ("decision", 1)
        sink.record(1.0, "decide", 0, payload=value)
        sink.record(2.0, "crash", 1)
        assert sink.decisions() == {0: value}
        assert sink.decisions()[0] is value
        assert sink.of_kind("decide")[0].payload is value
        assert sink.decision_times() == {0: 1.0}
        assert sink.crashed_nodes() == {1}
        assert [r.payload for r in sink if r.kind == "decide"] \
            == [repr(value)]

    def test_tuple_labels_round_trip(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"))
        sink.record(0.0, "deliver", (1, 2), broadcast_id=0,
                    peer=(0, 0), payload="x")
        sink.close()
        rec = next(iter(sink))
        assert rec.node == (1, 2)
        assert rec.peer == (0, 0)
        assert sink.for_node((1, 2)) == [rec]

    def test_unknown_kind_rejected(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"))
        with pytest.raises(ValueError):
            sink.record(0.0, "nope", 0)

    def test_owned_tempdir_cleanup(self):
        sink = ColumnarSink(chunk_records=2)
        for i in range(5):
            sink.record(float(i), "ack", 0, broadcast_id=i)
        sink.close()
        directory = sink.directory
        assert os.path.isdir(directory)
        sink.cleanup()
        assert not os.path.isdir(directory)

    def test_make_sink_and_trace_level(self, tmp_path):
        sink = make_sink("columnar", directory=str(tmp_path / "c"))
        assert isinstance(sink, ColumnarSink)
        assert sink.level is TraceLevel.COLUMNAR
        assert sink.replayable and sink.columnar
        sink.close()

    def test_run_consensus_checks_invariants_on_columnar(self, tmp_path):
        graph = clique(6)
        metrics = run_consensus(
            algorithm="two-phase", topology="clique(6)", graph=graph,
            scheduler=SynchronousScheduler(1.0),
            factory=lambda v, val: TwoPhaseConsensus(v + 1, val),
            trace_sink=ColumnarSink(str(tmp_path / "c"),
                                    chunk_records=64))
        assert metrics.correct
        assert metrics.broadcasts > 0

    def test_scenario_trace_level_columnar(self):
        metrics = Scenario(
            algorithm=AlgorithmSpec("two-phase"),
            topology=TopologySpec("clique", n=5),
            scheduler=SchedulerSpec("synchronous"),
            seed=3, trace_level="columnar").run()
        assert metrics.correct

    def _closed_run_sink(self, tmp_path, chunk_records=64):
        graph = clique(5)
        sink = ColumnarSink(str(tmp_path / "c"),
                            chunk_records=chunk_records)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0), trace_sink=sink)
        sim.run(max_events=100_000, max_time=100.0)
        sink.close()
        return graph, sink

    def test_load_reopens_everything(self, tmp_path):
        graph, sink = self._closed_run_sink(tmp_path)
        reopened = ColumnarSink.load(str(tmp_path / "c"))
        assert len(reopened) == len(sink)
        assert reopened.spilled_bytes() == sink.spilled_bytes()
        assert reopened.decision_times() == sink.decision_times()
        assert reopened.broadcasts_per_node() \
            == sink.broadcasts_per_node()
        for kind in TRACE_KINDS:
            assert reopened.count_of_kind(kind) \
                == sink.count_of_kind(kind), kind
        assert _tuples(reopened) == _tuples(sink)
        # Reopened decisions follow the export convention: payloads
        # come back as repr strings.
        assert reopened.decisions() == {
            node: repr(value) for node, value in
            sink.decisions().items()}
        assert check_model_invariants(graph, reopened, 1.0).ok

    def test_load_without_manifest_uses_glob(self, tmp_path):
        _, sink = self._closed_run_sink(tmp_path)
        os.remove(str(tmp_path / "c" / "manifest.json"))
        reopened = ColumnarSink.load(str(tmp_path / "c"))
        assert len(reopened) == len(sink)
        assert _tuples(reopened) == _tuples(sink)

    def test_load_of_a_missing_directory_raises(self, tmp_path):
        # A mistyped path must not load as an empty trace, nor leave a
        # new empty directory behind.
        missing = tmp_path / "no-such-trace"
        with pytest.raises(FileNotFoundError, match="no-such-trace"):
            ColumnarSink.load(str(missing))
        assert not missing.exists()

    def test_load_index_rebuild_pure_python(self, tmp_path, monkeypatch):
        _, sink = self._closed_run_sink(tmp_path)
        monkeypatch.setattr(columnar_mod, "np", None)
        reopened = ColumnarSink.load(str(tmp_path / "c"))
        assert len(reopened) == len(sink)
        assert reopened.decision_times() == sink.decision_times()
        assert reopened.broadcasts_per_node() \
            == sink.broadcasts_per_node()
        for kind in TRACE_KINDS:
            assert reopened.count_of_kind(kind) \
                == sink.count_of_kind(kind), kind

    def test_columnar_at_most_quarter_of_jsonl(self, tmp_path):
        # The acceptance bytes gate, pinned at test scale too: the
        # chunks against the same run's FULL trace as JSON lines.
        graph = clique(8)
        sinks = (make_sink("full"), ColumnarSink(str(tmp_path / "c"),
                                       chunk_records=256))
        for sink in sinks:
            sim = build_simulation(
                graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
                SynchronousScheduler(1.0), trace_sink=sink)
            sim.run(max_events=100_000, max_time=100.0)
            sink.close()
        full, col = sinks
        assert col.spilled_bytes() * 4 <= _jsonl_bytes(full)


# ----------------------------------------------------------------------
# Loud disk budgets (satellite: no silent truncation)
# ----------------------------------------------------------------------
class TestSpillBudget:
    # The index is read from the live sink, or from the prefix on disk
    # reopened the way a post-mortem would (no manifest: the run never
    # closed), with the numpy and the pure-python index rebuild.
    READERS = ["live", "reloaded", "reloaded-pure-python"]

    @staticmethod
    def _read_back(sink, reader, monkeypatch):
        if reader == "live":
            return sink
        assert not os.path.exists(
            os.path.join(sink.directory, "manifest.json"))
        if reader == "reloaded-pure-python":
            monkeypatch.setattr(columnar_mod, "np", None)
        return ColumnarSink.load(sink.directory)

    def test_budget_exceeded_raises_loudly(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "s"), chunk_records=50,
                            max_bytes=200)
        with pytest.raises(SpillBudgetError) as err:
            for i in range(10_000):
                sink.record(float(i), "deliver", i % 4,
                            broadcast_id=i, peer=(i + 1) % 4,
                            payload=("padding-payload", i))
        assert "budget" in str(err.value)
        # The spilled prefix stays on disk for post-mortems.
        assert sink.chunk_paths()
        assert all(os.path.exists(p) for p in sink.chunk_paths())

    @pytest.mark.parametrize("serialized", [False, True],
                             ids=["record", "append_serialized"])
    @pytest.mark.parametrize("kind", ["decide", "broadcast"])
    @pytest.mark.parametrize("reader", READERS)
    def test_budget_error_leaves_index_agreeing_with_chunks(
            self, tmp_path, monkeypatch, reader, kind, serialized):
        # The record whose flush blows the budget is on disk, so it
        # must be in the counters and the decision index too.
        sink = ColumnarSink(str(tmp_path / "s"), chunk_records=4,
                            max_bytes=10)
        with pytest.raises(SpillBudgetError):
            for i in range(10):
                if serialized:
                    sink.append_serialized(TraceRecord(
                        float(i), kind, i, i, None, repr(i)))
                else:
                    sink.record(float(i), kind, i, broadcast_id=i,
                                payload=i)
        sink = self._read_back(sink, reader, monkeypatch)
        counted = sum(sink.count_of_kind(k) for k in TRACE_KINDS)
        assert len(sink) == counted == len(list(sink)) == 4
        if kind == "decide":
            assert sink.decision_times() == {i: float(i)
                                             for i in range(4)}
            assert list(sink.decisions()) == [0, 1, 2, 3]
            assert len(sink.of_kind("decide")) == 4
        else:
            assert sink.broadcasts_per_node() == {i: 1 for i in range(4)}

    @pytest.mark.parametrize("reader", READERS)
    def test_budget_error_inside_a_run_leaves_index_agreeing(
            self, tmp_path, monkeypatch, reader):
        # The flush at the chunk boundary a run straddles raises: the
        # rows up to the boundary are on disk and counted, the rest of
        # the run was never written anywhere.
        sink = ColumnarSink(str(tmp_path / "s"), chunk_records=4,
                            max_bytes=10)
        sink.record(0.0, "broadcast", 0, broadcast_id=0, payload="m")
        with pytest.raises(SpillBudgetError):
            sink.record_deliveries(1.0, 0, 0, "m", (1, 2, 3, 4, 5, 6))
        sink = self._read_back(sink, reader, monkeypatch)
        counted = sum(sink.count_of_kind(k) for k in TRACE_KINDS)
        assert len(sink) == counted == len(list(sink)) == 4
        assert [r.node for r in sink] == [0, 1, 2, 3]
        assert sink.delivery_count() == 3

    def test_budget_not_hit_when_under(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "s"), chunk_records=8,
                            max_bytes=10_000_000)
        for i in range(100):
            sink.record(float(i), "ack", 0, broadcast_id=i)
        sink.close()
        assert 0 < sink.spilled_bytes() <= 10_000_000


# ----------------------------------------------------------------------
# Bounded memory: a full-level flood spills instead of growing
# ----------------------------------------------------------------------
class _Flood(Process):
    """Broadcasts ``rounds`` messages back to back, then decides 0."""

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
            self.broadcast(("m", self.uid, self.sent))
        elif not self.decided:
            self.decide(0)


class TestFloodSpillBounded:
    """A clique(12) flood at FULL level, 25 and 100 rounds (3 600 and
    14 400 events): Python heap held by ``sim.run`` + ``close`` stays
    flat as the trace grows 4x, the columnar trace passes the invariant
    audit, whose own heap stays flat too, and its chunks are a fraction
    of the same run's FULL trace as JSON lines."""

    ROUNDS = (25, 100)

    @staticmethod
    def _sim(graph, rounds, sink):
        return build_simulation(graph, lambda v: _Flood(v, rounds),
                                SynchronousScheduler(1.0),
                                trace_sink=sink, validate_plans=True)

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        graph = clique(12)
        out = {}
        for rounds in self.ROUNDS:
            directory = str(tmp_path_factory.mktemp("flood"))
            sink = ColumnarSink(directory, chunk_records=1000)
            sim = self._sim(graph, rounds, sink)
            tracemalloc.start()
            try:
                sim.run(max_events=1_000_000, max_time=rounds + 10.0)
                sink.close()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            report = check_model_invariants(graph, sink, 1.0)
            out[rounds] = (directory, sink, peak, report)
        return out

    def test_flood_spill_is_bounded(self, runs, tmp_path):
        small, large = (runs[rounds] for rounds in self.ROUNDS)
        directory, sink, peak, report = large
        assert peak <= 1.25 * small[2]
        assert report.ok, report.violations[:3]
        full = make_sink("full")
        self._sim(clique(12), self.ROUNDS[-1], full).run(
            max_events=1_000_000, max_time=self.ROUNDS[-1] + 10.0)
        assert len(full) == len(sink)
        assert sink.spilled_bytes() <= 0.25 * _jsonl_bytes(full)
        reopened = ColumnarSink.load(directory)
        assert len(reopened) == len(sink)
        assert reopened.broadcast_count() == sink.broadcast_count()
        assert reopened.delivery_count() == sink.delivery_count()
        assert reopened.decision_times() == sink.decision_times()

    @pytest.mark.skipif(not have_numpy(),
                        reason="vectorized checker needs numpy")
    def test_flood_audit_heap_is_flat(self, runs):
        # The vectorized audit holds the open broadcasts and one slice
        # of rows, not per-broadcast state for the whole trace. The
        # fixture has audited both runs once, so numpy and the
        # checker's imports are warm.
        graph = clique(12)
        peaks = []
        for rounds in self.ROUNDS:
            sink = runs[rounds][1]
            tracemalloc.start()
            try:
                report = check_model_invariants(graph, sink, 1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.ok, report.violations[:3]
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_flood_held_in_memory_is_compact(self):
        # FULL in RAM is the same typed columns, never spilled, with a
        # payload table of objects: ~33 B per row here, where a frozen
        # TraceRecord plus per-kind and per-node lists cost ~115.
        rounds = self.ROUNDS[-1]
        sink = make_sink("full")
        sim = self._sim(clique(12), rounds, sink)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim.run(max_events=1_000_000, max_time=rounds + 10.0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sink) == 15_612
        assert held <= 40 * len(sink), held / len(sink)

    def test_flood_spill_audit_pure_python(self, runs, monkeypatch):
        # The reference replay the pure-python leg runs over the
        # multi-chunk disk trace gives the vectorized verdict, and the
        # pure-python index rebuild the same counters.
        directory, sink, _, report = runs[self.ROUNDS[-1]]
        monkeypatch.setattr(columnar_mod, "np", None)
        reference = check_model_invariants(clique(12), sink, 1.0)
        assert reference.ok and report.ok
        assert reference.violations == report.violations
        reopened = ColumnarSink.load(directory)
        assert reopened.broadcast_count() == sink.broadcast_count()
        assert reopened.delivery_count() == sink.delivery_count()
        assert reopened.decision_times() == sink.decision_times()


# ----------------------------------------------------------------------
# Payload text is taken once per broadcast -- and never hides a
# substitution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Msg:
    """Forgeable payload (``forge_payload`` rewrites ``value``)."""

    origin: int
    value: object


class _Teller(Process):
    """Three back-to-back ``_Msg`` broadcasts."""

    def __init__(self, uid):
        super().__init__(uid=uid, initial_value=0)
        self.sent = 0

    def on_start(self):
        self.on_ack()

    def on_ack(self):
        if self.sent < 3:
            self.sent += 1
            self.broadcast(_Msg(self.uid, self.sent % 2))


def _as_text_rows(trace):
    """Replay rows with payloads as the sinks serialize them."""
    preserialized = trace.payloads_preserialized
    return [(r.time, r.kind, r.node, r.broadcast_id, r.peer,
             r.payload if preserialized or r.payload is None
             else repr(r.payload)) for r in trace]


def _mutated_bids(report):
    return sorted(int(v.split()[1]) for v in report.violations
                  if "delivered mutated payload" in v)


class TestPayloadTextMemo:
    def _byzantine_pair(self, strategy, tmp_path):
        graph = clique(4)
        runs = []
        for sink in (make_sink("full"),
                     ColumnarSink(str(tmp_path / "c"), chunk_records=16)):
            model = ByzantineFaultModel(
                [ByzantinePlan(node=0, strategy=strategy())])
            sim = build_simulation(graph, _Teller,
                                   SynchronousScheduler(1.0),
                                   fault_model=model, trace_sink=sink)
            sim.run(max_time=10.0)
            sink.close()
            runs.append((model, sink))
        return graph, runs

    @pytest.mark.parametrize("strategy", [
        CorruptStrategy, EquivocateStrategy,
        lambda: EquivocateStrategy({1: "x", 2: "y", 3: "z"}),
    ], ids=["corrupt", "equivocate", "equivocate-assigned"])
    def test_substitutions_are_flagged_at_columnar_as_at_full(
            self, strategy, tmp_path):
        graph, ((model, full), (_, col)) = self._byzantine_pair(
            strategy, tmp_path)
        # Forged payloads replay with their own text, not the
        # broadcast's.
        assert _as_text_rows(col) == _as_text_rows(full)
        forged = [r for r in col if r.kind == "deliver" and r.peer == 0]
        sent = {r.broadcast_id: r.payload for r in col
                if r.kind == "broadcast" and r.node == 0}
        assert len(forged) == 9
        assert any(r.payload != sent[r.broadcast_id] for r in forged)
        verdicts = []
        for trace in (full, col):
            scoped = check_model_invariants(
                graph, trace, 1.0, faulty=model.faulty_nodes())
            assert scoped.ok, scoped.violations[:5]
            unscoped = check_model_invariants(graph, trace, 1.0)
            assert not unscoped.ok
            verdicts.append(_mutated_bids(unscoped))
        assert verdicts[0] == verdicts[1] != []
        if have_numpy():
            assert _mutated_bids(try_vectorized_invariants(
                graph, col, 1.0)) == verdicts[0]

    def test_delivery_after_the_senders_next_broadcast_keeps_old_text(
            self, tmp_path):
        graph = line(3)  # reliable 0-1-2, unreliable chord 0-2
        chord = Graph([(0, 2)], nodes=graph.nodes)
        rows = []
        for sink in (make_sink("full"),
                     ColumnarSink(str(tmp_path / "c"), chunk_records=16)):
            sim = build_simulation(graph, _Teller,
                                   AckFirstScheduler(late=0.25),
                                   unreliable_graph=chord,
                                   trace_sink=sink)
            sim.run(max_time=10.0)
            sink.close()
            rows.append(_as_text_rows(sink))
        full, col = rows
        assert col == full
        first = next(r for r in col if r[1] == "broadcast" and r[2] == 0)
        second = next(i for i, r in enumerate(col)
                      if r[1] == "broadcast" and r[2] == 0
                      and r[3] != first[3])
        late = [r for r in col[second:]
                if r[1] == "deliver" and r[3] == first[3]]
        assert [(r[2], r[5]) for r in late] == [(2, first[5])]
        assert first[5] != col[second][5]

    def test_memo_is_bounded_by_the_node_count(self, tmp_path):
        graph = clique(8)

        class Flood(Process):
            def on_start(self):
                self.on_ack()

            def on_ack(self):
                self.broadcast(("m", self.uid, self.now()))

        sink = ColumnarSink(str(tmp_path / "c"), chunk_records=5000)
        sim = build_simulation(graph, lambda v: Flood(uid=v),
                               SynchronousScheduler(1.0), trace_sink=sink)
        assert sim.run(max_events=20_000).events_processed == 20_000
        assert sink.broadcast_count() > 2_000
        assert 0 < len(sink._sent_text) <= graph.n


# ----------------------------------------------------------------------
# Run rows and typed builders: one call per fan-out, the same bytes
# ----------------------------------------------------------------------
class _RowByRowSink(ColumnarSink):
    """The reference: a run is the base class's loop over ``record``."""

    record_deliveries = TraceSink.record_deliveries


class _Gossip(Process):
    """Back-to-back broadcasts; a relay from inside ``on_receive`` on
    every fourth message; decides on its 14th."""

    def __init__(self, uid):
        super().__init__(uid=uid, initial_value=0)
        self.heard = 0

    def on_start(self):
        self.broadcast(("m", self.uid, 0))

    def on_ack(self):
        self.broadcast(("m", self.uid, self.heard))

    def on_receive(self, message):
        self.heard += 1
        if self.heard % 4 == 0:
            self.broadcast(("relay", self.uid))
        if self.heard == 14:
            self.decide(message[1])


def _chunk_bytes(sink):
    blobs = []
    for path in sink.chunk_paths():
        with open(path, "rb") as handle:
            blobs.append(handle.read())
    return blobs


class TestRunRows:
    @pytest.mark.parametrize("chunk_records", [7, 23, 5000])
    def test_a_run_writes_the_bytes_its_rows_write(self, tmp_path,
                                                   chunk_records):
        # 7 and 23 are coprime to the fan-out of 5, so runs straddle
        # chunk boundaries -- where the label table starts over.
        written = []
        for name, cls in (("run", ColumnarSink), ("rows", _RowByRowSink)):
            sink = cls(str(tmp_path / name), chunk_records=chunk_records)
            sim = build_simulation(clique(6), _Gossip,
                                   SynchronousScheduler(1.0),
                                   trace_sink=sink)
            assert sim.run().stop_reason == "all_decided"
            before_close = list(sink.iter_chunk_blobs())
            sink.close()
            assert _chunk_bytes(sink) == before_close
            written.append((len(sink), _chunk_bytes(sink)))
        assert written[0] == written[1]
        assert written[0][0] > 100

    def test_label_table_interns_in_row_order(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"), chunk_records=4)
        sink.record(0.0, "broadcast", "s", broadcast_id=0, payload="m")
        sink.record_deliveries(1.0, 0, "s", "m",
                               ("a", "b", "c", "d", "e", "f", "g"))
        sink.close()
        assert [chunk.labels for chunk in sink.iter_chunks()] == [
            ["s", "a", "b", "c"], ["d", "s", "e", "f", "g"]]
        assert [(r.node, r.peer, r.payload) for r in sink][1:] == [
            (v, "s", repr("m")) for v in "abcdefg"]

    @pytest.mark.parametrize("how", ["record", "append_serialized", "run"])
    def test_wide_bid_mid_chunk_promotes_the_column(self, tmp_path, how):
        wide = 2 ** 40 + 3
        sink = ColumnarSink(str(tmp_path / "c"), chunk_records=6)
        # Two chunks: the wide id arrives third in the first; the
        # second starts narrow again.
        for bid in (0, 1, wide, 2, 3, 4, 5, 6):
            if bid != wide or how == "record":
                sink.record(float(bid), "ack", 0, broadcast_id=bid)
            elif how == "append_serialized":
                sink.append_serialized(TraceRecord(
                    float(bid), "ack", 0, bid, None, None))
            else:
                sink.record_deliveries(float(bid), bid, 1, None, (0,))
            if bid == wide:
                assert sink._c_bids.itemsize == 8
                assert list(sink._c_bids) == [0, 1, wide]
        sink.close()
        flags = []
        for path in sink.chunk_paths():
            with open(path, "rb") as handle:
                flags.append(columnar_mod._HEADER_STRUCT.unpack_from(
                    handle.read())[2])
        assert flags == [columnar_mod._FLAG_WIDE_BIDS, 0]
        assert [(r.time, r.kind, r.node, r.broadcast_id) for r in sink] \
            == [(float(bid), "deliver" if bid == wide and how == "run"
                 else "ack", 0, bid)
                for bid in (0, 1, wide, 2, 3, 4, 5, 6)]

    def test_pending_tail_is_the_typed_builders_not_a_copy(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"), chunk_records=100)
        _fill(sink, _sample_records())
        (pending,) = sink.iter_chunks()
        assert pending.times is sink._c_times
        assert pending.payload_idx is sink._c_payloads
        as_read = _tuples(pending.records())
        assert as_read == _tuples(sink) and len(as_read) == 6
        # Recording on while a chunk is held neither fails nor moves
        # the rows it holds.
        sink.record(3.0, "ack", 0, broadcast_id=9)
        assert _tuples(pending.records()) == as_read
        sink.close()
        assert _tuples(sink)[:6] == as_read

    @pytest.mark.skipif(not have_numpy(), reason="needs numpy")
    def test_vectorized_audit_reads_an_unflushed_tail(self, tmp_path):
        graph = clique(4)
        sink = ColumnarSink(str(tmp_path / "c"), chunk_records=30)
        sim = build_simulation(graph, lambda v: TwoPhaseConsensus(v + 1,
                                                                  v % 2),
                               SynchronousScheduler(1.0), trace_sink=sink)
        sim.run()
        assert sink.chunk_paths() and len(sink._c_times)
        report = try_vectorized_invariants(graph, sink, 1.0)
        assert report is not None and report.ok, report
        bad = ColumnarSink(str(tmp_path / "bad"), chunk_records=30)
        for r in sink:
            bad.append_serialized(r)
        bad.record(9.0, "deliver", 0, broadcast_id=0, peer=1, payload="x")
        assert not try_vectorized_invariants(graph, bad, 1.0).ok


# ----------------------------------------------------------------------
# Columnar <-> FULL equivalence property (satellite: hypothesis)
# ----------------------------------------------------------------------
class TestColumnarFullEquivalence:
    """The same execution traced at FULL (in RAM) and by a disk
    ColumnarSink must agree on everything observable: the replayed
    record stream (FULL payloads ``repr``'d), decision sequences,
    RunMetrics, and the invariant verdict -- which, for the columnar
    static/crash traces, also pins the vectorized checker against the
    reference loop."""

    def _run_both(self, tmp, graph, sched_factory, *, crashes=(),
                  dynamics_factory=None):
        out = []
        for sink in (make_sink("full"), ColumnarSink(str(tmp / "col"),
                                           chunk_records=128)):
            sim = build_simulation(
                graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
                sched_factory(), fault_model=CrashFaultModel(crashes),
                dynamics=(dynamics_factory() if dynamics_factory
                          else None),
                trace_sink=sink)
            result = sim.run(max_events=150_000, max_time=40.0)
            sink.close()
            out.append((result, sink))
        return out

    def _assert_equivalent(self, graph, runs):
        (res_f, full), (res_c, col) = runs
        assert _as_text_rows(full) == _as_text_rows(col)
        assert res_f.decisions == res_c.decisions
        assert res_f.decision_times == res_c.decision_times
        assert [(r.time, r.node) for r in full.of_kind("decide")] \
            == [(r.time, r.node) for r in col.of_kind("decide")]
        values = {v: v % 2 for v in graph.nodes}
        metrics = [collect_metrics(
            algorithm="two-phase", topology="t", graph=graph,
            scheduler=SynchronousScheduler(1.0), result=res,
            initial_values=values) for res, _ in runs]
        assert metrics[0] == metrics[1]
        report_f = check_model_invariants(graph, full, 1.0)
        report_c = check_model_invariants(graph, col, 1.0)
        assert report_f.ok == report_c.ok
        assert report_f.ok

    @given(n=st.integers(3, 7), seed=st.integers(0, 10 ** 6),
           synchronous=st.booleans())
    @settings(**SETTINGS)
    def test_static_traces(self, tmp_path_factory, n, seed,
                           synchronous):
        graph = clique(n)
        tmp = tmp_path_factory.mktemp("col-eq")
        sched = (lambda: SynchronousScheduler(1.0)) if synchronous \
            else (lambda: RandomDelayScheduler(1.0, seed=seed))
        self._assert_equivalent(
            graph, self._run_both(tmp, graph, sched))

    @given(n=st.integers(4, 7), seed=st.integers(0, 10 ** 6),
           crash_count=st.integers(1, 2))
    @settings(**SETTINGS)
    def test_crash_fault_traces(self, tmp_path_factory, n, seed,
                                crash_count):
        rng = random.Random(seed)
        graph = clique(n)
        plans = []
        for victim in rng.sample(list(graph.nodes),
                                 min(crash_count, n - 2)):
            others = [v for v in graph.nodes if v != victim]
            survivors = rng.sample(others, rng.randint(0, len(others)))
            plans.append(CrashPlan(victim, rng.uniform(0.0, 4.0),
                                   still_delivered=survivors))
        tmp = tmp_path_factory.mktemp("col-eq-crash")
        self._assert_equivalent(
            graph, self._run_both(
                tmp, graph, lambda: SynchronousScheduler(1.0),
                crashes=plans))

    @given(n=st.integers(4, 6), seed=st.integers(0, 10 ** 6),
           rate=st.floats(0.05, 0.3))
    @settings(**SETTINGS)
    def test_churn_traces(self, tmp_path_factory, n, seed, rate):
        # Dynamic topologies make the vectorized path decline (topo
        # records); both sinks must still agree via the reference loop.
        graph = clique(n)
        tmp = tmp_path_factory.mktemp("col-eq-churn")
        runs = self._run_both(
            tmp, graph, lambda: RandomDelayScheduler(1.0, seed=seed),
            dynamics_factory=lambda: EdgeChurn(rate=rate, seed=seed))
        (res_f, full), (res_c, col) = runs
        assert _as_text_rows(full) == _as_text_rows(col)
        assert res_f.decisions == res_c.decisions
        assert res_f.decision_times == res_c.decision_times
        report_f = check_model_invariants(graph, full, 1.0)
        report_c = check_model_invariants(graph, col, 1.0)
        assert report_f.ok == report_c.ok


# ----------------------------------------------------------------------
# Vectorized vs reference verdicts on crafted traces
# ----------------------------------------------------------------------
@pytest.mark.skipif(not have_numpy(),
                    reason="vectorized checker needs numpy")
class TestVectorizedVsReference:
    def _verdicts(self, graph, records, f_ack=1.0, chunk_records=3):
        sink = ColumnarSink(chunk_records=chunk_records)
        try:
            _fill(sink, records)
            sink.close()
            fast = try_vectorized_invariants(graph, sink, f_ack)
            assert fast is not None, "fast path unexpectedly declined"
            reference = check_model_invariants(
                graph, iter(list(sink)), f_ack)
            return fast, reference
        finally:
            sink.cleanup()

    def _clean(self):
        return [
            (0.0, "broadcast", 0, 0, None, "m"),
            (0.4, "deliver", 1, 0, 0, "m"),
            (0.5, "deliver", 2, 0, 0, "m"),
            (1.0, "ack", 0, 0, None, None),
        ]

    def test_clean_trace_ok_both(self):
        fast, ref = self._verdicts(clique(3), self._clean())
        assert fast.ok and ref.ok

    def test_duplicate_delivery_flagged_both(self):
        records = self._clean()
        records.insert(3, (0.6, "deliver", 1, 0, 0, "m"))
        fast, ref = self._verdicts(clique(3), records)
        assert not fast.ok and not ref.ok
        assert any("duplicate" in v for v in fast.violations)

    def test_non_neighbor_delivery_flagged_both(self):
        # line(3): node 2 is not a neighbor of node 0.
        fast, ref = self._verdicts(line(3), self._clean())
        assert not fast.ok and not ref.ok
        assert any("non-neighbor" in v for v in fast.violations)

    def test_mutated_payload_flagged_both(self):
        records = self._clean()
        records[2] = (0.5, "deliver", 2, 0, 0, "FORGED")
        fast, ref = self._verdicts(clique(3), records)
        assert not fast.ok and not ref.ok
        assert any("mutated" in v for v in fast.violations)

    def test_ack_before_last_delivery_flagged_both(self):
        records = [
            (0.0, "broadcast", 0, 0, None, "m"),
            (0.4, "deliver", 1, 0, 0, "m"),
            (0.9, "deliver", 2, 0, 0, "m"),
            (0.5, "ack", 0, 0, None, None),
        ]
        fast, ref = self._verdicts(clique(3), records)
        assert not fast.ok and not ref.ok

    def test_missing_coverage_flagged_both(self):
        records = self._clean()
        del records[2]  # node 2 never receives before the ack
        fast, ref = self._verdicts(clique(3), records)
        assert not fast.ok and not ref.ok
        assert any("before" in v and "received" in v
                   for v in fast.violations)

    def test_crash_excuses_missing_coverage_both(self):
        records = [
            (0.0, "broadcast", 0, 0, None, "m"),
            (0.3, "crash", 2, None, None, None),
            (0.4, "deliver", 1, 0, 0, "m"),
            (1.0, "ack", 0, 0, None, None),
        ]
        fast, ref = self._verdicts(clique(3), records)
        assert fast.ok and ref.ok

    def test_slow_ack_flagged_both(self):
        records = self._clean()
        records[3] = (5.0, "ack", 0, 0, None, None)
        fast, ref = self._verdicts(clique(3), records, f_ack=1.0)
        assert not fast.ok and not ref.ok
        assert any("F_ack" in v for v in fast.violations)

    @pytest.mark.parametrize("chunk_records", [3, 500])
    def test_violation_messages_capped_but_counted(self, chunk_records):
        # 30 broadcasts on line(3), each delivered to non-neighbor
        # node 2 as well: 30 per-row violations. Messages are capped
        # per category over the whole replay, however many chunks it
        # reads, and the tail is accounted for, not dropped silently.
        records = []
        for i in range(30):
            t = float(i)
            records += [
                (t, "broadcast", 0, i, None, "m"),
                (t + 0.4, "deliver", 1, i, 0, "m"),
                (t + 0.5, "deliver", 2, i, 0, "m"),
                (t + 1.0, "ack", 0, i, None, None),
            ]
        fast, ref = self._verdicts(line(3), records,
                                   chunk_records=chunk_records)
        assert not fast.ok and not ref.ok
        assert len(ref.violations) == 30
        assert len(fast.violations) <= 25
        assert any("further violations" in v for v in fast.violations)
        assert fast.violations[-1] == \
            "... and 10 further violations (messages capped)"

    # -- the open-id window: acked ids retire, a crashed sender's
    # -- unacked broadcast pins it (chunks of 3 rows: one slice each)
    def _two_broadcasts(self, *extra):
        # Broadcast 0 is acked in the second chunk and retired there;
        # the ``extra`` rows open the third.
        return [
            (0.0, "broadcast", 0, 0, None, "m"),
            (0.4, "deliver", 1, 0, 0, "m"),
            (0.5, "deliver", 2, 0, 0, "m"),
            (1.0, "ack", 0, 0, None, None),
            (1.0, "broadcast", 1, 1, None, "n"),
            (1.2, "deliver", 0, 1, 1, "n"),
            *extra,
            (1.4, "deliver", 2, 1, 1, "n"),
            (2.0, "ack", 1, 1, None, None),
        ]

    def test_delivery_of_a_retired_id_flagged_both(self):
        fast, ref = self._verdicts(clique(3), self._two_broadcasts(
            (1.3, "deliver", 2, 0, 0, "m")))
        assert not fast.ok and not ref.ok
        assert fast.violations == ref.violations == [
            "delivery for unknown or closed (already acked) broadcast 0"]

    def test_second_ack_of_a_retired_id_flagged_both(self):
        fast, ref = self._verdicts(clique(3), self._two_broadcasts(
            (1.3, "ack", 0, 0, None, None)))
        assert not fast.ok and not ref.ok
        assert fast.violations == ref.violations == [
            "ack for unknown or closed broadcast 0"]

    def test_id_reused_after_retirement_falls_back(self):
        records = self._two_broadcasts() + [
            (3.0, "broadcast", 2, 0, None, "z"),
            (3.2, "deliver", 0, 0, 2, "z"),
            (3.3, "deliver", 1, 0, 2, "z"),
            (4.0, "ack", 2, 0, None, None),
        ]
        sink = ColumnarSink(chunk_records=3)
        try:
            _fill(sink, records)
            sink.close()
            assert try_vectorized_invariants(clique(3), sink, 1.0) is None
            verdict = check_model_invariants(clique(3), sink, 1.0)
            reference = check_model_invariants(
                clique(3), iter(list(sink)), 1.0)
        finally:
            sink.cleanup()
        assert verdict == reference and verdict.ok

    @pytest.mark.parametrize("kind", ["deliver", "ack"])
    def test_huge_id_past_the_window_flagged_both(self, kind):
        # A delivery (or ack) naming an id far past every broadcast
        # is flagged like a retired one; it must not size the window.
        huge = 2 ** 40
        row = ((0.6, "deliver", 1, huge, 0, "m") if kind == "deliver"
               else (0.6, "ack", 0, huge, None, None))
        records = self._clean()
        records.insert(3, row)
        fast, ref = self._verdicts(clique(3), records)
        assert not fast.ok and not ref.ok
        assert fast.violations == ref.violations
        assert str(huge) in fast.violations[0]

    def test_broadcast_id_jump_falls_back(self):
        records = self._clean() + [
            (2.0, "broadcast", 1, 2 ** 40, None, "n"),
            (2.2, "deliver", 0, 2 ** 40, 1, "n"),
            (2.3, "deliver", 2, 2 ** 40, 1, "n"),
            (3.0, "ack", 1, 2 ** 40, None, None),
        ]
        sink = ColumnarSink(chunk_records=3)
        try:
            _fill(sink, records)
            sink.close()
            assert try_vectorized_invariants(clique(3), sink, 1.0) is None
            verdict = check_model_invariants(clique(3), sink, 1.0)
            reference = check_model_invariants(
                clique(3), iter(list(sink)), 1.0)
        finally:
            sink.cleanup()
        assert verdict == reference and verdict.ok

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_crashed_senders_open_broadcast_pins_the_window(
            self, duplicate):
        # Node 2 crashes with broadcast 0 in flight; nodes 0 and 1 then
        # complete broadcasts 1..6 over several chunks. Broadcast 0
        # stays open, so its late delivery to node 1 is legitimate --
        # and a second delivery to node 0 a duplicate.
        records = [
            (0.0, "broadcast", 2, 0, None, "z"),
            (0.2, "deliver", 0, 0, 2, "z"),
            (0.5, "crash", 2, None, None, None),
        ]
        for bid in range(1, 7):
            t = 0.5 * bid
            sender = bid % 2
            records += [
                (t, "broadcast", sender, bid, None, f"v{bid}"),
                (t + 0.2, "deliver", 1 - sender, bid, sender, f"v{bid}"),
                (t + 0.4, "ack", sender, bid, None, None),
            ]
        records.append((4.0, "deliver", 1, 0, 2, "z"))
        if duplicate:
            records.append((4.0, "deliver", 0, 0, 2, "z"))
        fast, ref = self._verdicts(clique(3), records)
        assert fast.ok == ref.ok == (not duplicate)
        if duplicate:
            assert fast.violations == ["duplicate delivery of broadcast 0"]

    def test_declines_on_large_n(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"))
        _fill(sink, self._clean())
        sink.close()
        assert try_vectorized_invariants(clique(70), sink, 1.0) is None

    def test_declines_without_numpy(self, tmp_path, monkeypatch):
        sink = ColumnarSink(str(tmp_path / "c"))
        _fill(sink, self._clean())
        sink.close()
        monkeypatch.setattr(columnar_mod, "np", None)
        assert try_vectorized_invariants(clique(3), sink, 1.0) is None
        # The dispatcher then runs the reference loop and still
        # returns the right verdict.
        assert check_model_invariants(clique(3), sink, 1.0).ok

    def test_declines_on_topology_records(self, tmp_path):
        sink = ColumnarSink(str(tmp_path / "c"))
        _fill(sink, self._clean())
        sink.record(1.5, "topo", 0, broadcast_id=0, peer=1)
        sink.close()
        assert try_vectorized_invariants(clique(3), sink, 1.0) is None


# ----------------------------------------------------------------------
# Schema v6 export + CLI replay
# ----------------------------------------------------------------------
class TestColumnarExport:
    def _sample(self, tmp_path, full=False):
        graph = clique(4)
        sink = (make_sink("full") if full
                else ColumnarSink(str(tmp_path / "sink"), chunk_records=32))
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0), trace_sink=sink)
        sim.run()
        sink.close()
        return sink

    def test_v6_columnar_roundtrip(self, tmp_path):
        sink = self._sample(tmp_path)
        path = str(tmp_path / "t.trace")
        save_trace(sink, path, metadata={"seed": 9})
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["schema"] == 6
        assert header["format"] == "columnar-chunks"
        reloaded = load_trace(path)
        assert len(reloaded) == len(sink)
        assert reloaded.decision_times() == sink.decision_times()
        assert reloaded.broadcast_count() == sink.broadcast_count()
        assert load_metadata(path) == {"seed": 9}
        assert _tuples(iter_saved_records(path)) == _tuples(sink)

    def test_columnar_export_much_smaller_than_jsonl(self, tmp_path):
        col = self._sample(tmp_path)
        full = self._sample(tmp_path, full=True)
        col_path = str(tmp_path / "c.trace")
        full_path = str(tmp_path / "f.trace")
        save_trace(col, col_path)
        save_trace(full, full_path)
        assert os.path.getsize(col_path) * 4 <= _jsonl_bytes(full)
        # ...and the two exports replay the same record stream.
        assert _tuples(iter_saved_records(col_path)) \
            == _tuples(iter_saved_records(full_path))

    def test_reexport_of_reloaded_trace_roundtrips(self, tmp_path):
        # Reloading into a preserialized sink must not double-repr
        # payloads, and the
        # re-export carries the identical record stream.
        sink = self._sample(tmp_path)
        first = str(tmp_path / "first.trace")
        save_trace(sink, first)
        reloaded = load_trace(
            first, sink=ColumnarSink(str(tmp_path / "re"),
                                     chunk_records=32))
        reloaded.close()
        second = str(tmp_path / "second.trace")
        save_trace(reloaded, second)
        assert _tuples(iter_saved_records(first)) \
            == _tuples(iter_saved_records(second))

    def test_truncated_columnar_export_fails_loudly(self, tmp_path):
        sink = self._sample(tmp_path)
        path = str(tmp_path / "t.trace")
        save_trace(sink, path)
        with open(path, "rb") as fh:
            data = fh.read()
        clipped = str(tmp_path / "clipped.trace")
        with open(clipped, "wb") as fh:
            fh.write(data[:len(data) - len(data) // 3])
        with pytest.raises(ValueError):
            list(iter_saved_records(clipped))

    def test_cli_run_and_replay_columnar(self, tmp_path, capsys):
        path = str(tmp_path / "cli.trace")
        assert cli_main(["run", "--algorithm", "two-phase",
                         "--topology", "clique:5", "--scheduler",
                         "synchronous", "--trace-level", "columnar",
                         "--trace-out", path]) == 0
        capsys.readouterr()
        assert load_scenario(path) is not None
        assert cli_main(["replay", path]) == 0
        assert "replay matched" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Metrics replay from disk
# ----------------------------------------------------------------------
class TestMetricsReplay:
    def test_collect_metrics_from_reopened_sink(self, tmp_path):
        graph = clique(5)
        values = {v: v % 2 for v in graph.nodes}
        sink = ColumnarSink(str(tmp_path / "c"), chunk_records=64)
        sim = build_simulation(
            graph, lambda v: TwoPhaseConsensus(v + 1, v % 2),
            SynchronousScheduler(1.0), trace_sink=sink)
        result = sim.run()
        sink.close()
        live = collect_metrics(
            algorithm="two-phase", topology="clique(5)", graph=graph,
            scheduler=sim.scheduler, result=result,
            initial_values=values)
        reopened = ColumnarSink.load(str(tmp_path / "c"))
        # Reopened decisions are repr strings (the export convention),
        # so validity is judged against repr-space inputs on replay.
        replay = collect_metrics(
            algorithm="two-phase", topology="clique(5)", graph=graph,
            scheduler=sim.scheduler, trace=reopened,
            initial_values={v: repr(val) for v, val in values.items()})
        assert replay.stop_reason == "replay"
        assert (replay.broadcasts, replay.deliveries,
                replay.first_decision, replay.last_decision,
                replay.agreement, replay.validity,
                replay.termination) == (
            live.broadcasts, live.deliveries, live.first_decision,
            live.last_decision, live.agreement, live.validity,
            live.termination)

    def test_collect_metrics_requires_result_or_trace(self):
        graph = clique(3)
        with pytest.raises(TypeError):
            collect_metrics(algorithm="x", topology="t", graph=graph,
                            scheduler=SynchronousScheduler(1.0),
                            initial_values={v: 0 for v in graph.nodes})
