"""Trace recording and query tests."""

import pytest

from repro.macsim.trace import Trace, TraceRecord, make_sink


def sample_trace():
    t = make_sink("full")
    t.record(0.0, "broadcast", "a", broadcast_id=0, payload="m0")
    t.record(1.0, "deliver", "b", broadcast_id=0, peer="a",
             payload="m0")
    t.record(1.0, "ack", "a", broadcast_id=0)
    t.record(2.0, "decide", "a", payload=1)
    t.record(3.0, "decide", "b", payload=1)
    t.record(4.0, "crash", "c")
    t.record(5.0, "discard", "b", payload="late")
    return t


class TestTraceQueries:
    def test_len_and_iteration(self):
        t = sample_trace()
        assert len(t) == 7
        assert [r.kind for r in t] == [
            "broadcast", "deliver", "ack", "decide", "decide",
            "crash", "discard"]

    def test_of_kind(self):
        t = sample_trace()
        assert len(t.of_kind("decide")) == 2
        assert t.of_kind("crash")[0].node == "c"

    def test_for_node(self):
        t = sample_trace()
        kinds = [r.kind for r in t.for_node("a")]
        assert kinds == ["broadcast", "ack", "decide"]

    def test_decisions_and_times(self):
        t = sample_trace()
        assert t.decisions() == {"a": 1, "b": 1}
        assert t.decision_times() == {"a": 2.0, "b": 3.0}
        assert t.last_decision_time() == 3.0

    def test_first_decision_wins(self):
        t = make_sink("full")
        t.record(1.0, "decide", "x", payload=0)
        t.record(2.0, "decide", "x", payload=1)
        assert t.decisions() == {"x": 0}
        assert t.decision_times() == {"x": 1.0}

    def test_counts(self):
        t = sample_trace()
        assert t.broadcast_count() == 1
        assert t.broadcast_count("a") == 1
        assert t.broadcast_count("b") == 0
        assert t.delivery_count() == 1

    def test_crashed_nodes(self):
        assert sample_trace().crashed_nodes() == {"c"}

    def test_no_decisions(self):
        assert make_sink("full").last_decision_time() is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_sink("full").record(0.0, "nonsense", "a")

    def test_iteration_builds_records(self):
        first = next(iter(sample_trace()))
        assert isinstance(first, TraceRecord)
        assert first == TraceRecord(0.0, "broadcast", "a", 0, None, "m0")


class TestCountingTrace:
    """The DECISIONS level counts MAC rows and keeps only decide,
    crash and topo records."""

    def test_counts_without_records(self):
        t = Trace()
        t.record(0.0, "broadcast", "a", broadcast_id=0, payload="m0")
        t.record_deliveries(1.0, 0, "a", "m0", ("b", "c"))
        t.record(1.0, "ack", "a", broadcast_id=0)
        t.record(2.0, "decide", "a", payload=1)
        t.record(3.0, "crash", "c")
        assert not t.replayable and not t.materializes_mac
        assert [r.kind for r in t] == ["decide", "crash"]
        assert len(t) == 2
        assert t.of_kind("deliver") == []
        assert t.delivery_count() == 2
        assert t.broadcasts_per_node() == {"a": 1}
        assert t.decisions() == {"a": 1}
        assert t.crashed_nodes() == {"c"}

    def test_takes_no_level(self):
        with pytest.raises(TypeError):
            Trace("full")
