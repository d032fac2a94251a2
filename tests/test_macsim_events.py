"""Unit tests for the event queue."""

import pytest

from repro.macsim.events import (ACK_PRIORITY, CRASH_PRIORITY,
                                 DELIVER_PRIORITY, EventQueue)


def _drain(q):
    entries = []
    while True:
        entry = q.pop_entry()
        if entry is None:
            return entries
        entries.append(entry)


class TestEventQueueOrdering:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push_light(3.0, DELIVER_PRIORITY, "deliver", node="c")
        q.push_light(1.0, DELIVER_PRIORITY, "deliver", node="a")
        q.push_light(2.0, DELIVER_PRIORITY, "deliver", node="b")
        assert [entry[4] for entry in _drain(q)] == ["a", "b", "c"]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.push_light(1.0, ACK_PRIORITY, "ack", node="ack")
        q.push_light(1.0, CRASH_PRIORITY, "crash", node="crash")
        q.push_light(1.0, DELIVER_PRIORITY, "deliver", node="deliver")
        kinds = [entry[3] for entry in _drain(q)]
        assert kinds == ["crash", "deliver", "ack"]

    def test_insertion_order_breaks_full_ties(self):
        q = EventQueue()
        q.push_light(1.0, DELIVER_PRIORITY, "deliver", node="x")
        q.push_light(1.0, DELIVER_PRIORITY, "deliver", node="y")
        assert [entry[4] for entry in _drain(q)] == ["x", "y"]

    def test_deliveries_precede_acks_at_same_time(self):
        # The synchronous scheduler's "deliver all, then ack all".
        q = EventQueue()
        q.push_light(5.0, ACK_PRIORITY, "ack", node=1)
        q.push_light(5.0, DELIVER_PRIORITY, "deliver", node=2)
        assert [entry[3] for entry in _drain(q)] == ["deliver", "ack"]

    def test_interleaved_pushes_pop_deterministically(self):
        q = EventQueue()
        q.push_light(2.0, DELIVER_PRIORITY, "deliver", node="second")
        q.push_light(1.0, DELIVER_PRIORITY, "deliver", node="first")
        q.push_light(2.0, ACK_PRIORITY, "ack", node="ack")
        assert len(q) == 3
        assert [entry[4] for entry in _drain(q)] == [
            "first", "second", "ack"]

    def test_entries_are_six_tuples(self):
        q = EventQueue()
        q.push_light(1.5, ACK_PRIORITY, "ack", node="n", broadcast_id=7)
        assert q.pop_entry() == (1.5, ACK_PRIORITY, 0, "ack", "n", 7)


class TestEventQueueMisc:
    def test_len_and_bool_track_queued_events(self):
        q = EventQueue()
        assert not q
        for i in range(5):
            q.push_light(float(i), DELIVER_PRIORITY, "deliver")
        assert q and len(q) == 5
        q.pop_entry()
        assert len(q) == 4
        _drain(q)
        assert not q and len(q) == 0
        # The seq counter doubles as the lifetime push count.
        assert q._next_seq == 5

    def test_peek_time(self):
        q = EventQueue()
        q.push_light(2.0, DELIVER_PRIORITY, "deliver")
        q.push_light(1.0, DELIVER_PRIORITY, "deliver")
        assert q.peek_time() == 1.0
        q.pop_entry()
        assert q.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push_light(1.0, DELIVER_PRIORITY, "bogus")

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop_entry() is None
