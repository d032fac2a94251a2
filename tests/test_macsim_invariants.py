"""Model/consensus invariant checker tests (positive and negative)."""

from repro.macsim.invariants import check_consensus, \
    check_model_invariants
from repro.macsim.trace import make_sink
from repro.topology import clique, line


def good_trace():
    """A contract-respecting broadcast on clique(3)."""
    t = make_sink("full")
    t.record(0.0, "broadcast", 0, broadcast_id=0, payload="m")
    t.record(1.0, "deliver", 1, broadcast_id=0, peer=0, payload="m")
    t.record(1.0, "deliver", 2, broadcast_id=0, peer=0, payload="m")
    t.record(1.0, "ack", 0, broadcast_id=0)
    return t


class TestModelInvariantsPositive:
    def test_clean_trace_passes(self):
        report = check_model_invariants(clique(3), good_trace(),
                                        f_ack=1.0)
        assert report.ok

    def test_crashed_neighbor_excused_from_ack(self):
        t = make_sink("full")
        t.record(0.0, "broadcast", 0, broadcast_id=0)
        t.record(0.5, "crash", 2)
        t.record(1.0, "deliver", 1, broadcast_id=0, peer=0)
        t.record(1.0, "ack", 0, broadcast_id=0)
        report = check_model_invariants(clique(3), t, f_ack=1.0)
        assert report.ok


class TestModelInvariantsNegative:
    def test_delivery_to_non_neighbor(self):
        t = make_sink("full")
        t.record(0.0, "broadcast", 0, broadcast_id=0)
        t.record(1.0, "deliver", 2, broadcast_id=0, peer=0)
        t.record(1.0, "deliver", 1, broadcast_id=0, peer=0)
        t.record(1.0, "ack", 0, broadcast_id=0)
        report = check_model_invariants(line(3), t, f_ack=1.0)
        assert not report.ok
        assert any("non-neighbor" in v for v in report.violations)

    def test_duplicate_delivery(self):
        t = make_sink("full")
        t.record(0.0, "broadcast", 0, broadcast_id=0, payload="m")
        t.record(1.0, "deliver", 1, broadcast_id=0, peer=0, payload="m")
        t.record(1.2, "deliver", 1, broadcast_id=0, peer=0, payload="m")
        t.record(1.5, "deliver", 2, broadcast_id=0, peer=0, payload="m")
        t.record(1.5, "ack", 0, broadcast_id=0)
        report = check_model_invariants(clique(3), t, f_ack=2.0)
        assert not report.ok
        assert any("duplicate" in v for v in report.violations)

    def test_delivery_after_ack_is_flagged(self):
        # The ack closes a broadcast (the streaming checker evicts its
        # audit state); a later delivery is reported as referencing a
        # closed broadcast rather than as a duplicate.
        t = good_trace()
        t.record(1.5, "deliver", 1, broadcast_id=0, peer=0)
        report = check_model_invariants(clique(3), t, f_ack=2.0)
        assert not report.ok
        assert any("closed" in v for v in report.violations)

    def test_ack_before_all_neighbors(self):
        t = make_sink("full")
        t.record(0.0, "broadcast", 0, broadcast_id=0)
        t.record(1.0, "deliver", 1, broadcast_id=0, peer=0)
        t.record(1.0, "ack", 0, broadcast_id=0)  # node 2 never got it
        report = check_model_invariants(clique(3), t, f_ack=1.0)
        assert not report.ok

    def test_ack_exceeding_f_ack(self):
        t = make_sink("full")
        t.record(0.0, "broadcast", 0, broadcast_id=0)
        t.record(5.0, "deliver", 1, broadcast_id=0, peer=0)
        t.record(5.0, "deliver", 2, broadcast_id=0, peer=0)
        t.record(5.0, "ack", 0, broadcast_id=0)
        report = check_model_invariants(clique(3), t, f_ack=1.0)
        assert not report.ok
        assert any("F_ack" in v for v in report.violations)

    def test_activity_after_crash(self):
        t = make_sink("full")
        t.record(0.0, "crash", 0)
        t.record(1.0, "broadcast", 0, broadcast_id=0)
        report = check_model_invariants(clique(2), t, f_ack=10.0)
        assert not report.ok

    def test_raise_if_failed(self):
        t = make_sink("full")
        t.record(0.0, "broadcast", 0, broadcast_id=0)
        t.record(1.0, "deliver", 1, broadcast_id=0, peer=0)
        t.record(1.0, "ack", 0, broadcast_id=0)
        report = check_model_invariants(clique(3), t, f_ack=1.0)
        import pytest
        from repro.macsim import ModelViolationError
        with pytest.raises(ModelViolationError):
            report.raise_if_failed()


class TestConsensusChecker:
    def test_all_properties_hold(self):
        t = make_sink("full")
        t.record(1.0, "decide", 0, payload=1)
        t.record(2.0, "decide", 1, payload=1)
        report = check_consensus(t, {0: 1, 1: 0})
        assert report.ok

    def test_agreement_violation(self):
        t = make_sink("full")
        t.record(1.0, "decide", 0, payload=0)
        t.record(2.0, "decide", 1, payload=1)
        report = check_consensus(t, {0: 0, 1: 1})
        assert not report.agreement
        assert not report.ok

    def test_validity_violation(self):
        t = make_sink("full")
        t.record(1.0, "decide", 0, payload=7)
        report = check_consensus(t, {0: 0})
        assert not report.validity

    def test_termination_violation(self):
        t = make_sink("full")
        t.record(1.0, "decide", 0, payload=0)
        report = check_consensus(t, {0: 0, 1: 1})
        assert not report.termination
        assert report.undecided == [1]

    def test_crashed_nodes_excused(self):
        t = make_sink("full")
        t.record(0.5, "crash", 1)
        t.record(1.0, "decide", 0, payload=0)
        report = check_consensus(t, {0: 0, 1: 1})
        assert report.termination
