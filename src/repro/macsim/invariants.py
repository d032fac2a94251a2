"""Model and consensus invariant checking.

:class:`InvariantAuditor` verifies, one occurrence at a time, that an
execution respected the abstract MAC layer contract (Section 2);
:func:`check_consensus` checks agreement, validity and termination.
The test-suite runs them over every simulation it performs; the
hypothesis property tests over thousands of randomized schedules.

One audit, two feeds
--------------------
The auditor observes the event stream. A counting sink feeds it from
``record`` *during* the run (:meth:`repro.macsim.trace.Trace.attach_auditor`),
so a ``DECISIONS``-level run is audited without keeping one MAC record
-- a same-timestamp fan-out arrives as one run
(:meth:`InvariantAuditor.feed_deliveries`) and, when clean, is cleared
with set operations instead of row by row;
:func:`check_model_invariants` feeds it a completed replayable trace.
Both reach the same verdict and violation list (pinned by
``tests/test_invariant_auditor.py``). A broadcast's audit state --
payload, delivered set, last-delivery time -- is *evicted* once its ack
has been checked: no later event may legitimately reference it and at
most one broadcast per node is in flight, so memory is O(n + crashes),
not O(trace) -- which is what lets a
:class:`~repro.macsim.columnar.ColumnarSink` replay a 10^7+-event run
without materializing it. (An event arriving after its broadcast's ack
is reported as referencing an unknown broadcast -- still a violation,
just attributed differently.)

Correct-node scoping
--------------------
Under the fault-model subsystem (:mod:`repro.macsim.faults`) both
checkers accept a ``faulty`` node set. Faulty nodes are exempt from
the obligations the model only imposes on correct ones -- a Byzantine
sender's broadcast need not reach every neighbor before its ack, its
delivered payloads may differ from what it "sent", and its decisions
are ignored -- while *new* checks hold the adversary to its license:
a ``drop`` record between two correct endpoints, or a payload
mutation on a correct sender's broadcast, is still a model violation.
Agreement and validity are judged among correct nodes only, the form
in which they are provable at all under Byzantine faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional

from .errors import ModelViolationError
from .trace import TOPO_EDGE_DOWN, TOPO_EDGE_UP, TraceLevel, TraceSink


@dataclass
class InvariantReport:
    """Result of a model-invariant check."""

    ok: bool
    violations: list = field(default_factory=list)

    def add(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ModelViolationError("; ".join(self.violations[:10]))


@dataclass(slots=True)
class _OpenBroadcast:
    """Audit state of one unacked broadcast."""

    start: float
    sender: Any
    payload: Any
    #: The sender's reliable neighbors as of the broadcast: ordered, as a set.
    obligated: Any
    reach: frozenset
    as_of_broadcast: bool
    delivered: set = field(default_factory=set)
    last: float = float("-inf")


class InvariantAuditor:
    """The MAC-layer contract, checked one occurrence at a time.

    :meth:`feed` takes the fields of one trace occurrence in stream
    order; :meth:`report` returns the verdict so far. Per broadcast:

    * deliveries only to graph neighbors of the sender (or unreliable
      neighbors, in dual-graph runs);
    * at most one delivery per (broadcast, receiver);
    * the ack (if present) follows every delivery of that broadcast;
    * the ack arrives within ``f_ack`` of the broadcast (if given);
    * every non-crashed *reliable* neighbor received the message
      before the ack (unreliable neighbors never gate the ack);
    * no activity by a node after its crash;
    * with a ``faulty`` set (fault-model runs): delivered payloads
      match the broadcast payload unless the sender is faulty, and
      ``drop`` records only ever involve a faulty endpoint. The ack
      coverage rule is not enforced for faulty senders or faulty
      neighbors (their deliveries may be legitimately dropped).

    Dynamic-topology runs (:mod:`repro.macsim.dynamics`) are audited
    against the graph **as of each broadcast**: ``topo`` occurrences
    update a live adjacency, each broadcast snapshots its sender's
    neighbor set at that moment, and the delivery-target and
    ack-coverage checks use the snapshot -- a delivery scheduled over
    an edge that later churned away is legitimate; one over an edge
    absent at broadcast time is a violation. Streams without ``topo``
    occurrences take the static-graph path untouched.

    Crash times are the audit's one look-ahead: a neighbor is excused
    from an ack's coverage when it crashed *at or before* the ack's
    timestamp. Fed live, none is needed: the engine orders events of
    one timestamp by priority and ``CRASH_PRIORITY`` sorts before
    ``ACK_PRIORITY`` (:mod:`repro.macsim.events`), so a crash at *t* is
    always recorded before an ack at *t*. A replay of a stored trace
    may not assume that order and pre-seeds the crash times
    (:func:`check_model_invariants`).
    """

    def __init__(self, graph, f_ack: Optional[float] = None,
                 unreliable_graph=None,
                 faulty: FrozenSet[Any] = frozenset()) -> None:
        self.graph = graph
        self.f_ack = f_ack
        self.unreliable_graph = unreliable_graph
        self.faulty = faulty
        self._report = InvariantReport(ok=True)
        self._add = self._report.add
        self._open: dict[int, _OpenBroadcast] = {}
        self._crash_time: dict[Any, float] = {}
        #: sender -> (neighbor tuple, neighbor set) of the static graph.
        self._static: dict[Any, tuple] = {}
        # Live adjacency of a dynamic-topology run, built at the first
        # topo occurrence; None => every broadcast sees the graph.
        self._adjacency: Optional[dict] = None

    def report(self) -> InvariantReport:
        return self._report

    def feed(self, time: float, kind: str, node: Any,
             bid: Optional[int] = None, peer: Any = None,
             payload: Any = None) -> None:
        """Audit one occurrence (:class:`~repro.macsim.trace.TraceRecord`
        fields). One flat dispatch, most frequent kind first: an online
        audit pays this once per engine event."""
        if kind == "deliver":
            state = self._open.get(bid)
            if state is None:
                self._add(f"delivery for unknown or closed (already "
                          f"acked) broadcast {bid}")
                return
            if node not in state.reach and not (
                    self.unreliable_graph is not None
                    and self.unreliable_graph.has_edge(state.sender,
                                                       node)):
                suffix = (" (as of the broadcast)"
                          if state.as_of_broadcast else "")
                self._add(f"broadcast {bid} delivered to non-neighbor "
                          f"{node!r} of {state.sender!r}{suffix}")
            delivered = state.delivered
            if node in delivered:
                self._add(f"duplicate delivery of broadcast {bid} to "
                          f"{node!r}")
            if time < state.start:
                self._add(f"delivery of broadcast {bid} precedes its "
                          f"start")
            if self._crash_time:
                crashed_at = self._crash_time.get(node)
                if crashed_at is not None and time > crashed_at:
                    self._add(f"delivery to crashed node {node!r}")
            sent = state.payload
            if (payload is not sent and payload != sent
                    and state.sender not in self.faulty):
                self._add(f"broadcast {bid} of correct node "
                          f"{state.sender!r} delivered mutated payload "
                          f"to {node!r}")
            delivered.add(node)
            if time > state.last:
                state.last = time
        elif kind == "ack":
            # The ack closes the broadcast: its audit state is evicted
            # so memory stays O(in-flight), not O(stream).
            state = self._open.pop(bid, None)
            if state is None:
                self._add(f"ack for unknown or closed broadcast {bid}")
                return
            sender = state.sender
            if node != sender:
                self._add(f"ack for broadcast {bid} went to {node!r} "
                          f"instead of sender {sender!r}")
            if time < state.last - 1e-9:
                self._add(f"ack for broadcast {bid} precedes its last "
                          f"delivery")
            f_ack = self.f_ack
            if f_ack is not None and time - state.start > f_ack + 1e-6:
                self._add(f"ack for broadcast {bid} took "
                          f"{time - state.start} > F_ack={f_ack}")
            # (A faulty sender's broadcast may be partially or wholly
            # suppressed; its ack gates nothing.) The coverage
            # obligation is the sender's neighbor set as of the
            # broadcast, not as of the ack.
            delivered = state.delivered
            if (sender in self.faulty
                    or delivered.issuperset(state.obligated)):
                return
            for neighbor in state.obligated:
                if neighbor in delivered or neighbor in self.faulty:
                    continue
                crashed_at = self._crash_time.get(neighbor)
                if crashed_at is None or crashed_at > time:
                    self._add(f"ack for broadcast {bid} of {sender!r} "
                              f"before non-faulty neighbor {neighbor!r} "
                              f"received")
        elif kind == "broadcast":
            adjacency = self._adjacency
            if adjacency is not None:
                obligated = reach = frozenset(adjacency.get(node, ()))
            else:
                static = self._static.get(node)
                if static is None:
                    neighbors = (self.graph.neighbors(node)
                                 if self.graph.has_node(node) else ())
                    static = self._static[node] = (neighbors,
                                                   frozenset(neighbors))
                obligated, reach = static
            self._open[bid] = _OpenBroadcast(
                time, node, payload, obligated, reach,
                adjacency is not None)
            crashed_at = self._crash_time.get(node)
            if crashed_at is not None and time > crashed_at:
                self._add(f"crashed node {node!r} broadcast at {time}")
        elif kind == "drop":
            state = self._open.get(bid)
            if state is None:
                self._add(f"drop for unknown or closed broadcast {bid}")
                return
            if state.sender not in self.faulty and node not in self.faulty:
                self._add(f"broadcast {bid} dropped between correct "
                          f"nodes {state.sender!r} -> {node!r}")
            state.delivered.add(node)
        elif kind == "crash":
            self._crash_time.setdefault(node, time)
        elif kind == "topo" and bid in (TOPO_EDGE_UP, TOPO_EDGE_DOWN):
            # (Node leave/join markers carry no edges.)
            adjacency = self._adjacency
            if adjacency is None:
                adjacency = self._adjacency = {
                    v: set(self.graph.neighbors(v))
                    for v in self.graph.nodes}
            us = adjacency.setdefault(node, set())
            vs = adjacency.setdefault(peer, set())
            if bid == TOPO_EDGE_UP:
                us.add(peer)
                vs.add(node)
            else:
                us.discard(peer)
                vs.discard(node)


    def feed_deliveries(self, time: float, bid: int, sender: Any,
                        payload: Any, receivers: tuple) -> None:
        """Audit a run -- one broadcast delivered to ``receivers``, in
        order, at ``time`` -- as :meth:`feed` would row by row.

        A run that is clean on every per-delivery check is cleared with
        set operations; anything else is replayed through :meth:`feed`,
        so each violation message and its position stay what they are.
        """
        state = self._open.get(bid)
        if (state is not None and payload is state.payload
                and time >= state.start and not self._crash_time
                and state.reach.issuperset(receivers)):
            delivered = state.delivered
            if delivered.isdisjoint(receivers):
                before = len(delivered)
                delivered.update(receivers)
                if len(delivered) - before == len(receivers):
                    if time > state.last:
                        state.last = time
                    return
                # A receiver repeats inside the run (the sets were
                # disjoint, so this undoes the update exactly).
                delivered.difference_update(receivers)
        feed = self.feed
        for receiver in receivers:
            feed(time, "deliver", receiver, bid, sender, payload)


def check_model_invariants(graph, trace: TraceSink,
                           f_ack: Optional[float] = None,
                           unreliable_graph=None,
                           faulty: FrozenSet[Any] = frozenset()
                           ) -> InvariantReport:
    """Verify the MAC-layer contract over a completed trace.

    The checks are :class:`InvariantAuditor`'s; this entry point
    pre-seeds its crash times and feeds it every record. ``trace`` is
    any replayable :class:`~repro.macsim.trace.TraceSink` (or a plain
    iterable of records); the replay runs in O(n + crashes) memory
    (plus O(deg) per in-flight broadcast on dynamic runs).

    Disk traces (a :class:`~repro.macsim.columnar.ColumnarSink` at
    ``TraceLevel.COLUMNAR``) take a vectorized fast path when numpy is
    available: the same audit expressed as whole-column passes, ~an
    order of magnitude faster, in O(n + open broadcasts + one slice of
    rows) memory (O(broadcasts) when a crashed sender's never-acked
    broadcast pins its open-id window). The fast path covers the
    static-topology non-Byzantine shapes and silently falls back to
    the auditor on anything else; verdict equivalence between the two
    is pinned by the test-suite. An in-RAM FULL trace always replays
    through the auditor, so a FULL run never loads numpy.
    """
    if getattr(trace, "level", None) is TraceLevel.COLUMNAR \
            and not faulty and unreliable_graph is None:
        from .columnar import try_vectorized_invariants
        fast_report = try_vectorized_invariants(graph, trace, f_ack)
        if fast_report is not None:
            return fast_report
    auditor = InvariantAuditor(graph, f_ack, unreliable_graph, faulty)
    feed = auditor.feed
    # Crash times come from the sink's essential-kind index when it
    # has one (every sink does). A plain iterable is materialized
    # once so the pre-scan does not exhaust a generator before the
    # main replay pass.
    of_kind = getattr(trace, "of_kind", None)
    if of_kind is not None:
        crash_records = of_kind("crash")
    else:
        trace = list(trace)
        crash_records = [r for r in trace if r.kind == "crash"]
    for rec in crash_records:
        feed(rec.time, "crash", rec.node)
    for rec in trace:
        feed(rec.time, rec.kind, rec.node, rec.broadcast_id, rec.peer,
             rec.payload)
    return auditor.report()


@dataclass
class ConsensusReport:
    """Result of checking the three consensus properties."""

    agreement: bool
    validity: bool
    termination: bool
    decisions: dict
    undecided: list

    @property
    def ok(self) -> bool:
        return self.agreement and self.validity and self.termination


def check_consensus(trace: TraceSink, initial_values: dict,
                    alive_nodes: Optional[list] = None,
                    faulty: FrozenSet[Any] = frozenset(),
                    untrusted: Optional[FrozenSet[Any]] = None
                    ) -> ConsensusReport:
    """Check agreement/validity/termination against a trace.

    ``initial_values`` maps node label -> consensus input. Termination
    is judged over ``alive_nodes`` (defaults to every node that did not
    crash in the trace and is not ``faulty``).

    With a non-empty ``faulty`` set, agreement and termination are
    scoped to *correct* nodes: faulty decisions are ignored.
    ``untrusted`` additionally names the nodes whose *inputs* do not
    validate a decision; it defaults to ``faulty`` (the Byzantine
    reading). Crash/omission callers pass
    ``untrusted=fault_model.lying_nodes()`` (empty for those models),
    because a crashed node executes its program correctly and its
    input remains a legitimate decision value.
    """
    if untrusted is None:
        untrusted = faulty
    decisions = trace.decisions()
    crashed = trace.crashed_nodes()
    if faulty:
        decisions = {node: value for node, value in decisions.items()
                     if node not in faulty}
    if alive_nodes is None:
        alive_nodes = [v for v in initial_values
                       if v not in crashed and v not in faulty]

    values = set(decisions.values())
    agreement = len(values) <= 1
    trusted_inputs = {value for node, value in initial_values.items()
                      if node not in untrusted}
    validity = all(v in trusted_inputs for v in values)
    undecided = [v for v in alive_nodes if v not in decisions]
    termination = not undecided
    return ConsensusReport(
        agreement=agreement,
        validity=validity,
        termination=termination,
        decisions=decisions,
        undecided=undecided,
    )
