"""The discrete-event abstract MAC layer engine.

:class:`Simulator` executes a set of :class:`~repro.macsim.process.Process`
instances bound to the nodes of a graph, under a pluggable message
scheduler, with optional fault injection. It enforces the model contract
of Section 2 of the paper:

* **Acknowledged local broadcast.** One in-flight broadcast per node;
  further ``broadcast()`` calls are discarded until the ack. Every
  non-faulty neighbor receives the message before the ack fires.
* **Scheduler-driven non-determinism.** All timing comes from the
  scheduler's plan (:class:`~repro.macsim.schedulers.base.DeliveryPlan`
  or :class:`~repro.macsim.schedulers.base.UniformPlan`), which the
  engine validates (deliveries before ack, ack within ``F_ack``, every
  time a number).
* **Zero-time computation.** Handlers run atomically at event times.
* **Every fault is planned.** A
  :class:`~repro.macsim.faults.base.FaultModel` (crash, omission,
  Byzantine; see :mod:`repro.macsim.faults`) is fixed before the run
  starts, so ``mac_broadcast`` applies it to the schedule. A crash may
  cut off part of an in-flight broadcast's audience: the plan loses a
  delivery ``(r, t)`` whose receiver crashes at some ``c_r <= t`` and,
  when the sender crashes at some ``c_s <= ack_time``, the ack and
  every delivery at ``t >= c_s`` its ``still_delivered`` does not
  allow (crash events sort before deliveries and acks of equal time,
  so this is exactly what cancelling at the crash would give; the cut
  also applies to a broadcast orphaned by a node-churn reset). The
  model then maps each delivery left to an outcome -- deliver, forge,
  drop (:meth:`~repro.macsim.faults.base.FaultModel.outcomes`) -- and
  every run, faulty or not, takes the one inlined delivery path.
* **Dynamic topologies.** A
  :class:`~repro.macsim.dynamics.base.TopologyDynamics` model (edge
  churn, node churn, mobility, scripted timelines; see
  :mod:`repro.macsim.dynamics`) may rewrite the live graph at epoch
  boundaries. Epochs are applied whenever simulated time is about to
  advance past them -- before any event at or after the epoch runs --
  so a broadcast always uses the topology in force at its start time
  (deliveries already in flight complete on the old topology). Each
  applied epoch recomputes the cached neighbor tuples, tells the
  scheduler via ``Scheduler.on_topology_change`` (a no-op for the
  built-ins, which keep nothing between broadcasts) and emits
  JSON-lossless ``topo`` trace records; nodes rejoining after
  churn are rebuilt fresh from the process factory (state reset). A
  rejoining node starts -- and broadcasts -- at its epoch's timestamp,
  which under a continuous-delay scheduler schedules deliveries
  *before* the event ``run()`` popped to find the epoch due: after
  each epoch the held event goes back on the heap if the head now
  sorts before it, so time never runs backwards.
* **Bounded messages.** In strict mode, each payload's ``id_footprint()``
  must stay below a constant, enforcing the paper's O(1)-ids rule.

The engine also records a trace (a sink chosen by
:class:`~repro.macsim.trace.TraceLevel`) and notifies
observers whenever simulated time advances, which is how the
lower-bound experiments take lock-step state snapshots.

Fast-path design
----------------
The main loop is O(1) per event with no per-event scans:

* **Quiescence** is tracked with an ``_undecided_alive`` counter
  maintained on ``decide``/``crash`` instead of scanning every process
  after every event.
* **Neighbor tuples** are cached per node, rebuilt only when a
  topology epoch changes the graph.
* **Observer hooks** are pre-resolved into lists at registration time;
  when no observer implements a hook, the loop pays a single falsy
  check, not a ``getattr`` scan.
* Trace occurrences are emitted to a pluggable
  :class:`~repro.macsim.trace.TraceSink`; when the sink does not
  materialize MAC-level kinds the engine counts occurrences instead of
  allocating records.
* **Batched delivery scheduling**: deliveries of one broadcast that
  share a timestamp are scheduled as a single ``bdeliver`` heap entry
  carrying the receiver tuple instead of one entry per neighbor --
  O(deg) -> O(#distinct timestamps) heap traffic. Round-structured
  schedulers say "every neighbor at one instant" with a
  :class:`~repro.macsim.schedulers.base.UniformPlan`, whose receiver
  tuple (the engine's own cached neighbor tuple, handed through) is
  the batch as it stands: one entry, nothing rebuilt per neighbor.
  Mapping plans with repeated timestamps -- quantized random delays,
  a hand-built all-equal ``DeliveryPlan`` -- get one entry per
  timestamp group, receivers in plan order. Each entry expands at
  pop time in one inner loop over its receivers that hoists the
  broadcast's id, sender, payload and telemetry span once and runs
  before the heap is touched again; every delivery still counts as
  one processed event, and is preceded by the same
  ``stop_when_all_decided``/``stop_predicate``/limit checks, in the
  same order, as per-receiver entries were. The per-receiver
  cursor (``_pending_batch``) is written only when one of those -- or
  an exception -- interrupts the loop, and the next ``run()`` resumes
  at that receiver; while a batch is expanding the cursor is unset.
  Because a broadcast's per-neighbor entries always occupied a
  contiguous seq block and only same-timestamp entries can tie,
  replacing each same-timestamp group with one entry inside that
  block preserves exact event order. A crash plan filters a batch's
  receiver tuple when the broadcast is planned (a tuple that lost
  nobody stays the same object; an emptied batch pushes no entry), and
  a fault model's outcomes split it only where they change: a run of
  receivers sharing one payload stays one entry, each drop becomes a
  ``drop`` entry, and the pieces take consecutive seqs in plan order.
  Plans whose timestamps are all distinct (random delays) build no
  grouping at all, and a fan-out of one is a plain ``deliver`` entry
  under either plan form.
* **A fan-out is one row.** The deliveries of a batch differ only in the
  receiver, so the expansion does not call ``trace.record`` per
  receiver: it keeps an *open run* ``[first unwritten, next receiver]``
  over the batch (``_open_run``) and hands it to the sink in one
  ``TraceSink.record_deliveries`` call. Row order is pinned byte for
  byte, and a handler can write rows mid-batch, so the run is written at
  three points, before anything else can reach or read the sink: (1) in
  ``mac_broadcast`` and ``note_decision``, before the ``discard`` /
  ``broadcast`` / ``decide`` row of a call made from inside
  ``on_receive``; (2) before every ``stop_predicate`` call (predicates
  read the sink); (3) in the batch loop's ``finally`` -- a completed
  batch, a stop, a limit, an exception -- which also drops the run (and
  with it the broadcast record). The sink is therefore whole whenever
  control leaves the engine. Single ``deliver`` and ``drop`` entries
  keep per-row ``record``.
* **Broadcast records live as long as their events.** No table maps
  broadcast ids to records: a broadcast's ``deliver``/``bdeliver``/
  ``ack`` heap entries and the batch cursor carry the record itself,
  and ``_inflight`` holds it until the ack (or the sender's crash). A
  record is therefore freed, by reference count, when its last event
  has run -- under every scheduler, trusted or validated, crash plan
  or dual graph -- and a delivery that a (lying) trusted scheduler or
  the dual-graph window places after the ack still finds its payload.
  Long runs keep O(n) records in RAM, not O(broadcasts).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Mapping, Optional

from .dynamics.base import edge_key as _edge_key
from .errors import ConfigurationError, ModelViolationError
from .events import (ACK_PRIORITY, CRASH_PRIORITY, DELIVER_PRIORITY,
                     WAKEUP_PRIORITY, EventQueue)
from .faults.base import DROP, FaultModel
from .faults.crash import CrashPlan
from .process import Process
from .schedulers.base import Scheduler, UniformPlan
from .telemetry import Telemetry
from .trace import (TOPO_EDGE_DOWN, TOPO_EDGE_UP, TOPO_NODE_DOWN,
                    TOPO_NODE_UP, TraceLevel, TraceSink, make_sink)
from ..topology.graphs import Graph

#: Default ceiling on processed events; prevents runaway executions.
DEFAULT_MAX_EVENTS = 2_000_000

#: Default ceiling (in multiples of ``f_ack``) on simulated time.
DEFAULT_MAX_TIME_FACTOR = 10_000.0

#: Strict-mode bound on ids per message (paper: O(1) unique ids).
DEFAULT_ID_BUDGET = 24


@dataclass(slots=True)
class _BroadcastRecord:
    """Book-keeping for one broadcast.

    Nothing indexes records: the broadcast's ``deliver``/``bdeliver``/
    ``ack`` heap entries (and a half-consumed batch cursor) carry the
    record itself, and ``Simulator._inflight`` holds it until the ack
    or the sender's crash, so it is freed when its last event has run
    -- whatever the scheduler planned, a delivery that lands after the
    ack included. Faults need nothing here: what a crash cuts was left
    out of the schedule when the broadcast was planned, and a forged
    run's entry carries a record of its own (same ``bid`` and
    ``sender``, the forged ``payload``).
    """

    bid: int
    sender: Any
    payload: Any
    # Set when the sender's process was reset (node-churn rejoin)
    # while this broadcast was in flight: its ack is suppressed so the
    # fresh process never sees an ack for a broadcast it did not send.
    orphaned: bool = False


@dataclass
class RunResult:
    """Outcome of :meth:`Simulator.run`."""

    trace: TraceSink
    decisions: dict
    decision_times: dict
    end_time: float
    events_processed: int
    stop_reason: str

    @property
    def all_decided(self) -> bool:
        """Whether every non-crashed process decided."""
        return self.stop_reason in ("all_decided", "quiescent_all_decided")


class Simulator:
    """Run processes over a graph under the abstract MAC layer model.

    Parameters
    ----------
    graph:
        A :class:`repro.topology.graphs.Graph` (anything exposing
        ``nodes``, ``neighbors(v)`` and ``has_node(v)`` works).
    processes:
        Mapping from graph node label to the bound :class:`Process`.
    scheduler:
        The message scheduler controlling all timing.
    fault_model:
        A :class:`~repro.macsim.faults.base.FaultModel` adversary,
        asked for each broadcast's delivery outcomes when it is
        planned, and the one way to inject a fault: crash plans arrive as a
        :class:`~repro.macsim.faults.crash.CrashFaultModel`. ``None``
        (default) is the fault-free base model.
    validate_plans:
        Whether scheduler plans are validated against the model
        contract. ``None`` (default) validates unless the scheduler
        declares itself ``trusted`` (built-in schedulers whose plans
        are correct by construction).
    strict_sizes:
        When true, payloads exposing ``id_footprint()`` are checked
        against ``id_budget``.
    id_budget:
        Strict-mode bound on ids per message.
    trace_level:
        How much the run's trace materializes, and where; see
        :class:`~repro.macsim.trace.TraceLevel`. Ignored when
        ``trace_sink`` is given.
    trace_sink:
        A pre-built :class:`~repro.macsim.trace.TraceSink` to emit
        occurrences to (e.g. a
        :class:`~repro.macsim.columnar.ColumnarSink` with a chosen
        directory). Overrides ``trace_level``.
    dynamics:
        An optional
        :class:`~repro.macsim.dynamics.base.TopologyDynamics` model
        rewriting the live graph at epoch boundaries (see
        :mod:`repro.macsim.dynamics`).
    process_factory:
        ``factory(label) -> Process`` used to rebuild a node's process
        when a dynamics model resets it (node-churn rejoin). Populated
        automatically by :func:`build_simulation`; required only when
        the dynamics model actually performs resets.
    """

    def __init__(self, graph, processes: Mapping[Any, Process],
                 scheduler: Scheduler, *,
                 fault_model: Optional[FaultModel] = None,
                 strict_sizes: bool = True,
                 id_budget: int = DEFAULT_ID_BUDGET,
                 unreliable_graph=None,
                 validate_plans: Optional[bool] = None,
                 trace_level: "TraceLevel | str" = TraceLevel.FULL,
                 trace_sink: Optional[TraceSink] = None,
                 dynamics=None,
                 process_factory: Optional[Callable[[Any], Process]]
                 = None,
                 telemetry: "Telemetry | bool | None" = None) -> None:
        self.graph = graph
        self.scheduler = scheduler
        self.strict_sizes = strict_sizes
        self.id_budget = id_budget
        self.unreliable_graph = unreliable_graph
        self.trace = (trace_sink if trace_sink is not None
                      else make_sink(trace_level))
        self.now = 0.0

        # Opt-in observability (engine counters, F_ack/F_prog spans,
        # phase profiler). Telemetry never emits trace records -- a
        # telemetry-on run's trace is byte-identical to the same run
        # with telemetry off -- and when disabled the hot loop pays a
        # single falsy check per delivery. `_tel_spans` maps in-flight
        # bid -> [start, first_delivery, last_delivery] (-1.0 for "no
        # delivery yet"); spans are evicted at the ack, mirroring the
        # invariant checker's eviction-at-ack replay model.
        if telemetry:
            self.telemetry = (telemetry if isinstance(telemetry, Telemetry)
                              else Telemetry())
            self._tel_spans: Optional[dict] = {}
        else:
            self.telemetry = None
            self._tel_spans = None

        if fault_model is None:
            fault_model = FaultModel()
        self.fault_model = fault_model
        # Only a model that names a faulty node may forge or drop a
        # delivery: it is asked once per broadcast, when it is planned.
        self._fault_outcomes = (fault_model.outcomes
                                if fault_model.faulty_nodes() else None)

        # Plan validation: trusted built-in schedulers produce correct
        # plans by construction and may skip the O(deg) validate.
        if validate_plans is None:
            validate_plans = not getattr(scheduler, "trusted", False)
        self._validate_plans = bool(validate_plans)

        self._processes: dict[Any, Process] = {}
        for label, process in processes.items():
            if not graph.has_node(label):
                raise ConfigurationError(
                    f"process bound to unknown node {label!r}")
            process._bind(self, label)
            self._processes[label] = process
        missing = [v for v in graph.nodes if v not in self._processes]
        if missing:
            raise ConfigurationError(
                f"nodes without processes: {missing[:5]!r}...")

        self._queue = EventQueue()
        self._inflight: dict[Any, _BroadcastRecord] = {}
        self._next_bid = 0
        self._crashed: set = set()
        self._observers: list = []
        self._time_hooks: list = []
        self._finish_hooks: list = []
        self._started = False
        self._finish_notified = False

        # O(1) quiescence: processes that are neither crashed nor
        # decided. Maintained by note_decision / _dispatch_crash.
        self._undecided_alive = len(self._processes)

        # Per-node neighbor tuples; the graph is immutable per run.
        self._neighbors: dict[Any, tuple] = {
            v: tuple(graph.neighbors(v)) for v in graph.nodes}

        # Whether the sink materializes MAC-level occurrences (vs. the
        # counter-only bump fast path).
        self._trace_mac = self.trace.materializes_mac
        # Direct alias into the sink's occurrence counters for the
        # counts-only fast path (avoids a method call per event).
        # Third-party sinks without the shared dict fall back to the
        # protocol-level bump() at every count site.
        self._kind_counts = getattr(self.trace, "_kind_counts", None)
        # Delivery-batch cursor of an *interrupted* expansion: [time,
        # record, receivers, next_index]. Lives on the instance so a run
        # stopped mid-batch (a limit, a stop, an exception) resumes at
        # exactly that receiver; None while run() itself is expanding.
        self._pending_batch: Optional[list] = None
        # The delivery run run() is expanding whose rows the sink has
        # not been handed yet: [first unwritten index, next receiver
        # index, time, record, receivers]; None outside a fast-path
        # batch (see "A fan-out is one row" above).
        self._open_run: Optional[list] = None

        # Every crash plan is known up front: mac_broadcast prunes what
        # a crash will cut from each plan (see _prune_crashed), so a
        # crash-free run pays one falsy check per broadcast.
        self._crash_by_node: dict[Any, CrashPlan] = {}
        for plan in fault_model.crash_plans():
            if not graph.has_node(plan.node):
                raise ConfigurationError(
                    f"crash plan for unknown node {plan.node!r}")
            if plan.node in self._crash_by_node:
                raise ConfigurationError(
                    f"multiple crash plans for node {plan.node!r}")
            self._crash_by_node[plan.node] = plan
            self._queue.push_light(plan.time, CRASH_PRIORITY, "crash",
                                   node=plan.node)

        # Step-boundary behaviour (observers, target validation).
        fault_model.attach(self)

        # Topology dynamics: the model is bound against the initial
        # graph; epochs are applied lazily from the main loop whenever
        # time is about to advance past the next boundary. The
        # canonical edge set mirrors self.graph so deltas apply in
        # O(delta) before the O(E) graph rebuild.
        self.dynamics = dynamics
        self._process_factory = process_factory
        self._scheduler_topo_hook = getattr(scheduler,
                                            "on_topology_change", None)
        self._edge_set: Optional[set] = None
        self._next_epoch: Optional[float] = None
        if dynamics is not None:
            dynamics.bind(self)
            self._next_epoch = dynamics.next_epoch_time(0.0)
            if self._next_epoch is not None:
                if self._next_epoch <= 0.0:
                    raise ConfigurationError(
                        "topology epochs must have positive times")
                self._edge_set = set(graph.edges())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def processes(self) -> Mapping[Any, Process]:
        return self._processes

    def process_at(self, label: Any) -> Process:
        return self._processes[label]

    def alive_nodes(self) -> list:
        return [v for v in self.graph.nodes if v not in self._crashed]

    def schedule_callback(self, time: float,
                          callback: Callable[["Simulator"], None]) -> None:
        """Run ``callback(sim)`` as a proper event at ``time``.

        The callback executes with ``sim.now == time``, after any
        deliveries/acks at that timestamp (wakeup priority). Fault
        models use this for step-boundary behaviour that must happen
        at an exact simulated time (e.g. forged Byzantine decisions).
        """
        if time < self.now:
            raise ConfigurationError(
                f"callback scheduled in the past: {time} < {self.now}")
        # The entry carries the callback itself, so a long-lived
        # simulator woken once per slot keeps no table of them.
        self._queue.push_light(time, WAKEUP_PRIORITY, "wakeup",
                               node=None, broadcast_id=callback)

    def add_observer(self, observer) -> None:
        """Register an observer.

        Observers may implement ``on_time_advance(sim, new_time)``
        (called after all events at the previous timestamp finished)
        and/or ``on_finish(sim)``.
        """
        self._observers.append(observer)
        hook = getattr(observer, "on_time_advance", None)
        if hook is not None:
            self._time_hooks.append(hook)
        hook = getattr(observer, "on_finish", None)
        if hook is not None:
            self._finish_hooks.append(hook)

    # ------------------------------------------------------------------
    # Runtime services used by Process
    # ------------------------------------------------------------------
    def mac_broadcast(self, process: Process, payload: Any) -> bool:
        sender = process._label
        if sender in self._crashed:
            return False
        if sender in self._inflight:
            if self._trace_mac:
                if self._open_run is not None:
                    self._write_run(self._open_run)
                self.trace.record(self.now, "discard", sender,
                                  payload=payload)
            else:
                self.trace.bump("discard", sender)
            return False
        if self.strict_sizes:
            # _check_size's accept test, inlined: the strict-size rule
            # is checked on every broadcast, without a second frame.
            footprint = getattr(payload, "id_footprint", None)
            if footprint is not None and footprint() > self.id_budget:
                self._check_size(payload)

        now = self.now
        bid = self._next_bid
        self._next_bid = bid + 1
        neighbors = self._neighbors[sender]
        # Phase profiler: per-*broadcast* sampling only, so the
        # perf_counter cost amortizes over the whole fan-out.
        tel = self.telemetry
        if tel is not None:
            t0 = perf_counter()
        plan = self.scheduler.plan(sender=sender, message=payload,
                                   start_time=now, neighbors=neighbors)
        if tel is not None:
            t1 = perf_counter()
            tel.phase_add("scheduler_plan", t1 - t0)
        if self._validate_plans:
            plan.validate(start_time=now, neighbors=neighbors,
                          f_ack=self.scheduler.f_ack)
            if tel is not None:
                tel.phase_add("plan_validate", perf_counter() - t1)

        # Delivery-batch detection (module docstring, "Batched
        # delivery scheduling"): a UniformPlan's receiver tuple *is*
        # the batch; a mapping plan with repeated timestamps is grouped
        # per timestamp in plan order; all-distinct plans build nothing.
        batches = ()  # (time, receivers) groups, one entry each
        if type(plan) is UniformPlan:
            receivers = plan.receivers
            if len(receivers) > 1:
                batches = ((plan.when, receivers),)
                singles = {}  # receiver -> time, one entry each
            else:
                singles = dict.fromkeys(receivers, plan.when)
        else:
            singles = plan.deliveries
            fanout = len(singles)
            if fanout > 1 and len(set(singles.values())) < fanout:
                groups: dict = {}
                for receiver, when in singles.items():
                    groups.setdefault(when, []).append(receiver)
                batches = tuple((when, tuple(group))
                                for when, group in groups.items()
                                if len(group) > 1)
                singles = {group[0]: when
                           for when, group in groups.items()
                           if len(group) == 1}
        if self.unreliable_graph is not None:
            # Unreliable deliveries never batch and sort after the
            # reliable ones of the same timestamp.
            extra = self._plan_unreliable(sender, payload, now,
                                          plan.ack_time, neighbors)
            if extra:
                singles = {**singles, **extra}
        ack_time = plan.ack_time
        if self._crash_by_node:
            batches, singles, ack_time = self._prune_crashed(
                sender, batches, singles, ack_time)

        record = _BroadcastRecord(bid, sender, payload)
        entries = (None if self._fault_outcomes is None else
                   self._fault_entries(record, neighbors, batches, singles))
        # Inline batch of EventQueue.push_light: one seq update for the
        # whole fan-out (see EventQueue docstring).
        queue = self._queue
        heap = queue._heap
        seq = queue._next_seq
        if entries is None:
            for when, receivers in batches:
                heappush(heap, (when, DELIVER_PRIORITY, seq, "bdeliver",
                                receivers, record))
                seq += 1
            for receiver, when in singles.items():
                heappush(heap, (when, DELIVER_PRIORITY, seq, "deliver",
                                receiver, record))
                seq += 1
        else:
            for when, kind, target, entry_record in entries:
                heappush(heap, (when, DELIVER_PRIORITY, seq, kind, target,
                                entry_record))
                seq += 1
        if ack_time is not None:
            heappush(heap, (ack_time, ACK_PRIORITY, seq, "ack", sender,
                            record))
            seq += 1
        queue._next_seq = seq

        self._inflight[sender] = record
        process._mac_pending = True
        if self._trace_mac:
            if self._open_run is not None:
                # Called from on_receive mid-batch: the deliveries made
                # so far precede this broadcast's row.
                self._write_run(self._open_run)
            self.trace.record(now, "broadcast", sender,
                              broadcast_id=bid, payload=payload)
        else:
            self.trace.bump("broadcast", sender)
        if self._tel_spans is not None:
            self._tel_spans[bid] = [now, -1.0, -1.0]
        return True

    def note_decision(self, process: Process, value: Any) -> None:
        label = process._label
        if label not in self._crashed:
            self._undecided_alive -= 1
        if self._open_run is not None:
            self._write_run(self._open_run)
        self.trace.record(self.now, "decide", label, payload=value)

    def _prune_crashed(self, sender: Any, batches: tuple, singles: dict,
                       ack_time: float) -> tuple:
        """Leave out of one broadcast's schedule what a crash cuts.

        A delivery ``(r, t)`` is dropped when ``r`` crashes at some
        ``c_r <= t``. When the sender crashes at some ``c_s <=
        ack_time``, the ack is dropped (``None`` is returned for its
        time) and so is every delivery at ``t >= c_s`` to a receiver
        the crash plan does not allow. Crash events sort before
        deliveries and acks of the same timestamp, so these are exactly
        the entries that, popped after the crash, would do nothing.
        Batch tuples that lose nobody are returned as the same object;
        emptied batches are dropped.
        """
        crashes = self._crash_by_node
        cut = crashes.get(sender)
        if cut is not None and cut.time > ack_time:
            cut = None

        def kept(receiver: Any, when: float) -> bool:
            crash = crashes.get(receiver)
            if crash is not None and crash.time <= when:
                return False
            return (cut is None or when < cut.time
                    or cut.allows_delivery(receiver))

        pruned = []
        for when, receivers in batches:
            survivors = tuple(r for r in receivers if kept(r, when))
            if len(survivors) == len(receivers):
                survivors = receivers
            if survivors:
                pruned.append((when, survivors))
        singles = {r: when for r, when in singles.items() if kept(r, when)}
        return tuple(pruned), singles, (ack_time if cut is None else None)

    def _fault_entries(self, record: _BroadcastRecord, neighbors: tuple,
                       batches: tuple, singles: dict) -> Optional[list]:
        """Ask the fault model for the outcomes of one planned broadcast
        and return its delivery entries ``(time, kind, target, record)``
        in plan order, or ``None`` when it touched nothing.

        A batch is split only where the outcome changes: receivers that
        share one payload object stay one ``bdeliver`` entry (a
        ``deliver`` entry when only one does), and each drop is a
        ``drop`` entry. A forged run's record carries the forged
        payload, checked against the O(1)-ids rule here.
        """
        payload = record.payload
        planned = batches + tuple((when, (receiver,))
                                  for receiver, when in singles.items())
        outcomes = self._fault_outcomes(record.bid, record.sender, payload,
                                        neighbors, self.now, planned)
        if not outcomes:
            return None
        entries = []
        injected = 0
        for when, receivers in planned:
            start, count = 0, len(receivers)
            while start < count:
                outcome = outcomes.get(receivers[start], payload)
                end = start + 1
                if outcome is DROP:
                    entries.append((when, "drop", receivers[start], record))
                else:
                    while (end < count and outcomes.get(receivers[end],
                                                        payload) is outcome):
                        end += 1
                    run_record = record
                    if outcome is not payload:
                        if self.strict_sizes:
                            self._check_size(outcome)
                        run_record = _BroadcastRecord(record.bid,
                                                      record.sender, outcome)
                    entries.append(
                        (when, "deliver", receivers[start], run_record)
                        if end - start == 1 else
                        (when, "bdeliver", receivers[start:end], run_record))
                if outcome is not payload:
                    injected += end - start
                start = end
        if self.telemetry is not None:
            self.telemetry.fault_injections += injected
        return entries

    def _write_run(self, run: list) -> None:
        """Hand the sink the deliveries ``run`` made since its last
        write, as one row. The run is advanced first, so a sink that
        raises (a spill budget) is not handed the same rows again."""
        first, end = run[0], run[1]
        if first < end:
            run[0] = end
            record = run[3]
            self.trace.record_deliveries(run[2], record.bid, record.sender,
                                         record.payload, run[4][first:end])

    def _plan_unreliable(self, sender: Any, payload: Any,
                         start_time: float, ack_time: float,
                         reliable: tuple) -> Mapping[Any, float]:
        """Delivery times over the dual graph's unreliable links.

        Unreliable receivers never gate the ack; a dropped delivery
        simply never happens -- the defining behaviour of the model
        variant.
        """
        if not self.unreliable_graph.has_node(sender):
            return {}
        reliable = set(reliable)
        extra = tuple(v for v in self.unreliable_graph.neighbors(sender)
                      if v not in reliable)
        if not extra:
            return {}
        deliveries = self.scheduler.plan_unreliable(
            sender=sender, message=payload, start_time=start_time,
            ack_time=ack_time, neighbors=extra)
        for receiver, when in deliveries.items():
            if receiver not in extra:
                raise ModelViolationError(
                    f"unreliable delivery to {receiver!r}, not an "
                    f"unreliable neighbor of {sender!r}")
            if not start_time <= when <= ack_time + 1e-9:
                raise ModelViolationError(
                    f"unreliable delivery at {when} outside broadcast "
                    f"window [{start_time}, {ack_time}]")
        return deliveries

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, *, max_events: int = DEFAULT_MAX_EVENTS,
            max_time: Optional[float] = None,
            stop_when_all_decided: bool = True,
            stop_predicate: Optional[Callable[["Simulator"], bool]] = None
            ) -> RunResult:
        """Execute until quiescence, decision, or a limit.

        ``stop_predicate`` (checked after every event) allows callers to
        stop mid-execution, e.g. once a particular node decides.

        ``run()`` may be invoked repeatedly on the same simulator to
        resume after a stop or an event/time limit, at the exact
        receiver a delivery batch was interrupted at: a service group
        runs its long-lived replicated log one slot per call, until
        every replica committed that slot. ``on_finish`` observers
        fire only once, at the end of the first invocation.
        """
        if max_time is None:
            max_time = DEFAULT_MAX_TIME_FACTOR * self.scheduler.f_ack

        if not self._started:
            self._started = True
            for label in self.graph.nodes:
                process = self._processes[label]
                if label not in self._crashed:
                    process.on_start()

        # Hot loop: everything per-event is O(1); hoist lookups once.
        # The queue pop and the delivery dispatch are inlined (see
        # EventQueue's docstring), so any observer or stop predicate
        # sees a consistent engine mid-run.
        heap = self._queue._heap
        heappop_ = heappop
        dispatch_ack = self._dispatch_ack
        dispatch_crash = self._dispatch_crash
        time_hooks = self._time_hooks
        processes = self._processes
        kind_counts = self._kind_counts
        trace_bump = self.trace.bump
        trace_record = self.trace.record
        trace_mac = self._trace_mac
        dynamics_on = self.dynamics is not None
        tel = self.telemetry
        tel_spans = self._tel_spans
        wall_start = perf_counter() if tel is not None else 0.0

        events_processed = 0
        stop_reason = "quiescent"
        # A cursor is only ever left by a run() that was interrupted
        # mid-batch, so this is the one place it can be found.
        batch = self._pending_batch
        self._pending_batch = None
        try:
          while True:
            # -- delivery-batch expansion --------------------------------
            # A popped (or resumed) ``bdeliver`` entry is consumed here,
            # one receiver per inner iteration, before the heap is
            # touched again. Nothing in the heap can be ordered before
            # the remaining receivers (they share the popped entry's
            # key), so this preserves exact event order; each delivery
            # counts as one processed event and is preceded by the same
            # stop checks, in the same order, as a heap event. Only an
            # interruption -- a stop, a limit, an exception out of a
            # handler or the sink -- writes the cursor back, pointing
            # at the next receiver.
            if batch is not None:
                event_time, record, receivers, i = batch
                batch = None
                count = len(receivers)
                payload = record.payload
                span = (None if tel_spans is None
                        else tel_spans.get(record.bid))
                open_run = None
                if trace_mac:
                    open_run = self._open_run = [i, i, event_time, record,
                                                 receivers]
                try:
                    while i < count:
                        if (stop_when_all_decided
                                and self._undecided_alive == 0):
                            stop_reason = "all_decided"
                            break
                        if stop_predicate is not None:
                            if open_run is not None:
                                # Predicates read the sink.
                                self._write_run(open_run)
                            if stop_predicate(self):
                                stop_reason = "predicate"
                                break
                        if event_time > max_time:
                            # Only a resumed batch can be past the limit.
                            stop_reason = "max_time"
                            break
                        receiver = receivers[i]
                        i += 1
                        if open_run is not None:
                            open_run[1] = i
                        elif kind_counts is not None:
                            kind_counts["deliver"] += 1
                        else:
                            trace_bump("deliver", receiver)
                        if span is not None:
                            if span[1] < 0.0:
                                span[1] = event_time
                            span[2] = event_time
                        processes[receiver].on_receive(payload)
                        events_processed += 1
                        if events_processed >= max_events:
                            stop_reason = "max_events"
                            break
                    else:
                        continue
                finally:
                    if i < count:
                        self._pending_batch = [event_time, record,
                                               receivers, i]
                    if open_run is not None:
                        # However the batch ended, the sink is whole
                        # when control leaves the loop.
                        self._open_run = None
                        self._write_run(open_run)
                break
            if stop_when_all_decided and self._undecided_alive == 0:
                stop_reason = "all_decided"
                break
            if stop_predicate is not None and stop_predicate(self):
                stop_reason = "predicate"
                break
            if not heap:
                stop_reason = ("quiescent_all_decided"
                               if self._undecided_alive == 0
                               else "quiescent")
                break
            entry = heappop_(heap)
            event_time = entry[0]
            if event_time > max_time:
                stop_reason = "max_time"
                break
            if event_time + 1e-12 < self.now:
                raise ModelViolationError(
                    f"time went backwards: {event_time} < {self.now}")
            if event_time > self.now:
                # Topology epochs fire at time-advance boundaries:
                # every epoch at or before the next event's timestamp
                # is applied (in order) before that event runs, so
                # broadcasts started at the event see the new graph.
                if dynamics_on:
                    next_epoch = self._next_epoch
                    if next_epoch is not None \
                            and next_epoch <= event_time \
                            and self._advance_topology(entry):
                        # An epoch scheduled something that sorts
                        # before the held entry: that runs first.
                        heappush(heap, entry)
                        continue
                if event_time > self.now:
                    if time_hooks:
                        for hook in time_hooks:
                            hook(self, event_time)
                    self.now = event_time

            kind = entry[3]
            if kind == "deliver":
                record = entry[5]
                receiver = entry[4]
                if trace_mac:
                    trace_record(event_time, "deliver", receiver,
                                 broadcast_id=record.bid,
                                 peer=record.sender,
                                 payload=record.payload)
                elif kind_counts is not None:
                    kind_counts["deliver"] += 1
                else:
                    trace_bump("deliver", receiver)
                if tel_spans is not None:
                    span = tel_spans.get(record.bid)
                    if span is not None:
                        if span[1] < 0.0:
                            span[1] = event_time
                        span[2] = event_time
                processes[receiver].on_receive(record.payload)
            elif kind == "bdeliver":
                # The deliveries are expanded (and counted) above; the
                # entry itself is not an event.
                batch = (event_time, entry[5], entry[4], 0)
                continue
            elif kind == "ack":
                dispatch_ack(entry[4], entry[5])
            elif kind == "crash":
                dispatch_crash(entry[4])
            elif kind == "drop":
                # A delivery the fault model dropped when it was
                # planned. It never gates the sender's ack: the faulty
                # endpoint is exempt from the coverage rule.
                record = entry[5]
                trace_record(event_time, "drop", entry[4],
                             broadcast_id=record.bid, peer=record.sender,
                             payload=record.payload)
            elif kind == "wakeup":
                entry[5](self)
            else:  # pragma: no cover - defensive
                raise ModelViolationError(f"unknown event kind {kind!r}")
            events_processed += 1
            if events_processed >= max_events:
                stop_reason = "max_events"
                break
        except BaseException as exc:
            # Engine-raised exceptions (SpillBudgetError mid-flush, a
            # crashing handler, a model violation) flush a *partial*
            # telemetry snapshot before propagating, so aborted runs
            # keep their counters for post-mortems.
            if tel is not None:
                tel.note_events(events_processed)
                tel.wall_seconds += perf_counter() - wall_start
                tel.record_abort(self, exc)
            raise

        if tel is not None:
            tel.note_events(events_processed)
            tel.wall_seconds += perf_counter() - wall_start
            tel.finalize(self)

        if not self._finish_notified:
            self._finish_notified = True
            for hook in self._finish_hooks:
                hook(self)

        return RunResult(
            trace=self.trace,
            decisions=self.trace.decisions(),
            decision_times=self.trace.decision_times(),
            end_time=self.now,
            events_processed=events_processed,
            stop_reason=stop_reason,
        )

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _dispatch_ack(self, sender: Any,
                      record: _BroadcastRecord) -> None:
        if record.orphaned:
            # The sender's process was reset (node-churn rejoin) while
            # this broadcast was in flight: no ack is observed.
            return
        # Free the MAC layer before the handler so the process can
        # immediately start its next broadcast from within on_ack().
        # (A crash that would beat the ack pruned it when planned.)
        del self._inflight[sender]
        self._processes[sender]._mac_pending = False
        if self._trace_mac:
            self.trace.record(self.now, "ack", sender,
                              broadcast_id=record.bid)
        elif self._kind_counts is not None:
            self._kind_counts["ack"] += 1
        else:
            self.trace.bump("ack", sender)
        if self._tel_spans is not None:
            # Eviction-at-ack: the span closes here and later deliveries
            # (possible on unreliable-overlay runs) belong to no span --
            # mirroring the invariant checker's replay model so derived
            # and live histograms agree.
            span = self._tel_spans.pop(record.bid, None)
            if span is not None:
                self.telemetry.close_span(span[0], span[1], span[2],
                                          self.now)
        self._processes[sender].on_ack()

    def _dispatch_crash(self, node: Any) -> None:
        # What the crash cuts of this node's broadcasts, and of the
        # deliveries to it, was pruned when they were planned.
        process = self._processes[node]
        self._crashed.add(node)
        if not process.decided:
            self._undecided_alive -= 1
        self.trace.record(self.now, "crash", node)
        process.crashed = True
        if self._inflight.pop(node, None) is not None:
            process._mac_pending = False

    # ------------------------------------------------------------------
    # Topology dynamics
    # ------------------------------------------------------------------
    def _advance_topology(self, held: tuple) -> bool:
        """Apply the topology epochs at or before the popped heap
        entry ``held``; true when the caller must re-queue it.

        Simulated time advances *to each epoch* (firing time-advance
        observers) before its delta is applied, so processes reset by
        the epoch start -- and broadcast -- at the epoch's own
        timestamp. Under a continuous-delay scheduler such a broadcast
        is delivered before ``held``'s time, so the heap is checked
        after *each* epoch: once its head sorts before ``held`` no
        later epoch is applied (time would pass the new event) and the
        caller puts ``held`` back.
        """
        dynamics = self.dynamics
        time_hooks = self._time_hooks
        tel = self.telemetry
        heap = self._queue._heap
        up_to = held[0]
        while True:
            when = self._next_epoch
            if when is None or when > up_to:
                return False
            if when > self.now:
                if time_hooks:
                    for hook in time_hooks:
                        hook(self, when)
                self.now = when
            if tel is None:
                delta = dynamics.advance(when, self.graph)
                if delta:
                    self._apply_topology_delta(when, delta)
            else:
                t0 = perf_counter()
                delta = dynamics.advance(when, self.graph)
                if delta:
                    self._apply_topology_delta(when, delta)
                tel.topo_epochs += 1
                tel.phase_add("dynamics_epochs", perf_counter() - t0)
            following = dynamics.next_epoch_time(when)
            if following is not None and following <= when:
                raise ConfigurationError(
                    f"{type(dynamics).__name__} produced a "
                    f"non-advancing epoch time {following} after "
                    f"{when}")
            self._next_epoch = following
            if heap and heap[0] < held:
                return True

    def _apply_topology_delta(self, when: float, delta) -> None:
        """Rewrite the live graph and every topology-derived cache."""
        edges = self._edge_set
        graph = self.graph
        record = self.trace.record
        for node in delta.departed:
            if not graph.has_node(node):
                raise ConfigurationError(
                    f"dynamics departed unknown node {node!r}")
            record(when, "topo", node, broadcast_id=TOPO_NODE_DOWN)
        removed = []
        for u, v in delta.removed:
            key = _edge_key(u, v)
            if key in edges:
                edges.discard(key)
                removed.append(key)
        # Departure isolates the node (the documented contract): any
        # incident edge the model did not already list is removed too,
        # so custom models may return bare ``departed`` tuples.
        for node in delta.departed:
            for peer in graph.neighbors(node):
                key = _edge_key(node, peer)
                if key in edges:
                    edges.discard(key)
                    removed.append(key)
        added = []
        for u, v in delta.added:
            if u == v or not graph.has_node(u) or not graph.has_node(v):
                raise ConfigurationError(
                    f"dynamics added invalid edge {(u, v)!r}")
            key = _edge_key(u, v)
            if key not in edges:
                edges.add(key)
                added.append(key)
        for u, v in removed:
            record(when, "topo", u, broadcast_id=TOPO_EDGE_DOWN, peer=v)
        for u, v in added:
            record(when, "topo", u, broadcast_id=TOPO_EDGE_UP, peer=v)
        if removed or added:
            # The node set never changes: departed nodes are isolated,
            # not deleted, so every label keeps its process.
            new_graph = Graph(edges, nodes=graph.nodes)
            self.graph = new_graph
            self._neighbors = {v: tuple(new_graph.neighbors(v))
                               for v in new_graph.nodes}
            hook = self._scheduler_topo_hook
            if hook is not None:
                hook()
        for node in delta.arrived:
            if not graph.has_node(node):
                raise ConfigurationError(
                    f"dynamics rejoined unknown node {node!r}")
            record(when, "topo", node, broadcast_id=TOPO_NODE_UP)
            self._reset_process(node)

    def _reset_process(self, label: Any) -> None:
        """Rebuild ``label``'s process fresh (node-churn rejoin).

        The node's volatile protocol state is lost: a new process is
        created from the factory, bound and started. An in-flight
        broadcast of the old process is orphaned (its scheduled
        deliveries still complete -- they were covered by the topology
        as of the broadcast -- but no ack is observed). A later crash
        of the node still cuts it: the cut was pruned from the
        schedule when the broadcast was planned.
        """
        if label in self._crashed:
            return
        factory = self._process_factory
        if factory is None:
            raise ConfigurationError(
                "dynamics reset a process but no process factory is "
                "available; construct the simulator via "
                "build_simulation (or pass process_factory=)")
        old = self._processes[label]
        record = self._inflight.pop(label, None)
        if record is not None:
            record.orphaned = True
        fresh = factory(label)
        fresh._bind(self, label)
        self._processes[label] = fresh
        if old.decided:
            # The node is undecided again; note_decision will balance
            # this when (if) the fresh process decides.
            self._undecided_alive += 1
        if self._started:
            fresh.on_start()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_size(self, payload: Any) -> None:
        footprint = getattr(payload, "id_footprint", None)
        if footprint is not None and footprint() > self.id_budget:
            raise ModelViolationError(
                f"message carries {footprint()} ids, exceeding the O(1) "
                f"budget of {self.id_budget}: {payload!r}")


def build_simulation(graph, process_factory: Callable[[Any], Process],
                     scheduler: Scheduler, *,
                     fault_model: Optional[FaultModel] = None,
                     strict_sizes: bool = True,
                     id_budget: int = DEFAULT_ID_BUDGET,
                     unreliable_graph=None,
                     validate_plans: Optional[bool] = None,
                     trace_level: "TraceLevel | str" = TraceLevel.FULL,
                     trace_sink: Optional[TraceSink] = None,
                     dynamics=None,
                     telemetry: "Telemetry | bool | None" = None,
                     ) -> Simulator:
    """Construct a simulator, creating one process per graph node.

    ``process_factory(label)`` must return the process for ``label``.
    This is the convenience entry point used throughout the tests,
    examples and experiments. The factory is retained by the simulator
    so topology-dynamics models can rebuild a process on node rejoin.
    """
    processes = {label: process_factory(label) for label in graph.nodes}
    return Simulator(graph, processes, scheduler,
                     fault_model=fault_model,
                     strict_sizes=strict_sizes, id_budget=id_budget,
                     unreliable_graph=unreliable_graph,
                     validate_plans=validate_plans,
                     trace_level=trace_level,
                     trace_sink=trace_sink,
                     dynamics=dynamics,
                     process_factory=process_factory,
                     telemetry=telemetry)
