"""Multi-group runtime: one long-lived replicated log per group.

Each group is one :class:`~repro.apps.replicated_log.ReplicatedLogNode`
log on its own long-lived :class:`Simulator`, and each batch it serves
is one slot of that log: wPAXOS's leader and routing trees do not
depend on the slot, so a log builds them once, and a slot costs the
algorithm's steady state instead of a cold start. The leader's one
broadcast carries the previous slot's decide, the slot's PROPOSE and
the next slot's PREPARE, so a slot that starts the moment its
predecessor finished costs one round trip (2 F_ack and 26 events in a
5-clique; at most ``D + 2`` F_ack on line(5) and grid(3x3)).

:meth:`GroupRuntime.add_group` runs a slot the moment it is
registered: it hands the slot's command to every replica at the
slot's start (one simulator wakeup) and resumes the group's simulator
with ``run(stop_predicate=...)`` until the slot's first commit -- a
majority accepted, so the value is chosen. Every replica reports its
commits through ``commit_hook``, so the stop check is one attribute
read. The hook also hands over the value, and a value other than the
log asked for (or an index past it) breaks agreement: it is listed in
:attr:`GroupRuntime.violations`, and the slot stays committed. A slot
that misses its budget (``max_events`` events, or ``max_time`` from
its start) fails under the engine's ``stop_reason``, and the group's
next slot starts a fresh log. A dropped log, and at the end of a
service run every open log once flushed and quiet, is compared whole:
an entry corrupted without a commit is a violation too, and one a
live replica lacks at the end is counted in ``unlearned``.

Groups share nothing, so running one group's slot ahead of another's
cannot change either log; only the order in which finished slots are
handed out is observable, and a heap keyed ``(finish_time,
registration order)`` fixes it in global virtual time:
:meth:`GroupRuntime.advance` returns exactly the slots with
``finish_time <= until``, in that order, each once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..simulator import DEFAULT_MAX_TIME_FACTOR, RunResult
from ..telemetry import MonotonicProfile
from .tracing import overhead_fraction

__all__ = ["GroupRun", "GroupRuntime", "log_replicas",
           "require_log_algorithm"]

#: ``(group, slot, replica uid, value, expected)``: a live replica holds
#: ``value`` at ``slot`` of its group's current log, where ``expected``
#: was asked for (``None`` past the log's end).
Violation = Tuple[Any, int, int, Any, Any]


def require_log_algorithm(base: Any) -> None:
    """Reject a base scenario whose algorithm has no replicated log."""
    name = base.algorithm.name
    if name != "wpaxos":
        raise ValueError(f"a service group is a replicated wpaxos log; "
                         f"the base scenario's algorithm is {name!r}")


def log_replicas(base: Any, graph: Any) -> Callable[[Any, Any], Any]:
    """The ``(label, value) -> ReplicatedLogNode`` factory of a group's
    log over ``graph``, with the base's wPAXOS parameters (a replica
    proposes the commands it is given, not ``value``). The log's
    modules load here, not when this package is imported."""
    from ...apps.replicated_log import ReplicatedLogNode
    from ...core.wpaxos.config import WPaxosConfig
    params = base.algorithm.params
    n = graph.n

    def replica(label: Any, _value: Any) -> ReplicatedLogNode:
        return ReplicatedLogNode(graph.index_of(label) + 1, n,
                                 WPaxosConfig(**params))
    return replica


@dataclass
class GroupRun:
    """One finished slot of a group's log."""

    group_id: Any
    #: The engine's verdict on the slot's ``run`` call:
    #: ``events_processed`` counts this slot's events.
    result: RunResult
    #: Global (service virtual-time) instant the slot started.
    start_time: float
    #: Global instant the slot was first committed (or stopped); a
    #: log's clock is the service's.
    finish_time: float
    #: ``None`` for a committed slot, else why it failed: the
    #: engine's ``stop_reason``, a liveness outcome.
    failure: Optional[str] = None
    #: Engine ``run()`` invocations spent on this slot (always 1).
    slices: int = 1
    #: The group log's :class:`~repro.macsim.telemetry.Telemetry`
    #: (cumulative over the log's slots) when telemetry was enabled.
    telemetry: Any = None
    #: Opaque caller data attached at ``add_group`` time (the serve
    #: layer stores the batch of client requests riding this slot).
    context: Any = None


class _GroupLog:
    """One group's replicated log: the simulator, what it was asked to
    commit, and where its replicas' violations go."""

    def __init__(self, sim: Any, group_id: Any,
                 violations: List[Violation]) -> None:
        self.sim = sim
        self.group_id = group_id
        self.violations = violations
        #: ``(uid, index)`` of every entry already listed there, so the
        #: whole-log compare lists an entry once.
        self.flagged: Set[Tuple[int, int]] = set()
        #: The simulator's label -> replica mapping (itself, so a
        #: replaced replica is seen).
        self.replicas = sim.processes
        #: Entry ``k`` is slot ``k``'s command: the log every replica
        #: must hold.
        self.expected: List[Any] = []
        self.slot = -1
        #: Whether a replica committed the current slot.
        self.done = False

    def hand_out(self, sim: Any) -> None:
        """Wakeup: give every live replica the current slot's command."""
        command = self.expected[self.slot]
        hook = self.note_commit
        for replica in self.replicas.values():
            if not replica.crashed:
                replica.commit_hook = hook
                replica.add_command(command)

    def note_commit(self, replica: Any, index: int, value: Any) -> None:
        """A replica's commit hook: the first commit of the current
        slot ends it (a majority accepted, so the value is chosen), and
        a value other than the one asked for is a violation."""
        if index == self.slot:
            self.done = True
        expected = self.expected
        if index >= len(expected) or value != expected[index]:
            self._flag(replica.uid, index, value)

    def _flag(self, uid: int, index: int, value: Any) -> None:
        expected = self.expected
        self.flagged.add((uid, index))
        self.violations.append((
            self.group_id, index, uid, value,
            expected[index] if index < len(expected) else None))

    def committed(self, sim: Any) -> bool:
        """Stop predicate: a replica committed the slot."""
        return self.done

    def compare(self) -> int:
        """Compare every live replica's whole log with the expected
        one, flagging each differing entry not flagged yet. Returns
        the number of expected entries the live replicas lack."""
        expected = self.expected
        end = len(expected)
        flagged = self.flagged
        lacking = 0
        for replica in self.replicas.values():
            if replica.crashed:
                continue
            uid = replica.uid
            lacking += end
            for k, value in replica.log.items():
                if k < end:
                    lacking -= 1
                    if value == expected[k]:
                        continue
                if (uid, k) not in flagged:
                    self._flag(uid, k, value)
        return lacking

    def drain(self, budget: float, max_events: int) -> int:
        """End of the run: flush every held decide and run the log
        until it is quiet. Returns the events that took."""
        sim = self.sim
        replicas = self.replicas

        def flush(sim: Any) -> None:
            for replica in replicas.values():
                if not replica.crashed:
                    replica.flush()

        sim.schedule_callback(sim.now, flush)
        return sim.run(max_events=max_events, max_time=sim.now + budget,
                       stop_when_all_decided=False).events_processed


class GroupRuntime:
    """Run each group's slots on the group's long-lived log and hand
    the finished slots out in global virtual-time order.

    ``base`` is the :class:`~repro.scenario.Scenario` every group's log
    is built from: its topology, scheduler (and any fault, overlay or
    dynamics), trace level and wPAXOS parameters, and its
    ``max_events``/``max_time`` as per-slot budgets. :meth:`add_group`
    runs one slot; :meth:`next_time` is the earliest finish not yet
    handed out; :meth:`advance` pops the slots finishing up to a global
    horizon (``advance(None)`` pops all).
    """

    def __init__(self, base: Any, *, profile: bool = False) -> None:
        require_log_algorithm(base)
        self.base = base
        self._logs: Dict[Any, _GroupLog] = {}
        self._pending: List[Tuple[float, int, GroupRun]] = []
        self._order = 0
        #: Agreement violations, in the order found, each entry once.
        self.violations: List[Violation] = []
        #: Entries the live replicas still lacked when the end-of-run
        #: drain went quiet.
        self.unlearned = 0
        #: Opt-in wall-clock split of the runtime into time *inside*
        #: the engine vs around it. ``None`` (the default) keeps the
        #: hot path free of clock reads.
        self.profile: Optional[MonotonicProfile] = (
            MonotonicProfile(("add_group", "engine", "advance"))
            if profile else None)

    def scheduler_profile(self) -> Optional[Dict[str, Any]]:
        """Snapshot of the opt-in engine/runtime wall-clock split.

        ``engine_*`` times the one ``Simulator.run`` per slot;
        ``overhead_seconds`` is the rest of :meth:`add_group` and
        :meth:`advance` (log builds, whole-log compares and the
        finish heap), ``overhead_fraction`` its share of the two together.
        Returns ``None`` when profiling is off.
        """
        if self.profile is None:
            return None
        snap = self.profile.snapshot()
        engine = snap["engine"]["seconds"]
        overhead = max(0.0, snap["add_group"]["seconds"]
                       + snap["advance"]["seconds"] - engine)
        return {
            "advance_calls": snap["advance"]["calls"],
            "advance_seconds": snap["advance"]["seconds"],
            "engine_slices": snap["engine"]["calls"],
            "engine_seconds": engine,
            "overhead_seconds": overhead,
            "overhead_fraction": overhead_fraction(overhead, engine),
        }

    def _open_log(self, group_id: Any, telemetry: Any) -> _GroupLog:
        """Build a fresh log for ``group_id``; its clock is the
        service's, from virtual time 0."""
        resolved = self.base.resolve()
        factory = log_replicas(self.base, resolved.graph)
        sim = replace(resolved, factory=factory).build(telemetry=telemetry)
        log = self._logs[group_id] = _GroupLog(sim, group_id,
                                               self.violations)
        return log

    def add_group(self, command: Any, *, group_id: Any = None,
                  start_time: float = 0.0, telemetry: Any = None,
                  context: Any = None) -> None:
        """Commit ``command`` as the next slot of group ``group_id``'s
        log, starting at global time ``start_time``.

        The group's log is built on its first slot (and again after a
        failed one), its clock starting at virtual time 0. The slot
        runs to its first commit or its failure before this
        returns; :meth:`advance` hands it out once the caller's clock
        reaches its finish time. ``telemetry`` applies when a log is
        built.
        """
        profile = self.profile
        t_enter = perf_counter() if profile is not None else 0.0
        if group_id is None:
            group_id = self._order
        log = self._logs.get(group_id)
        if log is None:
            log = self._open_log(group_id, telemetry)
        sim = log.sim
        log.slot += 1
        log.expected.append(command)
        log.done = False
        sim.schedule_callback(start_time, log.hand_out)
        t_run = perf_counter() if profile is not None else 0.0
        result = sim.run(max_events=self.base.max_events,
                         max_time=start_time + self._budget(sim),
                         stop_when_all_decided=False,
                         stop_predicate=log.committed)
        if profile is not None:
            profile.add("engine", perf_counter() - t_run)
        failure = None
        if result.stop_reason != "predicate":
            failure = result.stop_reason
        run = GroupRun(group_id=group_id, result=result,
                       start_time=start_time,
                       # A run out of events before its start stops
                       # in the past.
                       finish_time=max(start_time, result.end_time),
                       failure=failure, telemetry=sim.telemetry,
                       context=context)
        if failure is not None:
            # The log is dropped, so an entry corrupted without a
            # commit is found now or never.
            del self._logs[group_id]
            log.compare()
        heapq.heappush(self._pending,
                       (run.finish_time, self._order, run))
        self._order += 1
        if profile is not None:
            profile.add("add_group", perf_counter() - t_enter)

    def _budget(self, sim: Any) -> float:
        base = self.base
        return (base.max_time if base.max_time is not None
                else DEFAULT_MAX_TIME_FACTOR * sim.scheduler.f_ack)

    def _drain(self) -> List[Tuple[Any, int]]:
        """End of the service run: every open log flushes and runs
        until quiet (:meth:`_GroupLog.drain`), and then every live
        replica's whole log is compared with the expected one: a
        differing entry is a violation, a missing one is
        :attr:`unlearned`. Returns ``(group_id, events)`` per group,
        in registration order."""
        drained = []
        for group_id, log in self._logs.items():
            events = log.drain(self._budget(log.sim), self.base.max_events)
            self.unlearned += log.compare()
            drained.append((group_id, events))
        return drained

    def next_time(self) -> Optional[float]:
        """Global finish time of the earliest slot not yet handed out,
        or ``None`` when none is pending."""
        return self._pending[0][0] if self._pending else None

    def advance(self, until: Optional[float] = None) -> List[GroupRun]:
        """Pop every pending slot with ``finish_time <= until`` (all of
        them when ``until`` is ``None``), ordered by finish time, ties
        broken by registration order."""
        profile = self.profile
        t_enter = perf_counter() if profile is not None else 0.0
        pending = self._pending
        finished: List[GroupRun] = []
        while pending and (until is None or pending[0][0] <= until):
            finished.append(heapq.heappop(pending)[2])
        if profile is not None:
            profile.add("advance", perf_counter() - t_enter)
        return finished
