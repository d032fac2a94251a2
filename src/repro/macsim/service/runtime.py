"""Multi-group runtime: one long-lived replicated log per group.

Each group is one :class:`~repro.apps.replicated_log.ReplicatedLogNode`
log on its own long-lived :class:`Simulator`, and each batch it serves
is one slot of that log: wPAXOS's leader and routing trees do not
depend on the slot, so a log builds them once, and a slot costs the
algorithm's steady state instead of a cold start. The leader starts a
slot's phase 1 in the broadcast that announces the previous slot's
commit, before the slot's command exists, so a slot that starts the
moment its predecessor finished waits only for its promises, one
propose/accept round and its decide (4 F_ack, 51 events in a
5-clique).

:meth:`GroupRuntime.add_group` runs a slot the moment it is
registered: it hands the slot's command to every replica at the
slot's start (one simulator wakeup), resumes the group's simulator
with ``run(stop_predicate=...)`` until every live replica committed
the slot, and checks that every live replica's log is exactly the log
asked for (this slot's command, and every earlier one). A slot that
misses its budget (``max_events`` events, or ``max_time`` from its
start) or that check fails under a named reason (the engine's
``stop_reason``, or ``"unverified"``), and the group's next slot
starts a fresh log.

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
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..simulator import DEFAULT_MAX_TIME_FACTOR, RunResult
from ..telemetry import MonotonicProfile
from .tracing import overhead_fraction

__all__ = ["GroupRun", "GroupRuntime", "log_replicas",
           "require_log_algorithm"]


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
    #: Global instant the last live replica committed the slot (or
    #: the slot stopped); a log's clock is the service's.
    finish_time: float
    #: ``None`` for a verified commit, else why the slot failed.
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
    """One group's replicated log: the simulator and what it was asked
    to commit."""

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        #: The simulator's label -> replica mapping (itself, so a
        #: replaced replica is seen).
        self.replicas = sim.processes
        #: slot -> command, the log every replica must hold.
        self.expected: Dict[int, Any] = {}
        self.slot = -1

    def hand_out(self, sim: Any) -> None:
        """Wakeup: give every live replica the current slot's command."""
        command = self.expected[self.slot]
        for replica in self.replicas.values():
            if not replica.crashed:
                replica.add_command(command)

    def committed(self, sim: Any) -> bool:
        """Stop predicate: every live replica committed the slot."""
        slot = self.slot
        for replica in self.replicas.values():
            if slot not in replica.log and not replica.crashed:
                return False
        return True

    def verified(self) -> bool:
        """Every live replica's log is exactly the one asked for."""
        expected = self.expected
        return all(replica.log == expected
                   for replica in self.replicas.values()
                   if not replica.crashed)


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
        :meth:`advance` (log builds, verification and the finish
        heap), ``overhead_fraction`` its share of the two together.
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
        log = self._logs[group_id] = _GroupLog(sim)
        return log

    def add_group(self, command: Any, *, group_id: Any = None,
                  start_time: float = 0.0, telemetry: Any = None,
                  context: Any = None) -> None:
        """Commit ``command`` as the next slot of group ``group_id``'s
        log, starting at global time ``start_time``.

        The group's log is built on its first slot (and again after a
        failed one), its clock starting at virtual time 0. The slot
        runs to its verified commit or its failure before this
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
        base = self.base
        log.slot += 1
        log.expected[log.slot] = command
        sim.schedule_callback(start_time, log.hand_out)
        budget = (base.max_time if base.max_time is not None
                  else DEFAULT_MAX_TIME_FACTOR * sim.scheduler.f_ack)
        t_run = perf_counter() if profile is not None else 0.0
        result = sim.run(max_events=base.max_events,
                         max_time=start_time + budget,
                         stop_when_all_decided=False,
                         stop_predicate=log.committed)
        if profile is not None:
            profile.add("engine", perf_counter() - t_run)
        failure = None
        if result.stop_reason != "predicate":
            failure = result.stop_reason
        elif not log.verified():
            failure = "unverified"
        if failure is not None:
            del self._logs[group_id]
        run = GroupRun(group_id=group_id, result=result,
                       start_time=start_time,
                       # A run out of events before its start stops
                       # in the past.
                       finish_time=max(start_time, result.end_time),
                       failure=failure, telemetry=sim.telemetry,
                       context=context)
        heapq.heappush(self._pending,
                       (run.finish_time, self._order, run))
        self._order += 1
        if profile is not None:
            profile.add("add_group", perf_counter() - t_enter)

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
