"""Multi-group runtime: run-to-completion consensus slots.

A service runs many consensus *groups*; each slot of a group is one
closed consensus instance on its own :class:`Simulator`.
:class:`GroupRuntime` executes an instance the moment it is
registered -- one ``Simulator.run`` call from ``on_start`` to the
terminal state, exactly ``ResolvedScenario.simulate()`` -- and then
only *schedules the outcome*: finished runs wait in a heap keyed
``(finish_time, registration order)`` until the caller's virtual
clock reaches them.

Why no interleaving
-------------------

Groups share nothing: an instance's events depend only on its own
scenario (its batch is fixed when it starts, and nothing outside
reads its state before it finishes), so running group A's events
before or between group B's cannot change either trace. Only the
*order in which finished runs are handed out* is observable, and the
heap fixes that order in global virtual time.

Determinism contract
--------------------

* A group's trace and :class:`RunResult` are byte-identical to a
  standalone ``simulate()`` of the same scenario, for any number of
  groups and any sink.
* :meth:`GroupRuntime.advance` returns exactly the runs with
  ``finish_time <= until``, ordered by ``(finish_time, registration
  order)``, each once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ...scenario import Scenario
from ..simulator import RunResult
from ..telemetry import MonotonicProfile
from .tracing import overhead_fraction

__all__ = ["GroupRun", "GroupRuntime"]


@dataclass
class GroupRun:
    """Completed execution of one group's consensus instance."""

    group_id: Any
    scenario: Any
    result: RunResult
    #: Global (service virtual-time) instant the instance started.
    start_time: float
    #: Engine ``run()`` invocations spent on this instance (always 1).
    slices: int = 1
    #: The group's :class:`~repro.macsim.telemetry.Telemetry`
    #: instance when telemetry was enabled, else ``None``.
    telemetry: Any = None
    #: Opaque caller data attached at ``add_group`` time (the serve
    #: layer stores the batch of client requests riding this slot).
    context: Any = None

    @property
    def finish_time(self) -> float:
        """Global instant the instance's last event ran."""
        return self.start_time + self.result.end_time


class GroupRuntime:
    """Run independent consensus instances to completion and hand the
    finished runs out in global virtual-time order.

    :meth:`add_group` executes one instance; :meth:`next_time` is the
    earliest finish not yet handed out; :meth:`advance` pops the runs
    finishing up to a global horizon (``advance(None)`` pops all).
    """

    def __init__(self, *, profile: bool = False) -> None:
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

        ``engine_*`` times the one ``Simulator.run`` per instance;
        ``overhead_seconds`` is the rest of :meth:`add_group` and
        :meth:`advance` (simulator construction and the finish heap),
        ``overhead_fraction`` its share of the two together. The
        ``startup_*`` keys of ``service-spans/v1`` read 0: no engine
        call happens outside the one run. Returns ``None`` when
        profiling is off.
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
            "startup_slices": 0,
            "startup_seconds": 0.0,
            "overhead_seconds": overhead,
            "overhead_fraction": overhead_fraction(overhead, engine),
        }

    def add_group(self, scenario: Any, *, group_id: Any = None,
                  start_time: float = 0.0, trace_sink: Any = None,
                  telemetry: Any = None, context: Any = None) -> None:
        """Run one consensus instance to its terminal state.

        ``scenario`` is a :class:`~repro.scenario.Scenario` or an
        already resolved one (the serve loop reseeds a template per
        slot); either way the simulator is built and run exactly as
        ``simulate()`` would. ``start_time`` offsets the instance's
        local clock: it finishes at global time ``start_time +
        end_time``, which is when :meth:`advance` hands it out.
        """
        profile = self.profile
        t_enter = perf_counter() if profile is not None else 0.0
        if group_id is None:
            group_id = self._order
        resolved = (scenario.resolve() if isinstance(scenario, Scenario)
                    else scenario)
        scenario = resolved.scenario
        sim = resolved.build(trace_sink=trace_sink, telemetry=telemetry)
        t_run = perf_counter() if profile is not None else 0.0
        result = sim.run(max_events=scenario.max_events,
                         max_time=scenario.max_time)
        if profile is not None:
            profile.add("engine", perf_counter() - t_run)
        result.trace.close()
        run = GroupRun(group_id=group_id, scenario=scenario,
                       result=result, start_time=start_time,
                       telemetry=sim.telemetry, context=context)
        heapq.heappush(self._pending,
                       (run.finish_time, self._order, run))
        self._order += 1
        if profile is not None:
            profile.add("add_group", perf_counter() - t_enter)

    def next_time(self) -> Optional[float]:
        """Global finish time of the earliest run not yet handed out,
        or ``None`` when none is pending."""
        return self._pending[0][0] if self._pending else None

    @property
    def active_groups(self) -> int:
        """Runs registered but not yet returned by :meth:`advance`."""
        return len(self._pending)

    def advance(self, until: Optional[float] = None) -> List[GroupRun]:
        """Pop every pending run with ``finish_time <= until`` (all of
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

    def run(self) -> List[GroupRun]:
        """Hand out every pending run, ordered by completion."""
        return self.advance(None)
