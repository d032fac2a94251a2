"""Convenience runner shared by tests, benchmarks and experiments."""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..macsim import build_simulation
from ..macsim.errors import ModelViolationError
from ..macsim.invariants import InvariantAuditor, check_model_invariants
from ..macsim.trace import TraceLevel, TraceSink, make_sink
from .metrics import RunMetrics, collect_metrics

#: Factory signature: (label, initial value) -> process.
ProcessFactory = Callable[[Any, int], Any]


def alternating_values(graph) -> Dict[Any, int]:
    """The default 0/1/0/1... input assignment over canonical order."""
    return {v: i % 2 for i, v in enumerate(graph.nodes)}


def split_values(graph) -> Dict[Any, int]:
    """First half 0, second half 1 (the partition-argument inputs)."""
    half = graph.n // 2
    return {v: 0 if i < half else 1
            for i, v in enumerate(graph.nodes)}


def run_consensus(*, algorithm: str, topology: str, graph, scheduler,
                  factory: ProcessFactory,
                  initial_values: Optional[Dict[Any, int]] = None,
                  max_events: int = 20_000_000,
                  max_time: Optional[float] = None,
                  check_invariants: bool = True,
                  fault_model=None,
                  unreliable_graph=None,
                  dynamics=None,
                  trace_level: "TraceLevel | str" = TraceLevel.FULL,
                  trace_sink: Optional[TraceSink] = None,
                  probe: Optional[Callable[[Any], Dict[str, Any]]] = None,
                  telemetry=None) -> RunMetrics:
    """Run one consensus execution and return its metrics.

    .. note:: New code should usually describe the run as a
       :class:`repro.scenario.Scenario` and call ``scenario.run()`` --
       a frozen, JSON-round-trippable form of exactly this call that
       also serializes into trace exports, expands into sweep grids
       and replays. This function remains the execution engine
       underneath (``Scenario.run`` resolves its specs and calls it
       with byte-identical results).

    ``factory(label, value)`` builds the process for each node. Model
    invariants are verified on every run unless disabled (the audit
    is streaming and O(n) in memory, so it stays cheap even for
    columnar traces on disk).

    ``fault_model`` is an optional
    :class:`~repro.macsim.faults.base.FaultModel` adversary, the one
    way to inject faults; invariants and consensus properties are
    scoped to its correct nodes (the complement of
    ``faulty_nodes()``). Crash plans arrive as a
    :class:`~repro.macsim.faults.crash.CrashFaultModel`, which names no
    faulty node: a crashed node runs its program correctly until it
    stops, and the trace's ``crash`` records tell the checkers who
    stopped. ``unreliable_graph`` runs the dual-graph model variant.

    ``dynamics`` is an optional
    :class:`~repro.macsim.dynamics.base.TopologyDynamics` model: the
    run executes over a time-varying graph, invariants audit
    deliveries against the graph as of each broadcast (from the
    trace's ``topo`` records), and a ``connectivity`` probe -- epoch
    count, connected fraction, T-interval connectivity -- lands in
    :attr:`RunMetrics.extras` automatically.

    ``trace_level``/``trace_sink`` select the trace sink (see
    :mod:`repro.macsim.trace`). ``check_invariants`` means the same on
    every sink: a replayable one (FULL, COLUMNAR) is replayed
    through :func:`~repro.macsim.invariants.check_model_invariants`
    after the run (COLUMNAR on the vectorized path when numpy is
    installed); a counting one (DECISIONS, or a caller's) is audited
    online by an :class:`~repro.macsim.invariants.InvariantAuditor`
    fed from its ``record`` calls; a sink that allows neither raises
    rather than run unchecked. A violation raises
    :class:`ModelViolationError` once the run ends. Consensus checking
    and all metrics work on every sink.

    ``probe(sim)`` may harvest algorithm-specific observables from the
    finished simulator (e.g. round counts); its dict lands in
    :attr:`RunMetrics.extras`. Keep probe results small and picklable
    -- sweeps ship them across process boundaries.

    ``telemetry`` opts into run observability: pass ``True`` (or a
    :class:`~repro.macsim.telemetry.Telemetry` instance to keep a
    handle on the raw samples) and the snapshot -- engine counters,
    empirical F_ack/F_prog/F_cover histograms, phase profile -- lands
    in ``RunMetrics.extras["telemetry"]``. Telemetry never perturbs
    the trace: on or off, the same seeded run produces byte-identical
    records.
    """
    values = initial_values or alternating_values(graph)
    faulty = (frozenset() if fault_model is None
              else frozenset(fault_model.faulty_nodes()))
    untrusted = (frozenset() if fault_model is None
                 else frozenset(fault_model.lying_nodes()))
    sink = trace_sink if trace_sink is not None else make_sink(trace_level)
    auditor = None
    if check_invariants and not sink.replayable:
        auditor = InvariantAuditor(graph, scheduler.f_ack,
                                   unreliable_graph, faulty)
        sink.attach_auditor(auditor)
    sim = build_simulation(graph, lambda v: factory(v, values[v]),
                           scheduler, fault_model=fault_model,
                           unreliable_graph=unreliable_graph,
                           dynamics=dynamics, trace_sink=sink,
                           telemetry=telemetry)
    result = sim.run(max_events=max_events, max_time=max_time)
    sink.close()
    if check_invariants:
        report = (auditor.report() if auditor is not None
                  else check_model_invariants(
                      graph, sink, scheduler.f_ack,
                      unreliable_graph=unreliable_graph, faulty=faulty))
        if not report.ok:
            raise ModelViolationError(
                f"{algorithm} on {topology}: " + "; ".join(
                    report.violations[:5]))
    extras = probe(sim) if probe is not None else None
    if dynamics is not None:
        from ..macsim.dynamics import connectivity_report
        extras = dict(extras or {})
        extras["connectivity"] = connectivity_report(graph, sink)
    tel = sim.telemetry
    if tel is not None:
        tel.context.update(algorithm=algorithm, topology=topology,
                           scheduler=type(scheduler).__name__,
                           fault_model=(None if fault_model is None
                                        else type(fault_model).__name__))
        extras = dict(extras or {})
        extras["telemetry"] = tel.snapshot()
    return collect_metrics(algorithm=algorithm, topology=topology,
                           graph=graph, scheduler=scheduler,
                           result=result, initial_values=values,
                           faulty=faulty, untrusted=untrusted,
                           extras=extras)
