"""Metrics extraction from execution traces."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Mapping, Optional

from ..macsim import RunResult, TraceSink, check_consensus


@dataclass
class RunMetrics:
    """Everything an experiment row needs from one run."""

    algorithm: str
    topology: str
    n: int
    diameter: int
    f_ack: float
    scheduler: str
    correct: bool
    agreement: bool
    validity: bool
    termination: bool
    first_decision: Optional[float]
    last_decision: Optional[float]
    broadcasts: int
    max_broadcasts_per_node: int
    deliveries: int
    events: int
    stop_reason: str
    #: Algorithm-specific observables harvested by a runner ``probe``
    #: (e.g. Ben-Or round counts); ``None`` when no probe ran.
    extras: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the result-cache wire format).

        Every field is a JSON scalar except ``extras``, which is
        JSON-pure by construction (telemetry snapshots, connectivity
        reports, probe harvests of scalars).
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunMetrics":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored,
        for forward compatibility with newer cache entries)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @property
    def normalized_time(self) -> Optional[float]:
        """Last decision time in units of ``F_ack``."""
        if self.last_decision is None:
            return None
        return self.last_decision / self.f_ack

    @property
    def time_per_diameter(self) -> Optional[float]:
        """Last decision time over ``D * F_ack`` (the Thm 4.6 shape)."""
        if self.last_decision is None or self.diameter == 0:
            return None
        return self.last_decision / (self.diameter * self.f_ack)


def collect_metrics(*, algorithm: str, topology: str, graph,
                    scheduler, result: Optional[RunResult] = None,
                    initial_values: Dict[Any, int],
                    diameter: Optional[int] = None,
                    faulty: frozenset = frozenset(),
                    untrusted: Optional[frozenset] = None,
                    extras: Optional[Dict[str, Any]] = None,
                    trace: Optional[TraceSink] = None,
                    events: int = 0,
                    stop_reason: str = "replay") -> RunMetrics:
    """Build a :class:`RunMetrics` from a completed run.

    ``faulty`` scopes the consensus properties to correct nodes and
    ``untrusted`` the validity input set (fault-model runs); see
    :func:`repro.macsim.invariants.check_consensus`.

    Pass either a live ``result`` (the simulation path) or a bare
    ``trace`` sink without one (the disk-replay path: a reloaded
    export or a reopened :class:`~repro.macsim.columnar.ColumnarSink`
    chunk directory). Every field then comes from the sink's
    counters/decision index -- O(1) on every sink -- with ``events``
    and ``stop_reason`` taken from the keyword defaults since the
    engine loop is not around to report them.
    """
    if result is not None:
        trace = result.trace
        events = result.events_processed
        stop_reason = result.stop_reason
    elif trace is None:
        raise TypeError("collect_metrics needs a result or a trace")
    report = check_consensus(trace, initial_values, faulty=faulty,
                             untrusted=untrusted)
    times = trace.decision_times()
    per_node = trace.broadcasts_per_node()
    return RunMetrics(
        algorithm=algorithm,
        topology=topology,
        n=graph.n,
        diameter=graph.diameter() if diameter is None else diameter,
        f_ack=scheduler.f_ack,
        scheduler=type(scheduler).__name__,
        correct=report.ok,
        agreement=report.agreement,
        validity=report.validity,
        termination=report.termination,
        first_decision=min(times.values()) if times else None,
        last_decision=max(times.values()) if times else None,
        broadcasts=trace.broadcast_count(),
        max_broadcasts_per_node=max(per_node.values(), default=0),
        deliveries=trace.delivery_count(),
        events=events,
        stop_reason=stop_reason,
        extras=extras,
    )
