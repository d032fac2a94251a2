"""T-interval connectivity metrics over a dynamic run's trace.

The dynamic-network literature (Kuhn-Lynch-Oshman) measures how
usable a time-varying graph is by *T-interval connectivity*: the
communication graph sequence ``G_1, G_2, ...`` is T-interval connected
when the intersection of every ``T`` consecutive graphs is connected.
``T = 1`` means each snapshot is connected on its own; larger ``T``
means a stable connected core persists across windows -- the property
churn-tolerant protocols lean on.

:func:`connectivity_report` reconstructs the topology timeline from a
run's ``topo`` trace records (an essential kind, so this works on
every sink including a ``TraceLevel.DECISIONS`` trace) and
reports the run's connectivity profile; the consensus runner attaches
it to :attr:`~repro.analysis.metrics.RunMetrics.extras` for every
dynamic run.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Sequence, Tuple

from ..trace import TOPO_EDGE_DOWN, TOPO_EDGE_UP, TraceSink
from .base import edge_key

Edge = Tuple[Any, Any]


def edge_timeline(graph, trace: TraceSink) -> List[Tuple[float,
                                                         FrozenSet[Edge]]]:
    """The ``(time, edge set)`` snapshots a run passed through.

    The first snapshot is the initial graph at time 0; one further
    snapshot is appended per ``topo`` timestamp (epochs that changed
    nothing emit no records and therefore no snapshot).
    """
    edges = set(graph.edges())
    snapshots = [(0.0, frozenset(edges))]
    events = trace.of_kind("topo")
    i = 0
    total = len(events)
    while i < total:
        when = events[i].time
        while i < total and events[i].time == when:
            rec = events[i]
            if rec.broadcast_id == TOPO_EDGE_UP:
                edges.add(edge_key(rec.node, rec.peer))
            elif rec.broadcast_id == TOPO_EDGE_DOWN:
                edges.discard(edge_key(rec.node, rec.peer))
            i += 1
        snapshots.append((when, frozenset(edges)))
    return snapshots


def is_connected(nodes: Sequence[Any], edges: FrozenSet[Edge]) -> bool:
    """Whether ``edges`` connect every node of ``nodes``."""
    from ...topology.standard import edge_components
    return len(edge_components(nodes, edges)) <= 1


def t_interval_connected(edge_sets: Sequence[FrozenSet[Edge]],
                         nodes: Sequence[Any], t: int) -> bool:
    """Whether every window of ``t`` consecutive snapshots has a
    connected intersection.

    One pass over the sequence maintaining each edge's consecutive
    presence run: the window ending at snapshot ``i`` intersects to
    exactly the edges whose run length is >= ``t``, so the cost is
    O(S * (E + n)), never O(S * T * E) re-intersections. Pure Python
    on purpose: the connectivity test per window dominates, and a
    numpy edge-presence matrix read only x1.05-1.13 against this loop.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > len(edge_sets):
        return False
    runs: Dict[Edge, int] = {}
    for i, edges in enumerate(edge_sets):
        runs = {e: runs.get(e, 0) + 1 for e in edges}
        if i >= t - 1:
            window = frozenset(e for e, n in runs.items() if n >= t)
            if not is_connected(nodes, window):
                return False
    return True


def max_t_interval(edge_sets: Sequence[FrozenSet[Edge]],
                   nodes: Sequence[Any]) -> int:
    """The largest ``T`` for which the sequence is T-interval
    connected (0 when some snapshot is disconnected on its own --
    intersections only lose edges, so no ``T`` can hold).

    T-interval connectivity is monotone in ``T`` (every (T-1)-window
    is a subset of some T-window, whose intersection it therefore
    contains), so the answer is a binary search: O(log S) passes of
    the linear-time window check above -- auto-attached probes stay
    cheap even for thousand-epoch runs.
    """
    lo, hi = 0, len(edge_sets)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if t_interval_connected(edge_sets, nodes, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def connectivity_report(graph, trace: TraceSink) -> Dict[str, Any]:
    """The run's connectivity profile, from its ``topo`` records.

    Keys (all picklable scalars, safe for sweep workers):

    * ``topologies`` -- number of distinct graphs the run passed
      through (1 for a static run);
    * ``topo_events`` -- total ``topo`` records (edge + node events);
    * ``connected_fraction`` -- fraction of snapshots connected;
    * ``always_connected`` -- every snapshot connected;
    * ``max_t_interval`` -- the T-interval connectivity of the run;
    * ``min_edges`` / ``max_edges`` -- edge-count envelope.
    """
    snapshots = edge_timeline(graph, trace)
    edge_sets = [edges for _, edges in snapshots]
    nodes = graph.nodes
    flags = [is_connected(nodes, edges) for edges in edge_sets]
    return {
        "topologies": len(edge_sets),
        "topo_events": trace.count_of_kind("topo"),
        "connected_fraction": round(sum(flags) / len(flags), 4),
        "always_connected": all(flags),
        "max_t_interval": max_t_interval(edge_sets, nodes),
        "min_edges": min(len(edges) for edges in edge_sets),
        "max_edges": max(len(edges) for edges in edge_sets),
    }
