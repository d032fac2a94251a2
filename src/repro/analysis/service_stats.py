"""Reductions and tables for service observability artifacts.

The serve path emits three artifact families — request-span trees
(``service-spans/v1``, from ``repro serve --trace-requests``), windowed
metrics snapshots (``service-metrics/v1``, from ``--metrics-out`` or a
``--json-out`` report's ``metrics`` key) and per-group telemetry
attribution (``service-telemetry/v1``, from ``--telemetry``). This
module reduces any of them, or a whole ``--json-out`` report, to one
renderable stats document (``service-stats/v1``) behind
``repro stats``; every windowed series renders through one table
layout, and a span artifact's is regrouped from its timestamps. It is
the reduction the acceptance tests pin: the latency summary derived
here from a span artifact equals — exactly, nearest-rank percentile
for percentile — the report the service printed, whether the run was
serial, sharded, or replayed from JSON.

Span anatomy (all virtual time, see
:data:`repro.macsim.service.tracing.SPAN_STAGES`)::

    enqueue ----> batch_admit ==> slot_start ----> decide ==> reply
            queueing          (coincide)    log slot    (coincide)
            delay                           commit

* ``queueing``  = batch_admit - enqueue  (wait behind the group's slot)
* ``service``   = reply - batch_admit    (the slot's whole execution)
* ``decide``    = decide - slot_start    (until its last replica commits)
* ``total``     = reply - enqueue        (== the service's latency)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..macsim.service.tracing import (METRICS_SCHEMA, SPAN_SCHEMA,
                                      MetricsRegistry, latency_summary)
from .tables import format_table

__all__ = ["SERVICE_SCHEMAS", "SERVICE_STATS_SCHEMA",
           "SERVICE_TELEMETRY_SCHEMA", "reduce_spans", "reduce_metrics",
           "reduce_service_telemetry", "metrics_from_spans",
           "is_serve_report", "service_doc", "render_service_stats"]

SERVICE_TELEMETRY_SCHEMA = "service-telemetry/v1"
#: Schema of the reduced (renderable) document this module produces.
SERVICE_STATS_SCHEMA = "service-stats/v1"
#: Service artifact schemas ``repro stats`` accepts via this module.
SERVICE_SCHEMAS = (SPAN_SCHEMA, METRICS_SCHEMA, SERVICE_TELEMETRY_SCHEMA)

_HIST_BUCKETS = 8
#: Width, in virtual time, of the windows a span artifact's timestamps
#: are regrouped into.
_SPAN_WINDOW = 50.0


def _histogram(samples: Sequence[float], top: float) -> Dict[str, Any]:
    """Fixed-width bucket counts over ``[0, top]`` (shared across
    groups so the per-group histograms are visually comparable)."""
    counts = [0] * _HIST_BUCKETS
    if top <= 0.0:
        top = 1.0
    width = top / _HIST_BUCKETS
    for s in samples:
        idx = min(_HIST_BUCKETS - 1, int(s / width))
        counts[idx] += 1
    return {"top": top, "counts": counts}


def reduce_spans(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Reduce a ``service-spans/v1`` artifact to breakdowns.

    The ``total`` summary is :func:`latency_summary` over
    ``reply - enqueue`` of committed requests — the *same* function
    over the *same* multiset the service used, so it reproduces the
    reported p50/p99 exactly.
    """
    records = doc.get("requests", [])
    ok_records = [r for r in records if r.get("ok")]
    total = [r["reply"] - r["enqueue"] for r in ok_records]
    queueing = [r["batch_admit"] - r["enqueue"] for r in ok_records]
    service = [r["reply"] - r["batch_admit"] for r in ok_records]
    decide = [r["decide"] - r["slot_start"] for r in ok_records]
    top = max(total) if total else 0.0

    per_group: Dict[str, Any] = {}
    groups = sorted({r["group"] for r in records})
    for gid in groups:
        recs = [r for r in ok_records if r["group"] == gid]
        lats = [r["reply"] - r["enqueue"] for r in recs]
        per_group[str(gid)] = {
            "requests": len(recs),
            "failed": sum(1 for r in records
                          if r["group"] == gid and not r.get("ok")),
            "slots": len({r["slot"] for r in records
                          if r["group"] == gid}),
            "latency": latency_summary(lats),
            "queueing": latency_summary(
                [r["batch_admit"] - r["enqueue"] for r in recs]),
            "service": latency_summary(
                [r["reply"] - r["batch_admit"] for r in recs]),
            "histogram": _histogram(lats, top),
        }
    per_shard: Dict[str, int] = {}
    for r in records:
        key = str(r.get("shard", 0))
        per_shard[key] = per_shard.get(key, 0) + 1
    return {
        "schema": SERVICE_STATS_SCHEMA,
        "kind": "spans",
        "requests": len(ok_records),
        "failed": len(records) - len(ok_records),
        "latency": latency_summary(total),
        "breakdown": {
            "queueing": latency_summary(queueing),
            "service": latency_summary(service),
            "decide": latency_summary(decide),
            "total": latency_summary(total),
        },
        "per_group": per_group,
        "per_shard": dict(sorted(per_shard.items(), key=lambda kv:
                                 int(kv[0]))),
        "scheduler": doc.get("scheduler"),
    }


def metrics_from_spans(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The ``service-metrics/v1`` snapshot of a span artifact.

    Spans carry every arrival and reply timestamp, so replaying them
    through a :class:`MetricsRegistry` yields the windowed series a
    live registry of the same width records.
    """
    registry = MetricsRegistry(window=_SPAN_WINDOW)
    for rec in doc.get("requests", ()):
        registry.record_arrival(rec["enqueue"], rec["group"])
        if rec.get("ok"):
            registry.record_commit(rec["reply"], rec["group"],
                                   rec["reply"] - rec["enqueue"])
        else:
            registry.record_failure(rec["reply"], rec["group"])
    return registry.snapshot()


def reduce_metrics(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Reduce a ``service-metrics/v1`` snapshot to renderable series."""
    windows = [{
        "start": win["start"],
        "end": win["end"],
        "arrivals": win["arrivals"],
        "commits": win["commits"],
        "rps": win["rps"],
        "in_flight": win["in_flight"],
        "latency": win["latency"],
    } for win in doc.get("windows", [])]
    return {
        "schema": SERVICE_STATS_SCHEMA,
        "kind": "metrics",
        "window": doc.get("window"),
        "shards": doc.get("shards", []),
        "dropped_windows": doc.get("dropped_windows", 0),
        "windows": windows,
        "groups": doc.get("groups", {}),
        "totals": doc.get("totals", {}),
        "counters": doc.get("counters", {}),
    }


def reduce_service_telemetry(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Per-group attribution table from a ``service-telemetry/v1``
    artifact (the satellite fix: this schema previously fell through
    to the generic trace path)."""
    groups: Dict[str, Any] = {}
    for gid, acc in doc.get("groups", {}).items():
        slots = acc.get("slots", 0)
        events = acc.get("events_processed", 0)
        groups[gid] = {
            "slots": slots,
            "events_processed": events,
            "wall_seconds": acc.get("wall_seconds", 0.0),
            "events_per_slot": (events / slots) if slots else 0.0,
            "deliveries": acc.get("counters", {}).get("deliveries"),
        }
    return {
        "schema": SERVICE_STATS_SCHEMA,
        "kind": "service-telemetry",
        "groups": dict(sorted(groups.items(),
                              key=lambda kv: int(kv[0]))),
        "totals": doc.get("totals", {}),
    }


def is_serve_report(document: Any) -> bool:
    """A ``repro serve --json-out`` report with a metrics snapshot
    (reports carry no schema tag)."""
    return (isinstance(document, dict) and "schema" not in document
            and isinstance(document.get("metrics"), dict))


def service_doc(document: Dict[str, Any],
                path: Optional[str] = None) -> Dict[str, Any]:
    """Dispatch a raw service artifact to its reduction."""
    schema = document.get("schema")
    if schema == SPAN_SCHEMA:
        doc = reduce_spans(document)
        doc["metrics"] = service_doc(metrics_from_spans(document), path)
    elif schema == METRICS_SCHEMA:
        doc = reduce_metrics(document)
    elif schema == SERVICE_TELEMETRY_SCHEMA:
        doc = reduce_service_telemetry(document)
    elif is_serve_report(document):
        doc = reduce_metrics(document["metrics"])
        doc["shard_rows"] = document.get("shards") or []
    else:
        raise ValueError(
            f"not a service artifact: {path or '<doc>'} "
            f"(expected schema one of {', '.join(SERVICE_SCHEMAS)}, "
            f"or a serve --json-out report with metrics; "
            f"got {schema!r})")
    doc["source"] = path or "<doc>"
    return doc


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
_SUMMARY_COLS = ("count", "mean", "p50", "p95", "p99", "max")


def _summary_row(name: str, summary: Dict[str, Any]) -> List[Any]:
    return [name] + [summary.get(col) for col in _SUMMARY_COLS]


def _hist_cell(hist: Dict[str, Any]) -> str:
    return "/".join(str(c) for c in hist["counts"])


def _render_spans(doc: Dict[str, Any]) -> str:
    blocks: List[str] = []
    head = [f"source: {doc['source']}",
            f"requests: {doc['requests']}  failed: {doc['failed']}  "
            f"groups: {len(doc['per_group'])}  "
            f"shards: {len(doc['per_shard'])}"]
    blocks.append("\n".join(head))
    rows = [_summary_row(stage, doc["breakdown"][stage])
            for stage in ("queueing", "service", "decide", "total")]
    blocks.append(format_table(
        ["stage"] + list(_SUMMARY_COLS), rows,
        title="latency breakdown (virtual time)"))
    grows = []
    for gid, cell in doc["per_group"].items():
        latency = cell["latency"]
        grows.append([gid, cell["requests"], cell["failed"],
                      cell["slots"], latency.get("p50"),
                      latency.get("p99"), cell["queueing"].get("p50"),
                      cell["service"].get("p50"),
                      _hist_cell(cell["histogram"])])
    blocks.append(format_table(
        ["group", "requests", "failed", "slots", "p50", "p99",
         "queue p50", "service p50", "histogram"], grows,
        title="per-group latency"))
    scheduler = doc.get("scheduler")
    if scheduler:
        totals = scheduler["totals"]
        srows = [[shard,
                  prof.get("engine_slices"),
                  prof.get("engine_seconds"),
                  prof.get("overhead_seconds"),
                  prof.get("overhead_fraction")]
                 for shard, prof in scheduler["shards"].items()]
        srows.append(["total", totals.get("engine_slices"),
                      totals.get("engine_seconds"),
                      totals.get("overhead_seconds"),
                      totals.get("overhead_fraction")])
        blocks.append(format_table(
            ["shard", "engine runs", "engine s", "overhead s",
             "overhead frac"], srows,
            title="runtime overhead outside the engine (wall clock)"))
    blocks.append(_render_metrics(doc["metrics"]))
    return "\n\n".join(blocks)


def _render_metrics(doc: Dict[str, Any]) -> str:
    blocks: List[str] = []
    totals = doc["totals"]
    head = [f"source: {doc['source']}",
            f"window: {doc['window']}  "
            f"dropped_windows: {doc['dropped_windows']}  "
            f"shards: {','.join(map(str, doc['shards']))}",
            f"arrivals: {totals.get('arrivals', 0)}  "
            f"commits: {totals.get('commits', 0)}  "
            f"failed: {totals.get('failed', 0)}  "
            f"in-flight: {totals.get('in_flight_final', 0)}"]
    blocks.append("\n".join(head))
    wrows = [[win["start"], win["arrivals"], win["commits"],
              win["rps"], win["in_flight"],
              win["latency"].get("p50"), win["latency"].get("p99")]
             for win in doc["windows"]]
    blocks.append(format_table(
        ["t", "arrivals", "commits", "rps", "in-flight", "p50",
         "p99"], wrows, title="time series (virtual-time windows)"))
    commits = totals.get("commits", 0)
    grows = [[gid, cell.get("arrivals"), cell.get("commits"),
              f"{cell.get('commits', 0) / commits if commits else 0.0:.1%}",
              cell.get("failed"), cell.get("queue_peak"),
              cell.get("latency", {}).get("p50"),
              cell.get("latency", {}).get("p99")]
             for gid, cell in doc["groups"].items()]
    blocks.append(format_table(
        ["group", "arrivals", "commits", "share", "failed",
         "queue peak", "p50", "p99"], grows, title="per-group totals"))
    counters = doc.get("counters")
    if counters:
        blocks.append(format_table(
            ["counter", "value"],
            [[name, value] for name, value in counters.items()],
            title="counters"))
    shard_rows = doc.get("shard_rows")
    if shard_rows:
        blocks.append(format_table(
            ["shard", "groups", "requests", "wall s", "util",
             "straggler"],
            [[row.get("shard"), row.get("groups"), row.get("requests"),
              row.get("wall_seconds"),
              f"{row.get('utilization', 0.0):.0%}",
              row.get("straggler", False)] for row in shard_rows],
            title="per-shard"))
    return "\n\n".join(blocks)


def _render_service_telemetry(doc: Dict[str, Any]) -> str:
    blocks: List[str] = []
    totals = doc["totals"]
    blocks.append("\n".join([
        f"source: {doc['source']}",
        f"slots: {totals.get('slots', 0)}  "
        f"events: {totals.get('events_processed', 0)}  "
        f"wall: {totals.get('wall_seconds', 0.0):.3f}s"]))
    rows = [[gid, cell["slots"], cell["events_processed"],
             cell["events_per_slot"], cell["wall_seconds"],
             cell["deliveries"]]
            for gid, cell in doc["groups"].items()]
    blocks.append(format_table(
        ["group", "slots", "events", "events/slot", "wall s",
         "deliveries"], rows,
        title="per-group engine attribution"))
    return "\n\n".join(blocks)


def render_service_stats(doc: Dict[str, Any]) -> str:
    """A reduced service document as aligned ASCII tables."""
    kind = doc.get("kind")
    if kind == "spans":
        return _render_spans(doc)
    if kind == "metrics":
        return _render_metrics(doc)
    if kind == "service-telemetry":
        return _render_service_telemetry(doc)
    raise ValueError(f"unknown service stats kind: {kind!r}")
