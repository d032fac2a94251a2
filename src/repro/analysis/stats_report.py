"""``repro stats``: F_ack/F_prog histograms and counters from any run
artifact.

The paper states every algorithm's time bound against the abstract
MAC layer's ack/progress parameters; this module turns a finished run
back into those empirical distributions. It accepts two inputs and
summarizes them identically:

* a ``--telemetry`` snapshot JSON (schema ``telemetry/v1``),
* a trace export (schema 6, ``columnar-chunks``) whose header may
  embed a telemetry snapshot in its metadata.

It also renders the ``repro serve`` artifacts and ``--json-out``
reports (:mod:`repro.analysis.service_stats`).

When no telemetry blob is embedded, spans are *derived* from the
records by replaying the same eviction-at-ack model the live engine
uses: a span opens at ``broadcast``, tracks the first/last
``deliver``, closes at ``ack``; deliveries after the ack belong to no
span and unacked broadcasts emit nothing. The derivation runs over
whole columns with numpy (:func:`derive_spans_columnar`) and falls
back to the record stream (:func:`derive_spans`, the no-numpy path and
the reference the vectorized one is tested against). Because
summaries are computed order-insensitively
(:func:`repro.macsim.telemetry.summarize_samples`), live telemetry and
both derivations of one seeded run report identical histograms.

:data:`SPAN_RULES` maps every registered trace kind to its role in
span derivation; the guard test asserts it (and the columnar kind
table) stays total as kinds are added.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..macsim.telemetry import TELEMETRY_SCHEMA, summarize_samples
from ..macsim.trace import TRACE_KINDS
from . import export as _export
from .service_stats import (SERVICE_SCHEMAS, SERVICE_STATS_SCHEMA,
                            is_serve_report, render_service_stats,
                            service_doc)
from .tables import format_table

__all__ = ["SPAN_RULES", "KIND_TO_COUNTER", "derive_spans",
           "derive_spans_columnar", "stats_from_file", "render_stats"]

#: Role of each trace kind in span derivation. Every registered kind
#: MUST appear here (guard-tested): ``open`` starts a span, ``deliver``
#: extends it, ``close`` emits and evicts it, ``ignore`` never touches
#: span state.
SPAN_RULES: Dict[str, str] = {
    "broadcast": "open",
    "deliver": "deliver",
    "ack": "close",
    "decide": "ignore",
    "crash": "ignore",
    "discard": "ignore",
    "drop": "ignore",
    "topo": "ignore",
}

#: Trace kind -> the counter name its record count reports under
#: (matches the live engine's ``Telemetry.counters`` keys, so derived
#: and live counter tables line up).
KIND_TO_COUNTER: Dict[str, str] = {
    "broadcast": "broadcasts_opened",
    "deliver": "deliveries",
    "ack": "broadcasts_acked",
    "decide": "decisions",
    "crash": "crashes",
    "discard": "discards",
    "drop": "drops",
    "topo": "topo_records",
}

#: Counter names rendered first (engine counters a derived table
#: cannot know come after, in snapshot order).
_COUNTER_ORDER = ("broadcasts_opened", "broadcasts_acked", "deliveries",
                  "drops", "decisions", "crashes", "discards",
                  "topo_records")


def derive_spans(records: Iterable) -> Tuple[Dict[str, List[float]],
                                             Dict[str, int]]:
    """Replay span semantics over a record stream.

    Returns ``(samples, counts)``: the ``f_ack``/``f_prog``/``f_cover``
    sample lists plus per-kind record counts, from one pass. Accepts
    any iterable of :class:`~repro.macsim.trace.TraceRecord` (a sink,
    ``iter_saved_records``, a decoded chunk's ``records()``).
    """
    starts: Dict[int, float] = {}
    first: Dict[int, float] = {}
    last: Dict[int, float] = {}
    f_ack: List[float] = []
    f_prog: List[float] = []
    f_cover: List[float] = []
    counts = {kind: 0 for kind in TRACE_KINDS}
    for rec in records:
        kind = rec.kind
        counts[kind] += 1
        rule = SPAN_RULES[kind]
        if rule == "deliver":
            bid = rec.broadcast_id
            if bid in starts:
                if bid not in first:
                    first[bid] = rec.time
                last[bid] = rec.time
        elif rule == "open":
            starts[rec.broadcast_id] = rec.time
        elif rule == "close":
            bid = rec.broadcast_id
            start = starts.pop(bid, None)
            if start is None:
                continue  # counting-level trace or duplicate ack
            f_ack.append(rec.time - start)
            t_first = first.pop(bid, None)
            if t_first is not None:
                f_prog.append(t_first - start)
                f_cover.append(last.pop(bid) - start)
    return ({"f_ack": f_ack, "f_prog": f_prog, "f_cover": f_cover},
            counts)


# ---------------------------------------------------------------------------
# Vectorized columnar derivation
# ---------------------------------------------------------------------------

_NO_ACK = 1 << 62


class _SpanColumns:
    """Grow-on-demand per-bid state for the whole-chunk pass."""

    __slots__ = ("cap", "start", "bpos", "ack_pos", "ack_time",
                 "first", "last")

    def __init__(self, np) -> None:
        self.cap = 0
        self.start = np.empty(0)
        self.bpos = np.empty(0, dtype=np.int64)
        self.ack_pos = np.empty(0, dtype=np.int64)
        self.ack_time = np.empty(0)
        self.first = np.empty(0)
        self.last = np.empty(0)

    def ensure(self, np, max_bid: int) -> None:
        if max_bid < self.cap:
            return
        new_cap = max(max_bid + 1, self.cap * 2, 1024)
        grown = new_cap - self.cap

        def extend(col, fill, dtype=None):
            tail = np.full(grown, fill, dtype=dtype)
            return np.concatenate([col, tail])

        self.start = extend(self.start, np.nan)
        self.bpos = extend(self.bpos, -1, np.int64)
        self.ack_pos = extend(self.ack_pos, _NO_ACK, np.int64)
        self.ack_time = extend(self.ack_time, np.nan)
        self.first = extend(self.first, np.inf)
        self.last = extend(self.last, -np.inf)
        self.cap = new_cap


def derive_spans_columnar(path: str) -> Optional[
        Tuple[Dict[str, List[float]], Dict[str, int]]]:
    """Whole-chunk span derivation for ``columnar-chunks`` exports.

    Processes each decoded chunk's columns with numpy (broadcasts,
    then acks, then deliveries; global row positions resolve
    intra-chunk ordering exactly as the record stream would). Returns
    ``None`` to decline -- no numpy, negative MAC broadcast ids, or a
    reused/duplicated bid the position trick cannot order -- and the
    caller falls back to the streamed derivation, which is always
    correct.
    """
    from ..macsim.columnar import (KIND_CODES, decode_chunk, have_numpy)
    if not have_numpy():
        return None
    import numpy as np

    kb = KIND_CODES["broadcast"]
    kd = KIND_CODES["deliver"]
    ka = KIND_CODES["ack"]
    state = _SpanColumns(np)
    kind_hist = np.zeros(len(TRACE_KINDS), dtype=np.int64)
    base = 0
    for blob in _export._iter_columnar_blobs(path):
        chunk = decode_chunk(blob)
        n = chunk.n
        if not n:
            continue
        kinds = np.asarray(chunk.kinds)
        kind_hist += np.bincount(kinds, minlength=len(TRACE_KINDS))
        times = np.asarray(chunk.times)
        bids = np.asarray(chunk.bids, dtype=np.int64)
        is_b = kinds == kb
        is_d = kinds == kd
        is_a = kinds == ka
        mac = is_b | is_d | is_a
        if not mac.any():
            base += n
            continue
        if (bids[mac] < 0).any():
            return None  # None ids on MAC kinds: cannot key spans
        state.ensure(np, int(bids[mac].max()))
        pos = np.arange(base, base + n, dtype=np.int64)

        bb = bids[is_b]
        if bb.size:
            if np.unique(bb).size != bb.size:
                return None  # bid reused within one chunk
            if (state.bpos[bb] >= 0).any():
                return None  # bid reused across chunks
            state.start[bb] = times[is_b]
            state.bpos[bb] = pos[is_b]

        ab = bids[is_a]
        if ab.size:
            if np.unique(ab).size != ab.size:
                return None
            if (state.ack_pos[ab] != _NO_ACK).any():
                return None  # second ack for a bid
            apos = pos[is_a]
            atime = times[is_a]
            known = (state.bpos[ab] >= 0) & (state.bpos[ab] < apos)
            abk = ab[known]
            state.ack_pos[abk] = apos[known]
            state.ack_time[abk] = atime[known]

        db = bids[is_d]
        if db.size:
            dpos = pos[is_d]
            dtimes = times[is_d]
            bpos = state.bpos[db]
            ok = (bpos >= 0) & (bpos < dpos) & (dpos < state.ack_pos[db])
            if ok.any():
                dbo = db[ok]
                dto = dtimes[ok]
                np.minimum.at(state.first, dbo, dto)
                np.maximum.at(state.last, dbo, dto)
        base += n

    closed = state.ack_pos != _NO_ACK
    f_ack = (state.ack_time - state.start)[closed]
    with_deliveries = closed & np.isfinite(state.first)
    f_prog = (state.first - state.start)[with_deliveries]
    f_cover = (state.last - state.start)[with_deliveries]
    samples = {"f_ack": f_ack.tolist(), "f_prog": f_prog.tolist(),
               "f_cover": f_cover.tolist()}
    counts = {kind: int(kind_hist[code])
              for kind, code in KIND_CODES.items()}
    return samples, counts


# ---------------------------------------------------------------------------
# File dispatch
# ---------------------------------------------------------------------------

def _counters_from_counts(counts: Dict[str, int]) -> Dict[str, int]:
    return {KIND_TO_COUNTER[kind]: counts.get(kind, 0)
            for kind in TRACE_KINDS}


def _doc_from_snapshot(snapshot: Dict[str, Any], path: str,
                       source: str) -> Dict[str, Any]:
    doc = {
        "schema": "stats/v1",
        "path": path,
        "source": source,
        "spans": snapshot.get("spans", {}),
        "counters": snapshot.get("counters", {}),
    }
    for key in ("label", "context", "aborted", "error", "wall_seconds",
                "phases", "phase_residual_seconds"):
        if snapshot.get(key) is not None:
            doc[key] = snapshot[key]
    return doc


def _doc_from_derivation(samples: Dict[str, List[float]],
                         counts: Dict[str, int], path: str,
                         source: str) -> Dict[str, Any]:
    return {
        "schema": "stats/v1",
        "path": path,
        "source": source,
        "spans": {name: summarize_samples(values)
                  for name, values in samples.items()},
        "counters": _counters_from_counts(counts),
    }


def stats_from_file(path: str, *, derive: bool = False) -> Dict[str, Any]:
    """Build the stats document for any supported artifact.

    ``derive=True`` forces re-derivation from the records even when
    the export header embeds a live telemetry snapshot (the identity
    acceptance test compares the two).
    """
    # Snapshots are probed *before* the export header check: their
    # first line is the whole document, or does not parse alone.
    with open(path, "rb") as handle:
        first = handle.readline()
    try:
        document = json.loads(first)
    except ValueError:
        document = None
    if not isinstance(document, dict):
        # Indented JSON (``Telemetry.write``, a service artifact).
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema == TELEMETRY_SCHEMA:
        return _doc_from_snapshot(document, path, "telemetry")
    if schema in SERVICE_SCHEMAS or is_serve_report(document):
        return service_doc(document, path)
    try:
        header = _export._read_header(path)
    except ValueError:
        raise ValueError(_unsupported_artifact(path, schema)) from None
    return _stats_from_export(path, header, derive=derive)


def _unsupported_artifact(path: str, schema: Any = None) -> str:
    """Error text naming every schema ``repro stats`` understands."""
    got = f" (schema: {schema!r})" if schema is not None else ""
    return (f"not a stats-able artifact: {path}{got}; expected a "
            f"schema-{_export.SCHEMA_VERSION} {_export.FORMAT} trace "
            f"export, a {TELEMETRY_SCHEMA} snapshot, a serve --json-out "
            f"report with metrics, or one of: "
            + ", ".join(SERVICE_SCHEMAS))


def _stats_from_export(path: str, header: Dict[str, Any], *,
                       derive: bool) -> Dict[str, Any]:
    embedded = (header.get("metadata") or {}).get("telemetry")
    if embedded and not derive:
        return _doc_from_snapshot(embedded, path, "embedded-telemetry")
    vectorized = derive_spans_columnar(path)
    if vectorized is not None:
        samples, counts = vectorized
        return _doc_from_derivation(samples, counts, path,
                                    "derived-columnar")
    samples, counts = derive_spans(_export.iter_saved_records(path))
    return _doc_from_derivation(samples, counts, path,
                                "derived-columnar-stream")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_stats(doc: Dict[str, Any]) -> str:
    """The stats document as aligned ASCII tables."""
    if doc.get("schema") == SERVICE_STATS_SCHEMA:
        return render_service_stats(doc)
    blocks: List[str] = []
    context = doc.get("context") or {}
    head = [f"source: {doc['source']}"]
    if doc.get("label"):
        head.append(f"label: {doc['label']}")
    head.extend(f"{key}: {value}" for key, value in context.items()
                if value is not None)
    if doc.get("aborted"):
        head.append(f"ABORTED: {doc.get('error')}")
    blocks.append("\n".join(head))

    spans = doc.get("spans") or {}
    rows = [[name, summary.get("count", 0)] +
            [_fmt(summary.get(k))
             for k in ("min", "p50", "p95", "max", "mean")]
            for name, summary in spans.items()]
    if rows:
        blocks.append(format_table(
            ["metric", "count", "min", "p50", "p95", "max", "mean"],
            rows, title="measured MAC spans (simulated time)"))

    counters = doc.get("counters") or {}
    ordered = [key for key in _COUNTER_ORDER if key in counters]
    ordered += [key for key in counters if key not in _COUNTER_ORDER]
    if ordered:
        blocks.append(format_table(
            ["counter", "value"],
            [[key, counters[key]] for key in ordered],
            title="counters"))

    phases = doc.get("phases") or {}
    if phases:
        rows = [[name, info.get("calls", 0),
                 _fmt(info.get("seconds"))]
                for name, info in phases.items()]
        residual = doc.get("phase_residual_seconds")
        if residual is not None:
            rows.append(["(run-loop residual)", "-", _fmt(residual)])
        if doc.get("wall_seconds") is not None:
            rows.append(["(total wall)", "-",
                         _fmt(doc["wall_seconds"])])
        blocks.append(format_table(["phase", "calls", "seconds"], rows,
                                   title="phase profile (wall time)"))
    return "\n\n".join(blocks)
