"""Trace export/import.

Execution traces are the ground truth of every experiment; exporting
them lets users diff runs, archive experiment evidence next to the
``repro regen`` tables, or analyse executions with external tooling.
Payloads are stored as ``repr`` strings: traces round-trip
structurally (times, kinds, nodes, broadcast ids) with payloads
preserved for human inspection rather than re-execution.

Streaming (schema v6)
---------------------
:func:`save_trace` writes a header line (schema / metadata / crash
scenario / embedded :class:`~repro.scenario.Scenario`) followed by the
record stream in one of two chunked layouts, declared by the header's
``format`` field:

* ``jsonl-chunks`` -- one JSON array of records per line, serialized
  straight off the sink's iterator (the v3-v5 layout, still the
  default for in-memory :class:`~repro.macsim.trace.Trace` runs and
  any third-party sink); the record list is never materialized.
* ``columnar-chunks`` (new in v6) -- written automatically for
  :class:`~repro.macsim.columnar.ColumnarSink` traces: the sink's
  binary chunk blobs are copied verbatim after the header
  (length-prefixed, zero-length sentinel, then a JSON chunk manifest
  line), so the export is a near-memcpy of the chunk directory and
  stays ~50x smaller than JSONL.

:func:`load_trace` streams either layout back -- into any
:class:`~repro.macsim.trace.TraceSink` (pass
``sink=ColumnarSink(...)`` to keep the reload bounded too) -- and still
reads the v1-v5 exports of earlier PRs. A file whose header embeds a
scenario can rebuild and re-execute the exact run
(:func:`load_scenario`); ``repro replay`` works on both layouts.

:func:`trace_to_json` keeps the v2 single-document layout: it is the
in-memory diff/archival format for small traces (and what the
byte-identity tests compare).

Crash *scenarios* round-trip losslessly: ``save_trace(...,
crashes=plans)`` serializes each :class:`~repro.macsim.crash.CrashPlan`
via its ``to_dict`` (the None / empty / subset distinction of
``still_delivered`` survives -- frozen sets no longer stringify), and
:func:`load_crashes` rebuilds equal plans that can re-drive a
simulation.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterable, Iterator, List, Optional

from ..macsim.crash import CrashPlan
from ..macsim.trace import Trace, TraceRecord, TraceSink

#: Schema version stamped into streamed file exports.
#: v4 added the embedded :class:`~repro.scenario.Scenario` (the full
#: declarative run description, so a trace file can rebuild and
#: re-execute the exact run); v5 extends the embedded scenario with
#: the optional ``dynamics`` spec and the record stream with
#: JSON-lossless ``topo`` records, so dynamic-topology runs replay
#: byte-identically too; v6 adds the binary ``columnar-chunks``
#: layout (``format`` header field) for
#: :class:`~repro.macsim.columnar.ColumnarSink` traces. v1-v5 files
#: still load.
SCHEMA_VERSION = 6

#: Length prefix of each binary chunk blob in columnar exports (a
#: zero length terminates the stream; the chunk manifest follows).
_CHUNK_LEN = struct.Struct("<Q")

#: Schema of the single-document layout (:func:`trace_to_json`).
INLINE_SCHEMA_VERSION = 2

#: Records per chunk line in v3 exports.
EXPORT_CHUNK_RECORDS = 50_000


def record_to_dict(record: TraceRecord, *,
                   preserialized: bool = False) -> Dict[str, Any]:
    """One record as a JSON-serializable dict."""
    payload = record.payload
    if payload is not None and not preserialized:
        payload = repr(payload)
    return {
        "time": record.time,
        "kind": record.kind,
        "node": _label(record.node),
        "broadcast_id": record.broadcast_id,
        "peer": _label(record.peer),
        "payload": payload,
    }


def iter_trace_dicts(trace: TraceSink) -> Iterator[Dict[str, Any]]:
    """Stream a sink's records as JSON-serializable dicts, in order.

    Sinks that replay ``repr``-serialized payloads (``ColumnarSink``)
    are passed through without a second ``repr``.
    """
    preserialized = getattr(trace, "payloads_preserialized", False)
    for record in trace:
        yield record_to_dict(record, preserialized=preserialized)


def trace_to_records(trace: TraceSink) -> List[Dict[str, Any]]:
    """Convert a trace to JSON-serializable dicts (materialized)."""
    return list(iter_trace_dicts(trace))


def trace_to_json(trace: TraceSink, *, indent: Optional[int] = None,
                  metadata: Optional[Dict[str, Any]] = None,
                  crashes: Iterable[CrashPlan] = ()) -> str:
    """Serialize a trace (plus metadata and crash scenario) to a v2
    single-document JSON string (in-memory diff format)."""
    document = {
        "schema": INLINE_SCHEMA_VERSION,
        "metadata": metadata or {},
        "crashes": [plan.to_dict() for plan in crashes],
        "records": trace_to_records(trace),
    }
    return json.dumps(document, indent=indent)


def _parse_document(text: str) -> dict:
    document = json.loads(text)
    if document.get("schema") not in (1, INLINE_SCHEMA_VERSION):
        raise ValueError(
            f"unsupported trace schema: {document.get('schema')!r}")
    return document


def _record_from_dict(rec: Dict[str, Any]) -> TraceRecord:
    return TraceRecord(rec["time"], rec["kind"], rec["node"],
                       rec["broadcast_id"], rec["peer"], rec["payload"])


def trace_from_json(text: str) -> Trace:
    """Rebuild a structural trace from a v1/v2 JSON document.

    Payloads come back as their ``repr`` strings; all timing/topology
    queries (decision times, counts, crashed nodes) work as on the
    original.
    """
    document = _parse_document(text)
    trace = Trace()
    for rec in document["records"]:
        trace.append(_record_from_dict(rec))
    return trace


def crashes_from_json(text: str) -> List[CrashPlan]:
    """The crash scenario stored in an export (empty for v1 files)."""
    document = _parse_document(text)
    return [CrashPlan.from_dict(entry)
            for entry in document.get("crashes", ())]


def save_trace(trace: TraceSink, path: str, *,
               metadata: Optional[Dict[str, Any]] = None,
               crashes: Iterable[CrashPlan] = (),
               scenario=None,
               chunk_records: int = EXPORT_CHUNK_RECORDS) -> None:
    """Write a streamed (schema v6) trace export.

    JSONL layout: records are written ``chunk_records`` at a time
    straight off the sink's iterator -- peak memory is O(chunk)
    regardless of trace length. Columnar sinks instead get the binary
    ``columnar-chunks`` layout: their encoded chunk blobs are copied
    into the file verbatim, so the export costs one sequential read
    of the chunk directory.

    ``scenario`` (a :class:`~repro.scenario.Scenario`, or anything
    with a compatible ``to_dict``) embeds the declarative run
    description in the header; :func:`load_scenario` reads it back so
    the exact execution can be rebuilt and replayed.
    """
    columnar = getattr(trace, "columnar", False)
    header = {
        "schema": SCHEMA_VERSION,
        "format": "columnar-chunks" if columnar else "jsonl-chunks",
        "metadata": metadata or {},
        "crashes": [plan.to_dict() for plan in crashes],
        "scenario": scenario.to_dict() if scenario is not None else None,
    }
    if columnar:
        _save_columnar(trace, path, header)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header))
        handle.write("\n")
        chunk: List[Dict[str, Any]] = []
        for rec in iter_trace_dicts(trace):
            chunk.append(rec)
            if len(chunk) >= chunk_records:
                handle.write(json.dumps(chunk))
                handle.write("\n")
                chunk = []
        if chunk:
            handle.write(json.dumps(chunk))
            handle.write("\n")


def _save_columnar(trace: TraceSink, path: str, header: dict) -> None:
    """Binary ``columnar-chunks`` body: header line, length-prefixed
    chunk blobs copied verbatim, zero sentinel, chunk manifest line."""
    chunks = 0
    total = 0
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("utf-8"))
        handle.write(b"\n")
        for blob in trace.iter_chunk_blobs():
            handle.write(_CHUNK_LEN.pack(len(blob)))
            handle.write(blob)
            chunks += 1
            total += len(blob)
        handle.write(_CHUNK_LEN.pack(0))
        manifest = {"chunks": chunks, "records": len(trace),
                    "chunk_bytes": total}
        handle.write(json.dumps(manifest).encode("utf-8"))
        handle.write(b"\n")


def _iter_columnar_blobs(path: str) -> Iterator[bytes]:
    with open(path, "rb") as handle:
        handle.readline()  # header
        while True:
            prefix = handle.read(_CHUNK_LEN.size)
            if len(prefix) < _CHUNK_LEN.size:
                raise ValueError(f"truncated columnar export: {path}")
            (length,) = _CHUNK_LEN.unpack(prefix)
            if length == 0:
                return
            blob = handle.read(length)
            if len(blob) < length:
                raise ValueError(f"truncated columnar export: {path}")
            yield blob


def _read_header(path: str) -> Optional[dict]:
    """The v3+ header line, or ``None`` for v1/v2 single documents.

    Opens in binary: v6 columnar exports carry compressed chunk blobs
    after the (utf-8 JSON) header line.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
    try:
        header = json.loads(first)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if isinstance(header, dict) and header.get("schema", 0) >= 3:
        if header["schema"] > SCHEMA_VERSION:
            raise ValueError(
                f"unsupported trace schema: {header['schema']!r}")
        return header
    return None


def iter_saved_records(path: str) -> Iterator[TraceRecord]:
    """Stream the records of a v3+ export without materializing them
    (either chunk layout)."""
    header = _read_header(path)
    if header is not None and header.get("format") == "columnar-chunks":
        from ..macsim.columnar import decode_chunk
        for blob in _iter_columnar_blobs(path):
            yield from decode_chunk(blob).records()
        return
    with open(path, encoding="utf-8") as handle:
        handle.readline()  # header
        for line in handle:
            if not line.strip():
                continue
            for rec in json.loads(line):
                yield _record_from_dict(rec)


def load_trace(path: str, *, sink: Optional[TraceSink] = None) -> TraceSink:
    """Read a trace export from ``path`` (any schema version).

    ``sink`` receives the records (default: a fresh in-memory
    :class:`Trace`); pass a
    :class:`~repro.macsim.columnar.ColumnarSink` to keep a huge reload
    in bounded memory. v3 files are streamed chunk
    by chunk; v1/v2 single documents are parsed whole.
    """
    trace = sink if sink is not None else Trace()
    # Exported payloads are already repr strings; sinks that
    # re-serialize on ingest (ColumnarSink) take their serialized-append
    # path so reload -> re-export round-trips without double-repr.
    append = getattr(trace, "append_serialized", trace.append)
    header = _read_header(path)
    if header is None:
        with open(path, encoding="utf-8") as handle:
            document = _parse_document(handle.read())
        for rec in document["records"]:
            append(_record_from_dict(rec))
        return trace
    for record in iter_saved_records(path):
        append(record)
    return trace


def load_crashes(path: str) -> List[CrashPlan]:
    """Read the crash scenario back from an export, losslessly."""
    header = _read_header(path)
    if header is not None:
        return [CrashPlan.from_dict(entry)
                for entry in header.get("crashes", ())]
    with open(path, encoding="utf-8") as handle:
        return crashes_from_json(handle.read())


def load_scenario(path: str):
    """The embedded :class:`~repro.scenario.Scenario` of an export.

    Returns ``None`` for exports that carry no scenario (schema v1-v3
    files, or v4 files saved without one). The rebuilt scenario
    re-executes to a byte-identical trace -- ``repro replay`` is built
    on this.
    """
    header = _read_header(path)
    if header is not None:
        data = header.get("scenario")
    else:
        with open(path, encoding="utf-8") as handle:
            data = _parse_document(handle.read()).get("scenario")
    if not data:
        return None
    from ..scenario import Scenario
    return Scenario.from_dict(data)


def load_metadata(path: str) -> Dict[str, Any]:
    """The metadata block of an export (any schema version)."""
    header = _read_header(path)
    if header is not None:
        return dict(header.get("metadata") or {})
    with open(path, encoding="utf-8") as handle:
        return dict(_parse_document(handle.read()).get("metadata") or {})


def _label(value: Any) -> Any:
    """Node labels are ints or strings already; pass through."""
    if value is None or isinstance(value, (int, str, float)):
        return value
    return repr(value)
