"""Trace export/import.

Execution traces are the ground truth of every experiment; exporting
them lets users diff runs, archive experiment evidence next to the
``repro regen`` tables, or analyse executions with external tooling.
Payloads are stored as ``repr`` strings: traces round-trip
structurally (times, kinds, nodes, broadcast ids) with payloads
preserved for human inspection rather than re-execution.

One layout: :func:`save_trace` writes a JSON header line (schema 6,
format ``columnar-chunks``, metadata, the embedded
:class:`~repro.scenario.Scenario`), then the chunk blobs of
:mod:`repro.macsim.columnar`, each length-prefixed, a zero-length
sentinel and a JSON chunk manifest line. A ``ColumnarSink`` gives its
blobs (a disk one copies its chunk files, an in-RAM FULL one packs its
rows into the same chunks), and any other sink is packed into an
in-RAM one first, so a FULL and a columnar run of one execution write
the same bytes after the header. :func:`load_trace` streams the
records back into any sink;
:func:`load_scenario` rebuilds the run (``repro replay``). Any other
file raises :class:`ValueError` naming it.

:func:`trace_to_json` is the in-memory digest of a trace, not a file
layout: golden pins hash its exact bytes, and nothing loads it back.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterator, List, Optional

from ..macsim.columnar import decode_chunk
from ..macsim.trace import TraceLevel, TraceRecord, TraceSink, make_sink

#: Schema version stamped into file exports (the only one read back).
SCHEMA_VERSION = 6

#: The one body layout, named by the header's ``format`` field.
FORMAT = "columnar-chunks"

#: Length prefix of each binary chunk blob (a zero length terminates
#: the stream; the chunk manifest follows).
_CHUNK_LEN = struct.Struct("<Q")


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
                  metadata: Optional[Dict[str, Any]] = None) -> str:
    """A trace (plus metadata) as one JSON document: the in-memory
    digest format. Its bytes are pinned, so the ``schema`` 2 and the
    empty ``crashes`` key stay."""
    document = {
        "schema": 2,
        "metadata": metadata or {},
        "crashes": [],
        "records": trace_to_records(trace),
    }
    return json.dumps(document, indent=indent)


def save_trace(trace: TraceSink, path: str, *,
               metadata: Optional[Dict[str, Any]] = None,
               scenario=None) -> None:
    """Write a schema-6 ``columnar-chunks`` trace export.

    A :class:`~repro.macsim.columnar.ColumnarSink` gives its chunk
    blobs; any other sink (the counting DECISIONS one, a caller's) is
    first packed record by record into an in-RAM one. ``scenario`` (a
    :class:`~repro.scenario.Scenario`) embeds the run description that
    :func:`load_scenario` reads back.
    """
    if not getattr(trace, "columnar", False):
        packed = make_sink(TraceLevel.FULL)
        for record in trace:
            packed.append(record)
        trace = packed
    header = {
        "schema": SCHEMA_VERSION,
        "format": FORMAT,
        "metadata": metadata or {},
        "scenario": scenario.to_dict() if scenario is not None else None,
    }
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


def _read_header(path: str) -> dict:
    """The header line of an export, or :class:`ValueError`. Opens in
    binary: compressed chunk blobs follow the (utf-8 JSON) line."""
    with open(path, "rb") as handle:
        first = handle.readline()
    try:
        header = json.loads(first)
    except ValueError:
        header = None
    got = header if isinstance(header, dict) else {}
    if (got.get("schema"), got.get("format")) != (SCHEMA_VERSION, FORMAT):
        raise ValueError(
            f"not a schema-{SCHEMA_VERSION} {FORMAT} trace export: {path} "
            f"(schema {got.get('schema')!r}, format {got.get('format')!r})")
    return header


def _iter_columnar_blobs(path: str) -> Iterator[bytes]:
    """The chunk blobs of an export, in order, after checking its
    header."""
    _read_header(path)
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


def iter_saved_records(path: str) -> Iterator[TraceRecord]:
    """Stream the records of an export without materializing them."""
    for blob in _iter_columnar_blobs(path):
        yield from decode_chunk(blob).records()


def load_trace(path: str, *, sink: Optional[TraceSink] = None) -> TraceSink:
    """Read a trace export from ``path``, chunk by chunk.

    ``sink`` receives the records (default: a fresh FULL-level sink,
    in RAM); pass a disk
    :class:`~repro.macsim.columnar.ColumnarSink` to keep a huge reload
    in bounded memory.
    """
    trace = sink if sink is not None else make_sink(TraceLevel.FULL)
    # Exported payloads are already repr strings; a ColumnarSink takes
    # them through its serialized-append path, and reports its
    # payloads preserialized, so reload -> re-export round-trips
    # without a second repr.
    append = getattr(trace, "append_serialized", trace.append)
    for record in iter_saved_records(path):
        append(record)
    return trace


def load_scenario(path: str):
    """The embedded :class:`~repro.scenario.Scenario` of an export.

    Returns ``None`` for an export saved without one. The rebuilt
    scenario re-executes to a byte-identical trace -- ``repro replay``
    is built on this.
    """
    data = _read_header(path).get("scenario")
    if not data:
        return None
    from ..scenario import Scenario
    return Scenario.from_dict(data)


def load_metadata(path: str) -> Dict[str, Any]:
    """The metadata block of an export."""
    return dict(_read_header(path).get("metadata") or {})


def _label(value: Any) -> Any:
    """Node labels are ints or strings already; pass through."""
    if value is None or isinstance(value, (int, str, float)):
        return value
    return repr(value)
