"""Binary columnar trace format: struct-packed chunks, vectorized replay.

The one disk trace format. Full-level traces stream to disk in
bounded memory: records are packed into typed *columns* (fixed-width
little-endian arrays for time/kind/ids, per-chunk interned string
tables for node labels and payload ``repr`` strings), compressed per
chunk with zlib (~1 byte per record), and read back as whole-column
views -- numpy arrays when numpy is installed (the ``[fast]`` extra),
``array.array`` otherwise. This module is the only one that knows the
format, label packing (:func:`_pack_label`) included.

Three layers live here:

* the chunk codec (:func:`encode_chunk` / :func:`decode_chunk` and
  :class:`ColumnarChunk`) -- self-contained blobs, JSON-lossless on
  round-trip with the export serialization convention (labels
  losslessly, payloads as ``repr`` strings);
* :class:`ColumnarSink` (``TraceLevel.COLUMNAR``) -- the streaming
  sink: chunked ``.colb`` files plus an exact in-RAM
  decision/counter index, a ``manifest.json``, and
  :meth:`ColumnarSink.load` which reopens a chunk directory and
  rebuilds decisions/counters from the columns (numpy ``bincount``
  over whole chunks -- the vectorized *metrics replay*);
* the vectorized model-invariant checker
  (:func:`try_vectorized_invariants`) -- the MAC-contract audit of
  :func:`repro.macsim.invariants.check_model_invariants` re-expressed
  as whole-column numpy passes over slices of a chunk instead of a
  per-record Python loop, holding state for the open broadcasts only:
  O(n + open broadcasts + one slice of rows), whatever the trace's
  length (O(broadcasts) when a crashed sender's never-acked broadcast
  pins the window, see :class:`_BidState`). It covers the
  static-topology fault-free and crash-fault cases (the shapes that
  actually reach 10^8 events) and *declines* -- returns ``None`` so
  the caller falls back to the record-iterator reference
  implementation -- on anything exotic (dynamic topologies,
  fault-model runs with drops, n > 63, malformed id columns). Verdict
  equality between the two paths is pinned by the test-suite's
  property tests.

Chunk blob layout (all little-endian)::

    magic   b"MCC1"
    u32     n_records
    u32     flags          (bit 0: broadcast-id column is i8, not i4)
    u32     raw_body_len
    u32     compressed_len
    zlib(body, level=1) where body =
        u32 len | label table   (JSON array of packed labels)
        u32 len | payload table (JSON array of payload repr strings)
        times    f8 * n
        kinds    u1 * n        (index into TRACE_KINDS)
        nodes    i4 * n        (index into the label table)
        bids     i4|i8 * n     (-1 encodes None)
        peers    i4 * n        (-1 encodes None)
        payloads i4 * n        (-1 encodes None)

**A message is serialized once.** The model's one primitive hands
*one* message to every neighbor, so the payload column's text is taken
at the ``broadcast`` row and the ``deliver`` rows of that same object
re-intern it instead of calling ``repr`` once per receiver. A message
is a value: mutating a shared payload object in place between its
broadcast and a delivery is invisible here exactly as it already is at
FULL level (where every record holds the one object). *Substituting*
the payload -- a fault model's forgery -- never is: a delivered object
that is not the broadcast's own is serialized on its own, so the
payload-integrity audit flags it.

**A fan-out is one row.** The same primitive means the ``deliver``
rows of one same-timestamp fan-out differ only in the receiver, so the
engine hands them over as one run
(:meth:`ColumnarSink.record_deliveries`) and the sink appends a run to
each column: ``column.frombytes(packed_value * k)`` for the shared
time, id, sender and payload, the receivers' label ids for the node
column. The bytes are those of one ``record`` call per receiver, which
fixes two details. A run that straddles ``chunk_records`` is *split*
there, so every chunk holds exactly the rows it always held. And the
per-chunk label table interns in row order -- the run's first
receiver, then the sender, then the remaining receivers -- which only
shows right after a flush, when the table starts empty.

**Typed builders.** The sink's pending chunk is built in the types it
is written in: ``array('d')`` times, a ``bytearray`` of kinds,
``array`` i4 node, peer and payload ids. The broadcast-id column starts
each chunk as i4 and is promoted to i8 by the first id that does not
fit; the column's width *is* the chunk's wide flag, so ``flush`` scans
nothing and ``encode_chunk`` takes each column's ``tobytes()``.

Everything numpy-flavoured is gated at call time on
:func:`have_numpy`, which imports numpy the first time it is asked and
binds it to the module global ``np`` (``None`` when numpy is
unavailable or ``MACSIM_NO_NUMPY`` is set -- the only place that
switch is read), so the pure-python fallback is a first-class, tested
path and a process that never decodes a chunk never loads numpy. The
write path (``record`` / ``record_deliveries`` / ``flush``) builds
``array`` / ``bytearray`` columns and does not ask.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import sys
import tempfile
import weakref
import zlib
from array import array
from typing import Any, Dict, Iterator, List, Optional

from .trace import (TRACE_KINDS, SpillBudgetError, TraceLevel,
                    TraceRecord, TraceSink, _ESSENTIAL_KINDS,
                    _TRACE_KIND_SET)

#: Records per chunk file; bounds replay memory and buffer size.
DEFAULT_CHUNK_RECORDS = 50_000

_TUPLE_TAG = "__t__"


def _pack_label(value: Any) -> Any:
    """JSON-lossless packing for node/peer labels (ints, strings,
    floats, None, and tuples thereof); anything else falls back to
    ``repr``."""
    if value is None or isinstance(value, (int, str, float)):
        return value
    if isinstance(value, tuple):
        return [_TUPLE_TAG] + [_pack_label(v) for v in value]
    return repr(value)


def _unpack_label(value: Any) -> Any:
    if isinstance(value, list):
        if value and value[0] == _TUPLE_TAG:
            return tuple(_unpack_label(v) for v in value[1:])
        return [_unpack_label(v) for v in value]
    return value


#: numpy once :func:`have_numpy` has resolved it: ``False`` until the
#: first call, ``None`` when it is not installed or switched off.
np: Any = False


def have_numpy() -> bool:
    """Whether the vectorized fast paths are available right now.

    The first call imports numpy (or decides not to: ``MACSIM_NO_NUMPY``
    set to anything but ``""``/``"0"``, or no numpy installed).
    """
    global np
    if np is False:
        if os.environ.get("MACSIM_NO_NUMPY", "0") in ("", "0"):
            try:
                import numpy as np
            except ImportError:  # pragma: no cover - bare installs
                np = None
        else:
            np = None
    return np is not None


#: Kind string -> u1 column code (the TRACE_KINDS index).
KIND_CODES: Dict[str, int] = {k: i for i, k in enumerate(TRACE_KINDS)}
_KIND_BROADCAST = KIND_CODES["broadcast"]
_KIND_DELIVER = KIND_CODES["deliver"]
_KIND_ACK = KIND_CODES["ack"]
_KIND_DECIDE = KIND_CODES["decide"]
_KIND_CRASH = KIND_CODES["crash"]

_MAGIC = b"MCC1"
#: Pre-compiled structs for the hot pack/unpack path (satellite: no
#: per-chunk struct recompilation).
_HEADER_STRUCT = struct.Struct("<4sIIII")
_U32 = struct.Struct("<I")

_FLAG_WIDE_BIDS = 1

#: ``array`` typecodes guaranteed 4/8 bytes on this interpreter.
_I4 = next(c for c in "ilq" if array(c).itemsize == 4)
_I8 = next(c for c in "qlI" if array(c).itemsize == 8)
_BIG_ENDIAN = sys.byteorder == "big"

_I4_MIN, _I4_MAX = -(2 ** 31), 2 ** 31 - 1

#: One value of a typed builder column as native bytes; a run lands as
#: ``column.frombytes(packed * k)``.
_F8_PACK = struct.Struct("=d").pack
_I4_PACK = struct.Struct("=i").pack
_I8_PACK = struct.Struct("=q").pack
_DELIVER_BYTE = bytes((_KIND_DELIVER,))


def _column_bytes(typecode: str, values) -> bytes:
    """Little-endian bytes of a column: a typed column of the right
    width as it is, any other int/float sequence converted first."""
    typed = isinstance(values, array) and values.typecode == typecode
    arr = values if typed else array(typecode, values)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian on-disk format
        arr = array(typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _column_from(typecode: str, data: bytes):
    arr = array(typecode)
    arr.frombytes(data)
    if _BIG_ENDIAN:  # pragma: no cover
        arr.byteswap()
    return arr


class ColumnarChunk:
    """One decoded chunk: whole-column views plus the intern tables.

    ``times``/``kinds``/``nodes``/``bids``/``peers``/``payload_idx``
    are numpy arrays when numpy is available (zero-copy views over the
    decompressed body where alignment allows) and ``array.array``
    otherwise. ``labels`` holds the *unpacked* node labels the
    ``nodes``/``peers`` columns index into; ``payloads`` the payload
    ``repr`` strings (``-1`` indexes encode ``None``).
    """

    __slots__ = ("n", "times", "kinds", "nodes", "bids", "peers",
                 "payload_idx", "labels", "payloads")

    def __init__(self, n, times, kinds, nodes, bids, peers, payload_idx,
                 labels, payloads):
        self.n = n
        self.times = times
        self.kinds = kinds
        self.nodes = nodes
        self.bids = bids
        self.peers = peers
        self.payload_idx = payload_idx
        self.labels = labels
        self.payloads = payloads

    def records(self) -> Iterator[TraceRecord]:
        """Materialize the rows as :class:`TraceRecord` objects, in
        order (the reference / compatibility path; the fast paths use
        the columns directly)."""
        # tolist() converts numpy scalars to plain Python objects in
        # one C pass; array.array supports it identically. A pending
        # (not yet flushed) chunk carries the sink's typed builders,
        # whose kind column is a bytearray.
        def as_list(column):
            return (column.tolist() if hasattr(column, "tolist")
                    else list(column))
        times = as_list(self.times)
        kinds = as_list(self.kinds)
        nodes = as_list(self.nodes)
        bids = as_list(self.bids)
        peers = as_list(self.peers)
        payload_idx = as_list(self.payload_idx)
        labels = self.labels
        payloads = self.payloads
        kind_names = TRACE_KINDS
        for i in range(self.n):
            bid = bids[i]
            pi = payload_idx[i]
            peer = peers[i]
            yield TraceRecord(
                times[i], kind_names[kinds[i]], labels[nodes[i]],
                None if bid < 0 else bid,
                None if peer < 0 else labels[peer],
                None if pi < 0 else payloads[pi])


def encode_chunk(times, kinds, nodes, bids, peers, payload_idx,
                 packed_labels: List[Any],
                 payload_table: List[str]) -> bytes:
    """Pack one chunk's columns into a compressed binary blob.

    ``kinds`` is a ``bytearray`` of kind codes; the other columns are
    typed ``array`` columns (written out as they are) or plain number
    sequences, ids with ``-1`` for ``None``; ``packed_labels`` are
    already :func:`_pack_label`-packed. The
    broadcast-id column's width is the wide flag: an i8 ``array`` is
    written wide, a plain sequence is narrow unless a value overflows.
    """
    n = len(times)
    if not isinstance(bids, array):
        try:
            bids = array(_I4, bids)
        except OverflowError:
            bids = array(_I8, bids)
    flags = _FLAG_WIDE_BIDS if bids.itemsize == 8 else 0
    label_blob = json.dumps(packed_labels,
                            separators=(",", ":")).encode("utf-8")
    payload_blob = json.dumps(payload_table,
                              separators=(",", ":")).encode("utf-8")
    body = b"".join((
        _U32.pack(len(label_blob)), label_blob,
        _U32.pack(len(payload_blob)), payload_blob,
        _column_bytes("d", times),
        bytes(kinds),
        _column_bytes(_I4, nodes),
        _column_bytes(bids.typecode, bids),
        _column_bytes(_I4, peers),
        _column_bytes(_I4, payload_idx),
    ))
    comp = zlib.compress(body, 1)
    return _HEADER_STRUCT.pack(_MAGIC, n, flags, len(body),
                               len(comp)) + comp


def decode_chunk(blob: bytes) -> ColumnarChunk:
    """Decode a chunk blob back into whole-column views."""
    magic, n, flags, raw_len, comp_len = _HEADER_STRUCT.unpack_from(
        blob, 0)
    if magic != _MAGIC:
        raise ValueError("not a columnar trace chunk (bad magic)")
    # Sized output: no regrowth, and no copy on the way out.
    body = zlib.decompress(
        blob[_HEADER_STRUCT.size:_HEADER_STRUCT.size + comp_len],
        bufsize=raw_len)
    if len(body) != raw_len:
        raise ValueError("columnar chunk is corrupt (length mismatch)")
    off = 0
    (llen,) = _U32.unpack_from(body, off)
    off += 4
    packed_labels = json.loads(body[off:off + llen].decode("utf-8"))
    off += llen
    (plen,) = _U32.unpack_from(body, off)
    off += 4
    payloads = json.loads(body[off:off + plen].decode("utf-8"))
    off += plen
    labels = [_unpack_label(v) for v in packed_labels]
    bid_wide = bool(flags & _FLAG_WIDE_BIDS)
    bid_size = 8 if bid_wide else 4
    if have_numpy():
        times = np.frombuffer(body, "<f8", n, off)
        kinds = np.frombuffer(body, np.uint8, n, off + 8 * n)
        nodes = np.frombuffer(body, "<i4", n, off + 9 * n)
        bids = np.frombuffer(body, "<i8" if bid_wide else "<i4", n,
                             off + 13 * n)
        peers = np.frombuffer(body, "<i4", n, off + 13 * n + bid_size * n)
        payload_idx = np.frombuffer(body, "<i4", n,
                                    off + 17 * n + bid_size * n)
    else:
        times = _column_from("d", body[off:off + 8 * n])
        kinds = body[off + 8 * n:off + 9 * n]
        nodes = _column_from(_I4, body[off + 9 * n:off + 13 * n])
        bids = _column_from(_I8 if bid_wide else _I4,
                            body[off + 13 * n:
                                 off + 13 * n + bid_size * n])
        rest = off + 13 * n + bid_size * n
        peers = _column_from(_I4, body[rest:rest + 4 * n])
        payload_idx = _column_from(_I4, body[rest + 4 * n:rest + 8 * n])
    return ColumnarChunk(n, times, kinds, nodes, bids, peers,
                         payload_idx, labels, payloads)


class ColumnarSink(TraceSink):
    """Full-level trace packed into binary columnar chunks on disk.

    Every occurrence lands in the current chunk, chunks flush to
    ``chunk-NNNNN.colb`` every ``chunk_records`` records,
    decisions/crashes/counters stay in an exact in-RAM index, and
    iterating replays the records in order with O(chunk) memory. The
    on-disk format is the struct-packed columnar codec above, decoded
    back as whole columns instead of per-record parses. ``close()``
    additionally writes a ``manifest.json`` chunk manifest next to the
    chunks.

    :meth:`load` reopens a previously written chunk directory without
    re-running the simulation: the decision/counter index is rebuilt
    from the columns (vectorized with numpy when available), so
    consensus checking and metrics replay at column speed. Payloads in
    a reopened sink are ``repr`` strings throughout (the export
    convention), exactly like a reloaded trace export.

    ``max_bytes`` optionally bounds the on-disk footprint; exceeding
    it raises :class:`~repro.macsim.trace.SpillBudgetError` at flush
    time rather than truncating the trace silently. The record whose
    flush raised is indexed first, so counters, decisions and the
    chunks on disk still agree afterwards.

    Payload text is taken per *broadcast*, not per delivery: each
    ``broadcast`` row stores ``sender -> (broadcast id, payload object,
    text)`` and a ``deliver`` row naming that sender and id and carrying
    that very object reuses the text (see the module docstring for why
    this shows every substitution and no in-place mutation). The
    model's one-in-flight-broadcast-per-node rule bounds the table at n
    entries; nothing is evicted.

    Rows arrive one at a time (:meth:`record`) or as the run of one
    fan-out (:meth:`record_deliveries`: the same rows, the same bytes,
    split at the chunk boundary, labels interned in row order). The
    pending chunk lives in typed column builders -- ``array``/
    ``bytearray``, never Python lists -- whose broadcast-id column is
    promoted from i4 to i8 by the first id that needs it; an unflushed
    tail is replayed from those builders directly, without a copy.
    """

    __slots__ = ("directory", "chunk_records", "max_bytes",
                 "_chunk_paths", "_chunk_counts", "_spilled_bytes",
                 "_spilled", "_by_kind_essential", "_decisions",
                 "_decision_times", "_kind_counts", "_broadcasts_by_node",
                 "_owns_dir", "_finalizer", "_c_times", "_c_kinds",
                 "_c_nodes", "_c_bids", "_c_peers", "_c_payloads",
                 "_label_index", "_labels_packed", "_labels",
                 "_payload_index", "_payload_table", "_sent_text",
                 "__weakref__")

    level = TraceLevel.COLUMNAR
    replayable = True
    materializes_mac = True
    payloads_preserialized = True
    columnar = True

    def __init__(self, directory: Optional[str] = None, *,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS,
                 max_bytes: Optional[int] = None) -> None:
        if chunk_records <= 0:
            raise ValueError("chunk_records must be positive")
        self._owns_dir = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="macsim-columnar-")
        else:
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.chunk_records = chunk_records
        self.max_bytes = max_bytes
        self._chunk_paths: List[str] = []
        self._chunk_counts: List[int] = []
        self._spilled_bytes = 0
        self._spilled = 0
        self._by_kind_essential: Dict[str, List[TraceRecord]] = {}
        self._decisions: Dict[Any, Any] = {}
        self._decision_times: Dict[Any, float] = {}
        self._kind_counts: Dict[str, int] = {k: 0 for k in TRACE_KINDS}
        self._broadcasts_by_node: Dict[Any, int] = {}
        #: sender -> (broadcast id, payload object, its ``repr``) of the
        #: sender's latest ``broadcast`` row; outlives chunk flushes.
        #: One in-flight broadcast per node bounds it at n entries.
        self._sent_text: Dict[Any, tuple] = {}
        self._reset_builders()
        if self._owns_dir:
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, directory, True)
        else:
            self._finalizer = None

    def _reset_builders(self) -> None:
        self._c_times = array("d")
        self._c_kinds = bytearray()
        self._c_nodes = array(_I4)
        #: i4 until a row's id does not fit; see :meth:`_widen_bids`.
        self._c_bids = array(_I4)
        self._c_peers = array(_I4)
        self._c_payloads = array(_I4)
        self._label_index: Dict[Any, int] = {}
        self._labels_packed: List[Any] = []
        self._labels: List[Any] = []
        self._payload_index: Dict[str, int] = {}
        self._payload_table: List[str] = []

    # -- ingestion -----------------------------------------------------
    def _label_id(self, label: Any) -> int:
        idx = self._label_index.get(label)
        if idx is None:
            idx = self._label_index[label] = len(self._labels_packed)
            self._labels_packed.append(_pack_label(label))
            self._labels.append(label)
        return idx

    def _payload_id(self, text: str) -> int:
        idx = self._payload_index.get(text)
        if idx is None:
            idx = self._payload_index[text] = len(self._payload_table)
            self._payload_table.append(text)
        return idx

    def _widen_bids(self) -> array:
        """Promote this chunk's broadcast-id column to i8: called for
        the first id outside i4, and what flags the chunk wide."""
        wide = self._c_bids = array(_I8, self._c_bids)
        return wide

    def record(self, time: float, kind: str, node: Any, *,
               broadcast_id: Optional[int] = None, peer: Any = None,
               payload: Any = None) -> None:
        # One straight pass, called once per occurrence of a 10^8-event
        # run: the intern tables are probed inline (the helpers only
        # run on a miss) and ``deliver``/``ack`` -- all but a few rows
        # -- skip the index tail they can never enter.
        code = KIND_CODES.get(kind)
        if code is None:
            raise ValueError(f"unknown trace kind: {kind!r}")
        # The one append that can refuse a well-typed value goes first,
        # so the columns never end up of different lengths.
        try:
            self._c_bids.append(-1 if broadcast_id is None
                                else broadcast_id)
        except OverflowError:
            self._widen_bids().append(broadcast_id)
        label_index = self._label_index
        node_id = label_index.get(node)
        if node_id is None:
            node_id = self._label_id(node)
        times = self._c_times
        times.append(time)
        self._c_kinds.append(code)
        self._c_nodes.append(node_id)
        if peer is None:
            self._c_peers.append(-1)
        else:
            peer_id = label_index.get(peer)
            if peer_id is None:
                peer_id = self._label_id(peer)
            self._c_peers.append(peer_id)
        if payload is None:
            self._c_payloads.append(-1)
        else:
            # Text is taken at the ``broadcast`` row; a delivery of
            # that very object re-interns it (its hash is cached), any
            # other object is serialized on its own (class docstring).
            if code == _KIND_DELIVER:
                sent = self._sent_text.get(peer)
                if (sent is not None and sent[1] is payload
                        and sent[0] == broadcast_id):
                    text = sent[2]
                else:
                    text = repr(payload)
            else:
                text = repr(payload)
                if code == _KIND_BROADCAST:
                    self._sent_text[node] = (broadcast_id, payload, text)
            payload_id = self._payload_index.get(text)
            if payload_id is None:
                payload_id = self._payload_id(text)
            self._c_payloads.append(payload_id)
        # Index first, flush last: a flush that raises
        # SpillBudgetError leaves the counters and the chunk agreeing.
        self._kind_counts[kind] += 1
        if code != _KIND_DELIVER and code != _KIND_ACK:
            if kind == "decide":
                if node not in self._decisions:
                    self._decisions[node] = payload
                    self._decision_times[node] = time
            elif kind == "broadcast":
                self._broadcasts_by_node[node] = (
                    self._broadcasts_by_node.get(node, 0) + 1)
            if kind in _ESSENTIAL_KINDS:
                bucket = self._by_kind_essential.get(kind)
                if bucket is None:
                    bucket = self._by_kind_essential[kind] = []
                bucket.append(TraceRecord(time, kind, node, broadcast_id,
                                          peer, payload))
        if len(times) >= self.chunk_records:
            self.flush()

    def record_deliveries(self, time: float, broadcast_id: int,
                          sender: Any, payload: Any,
                          receivers: tuple) -> None:
        """Append the run to each column: the rows (and the bytes)
        that one ``record("deliver", ...)`` per receiver writes."""
        text = None
        if payload is not None:
            # Payload text: once per run, from the broadcast's own row
            # when this is its very object (see record()).
            sent = self._sent_text.get(sender)
            if (sent is not None and sent[1] is payload
                    and sent[0] == broadcast_id):
                text = sent[2]
            else:
                text = repr(payload)
        packed_time = _F8_PACK(time)
        chunk_records = self.chunk_records
        start = 0
        total = len(receivers)
        while start < total:
            # A run that straddles the chunk boundary is split there,
            # so every chunk holds exactly the rows it always held.
            times = self._c_times
            count = min(total - start, chunk_records - len(times))
            part = receivers[start:start + count]
            start += count
            label_index = self._label_index
            try:
                node_ids = [label_index[v] for v in part]
                peer_id = label_index[sender]
            except KeyError:
                # The label table interns in row order: the first
                # receiver, then the sender, then the other receivers.
                self._label_id(part[0])
                peer_id = self._label_id(sender)
                node_ids = [self._label_id(v) for v in part]
            if text is None:
                payload_id = -1
            else:
                payload_id = self._payload_index.get(text)
                if payload_id is None:
                    payload_id = self._payload_id(text)
            bids = self._c_bids
            if bids.itemsize == 4 and not (
                    _I4_MIN <= broadcast_id <= _I4_MAX):
                bids = self._widen_bids()
            packed_bid = (_I4_PACK if bids.itemsize == 4
                          else _I8_PACK)(broadcast_id)
            times.frombytes(packed_time * count)
            self._c_kinds += _DELIVER_BYTE * count
            self._c_nodes.fromlist(node_ids)
            bids.frombytes(packed_bid * count)
            self._c_peers.frombytes(_I4_PACK(peer_id) * count)
            self._c_payloads.frombytes(_I4_PACK(payload_id) * count)
            # Index first, flush last (as in record()).
            self._kind_counts["deliver"] += count
            if len(times) >= chunk_records:
                self.flush()

    def append(self, record: TraceRecord) -> None:
        """Protocol parity with :class:`~repro.macsim.trace.Trace`."""
        self.record(record.time, record.kind, record.node,
                    broadcast_id=record.broadcast_id, peer=record.peer,
                    payload=record.payload)

    def append_serialized(self, record: TraceRecord) -> None:
        """Append a record whose payload is *already* a ``repr``
        string (reloading an export or another sink's replay stream);
        skips the second ``repr`` so round-trips stay byte-identical."""
        kind = record.kind
        code = KIND_CODES.get(kind)
        if code is None:
            raise ValueError(f"unknown trace kind: {kind!r}")
        payload = record.payload
        try:
            self._c_bids.append(-1 if record.broadcast_id is None
                                else record.broadcast_id)
        except OverflowError:
            self._widen_bids().append(record.broadcast_id)
        self._c_times.append(record.time)
        self._c_kinds.append(code)
        self._c_nodes.append(self._label_id(record.node))
        self._c_peers.append(-1 if record.peer is None
                             else self._label_id(record.peer))
        self._c_payloads.append(
            -1 if payload is None else self._payload_id(payload))
        self._kind_counts[kind] += 1
        node = record.node
        if kind == "decide":
            if node not in self._decisions:
                self._decisions[node] = payload
                self._decision_times[node] = record.time
        elif kind == "broadcast":
            self._broadcasts_by_node[node] = (
                self._broadcasts_by_node.get(node, 0) + 1)
        if kind in _ESSENTIAL_KINDS:
            bucket = self._by_kind_essential.get(kind)
            if bucket is None:
                bucket = self._by_kind_essential[kind] = []
            bucket.append(record)
        if len(self._c_times) >= self.chunk_records:
            self.flush()

    def bump(self, kind: str, node: Any = None) -> None:
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        if kind == "broadcast":
            self._broadcasts_by_node[node] = (
                self._broadcasts_by_node.get(node, 0) + 1)

    def _encode_builders(self) -> bytes:
        return encode_chunk(self._c_times, self._c_kinds, self._c_nodes,
                            self._c_bids, self._c_peers,
                            self._c_payloads, self._labels_packed,
                            self._payload_table)

    def flush(self) -> None:
        """Encode and write the buffered tail as a new chunk file."""
        count = len(self._c_times)
        if not count:
            return
        blob = self._encode_builders()
        path = os.path.join(self.directory,
                            f"chunk-{len(self._chunk_paths):05d}.colb")
        with open(path, "wb") as handle:
            handle.write(blob)
        self._chunk_paths.append(path)
        self._chunk_counts.append(count)
        self._spilled += count
        self._spilled_bytes += len(blob)
        self._reset_builders()
        if (self.max_bytes is not None
                and self._spilled_bytes > self.max_bytes):
            raise SpillBudgetError(
                f"columnar spill exceeded its disk budget: "
                f"{self._spilled_bytes:,} bytes > {self.max_bytes:,} "
                f"({self._spilled:,} records in {self.directory})")

    def close(self) -> None:
        self.flush()
        self._write_manifest()

    def _write_manifest(self) -> None:
        manifest = {
            "format": "macsim-columnar/v1",
            "records": self._spilled,
            "chunk_records": self.chunk_records,
            "chunks": [
                {"file": os.path.basename(p), "records": c,
                 "bytes": os.path.getsize(p)}
                for p, c in zip(self._chunk_paths, self._chunk_counts)],
        }
        path = os.path.join(self.directory, "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1)
            handle.write("\n")

    def cleanup(self) -> None:
        """Remove the spill directory (only if this sink created it)."""
        if self._finalizer is not None:
            self._finalizer()

    def spilled_bytes(self) -> int:
        """Total bytes written to chunk files so far."""
        return self._spilled_bytes

    # -- reopening -----------------------------------------------------
    @classmethod
    def load(cls, directory: str) -> "ColumnarSink":
        """Reopen a written columnar chunk directory for replay.

        Chunk files are discovered through ``manifest.json`` (or a
        sorted glob when the manifest is missing) and the
        decision/counter index is rebuilt from the columns --
        vectorized with numpy when available -- so every query,
        consensus check and metrics computation works as on the
        original sink, with payloads as ``repr`` strings.
        """
        sink = cls(directory)
        sink._owns_dir = False
        if sink._finalizer is not None:
            sink._finalizer.detach()
            sink._finalizer = None
        manifest_path = os.path.join(directory, "manifest.json")
        if os.path.exists(manifest_path):
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            names = [entry["file"] for entry in manifest["chunks"]]
        else:
            names = sorted(name for name in os.listdir(directory)
                           if name.endswith(".colb"))
        sink._chunk_paths = [os.path.join(directory, n) for n in names]
        for path in sink._chunk_paths:
            sink._spilled_bytes += os.path.getsize(path)
        sink._rebuild_index()
        return sink

    def _rebuild_index(self) -> None:
        """Recompute counters/decisions/essential records from the
        columns (the vectorized metrics-replay path)."""
        counts = [0] * len(TRACE_KINDS)
        per_node: Dict[Any, int] = self._broadcasts_by_node
        chunk_counts: List[int] = []
        for chunk in self._iter_file_chunks():
            chunk_counts.append(chunk.n)
            if have_numpy():
                kinds = np.asarray(chunk.kinds)
                hist = np.bincount(kinds, minlength=len(TRACE_KINDS))
                for code, c in enumerate(hist.tolist()):
                    counts[code] += c
                bmask = kinds == _KIND_BROADCAST
                if bmask.any():
                    nodes = np.asarray(chunk.nodes)[bmask]
                    for li, c in enumerate(np.bincount(
                            nodes, minlength=len(chunk.labels)).tolist()):
                        if c:
                            label = chunk.labels[li]
                            per_node[label] = per_node.get(label, 0) + c
                essential = np.flatnonzero(
                    (kinds == _KIND_DECIDE) | (kinds == _KIND_CRASH)
                    | (kinds == KIND_CODES["topo"])).tolist()
            else:
                essential = []
                ess_codes = {KIND_CODES[k] for k in _ESSENTIAL_KINDS}
                nodes = chunk.nodes
                for i, code in enumerate(chunk.kinds):
                    counts[code] += 1
                    if code == _KIND_BROADCAST:
                        label = chunk.labels[nodes[i]]
                        per_node[label] = per_node.get(label, 0) + 1
                    elif code in ess_codes:
                        essential.append(i)
            for i in essential:
                rec = self._row_record(chunk, i)
                bucket = self._by_kind_essential.setdefault(rec.kind, [])
                bucket.append(rec)
                if rec.kind == "decide" and rec.node not in self._decisions:
                    self._decisions[rec.node] = rec.payload
                    self._decision_times[rec.node] = rec.time
        self._chunk_counts = chunk_counts
        self._spilled = sum(chunk_counts)
        for kind, code in KIND_CODES.items():
            self._kind_counts[kind] = counts[code]

    @staticmethod
    def _row_record(chunk: ColumnarChunk, i: int) -> TraceRecord:
        bid = int(chunk.bids[i])
        peer = int(chunk.peers[i])
        pi = int(chunk.payload_idx[i])
        return TraceRecord(
            float(chunk.times[i]), TRACE_KINDS[chunk.kinds[i]],
            chunk.labels[int(chunk.nodes[i])],
            None if bid < 0 else bid,
            None if peer < 0 else chunk.labels[peer],
            None if pi < 0 else chunk.payloads[pi])

    # -- replay --------------------------------------------------------
    def __len__(self) -> int:
        return self._spilled + len(self._c_times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.iter_records()

    def _pending_chunk(self) -> Optional[ColumnarChunk]:
        """The unflushed tail as a chunk over the typed builders
        themselves -- no copy. They only ever grow, and a flush starts
        new ones, so the chunk's first ``n`` rows stay what they were;
        a numpy view is left to the consumer, because a view held
        across a later append would pin the builder's buffer."""
        if not self._c_times:
            return None
        return ColumnarChunk(
            len(self._c_times), self._c_times, self._c_kinds,
            self._c_nodes, self._c_bids, self._c_peers,
            self._c_payloads, self._labels, self._payload_table)

    def _iter_file_chunks(self) -> Iterator[ColumnarChunk]:
        for path in self._chunk_paths:
            with open(path, "rb") as handle:
                yield decode_chunk(handle.read())

    def iter_chunks(self) -> Iterator[ColumnarChunk]:
        """Decode every chunk in order (flushed files, then the
        pending tail buffer) as whole-column views."""
        yield from self._iter_file_chunks()
        pending = self._pending_chunk()
        if pending is not None:
            yield pending

    def iter_records(self) -> Iterator[TraceRecord]:
        """Replay every record in order, one chunk at a time."""
        for chunk in self.iter_chunks():
            yield from chunk.records()

    def iter_chunk_blobs(self) -> Iterator[bytes]:
        """The raw encoded chunk blobs, in order (the export path
        copies these verbatim -- no re-encode)."""
        for path in self._chunk_paths:
            with open(path, "rb") as handle:
                yield handle.read()
        if self._c_times:
            yield self._encode_builders()

    def chunk_paths(self) -> List[str]:
        """Paths of the flushed chunks, in record order."""
        return list(self._chunk_paths)

    # -- queries -------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceRecord]:
        if kind in _ESSENTIAL_KINDS:
            return list(self._by_kind_essential.get(kind, ()))
        if kind not in _TRACE_KIND_SET:
            return []
        return [r for r in self.iter_records() if r.kind == kind]

    def for_node(self, node: Any) -> List[TraceRecord]:
        return [r for r in self.iter_records() if r.node == node]

    def decisions(self) -> Dict[Any, Any]:
        return dict(self._decisions)

    def decision_times(self) -> Dict[Any, float]:
        return dict(self._decision_times)

    def broadcast_count(self, node: Any = None) -> int:
        if node is None:
            return self._kind_counts.get("broadcast", 0)
        return self._broadcasts_by_node.get(node, 0)

    def broadcasts_per_node(self) -> Dict[Any, int]:
        return dict(self._broadcasts_by_node)

    def count_of_kind(self, kind: str) -> int:
        return self._kind_counts.get(kind, 0)

    def crashed_nodes(self) -> set:
        return {r.node for r in self._by_kind_essential.get("crash", ())}


# ----------------------------------------------------------------------
# Vectorized model-invariant replay
# ----------------------------------------------------------------------
#: Cap on violation messages per category over a whole replay (the
#: report also records the total, so verdicts and counts stay exact
#: while memory stays O(1)).
_MESSAGE_CAP = 20

#: Rows the vectorized audit takes at a time: every per-row temporary
#: it makes is this long at most, whatever the chunk size.
_AUDIT_SLICE = 8192

#: :class:`_BidState` columns: name, dtype, value of an id with no state.
_BID_COLUMNS = (
    ("start", "f8", float("nan")),  # broadcast time; NaN: not broadcast
    ("sender", "i8", -1),
    ("bpos", "i8", -1),  # stream position of the broadcast row
    ("payload_hash", "i8", 0),
    ("ack_pos", "i8", -1),  # stream position of the ack row; -1: open
    ("deliver_mask", "u8", 0),
    ("deliver_count", "i8", 0),
    ("deliver_last", "f8", float("-inf")),
)


class _BidState:
    """Per-broadcast audit columns over the open-id window (numpy only).

    Row ``i`` holds broadcast id ``lo + i``; ``top`` is one past the row
    of the highest broadcast id seen. A broadcast's row is final once
    its ack is audited, and :meth:`retire` drops the prefix of ids that
    are acked or were never broadcast. Engine ids are a dense,
    increasing counter, so the window stays about as wide as the
    broadcasts in flight -- except that a crashed sender's never-acked
    broadcast pins ``lo`` and the window then grows with the trace.
    Only broadcast rows grow it: a delivery or ack naming an id past
    the window is flagged as unknown, like a retired id, and a
    broadcast id a slice or more past the highest one seen (a jump
    the dense counter never makes) declines the fast path.
    """

    __slots__ = ("lo", "top", "cap") + tuple(c[0] for c in _BID_COLUMNS)

    def __init__(self, cap: int = 1024):
        self.lo = 0
        self.top = 0
        self.cap = cap
        for name, dtype, fill in _BID_COLUMNS:
            setattr(self, name, np.full(cap, fill, dtype))

    def ensure(self, max_bid: int) -> None:
        need = max_bid - self.lo + 1
        if need <= self.cap:
            return
        new_cap = max(self.cap * 2, need)
        for name, dtype, fill in _BID_COLUMNS:
            grown = np.full(new_cap, fill, dtype)
            grown[:self.cap] = getattr(self, name)
            setattr(self, name, grown)
        self.cap = new_cap

    def retire(self) -> None:
        """Shift the closed prefix out of the window and advance ``lo``."""
        top = self.top
        if not top or (self.ack_pos[0] < 0 and not np.isnan(self.start[0])):
            return  # empty, or the oldest id is still open
        closed = (self.ack_pos[:top] >= 0) | np.isnan(self.start[:top])
        k = top if closed.all() else int(closed.argmin())
        keep = self.cap - k
        for name, _, fill in _BID_COLUMNS:
            column = getattr(self, name)
            column[:keep] = column[k:]
            column[keep:] = fill
        self.lo += k
        self.top = top - k


class _FastPathDeclined(Exception):
    """Internal: the trace has a shape the vectorized checker does not
    model; the caller falls back to the reference implementation."""


def try_vectorized_invariants(graph, trace, f_ack=None):
    """Run the vectorized MAC-contract audit, or return ``None``.

    ``None`` means the fast path does not apply (no numpy, the sink is
    not columnar, the graph is too large for the 64-bit delivery
    bitmask, the run used dynamic topology / fault-model drops, or the
    id columns have a shape the vectorized checker does not model, such
    as a broadcast id used twice) and the caller must use the
    record-iterator reference implementation. The returned report's
    ``ok`` verdict is equivalent to the reference checker's on every
    trace the fast path accepts; violation *messages* are summarized
    per category.
    """
    # Columnar first: a trace that declines anyway must not pay the
    # numpy import.
    if not getattr(trace, "columnar", False) or not have_numpy():
        return None
    if not hasattr(trace, "iter_chunks"):
        return None
    if graph.n > 63:
        return None
    if trace.count_of_kind("topo") or trace.count_of_kind("drop"):
        return None
    try:
        audit = _VectorAudit(graph, f_ack, trace.of_kind("crash"))
        return audit.run(trace.iter_chunks())
    except _FastPathDeclined:
        return None


class _Reporter:
    """Violation messages capped per category over the whole replay,
    with exact accounting of the ones left out."""

    def __init__(self, report):
        self.report = report
        self.room: Dict[str, int] = {}
        self.extra = 0

    def flag(self, category: str, count: int, messages) -> None:
        if not count:
            return
        self.report.ok = False
        room = self.room.get(category, _MESSAGE_CAP)
        kept = min(count, room)
        for _, message in zip(range(kept), messages):
            self.report.add(message)
        self.room[category] = room - kept
        self.extra += count - kept

    def finish(self) -> None:
        if self.extra:
            self.report.add(f"... and {self.extra} further violations "
                            f"(messages capped)")


def _popcount(masks):
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(masks).astype(np.int64)
    return np.fromiter(  # pragma: no cover - numpy < 2.0
        (int(m).bit_count() for m in masks.tolist()),
        dtype=np.int64, count=len(masks))


class _VectorAudit:
    """The MAC-contract audit as whole-column passes (numpy only).

    Each chunk is audited in slices of :data:`_AUDIT_SLICE` rows
    against the open-id window (:class:`_BidState`). A slice registers
    its broadcasts, then its acks, then its deliveries -- stream
    positions keep the order inside a slice exact -- and then closes
    the broadcasts it acked: their duplicate, ack-before-last-delivery
    and coverage checks run there, since nothing later can change them
    (crash times are known up front). Memory is O(n + open broadcasts +
    one slice of rows), independent of the trace's length, except that
    a crashed sender's never-acked broadcast pins the window at
    O(broadcasts).
    """

    def __init__(self, graph, f_ack, crash_records):
        from .invariants import InvariantReport

        self.report = InvariantReport(ok=True)
        self.out = _Reporter(self.report)
        self.f_ack = f_ack
        nodes = self.nodes = list(graph.nodes)
        n = self.n = len(nodes)
        gidx = self.gidx = {v: i for i, v in enumerate(nodes)}
        # Index n is the "unknown label" sentinel: never adjacent, never
        # crashed, bit n unused by any neighbor mask.
        adj = self.adj = np.zeros((n + 1, n + 1), dtype=bool)
        neigh_mask = self.neigh_mask = np.zeros(n + 1, dtype=np.uint64)
        for v in nodes:
            i = gidx[v]
            mask = 0
            for u in graph.neighbors(v):
                j = gidx[u]
                adj[i, j] = True
                mask |= 1 << j
            neigh_mask[i] = mask
        crash_t = self.crash_t = np.full(n + 1, np.inf)
        for rec in crash_records:
            i = gidx.get(rec.node, n)
            if rec.time < crash_t[i]:
                crash_t[i] = rec.time
        #: (bit, crash time) per crashed node: a neighbor that crashed at
        #: or before an ack is excused from its coverage -- exactly the
        #: reference checker's exemption.
        self.excuses = [(np.uint64(1 << i), crash_t[i])
                        for i in np.flatnonzero(crash_t[:n] < np.inf).tolist()]
        self.state = _BidState()

    def run(self, chunks):
        gidx, n = self.gidx, self.n
        none_hash = hash(None)
        base = 0
        for chunk in chunks:
            # Per-chunk gather tables: chunk label -> global node index,
            # chunk payload -> stable payload hash (index -1 selects the
            # appended sentinel).
            g_of_label = np.fromiter(
                (gidx.get(label, n) for label in chunk.labels),
                dtype=np.int64, count=len(chunk.labels))
            g_of_label = np.append(g_of_label, n)
            payload_hash = np.fromiter(
                map(hash, chunk.payloads),
                dtype=np.int64, count=len(chunk.payloads))
            payload_hash = np.append(payload_hash, none_hash)
            times = np.asarray(chunk.times, dtype=np.float64)
            kinds = np.asarray(chunk.kinds, dtype=np.uint8)
            node_col = np.asarray(chunk.nodes)
            bids = np.asarray(chunk.bids)
            payload_col = np.asarray(chunk.payload_idx)
            for lo in range(0, chunk.n, _AUDIT_SLICE):
                hi = min(lo + _AUDIT_SLICE, chunk.n)
                self._slice(times[lo:hi], kinds[lo:hi],
                            g_of_label[node_col[lo:hi]],
                            bids[lo:hi].astype(np.int64),
                            payload_hash[payload_col[lo:hi]],
                            np.arange(base + lo, base + hi, dtype=np.int64))
            base += chunk.n
        # The broadcasts still open get the duplicate check only.
        state = self.state
        top = state.top
        still_open = (~np.isnan(state.start[:top])
                      & (state.ack_pos[:top] < 0))
        dup = still_open & (_popcount(state.deliver_mask[:top])
                            != state.deliver_count[:top])
        self.out.flag("duplicate", int(dup.sum()),
                      (f"duplicate delivery of broadcast {b}"
                       for b in (np.flatnonzero(dup) + state.lo).tolist()))
        self.out.finish()
        return self.report

    def _slice(self, times, kinds, gn, bids, ph, pos):
        state, out, nodes = self.state, self.out, self.nodes
        is_b = kinds == _KIND_BROADCAST
        is_d = kinds == _KIND_DELIVER
        is_a = kinds == _KIND_ACK
        if ((is_b | is_d | is_a) & (bids < 0)).any():
            raise _FastPathDeclined  # None ids on MAC kinds
        lo = state.lo

        # --- broadcasts: register state, check crashed senders -------
        if is_b.any():
            b_row = bids[is_b] - lo
            if b_row.min() < 0:
                raise _FastPathDeclined  # retired id broadcast again
            if b_row.max() >= state.top + _AUDIT_SLICE:
                raise _FastPathDeclined  # id jump a dense counter never makes
            state.ensure(lo + int(b_row.max()))
            if not np.isnan(state.start[b_row]).all():
                raise _FastPathDeclined  # reused id
            b_pos = pos[is_b]
            state.bpos[b_row] = b_pos
            # An id given twice in this slice keeps one of its positions.
            if (state.bpos[b_row] != b_pos).any():
                raise _FastPathDeclined  # reused broadcast id in slice
            b_time = times[is_b]
            b_sender = gn[is_b]
            state.start[b_row] = b_time
            state.sender[b_row] = b_sender
            state.payload_hash[b_row] = ph[is_b]
            state.top = max(state.top, int(b_row.max()) + 1)
            bad = b_time > self.crash_t[b_sender]
            out.flag("crashed-broadcast", int(bad.sum()),
                     (f"crashed node {nodes[s]!r} broadcast at {t}"
                      for s, t in zip(b_sender[bad].tolist(),
                                      b_time[bad].tolist())))

        # --- acks: register position first (stream-position
        # comparisons make intra-slice ordering exact), checks after --
        closing = None
        if is_a.any():
            a_bid = bids[is_a]
            a_time = times[is_a]
            a_pos = pos[is_a]
            a_row = a_bid - lo
            outside = (a_row < 0) | (a_row >= state.cap)
            a_row[outside] = 0  # any row: flagged below
            bad = (outside | np.isnan(state.start[a_row])
                   | (state.bpos[a_row] > a_pos)
                   | (state.ack_pos[a_row] >= 0))
            out.flag("ack-unknown", int(bad.sum()),
                     (f"ack for unknown or closed broadcast {b}"
                      for b in a_bid[bad].tolist()))
            ok_rows = ~bad
            if ok_rows.any():
                v_row = a_row[ok_rows]
                v_time = a_time[ok_rows]
                wrong = gn[is_a][ok_rows] != state.sender[v_row]
                out.flag("ack-wrong-node", int(wrong.sum()),
                         (f"ack for broadcast {b} went to the wrong "
                          f"node" for b in (v_row[wrong] + lo).tolist()))
                if self.f_ack is not None:
                    took = v_time - state.start[v_row]
                    late = took > self.f_ack + 1e-6
                    out.flag("ack-slow", int(late.sum()),
                             (f"ack for broadcast {b} took "
                              f"{d} > F_ack={self.f_ack}"
                              for b, d in zip((v_row[late] + lo).tolist(),
                                              took[late].tolist())))
                v_pos = a_pos[ok_rows]
                state.ack_pos[v_row] = v_pos
                if (state.ack_pos[v_row] != v_pos).any():
                    raise _FastPathDeclined  # two acks of one id here
                closing = (v_row, v_time)

        # --- deliveries ----------------------------------------------
        if is_d.any():
            d_bid = bids[is_d]
            d_pos = pos[is_d]
            d_row = d_bid - lo
            outside = (d_row < 0) | (d_row >= state.cap)
            d_row[outside] = 0  # any row: flagged below
            ack_pos = state.ack_pos[d_row]
            unknown = (outside | np.isnan(state.start[d_row])
                       | (state.bpos[d_row] > d_pos)
                       | ((ack_pos >= 0) & (ack_pos < d_pos)))
            out.flag("delivery-unknown", int(unknown.sum()),
                     (f"delivery for unknown or closed (already "
                      f"acked) broadcast {b}"
                      for b in d_bid[unknown].tolist()))
            live = ~unknown
            if live.any():
                v_row = d_row[live]
                v_bid = d_bid[live]
                v_time = times[is_d][live]
                v_recv = gn[is_d][live]
                nonneigh = ~self.adj[state.sender[v_row], v_recv]
                out.flag("non-neighbor", int(nonneigh.sum()),
                         (f"broadcast {b} delivered to non-neighbor "
                          f"of its sender"
                          for b in v_bid[nonneigh].tolist()))
                early = v_time < state.start[v_row]
                out.flag("delivery-early", int(early.sum()),
                         (f"delivery of broadcast {b} precedes its "
                          f"start" for b in v_bid[early].tolist()))
                dead = v_time > self.crash_t[v_recv]
                out.flag("delivery-crashed", int(dead.sum()),
                         (f"delivery to crashed node {nodes[r]!r}"
                          for r in v_recv[dead].tolist()))
                mutated = ph[is_d][live] != state.payload_hash[v_row]
                out.flag("mutated", int(mutated.sum()),
                         (f"broadcast {b} delivered mutated payload"
                          for b in v_bid[mutated].tolist()))
                np.add.at(state.deliver_count, v_row, 1)
                np.bitwise_or.at(
                    state.deliver_mask, v_row,
                    np.uint64(1) << v_recv.astype(np.uint64))
                np.maximum.at(state.deliver_last, v_row, v_time)

        if closing is not None:
            self._close(*closing)
        state.retire()

    def _close(self, row, ack_time):
        """The final checks of the broadcasts this slice acked: a later
        delivery or ack of theirs is flagged as unknown or closed, so
        their rows cannot change any more."""
        state, out, lo = self.state, self.out, self.state.lo
        mask = state.deliver_mask[row]
        dup = _popcount(mask) != state.deliver_count[row]
        out.flag("duplicate", int(dup.sum()),
                 (f"duplicate delivery of broadcast {b}"
                  for b in (row[dup] + lo).tolist()))
        early = ack_time < state.deliver_last[row] - 1e-9
        out.flag("ack-early", int(early.sum()),
                 (f"ack for broadcast {b} precedes its last delivery"
                  for b in (row[early] + lo).tolist()))
        sender = state.sender[row]
        missing = self.neigh_mask[sender] & ~mask
        for bit, crashed_at in self.excuses:
            missing[ack_time >= crashed_at] &= ~bit
        uncovered = missing != 0
        out.flag("uncovered", int(uncovered.sum()),
                 (f"ack for broadcast {b} of {self.nodes[s]!r} before "
                  f"some non-faulty neighbor received"
                  for b, s in zip((row[uncovered] + lo).tolist(),
                                  sender[uncovered].tolist())))
