"""Trace export/import tests."""

import dataclasses
import json
import re

import pytest

from repro.analysis.export import (load_scenario, load_trace, save_trace,
                                   trace_to_json, trace_to_records)
from repro.analysis.stats_report import _unsupported_artifact
from repro.cli import main
from repro.core.twophase import TwoPhaseConsensus
from repro.macsim import ColumnarSink, TraceLevel, build_simulation
from repro.macsim import columnar as columnar_mod
from repro.macsim.schedulers import SynchronousScheduler
from repro.scenario import (AlgorithmSpec, DynamicsSpec, FaultSpec,
                            Scenario, SchedulerSpec, parse_topology_spec)
from repro.topology import clique


def sample_run():
    graph = clique(3)
    sim = build_simulation(
        graph,
        lambda v: TwoPhaseConsensus(uid=v, initial_value=v % 2),
        SynchronousScheduler(1.0))
    return sim.run()


class TestExport:
    def test_records_cover_all_events(self):
        result = sample_run()
        records = trace_to_records(result.trace)
        assert len(records) == len(result.trace)
        kinds = {r["kind"] for r in records}
        assert {"broadcast", "deliver", "ack", "decide"} <= kinds

    def test_metadata_embedded(self):
        result = sample_run()
        text = trace_to_json(result.trace, metadata={"seed": 42})
        document = json.loads(text)
        assert document["metadata"] == {"seed": 42}
        assert document["schema"] == 2  # v2 added the crashes block
        assert document["crashes"] == []

    def test_file_roundtrip(self, tmp_path):
        result = sample_run()
        path = tmp_path / "trace.json"
        save_trace(result.trace, str(path), metadata={"x": 1})
        reloaded = load_trace(str(path))
        assert len(reloaded) == len(result.trace)


def _scenario(**changes):
    base = Scenario(algorithm=AlgorithmSpec("wpaxos"),
                    topology=parse_topology_spec("clique:8"),
                    scheduler=SchedulerSpec("random"), seed=11)
    return dataclasses.replace(base, **changes)


#: One execution per fault and dynamics family the export must carry.
LAYOUT_CASES = {
    "wpaxos-random": _scenario(topology=parse_topology_spec("random:12:3")),
    "crash": _scenario(fault=FaultSpec("crash", node=0, time=1.5)),
    "byzantine-equivocate": _scenario(
        algorithm=AlgorithmSpec("byzantine"),
        topology=parse_topology_spec("clique:11"),
        fault=FaultSpec("byzantine", count=1, strategy="equivocate")),
    "omission": _scenario(fault=FaultSpec("omission", count=2,
                                          send=True, receive=True)),
    "edge-churn": _scenario(scheduler=SchedulerSpec("synchronous"),
                            dynamics=DynamicsSpec("edge-churn",
                                                  rate=0.15),
                            max_time=60.0),
}


def _body(path):
    """An export's bytes after its header line."""
    with open(path, "rb") as handle:
        handle.readline()
        return handle.read()


class TestOneLayout:
    """Every sink exports ``columnar-chunks``: a FULL trace is packed
    into the bytes a live columnar run writes."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
    def test_full_export_equals_columnar_export(self, tmp_path, name):
        scenario = LAYOUT_CASES[name]
        full = scenario.simulate().trace
        live = dataclasses.replace(
            scenario, trace_level="columnar").simulate().trace
        assert isinstance(live, ColumnarSink)
        paths = [str(tmp_path / "full.trace"), str(tmp_path / "col.trace")]
        for sink, path in zip((full, live), paths):
            save_trace(sink, path, scenario=scenario)
        live.cleanup()
        assert _body(paths[0]) == _body(paths[1])
        assert len(load_trace(paths[0])) == len(full)

    @pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
    def test_in_memory_rows_chunk_like_a_disk_sink(self, monkeypatch,
                                                   name):
        # An in-RAM FULL sink cuts its export (and its replay) at the
        # default chunk size; shrunk to 7 rows, every chunk boundary
        # must fall, and intern its tables, where a disk sink's does.
        monkeypatch.setattr(columnar_mod, "DEFAULT_CHUNK_RECORDS", 7)
        scenario = LAYOUT_CASES[name]
        full = scenario.simulate().trace
        live = ColumnarSink(chunk_records=7)
        scenario.simulate(trace_sink=live)
        assert full.level is TraceLevel.FULL and len(full) > 7
        assert list(full.iter_chunk_blobs()) \
            == list(live.iter_chunk_blobs())
        assert trace_to_records(full) == trace_to_records(live)
        live.cleanup()

    @pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
    def test_packing_matches_a_live_sink_at_small_chunks(self, name):
        scenario = LAYOUT_CASES[name]
        live = ColumnarSink(chunk_records=7)
        scenario.simulate(trace_sink=live)
        packed = ColumnarSink(chunk_records=7)
        for record in scenario.simulate().trace:
            packed.append(record)
        assert list(packed.iter_chunk_blobs()) \
            == list(live.iter_chunk_blobs())
        live.cleanup()
        packed.cleanup()


class TestReloadRoundTrip:
    """A reloaded export holds payload text already: saving it again,
    or digesting it, must not ``repr`` its payloads a second time."""

    @pytest.mark.parametrize("spill", [False, True],
                             ids=["default-sink", "spilling-sink"])
    def test_reload_saves_and_digests_like_the_original(self, tmp_path,
                                                       spill):
        original = sample_run().trace
        first = str(tmp_path / "first.trace")
        save_trace(original, first)
        sink = ColumnarSink(str(tmp_path / "spill")) if spill else None
        reloaded = load_trace(first, sink=sink)
        reloaded.close()
        again = str(tmp_path / "again.trace")
        save_trace(reloaded, again)
        with open(first, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()
        assert trace_to_json(reloaded) == trace_to_json(original)
        assert reloaded.payloads_preserialized

    def test_in_memory_sink_holds_objects_or_text(self):
        sink = sample_run().trace
        with pytest.raises(ValueError, match="payload objects"):
            sink.append_serialized(next(iter(sink)))


def _old_layouts(tmp_path):
    """Exports in layouts that no longer load: ``(path, schema)``."""
    result = sample_run()
    records = json.dumps(trace_to_records(result.trace))
    files = {
        "v6-jsonl-chunks": ({"schema": 6, "format": "jsonl-chunks",
                             "metadata": {}, "crashes": [],
                             "scenario": None}, records),
        "v5": ({"schema": 5, "metadata": {}, "crashes": [],
                "scenario": None}, records),
    }
    out = []
    for name, (header, body) in files.items():
        path = str(tmp_path / f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n" + body + "\n")
        out.append((path, header["schema"]))
    path = str(tmp_path / "v2.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace_to_json(result.trace))
    out.append((path, 2))
    return out


class TestOldLayoutsRejected:
    def test_loaders_raise_value_error(self, tmp_path):
        for path, _ in _old_layouts(tmp_path):
            with pytest.raises(ValueError, match=re.escape(path)):
                load_trace(path)
            with pytest.raises(ValueError, match=re.escape(path)):
                load_scenario(path)

    def test_stats_exits_naming_what_it_reads(self, tmp_path):
        for path, schema in _old_layouts(tmp_path):
            with pytest.raises(SystemExit) as exc:
                main(["stats", path])
            assert exc.value.code \
                == f"{path}: {_unsupported_artifact(path, schema)}"
