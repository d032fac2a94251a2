"""Sweep fabric: work-stealing executor, result cache, manifests.

The PR 8 contract, pinned from four directions:

* **Executor equivalence** -- the sequential path (``workers=1``) and
  the work-stealing executor produce byte-identical point lists on the
  same grid; the stealing executor also reports
  per-worker utilization/steal telemetry, re-runs the points of a
  worker that died, and surfaces task errors and workers that die on
  every attempt as typed errors.
* **Cache correctness** -- the scenario digest is stable, moves when
  any field or the salt moves, and cached metrics equal fresh ones
  across trace levels and fault models (hypothesis property).
  Corruption, schema drift and digest collisions degrade to misses;
  ``verify="replay"`` turns a tampered hit into a loud error.
* **Manifest round trips** -- every migrated driver's manifest
  survives JSON, and ``regenerate`` is deterministic: a second pass
  over the same cache is 100% hits and byte-identical text.
* **Progress telemetry** -- the ``MACSIM_SWEEP_PROGRESS`` toggle
  parses falsy values as *off* (the PR 8 bug fix) and the closing
  summary line reports points/s, stragglers and the cache hit ratio.
"""

import io
import json
import multiprocessing
import os
import time
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cache import (CACHE_SCHEMA, CacheVerificationError,
                                  ResultCache, cached_run,
                                  default_cache_dir)
from repro.analysis.manifests import (ExperimentManifest, ManifestBlock,
                                      ManifestError, load_manifest,
                                      manifest_drivers, regenerate,
                                      write_manifests)
from repro.analysis.sweeps import (SweepProgress,
                                   SweepWorkerError, _progress_enabled,
                                   parallel_sweep, saturating_workers,
                                   sweep)
from repro.cli import main as cli_main
from repro.macsim.schedulers import SynchronousScheduler
from repro.scenario import (AlgorithmSpec, FaultSpec, Scenario,
                            SchedulerSpec, TopologySpec)
from repro.topology import clique


def _points_json(result):
    """The byte-identity form of a sweep result's points."""
    return json.dumps([asdict(p) for p in result.points])


def _grid(ns=(4, 5, 6, 7, 8, 9)):
    base = Scenario(
        algorithm=AlgorithmSpec("wpaxos"),
        topology=TopologySpec("clique", n=4),
        scheduler=SchedulerSpec("synchronous", f_ack=1.0))
    return base.grid({"topology.n": list(ns)})


def _wpaxos_build(n):
    from repro.core import WPaxosConfig, WPaxosNode
    graph = clique(int(n))
    uid = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return dict(
        graph=graph, scheduler=SynchronousScheduler(1.0),
        factory=lambda v, val: WPaxosNode(uid[v], val, graph.n,
                                          WPaxosConfig()),
        topology=f"clique({int(n)})")


# ----------------------------------------------------------------------
# Satellite 1: the progress env toggle parses falsy values as off
# ----------------------------------------------------------------------
class TestProgressToggle:
    @pytest.mark.parametrize("value", ["0", "false", "no", "off", "",
                                       " 0 ", "False", "NO", "Off"])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("MACSIM_SWEEP_PROGRESS", value)
        assert _progress_enabled(None) is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "2"])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv("MACSIM_SWEEP_PROGRESS", value)
        assert _progress_enabled(None) is True

    def test_unset_disables(self, monkeypatch):
        monkeypatch.delenv("MACSIM_SWEEP_PROGRESS", raising=False)
        assert _progress_enabled(None) is False

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("MACSIM_SWEEP_PROGRESS", "0")
        assert _progress_enabled(True) is True
        monkeypatch.setenv("MACSIM_SWEEP_PROGRESS", "1")
        assert _progress_enabled(False) is False


# ----------------------------------------------------------------------
# Satellite 2: the closing summary line
# ----------------------------------------------------------------------
class TestSweepSummary:
    def test_summary_after_heartbeats(self):
        stream = io.StringIO()
        reporter = SweepProgress("demo", 3, stream=stream)
        reporter.point_done(4, 0.1)
        reporter.point_done(5, 0.2)
        reporter.note_cached(1)
        reporter.finish()
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 4
        assert "(1 cached point reused)" in lines[2]
        summary = lines[-1]
        assert "[sweep demo] summary: 3/3 points in" in summary
        assert "points/s" in summary
        assert "0 stragglers" in summary
        assert "cache 1/3 hits, 0 misses [33%]" in summary

    def test_summary_includes_worker_stats(self):
        stream = io.StringIO()
        reporter = SweepProgress("demo", 2, stream=stream)
        reporter.point_done(1, 0.1)
        reporter.point_done(2, 0.1)
        reporter.finish(worker_stats=[
            {"worker": 0, "points": 2, "chunks": 2,
             "busy_seconds": 0.2}])
        out = stream.getvalue()
        assert "[sweep demo] workers: w0=2pt/2steals/" in out

    def test_progress_sweep_emits_summary(self):
        stream = io.StringIO()
        reporter = SweepProgress("fabric", 2, stream=stream)
        sweep("fabric", (4, 5), _wpaxos_build, reporter=reporter)
        reporter.finish()
        out = stream.getvalue()
        assert "summary: 2/2 points" in out
        # No result cache was consulted, so the summary names none.
        assert "0 stragglers)" in out
        assert "cache" not in out

    def test_cached_sweep_counts_its_misses(self, tmp_path, capsys):
        _grid((4, 5)).run(name="fabric", cache=ResultCache(str(tmp_path)),
                          workers=1, progress=True)
        err = capsys.readouterr().err
        assert "cache 0/2 hits, 2 misses [0%]" in err


# ----------------------------------------------------------------------
# Tentpole: executor equivalence and telemetry
# ----------------------------------------------------------------------
class TestExecutors:
    def test_steal_matches_sequential(self):
        xs = (4, 5, 6, 7, 8, 9)
        sequential = sweep("fabric", xs, _wpaxos_build)
        stolen = parallel_sweep("fabric", xs, _wpaxos_build, workers=2)
        assert _points_json(sequential) == _points_json(stolen)

    def test_steal_stats_account_every_point(self):
        xs = (4, 5, 6, 7, 8)
        result = parallel_sweep("fabric", xs, _wpaxos_build, workers=2)
        if result.executor_stats is None:  # no fork on this platform
            pytest.skip("parallel path unavailable")
        stats = result.executor_stats
        assert stats["workers"] == 2
        per_worker = stats["per_worker"]
        assert sum(w["points"] for w in per_worker) == len(xs)
        assert sum(w["chunks"] for w in per_worker) >= 1
        assert all(w["busy_seconds"] >= 0 for w in per_worker)

    def test_single_worker_falls_back(self):
        result = parallel_sweep("fabric", (4, 5), _wpaxos_build,
                                workers=1)
        assert result.executor_stats is None
        assert _points_json(result) == _points_json(
            sweep("fabric", (4, 5), _wpaxos_build))

    def test_single_point_runs_in_process(self):
        result = parallel_sweep("fabric", (4,), _wpaxos_build, workers=2)
        assert result.executor_stats is None
        assert _points_json(result) == _points_json(
            sweep("fabric", (4,), _wpaxos_build))

    def test_no_fork_runs_in_process(self, monkeypatch):
        import multiprocessing
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        result = parallel_sweep("fabric", (4, 5), _wpaxos_build,
                                workers=2)
        assert result.executor_stats is None
        assert _points_json(result) == _points_json(
            sweep("fabric", (4, 5), _wpaxos_build))

    def test_unset_workers_saturate_cores(self):
        xs = (4, 5, 6)
        result = parallel_sweep("fabric", xs, _wpaxos_build)
        expected = min(saturating_workers(), len(xs))
        if expected <= 1:
            assert result.executor_stats is None
        else:
            assert result.executor_stats["workers"] == expected
        assert _points_json(result) == _points_json(
            sweep("fabric", xs, _wpaxos_build))

    def test_worker_exception_is_typed(self):
        def bad_build(n):
            if int(n) == 6:
                raise RuntimeError("boom at 6")
            return _wpaxos_build(n)

        with pytest.raises(SweepWorkerError, match="boom at 6"):
            parallel_sweep("fabric", (4, 5, 6, 7), bad_build,
                           workers=2)

    @staticmethod
    def _dying_build(key, marker=None):
        """``_wpaxos_build`` whose worker dies at key 6: once when
        ``marker`` names a file to leave behind, else on every
        attempt."""
        def build(n):
            if int(n) == key and not (marker is not None
                                      and marker.exists()):
                if marker is not None:
                    marker.touch()
                os._exit(9)
            return _wpaxos_build(n)
        return build

    def test_dead_worker_costs_a_retry(self, tmp_path):
        xs = (4, 5, 6, 7, 8, 9)
        marker = tmp_path / "died"
        result = parallel_sweep("fabric", xs,
                                self._dying_build(6, marker), workers=2)
        assert marker.exists()
        assert _points_json(result) == _points_json(
            sweep("fabric", xs, _wpaxos_build))
        assert multiprocessing.active_children() == []

    def test_worker_dying_every_attempt_is_typed(self):
        with pytest.raises(SweepWorkerError, match=r"points \[6\]") as err:
            parallel_sweep("fabric", (4, 5, 6, 7), self._dying_build(6),
                           workers=2)
        assert err.value.items == [6]
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Scenario digests
# ----------------------------------------------------------------------
class TestScenarioDigest:
    BASE = Scenario(
        algorithm=AlgorithmSpec("wpaxos"),
        topology=TopologySpec("clique", n=6),
        scheduler=SchedulerSpec("synchronous", f_ack=1.0))

    def test_digest_is_stable(self):
        rebuilt = Scenario.from_json(self.BASE.to_json())
        assert self.BASE.digest() == rebuilt.digest()
        assert len(self.BASE.digest()) == 64

    def test_digest_moves_with_any_field(self):
        assert (self.BASE.digest()
                != self.BASE.override({"seed": 1}).digest())
        assert (self.BASE.digest()
                != self.BASE.override(
                    {"topology.n": 7}).digest())

    def test_salt_moves_digest(self):
        assert self.BASE.digest() != self.BASE.digest(salt="v2")


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        scenario = TestScenarioDigest.BASE
        assert cache.get(scenario) is None
        metrics = cache.run(scenario)
        assert cache.get(scenario) == metrics
        assert cache.stats()["stores"] == 1
        assert cache.hit_ratio > 0
        assert "hit rate" in cache.describe()

    def test_entries_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.run(TestScenarioDigest.BASE)
        assert len(cache.entries()) == 1
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_changed_field_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.run(TestScenarioDigest.BASE)
        other = TestScenarioDigest.BASE.override({"seed": 9})
        assert cache.get(other) is None

    def test_different_salt_misses(self, tmp_path):
        scenario = TestScenarioDigest.BASE
        ResultCache(str(tmp_path), salt="v1").run(scenario)
        assert ResultCache(str(tmp_path),
                           salt="v2").get(scenario) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        scenario = TestScenarioDigest.BASE
        cache.run(scenario)
        with open(cache.path(scenario), "w") as handle:
            handle.write("{not json")
        assert cache.get(scenario) is None

    def test_schema_drift_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        scenario = TestScenarioDigest.BASE
        cache.run(scenario)
        with open(cache.path(scenario)) as handle:
            doc = json.load(handle)
        doc["schema"] = "macsim-cache/v0"
        with open(cache.path(scenario), "w") as handle:
            json.dump(doc, handle)
        assert cache.get(scenario) is None

    def test_digest_collision_guard(self, tmp_path):
        # An entry whose stored scenario differs from the requested
        # one must never be served, whatever its digest says.
        cache = ResultCache(str(tmp_path))
        scenario = TestScenarioDigest.BASE
        cache.run(scenario)
        with open(cache.path(scenario)) as handle:
            doc = json.load(handle)
        doc["scenario"]["seed"] = 999
        with open(cache.path(scenario), "w") as handle:
            json.dump(doc, handle)
        assert cache.get(scenario) is None

    def test_replay_verify_catches_tampering(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        scenario = TestScenarioDigest.BASE
        cache.run(scenario)
        with open(cache.path(scenario)) as handle:
            doc = json.load(handle)
        doc["metrics"]["last_decision"] = 123456.0
        with open(cache.path(scenario), "w") as handle:
            json.dump(doc, handle)
        verifying = ResultCache(str(tmp_path), verify="replay")
        with pytest.raises(CacheVerificationError):
            verifying.get(scenario)

    def test_replay_verify_accepts_honest_entry(self, tmp_path):
        scenario = TestScenarioDigest.BASE
        ResultCache(str(tmp_path)).run(scenario)
        verifying = ResultCache(str(tmp_path), verify="replay")
        assert verifying.get(scenario) is not None

    def test_prune_evicts_lru(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        old = TestScenarioDigest.BASE
        new = old.override({"seed": 1})
        cache.run(old)
        cache.run(new)
        past = time.time() - 3600
        os.utime(cache.path(old), (past, past))
        # Room for exactly the newer entry: only the stale one goes.
        keep_bytes = os.path.getsize(cache.path(new))
        assert cache.prune(max_bytes=keep_bytes) == 1
        assert cache.get(old) is None
        assert cache.get(new) is not None

    def test_cached_run_without_cache(self):
        metrics = cached_run(TestScenarioDigest.BASE, None)
        assert metrics.correct

    def test_default_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("MACSIM_CACHE_DIR", "/tmp/somewhere")
        assert default_cache_dir() == "/tmp/somewhere"
        monkeypatch.delenv("MACSIM_CACHE_DIR")
        assert default_cache_dir() == ".macsim-cache"


# ----------------------------------------------------------------------
# Satellite 3: cached == fresh across trace levels and fault models
# ----------------------------------------------------------------------
def _property_scenario(trace_level, fault, n, seed):
    fault_spec = None
    if fault == "crash":
        fault_spec = FaultSpec("crash", node=0, time=1.0)
    elif fault == "omission":
        fault_spec = FaultSpec("omission", count=1, send=True,
                               receive=False)
    return Scenario(
        algorithm=AlgorithmSpec("wpaxos"),
        topology=TopologySpec("clique", n=n),
        scheduler=SchedulerSpec("synchronous", f_ack=1.0),
        fault=fault_spec,
        trace_level=trace_level,
        seed=seed,
        max_time=300.0)


class TestCachedEqualsFresh:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace_level=st.sampled_from(["full", "decisions", "columnar"]),
           fault=st.sampled_from([None, "crash", "omission"]),
           n=st.integers(min_value=4, max_value=7),
           seed=st.integers(min_value=0, max_value=3))
    def test_cache_roundtrip_preserves_metrics(
            self, tmp_path_factory, trace_level, fault, n, seed):
        scenario = _property_scenario(trace_level, fault, n, seed)
        directory = tmp_path_factory.mktemp("cache")
        cache = ResultCache(str(directory))
        fresh = cache.run(scenario)       # miss: runs + stores
        hit = ResultCache(str(directory)).get(scenario)
        assert hit == fresh
        # And the cached value round-trips through JSON losslessly.
        assert (json.dumps(hit.to_dict(), sort_keys=True)
                == json.dumps(fresh.to_dict(), sort_keys=True))


# ----------------------------------------------------------------------
# Cached grids: store-then-hit, resume, byte-identity
# ----------------------------------------------------------------------
class TestCachedGrid:
    def test_grid_stores_then_hits(self, tmp_path):
        grid = _grid()
        first_cache = ResultCache(str(tmp_path))
        first = grid.run(name="fabric", cache=first_cache,
                         workers=1)
        assert first_cache.stores == len(grid)
        second_cache = ResultCache(str(tmp_path))
        second = grid.run(name="fabric", cache=second_cache,
                          workers=1)
        assert second_cache.hits == len(grid)
        assert second_cache.misses == 0
        assert _points_json(first) == _points_json(second)

    def test_cached_equals_uncached(self, tmp_path):
        grid = _grid()
        plain = grid.run(name="fabric", workers=1)
        cached = grid.run(name="fabric", workers=1,
                          cache=ResultCache(str(tmp_path)))
        rehit = grid.run(name="fabric", workers=1,
                         cache=ResultCache(str(tmp_path)))
        assert _points_json(plain) == _points_json(cached)
        assert _points_json(plain) == _points_json(rehit)

    def test_partial_cache_resumes(self, tmp_path):
        # Simulate an interrupted sweep: only half the cells stored.
        grid = _grid()
        warm = ResultCache(str(tmp_path))
        scenarios = grid.scenarios()
        for scenario in scenarios[:3]:
            warm.run(scenario)
        resume = ResultCache(str(tmp_path))
        result = grid.run(name="fabric", cache=resume, workers=1)
        assert resume.hits == 3
        assert resume.misses == len(grid) - 3
        assert resume.stores == len(grid) - 3
        assert len(result.points) == len(grid)
        assert _points_json(result) == _points_json(
            grid.run(name="fabric", workers=1))

    def test_cached_parallel_grid(self, tmp_path):
        grid = _grid()
        cache = ResultCache(str(tmp_path))
        first = grid.run(name="fabric", cache=cache, workers=2)
        again = grid.run(name="fabric",
                         cache=ResultCache(str(tmp_path)), workers=2)
        assert _points_json(first) == _points_json(again)

    def test_cached_progress_reports_hits(self, tmp_path, capsys):
        grid = _grid((4, 5))
        grid.run(name="fabric", cache=ResultCache(str(tmp_path)),
                 workers=1)
        grid.run(name="fabric", cache=ResultCache(str(tmp_path)),
                 workers=1, progress=True)
        err = capsys.readouterr().err
        assert "(2 cached points reused)" in err
        assert "cache 2/2 hits, 0 misses [100%]" in err


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
class TestManifests:
    def test_block_roundtrip(self):
        block = ManifestBlock(
            "demo", TestScenarioDigest.BASE,
            axes={"topology.n": [4, 6]},
            zipped={"seed": [0, 1], "label": ["a", "b"]},
            note="hello")
        rebuilt = ManifestBlock.from_dict(
            json.loads(json.dumps(block.to_dict())))
        assert rebuilt == block
        assert rebuilt.cells() == 4

    def test_single_cell_block(self):
        block = ManifestBlock("solo", TestScenarioDigest.BASE)
        assert block.is_single()
        assert block.cells() == 1
        assert block.scenarios() == [TestScenarioDigest.BASE]
        with pytest.raises(ManifestError):
            block.grid()

    def test_every_driver_manifest_roundtrips(self):
        for experiment_id in manifest_drivers():
            manifest = load_manifest(experiment_id)
            assert manifest.experiment == experiment_id
            assert manifest.cells() > 0
            rebuilt = ExperimentManifest.from_json(manifest.to_json())
            assert rebuilt == manifest

    def test_unknown_manifest_id(self):
        with pytest.raises(ManifestError, match="no manifest source"):
            load_manifest("E99")
        # E4 is a driver, but not a manifest driver.
        with pytest.raises(ManifestError, match="no manifest source"):
            load_manifest("E4")

    def test_bad_schema_rejected(self):
        with pytest.raises(ManifestError, match="schema"):
            ExperimentManifest.from_json('{"schema": "manifest/v0"}')

    def test_write_manifests(self, tmp_path):
        paths = write_manifests(str(tmp_path), ids=["E9"])
        assert paths == [str(tmp_path / "e9.manifest.json")]
        manifest = ExperimentManifest.from_file(paths[0])
        assert manifest.experiment == "E9"

    def test_regenerate_deterministic_and_cached(self, tmp_path):
        manifest = ExperimentManifest(
            experiment="T", title="tiny",
            blocks=[
                ManifestBlock("grid", TestScenarioDigest.BASE,
                              axes={"topology.n": [4, 6]}),
                ManifestBlock("solo", TestScenarioDigest.BASE),
            ])
        first_cache = ResultCache(str(tmp_path))
        first = regenerate(manifest, cache=first_cache, workers=1)
        second_cache = ResultCache(str(tmp_path))
        second = regenerate(manifest, cache=second_cache,
                            workers=1)
        assert first == second
        assert second_cache.misses == 0
        assert second_cache.hits == 3
        # Cross-block dedup: the solo cell equals the grid's n=6 cell,
        # so the first pass already served it from the cache.
        assert first_cache.hits == 1
        assert first_cache.misses == 2
        assert "=== T: tiny (3 cells) ===" in first

    def test_shipped_manifests_are_what_the_exporter_writes(
            self, tmp_path):
        """The smoke manifest CI regenerates is in export form and at
        the table level; so is every driver's ``--write-manifests``
        file."""
        shipped = os.path.join(os.path.dirname(__file__), os.pardir,
                               "examples", "regen_smoke.manifest.json")
        paths = [shipped] + write_manifests(str(tmp_path))
        assert len(paths) == 1 + len(manifest_drivers())
        for path, source in zip(paths[1:], manifest_drivers()):
            assert (ExperimentManifest.from_file(path)
                    == load_manifest(source))
        for path in paths:
            manifest = ExperimentManifest.from_file(path)
            with open(path, encoding="utf-8") as handle:
                assert handle.read() == manifest.to_json() + "\n"
            assert {block.base.trace_level
                    for block in manifest.blocks} == {"decisions"}


# ----------------------------------------------------------------------
# One steal pool per experiment
# ----------------------------------------------------------------------
class TestExperimentRun:
    BASE = TestScenarioDigest.BASE

    def _manifest(self):
        return ExperimentManifest(
            experiment="T", title="tiny",
            blocks=[
                ManifestBlock("grid", self.BASE,
                              axes={"topology.n": [4, 5, 6, 7]}),
                ManifestBlock("seeds", self.BASE,
                              axes={"seed": [1, 2, 3]}),
                ManifestBlock("solo", self.BASE.override(seed=9)),
            ])

    def test_cold_run_is_one_miss_and_one_store_per_cell(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        stats = []
        results = self._manifest().run(cache=cache, workers=2,
                                       block_stats=stats)
        assert (cache.hits, cache.misses, cache.stores) == (0, 8, 8)
        assert list(results) == ["grid", "seeds", "solo"]
        assert [p.key for p in results["grid"].points] == [4, 5, 6, 7]
        assert [p.x for p in results["seeds"].points] == [1.0, 2.0, 3.0]
        assert results["solo"].points[0].key is None
        assert [(s["block"], s["cells"], s["hits"], s["misses"],
                 s["stragglers"]) for s in stats] == [
            ("grid", 4, 0, 4, []), ("seeds", 3, 0, 3, []),
            ("solo", 1, 0, 1, [])]
        warm, again = ResultCache(str(tmp_path)), []
        rerun = self._manifest().run(cache=warm, workers=2,
                                     block_stats=again)
        assert (warm.hits, warm.misses, warm.stores) == (8, 0, 0)
        assert [(s["hits"], s["misses"]) for s in again] \
            == [(4, 0), (3, 0), (1, 0)]
        assert {name: _points_json(result)
                for name, result in rerun.items()} \
            == {name: _points_json(result)
                for name, result in results.items()}

    def test_all_blocks_share_one_pool(self, monkeypatch):
        from repro.analysis import sweeps
        pools = []
        fork_map = sweeps.fork_map
        monkeypatch.setattr(
            sweeps, "fork_map",
            lambda task, items, **kwargs: (
                pools.append(len(items)),
                fork_map(task, items, **kwargs))[1])
        results = self._manifest().run(workers=2)
        assert pools == [8]
        serial = self._manifest().run(workers=1)
        assert {name: _points_json(result)
                for name, result in results.items()} \
            == {name: _points_json(result)
                for name, result in serial.items()}

    def test_cells_run_under_their_own_limits_and_level(
            self, monkeypatch):
        """``max_events``/``max_time``/``trace_level`` are the cell's:
        two blocks of one pool can disagree."""
        from repro.analysis import runner
        levels = []
        make_sink = runner.make_sink
        monkeypatch.setattr(
            runner, "make_sink",
            lambda level: (levels.append(level), make_sink(level))[1])
        results = ExperimentManifest(
            experiment="T", blocks=[
                ManifestBlock("capped", self.BASE.override(
                    max_events=10, trace_level="decisions")),
                ManifestBlock("free", self.BASE),
            ]).run(workers=1)
        assert levels == ["decisions", "full"]
        assert results["capped"].points[0].metrics.events == 10
        assert not results["capped"].points[0].metrics.termination
        assert results["free"].points[0].metrics.termination

    def test_metrics_carry_the_scenarios_algorithm_name(self):
        results = self._manifest().run(workers=1)
        assert {p.metrics.algorithm for r in results.values()
                for p in r.points} == {"wpaxos"}

    def test_repeated_block_name_rejected(self):
        manifest = ExperimentManifest(
            experiment="T", blocks=[ManifestBlock("a", self.BASE),
                                    ManifestBlock("a", self.BASE)])
        with pytest.raises(ManifestError, match="repeats a block name"):
            manifest.run(workers=1)

    @pytest.mark.parametrize("knob, value", [("parallel", False),
                                             ("executor", "serial")])
    def test_workers_is_the_only_knob(self, knob, value):
        with pytest.raises(TypeError):
            self._manifest().run(**{knob: value})
        with pytest.raises(TypeError):
            _grid((4, 5)).run(name="fabric", **{knob: value})


# ----------------------------------------------------------------------
# Satellite 5 counterpart: the CLI regen path
# ----------------------------------------------------------------------
class TestRegenCLI:
    MANIFEST = {
        "schema": "manifest/v1",
        "experiment": "SMOKE",
        "title": "cli regen test",
        "blocks": [{
            "name": "tiny",
            "base": TestScenarioDigest.BASE.to_dict(),
            "axes": {"topology.n": [4, 6]},
        }],
    }

    def test_regen_twice_hits_cache(self, tmp_path, capsys):
        manifest_path = tmp_path / "smoke.manifest.json"
        manifest_path.write_text(json.dumps(self.MANIFEST))
        cache_dir = str(tmp_path / "cache")
        argv = ["regen", "--manifest", str(manifest_path),
                "--cache", cache_dir, "--workers", "1"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        strip = lambda text: "\n".join(
            line for line in text.splitlines()
            if not line.startswith("cache:"))
        assert strip(first) == strip(second)
        assert "0 misses (100.0% hit rate)" in second

    def test_regen_serial_equals_parallel(self, tmp_path, capsys):
        manifest_path = tmp_path / "smoke.manifest.json"
        manifest_path.write_text(json.dumps(self.MANIFEST))
        tables = []
        for workers in ("2", "1"):
            assert cli_main(["regen", "--manifest", str(manifest_path),
                             "--cache", str(tmp_path / "cache"),
                             "--fresh", "--workers", workers]) == 0
            tables.append("\n".join(
                line for line in capsys.readouterr().out.splitlines()
                if not line.startswith(("cache:", "stragglers:"))))
        assert tables[0] == tables[1]

    def test_regen_unknown_id_fails(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["regen", "E99"])

    def test_write_manifests_flag(self, tmp_path, capsys):
        out_dir = str(tmp_path / "manifests")
        assert cli_main(["regen", "--write-manifests", out_dir,
                         "E9"]) == 0
        assert os.path.exists(
            os.path.join(out_dir, "e9.manifest.json"))
