"""Scenario-native experiment manifests.

The E-drivers' report tables are built from *row blocks*: one base
:class:`~repro.scenario.Scenario` plus axes swept over it (a
:class:`~repro.scenario.ScenarioGrid`) or a single hand-built cell.
:class:`ManifestBlock` / :class:`ExperimentManifest` make that
structure a JSON document (schema ``manifest/v1``), so an experiment's
entire cell population can be written to a file, diffed, regenerated
from the :class:`~repro.analysis.cache.ResultCache`, resumed after an
interruption (every completed cell is already on disk) and re-run only
where a scenario or the cache salt changed.

A manifest driver is an E-driver whose module defines ``manifest()``
(:func:`is_manifest_driver`): it declares its blocks once there, and
its ``run()`` executes that manifest (:meth:`ExperimentManifest.run`)
-- so ``repro regen E9`` and ``repro regen --manifest
e9.manifest.json`` share cache entries cell for cell.

:func:`regenerate` renders a deterministic per-block table (no
timings, no environment) -- two regenerations from the same cells are
byte-identical, which CI's ``regen-smoke`` job pins.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..scenario import (Scenario, ScenarioError, ScenarioGrid,
                        _from_jsonable, _jsonable)
from .tables import format_table

if TYPE_CHECKING:
    from .cache import ResultCache
    from .sweeps import SweepResult

MANIFEST_SCHEMA = "manifest/v1"

class ManifestError(ScenarioError):
    """A manifest document could not be parsed or executed."""


def _axes_jsonable(axes: Dict[str, List[Any]]) -> Dict[str, Any]:
    # Manifests are JSON documents: tuples flatten to lists here (grid
    # axis values are scalars or Specs throughout the repo).
    return {path: [_jsonable(v) for v in values]
            for path, values in axes.items()}


def _axes_from_jsonable(raw: Any, where: str) -> Dict[str, List[Any]]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ManifestError(f"{where} must be an object of "
                            f"path -> value list, got {raw!r}")
    out: Dict[str, List[Any]] = {}
    for path, values in raw.items():
        if not isinstance(values, list):
            raise ManifestError(
                f"{where}[{path!r}] must be a list, got {values!r}")
        out[path] = [_from_jsonable(v) for v in values]
    return out


@dataclass
class ManifestBlock:
    """One row block: a base scenario plus swept axes.

    Empty ``axes`` and ``zipped`` describe a single hand-built cell
    (E1's staggered-start run, E13's waypoint run). Otherwise the
    block denotes ``base.grid(axes, zipped=zipped)``.
    """

    name: str
    base: Scenario
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    zipped: Dict[str, List[Any]] = field(default_factory=dict)
    note: str = ""

    def is_single(self) -> bool:
        return not self.axes and not self.zipped

    def grid(self) -> ScenarioGrid:
        if self.is_single():
            raise ManifestError(
                f"block {self.name!r} is a single cell, not a grid")
        return self.base.grid(self.axes or None,
                              zipped=self.zipped or None)

    def cells(self) -> int:
        return 1 if self.is_single() else len(self.grid())

    def scenarios(self) -> List[Scenario]:
        return [scenario for scenario, _, _ in self.sweep_cells()]

    def sweep_cells(self) -> List[tuple]:
        """``(scenario, x, key)`` per cell; a single cell has no key."""
        if self.is_single():
            return [(self.base, 0.0, None)]
        return self.grid().sweep_cells()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "base": self.base.to_dict(),
        }
        if self.axes:
            out["axes"] = _axes_jsonable(self.axes)
        if self.zipped:
            out["zipped"] = _axes_jsonable(self.zipped)
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "ManifestBlock":
        if not isinstance(data, dict) or "base" not in data:
            raise ManifestError(f"not a manifest block: {data!r}")
        name = data.get("name")
        if not name:
            raise ManifestError("manifest block is missing 'name'")
        return cls(
            name=str(name),
            base=Scenario.from_dict(data["base"]),
            axes=_axes_from_jsonable(data.get("axes"), "axes"),
            zipped=_axes_from_jsonable(data.get("zipped"), "zipped"),
            note=str(data.get("note", "")),
        )


@dataclass
class ExperimentManifest:
    """An experiment's full cell population, as a JSON document."""

    experiment: str
    title: str = ""
    blocks: List[ManifestBlock] = field(default_factory=list)

    def cells(self) -> int:
        return sum(block.cells() for block in self.blocks)

    def run(self, *, cache: Optional[ResultCache] = None,
            workers: Optional[int] = None,
            progress: Optional[bool] = None,
            block_stats: Optional[List[Dict[str, Any]]] = None
            ) -> Dict[str, SweepResult]:
        """Execute (or serve from ``cache``) every cell of the
        experiment; returns ``{block name: SweepResult}``.

        The one way scenario cells run (``ScenarioGrid.run`` is a
        one-block experiment): the cache-missing cells of *all* blocks
        share one :func:`~repro.analysis.sweeps.parallel_sweep` pool of
        ``workers`` processes (``workers=1``: in process), so an
        experiment pays one fork/join and waits once, on its largest
        cell. Each cell runs exactly as ``scenario.run()`` would --
        limits, trace level and ``check_invariants`` are its own.

        ``cache`` serves cells whose scenario digest is stored and
        persists fresh cells *as they complete*, so an interrupted run
        resumes where it stopped; a cell equal to an earlier missing
        one is read back once the pool has stored the first. Metrics
        are *canonical* (``algorithm`` is the scenario's algorithm
        name), so entries are shared with ``cached_run`` and
        ``verify="replay"``. ``block_stats``, when a list and a cache
        is in use, collects one dict per block (``experiment`` /
        ``block`` / ``cells`` / ``hits`` / ``misses`` / ``stragglers``,
        the last flagged against the whole pool's runtimes).
        """
        from .sweeps import (SweepPoint, SweepProgress, SweepResult,
                             _progress_enabled, parallel_sweep)
        cells = [(block.name, scenario, x, key) for block in self.blocks
                 for scenario, x, key in block.sweep_cells()]
        points: List[Optional[SweepPoint]] = [None] * len(cells)
        hits = {block.name: 0 for block in self.blocks}
        if len(hits) != len(self.blocks):
            raise ManifestError(
                f"manifest {self.experiment!r} repeats a block name")

        def place(slot: int, metrics) -> None:
            _, _, x, key = cells[slot]
            points[slot] = SweepPoint(x=x, metrics=metrics, key=key)

        misses: List[int] = []
        repeats: List[int] = []
        pending: set = set()
        for slot, (name, scenario, _, _) in enumerate(cells):
            if cache is None:
                misses.append(slot)
            elif scenario in pending:
                repeats.append(slot)
            else:
                metrics = cache.get(scenario)
                if metrics is None:
                    pending.add(scenario)
                    misses.append(slot)
                else:
                    hits[name] += 1
                    place(slot, metrics)
        reporter = (SweepProgress(self.experiment, len(cells))
                    if _progress_enabled(progress) else None)
        if reporter is not None and cache is not None:
            reporter.note_cached(len(cells) - len(misses) - len(repeats))
            reporter.cache_misses = len(misses)

        # Resolving imports the classes a scenario names: one missing
        # cell per distinct set of spec names resolves here, so every
        # forked worker inherits those modules instead of compiling
        # its own copy. A dynamic cell also reports its connectivity
        # (``run_consensus``), and a cell tracing MAC rows builds a
        # ``ColumnarSink``, so each primes that module too.
        primed = set()
        for slot in misses:
            scenario = cells[slot][1]
            names = tuple(getattr(getattr(scenario, axis), "name", None)
                          for axis in ("algorithm", "scheduler", "fault",
                                       "overlay", "dynamics"))
            if names not in primed:
                primed.add(names)
                scenario.resolve()
                if scenario.dynamics is not None:
                    importlib.import_module(
                        "repro.macsim.dynamics.connectivity")
            if scenario.trace_level != "decisions":
                importlib.import_module("repro.macsim.columnar")

        def build(pool_key: tuple) -> Dict[str, Any]:
            _, scenario, x, _ = cells[pool_key[0]]
            return dict(scenario.run_kwargs(), x=x)

        def on_point(point: SweepPoint) -> None:
            slot = point.key[0]
            if cache is not None:
                cache.put(cells[slot][1], point.metrics)
            place(slot, point.metrics)

        # Pool keys are (slot, block, cell key): the slot finds the
        # cell, the rest is what heartbeats and stragglers show.
        fresh = parallel_sweep(
            self.experiment,
            [(slot, cells[slot][0], cells[slot][3]) for slot in misses],
            build, workers=workers, reporter=reporter, on_point=on_point)
        for slot in repeats:
            before = cache.hits
            place(slot, cache.run(cells[slot][1]))
            hits[cells[slot][0]] += cache.hits - before
        stats = fresh.executor_stats
        if reporter is not None:
            reporter.note_cached(len(repeats))
            reporter.finish(worker_stats=(stats or {}).get("per_worker"))

        results = {name: SweepResult(name=name) for name in hits}
        for (name, _, _, _), point in zip(cells, points):
            results[name].points.append(point)
        for name, result in results.items():
            slow = [key for _, owner, key in
                    (stats or {}).get("stragglers", ()) if owner == name]
            if stats is not None:
                result.executor_stats = dict(stats, stragglers=slow)
            if block_stats is not None and cache is not None:
                total = len(result.points)
                block_stats.append({
                    "experiment": self.experiment, "block": name,
                    "cells": total, "hits": hits[name],
                    "misses": total - hits[name], "stragglers": slow})
        return results

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "experiment": self.experiment,
            "title": self.title,
            "blocks": [block.to_dict() for block in self.blocks],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "ExperimentManifest":
        if not isinstance(data, dict):
            raise ManifestError(f"not a manifest dict: {data!r}")
        schema = data.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise ManifestError(
                f"unsupported manifest schema {schema!r} "
                f"(expected {MANIFEST_SCHEMA!r})")
        return cls(
            experiment=str(data.get("experiment", "")),
            title=str(data.get("title", "")),
            blocks=[ManifestBlock.from_dict(raw)
                    for raw in data.get("blocks", [])],
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentManifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(
                f"invalid manifest JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentManifest":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")


def is_manifest_driver(module: Any) -> bool:
    """Whether an experiment module is a manifest driver: the one
    place that rule is written (``repro regen``, :func:`load_manifest`
    and :func:`write_manifests` all ask here)."""
    return hasattr(module, "manifest")


def manifest_drivers(ids: Optional[List[str]] = None) -> Dict[str, Any]:
    """Id -> module of each manifest driver among ``ids`` (default:
    every driver in ``EXPERIMENTS``, each imported to ask); a named id
    that is not one raises :class:`ManifestError`."""
    from ..experiments import EXPERIMENTS
    drivers = {}
    for experiment_id in (i.upper() for i in ids or EXPERIMENTS):
        name = EXPERIMENTS.get(experiment_id)
        module = importlib.import_module(name) if name else None
        if is_manifest_driver(module):
            drivers[experiment_id] = module
        elif ids:
            raise ManifestError(
                f"no manifest source for {experiment_id!r}: a manifest "
                f"driver is an experiment module defining manifest()")
    return drivers


def load_manifest(experiment_id: str) -> ExperimentManifest:
    """The manifest a manifest driver exports."""
    (driver,) = manifest_drivers([experiment_id]).values()
    return driver.manifest()


def write_manifests(directory: str,
                    ids: Optional[List[str]] = None) -> List[str]:
    """Write one ``<id>.manifest.json`` per manifest driver."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for driver in manifest_drivers(ids).values():
        manifest = driver.manifest()
        path = os.path.join(
            directory, f"{manifest.experiment.lower()}.manifest.json")
        manifest.dump(path)
        paths.append(path)
    return paths


def block_table(block: ManifestBlock,
                result: SweepResult) -> tuple:
    """Deterministic (headers, rows) for one regenerated block."""
    headers = ["cell", "x", "correct", "agree", "valid", "term",
               "decision time", "events"]
    rows = []
    for point in result.points:
        metrics = point.metrics
        label = "-" if point.key is None else repr(point.key)
        rows.append([
            label, point.x, metrics.correct, metrics.agreement,
            metrics.validity, metrics.termination,
            metrics.last_decision, metrics.events])
    return headers, rows


def regenerate(manifest: ExperimentManifest, **run_options: Any) -> str:
    """Regenerate every block table; deterministic text output.

    ``run_options`` go to :meth:`ExperimentManifest.run`: cache hits
    skip execution, fresh cells are persisted as they complete.
    Accounting (``block_stats``) lives with the caller, not in the
    returned text, so two regenerations from the same cells stay
    byte-identical (the CI regen-smoke pin).
    """
    parts = [f"=== {manifest.experiment}: {manifest.title} "
             f"({manifest.cells()} cells) ==="]
    results = manifest.run(**run_options)
    for block in manifest.blocks:
        headers, rows = block_table(block, results[block.name])
        title = block.name if not block.note else (
            f"{block.name} -- {block.note}")
        parts.append(format_table(headers, rows, title=title))
    return "\n\n".join(parts)
