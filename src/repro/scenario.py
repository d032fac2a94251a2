"""Declarative, serializable consensus run descriptions.

Every experiment in this repo is "one algorithm x one topology x one
scheduler x one adversary", but the codebase historically spelled that
product four different ways: ``run_consensus``'s kwarg list, the CLI's
hand-rolled parsers, each E-driver's bespoke factory wiring, and the
export layer's ad-hoc metadata. A :class:`Scenario` is the single
declarative form: a frozen, JSON-round-trippable description that can
be **named** (specs), **built** (resolved through the
:mod:`repro.registry` registries), **run** (wrapping
:func:`repro.analysis.runner.run_consensus`), **swept**
(:meth:`Scenario.grid` feeding ``sweep``/``parallel_sweep``) and
**replayed** (embedded in trace exports)::

    from repro.scenario import (AlgorithmSpec, FaultSpec, Scenario,
                                SchedulerSpec, TopologySpec)

    scenario = Scenario(
        algorithm=AlgorithmSpec("wpaxos"),
        topology=TopologySpec("grid", rows=4, cols=6),
        scheduler=SchedulerSpec("random", f_ack=2.0),
        fault=FaultSpec("crash", node=3, time=1.5),
        seed=7)
    metrics = scenario.run()                 # one execution
    text = scenario.to_json()                # lossless round trip
    assert Scenario.from_json(text) == scenario

    series = scenario.grid({"topology.cols": [4, 6, 8],
                            "seed": range(5)}).run()   # (x, seed) keys

Resolution is **pure**: specs hold only JSON-serializable parameters,
and every stateful object (graphs, scheduler RNGs, fault-model RNGs)
is built fresh per run, so a scenario executed twice -- or loaded back
from a trace file and executed on another machine -- produces
byte-identical FULL traces.

The registries (``@register_algorithm`` / ``@register_topology`` /
``@register_scheduler`` / ``@register_fault_model``, plus overlays and
initial-value assignments) are documented in :mod:`repro.registry`;
the built-in catalogue is registered at the bottom of this module and
matches the legacy CLI factories parameter for parameter.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from .registry import (ALGORITHMS, DYNAMICS, FAULT_MODELS, OVERLAYS,
                       SCHEDULERS, TOPOLOGIES, VALUES, UnknownNameError,
                       register_algorithm, register_dynamics,
                       register_fault_model, register_overlay,
                       register_scheduler, register_topology,
                       register_values)


class ScenarioError(ValueError):
    """An invalid scenario: unknown names, bad params, wrong shapes."""


# ---------------------------------------------------------------------------
# Specs: one named, parameterized axis of a scenario
# ---------------------------------------------------------------------------

_SCALARS = (int, float, str, bool, type(None))


def _normalize(value: Any, where: str) -> Any:
    """Coerce ``value`` into the JSON-stable subset specs may hold.

    Tuples become lists (what JSON would do anyway) so that equality
    survives a dump/load cycle; nested specs pass through.
    """
    if isinstance(value, Spec):
        return value
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_normalize(v, where) for v in value]
    if isinstance(value, (dict,)):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise ScenarioError(
                    f"{where}: dict params need string keys to survive "
                    f"JSON, got key {k!r}")
            out[k] = _normalize(v, where)
        return out
    if isinstance(value, range):
        return [int(v) for v in value]
    raise ScenarioError(
        f"{where}: param value {value!r} is not JSON-serializable "
        f"(allowed: int/float/str/bool/None, lists, string-keyed "
        f"dicts, nested specs)")


def _freeze(value: Any) -> Any:
    """A hashable mirror of a normalized param value (or sweep key)."""
    if isinstance(value, Spec):
        return (value.kind, value.name, _freeze(dict(value.params)))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def _jsonable(value: Any) -> Any:
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, dict) and "__spec__" in value:
        cls = _SPEC_CLASSES.get(value["__spec__"])
        if cls is None:
            raise ScenarioError(f"unknown spec kind {value['__spec__']!r}")
        return cls.from_dict(value)
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _from_jsonable(v) for k, v in value.items()}
    return value


class Spec:
    """One named axis choice plus its JSON-serializable parameters.

    Immutable; equality and hashing cover the subclass, name and
    params, so specs can be dict keys and scenario equality is
    structural.
    """

    kind = "spec"
    registry = None  # set by subclasses

    __slots__ = ("_name", "_params")

    def __init__(self, name: str, **params: Any) -> None:
        object.__setattr__(self, "_name", str(name))
        object.__setattr__(
            self, "_params",
            {k: _normalize(v, f"{type(self).__name__}({name!r})")
             for k, v in params.items()})

    # -- immutability ----------------------------------------------------
    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen")

    # -- pickling (slots + frozen need explicit state handling; sweep
    # keys holding specs cross process boundaries in parallel grids) --
    def __getstate__(self):
        return (self._name, self._params)

    def __setstate__(self, state) -> None:
        name, params = state
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_params", params)

    # -- accessors -------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def params(self) -> Mapping[str, Any]:
        return dict(self._params)

    def with_params(self, **updates: Any) -> "Spec":
        """A copy with the given params replaced/added."""
        merged = dict(self._params)
        merged.update(updates)
        return type(self)(self._name, **merged)

    # -- identity --------------------------------------------------------
    def __eq__(self, other: Any) -> bool:
        return (type(self) is type(other)
                and self._name == other._name
                and self._params == other._params)

    def __hash__(self) -> int:
        return hash((type(self), self._name, _freeze(dict(self._params))))

    def __repr__(self) -> str:
        args = "".join(f", {k}={v!r}" for k, v in self._params.items())
        return f"{type(self).__name__}({self._name!r}{args})"

    def describe(self) -> str:
        """Compact human label, e.g. ``grid(rows=4, cols=6)``."""
        if not self._params:
            return self._name
        inner = ", ".join(f"{k}={v!r}" if not isinstance(v, Spec)
                          else f"{k}={v.describe()}"
                          for k, v in self._params.items())
        return f"{self._name}({inner})"

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"__spec__": self.kind, "name": self._name,
                "params": {k: _jsonable(v)
                           for k, v in self._params.items()}}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Spec":
        if not isinstance(data, Mapping) or "name" not in data:
            raise ScenarioError(
                f"not a {cls.__name__} dict: {data!r}")
        params = {k: _from_jsonable(v)
                  for k, v in (data.get("params") or {}).items()}
        return cls(data["name"], **params)

    # -- resolution ------------------------------------------------------
    def builder(self) -> Callable:
        """This spec's registered builder (raises on unknown names)."""
        return self.registry.get(self._name)


class TopologySpec(Spec):
    """A named topology, e.g. ``TopologySpec("grid", rows=4, cols=6)``."""

    kind = "topology"
    registry = TOPOLOGIES

    def build(self):
        """Construct the graph."""
        return self.builder()(**self.params)


class SchedulerSpec(Spec):
    """A named scheduler; params may nest another :class:`SchedulerSpec`
    (wrapper schedulers take ``inner=...``)."""

    kind = "scheduler"
    registry = SCHEDULERS

    def build(self, seed: int = 0):
        """Construct the scheduler, injecting ``seed`` where accepted.

        A builder with a ``seed`` parameter that the spec does not pin
        receives the scenario seed; nested scheduler specs resolve
        recursively under the same rule.
        """
        builder = self.builder()
        params = {k: (v.build(seed) if isinstance(v, SchedulerSpec) else v)
                  for k, v in self.params.items()}
        return _call_seeded(builder, params, seed)


class AlgorithmSpec(Spec):
    """A named algorithm; ``build`` returns a ``(label, value) ->
    process`` factory."""

    kind = "algorithm"
    registry = ALGORITHMS

    def build(self, graph, seed: int = 0):
        return self.builder()(graph, seed, **self.params)


class FaultSpec(Spec):
    """A named fault model (crash / omission / byzantine / custom)."""

    kind = "fault"
    registry = FAULT_MODELS

    def build(self, graph, seed: int = 0):
        return self.builder()(graph, seed, **self.params)


class OverlaySpec(Spec):
    """A named unreliable-link overlay for the dual-graph model."""

    kind = "overlay"
    registry = OVERLAYS

    def build(self, graph, seed: int = 0):
        return _call_seeded(self.builder(), dict(self.params), seed, graph)


class DynamicsSpec(Spec):
    """A named topology-dynamics model (churn / mobility / scripted)."""

    kind = "dynamics"
    registry = DYNAMICS

    def build(self, graph, seed: int = 0):
        return self.builder()(graph, seed, **self.params)


_SPEC_CLASSES = {cls.kind: cls for cls in
                 (TopologySpec, SchedulerSpec, AlgorithmSpec, FaultSpec,
                  OverlaySpec, DynamicsSpec)}


def _call_seeded(builder: Callable, params: Dict[str, Any], seed: int,
                 *args: Any):
    """Call ``builder(*args, **params)``, injecting ``seed=seed`` when
    the builder accepts one and the params do not pin it."""
    if "seed" not in params:
        try:
            accepts_seed = "seed" in inspect.signature(builder).parameters
        except (TypeError, ValueError):  # builtins without signatures
            accepts_seed = False
        if accepts_seed:
            params = dict(params, seed=seed)
    return builder(*args, **params)


# ---------------------------------------------------------------------------
# Scenario: the full run description
# ---------------------------------------------------------------------------

@dataclass
class ResolvedScenario:
    """A scenario's stateful ingredients, built fresh and ready to run."""

    scenario: "Scenario"
    graph: Any
    scheduler: Any
    factory: Callable[[Any, int], Any]
    initial_values: Dict[Any, int]
    fault_model: Any = None
    unreliable_graph: Any = None
    dynamics: Any = None

    def build(self, *, trace_sink=None, telemetry=None):
        """Construct (but do not run) the scenario's simulator.

        This is the per-group half of the engine API: everything that
        belongs to one consensus instance -- graph, processes, queue,
        trace sink, telemetry -- lives on the returned
        :class:`~repro.macsim.simulator.Simulator`, while *when* it
        runs is the caller's business. ``simulate()`` drives it to
        completion in one call; the multi-group service runtime builds
        each group's long-lived replicated log through it and resumes
        it once per slot.

        ``telemetry`` (a bool or a
        :class:`~repro.macsim.telemetry.Telemetry` to keep a handle
        on) defaults to the scenario's ``telemetry`` field."""
        from .macsim import build_simulation
        scenario = self.scenario
        values = self.initial_values
        factory = self.factory
        if telemetry is None:
            telemetry = scenario.telemetry
        return build_simulation(
            self.graph, lambda v: factory(v, values[v]), self.scheduler,
            fault_model=self.fault_model,
            unreliable_graph=self.unreliable_graph,
            dynamics=self.dynamics,
            trace_level=scenario.trace_level, trace_sink=trace_sink,
            telemetry=telemetry)

    def simulate(self, *, trace_sink=None, telemetry=None):
        """Run the simulation and return the raw
        :class:`~repro.macsim.simulator.RunResult` (trace included,
        closed). This is the byte-identity/replay entry point; use
        :meth:`Scenario.run` when you want metrics."""
        scenario = self.scenario
        sim = self.build(trace_sink=trace_sink, telemetry=telemetry)
        result = sim.run(max_events=scenario.max_events,
                         max_time=scenario.max_time)
        result.trace.close()
        return result


def _resolve_seeded(scenario: "Scenario", graph: Any,
                    initial_values: Dict[Any, int]) -> ResolvedScenario:
    """Build what ``scenario.seed`` feeds, over a given graph."""
    seed = scenario.seed
    fault, overlay, dynamics = (scenario.fault, scenario.overlay,
                                scenario.dynamics)
    return ResolvedScenario(
        scenario=scenario,
        graph=graph,
        scheduler=scenario.scheduler.build(seed),
        factory=scenario.algorithm.build(graph, seed),
        initial_values=initial_values,
        fault_model=(fault.build(graph, seed)
                     if fault is not None else None),
        unreliable_graph=(overlay.build(graph, seed)
                          if overlay is not None else None),
        dynamics=(dynamics.build(graph, seed)
                  if dynamics is not None else None),
    )


@dataclass(frozen=True)
class Scenario:
    """A complete, serializable description of one consensus run.

    Frozen and structurally comparable:
    ``Scenario.from_dict(s.to_dict()) == s`` holds losslessly (the
    round-trip property test pins it). ``seed`` feeds the algorithm's
    per-process RNGs, any scheduler/overlay builder that accepts a
    seed the spec does not pin, and the fault model's plan seeds --
    one knob reseeds the whole run.
    """

    algorithm: AlgorithmSpec
    topology: TopologySpec
    scheduler: SchedulerSpec = field(
        default_factory=lambda: SchedulerSpec("synchronous"))
    fault: Optional[FaultSpec] = None
    overlay: Optional[OverlaySpec] = None
    #: Optional time-varying topology model (churn/mobility/scripted).
    dynamics: Optional[DynamicsSpec] = None
    #: Registered initial-value assignment name (see ``register_values``).
    values: str = "alternating"
    seed: int = 0
    trace_level: str = "full"
    max_events: int = 20_000_000
    max_time: Optional[float] = None
    check_invariants: bool = True
    #: Optional display label (lands in ``RunMetrics.topology``);
    #: defaults to ``topology.describe()``.
    label: Optional[str] = None
    #: Opt-in run telemetry (engine counters, empirical F_ack/F_prog
    #: spans, phase profile); the snapshot lands in
    #: ``RunMetrics.extras["telemetry"]``. Never perturbs the trace.
    telemetry: bool = False

    def __post_init__(self) -> None:
        for name, cls in (("algorithm", AlgorithmSpec),
                          ("topology", TopologySpec),
                          ("scheduler", SchedulerSpec)):
            if not isinstance(getattr(self, name), cls):
                raise ScenarioError(
                    f"Scenario.{name} must be a {cls.__name__}, got "
                    f"{getattr(self, name)!r}")
        for name, cls in (("fault", FaultSpec), ("overlay", OverlaySpec),
                          ("dynamics", DynamicsSpec)):
            value = getattr(self, name)
            if value is not None and not isinstance(value, cls):
                raise ScenarioError(
                    f"Scenario.{name} must be a {cls.__name__} or None, "
                    f"got {value!r}")
        from .macsim.trace import TraceLevel
        object.__setattr__(self, "trace_level",
                           TraceLevel(self.trace_level).value)

    # -- building and running -------------------------------------------
    def resolve(self) -> ResolvedScenario:
        """Build every stateful ingredient, fresh for this call."""
        graph = self.topology.build()
        return _resolve_seeded(self, graph,
                               VALUES.get(self.values)(graph))

    def run_kwargs(self) -> Dict[str, Any]:
        """The exact :func:`~repro.analysis.runner.run_consensus`
        keyword arguments this scenario denotes."""
        resolved = self.resolve()
        out: Dict[str, Any] = dict(
            algorithm=self.algorithm.name,
            topology=self.display_label(),
            graph=resolved.graph,
            scheduler=resolved.scheduler,
            factory=resolved.factory,
            initial_values=resolved.initial_values,
            check_invariants=self.check_invariants,
            max_events=self.max_events,
            max_time=self.max_time,
            trace_level=self.trace_level,
        )
        if resolved.fault_model is not None:
            out["fault_model"] = resolved.fault_model
        if resolved.unreliable_graph is not None:
            out["unreliable_graph"] = resolved.unreliable_graph
        if resolved.dynamics is not None:
            out["dynamics"] = resolved.dynamics
        return out

    def run(self, *, trace_sink=None, probe=None, telemetry=None):
        """Execute once and return
        :class:`~repro.analysis.metrics.RunMetrics` -- exactly what
        the equivalent ``run_consensus`` call returns (the A/B tests
        pin byte-identical traces). ``telemetry`` overrides the
        scenario's ``telemetry`` field (bool or a
        :class:`~repro.macsim.telemetry.Telemetry` instance)."""
        from .analysis.runner import run_consensus
        if telemetry is None:
            telemetry = self.telemetry
        return run_consensus(trace_sink=trace_sink, probe=probe,
                             telemetry=telemetry, **self.run_kwargs())

    def simulate(self, *, trace_sink=None):
        """Execute once and return the raw run result (with trace)."""
        return self.resolve().simulate(trace_sink=trace_sink)

    def display_label(self) -> str:
        return self.label if self.label else self.topology.describe()

    # -- derivation ------------------------------------------------------
    def override(self, changes: Optional[Mapping[str, Any]] = None,
                 **kw: Any) -> "Scenario":
        """A copy with dotted-path overrides applied.

        Paths address scenario fields and spec params:
        ``{"seed": 3, "topology.n": 16, "scheduler.inner.f_ack": 2.0}``.
        Keyword form uses ``__`` for dots: ``override(topology__n=16)``.
        """
        merged: Dict[str, Any] = {}
        if changes:
            merged.update(changes)
        for key, value in kw.items():
            merged[key.replace("__", ".")] = value
        scenario = self
        for path, value in merged.items():
            scenario = scenario._apply(path, value)
        return scenario

    def _apply(self, path: str, value: Any) -> "Scenario":
        head, _, rest = path.partition(".")
        if head not in _SCENARIO_FIELDS:
            raise ScenarioError(
                f"unknown scenario field {head!r} in override path "
                f"{path!r}; fields: {', '.join(sorted(_SCENARIO_FIELDS))}")
        if not rest:
            return replace(self, **{head: value})
        current = getattr(self, head)
        if not isinstance(current, Spec):
            raise ScenarioError(
                f"override path {path!r} descends into {head!r}, which "
                f"is not a spec (it is {current!r})")
        return replace(self, **{head: _spec_apply(current, rest, value)})

    def grid(self, axes: Optional[Mapping[str, Any]] = None,
             zipped: Optional[Mapping[str, Any]] = None,
             **kw: Any) -> "ScenarioGrid":
        """A declarative sweep grid over dotted-path axes.

        ``grid({"topology.n": [8, 16], "seed": range(5)})`` (or
        ``grid(topology__n=[8, 16], seed=range(5))``) is the cartesian
        product, one derived scenario per cell. Keys are structured
        sweep keys: ``(x, seed)``-style tuples in axis declaration
        order (a single axis keeps plain scalar keys), feeding
        :func:`~repro.analysis.sweeps.parallel_sweep` directly.

        ``zipped`` declares **correlated** axes that advance in
        lockstep instead of multiplying out -- the E2-style
        ``(n, seed)`` random-graph pairs::

            # 3 cells, not 9: (n=8, seed=3), (n=12, seed=4), ...
            base.grid(zipped={"topology.n": [8, 12, 16],
                              "seed": [3, 4, 5]})

            # 2 x 3 = 6 cells; keys like (0.05, (8, 3))
            base.grid({"dynamics.rate": [0.05, 0.1]},
                      zipped={"topology.n": [8, 12, 16],
                              "seed": [3, 4, 5]})

        The zipped block contributes one key slot (a tuple of its
        values in declaration order; a single zipped axis keeps plain
        values), appended after the cartesian values.
        """
        ordered: Dict[str, List[Any]] = {}
        if axes:
            for key, vals in axes.items():
                ordered[key] = list(vals)
        for key, vals in kw.items():
            ordered[key.replace("__", ".")] = list(vals)
        return ScenarioGrid(self, ordered, zipped=zipped)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema": "scenario/v1",
            "algorithm": self.algorithm.to_dict(),
            "topology": self.topology.to_dict(),
            "scheduler": self.scheduler.to_dict(),
            "fault": self.fault.to_dict() if self.fault else None,
            "overlay": self.overlay.to_dict() if self.overlay else None,
            "dynamics": (self.dynamics.to_dict()
                         if self.dynamics else None),
            "values": self.values,
            "seed": self.seed,
            "trace_level": self.trace_level,
            "max_events": self.max_events,
            "max_time": self.max_time,
            "check_invariants": self.check_invariants,
            "label": self.label,
        }
        # Emitted only when set: keeps pre-PR7 scenario documents (and
        # their golden round-trips) byte-stable.
        if self.telemetry:
            out["telemetry"] = True
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        if not isinstance(data, Mapping):
            raise ScenarioError(f"not a scenario dict: {data!r}")
        for required in ("algorithm", "topology"):
            if not data.get(required):
                raise ScenarioError(
                    f"scenario dict is missing {required!r}")

        def opt(spec_cls, key):
            raw = data.get(key)
            return spec_cls.from_dict(raw) if raw else None

        defaults = cls.__dataclass_fields__
        return cls(
            algorithm=AlgorithmSpec.from_dict(data["algorithm"]),
            topology=TopologySpec.from_dict(data["topology"]),
            scheduler=(SchedulerSpec.from_dict(data["scheduler"])
                       if data.get("scheduler")
                       else SchedulerSpec("synchronous")),
            fault=opt(FaultSpec, "fault"),
            overlay=opt(OverlaySpec, "overlay"),
            dynamics=opt(DynamicsSpec, "dynamics"),
            values=data.get("values", "alternating"),
            seed=int(data.get("seed", 0)),
            trace_level=data.get("trace_level", "full"),
            max_events=int(data.get(
                "max_events", defaults["max_events"].default)),
            max_time=(None if data.get("max_time") is None
                      else float(data["max_time"])),
            check_invariants=bool(data.get("check_invariants", True)),
            label=data.get("label"),
            telemetry=bool(data.get("telemetry", False)),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def canonical_json(self) -> str:
        """Whitespace-free, key-sorted JSON: the stable content form.

        Two scenarios that run identically serialize identically
        (specs normalize their params on construction), so this string
        -- and the :meth:`digest` over it -- is a content address for
        the run's results.
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self, *, salt: str = "") -> str:
        """SHA-256 hex digest of :meth:`canonical_json`.

        ``salt`` folds a code/schema version into the digest so a
        result cache can be invalidated wholesale when engine
        semantics change (see
        :class:`repro.analysis.cache.ResultCache`).
        """
        hasher = hashlib.sha256()
        hasher.update(salt.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(self.canonical_json().encode("utf-8"))
        return hasher.hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")


_SCENARIO_FIELDS = {f.name for f in fields(Scenario)}


def _spec_apply(spec: Spec, path: str, value: Any) -> Spec:
    head, _, rest = path.partition(".")
    if not rest:
        return spec.with_params(**{head: value})
    nested = spec.params.get(head)
    if not isinstance(nested, Spec):
        raise ScenarioError(
            f"override path descends into param {head!r} of "
            f"{spec.describe()}, which is not a spec")
    return spec.with_params(**{head: _spec_apply(nested, rest, value)})


class ScenarioGrid:
    """The cartesian product of dotted-path axes over a base scenario.

    Feeds :func:`~repro.analysis.sweeps.sweep` /
    :func:`~repro.analysis.sweeps.parallel_sweep` with structured
    keys: each cell's key is the tuple of its axis values in
    declaration order (plain scalars for single-axis grids), so
    seed-replicated grids produce the classic ``(x, seed)`` keys and
    :meth:`~repro.analysis.sweeps.SweepResult.by_x` regroups them.

    ``zipped`` axes advance in lockstep (correlated axes, e.g. E2's
    ``(n, seed)`` random-graph pairs) and contribute a single trailing
    key slot; see :meth:`Scenario.grid`.
    """

    def __init__(self, base: Scenario, axes: Mapping[str, List[Any]],
                 zipped: Optional[Mapping[str, Any]] = None) -> None:
        zipped = {k: list(v) for k, v in (zipped or {}).items()}
        if not axes and not zipped:
            raise ScenarioError("grid needs at least one axis")
        for path, values in dict(axes, **zipped).items():
            if not values:
                raise ScenarioError(f"grid axis {path!r} is empty")
        lengths = {len(v) for v in zipped.values()}
        if len(lengths) > 1:
            raise ScenarioError(
                "zipped grid axes must all have the same length, got "
                + ", ".join(f"{path}: {len(v)}"
                            for path, v in zipped.items()))
        overlap = set(axes) & set(zipped)
        if overlap:
            raise ScenarioError(
                f"axes declared both cartesian and zipped: "
                f"{sorted(overlap)}")
        self.base = base
        self.axes: Dict[str, List[Any]] = {k: list(v)
                                           for k, v in axes.items()}
        self.zipped: Dict[str, List[Any]] = zipped
        self._single = len(self.axes) == 1 and not zipped
        self._keys: Optional[List[Any]] = None
        self._index: Optional[Dict[Any, int]] = None

    def _zip_combos(self) -> List[Any]:
        """One key slot per zipped position: plain values for a single
        zipped axis, declaration-order tuples otherwise."""
        if len(self.zipped) == 1:
            (values,) = self.zipped.values()
            return list(values)
        return [tuple(combo) for combo in zip(*self.zipped.values())]

    def keys(self) -> List[Any]:
        """Structured sweep keys, one per grid cell."""
        if self._keys is None:
            if self._single:
                (values,) = self.axes.values()
                self._keys = list(values)
            elif not self.zipped:
                self._keys = [tuple(combo) for combo in
                              itertools.product(*self.axes.values())]
            elif not self.axes:
                self._keys = self._zip_combos()
            else:
                self._keys = [tuple(combo) + (zslot,) for combo, zslot
                              in itertools.product(
                                  itertools.product(*self.axes.values()),
                                  self._zip_combos())]
        return list(self._keys)

    def _key_index(self, key: Any) -> int:
        if self._index is None:
            index: Dict[Any, int] = {}
            for i, k in enumerate(self.keys()):
                index.setdefault(_freeze(k), i)
            self._index = index
        return self._index[_freeze(key)]

    def scenario_at(self, key: Any) -> Scenario:
        """The derived scenario for one sweep key."""
        if self.zipped:
            zpaths = list(self.zipped)
            if self.axes:
                combo = tuple(key)
                if len(combo) != len(self.axes) + 1:
                    raise ScenarioError(
                        f"key {key!r} does not match grid axes "
                        f"{list(self.axes)} + zipped {zpaths}")
                combo, zslot = combo[:-1], combo[-1]
            else:
                combo, zslot = (), key
            zvalues = (zslot,) if len(zpaths) == 1 else tuple(zslot)
            if len(zvalues) != len(zpaths):
                raise ScenarioError(
                    f"key {key!r} does not match zipped axes {zpaths}")
            overrides = dict(zip(self.axes, combo))
            overrides.update(zip(zpaths, zvalues))
            return self.base.override(overrides)
        combo = (key,) if self._single else tuple(key)
        if len(combo) != len(self.axes):
            raise ScenarioError(
                f"key {key!r} does not match grid axes "
                f"{list(self.axes)}")
        return self.base.override(dict(zip(self.axes, combo)))

    def scenarios(self) -> List[Scenario]:
        return [self.scenario_at(key) for key in self.keys()]

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios())

    def _point_x(self, key: Any) -> float:
        """The plotting axis a sweep would assign this cell's key."""
        from .analysis.sweeps import _scalar_axis
        try:
            return _scalar_axis(key)
        except ValueError:
            # Non-numeric axis (e.g. sweeping whole fault specs):
            # the cell's position is the plotting axis.
            return float(self._key_index(key))

    def sweep_cells(self) -> List[tuple]:
        """One ``(scenario, x, key)`` triple per grid cell."""
        return [(self.scenario_at(key), self._point_x(key), key)
                for key in self.keys()]

    def run(self, *, name: Optional[str] = None,
            workers: Optional[int] = None, cache=None,
            progress: Optional[bool] = None):
        """Execute the whole grid and return a
        :class:`~repro.analysis.sweeps.SweepResult`.

        The grid runs as a one-block experiment
        (:meth:`repro.analysis.manifests.ExperimentManifest.run`, which
        documents ``workers``/``cache``): every cell runs as its own
        scenario says (limits, trace level, ``check_invariants``),
        results are byte-identical for every ``workers`` count
        (``workers=1`` runs in process), and cache entries are stored
        under the scenario's own algorithm name -- ``name`` only labels
        the returned points -- so they are shared across
        differently-named grids.
        """
        from .analysis.manifests import ExperimentManifest, ManifestBlock
        label = name or self.base.algorithm.name
        block = ManifestBlock(label, self.base, self.axes, self.zipped)
        result = ExperimentManifest(label, blocks=[block]).run(
            cache=cache, workers=workers, progress=progress)[label]
        for point in result.points:
            if point.metrics.algorithm != label:
                point.metrics = replace(point.metrics, algorithm=label)
        return result


# ---------------------------------------------------------------------------
# Topology string shorthands (the CLI syntax)
# ---------------------------------------------------------------------------

#: ``name:args`` shorthand parsers for the historical CLI syntax.
_TOPOLOGY_SHORTHANDS: Dict[str, Callable[[str], Dict[str, Any]]] = {}


def _shorthand(name):
    def _decorate(fn):
        _TOPOLOGY_SHORTHANDS[name] = fn
        return fn
    return _decorate


@_shorthand("grid")
def _sh_grid(args: str) -> Dict[str, Any]:
    rows, _, cols = (args or "4x4").partition("x")
    return {"rows": int(rows), "cols": int(cols)}


@_shorthand("torus")
def _sh_torus(args: str) -> Dict[str, Any]:
    rows, _, cols = (args or "4x4").partition("x")
    return {"rows": int(rows), "cols": int(cols)}


@_shorthand("star-of-cliques")
def _sh_soc(args: str) -> Dict[str, Any]:
    arms, _, size = (args or "4x6").partition("x")
    return {"arms": int(arms), "size": int(size)}


@_shorthand("tree")
def _sh_tree(args: str) -> Dict[str, Any]:
    branching, _, depth = (args or "2x3").partition("x")
    return {"branching": int(branching), "depth": int(depth)}


@_shorthand("barbell")
def _sh_barbell(args: str) -> Dict[str, Any]:
    size, _, path = (args or "4x2").partition("x")
    return {"clique_size": int(size), "path_length": int(path)}


@_shorthand("random")
def _sh_random(args: str) -> Dict[str, Any]:
    n, _, seed = (args or "16").partition(":")
    out: Dict[str, Any] = {"n": int(n)}
    if seed:
        out["seed"] = int(seed)
    return out


@_shorthand("geometric")
def _sh_geometric(args: str) -> Dict[str, Any]:
    n, _, seed = (args or "24").partition(":")
    out: Dict[str, Any] = {"n": int(n)}
    if seed:
        out["seed"] = int(seed)
    return out


def parse_topology_spec(text: str) -> TopologySpec:
    """Parse ``name[:args]`` topology shorthands into a spec.

    Known shapes keep their historical syntax (``grid:4x6``,
    ``random:16:3``); any registered name additionally accepts
    ``name``, ``name:<first-param>`` or ``name:k=v,k=v`` -- so a
    topology registered by user code is immediately addressable from
    the CLI. Unknown names raise :class:`UnknownNameError` listing
    the live registry.
    """
    name, _, args = text.partition(":")
    builder = TOPOLOGIES.get(name)   # raises UnknownNameError
    if "=" in args:
        params: Dict[str, Any] = {}
        for pair in args.split(","):
            key, eq, raw = pair.partition("=")
            if not eq:
                raise ScenarioError(
                    f"bad topology param {pair!r} in {text!r} "
                    f"(expected k=v)")
            params[key.strip()] = _literal(raw.strip())
        return TopologySpec(name, **params)
    shorthand = _TOPOLOGY_SHORTHANDS.get(name)
    if shorthand is not None:
        return TopologySpec(name, **shorthand(args))
    if not args:
        return TopologySpec(name)
    # Bare positional shorthand: value binds the builder's first param.
    first = next(iter(inspect.signature(builder).parameters), None)
    if first is None:
        raise ScenarioError(
            f"topology {name!r} takes no parameters, got {args!r}")
    return TopologySpec(name, **{first: _literal(args)})


def _literal(raw: str) -> Any:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_spec(text: str, spec_cls: type) -> Spec:
    """Parse a ``name[:k=v,...]`` shorthand into a ``spec_cls`` spec.

    The CLI syntax of ``--dynamics`` (:class:`DynamicsSpec`:
    ``edge-churn:rate=0.05``, ``random-waypoint:radius=0.3,speed=0.1``)
    and ``--fault`` (:class:`FaultSpec`: ``crash:node=0,time=1.5``,
    ``byzantine:2``), or a bare ``name``; both registries' builders
    take ``(graph, seed, ...)``. Underscores in the name are accepted for
    hyphenated registrations (``edge_churn`` == ``edge-churn``). A
    bare ``name:value`` binds the builder's first parameter after
    ``(graph, seed)``. Unknown names raise :class:`UnknownNameError`
    listing the live registry.
    """
    registry, kind = spec_cls.registry, spec_cls.kind
    name, _, args = text.partition(":")
    if name not in registry and "_" in name \
            and name.replace("_", "-") in registry:
        name = name.replace("_", "-")
    builder = registry.get(name)   # raises UnknownNameError
    if not args:
        return spec_cls(name)
    if "=" in args:
        params: Dict[str, Any] = {}
        for pair in args.split(","):
            key, eq, raw = pair.partition("=")
            if not eq:
                raise ScenarioError(
                    f"bad {kind} param {pair!r} in {text!r} "
                    f"(expected k=v)")
            params[key.strip()] = _literal(raw.strip())
        return spec_cls(name, **params)
    # Bare positional shorthand: value binds the builder's first
    # parameter after the (graph, seed) contract arguments.
    signature = iter(inspect.signature(builder).parameters)
    next(signature, None)  # graph
    next(signature, None)  # seed
    first = next(signature, None)
    if first is None:
        raise ScenarioError(
            f"{kind} {name!r} takes no parameters, got {args!r}")
    return spec_cls(name, **{first: _literal(args)})


# ===========================================================================
# Built-in catalogue
# ===========================================================================
# These registrations subsume the string tables the CLI, runner and
# experiment drivers used to duplicate. Parameter names and defaults
# deliberately mirror the legacy factories so scenarios resolve to
# byte-identical executions (pinned by tests/test_scenario.py). Each
# builder imports the class it builds, so registering the catalogue
# loads no algorithm, scheduler, fault or dynamics module: resolving a
# scenario loads the ones it names.

from .topology import standard as _topo  # noqa: E402

#: Byzantine strategy names accepted by the ``byzantine`` fault model
#: (``--fault byzantine:strategy=S`` on the CLI), mapped to their
#: classes in :mod:`repro.macsim.faults.byzantine`.
BYZANTINE_STRATEGIES = {
    "silent": "SilentStrategy",
    "corrupt": "CorruptStrategy",
    "equivocate": "EquivocateStrategy",
}


def _uid_map(graph, base: int = 1) -> Dict[Any, int]:
    """Canonical-order uids (``index + base``), the legacy CLI rule."""
    return {v: i + base for i, v in enumerate(graph.nodes)}


def _require_single_hop(graph, algorithm: str) -> None:
    if graph.diameter() > 1:
        raise ScenarioError(
            f"{algorithm} requires a single hop (clique) topology")


def _tail_nodes(graph, count: int, nodes, kind: str) -> List[Any]:
    """Fault targets: explicit labels, or the last ``count`` nodes of
    the canonical order (the legacy CLI rule)."""
    if nodes is not None:
        labels = list(nodes)
        for label in labels:
            if not graph.has_node(label):
                raise ScenarioError(
                    f"{kind} fault model names unknown node {label!r}")
        return labels
    if count < 0:
        raise ScenarioError(f"{kind} count must be non-negative")
    if count >= graph.n:
        raise ScenarioError(
            f"{kind} fault model must leave at least one correct node "
            f"(count={count}, n={graph.n})")
    return list(graph.nodes)[-count:] if count else []


# -- topologies -------------------------------------------------------------

@register_topology("clique")
def _t_clique(n: int = 8):
    """Complete graph (single hop)."""
    return _topo.clique(n)


@register_topology("line")
def _t_line(n: int = 8):
    """Path graph; diameter n-1 (the worst-case multihop shape)."""
    return _topo.line(n)


@register_topology("ring")
def _t_ring(n: int = 8):
    """Cycle graph."""
    return _topo.ring(n)


@register_topology("star")
def _t_star(n: int = 8):
    """Hub-and-leaves bottleneck."""
    return _topo.star(n)


@register_topology("grid")
def _t_grid(rows: int = 4, cols: int = 4):
    """rows x cols mesh."""
    return _topo.grid(rows, cols)


@register_topology("torus")
def _t_torus(rows: int = 4, cols: int = 4):
    """Wrap-around mesh."""
    return _topo.torus(rows, cols)


@register_topology("tree")
def _t_tree(branching: int = 2, depth: int = 3):
    """Complete branching-ary tree."""
    return _topo.balanced_tree(branching, depth)


@register_topology("barbell")
def _t_barbell(clique_size: int = 4, path_length: int = 2):
    """Two cliques joined by a path."""
    return _topo.barbell(clique_size, path_length)


@register_topology("star-of-cliques")
def _t_star_of_cliques(arms: int = 4, size: int = 6):
    """Hub joined to arms cliques (the aggregation stress shape)."""
    return _topo.star_of_cliques(arms, size)


@register_topology("random")
def _t_random(n: int = 16, density: float = 0.1, seed: int = 0):
    """Random connected graph: spanning tree + G(n, density) edges."""
    return _topo.random_connected(n, density, seed=seed)


@register_topology("geometric")
def _t_geometric(n: int = 24, radius: float = 0.3, seed: int = 0):
    """Random geometric graph on the unit square, stitched connected."""
    return _topo.random_geometric(n, radius, seed=seed)


# -- schedulers -------------------------------------------------------------

@register_scheduler("synchronous")
def _s_synchronous(f_ack: float = 1.0):
    """Lock-step rounds of length f_ack."""
    from .macsim.schedulers.synchronous import SynchronousScheduler
    return SynchronousScheduler(f_ack)


@register_scheduler("random")
def _s_random(f_ack: float = 1.0, seed: Optional[int] = None,
              min_fraction: float = 0.0):
    """Uniformly random delivery/ack delays within f_ack."""
    from .macsim.schedulers.random_delay import RandomDelayScheduler
    return RandomDelayScheduler(f_ack, seed=seed,
                                min_fraction=min_fraction)


@register_scheduler("max-delay")
def _s_max_delay(f_ack: float = 1.0):
    """Adversarial: every delivery and ack at the last legal moment."""
    from .macsim.schedulers.adversarial import MaxDelayScheduler
    return MaxDelayScheduler(f_ack)


@register_scheduler("jittered")
def _s_jittered(round_length: float = 1.0, jitter: float = 0.25,
                seed: Optional[int] = None):
    """TDMA-like rounds with bounded per-delivery jitter."""
    from .macsim.schedulers.random_delay import JitteredRoundScheduler
    return JitteredRoundScheduler(round_length, jitter, seed=seed)


@register_scheduler("staggered")
def _s_staggered(step: float = 1.0, max_degree: int = 64,
                 reverse: bool = False):
    """Serialized one-at-a-time deliveries (FLP-style orderings)."""
    from .macsim.schedulers.adversarial import StaggeredScheduler
    return StaggeredScheduler(step, max_degree=max_degree,
                              reverse=reverse)


@register_scheduler("eager")
def _s_eager(f_prog: float = 0.5, f_ack: float = 1.0,
             seed: Optional[int] = None, worst_case_acks: bool = True):
    """Fast deliveries (F_prog) under a slack ack bound (F_ack)."""
    from .macsim.schedulers.fprog import EagerDeliveryScheduler
    return EagerDeliveryScheduler(f_prog, f_ack, seed=seed,
                                  worst_case_acks=worst_case_acks)


def _inner_or_synchronous(inner, round_length: float = 1.0):
    """A wrapper's inner scheduler: ``inner`` when given, else
    synchronous rounds of ``round_length``."""
    from .macsim.schedulers.synchronous import SynchronousScheduler
    return inner if inner is not None else SynchronousScheduler(
        round_length)


@register_scheduler("bernoulli-unreliable")
def _s_bernoulli(p: float = 0.5, seed: Optional[int] = None,
                 inner=None):
    """Dual-graph wrapper: each unreliable link delivers w.p. p."""
    from .macsim.schedulers.unreliable import BernoulliUnreliableScheduler
    return BernoulliUnreliableScheduler(_inner_or_synchronous(inner), p,
                                        seed=seed)


@register_scheduler("adversarial-unreliable")
def _s_adversarial_unreliable(cutoff: float = 10.0, inner=None):
    """Dual-graph wrapper: unreliable links die at the cutoff."""
    from .macsim.schedulers.unreliable import AdversarialUnreliableScheduler
    return AdversarialUnreliableScheduler(_inner_or_synchronous(inner),
                                          cutoff)


def _spec_label(key: Any) -> Any:
    """JSON dict keys are strings; map digit-like ones back to the
    integer node labels the topologies use."""
    if isinstance(key, str):
        try:
            return int(key)
        except ValueError:
            return key
    return key


@register_scheduler("silencing")
def _s_silencing(silenced=(), release_time: float = 4.0, inner=None):
    """Withhold broadcasts of the ``silenced`` nodes until release.

    The paper's semi-synchronous adversary (Theorems 3.3/3.9) in
    spec-friendly form: ``silenced`` is a JSON list of node labels,
    ``inner`` an optional nested scheduler spec (default: synchronous
    rounds of length 1).
    """
    from .macsim.schedulers.adversarial import SilencingScheduler
    return SilencingScheduler(_inner_or_synchronous(inner),
                              [_spec_label(v) for v in silenced],
                              release_time)


@register_scheduler("partition")
def _s_partition(side_a=(), release_time: float = 4.0,
                 round_length: float = 1.0, inner=None):
    """Delay cross-cut deliveries between two sides until release.

    The Theorem 3.10 partition adversary: ``side_a`` is a JSON list of
    the nodes on one side of the vertex cut; the other side is the
    complement. The inner scheduler must be synchronous (pass
    ``round_length`` instead of a nested spec in the common case).
    """
    from .macsim.schedulers.adversarial import PartitionScheduler
    from .macsim.schedulers.synchronous import SynchronousScheduler
    inner = _inner_or_synchronous(inner, round_length)
    if not isinstance(inner, SynchronousScheduler):
        raise ScenarioError(
            "partition scheduler requires a synchronous inner "
            "scheduler")
    return PartitionScheduler(inner, [_spec_label(v) for v in side_a],
                              release_time)


@register_scheduler("scripted")
def _s_scripted(scripts=None, f_ack: float = 100.0, fallback=None):
    """Replay hand-scripted delivery plans from a JSON timeline.

    ``scripts`` maps node label -> list of steps for that node's
    successive broadcasts; each step is ``{"ack": offset,
    "deliveries": {neighbor: offset}}`` (offsets relative to the
    broadcast start; unlisted neighbors receive at the ack offset).
    Node labels appear as JSON strings and are coerced back to ints
    where digit-like. ``fallback`` is an optional nested scheduler
    spec for unscripted broadcasts.
    """
    from .macsim.schedulers.scripted import ScriptedScheduler, ScriptedStep
    table = {}
    for node_key, steps in (scripts or {}).items():
        parsed = []
        for step in steps:
            offsets = {_spec_label(k): float(v) for k, v in
                       (step.get("deliveries") or {}).items()}
            parsed.append(ScriptedStep(
                delivery_offsets=offsets,
                ack_offset=float(step.get("ack", 1.0))))
        table[_spec_label(node_key)] = parsed
    return ScriptedScheduler(table, fallback=fallback, f_ack=f_ack)


# -- algorithms -------------------------------------------------------------

@register_algorithm("two-phase")
def _a_two_phase(graph, seed: int, uid_base: int = 1):
    """Two-Phase Consensus (Theorem 4.1; single hop only)."""
    from .core.twophase import TwoPhaseConsensus
    _require_single_hop(graph, "two-phase")
    uid = _uid_map(graph, uid_base)
    return lambda label, value: TwoPhaseConsensus(uid[label], value)


@register_algorithm("wpaxos")
def _a_wpaxos(graph, seed: int, tree_priority: bool = True,
              aggregation: bool = True, retry_policy: str = "paper",
              attempts_per_change: int = 2):
    """wPAXOS (Theorem 4.6; any connected topology)."""
    from .core.wpaxos.config import WPaxosConfig
    from .core.wpaxos.node import WPaxosNode
    uid = _uid_map(graph)
    n = graph.n

    def make(label, value):
        config = WPaxosConfig(tree_priority=tree_priority,
                              aggregation=aggregation,
                              retry_policy=retry_policy,
                              attempts_per_change=attempts_per_change)
        return WPaxosNode(uid[label], value, n, config)
    return make


@register_algorithm("gatherall")
def _a_gatherall(graph, seed: int):
    """GatherAll baseline (O(n * F_ack), Section 4.2)."""
    from .core.baselines.gatherall import GatherAllConsensus
    uid = _uid_map(graph)
    n = graph.n
    return lambda label, value: GatherAllConsensus(uid[label], value, n)


@register_algorithm("flood-paxos")
def _a_flood_paxos(graph, seed: int):
    """Flooding-PAXOS baseline (O(n * F_ack), Section 4.2)."""
    from .core.baselines.paxos_flood import PaxosFloodNode
    uid = _uid_map(graph)
    n = graph.n
    return lambda label, value: PaxosFloodNode(uid[label], value, n)


@register_algorithm("ben-or")
def _a_ben_or(graph, seed: int, f: Optional[int] = None,
              seed_scale: int = 101, uid_seed_scale: int = 1):
    """Ben-Or randomized consensus (single hop, crash minority)."""
    from .core.randomized import BenOrConsensus
    _require_single_hop(graph, "ben-or")
    uid = _uid_map(graph)
    n = graph.n
    tolerance = (n - 1) // 2 if f is None else f
    return lambda label, value: BenOrConsensus(
        uid[label], value, n, tolerance,
        seed=seed * seed_scale + uid_seed_scale * uid[label])


@register_algorithm("byzantine")
def _a_byzantine(graph, seed: int, f: Optional[int] = None,
                 relay: Optional[bool] = None, seed_scale: int = 101,
                 uid_seed_scale: int = 1):
    """Grading+amplification Byzantine consensus (n > 5f)."""
    from .core.byzantine import ByzantineConsensus, max_tolerance
    uid = _uid_map(graph)
    n = graph.n
    tolerance = max_tolerance(n) if f is None else f
    use_relay = graph.diameter() > 1 if relay is None else relay
    return lambda label, value: ByzantineConsensus(
        uid[label], value, n, tolerance,
        seed=seed * seed_scale + uid_seed_scale * uid[label],
        relay=use_relay)


# -- fault models -----------------------------------------------------------

@register_fault_model("crash")
def _f_crash(graph, seed: int, node=None, time: float = 1.0,
             still_delivered=None, plans=None):
    """Fail-stop: crash one node (or a ``plans`` list of dicts)."""
    from .macsim.faults.crash import CrashFaultModel, CrashPlan
    if plans is not None:
        return CrashFaultModel([CrashPlan.from_dict(p) for p in plans])
    if node is None:
        raise ScenarioError("crash fault model needs node= or plans=")
    if not graph.has_node(node):
        raise ScenarioError(f"crash fault model: unknown node {node!r}")
    try:
        time = float(time)
    except (TypeError, ValueError):
        raise ScenarioError(f"crash fault model: time must be a number, "
                            f"got {time!r}") from None
    return CrashFaultModel([CrashPlan(node, time, still_delivered)])


@register_fault_model("omission")
def _f_omission(graph, seed: int, count: int = 1, send: bool = True,
                receive: bool = False, start: float = 0.0,
                drop_rate: float = 1.0, nodes=None):
    """Send/receive omission on the last ``count`` nodes."""
    from .macsim.faults.omission import OmissionFaultModel, OmissionPlan
    targets = _tail_nodes(graph, count, nodes, "omission")
    return OmissionFaultModel([
        OmissionPlan(node=v, send=send, receive=receive, start=start,
                     drop_rate=drop_rate, seed=seed * 13 + i)
        for i, v in enumerate(targets)])


@register_fault_model("byzantine")
def _f_byzantine(graph, seed: int, count: int = 1,
                 strategy: str = "corrupt",
                 budget: Optional[int] = None,
                 plan_seed_scale: Optional[int] = None,
                 strategy_value=None, nodes=None):
    """Byzantine adversary on the last ``count`` nodes.

    ``plan_seed_scale`` switches plan seeding from the CLI rule
    (``seed * 13 + i``) to uid-proportional seeds
    (``plan_seed_scale * uid``, the E12 construction).
    """
    from .macsim.faults import byzantine
    try:
        strategy_cls = getattr(byzantine, BYZANTINE_STRATEGIES[strategy])
    except KeyError:
        raise UnknownNameError("byzantine strategy", strategy,
                               sorted(BYZANTINE_STRATEGIES)) from None
    targets = _tail_nodes(graph, count, nodes, "byzantine")
    uid = _uid_map(graph)
    plans = []
    for i, v in enumerate(targets):
        plan_seed = (plan_seed_scale * uid[v]
                     if plan_seed_scale is not None else seed * 13 + i)
        strat = (strategy_cls(strategy_value)
                 if strategy == "corrupt" and strategy_value is not None
                 else strategy_cls())
        plans.append(byzantine.ByzantinePlan(node=v, strategy=strat,
                                             seed=plan_seed))
    return byzantine.ByzantineFaultModel(plans, budget=budget)


# -- dynamics ---------------------------------------------------------------
# Builder contract: builder(graph, seed, **params) -> TopologyDynamics.
# Model RNGs derive from the scenario seed through a fixed affine map
# (seed * 7919 + salt) so one knob reseeds the whole run without the
# dynamics stream colliding with the scheduler/fault streams.

@register_dynamics("edge-churn")
def _d_edge_churn(graph, seed: int, rate: float = 0.05,
                  add_rate: Optional[float] = None,
                  epoch_length: float = 1.0,
                  floor: str = "spanning-tree"):
    """Seeded per-epoch link add/remove churn with a protected floor."""
    from .macsim.dynamics.churn import EdgeChurn
    return EdgeChurn(rate=rate, add_rate=add_rate,
                     epoch_length=epoch_length, floor=floor,
                     seed=seed * 7919 + 11)


@register_dynamics("node-churn")
def _d_node_churn(graph, seed: int, leave_rate: float = 0.05,
                  rejoin_rate: float = 0.5, epoch_length: float = 1.0,
                  protect: int = 1):
    """Node leave/join churn with process-state reset on rejoin."""
    from .macsim.dynamics.churn import NodeChurn
    return NodeChurn(leave_rate=leave_rate, rejoin_rate=rejoin_rate,
                     epoch_length=epoch_length, protect=protect,
                     seed=seed * 7919 + 13)


@register_dynamics("random-waypoint")
def _d_random_waypoint(graph, seed: int, radius: float = 0.35,
                       speed: float = 0.08, epoch_length: float = 1.0,
                       stitch: bool = True):
    """Unit-square random-waypoint mobility with geometric links."""
    from .macsim.dynamics.mobility import RandomWaypoint
    return RandomWaypoint(radius=radius, speed=speed,
                          epoch_length=epoch_length, stitch=stitch,
                          seed=seed * 7919 + 17)


@register_dynamics("scripted")
def _d_scripted(graph, seed: int, timeline=None):
    """Explicit topology timeline (JSON add/remove/leave/join)."""
    from .macsim.dynamics.scripted import ScriptedDynamics
    return ScriptedDynamics(timeline or ())


# -- overlays ---------------------------------------------------------------

@register_overlay("random-overlay")
def _o_random_overlay(graph, density: float = 0.1,
                      seed: Optional[int] = None):
    """Random non-edges of the base graph as unreliable links."""
    return _topo.unreliable_overlay(graph, density, seed=seed)


# -- initial values ---------------------------------------------------------

@register_values("alternating")
def _v_alternating(graph):
    """0/1/0/1... over the canonical node order (the default)."""
    return {v: i % 2 for i, v in enumerate(graph.nodes)}


@register_values("split")
def _v_split(graph):
    """First half 0, second half 1 (partition-argument inputs)."""
    half = graph.n // 2
    return {v: 0 if i < half else 1 for i, v in enumerate(graph.nodes)}


@register_values("two-thirds-zeros")
def _v_two_thirds_zeros(graph):
    """Two-thirds zeros: clear but non-unanimous majority (E12)."""
    nodes = list(graph.nodes)
    cut = (2 * len(nodes)) // 3
    return {v: 0 if i < cut else 1 for i, v in enumerate(nodes)}
