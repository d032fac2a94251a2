"""Named-builder registries behind the declarative Scenario API.

Every axis of a consensus run -- which algorithm, which topology,
which scheduler, which fault model -- used to be spelled as a string
table somewhere: the CLI's ``ALGORITHMS`` tuple, its topology
parser's if-chain, each experiment driver's bespoke factory wiring. This module
replaces those tables with extensible :class:`Registry` instances that
the :mod:`repro.scenario` specs resolve through, so a new algorithm or
topology registered once is immediately available to the CLI, the
experiment drivers, sweep grids and trace replay alike::

    from repro import register_topology
    from repro.topology import Graph

    @register_topology("wheel")
    def wheel(n: int = 8) -> Graph:
        rim = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
        return Graph(rim + [(n - 1, i) for i in range(n - 1)])

    # now valid: TopologySpec("wheel", n=12), ``--topology wheel:12``

Builder contracts (enforced by convention, resolved by
:mod:`repro.scenario`):

* **topology** -- ``builder(**params) -> Graph``.
* **scheduler** -- ``builder(**params) -> Scheduler``; a ``seed``
  parameter, when present and not pinned by the spec, receives the
  scenario's seed.
* **algorithm** -- ``builder(graph, seed, **params) -> factory`` where
  ``factory(label, value)`` builds one process.
* **fault model** -- ``builder(graph, seed, **params) -> FaultModel``.
* **overlay** -- ``builder(graph, **params) -> Graph`` (the unreliable
  dual-graph edge set).
* **dynamics** -- ``builder(graph, seed, **params) ->
  TopologyDynamics`` (time-varying topology models; see
  :mod:`repro.macsim.dynamics`).
* **values** -- ``builder(graph) -> {label: value}`` initial values.

The built-in entries live at the bottom of :mod:`repro.scenario`
(which imports this module first, then registers the catalogue), and
this module imports :mod:`repro.scenario` at its end: whichever of the
two a process imports first, the built-ins are registered before user
code can register or look up a name, so a user registration always
shadows the built-in of the same name. Registering a built-in imports
nothing it builds; each builder imports its class when a scenario
resolves it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class UnknownNameError(LookupError):
    """A name was not found in a registry.

    The message always lists what *is* registered, so CLI users and
    scenario authors see the live catalogue, not a stale hardcoded
    hint.
    """

    def __init__(self, kind: str, name: str, known: List[str]) -> None:
        self.kind = kind
        self.name = name
        self.known = known
        super().__init__(
            f"unknown {kind} {name!r}; registered: "
            + (", ".join(known) if known else "(none)"))


class Registry:
    """A name -> builder table for one scenario axis."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._builders: Dict[str, Callable] = {}
        self._docs: Dict[str, str] = {}

    def register(self, name: str,
                 builder: Optional[Callable] = None) -> Callable:
        """Register ``builder`` under ``name``; usable as a decorator.

        Re-registering a name replaces the previous builder (so a user
        module may shadow a built-in deliberately).
        """
        def _decorate(fn: Callable) -> Callable:
            self._builders[str(name)] = fn
            doc = (fn.__doc__ or "").strip().splitlines()
            self._docs[str(name)] = doc[0] if doc else ""
            return fn

        if builder is not None:
            return _decorate(builder)
        return _decorate

    def get(self, name: str) -> Callable:
        """The builder for ``name``; raises :class:`UnknownNameError`."""
        try:
            return self._builders[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names()) from None

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(self._builders)

    def describe(self, name: str) -> str:
        """The builder's one-line docstring summary (may be empty)."""
        return self._docs.get(name, "")

    def __contains__(self, name: str) -> bool:
        return name in self._builders

    def __repr__(self) -> str:
        return f"Registry({self.kind}, {len(self._builders)} entries)"


#: The five public scenario axes...
ALGORITHMS = Registry("algorithm")
TOPOLOGIES = Registry("topology")
SCHEDULERS = Registry("scheduler")
FAULT_MODELS = Registry("fault model")
DYNAMICS = Registry("dynamics")
#: ...plus the two auxiliary ones (dual-graph overlays and initial
#: value assignments).
OVERLAYS = Registry("overlay")
VALUES = Registry("values")

#: Decorator aliases -- ``@register_topology("wheel")`` etc.
register_algorithm = ALGORITHMS.register
register_topology = TOPOLOGIES.register
register_scheduler = SCHEDULERS.register
register_fault_model = FAULT_MODELS.register
register_dynamics = DYNAMICS.register
register_overlay = OVERLAYS.register
register_values = VALUES.register

# Last, so the names above exist when the catalogue registers into them.
from . import scenario  # noqa: E402,F401
