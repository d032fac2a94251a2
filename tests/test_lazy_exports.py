"""Package exports and the scenario catalogue resolve on first use.

Every package ``__init__`` exports through one PEP 562 table
(:mod:`repro._lazy`), and each catalogue builder in
:mod:`repro.scenario` imports the class it builds. Nothing imports a
name until it is used, so these tests use every one: each exported
name against its defining module, and each registered built-in once
with its defaults. A fresh interpreter pins the behaviours that depend
on import order -- a user registration shadows the built-in of the
same name, forked shards and sweep workers inherit the algorithm
modules the parent resolved before forking, and the manifest module
imports an experiment driver only when it loads that driver's
manifest.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro._lazy import EXPORTS
from repro.macsim.process import Process
from repro.macsim.schedulers.base import Scheduler
from repro.registry import (ALGORITHMS, DYNAMICS, FAULT_MODELS, OVERLAYS,
                            SCHEDULERS, TOPOLOGIES, VALUES)
from repro.scenario import (AlgorithmSpec, DynamicsSpec, FaultSpec,
                            OverlaySpec, Scenario, SchedulerSpec,
                            TopologySpec)
from repro.topology.graphs import Graph

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PACKAGES = (
    "repro", "repro.macsim", "repro.macsim.faults",
    "repro.macsim.dynamics", "repro.macsim.schedulers",
    "repro.macsim.service", "repro.core", "repro.core.wpaxos",
    "repro.core.baselines", "repro.core.heuristics", "repro.topology",
    "repro.analysis", "repro.apps", "repro.lowerbounds",
    "repro.experiments",
)

EXPORTED = [(package, name) for package in PACKAGES
            for name in importlib.import_module(package).__all__]


def test_every_package_exports_through_one_table():
    assert set(EXPORTS) == set(PACKAGES)


@pytest.mark.parametrize("package, name", EXPORTED,
                         ids=[f"{p}.{n}" for p, n in EXPORTED])
def test_exported_name_is_its_defining_modules_object(package, name):
    module = importlib.import_module(package)
    value = getattr(module, name)
    if name == "__version__":
        assert isinstance(value, str)
        return
    where = EXPORTS[package][name]
    if where:
        assert value is getattr(importlib.import_module(where), name)
    else:
        assert value is importlib.import_module(f"{package}.{name}")
    assert name in dir(module)


def test_star_import():
    namespace = {}
    exec("from repro import *", namespace)
    import repro
    assert set(repro.__all__) <= set(namespace)
    assert namespace["WPaxosNode"] is repro.WPaxosNode


def test_unknown_names_are_attribute_errors():
    import repro.macsim
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.macsim.no_such_name
    assert not hasattr(repro.macsim, "__wrapped__")
    assert repro.macsim.columnar is sys.modules["repro.macsim.columnar"]


# -- every built-in resolves ------------------------------------------------

SMALL = TopologySpec("clique", n=4)
#: The one built-in without a usable default: a crash names its node.
REQUIRED = {("fault model", "crash"): {"node": 0}}


def _spec(cls, registry, name):
    return cls(name, **REQUIRED.get((registry.kind, name), {}))


def _scenario(registry, name) -> Scenario:
    algorithm = AlgorithmSpec("wpaxos")
    if registry is ALGORITHMS:
        return Scenario(_spec(AlgorithmSpec, registry, name), SMALL)
    if registry is TOPOLOGIES:
        return Scenario(algorithm, _spec(TopologySpec, registry, name))
    if registry is SCHEDULERS:
        return Scenario(algorithm, SMALL,
                        scheduler=_spec(SchedulerSpec, registry, name))
    if registry is FAULT_MODELS:
        return Scenario(algorithm, SMALL,
                        fault=_spec(FaultSpec, registry, name))
    if registry is OVERLAYS:
        return Scenario(algorithm, SMALL,
                        overlay=_spec(OverlaySpec, registry, name))
    if registry is DYNAMICS:
        return Scenario(algorithm, SMALL,
                        dynamics=_spec(DynamicsSpec, registry, name))
    return Scenario(algorithm, SMALL, values=name)


BUILTINS = [(registry, name)
            for registry in (ALGORITHMS, TOPOLOGIES, SCHEDULERS,
                             FAULT_MODELS, OVERLAYS, DYNAMICS, VALUES)
            for name in registry.names()]


@pytest.mark.parametrize("registry, name", BUILTINS,
                         ids=[f"{r.kind}:{n}" for r, n in BUILTINS])
def test_builtin_resolves_with_its_defaults(registry, name):
    resolved = _scenario(registry, name).resolve()
    assert isinstance(resolved.graph, Graph)
    assert isinstance(resolved.scheduler, Scheduler)
    assert set(resolved.initial_values) == set(resolved.graph.nodes)
    sim = resolved.build()
    assert all(isinstance(p, Process) for p in sim.processes.values())
    if registry is FAULT_MODELS:
        assert resolved.fault_model is not None
    if registry is OVERLAYS:
        assert isinstance(resolved.unreliable_graph, Graph)
    if registry is DYNAMICS:
        assert resolved.dynamics is not None


# -- fresh interpreters -----------------------------------------------------

def _fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=120,
                            env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


SHADOW = """
from repro.registry import ALGORITHMS, register_algorithm

def mine(label, value):
    raise AssertionError("never built")

@register_algorithm("wpaxos")
def user_wpaxos(graph, seed):
    return mine

from repro.scenario import AlgorithmSpec, Scenario, TopologySpec
resolved = Scenario(AlgorithmSpec("wpaxos"),
                    TopologySpec("clique", n=3)).resolve()
assert ALGORITHMS.get("wpaxos") is user_wpaxos
assert resolved.factory is mine
print("shadowed")
"""


def test_user_registration_shadows_the_builtin():
    assert _fresh(SHADOW) == "shadowed"


PRE_FORK = """
import os, sys, tempfile

PARENT, LOG = os.getpid(), tempfile.mkstemp()[1]


class ChildImports:
    # Logs every module a forked child imports that its parent had not.
    def find_spec(self, name, path=None, target=None):
        if os.getpid() != PARENT:
            with open(LOG, "a") as log:
                log.write(name + "\\n")


sys.meta_path.insert(0, ChildImports())

from repro.analysis.manifests import ExperimentManifest, ManifestBlock
from repro.macsim.service import ShardedService, WorkloadGenerator
from repro.scenario import (AlgorithmSpec, DynamicsSpec, Scenario,
                            SchedulerSpec, TopologySpec)

base = Scenario(AlgorithmSpec("wpaxos"), TopologySpec("clique", n=3),
                SchedulerSpec("synchronous"))
report = ShardedService(
    base, WorkloadGenerator(groups=2, clients=4, seed=0,
                            requests_per_client=1),
    shards=2, progress=False).run()
assert report.failed == 0 and len(report.shards) == 2, report.shards
assert "repro.core.wpaxos.node" in sys.modules

assert "repro.core.baselines.gatherall" not in sys.modules
from repro.experiments.e9_unreliable_links import BASE as UNRELIABLE
gather = base.override({"algorithm": AlgorithmSpec("gatherall")})
churn = base.override({"dynamics": DynamicsSpec(
    "node-churn", leave_rate=0.05, rejoin_rate=0.5, epoch_length=1.0)})
results = ExperimentManifest("T", blocks=[
    ManifestBlock("g", gather, axes={"topology.n": [3, 4, 5]}),
    ManifestBlock("churn", churn, axes={"seed": [0, 1]}),
    ManifestBlock("unreliable", UNRELIABLE),
]).run(workers=2, progress=False)
assert results["g"].executor_stats["workers"] == 2
assert all(p.metrics.correct for p in results["g"].points)
assert "repro.core.baselines.gatherall" in sys.modules
with open(LOG) as log:
    late = sorted({m for m in log.read().split() if m.startswith("repro")})
os.unlink(LOG)
assert not late, f"imported after the fork: {late}"
print("inherited")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_parent_resolves_before_it_forks():
    """The forked paths' children run on modules the parent imported:
    the parent resolves each scenario it forks for, and no ``repro``
    module is first imported inside a shard or a sweep worker."""
    assert _fresh(PRE_FORK) == "inherited"


MANIFESTS = """
import sys

def drivers():
    return sorted(m for m in sys.modules
                  if m.startswith("repro.experiments."))

from repro.analysis.manifests import load_manifest
assert drivers() == [], drivers()
load_manifest("E9")
print(" ".join(drivers()))
"""


def test_manifests_import_only_the_driver_they_load():
    """Every ledger set-up imports :mod:`repro.analysis.manifests`,
    which imports no experiment driver; ``load_manifest`` imports the
    one driver it is asked for."""
    assert _fresh(MANIFESTS) == ("repro.experiments.common "
                                 "repro.experiments.e9_unreliable_links")
