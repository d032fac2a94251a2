"""A process loads the modules its path runs, and numpy last of all.

A consensus run is message handlers over an abstract MAC layer; only
the columnar *reader* (chunk decode, index rebuild, vectorized audit)
is linear algebra. These tests pin that a fresh interpreter imports
the package, runs a scenario and serves requests without loading
numpy, that :func:`repro.macsim.columnar.have_numpy` is what loads it,
and that ``MACSIM_NO_NUMPY`` -- read in that one place -- switches it
off without importing.

The same fresh interpreters pin which ``repro`` modules load: the
package exports resolve on first use and the scenario catalogue
imports a class when a scenario names it, so importing the entry
modules, ``repro --help``, resolving one wPAXOS scenario and importing
the ledger's ``regen_full`` drivers each load only what they run. These are
module sets, not timings.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import repro.macsim.columnar as columnar_mod
from repro.experiments import EXPERIMENTS
from repro.macsim.columnar import have_numpy

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
NUMPY_INSTALLED = importlib.util.find_spec("numpy") is not None

#: What a process does on the consensus path: import the entry
#: modules, one DECISIONS-level wPAXOS scenario, a 2-group serve.
CONSENSUS_PATH = """
import contextlib, io, sys
import repro, repro.cli, repro.macsim.service, repro.analysis.manifests
import repro.lowerbounds, repro.experiments.e7_flp
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(["run", "--algorithm", "wpaxos",
                           "--topology", "grid:3x3",
                           "--scheduler", "random",
                           "--trace-level", "decisions"]) == 0
    assert repro.cli.main(["serve", "--groups", "2", "--shards", "1",
                           "--clients", "4",
                           "--requests-per-client", "1"]) == 0
assert "numpy" not in sys.modules, "the consensus path loaded numpy"
from repro.macsim.columnar import have_numpy
print(have_numpy(), "numpy" in sys.modules)
"""


#: The ledger's three entry imports plus the CLI: what every workload
#: and every ``repro`` command loads before it runs anything.
ENTRY_IMPORTS = ("import repro, repro.macsim.service, "
                 "repro.analysis.manifests, repro.cli")

#: Modules no entry import runs, and so must not load.
NOT_AT_ENTRY = ("repro.core.byzantine", "repro.core.baselines",
                "repro.macsim.columnar", "repro.analysis.sweeps",
                "repro.topology.gadgets", "multiprocessing")

#: The ledger's ``regen_full`` drivers, imported the way ``repro regen``
#: runs them.
REGEN_MODULES = [EXPERIMENTS[eid]
                 for eid in ("E1", "E2", "E3", "E9", "E12", "E13")]
REGEN_DRIVERS = "import " + ", ".join(REGEN_MODULES)

#: Modules none of those drivers runs: the lower bounds, the service
#: and the trace export (nor any other driver).
NOT_IN_REGEN = ("repro.lowerbounds", "repro.macsim.service",
                "repro.analysis.export", "repro.macsim.columnar")

RESOLVE_WPAXOS = """
from repro.scenario import AlgorithmSpec, Scenario, TopologySpec
Scenario(AlgorithmSpec("wpaxos"), TopologySpec("clique", n=4)).resolve()
"""


def _run(args, no_numpy=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("MACSIM_NO_NUMPY", None)
    if no_numpy is not None:
        env["MACSIM_NO_NUMPY"] = no_numpy
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    return result


def _fresh_interpreter(no_numpy=None) -> str:
    return _run(["-c", CONSENSUS_PATH], no_numpy).stdout.strip()


def _modules_loaded(*args) -> set:
    """Every module a fresh ``python -X importtime ARGS`` imports."""
    stderr = _run(["-X", "importtime", *args]).stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in stderr.splitlines()
            if line.startswith("import time:")} - {"imported package"}


def _under(modules: set, prefix: str) -> set:
    return {m for m in modules if m == prefix or m.startswith(prefix + ".")}


def test_entry_imports_load_only_what_they_run():
    loaded = _modules_loaded("-c", ENTRY_IMPORTS)
    assert "repro.cli" in loaded
    for name in NOT_AT_ENTRY:
        assert not _under(loaded, name), f"{name} loaded at entry"
    assert len(_under(loaded, "repro")) <= 35, sorted(loaded)


def _drivers(modules: set) -> set:
    return {m for m in modules if m.startswith("repro.experiments.e")}


def test_experiments_package_loads_no_driver():
    loaded = _modules_loaded("-c", "import repro.experiments")
    assert "repro.experiments" in loaded
    assert not _drivers(loaded), sorted(_drivers(loaded))


def test_regen_drivers_load_only_what_they_run():
    loaded = _modules_loaded("-c", REGEN_DRIVERS)
    assert _drivers(loaded) == set(REGEN_MODULES)
    for name in NOT_IN_REGEN:
        assert not _under(loaded, name), f"{name} loaded by regen"
    # 32 measured; every driver imported once all 14 (68).
    assert len(_under(loaded, "repro")) <= 36, sorted(loaded)


def test_a_lower_bound_loads_only_its_modules():
    loaded = _modules_loaded("-c", "import repro.lowerbounds.steps")
    assert "repro.lowerbounds.steps" in loaded
    for name in ("anonymity", "partition", "indist"):
        assert f"repro.lowerbounds.{name}" not in loaded


def test_help_loads_no_algorithm():
    loaded = _modules_loaded("-m", "repro", "--help")
    assert "repro.cli" in loaded
    assert not _under(loaded, "repro.core"), sorted(
        _under(loaded, "repro.core"))


def test_resolving_a_scenario_loads_the_algorithm_it_names():
    loaded = _modules_loaded("-c", RESOLVE_WPAXOS)
    assert "repro.core.wpaxos.node" in loaded
    assert "repro.core.byzantine" not in loaded
    assert not _under(loaded, "repro.core.baselines")


def test_consensus_path_does_not_load_numpy_until_asked():
    loaded = str(NUMPY_INSTALLED)
    assert _fresh_interpreter() == f"{loaded} {loaded}"


def test_switch_declines_without_importing():
    assert _fresh_interpreter(no_numpy="1") == "False False"


@pytest.mark.parametrize("value, allowed", [
    ("", True), ("0", True), ("1", False), ("yes", False)])
def test_switch_values(monkeypatch, value, allowed):
    """``MACSIM_NO_NUMPY=0`` and an empty value mean unset."""
    monkeypatch.setattr(columnar_mod, "np", False)  # unresolved
    monkeypatch.setenv("MACSIM_NO_NUMPY", value)
    assert have_numpy() is (allowed and NUMPY_INSTALLED)
