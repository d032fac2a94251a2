"""numpy is a cost of the first vectorized call, not of ``import repro``.

A consensus run is message handlers over an abstract MAC layer; only
the columnar *reader* (chunk decode, index rebuild, vectorized audit)
is linear algebra. These tests pin that a fresh interpreter imports
the package, runs a scenario and serves requests without loading
numpy, that :func:`repro.macsim.columnar.have_numpy` is what loads it,
and that ``MACSIM_NO_NUMPY`` -- read in that one place -- switches it
off without importing.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import repro.macsim.columnar as columnar_mod
from repro.macsim.columnar import have_numpy

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
NUMPY_INSTALLED = importlib.util.find_spec("numpy") is not None

#: What a process does on the consensus path: import the four entry
#: modules, one DECISIONS-level wPAXOS scenario, a 2-group serve.
CONSENSUS_PATH = """
import contextlib, io, sys
import repro, repro.cli, repro.macsim.service, repro.analysis.manifests
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


def _fresh_interpreter(no_numpy=None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("MACSIM_NO_NUMPY", None)
    if no_numpy is not None:
        env["MACSIM_NO_NUMPY"] = no_numpy
    result = subprocess.run(
        [sys.executable, "-c", CONSENSUS_PATH], capture_output=True,
        text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


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
