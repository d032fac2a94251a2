"""Cross-commit golden tables for the manifest-migrated experiments.

CI's ``regen-smoke`` and the ledger's ``regen_full`` checks compare two
passes inside one tree (cold vs warm), so a change that moves *both*
passes them. These digests are committed: the six rendered driver
tables (E1/E2/E3/E9/E12/E13) and each ``regenerate(load_manifest(id))``
text must stay byte-identical across commits whatever trace level the
cells run at. ``TABLES_DIGEST`` is the ledger's ``regen_full`` output
digest.

One cache serves both halves, which also pins the cache contract: the
cold driver pass records one miss and one store per cell and no hit,
and ``regenerate`` over the same cache is answered entirely from it
(drivers and manifests address identical cells). The cells keep no MAC
records (``trace_level="decisions"``), so the same pass counts auditor
attachments: every cell that declares ``check_invariants`` is audited
online, none silently skipped.

Regenerate only for an intended table change:
``PYTHONPATH=src:. python tests/test_regen_golden.py``.
"""

import hashlib
import importlib

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.manifests import (MANIFEST_SOURCES, load_manifest,
                                      regenerate)
from repro.macsim.trace import Trace, TraceLevel

CELLS = 125
#: E9's dual-graph cells declare ``check_invariants=False`` (deadlocks
#: hit the time limit mid-ack); every other cell is audited.
UNCHECKED_CELLS = 28

#: sha256 over ``"\n".join(run(...).render())`` sorted by id, first 16
#: hex digits.
TABLES_DIGEST = "17fbff3d2fa7a2d1"

#: id -> sha256 of ``regenerate(load_manifest(id))``, first 16 hex.
REGEN_DIGESTS = {
    "E1": "c2eaeb9daf0db09f",
    "E2": "b090411a31e0b3fd",
    "E3": "edaed64380b2a9e1",
    "E9": "9275bf558ab1ee88",
    "E12": "380cad6961963fef",
    "E13": "a201a475a3a57ecf",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def driver_tables(cache) -> dict:
    return {eid: importlib.import_module(module).run(
                cache=cache, workers=1).render()
            for eid, module in MANIFEST_SOURCES.items()}


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    cache = ResultCache(str(tmp_path_factory.mktemp("regen-golden")))
    attached = []
    attach = Trace.attach_auditor
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Trace, "attach_auditor",
                      lambda sink, auditor: (attached.append(sink.level),
                                             attach(sink, auditor)))
        tables = driver_tables(cache)
    return (cache, tables, (cache.hits, cache.misses, cache.stores),
            attached)


def test_driver_tables_match_committed_digest(cold):
    tables = cold[1]
    assert _digest("\n".join(tables[eid] for eid in sorted(tables))) \
        == TABLES_DIGEST


def test_cold_pass_is_one_miss_and_one_store_per_cell(cold):
    assert cold[2] == (0, CELLS, CELLS)


def test_every_checked_cell_is_audited_online(cold):
    scenarios = [scenario for eid in MANIFEST_SOURCES
                 for block in load_manifest(eid).blocks
                 for scenario in block.scenarios()]
    assert len(scenarios) == CELLS
    assert {s.trace_level for s in scenarios} == {"decisions"}
    unchecked = [s for s in scenarios if not s.check_invariants]
    assert len(unchecked) == UNCHECKED_CELLS
    assert all(s.overlay is not None for s in unchecked)    # E9
    assert cold[3] == [TraceLevel.DECISIONS] * (CELLS - UNCHECKED_CELLS)


@pytest.mark.parametrize("experiment_id", sorted(REGEN_DIGESTS))
def test_regenerate_matches_committed_digest(cold, experiment_id):
    cache = ResultCache(cold[0].directory)
    text = regenerate(load_manifest(experiment_id), cache=cache,
                      workers=1)
    assert _digest(text) == REGEN_DIGESTS[experiment_id]
    assert cache.misses == 0 and cache.stores == 0


def test_every_manifest_driver_is_pinned():
    assert sorted(REGEN_DIGESTS) == sorted(MANIFEST_SOURCES)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        tables = driver_tables(cache)
        print("TABLES_DIGEST =", _digest(
            "\n".join(tables[eid] for eid in sorted(tables))))
        for eid in MANIFEST_SOURCES:
            text = regenerate(load_manifest(eid), cache=cache,
                              workers=1)
            print(f'    "{eid}": "{_digest(text)}",')
