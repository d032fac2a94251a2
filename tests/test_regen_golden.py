"""Cross-commit golden tables for the manifest drivers.

A manifest driver is an experiment module that defines ``manifest()``
(E1/E2/E3/E8/E9/E11/E12/E13). CI's ``regen-smoke`` and the ledger's
``regen_full`` checks compare two passes inside one tree (cold vs
warm), so a change that moves *both* passes them. These digests are
committed: every manifest driver's rendered table and each
``regenerate(load_manifest(id))`` text must stay byte-identical across
commits whatever trace level the cells run at. ``TABLES_DIGEST`` is the
ledger's ``regen_full`` output digest, over its six drivers.

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
from repro.analysis.manifests import (load_manifest, manifest_drivers,
                                      regenerate)
from repro.experiments import EXPERIMENTS
from repro.macsim.trace import Trace, TraceLevel

CELLS = 141
#: E9's dual-graph cells declare ``check_invariants=False`` (deadlocks
#: hit the time limit mid-ack); every other cell is audited.
UNCHECKED_CELLS = 28

#: The ledger's ``regen_full`` drivers.
LEDGER_IDS = ("E1", "E2", "E3", "E9", "E12", "E13")

#: sha256 over ``"\n".join(run(...).render())`` of ``LEDGER_IDS``
#: sorted by id, first 16 hex digits.
TABLES_DIGEST = "17fbff3d2fa7a2d1"

#: Full sha256 of E8's and E11's default ``run().render()``
#: (``TABLES_DIGEST`` covers only the ledger's six drivers).
E8_RENDER_SHA256 = (
    "d6a451d8317b05d5f7172296dc2733ef37422bc7f7fbb53d51f56393d4838344")
E11_RENDER_SHA256 = (
    "6a3a6c0be76430f07874af3b00e6eb9252a766f26ca87b1447601e2a730bc5fa")

#: id -> sha256 of ``regenerate(load_manifest(id))``, first 16 hex.
REGEN_DIGESTS = {
    "E1": "c2eaeb9daf0db09f",
    "E2": "b090411a31e0b3fd",
    "E3": "edaed64380b2a9e1",
    "E8": "03ebaeac293dfb95",
    "E9": "9275bf558ab1ee88",
    "E11": "72360e3e095a7920",
    "E12": "380cad6961963fef",
    "E13": "a201a475a3a57ecf",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def driver_tables(cache) -> dict:
    return {eid: importlib.import_module(EXPERIMENTS[eid]).run(
                cache=cache, workers=1).render()
            for eid in REGEN_DIGESTS}


def ledger_digest(tables: dict) -> str:
    return _digest("\n".join(tables[eid] for eid in sorted(LEDGER_IDS)))


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
    assert ledger_digest(cold[1]) == TABLES_DIGEST


@pytest.mark.parametrize("experiment_id, sha256", [
    ("E8", E8_RENDER_SHA256), ("E11", E11_RENDER_SHA256)])
def test_migrated_driver_renders_are_unchanged(cold, experiment_id,
                                               sha256):
    table = cold[1][experiment_id]
    assert hashlib.sha256(table.encode("utf-8")).hexdigest() == sha256


def test_cold_pass_is_one_miss_and_one_store_per_cell(cold):
    assert cold[2] == (0, CELLS, CELLS)


def test_every_checked_cell_is_audited_online(cold):
    scenarios = [scenario for eid in REGEN_DIGESTS
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
    assert sorted(REGEN_DIGESTS) == sorted(manifest_drivers())


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        tables = driver_tables(cache)
        print("TABLES_DIGEST =", ledger_digest(tables))
        for eid in ("E8", "E11"):
            print(f"{eid}_RENDER_SHA256 =", hashlib.sha256(
                tables[eid].encode("utf-8")).hexdigest())
        for eid in REGEN_DIGESTS:
            text = regenerate(load_manifest(eid), cache=cache,
                              workers=1)
            print(f'    "{eid}": "{_digest(text)}",')
