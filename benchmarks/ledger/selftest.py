"""``python -m benchmarks.ledger --self-test``: the ledger's own
arithmetic, checked without pytest (tier-1 collects ``tests/`` only)."""

from __future__ import annotations

import json
import random
from typing import Callable, List

from . import layers
from .catalogue import benchmark_json
from .report import verdict
from .stats import latency_digest, nearest_rank, quartiles
from .tracer import CHILD_S, END, PARENT, START, Tracer
from .runner import composite_wall
from .workloads import REPO_ROOT, WORKLOADS, Outcome, import_repro


def _check_nearest_rank() -> None:
    sample = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert nearest_rank(sample, 0.05) == 15.0
    assert nearest_rank(sample, 0.30) == 20.0
    assert nearest_rank(sample, 0.40) == 20.0
    assert nearest_rank(sample, 0.50) == 35.0
    assert nearest_rank(sample, 1.00) == 50.0
    assert nearest_rank(list(reversed(sample)), 0.50) == 35.0
    hundred = [float(i) for i in range(1, 101)]
    assert nearest_rank(hundred, 0.99) == 99.0
    assert nearest_rank([7.0], 0.99) == 7.0
    assert quartiles([3.0]) == [3.0, 3.0, 3.0]
    try:
        nearest_rank([], 0.5)
    except ValueError:
        return
    raise AssertionError("empty sample must raise")


def _check_digest() -> None:
    rng = random.Random(7)
    sample = [rng.random() * 50 for _ in range(1000)]
    shuffled = sample[:]
    rng.shuffle(shuffled)
    assert latency_digest(sample) == latency_digest(shuffled)
    # Shard-by-shard concatenation is one such reordering.
    assert latency_digest(sample[500:] + sample[:500]) \
        == latency_digest(sample)
    nudged = sample[:]
    nudged[3] += 1e-12
    assert latency_digest(nudged) != latency_digest(sample)
    assert latency_digest(sample[:-1]) != latency_digest(sample)


def _check_self_time() -> None:
    """On a scripted clock: children never exceed their parent, and
    self times sum to the root's wall exactly."""
    ticks = iter(range(0, 10_000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.fold_wrapper("leaf", lambda: None)

    def middle() -> None:
        leaf()
        leaf()

    folded_middle = tracer.fold_wrapper("middle", middle)

    def coarse() -> None:
        folded_middle()
        leaf()

    spanned = tracer.span_wrapper("coarse", coarse)
    with tracer.span("root"):
        spanned()
        leaf()
        spanned()
    totals = tracer.totals()
    root = tracer.spans[0]
    wall = root[END] - root[START]
    assert abs(sum(row["self_s"] for row in totals.values()) - wall) \
        < 1e-9, (totals, wall)
    assert totals["leaf"]["calls"] == 7
    assert totals["middle"]["calls"] == 2
    assert totals["coarse"]["calls"] == 2
    for row in totals.values():
        assert 0.0 <= row["self_s"] <= row["total_s"]
    for span in tracer.spans:
        duration = span[END] - span[START]
        assert 0.0 <= span[CHILD_S] <= duration
        if span[PARENT] >= 0:
            parent = tracer.spans[span[PARENT]]
            assert parent[START] <= span[START]
            assert span[END] <= parent[END]
    # Outside a traced repeat a wrapper is a pass-through.
    before = len(tracer.spans)
    spanned()
    assert len(tracer.spans) == before
    json.dumps(tracer.to_json())


def _check_install_restore() -> None:
    """Installing and restoring leaves every patched attribute the
    very object it was."""
    import_repro()
    from . import flood  # noqa: F401  (its Process subclass is patched)
    tracer = Tracer()
    layers.install(tracer)
    patched = tracer.patched
    assert len(patched) > 40, len(patched)
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is not raw, (owner, attr)
    tracer.restore()
    assert not tracer.patched
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is raw, (owner, attr)


def _check_verdict() -> None:
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    slower = [v * 1.5 for v in steady]
    assert verdict("wall_s", 0.99, 0.99, steady, steady) == "ok"
    assert verdict("wall_s", 0.99, 1.48, steady, slower) == "worse"
    assert verdict("work_per_s", 1.02, 0.51, steady,
                   [v * 0.5 for v in steady]) == "worse"
    assert verdict("work_per_s", 1.02, 1.53, steady, slower) == "ok"
    noisy = [0.6, 1.0, 1.4, 0.7, 1.3]
    assert verdict("wall_s", 0.6, 0.6, noisy, noisy) == "unresolved"
    # Every new repeat better than every base repeat resolves it.
    assert verdict("wall_s", 0.6, 0.1, noisy, [0.1, 0.2, 0.3]) == "ok"


def _check_composite() -> None:
    """Each segment at its fastest repeat; never above any repeat."""
    def outcome(segments):
        return Outcome(wall_s=sum(segments), segments=segments, work=1,
                       attempted=1, failed=0, virt=[1.0], digest="d")
    repeats = [outcome([1.0, 5.0, 2.0]), outcome([3.0, 2.0, 2.5]),
               outcome([1.5, 4.0, 1.0])]
    assert composite_wall(repeats) == 1.0 + 2.0 + 1.0
    assert composite_wall(repeats) <= min(r.wall_s for r in repeats)
    assert composite_wall([outcome([2.0]), outcome([1.5])]) == 1.5
    try:
        composite_wall([outcome([1.0]), outcome([1.0, 1.0])])
    except RuntimeError:
        return
    raise AssertionError("mismatched segments must raise")


def _check_contract_file() -> None:
    """``BENCHMARK.json`` says what the catalogue says."""
    path = REPO_ROOT / "BENCHMARK.json"
    with open(path, encoding="utf-8") as handle:
        on_disk = json.load(handle)
    assert on_disk == benchmark_json(WORKLOADS.values()), \
        "BENCHMARK.json is out of date: rewrite it with --write-contract"
    for entry in on_disk["workloads"]:
        assert len(entry["why"]) <= 200, entry["name"]


CHECKS: List[Callable[[], None]] = [
    _check_nearest_rank, _check_digest, _check_self_time,
    _check_install_restore, _check_verdict, _check_composite,
    _check_contract_file,
]


def run_self_test() -> int:
    failures = 0
    for check in CHECKS:
        name = check.__name__.replace("_check_", "").replace("_", " ")
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"self-test: {len(CHECKS) - failures} passed, "
          f"{failures} failed")
    return 1 if failures else 0
