"""Run one workload in this process: set-up probes, warm-up, timed
repeats, and (with ``trace``) one more repeat under the wrappers."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

from . import layers
from .catalogue import E2E_UNITS, LAYER_UNITS
from .stats import nearest_rank, summary
from .tracer import Tracer
from .workloads import (LEDGER_DIR, OUT_DIR, REPO_ROOT, WORKLOADS,
                        Outcome, cpu_seconds, import_repro, nproc)

#: Fresh interpreters timed for ``setup_s`` (the fastest is reported).
SETUP_PROBES = 5
#: Fewest timed repeats, however long one takes.
MIN_REPEATS = 3
#: Untraced repeats a traced run makes first: the base for the tracing
#: overhead and the source of the shard and sweep-executor rows.
TRACE_BASE_REPEATS = 2


def environment(seed: int) -> Dict[str, Any]:
    """What two result files must share to be comparable."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = "unknown"
    if (REPO_ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"],
                              cwd=REPO_ROOT, capture_output=True,
                              text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit, "seed": seed}


def peak_rss_mb() -> float:
    """High-water resident set of this process or any reaped child
    (forked shards and sweep workers), whichever is larger."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def setup_probe(name: str, seed: int, smoke: bool,
                process_start: float) -> Dict[str, float]:
    """Body of one ``--setup-probe`` interpreter: import ``repro`` and
    build the workload's inputs, timed from process entry."""
    import_s = import_repro()
    WORKLOADS[name].build(seed, smoke)
    return {"setup_s": perf_counter() - process_start,
            "import_s": import_s}


def measure_setup(name: str, seed: int, smoke: bool) -> List[float]:
    """``setup_s`` samples from fresh interpreters, one at a time."""
    command = [sys.executable, str(LEDGER_DIR / "__main__.py"),
               "--setup-probe", name, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    samples = []
    for _ in range(2 if smoke else SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe for {name} failed:\n"
                             f"{done.stderr}")
        samples.append(json.loads(done.stdout.splitlines()[-1])
                       ["setup_s"])
    return samples


def composite_wall(outcomes: List[Outcome]) -> float:
    """The measured region's wall with every segment at its fastest
    repeat.

    On a shared box interference only ever adds time, in bursts of
    0.1-1 s and in slow phases of many seconds (identical work read
    2.0-2.8 s here with CPU time tracking wall time), so a 2 s repeat
    almost never runs clean and even the fastest of seven carries
    some. A 0.1-0.2 s segment often does run clean: taking each
    segment's minimum over the repeats and summing estimates the
    undisturbed wall far more steadily than any single repeat. With
    one segment per repeat this is the fastest repeat.
    """
    pieces = {len(outcome.segments) for outcome in outcomes}
    if len(pieces) != 1:
        raise RuntimeError(f"repeats disagree on their segments: "
                           f"{sorted(pieces)}")
    return sum(min(column) for column in
               zip(*(outcome.segments for outcome in outcomes)))


def _repeat(workload, inputs, tracer=None) -> Outcome:
    gc.collect()
    return workload.run(inputs, tracer)


def _timed_repeats(workload, inputs, seconds: float,
                   repeats: Optional[int]) -> List[Outcome]:
    """Repeat until the next one would overrun ``seconds`` of measured
    time (never fewer than ``MIN_REPEATS``), or exactly ``repeats``
    times when given."""
    outcomes: List[Outcome] = []
    spent = 0.0
    while True:
        outcomes.append(_repeat(workload, inputs))
        spent += outcomes[-1].wall_s
        if repeats is not None:
            if len(outcomes) >= repeats:
                return outcomes
        elif (len(outcomes) >= MIN_REPEATS
              and spent + spent / len(outcomes) > seconds):
            return outcomes


def run_workload(name: str, *, seed: int, seconds: float,
                 repeats: Optional[int], smoke: bool,
                 trace: bool) -> Dict[str, Any]:
    """One workload, one mode; returns the full result document (the
    contract's last-line JSON is a projection of it)."""
    workload = WORKLOADS[name]
    setup_samples = ([] if trace
                     else measure_setup(name, seed, smoke))
    import_s = import_repro()
    inputs = workload.build(seed, smoke)
    if repeats is None and (trace or smoke):
        # Two repeats are the least that can show the outputs repeat.
        repeats = TRACE_BASE_REPEATS

    warmup_s = 0.0
    outcomes: List[Outcome] = []
    if workload.warmup:
        outcomes.append(_repeat(workload, inputs))
        warmup_s = outcomes[0].wall_s
    timed = _timed_repeats(workload, inputs, seconds, repeats)
    outcomes.extend(timed)
    reference = outcomes[0]

    checks = [list(check) for outcome in outcomes
              for check in outcome.checks if not check[1]]
    checks = checks or [list(check) for check in reference.checks]
    digests = {outcome.digest for outcome in outcomes}
    checks.append(["outputs identical on every repeat",
                   len(digests) == 1 and len(outcomes) > 1,
                   f"{len(digests)} digests over {len(outcomes)} "
                   f"repeats"])

    walls = [outcome.wall_s for outcome in timed]
    virt = reference.virt
    doc: Dict[str, Any] = {
        "schema": "ledger-run/v1",
        "workload": name, "why": workload.why,
        "work_unit": workload.work_unit,
        "trace": trace, "smoke": smoke,
        "comparable": not smoke,
        "env": environment(seed),
        "work": reference.work,
        "virt_samples": len(virt),
        "digest": reference.digest,
        "repeats": {"wall_s": walls, "warmup_s": warmup_s},
    }

    if not trace:
        rates = [outcome.work / outcome.wall_s for outcome in timed]
        # Host times are best-case estimates, not medians (see
        # ``composite_wall``); the repeats' medians and quartiles are
        # kept beside them.
        wall = composite_wall(timed)
        values = {
            "setup_s": min(setup_samples),
            "wall_s": wall,
            "work_per_s": reference.work / wall,
            "peak_rss_mb": peak_rss_mb(),
            "virt_p50": nearest_rank(virt, 0.50),
        }
        doc["virt_p99"] = nearest_rank(virt, 0.99)
        doc["segments"] = len(reference.segments)
        doc["metrics"] = {key: {"value": value, "unit": E2E_UNITS[key]}
                          for key, value in values.items()}
        doc["samples"] = {"setup_s": setup_samples, "wall_s": walls,
                          "work_per_s": rates}
        doc["summary"] = {key: summary(samples)
                          for key, samples in doc["samples"].items()}
    else:
        tracer = Tracer()
        probes = layers.install(tracer)
        try:
            traced = _repeat(workload, inputs, tracer)
        finally:
            tracer.restore()
        checks.extend(list(check) for check in traced.checks
                      if not check[1])
        # Inline shards and the serial executor must reproduce the
        # forked runs' outputs: serial == sharded, traced == untraced.
        checks.append(["traced repeat reproduces the timed outputs",
                       traced.digest == reference.digest,
                       f"{traced.digest} vs {reference.digest}"])
        totals = tracer.totals()
        values = layers.per_layer_metrics(
            tracer=tracer, totals=totals, probes=probes, traced=traced,
            timed=timed, import_s=import_s, warmup_s=warmup_s,
            cpu_s=cpu_seconds())
        checks.append(["budget attributes >= 90% of the traced wall",
                       values["bench.unattributed_frac"] <= 0.10,
                       f"{values['bench.unattributed_frac']:.3f} "
                       f"unattributed"])
        doc["metrics"] = {key: {"value": value,
                                "unit": LAYER_UNITS[key]}
                          for key, value in values.items()}
        traced_wall = tracer.wall_s
        doc["traced_wall_s"] = traced_wall
        doc["budget"] = layers.budget_rows(totals, traced_wall)
        doc["shares"] = {
            prefix: layers.layer_share(totals, prefix, traced_wall)
            for prefix in ("scenario.", "handlers.", "simulator.",
                           "schedulers.", "sink.", "service.")}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace_{name}.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "env": doc["env"],
                       **tracer.to_json()}, handle)
        doc["trace_file"] = os.path.relpath(trace_path, REPO_ROOT)

    failed_checks = [check for check in checks if not check[1]]
    attempted = sum(outcome.attempted for outcome in timed)
    doc["checks"] = checks
    doc["correct"] = not failed_checks
    doc["attempted"] = attempted
    # A failed correctness check fails every operation: a wrong answer
    # delivered fast is not a success.
    doc["failed"] = (attempted if failed_checks
                     else sum(outcome.failed for outcome in timed))
    return doc


def contract_line(doc: Dict[str, Any]) -> str:
    """The one JSON object the driver reads off the last line."""
    return json.dumps({"correct": doc["correct"],
                       "attempted": doc["attempted"],
                       "failed": doc["failed"],
                       "metrics": doc["metrics"]})
