"""Command line of the perf ledger.

Three ways in:

* ``python -m benchmarks.ledger`` -- the whole ledger: every selected
  workload in its own child process with tracing off, then once more
  traced for the per-layer budget; prints every metric by name and
  writes ``out/ledger_seed<N>.json``.
* ``... --workload NAME --seed N --seconds S --trace 0|1`` -- one
  workload, one mode, in this process; the last line of standard
  output is the JSON object the benchmark contract reads.
* ``--compare A.json B.json`` and ``--self-test``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

from .catalogue import RUN_SECONDS, benchmark_json
from .report import render_compare, render_ledger, render_run
from .workloads import LEDGER_DIR, OUT_DIR, REPO_ROOT, WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="Perf ledger: five workloads, end-to-end "
                    "headlines and a per-layer wall-time budget.")
    parser.add_argument("--workload", action="append", default=None,
                        choices=sorted(WORKLOADS), metavar="NAME",
                        help="run only this workload (repeatable); "
                             f"one of {', '.join(WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds every scenario and workload seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured time per workload; repeats "
                             "stop when the next would overrun it")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exactly this many timed repeats instead")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        default=None,
                        help="run one workload in this process: 0 "
                             "prints the end-to-end metrics, 1 the "
                             "per-layer ones (needs one --workload)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced repeat of a full run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: correctness checks and "
                             "schema only, timings not comparable")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="where a full run writes its ledger "
                             "(default out/ledger_seed<N>.json)")
    parser.add_argument("--compare", nargs=2, default=None,
                        metavar=("BASE.json", "NEW.json"),
                        help="compare two ledgers metric by metric")
    parser.add_argument("--self-test", action="store_true",
                        help="check the ledger's own arithmetic")
    parser.add_argument("--write-contract", action="store_true",
                        help="rewrite BENCHMARK.json from the metric "
                             "catalogue")
    parser.add_argument("--setup-probe", default=None,
                        choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    parser.add_argument("--json-out", default=None,
                        help=argparse.SUPPRESS)
    return parser


def _run_single(args, name: str) -> int:
    from .runner import contract_line, run_workload
    doc = run_workload(name, seed=args.seed, seconds=args.seconds,
                       repeats=args.repeats, smoke=args.smoke,
                       trace=bool(args.trace))
    print(render_run(doc))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    print(contract_line(doc), flush=True)
    return 0 if doc["correct"] else 1


def _child(args, name: str, trace: int) -> Optional[Dict[str, Any]]:
    """One workload, one mode, in its own interpreter."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    json_out = OUT_DIR / f"run_{name}_trace{trace}.json"
    command = [sys.executable, str(LEDGER_DIR / "__main__.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--json-out", str(json_out)]
    if args.repeats is not None:
        command += ["--repeats", str(args.repeats)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    # Everything but the machine-readable last line.
    print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
    if not json_out.exists():
        print(f"   {name} (trace {trace}) exited with code "
              f"{done.returncode} and no result")
        return None
    with open(json_out, encoding="utf-8") as handle:
        doc = json.load(handle)
    json_out.unlink()
    return doc


def _run_ledger(args) -> int:
    names = args.workload or list(WORKLOADS)
    started = perf_counter()
    ledger: Dict[str, Any] = {"schema": "ledger/v1", "env": None,
                              "comparable": not args.smoke,
                              "workloads": {}}
    healthy = True
    for name in names:
        end_to_end = _child(args, name, 0)
        per_layer = None if args.no_trace else _child(args, name, 1)
        wanted = [end_to_end] if args.no_trace else [end_to_end,
                                                     per_layer]
        healthy = healthy and all(doc is not None and doc["correct"]
                                  for doc in wanted)
        if end_to_end is None:
            continue
        ledger["env"] = end_to_end["env"]
        ledger["workloads"][name] = {"end_to_end": end_to_end,
                                     "per_layer": per_layer}
    if ledger["workloads"]:
        print(render_ledger(ledger))
        path = args.out or str(OUT_DIR / f"ledger_seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1)
        print(f"   ledger written to {path} "
              f"({perf_counter() - started:.0f} s)")
    print("   every correctness check passed" if healthy
          else "   FAILED: see the checks above")
    return 0 if healthy else 1


def _compare(paths: List[str]) -> int:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    text, all_ok = render_compare(docs[0], docs[1])
    print(text)
    print("compare: every end-to-end metric within its bound"
          if all_ok else "compare: NOT all ok (see verdicts above)")
    return 0 if all_ok else 1


def main(argv: Optional[List[str]] = None,
         process_start: Optional[float] = None) -> int:
    if process_start is None:
        process_start = perf_counter()
    args = _parser().parse_args(argv)
    if args.compare:
        return _compare(args.compare)
    if args.self_test:
        from .selftest import run_self_test
        return run_self_test()
    if args.write_contract:
        with open(REPO_ROOT / "BENCHMARK.json", "w",
                  encoding="utf-8") as handle:
            json.dump(benchmark_json(WORKLOADS.values()), handle,
                      indent=2)
            handle.write("\n")
        return 0
    if args.setup_probe:
        from .runner import setup_probe
        print(json.dumps(setup_probe(args.setup_probe, args.seed,
                                     args.smoke, process_start)))
        return 0
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            raise SystemExit("--trace runs exactly one --workload")
        return _run_single(args, args.workload[0])
    return _run_ledger(args)
