"""Plain-text rendering of run documents and of ``--compare``."""

from __future__ import annotations

from typing import Any, Dict, List

from .catalogue import E2E_BETTER, E2E_BOUND, END_TO_END
from .stats import iqr_frac, quartiles


def _number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def render_run(doc: Dict[str, Any]) -> str:
    """Every metric of one run by name, with its unit."""
    env = doc["env"]
    walls = doc["repeats"]["wall_s"]
    mode = "traced" if doc["trace"] else "tracing off"
    lines = [
        f"== {doc['workload']} ({mode}; seed {env['seed']}, "
        f"{len(walls)} timed repeats, nproc {env['nproc']}, python "
        f"{env['python']}, numpy {env['numpy']}, commit "
        f"{env['commit'][:12]}) ==",
        f"   {doc['why']}"]
    if not doc["comparable"]:
        lines.append("   SMOKE SIZES: timings are not comparable with "
                     "a full run")
    lines.append(f"   work {doc['work']:,} {doc['work_unit']}, "
                 f"{doc['virt_samples']:,} virtual-time samples, "
                 f"output digest {doc['digest']}"
                 + (f", {doc['segments']} timed segments per repeat"
                    if "segments" in doc else ""))
    if doc["trace"]:
        lines.extend(_render_budget(doc))
    for name, metric in doc["metrics"].items():
        line = f"   {name:<28} {_number(metric['value']):>14} " \
               f"{metric['unit']}"
        stats = doc.get("summary", {}).get(name)
        if stats is not None:
            line += (f"   [{stats['n']} samples: median "
                     f"{_number(stats['median'])}, q1 "
                     f"{_number(stats['q1'])}, q3 "
                     f"{_number(stats['q3'])}]")
        lines.append(line)
    if "virt_p99" in doc:
        lines.append(f"   {'virt_p99 (not bounded)':<28} "
                     f"{_number(doc['virt_p99']):>14} F_ack")
    failed = [check for check in doc["checks"] if not check[1]]
    lines.append(f"   checks: {len(doc['checks']) - len(failed)} passed, "
                 f"{len(failed)} failed; operations "
                 f"{doc['attempted']:,} attempted, {doc['failed']:,} "
                 f"failed")
    for name, _, detail in failed:
        lines.append(f"   FAILED: {name} ({detail})")
    return "\n".join(lines)


def _render_budget(doc: Dict[str, Any]) -> List[str]:
    wall = doc["traced_wall_s"]
    lines = [f"   traced wall {wall:.3f} s; budget by self time "
             f"(sums to the traced wall):",
             f"     {'boundary':<24} {'calls':>10} {'total_s':>9} "
             f"{'self_s':>9} {'share':>7}"]
    for row in doc["budget"]:
        name = ("(unattributed)" if row["name"] == "bench.repeat"
                else row["name"])
        lines.append(f"     {name:<24} {row['calls']:>10,} "
                     f"{row['total_s']:>9.3f} {row['self_s']:>9.3f} "
                     f"{row['share']:>7.1%}")
    shares = ", ".join(f"{prefix}* {share:.1%}"
                       for prefix, share in doc["shares"].items()
                       if share > 0.0)
    lines.append(f"   layer shares of traced wall: {shares}")
    lines.append(f"   spans written to {doc['trace_file']}")
    return lines


def render_ledger(ledger: Dict[str, Any]) -> str:
    """The headline table of a full run: workloads x end-to-end."""
    names = [name for name, _, _, _ in END_TO_END]
    lines = ["", "== ledger: end-to-end metrics (tracing off) ==",
             "   " + f"{'workload':<18}"
             + "".join(f"{name:>13}" for name in names)
             + f"{'failed':>9}"]
    for workload, entry in ledger["workloads"].items():
        run = entry["end_to_end"]
        lines.append(
            "   " + f"{workload:<18}"
            + "".join(f"{_number(run['metrics'][name]['value']):>13}"
                      for name in names)
            + f"{run['failed']:>9,}")
    lines.append("   units: " + ", ".join(
        f"{name} {unit}" for name, unit, _, _ in END_TO_END)
        + "; work_per_s counts committed requests (serve_*), engine "
          "events (wpaxos_grid20, columnar_flood24), sweep cells "
          "(regen_full)")
    return "\n".join(lines)


# ---------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------
def _samples(run: Dict[str, Any], metric: str) -> List[float]:
    samples = run.get("samples", {}).get(metric)
    return samples if samples else [run["metrics"][metric]["value"]]


def _spread(samples: List[float]) -> str:
    q1, mid, q3 = quartiles(samples)
    return f"{_number(mid)} [{_number(q1)}, {_number(q3)}]"


def verdict(metric: str, base_value: float, new_value: float,
            base: List[float], new: List[float]) -> str:
    """``ok`` / ``worse`` / ``unresolved`` by the metric's own bound.

    The values are the reported (best-case) estimates; ``base`` and
    ``new`` are the repeats behind them. Unresolved when either side's
    quartile spread exceeds the bound, unless every new repeat reads
    better than every base repeat.
    """
    bound = E2E_BOUND[metric]
    if E2E_BETTER[metric] == "lower":
        worse_by = new_value / base_value - 1.0
        all_better = max(new) < min(base)
    else:
        worse_by = 1.0 - new_value / base_value
        all_better = min(new) > max(base)
    if max(iqr_frac(base), iqr_frac(new)) > bound and not all_better:
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def render_compare(base: Dict[str, Any], new: Dict[str, Any]) -> tuple:
    """Per workload x end-to-end metric: both medians and quartiles,
    the ratio with its base, and the verdict. Returns
    ``(text, all_ok)``."""
    lines = []
    keys = ("nproc", "python", "numpy", "seed")
    mismatched = [key for key in keys
                  if base["env"].get(key) != new["env"].get(key)]
    lines.append(f"base: commit {base['env']['commit'][:12]}, "
                 f"new: commit {new['env']['commit'][:12]}")
    if mismatched:
        lines.append("NOT COMPARABLE: the two sets differ in "
                     + ", ".join(mismatched))
    if not (base.get("comparable", True) and new.get("comparable", True)):
        lines.append("NOT COMPARABLE: smoke sizes")
    lines.append(f"{'workload':<18}{'metric':<13}{'base':>11} "
                 f"{'median [q1, q3]':>30}{'new':>11} "
                 f"{'median [q1, q3]':>30}{'new/base':>10}  "
                 f"verdict (bound)")
    all_ok = not mismatched
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            lines.append(f"{workload:<18}missing from the new set")
            all_ok = False
            continue
        run_a, run_b = entry["end_to_end"], other["end_to_end"]
        for metric, unit, _, bound in END_TO_END:
            a, b = _samples(run_a, metric), _samples(run_b, metric)
            best_a = run_a["metrics"][metric]["value"]
            best_b = run_b["metrics"][metric]["value"]
            result = verdict(metric, best_a, best_b, a, b)
            all_ok = all_ok and result == "ok"
            lines.append(
                f"{workload:<18}{metric:<13}{_number(best_a):>11} "
                f"{_spread(a):>30}{_number(best_b):>11} "
                f"{_spread(b):>30}{best_b / best_a:>10.4f}  {result} "
                f"({bound:.0%}; base {_number(best_a)} {unit})")
        for field in ("work", "digest", "virt_p99", "failed"):
            same = run_a[field] == run_b[field]
            if not same:
                all_ok = False
            lines.append(f"{workload:<18}{field:<13}"
                         f"{'identical' if same else 'DIFFERS'}: "
                         f"{run_a[field]} vs {run_b[field]}")
    return "\n".join(lines), all_ok
