"""Run every experiment and print the regenerated tables.

Usage::

    python -m repro.experiments            # all, ASCII tables
    python -m repro.experiments --markdown # markdown tables
    python -m repro.experiments E3 E4      # a subset
"""

from __future__ import annotations

import sys
import time

from . import ALL_EXPERIMENTS


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    markdown = "--markdown" in argv
    argv = [a for a in argv if not a.startswith("--")]
    wanted = {a.upper() for a in argv} or None

    failures = []
    for exp_id, module in ALL_EXPERIMENTS:
        if wanted is not None and exp_id not in wanted:
            continue
        start = time.time()
        report = module.run()
        elapsed = time.time() - start
        text = (report.render_markdown() if markdown
                else report.render())
        print(text)
        print(f"({exp_id} regenerated in {elapsed:.1f}s)")
        print()
        if not report.passed:
            failures.append(exp_id)
    if failures:
        print(f"FAILED experiments: {failures}")
        return 1
    print("All experiments passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
