"""Entry point: ``python -m benchmarks.ledger`` or, as the benchmark
contract runs it, ``python3 benchmarks/ledger/__main__.py``."""

from time import perf_counter

# Set-up time is measured from process entry, before any other import.
_PROCESS_START = perf_counter()

import sys  # noqa: E402

if __package__:
    from .cli import main
else:
    # Run as a file: make the package importable under its own name so
    # the relative imports inside it resolve.
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.ledger.cli import main

if __name__ == "__main__":
    sys.exit(main(process_start=_PROCESS_START))
