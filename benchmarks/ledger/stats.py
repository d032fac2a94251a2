"""The ledger's own arithmetic: percentiles, quartiles, digests.

Kept apart from the repo's two percentile helpers on purpose
(``telemetry.quantile`` interpolates, ``tracing.latency_summary`` is
nearest-rank): the benchmark must keep reading the same number while a
later PR merges those two, so it depends on neither.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import struct
from typing import Dict, Iterable, List, Sequence


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    fraction ``q`` of the sample at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives
    them (the rule the driver applies to the ten-seed spread); a
    single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def iqr_frac(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else 0.0


def summary(values: Sequence[float]) -> Dict[str, float]:
    q1, mid, q3 = quartiles(values)
    return {"n": len(values), "median": mid, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def latency_digest(samples: Iterable[float]) -> str:
    """Order-stable digest of a float multiset.

    Sorted before hashing so a sharded run (latencies concatenated
    shard by shard) and a serial run (commit order) of the same
    requests digest identically; packed as IEEE doubles so equality is
    bit-exact, not print-rounded.
    """
    ordered = sorted(samples)
    blob = struct.pack(f"<{len(ordered)}d", *ordered)
    return hashlib.sha256(blob).hexdigest()[:16]
