"""Experiment harness: runners, metrics, statistics, table rendering."""

from .cache import (CacheError, CacheVerificationError, ResultCache,
                    cached_run, default_cache_dir)
from .metrics import RunMetrics, collect_metrics
from .runner import (alternating_values, run_consensus, split_values)
from .stats import correlation, growth_ratio, linear_fit, mean, stdev
from .sweeps import (SweepError, SweepPoint, SweepProgress,
                     SweepResult, SweepTimeoutError, SweepWorkerError,
                     parallel_sweep, saturating_workers, sweep)
from .stats_report import (derive_spans, render_stats,
                           stats_from_file)
from .tables import format_markdown_table, format_table
from .export import (iter_saved_records, iter_trace_dicts, load_metadata,
                     load_scenario, load_trace, save_trace, trace_to_json,
                     trace_to_records)

__all__ = [
    "RunMetrics",
    "collect_metrics",
    "run_consensus",
    "alternating_values",
    "split_values",
    "mean",
    "stdev",
    "linear_fit",
    "correlation",
    "growth_ratio",
    "format_table",
    "format_markdown_table",
    "sweep",
    "parallel_sweep",
    "SweepResult",
    "SweepPoint",
    "SweepProgress",
    "SweepError",
    "SweepTimeoutError",
    "SweepWorkerError",
    "saturating_workers",
    "ResultCache",
    "CacheError",
    "CacheVerificationError",
    "cached_run",
    "default_cache_dir",
    "save_trace",
    "load_trace",
    "load_metadata",
    "load_scenario",
    "trace_to_json",
    "trace_to_records",
    "iter_trace_dicts",
    "iter_saved_records",
    "derive_spans",
    "render_stats",
    "stats_from_file",
]
