"""Experiment harness: runners, metrics, statistics, table rendering."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "metrics": "RunMetrics collect_metrics",
    "runner": "run_consensus alternating_values split_values",
    "stats": "mean stdev linear_fit correlation growth_ratio",
    "tables": "format_table format_markdown_table",
    "sweeps": "sweep parallel_sweep SweepResult SweepPoint SweepProgress "
              "SweepError SweepWorkerError "
              "saturating_workers",
    "cache": "ResultCache CacheError CacheVerificationError cached_run "
             "default_cache_dir",
    "export": "save_trace load_trace load_metadata load_scenario "
              "trace_to_json trace_to_records iter_trace_dicts "
              "iter_saved_records",
    "stats_report": "derive_spans render_stats stats_from_file",
})
