"""Consensus as a service: multi-group runtime over the MAC-layer engine.

The engine (`repro.macsim`) executes consensus over one simulator;
this package turns it into a long-lived *service* in the sense of the
fault-tolerant follow-up work (Newport-Robinson, arXiv:1810.02848):
many independent consensus groups fed by a closed-loop client
workload, spread over forked engines one per core. A group is one
replicated wPAXOS log (`repro.apps.replicated_log`) on one long-lived
simulator, and each batch of client requests is one slot of it: the
leader and routing trees are built once per log, not once per batch.
A slot ends at its first commit, and only finished slots are ordered
in virtual time; every replica's commit is checked as it is made (a
wrong value is an agreement violation), and its whole log at the end.

Layers (bottom up):

* :mod:`.runtime` -- :class:`GroupRuntime`: runs each slot on its
  group's log until a replica committed it, lists violations, and
  hands finished slots out in ``(finish_time, registration order)``.
* :mod:`.frontend` -- per-group proposal queues batching client
  requests into log *slots*.
* :mod:`.workload` -- :class:`WorkloadGenerator`: deterministic
  closed-loop clients, Zipf group popularity, lognormal think times.
* :mod:`.loop` -- :class:`ConsensusService`: the virtual-time serve
  loop (latency = commit - arrival) with per-group telemetry
  attribution.
* :mod:`.sharded` -- :class:`ShardedService`: serve each group as an
  item of the forked pool (one worker per core), merge exactly.
* :mod:`.tracing` -- :class:`RequestTracer` span trees
  (``service-spans/v1``) and the windowed :class:`MetricsRegistry`
  (``service-metrics/v1``) behind ``repro serve --trace-requests`` /
  ``--metrics-out`` / ``repro top``.

Importing the package loads no algorithm: the log's modules load when
the first group's log is built.
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "loop": "ConsensusService GroupStats ServiceReport latency_summary",
    "runtime": "GroupRun GroupRuntime",
    "frontend": "Request ServiceFrontend",
    "tracing": "METRICS_SCHEMA SPAN_SCHEMA SPAN_STAGES MetricsRegistry "
               "RequestTracer prometheus_text",
    "sharded": "ShardedService run_service",
    "workload": "WorkloadGenerator",
})
