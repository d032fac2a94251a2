"""Consensus as a service: multi-group runtime over the MAC-layer engine.

The engine (`repro.macsim`) executes one consensus instance per
simulator; this package turns it into a long-lived *service* in the
sense of the fault-tolerant follow-up work (Newport-Robinson,
arXiv:1810.02848): many independent consensus groups fed by a
closed-loop client workload, spread over forked engines one per
core. The consensus instance is the unit of analysis there and the
unit of execution here: every slot runs to completion in one engine
call, and only finished slots are ordered in virtual time.

Layers (bottom up):

* :mod:`.runtime` -- :class:`GroupRuntime`: runs each instance to its
  terminal state when it is registered (byte-identical to a
  standalone ``simulate()``) and hands finished runs out in
  ``(finish_time, registration order)``.
* :mod:`.frontend` -- per-group proposal queues batching client
  requests into consensus *slots*.
* :mod:`.workload` -- :class:`WorkloadGenerator`: deterministic
  closed-loop clients, Zipf group popularity, lognormal think times.
* :mod:`.loop` -- :class:`ConsensusService`: the virtual-time serve
  loop (latency = commit - arrival) over one resolved scenario
  template reseeded per slot, with per-group telemetry attribution.
* :mod:`.sharded` -- :class:`ShardedService`: serve each group as an
  item of the forked pool (one worker per core), merge exactly.
* :mod:`.tracing` -- :class:`RequestTracer` span trees
  (``service-spans/v1``) and the windowed :class:`MetricsRegistry`
  (``service-metrics/v1``) behind ``repro serve --trace-requests`` /
  ``--metrics-out`` / ``repro top``.
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "loop": "ConsensusService GroupStats ServiceReport latency_summary "
            "slot_scenario slot_seed",
    "runtime": "GroupRun GroupRuntime",
    "frontend": "Request ServiceFrontend",
    "tracing": "METRICS_SCHEMA SPAN_SCHEMA SPAN_STAGES MetricsRegistry "
               "RequestTracer prometheus_text",
    "sharded": "ShardedService run_service",
    "workload": "WorkloadGenerator",
})
