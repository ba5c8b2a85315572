"""Unified observability: structured tracing + the metrics registry.

Two halves, both process-scoped and dependency-free (stdlib only, no
imports from the layers they observe):

- :mod:`repro.obs.trace` — a thread-safe, ring-buffered span/instant
  recorder with near-zero cost when disabled.  Every layer of the stack
  carries emit points (runtime launches, stream group execution, graph
  capture/replay, JIT lowering, router dispatch, worker
  chunks) that fire only while a tracer is installed; the buffer exports
  as Chrome trace-event JSON loadable in Perfetto, with pid mapped to
  process (router/worker) and tid to stream.  Worker processes ship
  their buffers to the router over the serving wire protocol and
  :meth:`~repro.serving.router.Router.fleet_trace` merges them on one
  clock (see ``docs/observability.md``).

- :mod:`repro.obs.metrics` — the frozen dot-namespaced key contracts
  behind every ``metrics()`` snapshot (``Runtime``,
  ``ContinuousBatchingSimulator``, ``RouterResult``), subsuming the
  scattered per-subsystem counter dicts under one stable namespace.
"""

from repro.obs.metrics import (
    ROUTER_METRICS_KEYS,
    RUNTIME_METRICS_KEYS,
    SIMULATOR_METRICS_KEYS,
    validate_metrics,
    zero_metrics,
)
from repro.obs.trace import (
    HOST_TID,
    POOL_TID,
    TRACE_JSON_VERSION,
    Tracer,
    active,
    chrome_trace,
    install,
    merge_process_traces,
    summarize_trace,
    uninstall,
)

__all__ = [
    "HOST_TID",
    "POOL_TID",
    "TRACE_JSON_VERSION",
    "Tracer",
    "active",
    "chrome_trace",
    "install",
    "merge_process_traces",
    "summarize_trace",
    "uninstall",
    "ROUTER_METRICS_KEYS",
    "RUNTIME_METRICS_KEYS",
    "SIMULATOR_METRICS_KEYS",
    "validate_metrics",
    "zero_metrics",
]
