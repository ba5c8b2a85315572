"""Multi-process sharded serving: the placement/transport layer.

The runtime package is the **local engine**: one process's
:class:`~repro.runtime.runtime.Runtime` owns all engine state — spec
cache, profiler, compiled tier.
This package is everything *between* engines:

- :mod:`~repro.serving.spec` — the deterministic rebuild recipe
  (:class:`WorkerSpec`) that replaces shipping live objects;
  ``WorkerSpec.build_simulator`` is the one place its engine fields
  become a configured runtime;
- :mod:`~repro.serving.messages` — the versioned-JSON wire protocol
  (no pickle ever crosses a process boundary);
- :mod:`~repro.serving.worker` — the shard process entry point;
- :mod:`~repro.serving.router` — worker pool, admission control,
  SLO-aware scheduling, dispatch and crash recovery;
- :mod:`~repro.serving.arrivals` — the open-loop Poisson trace
  generator for benchmarking the above.

See ``docs/serving.md`` for the architecture and failure model.
"""

from repro.serving.arrivals import poisson_trace
from repro.serving.messages import (
    MSG_JSON_VERSION,
    recv_msg,
    request_from_wire,
    request_to_wire,
    result_to_wire,
    send_msg,
)
from repro.serving.router import Router, RouterResult, ServedRequest, WorkerPool
from repro.serving.spec import WorkerSpec
from repro.serving.worker import CRASH_EXIT_CODE, worker_main

__all__ = [
    "CRASH_EXIT_CODE",
    "MSG_JSON_VERSION",
    "Router",
    "RouterResult",
    "ServedRequest",
    "WorkerPool",
    "WorkerSpec",
    "poisson_trace",
    "recv_msg",
    "request_from_wire",
    "request_to_wire",
    "result_to_wire",
    "send_msg",
    "worker_main",
]
