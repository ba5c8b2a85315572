"""The worker process: one local engine behind a JSON pipe.

``worker_main`` is the ``multiprocessing`` entry point for one shard.
It rebuilds its simulator deterministically from a
:class:`~repro.serving.spec.WorkerSpec` (never from shipped objects),
announces ``ready``, then serves ``run`` chunks until told to shut
down.  All replies are JSON (:mod:`repro.serving.messages`); on any
exception while serving a chunk the worker answers ``error`` with the
message text instead of dying silently, so the router can surface it.

Trace export (``pull_trace``) is the worker's one export: with
``spec.trace`` the worker installs a process tracer at boot
(:mod:`repro.obs.trace`), wraps each served chunk in a ``worker.chunk``
span (JIT emit points inside the simulator record on their own
lanes), and ships the raw event buffer plus its unified
``metrics()`` snapshot and a ``perf_counter`` reading — the clock
reference the router's fleet merge uses to normalize this process's
timestamps onto its own.

The ``crash`` message is the fault-injection hook: the worker replies
nothing and hard-exits (``os._exit``), indistinguishable from a kill —
the router's crash-recovery path is exercised by a *real* dead process,
not a simulated flag.
"""

from __future__ import annotations

import os
import time
import traceback

from repro.obs import trace as obs_trace
from repro.serving.messages import (
    recv_msg,
    request_from_wire,
    result_to_wire,
    send_msg,
)
from repro.serving.spec import WorkerSpec

#: Exit status of a fault-injected crash (visible in ``Process.exitcode``).
CRASH_EXIT_CODE = 17


def worker_main(conn, spec_json: str) -> None:
    """Serve one shard over ``conn`` until ``shutdown`` (or ``crash``)."""
    spec = WorkerSpec.from_json(spec_json)
    sim = spec.build_simulator()
    tracer = obs_trace.install() if spec.trace else None
    runtime = sim.decode_linear.runtime
    send_msg(conn, "ready", pid=os.getpid())
    while True:
        msg = recv_msg(conn)
        kind = msg["type"]
        if kind == "shutdown":
            break
        if kind == "crash":
            # Fault injection: die exactly as a killed process would —
            # no reply, no cleanup, no Python-level unwind.
            os._exit(CRASH_EXIT_CODE)
        if kind == "run":
            try:
                requests = [request_from_wire(r) for r in msg["requests"]]
                hits0, misses0 = runtime.reused, runtime.prepared
                trace_start = tracer.now() if tracer is not None else 0.0
                outcome = sim.run(requests)
                if tracer is not None:
                    tracer.complete(
                        "worker.chunk",
                        "worker",
                        obs_trace.HOST_TID,
                        trace_start,
                        tracer.now() - trace_start,
                        {"requests": len(requests)},
                    )
                send_msg(
                    conn,
                    "done",
                    results=[result_to_wire(r) for r in outcome.results],
                    counters={
                        "total_time_s": outcome.total_time_s,
                        "total_tokens": outcome.total_tokens,
                        "kernel_launches": outcome.kernel_launches,
                        "graph_captures": outcome.graph_captures,
                        "graph_replays": outcome.graph_replays,
                        "jit_compiled": outcome.jit_compiled,
                        "jit_promotions": outcome.jit_promotions,
                        # Per-chunk preparation deltas (launches of a
                        # prepared program, programs prepared), so the
                        # router's per-worker breakdown sums correctly
                        # across chunks and respawns.
                        "cache_hits": runtime.reused - hits0,
                        "cache_misses": runtime.prepared - misses0,
                    },
                )
            except Exception as exc:  # noqa: BLE001 — forwarded to router
                send_msg(
                    conn,
                    "error",
                    message=f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                )
        elif kind == "pull_trace":
            # The fleet-trace frame: raw events (this process's
            # monotonic clock), the unified metrics snapshot, and the
            # clock reading the router pairs with its own send/receive
            # bracket to estimate this worker's clock offset.
            send_msg(
                conn,
                "trace",
                trace_v=obs_trace.TRACE_JSON_VERSION,
                events=tracer.events() if tracer is not None else [],
                dropped=tracer.dropped if tracer is not None else 0,
                metrics=sim.metrics(),
                clock_now=time.perf_counter(),
            )
        else:
            send_msg(conn, "error", message=f"unexpected message: {kind!r}")
    conn.close()
