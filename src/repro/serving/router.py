"""The front-end router: admission, SLO scheduling, dispatch, recovery.

The placement/transport half of the engine/transport split.  A
:class:`WorkerPool` owns N worker processes (spawned, one
:class:`~repro.llm.batching.ContinuousBatchingSimulator` each, JSON
pipes only); the :class:`Router` in front of it turns an open-loop
request trace into per-worker chunks:

1. **Admission control** — a virtual-clock sweep over the trace using
   the analytic serving model: the router simulates ``workers ×
   max_batch`` serving slots as a min-heap of free times and rejects
   any request whose projected queueing delay exceeds
   ``admission_wait_s`` (or that finds the queue at ``max_queue``).
   Overload is shed at the door, where it is cheap, instead of
   poisoning every in-flight request's tail latency.
2. **SLO-aware scheduling** — admitted requests are ordered by
   ``(-priority, deadline, arrival, rid)``: strict priority first,
   earliest-deadline-first within a priority level
   (``deadline = arrival + slo_s``; best-effort requests sort last).
3. **Dispatch** — the scheduled queue is cut into ``chunk_size``
   chunks, handed to idle workers as they free up, and results are
   collected as each worker answers.
4. **Crash recovery** — a worker that dies mid-chunk (its pipe drops or
   its process exits without answering) has its chunk *reinserted into
   the schedule by policy order* — the same ``(-priority, deadline,
   arrival, rid)`` key that built the queue, FIFO among equals — and is
   respawned from its spec.  (Front-inserting the recovered chunk would
   let a low-priority chunk starve higher-priority queued work under
   strict-priority scheduling.)  Requests are never lost and never
   double-counted: a chunk's results are recorded only when its
   ``done`` message arrives, so a half-served chunk simply runs again —
   decode outputs are deterministic per ``rid``, so a re-dispatched
   request produces the identical digest.

The router holds **no engine state**: everything it knows about a shard
arrived as JSON (``done`` results, ``state`` exports), and everything a
shard knows was rebuilt from the :class:`~repro.serving.spec.WorkerSpec`
recipe.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

from repro.errors import VMError
from repro.llm.batching import Request, _percentile
from repro.obs import trace as obs_trace
from repro.serving.messages import recv_msg, request_to_wire, send_msg
from repro.serving.spec import WorkerSpec


class WorkerHandle:
    """One worker process + its pipe, respawnable from the spec."""

    def __init__(self, index: int, spec: WorkerSpec, ctx) -> None:
        self.index = index
        self.spec = spec
        self._ctx = ctx
        self.conn = None
        self.process = None
        self.respawns = 0

    def start(self, timeout_s: float = 60.0) -> None:
        """Spawn the process and block until it reports ``ready``
        (build + first compile happen before any chunk is dispatched)."""
        from repro.serving.worker import worker_main

        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.spec.to_json()),
            name=f"repro-serving-worker-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.conn, self.process = parent_conn, process
        if not parent_conn.poll(timeout_s):
            self.kill()
            raise VMError(f"worker {self.index} did not become ready")
        msg = recv_msg(parent_conn)
        if msg["type"] != "ready":
            self.kill()
            raise VMError(f"worker {self.index} sent {msg['type']!r} before ready")

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def respawn(self, timeout_s: float = 60.0) -> None:
        self.kill()
        self.start(timeout_s)
        self.respawns += 1

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def shutdown(self) -> None:
        """Ask for a clean exit; escalate to kill if ignored."""
        if self.conn is not None and self.alive:
            try:
                send_msg(self.conn, "shutdown")
                self.process.join(timeout=10.0)
            except (BrokenPipeError, OSError):
                pass
        self.kill()


class WorkerPool:
    """N workers built from one spec (spawn context: no inherited state,
    the spec recipe is the *only* channel for engine identity)."""

    def __init__(
        self, spec: WorkerSpec, num_workers: int, start_method: str = "spawn"
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.spec = spec
        ctx = mp.get_context(start_method)
        self.handles = [WorkerHandle(i, spec, ctx) for i in range(num_workers)]
        self._started = False

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def start(self, timeout_s: float = 60.0) -> None:
        if not self._started:
            for handle in self.handles:
                handle.start(timeout_s)
            self._started = True

    def shutdown(self) -> None:
        for handle in self.handles:
            handle.shutdown()
        self._started = False

    def inject_crash(self, index: int) -> None:
        """Fault injection: tell worker ``index`` to hard-exit
        (``os._exit`` — no reply, no cleanup), as if it segfaulted."""
        handle = self.handles[index]
        if handle.conn is not None:
            try:
                send_msg(handle.conn, "crash")
            except (BrokenPipeError, OSError):
                pass

    def pull_state(self, index: int, timeout_s: float = 60.0) -> dict:
        """One worker's cumulative profile + cache (and JIT) counters,
        as JSON-decoded payload."""
        handle = self.handles[index]
        send_msg(handle.conn, "pull_state")
        if not handle.conn.poll(timeout_s):
            raise VMError(f"worker {index} did not answer pull_state")
        msg = recv_msg(handle.conn)
        if msg["type"] != "state":
            raise VMError(f"worker {index} answered {msg['type']!r} to pull_state")
        return msg

    def pull_trace(self, index: int, timeout_s: float = 60.0) -> dict:
        """One worker's trace buffer + metrics snapshot, with its clock
        offset onto *this* process's ``perf_counter`` estimated
        NTP-style: the request/reply is bracketed locally and the
        worker's reported reading is assumed to fall at the bracket
        midpoint — ``offset = clock_now - (t_send + t_recv) / 2``.
        Subtracting ``clock_offset_s`` from the worker's raw timestamps
        maps them onto the router clock (the pipe round-trip is tens of
        microseconds, far finer than the millisecond-scale spans being
        merged)."""
        handle = self.handles[index]
        t_send = time.perf_counter()
        send_msg(handle.conn, "pull_trace")
        if not handle.conn.poll(timeout_s):
            raise VMError(f"worker {index} did not answer pull_trace")
        msg = recv_msg(handle.conn)
        t_recv = time.perf_counter()
        if msg["type"] != "trace":
            raise VMError(f"worker {index} answered {msg['type']!r} to pull_trace")
        if msg.get("trace_v") != obs_trace.TRACE_JSON_VERSION:
            raise VMError(
                f"worker {index} trace version mismatch: got "
                f"{msg.get('trace_v')!r}, expected {obs_trace.TRACE_JSON_VERSION}"
            )
        msg["clock_offset_s"] = float(msg["clock_now"]) - 0.5 * (t_send + t_recv)
        return msg


@dataclass
class ServedRequest:
    """One completed request as the router recorded it."""

    request: Request
    ttft_s: float
    latency_s: float
    digest: str | None
    worker: int

    @property
    def slo_met(self) -> bool:
        return self.latency_s <= self.request.slo_s


@dataclass
class RouterResult:
    """Aggregate outcome of one routed trace."""

    completed: list[ServedRequest] = field(default_factory=list)
    rejected: list[Request] = field(default_factory=list)
    #: Requests re-dispatched after a worker crash (each counted once
    #: per re-dispatch) and workers respawned during the trace.
    redispatched: int = 0
    respawns: int = 0
    #: Real wall-clock time of the dispatch loop (reported, not gated:
    #: it depends on host core count, while the simulated timings below
    #: are deterministic).
    wall_s: float = 0.0
    #: Per-worker **simulated** serving time: the sum of the virtual
    #: durations of every chunk the worker served.  The repo's latency
    #: accounting is analytic throughout (the VM is functional, not a
    #: timing model), so sharded-serving speedups are measured on these.
    worker_time_s: dict = field(default_factory=dict)
    total_tokens: int = 0
    kernel_launches: int = 0
    graph_captures: int = 0
    graph_replays: int = 0
    #: Compiled-tier counters summed over worker chunks (``jit=True``
    #: specs): specializations compiled and compiled executions run.
    jit_compiled: int = 0
    jit_promotions: int = 0
    #: Raw per-worker counter sums (every ``done``-frame counter, keyed
    #: by worker index) — the source :meth:`per_worker` reads.
    worker_counters: dict = field(default_factory=dict)

    @property
    def num_completed(self) -> int:
        return len(self.completed)

    @property
    def simulated_makespan_s(self) -> float:
        """Simulated completion time of the sharded trace: the busiest
        worker's total virtual serving time (workers serve their chunk
        queues concurrently)."""
        return max(self.worker_time_s.values(), default=0.0)

    @property
    def simulated_throughput_tokens_per_s(self) -> float:
        makespan = self.simulated_makespan_s
        return self.total_tokens / makespan if makespan else 0.0

    def latency_percentile(self, p: float) -> float:
        return _percentile([r.latency_s for r in self.completed], p)

    def ttft_percentile(self, p: float) -> float:
        return _percentile([r.ttft_s for r in self.completed], p)

    @property
    def slo_attainment(self) -> float:
        """Fraction of completed requests that met their SLO (1.0 when
        nothing completed: an empty trace violates nothing)."""
        if not self.completed:
            return 1.0
        return sum(1 for r in self.completed if r.slo_met) / len(self.completed)

    def digests(self) -> dict:
        return {r.request.rid: r.digest for r in self.completed}

    def per_worker(self) -> dict:
        """Per-worker breakdown: requests served, simulated latency/TTFT
        percentiles over that worker's completions, its simulated busy
        time, and its summed chunk counters (kernel launches, graph
        captures/replays, JIT promotions, specialization-cache
        hits/misses, …) — not just the fleet aggregates."""
        workers = sorted(
            set(self.worker_time_s)
            | set(self.worker_counters)
            | {r.worker for r in self.completed}
        )
        breakdown = {}
        for worker in workers:
            served = [r for r in self.completed if r.worker == worker]
            latencies = [r.latency_s for r in served]
            ttfts = [r.ttft_s for r in served]
            row = {
                "requests": len(served),
                "latency_p50_s": _percentile(latencies, 50),
                "latency_p99_s": _percentile(latencies, 99),
                "ttft_p50_s": _percentile(ttfts, 50),
                "ttft_p99_s": _percentile(ttfts, 99),
                "time_s": self.worker_time_s.get(worker, 0.0),
            }
            for key, value in sorted(self.worker_counters.get(worker, {}).items()):
                if key != "total_time_s":  # already surfaced as time_s
                    row[key] = value
            breakdown[worker] = row
        return breakdown

    def metrics(self) -> dict:
        """Fleet-wide counters under the frozen dot-namespaced contract
        (:data:`repro.obs.metrics.ROUTER_METRICS_KEYS`).  ``router.shed``
        is the admission-reject count — overload is measured at the
        door, where it was shed."""
        from repro.obs.metrics import ROUTER_METRICS_KEYS, validate_metrics

        snapshot = {
            "router.completed": self.num_completed,
            "router.shed": len(self.rejected),
            "router.redispatched": self.redispatched,
            "router.respawns": self.respawns,
            "router.total_tokens": self.total_tokens,
            "router.kernel_launches": self.kernel_launches,
            "router.graph_captures": self.graph_captures,
            "router.graph_replays": self.graph_replays,
            "router.jit_compiled": self.jit_compiled,
            "router.jit_promotions": self.jit_promotions,
            "router.slo_attainment": self.slo_attainment,
            "router.simulated_makespan_s": self.simulated_makespan_s,
            "router.wall_s": self.wall_s,
        }
        return validate_metrics(snapshot, ROUTER_METRICS_KEYS, "RouterResult")


class Router:
    """Continuous-batching front end over a :class:`WorkerPool`."""

    def __init__(
        self,
        pool: WorkerPool,
        chunk_size: int = 8,
        max_queue: int | None = None,
        admission_wait_s: float = float("inf"),
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.pool = pool
        self.chunk_size = chunk_size
        self.max_queue = max_queue
        self.admission_wait_s = admission_wait_s
        from repro.llm.engine import ServingSimulator

        self._estimator = ServingSimulator(
            pool.spec.model_config(), pool.spec.serving_config()
        )

    # -- admission control ---------------------------------------------------
    def estimate_service_s(self, request: Request) -> float:
        """Analytic service-time estimate: one prefill plus the
        request's decode steps at worst-case (full-batch) occupancy."""
        spec = self.pool.spec
        decode = self._estimator.decode_step_latency(
            batch=spec.max_batch,
            context=request.prompt_tokens + request.output_tokens,
        )
        return (
            self._estimator.prefill_latency(request.prompt_tokens)
            + request.output_tokens * decode
        )

    def admit(self, requests: list[Request]) -> tuple[list[Request], list[Request]]:
        """Virtual-clock admission sweep (in arrival order).

        The pool's ``workers × max_batch`` serving slots are modeled as
        a min-heap of free times.  A request is rejected when its
        projected wait for a slot exceeds ``admission_wait_s``, or when
        more than ``max_queue`` admitted requests would be waiting
        (in-system beyond the slot capacity) at its arrival.
        """
        spec = self.pool.spec
        capacity = len(self.pool.handles) * spec.max_batch
        slots = [0.0] * capacity
        heapq.heapify(slots)
        admitted: list[Request] = []
        rejected: list[Request] = []
        backlog: list[float] = []  # projected finish times of waiting requests
        for request in sorted(requests, key=lambda r: (r.arrival_s, r.rid)):
            free_at = slots[0]
            wait = max(0.0, free_at - request.arrival_s)
            if wait > self.admission_wait_s:
                rejected.append(request)
                continue
            if self.max_queue is not None:
                while backlog and backlog[0] <= request.arrival_s:
                    heapq.heappop(backlog)
                if len(backlog) >= capacity + self.max_queue:
                    rejected.append(request)
                    continue
            start = max(request.arrival_s, free_at)
            finish = start + self.estimate_service_s(request)
            heapq.heapreplace(slots, finish)
            if self.max_queue is not None:
                heapq.heappush(backlog, finish)
            admitted.append(request)
        return admitted, rejected

    # -- SLO-aware scheduling ------------------------------------------------
    @staticmethod
    def schedule(admitted: list[Request]) -> list[Request]:
        """Strict priority, then earliest-deadline-first, then arrival.
        ``rid`` is the final tiebreak so the order is total and
        deterministic (re-dispatch after a crash replays it exactly)."""
        return sorted(
            admitted, key=lambda r: (-r.priority, r.deadline_s, r.arrival_s, r.rid)
        )

    @staticmethod
    def _chunk_key(chunk: list[Request]) -> tuple:
        """A chunk's schedule key: its head request's policy key.  Chunks
        are contiguous slices of the policy-sorted schedule, so the head
        is the chunk's minimum and head-to-head comparison preserves the
        global policy order."""
        head = chunk[0]
        return (-head.priority, head.deadline_s, head.arrival_s, head.rid)

    def _requeue(self, queue: list[list[Request]], chunk: list[Request]) -> None:
        """Reinsert a recovered chunk by policy order (strict priority /
        EDF / arrival / rid), FIFO among equal keys — never at the
        queue front, which would let a recovered low-priority chunk
        starve higher-priority queued work."""
        key = self._chunk_key(chunk)
        for i, pending in enumerate(queue):
            if self._chunk_key(pending) > key:
                queue.insert(i, chunk)
                return
        queue.append(chunk)

    # -- dispatch loop -------------------------------------------------------
    def serve(
        self,
        requests: list[Request],
        timeout_s: float = 300.0,
        poll_s: float = 0.02,
        on_dispatch=None,
    ) -> RouterResult:
        """Route a trace through the pool and collect every result.

        ``on_dispatch(worker_index, dispatch_count)`` is called after
        each chunk is handed to a worker — the deterministic
        fault-injection hook (return ``"kill"`` to hard-kill that
        worker's process mid-chunk, exercising the recovery path).

        ``timeout_s`` bounds the whole loop in wall time: a wedged
        worker raises :class:`~repro.errors.VMError` instead of hanging
        the router forever.
        """
        self.pool.start()
        tracer = obs_trace.ACTIVE
        serve_start = tracer.now() if tracer is not None else 0.0
        outcome = RouterResult()
        admitted, outcome.rejected = self.admit(requests)
        if tracer is not None:
            tracer.complete(
                "router.admit",
                "router",
                obs_trace.HOST_TID,
                serve_start,
                tracer.now() - serve_start,
                {"admitted": len(admitted), "shed": len(outcome.rejected)},
            )
        scheduled = self.schedule(admitted)
        chunks = [
            scheduled[i : i + self.chunk_size]
            for i in range(0, len(scheduled), self.chunk_size)
        ]
        queue: list[list[Request]] = list(chunks)
        busy: dict[int, list[Request]] = {}
        dispatch_count = 0
        started = time.perf_counter()
        deadline = started + timeout_s
        while queue or busy:
            if time.perf_counter() > deadline:
                raise VMError(
                    f"router timed out after {timeout_s:.0f}s with "
                    f"{len(queue)} chunks queued and {len(busy)} in flight"
                )
            # Hand chunks to idle workers.
            for handle in self.pool.handles:
                if not queue:
                    break
                if handle.index in busy:
                    continue
                chunk = queue.pop(0)
                try:
                    send_msg(
                        handle.conn,
                        "run",
                        requests=[request_to_wire(r) for r in chunk],
                    )
                except (BrokenPipeError, OSError):
                    # Dead before it even took the chunk: recover, retry.
                    self._requeue(queue, chunk)
                    self._recover(handle, outcome, redispatch=0)
                    continue
                busy[handle.index] = chunk
                dispatch_count += 1
                if tracer is not None:
                    tracer.instant(
                        "router.dispatch",
                        "router",
                        obs_trace.HOST_TID,
                        {
                            "worker": handle.index,
                            "chunk": len(chunk),
                            "dispatch": dispatch_count,
                        },
                    )
                if on_dispatch is not None:
                    if on_dispatch(handle.index, dispatch_count) == "kill":
                        handle.process.kill()
            # Collect answers / detect deaths.  One wait over every busy
            # worker's pipe: polling them one after another held a worker
            # that had answered idle behind a busy one's ``poll_s``.
            progressed = False
            pipes = [self.pool.handles[index].conn for index in busy]
            ready = mp_connection.wait(pipes, poll_s) if pipes else []
            for index in list(busy):
                handle = self.pool.handles[index]
                crashed = False
                if handle.conn in ready:
                    try:
                        msg = recv_msg(handle.conn)
                    except (EOFError, OSError):
                        crashed = True
                    else:
                        if msg["type"] == "error":
                            raise VMError(
                                f"worker {index} failed: {msg.get('message')}"
                            )
                        if msg["type"] != "done":
                            raise VMError(
                                f"worker {index} sent unexpected "
                                f"{msg['type']!r} mid-trace"
                            )
                        self._record(msg, busy.pop(index), index, outcome)
                        progressed = True
                elif not handle.alive:
                    crashed = True
                if crashed:
                    chunk = busy.pop(index)
                    self._requeue(queue, chunk)
                    self._recover(handle, outcome, redispatch=len(chunk))
                    progressed = True
            if not progressed and not busy and queue:
                # All workers idle with work queued: loop immediately.
                continue
        outcome.wall_s = time.perf_counter() - started
        if tracer is not None:
            tracer.complete(
                "router.serve",
                "router",
                obs_trace.HOST_TID,
                serve_start,
                tracer.now() - serve_start,
                {
                    "completed": outcome.num_completed,
                    "shed": len(outcome.rejected),
                    "dispatches": dispatch_count,
                },
            )
        return outcome

    def _record(
        self, msg: dict, chunk: list[Request], worker: int, outcome: RouterResult
    ) -> None:
        by_rid = {r.rid: r for r in chunk}
        results = msg.get("results", [])
        if {r["rid"] for r in results} != set(by_rid):
            raise VMError(
                f"worker {worker} answered a different request set than dispatched"
            )
        for wire in results:
            outcome.completed.append(
                ServedRequest(
                    request=by_rid[wire["rid"]],
                    ttft_s=float(wire["ttft_s"]),
                    latency_s=float(wire["latency_s"]),
                    digest=wire.get("digest"),
                    worker=worker,
                )
            )
        counters = msg.get("counters", {})
        sums = outcome.worker_counters.setdefault(worker, {})
        for key, value in counters.items():
            sums[key] = sums.get(key, 0) + value
        outcome.worker_time_s[worker] = outcome.worker_time_s.get(
            worker, 0.0
        ) + counters.get("total_time_s", 0.0)
        outcome.total_tokens += counters.get("total_tokens", 0)
        outcome.kernel_launches += counters.get("kernel_launches", 0)
        outcome.graph_captures += counters.get("graph_captures", 0)
        outcome.graph_replays += counters.get("graph_replays", 0)
        outcome.jit_compiled += counters.get("jit_compiled", 0)
        outcome.jit_promotions += counters.get("jit_promotions", 0)

    def _recover(
        self, handle: WorkerHandle, outcome: RouterResult, redispatch: int
    ) -> None:
        """Respawn a dead worker; account for the chunk going back."""
        handle.respawn()
        outcome.respawns += 1
        outcome.redispatched += redispatch
        tracer = obs_trace.ACTIVE
        if tracer is not None:
            tracer.instant(
                "router.recover",
                "router",
                obs_trace.HOST_TID,
                {"worker": handle.index, "redispatched": redispatch},
            )

    # -- fleet trace ---------------------------------------------------------
    def fleet_trace(self) -> dict:
        """One coherent Chrome trace for the whole fleet.

        Pulls every worker's buffered events (:meth:`WorkerPool.pull_trace`),
        normalizes each process's monotonic timestamps onto the router
        clock via the per-worker NTP-midpoint offset, and merges them
        with the router's own events: the router is pid 0, worker *i* is
        pid ``i + 1``, and within each process tid 0 is the host lane
        with streams on lanes 1+.  The result loads directly in
        Perfetto / ``chrome://tracing`` and round-trips through
        :func:`repro.obs.trace.load_trace`."""
        local = obs_trace.ACTIVE
        processes = [
            {
                "name": "router",
                "pid": 0,
                "events": local.events() if local is not None else [],
                "offset_s": 0.0,
            }
        ]
        dropped = local.dropped if local is not None else 0
        for handle in self.pool.handles:
            msg = self.pool.pull_trace(handle.index)
            processes.append(
                {
                    "name": f"worker-{handle.index}",
                    "pid": handle.index + 1,
                    "events": msg["events"],
                    "offset_s": msg["clock_offset_s"],
                }
            )
            dropped += msg.get("dropped", 0)
        trace = obs_trace.merge_process_traces(processes)
        trace["otherData"]["dropped"] = dropped
        return trace
