"""Continuous batching simulation (paper Section 9.4: "Contiguous
batching [29, 63] was used to efficiently batch multiple decode
requests").

A discrete-event simulator of an Orca/vLLM-style serving loop: requests
arrive with prompt/output lengths, prefills are admitted one per step,
and all in-flight requests decode together (one token per request per
step, ``m = batch``).  Step latencies come from the serving simulator,
so the kernel-level differences between systems (Tilus vs Ladder vs f16)
propagate into throughput and latency percentiles.

Kernel-in-the-loop mode: pass a ``decode_linear``
(:class:`~repro.ops.QuantizedLinear`) and every simulated decode step
*actually executes* one quantized-linear kernel per in-flight request on
the VM, each request issued on its own stream of the operator runtime's
pool — the decode/prefill launch pattern the serving loop produces on
real hardware.  Each in-flight request decodes in a *slot* of its own —
an activation and an output buffer the simulator owns for its life and
hands to the next request when this one finishes (its activation is a
host write, not an allocation; device memory stops growing once
``max_batch`` slots exist) — so the hazard tracker finds a step's decode
kernels independent and the step barrier, ``pool.synchronize()``, runs
them as one stacked group.  Latency accounting stays analytical (the VM
is functional, not a timing model).

Because the decode loop re-submits an *identical* launch DAG every step,
the kernel-in-the-loop path **graph-captures** it (``use_graphs``, on by
default): the first step at each batch size records the per-request
launches as an :class:`~repro.runtime.graphs.ExecutionGraph`, and every
later step replays the frozen DAG — rebinding each slot's activation and
output buffers when the in-flight set changes — skipping per-launch
scheduling, hazard analysis, and coalescing decisions entirely.

With ``profile=True`` the run records a per-node
:class:`~repro.runtime.profiling.Profile` of every decode kernel
(attached to the returned :class:`TraceResult` and saveable as JSON) —
an observation of what serving cost; nothing spends it.

Engine state is not the simulator's: the compiled tier lives on the
operator's :class:`~repro.runtime.runtime.Runtime`
(``decode_linear.runtime``), and the simulator reads it there.  With
``runtime.enable_jit()`` hot decode specializations run compiled
(``TraceResult.jit_compiled`` / ``jit_promotions``) — promotion is the
manager's invocation count, kept across runs, so a JIT run is profiled
only when asked (``profile=True``).
:meth:`repro.serving.spec.WorkerSpec.build_simulator` is where a recipe
becomes such a configured runtime.
"""

from __future__ import annotations

import hashlib
import math

from dataclasses import dataclass, field
from types import MappingProxyType

from repro.llm.engine import ServingConfig, ServingSimulator
from repro.llm.models import ModelConfig
from repro.runtime.profiling import Profile


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class Request:
    """One serving request.

    ``rid`` identifies the request across process boundaries (the
    sharded-serving router matches worker results and oracle outputs by
    it); a non-negative ``rid`` also seeds the request's decode
    activations deterministically, so kernel-in-the-loop outputs are
    reproducible — and comparable bit-for-bit — wherever the request
    executes.  ``priority`` (higher serves first) and ``slo_s`` (the
    end-to-end latency target; ``inf`` = best-effort) feed the router's
    SLO-aware scheduling; both are ignored by the single-process
    simulator, which serves strictly by arrival.
    """

    arrival_s: float
    prompt_tokens: int
    output_tokens: int
    rid: int = -1
    priority: int = 0
    slo_s: float = math.inf

    @property
    def deadline_s(self) -> float:
        """Absolute completion deadline (``inf`` for best-effort)."""
        return self.arrival_s + self.slo_s


@dataclass
class RequestResult:
    """Per-request outcome."""

    request: Request
    first_token_s: float = 0.0   # time-to-first-token (absolute)
    finished_s: float = 0.0
    #: Hex digest of the request's final decode output buffer, recorded
    #: when kernel-in-the-loop decode ran for it; None otherwise.  The
    #: digest is a pure function of ``rid`` and the decode weights, so a
    #: router can check a worker's outputs bit-for-bit against a serial
    #: oracle without shipping the tensors.
    output_digest: str | None = None

    @property
    def slo_met(self) -> bool:
        return self.latency_s <= self.request.slo_s

    @property
    def ttft_s(self) -> float:
        return self.first_token_s - self.request.arrival_s

    @property
    def latency_s(self) -> float:
        return self.finished_s - self.request.arrival_s


@dataclass
class TraceResult:
    """Aggregate outcome of one trace."""

    results: list[RequestResult] = field(default_factory=list)
    total_time_s: float = 0.0
    total_tokens: int = 0
    #: Kernel-in-the-loop counters (zero in purely analytical runs).
    kernel_launches: int = 0
    #: Execution-graph counters: decode steps that recorded a fresh graph
    #: vs. steps that replayed one (captures + replays = decode steps).
    graph_captures: int = 0
    graph_replays: int = 0
    #: Per-node execution profile of the decode kernels (a
    #: :class:`~repro.runtime.profiling.Profile`), populated when the
    #: simulator was created with ``profile=True``; None otherwise.
    profile: object | None = None
    #: Compiled-tier counters (a JIT-enabled runtime): hot
    #: specializations the JIT lowered to straight-line compiled kernels
    #: during this trace, and how many decode executions ran through
    #: them.  Zero otherwise.
    jit_compiled: int = 0
    jit_promotions: int = 0

    @property
    def throughput_tokens_per_s(self) -> float:
        return self.total_tokens / self.total_time_s if self.total_time_s else 0.0

    def mean_ttft_s(self) -> float:
        """Mean time-to-first-token; 0.0 on an empty trace (a router's
        per-worker sub-trace can legitimately serve no requests, same as
        :attr:`throughput_tokens_per_s`)."""
        if not self.results:
            return 0.0
        return sum(r.ttft_s for r in self.results) / len(self.results)

    def mean_latency_s(self) -> float:
        """Mean end-to-end latency; 0.0 on an empty trace."""
        if not self.results:
            return 0.0
        return sum(r.latency_s for r in self.results) / len(self.results)

    def ttft_percentile(self, p: float) -> float:
        """Nearest-rank ``p``-th percentile TTFT (0 <= p <= 100);
        0.0 on an empty trace."""
        return _percentile([r.ttft_s for r in self.results], p)

    def latency_percentile(self, p: float) -> float:
        """Nearest-rank ``p``-th percentile end-to-end latency;
        0.0 on an empty trace."""
        return _percentile([r.latency_s for r in self.results], p)


@dataclass
class _Inflight:
    request: Request
    result: RequestResult
    remaining: int
    context: int
    #: Device buffers for kernel-in-the-loop decode (None when analytical).
    act_addr: int | None = None
    out_addr: int | None = None


class ContinuousBatchingSimulator:
    """Serves a request trace with continuous batching.

    ``decode_linear`` switches on kernel-in-the-loop decode (see module
    docstring): each in-flight request's per-step quantized linear is
    launched asynchronously on a distinct stream of the operator
    runtime's pool (``num_streams`` wide, capped by ``max_batch``;
    ``num_streams=0`` issues the kernels synchronously instead).
    ``use_graphs`` captures one execution graph per batch size and
    replays it every step, rebinding per-request buffers as the
    in-flight set changes; set it False to eager-submit every step.
    ``profile=True`` records every decode kernel into a reusable
    :class:`~repro.runtime.profiling.Profile` on ``TraceResult.profile``.
    The compiled tier is read from ``decode_linear.runtime`` (see the
    module docstring).
    """

    def __init__(
        self,
        model: ModelConfig,
        config: ServingConfig,
        max_batch: int = 16,
        decode_linear=None,
        num_streams: int = 4,
        use_graphs: bool = True,
        profile: bool = False,
    ) -> None:
        if max_batch < 1:
            # No request could ever be admitted: ``run`` would spin.
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        self.model = model
        self.config = config
        self.max_batch = max_batch
        self.engine = ServingSimulator(model, config)
        self.decode_linear = decode_linear
        self.num_streams = min(num_streams, max_batch)
        self.use_graphs = use_graphs
        #: Record per-node execution profiles of the decode kernels onto
        #: the operator runtime (``TraceResult.profile`` carries them).
        self.profile = profile
        #: One captured decode-step graph per batch size, with the
        #: binding layout it was captured against.
        self._graphs: dict = {}
        #: Every profiled run's records, merged (each run installs a
        #: fresh per-trace profile): what a worker exports on
        #: ``pull_state``.
        self.served_profile = Profile()
        #: Free slots — (activation, output) device-buffer pairs, one per
        #: in-flight request, kept for the simulator's life: at most
        #: ``max_batch`` are ever allocated.
        self._free_slots: list[tuple[int, int]] = []

    @property
    def graphs(self):
        """Read-only view of the captured decode graphs by batch size."""
        return MappingProxyType(self._graphs)

    def metrics(self) -> dict:
        """One flat snapshot of the simulator's counters under the
        frozen dot-namespaced contract
        (:data:`repro.obs.metrics.SIMULATOR_METRICS_KEYS`): the
        kernel-in-the-loop runtime's full ``runtime.*``/``streams.*``/
        ``jit.*`` snapshot (zeros when decode runs analytically,
        with no kernel in the loop) plus the ``batching.*`` graph
        census.  This is what workers ship on ``pull_trace`` next to
        their event buffers."""
        from repro.obs.metrics import (
            RUNTIME_METRICS_KEYS,
            SIMULATOR_METRICS_KEYS,
            validate_metrics,
            zero_metrics,
        )

        if self.decode_linear is not None:
            snapshot = self.decode_linear.runtime.metrics()
        else:
            snapshot = zero_metrics(RUNTIME_METRICS_KEYS)
        snapshot.update({
            "batching.graphs_captured": len(self._graphs),
            "batching.max_batch": self.max_batch,
            "batching.num_streams": self.num_streams,
        })
        return validate_metrics(
            snapshot, SIMULATOR_METRICS_KEYS, "ContinuousBatchingSimulator"
        )

    def run(self, requests: list[Request]) -> TraceResult:
        """Simulate until every request finishes."""
        pending = sorted(requests, key=lambda r: r.arrival_s)
        outcome = TraceResult()
        if self.decode_linear is None:
            return self._run_loop(pending, outcome)
        runtime = self.decode_linear.runtime
        jit = runtime.jit
        if self.profile:
            # Fresh profile per run so the trace's records are its own
            # (a caller-enabled profiler must not bleed in), restored on
            # exit so caller profiling survives the trace unchanged.
            prior = runtime.disable_profiling()
            outcome.profile = runtime.enable_profiling(Profile())
        compiled_before = jit.compiled if jit is not None else 0
        promotions_before = jit.promotions if jit is not None else 0
        try:
            return self._run_loop(pending, outcome)
        finally:
            if jit is not None:
                outcome.jit_compiled = jit.compiled - compiled_before
                outcome.jit_promotions = jit.promotions - promotions_before
            if self.profile:
                self.served_profile.merge(runtime.disable_profiling())
                if prior is not None:
                    runtime.enable_profiling(prior)

    def _run_loop(self, pending: list[Request], outcome: TraceResult) -> TraceResult:
        inflight: list[_Inflight] = []
        now = 0.0
        queue_idx = 0

        while queue_idx < len(pending) or inflight:
            # Admit one waiting request per step (prefill), vLLM-style.
            if (
                queue_idx < len(pending)
                and pending[queue_idx].arrival_s <= now
                and len(inflight) < self.max_batch
            ):
                request = pending[queue_idx]
                queue_idx += 1
                now += self.engine.prefill_latency(request.prompt_tokens)
                result = RequestResult(request, first_token_s=now)
                outcome.total_tokens += request.prompt_tokens
                flight = _Inflight(
                    request, result, request.output_tokens, request.prompt_tokens
                )
                self._provision_buffers(flight)
                inflight.append(flight)
                outcome.results.append(result)
                continue
            if not inflight:
                # Idle until the next arrival.
                now = max(now, pending[queue_idx].arrival_s)
                continue
            # One decode step for the whole batch.
            batch = len(inflight)
            context = max(f.context for f in inflight)
            now += self.engine.decode_step_latency(batch=batch, context=context)
            self._run_decode_kernels(inflight, outcome)
            outcome.total_tokens += batch
            finished: list[_Inflight] = []
            for flight in inflight:
                flight.remaining -= 1
                flight.context += 1
                if flight.remaining <= 0:
                    flight.result.finished_s = now
                    finished.append(flight)
            for flight in finished:
                self._finalize(flight)
                inflight.remove(flight)
        outcome.total_time_s = now
        return outcome

    # -- kernel-in-the-loop decode -------------------------------------------
    def _provision_buffers(self, flight: _Inflight) -> None:
        """Give an admitted request a free slot — an activation and an
        output buffer no other in-flight request uses, so its decode
        kernels are hazard-free against every other request — and write
        its activation there."""
        if self.decode_linear is None:
            return
        import numpy as np

        linear = self.decode_linear
        runtime = linear.runtime
        if flight.request.rid >= 0:
            # Deterministic per-request activations: the same rid decodes
            # the same bits in any process, which is what lets the
            # sharded-serving router compare worker outputs against a
            # serial oracle digest-for-digest.
            rng = np.random.default_rng(flight.request.rid)
            activation = rng.standard_normal((1, linear.k))
        else:
            activation = np.zeros((1, linear.k))
        if self._free_slots:
            flight.act_addr, flight.out_addr = self._free_slots.pop()
        else:  # more requests in flight than ever before
            flight.act_addr = runtime.empty([1, linear.k], linear.act_dtype)
            flight.out_addr = runtime.empty([1, linear.n], linear.act_dtype)
        runtime.write(flight.act_addr, linear.act_dtype.quantize(activation), linear.act_dtype)

    def _finalize(self, flight: _Inflight) -> None:
        """Digest a finished request's decode output (see
        :attr:`RequestResult.output_digest`) and free its slot."""
        if self.decode_linear is None or flight.out_addr is None:
            return
        linear = self.decode_linear
        out = linear.runtime.download(flight.out_addr, [1, linear.n], linear.act_dtype)
        flight.result.output_digest = hashlib.sha256(out.tobytes()).hexdigest()[:16]
        self._free_slots.append((flight.act_addr, flight.out_addr))

    def _run_decode_kernels(self, inflight: list[_Inflight], outcome: TraceResult) -> None:
        """Issue one decode linear per in-flight request, each on its own
        stream, then barrier on the pool (one serving step).  With
        ``num_streams=0`` the kernels run synchronously instead; with
        ``use_graphs`` the step is captured once per batch size and
        replayed (buffers rebound) thereafter."""
        if self.decode_linear is None:
            return
        linear = self.decode_linear
        runtime = linear.runtime
        program = linear.program_for(1)
        if self.num_streams < 1:
            for flight in inflight:
                runtime.launch(
                    program,
                    [flight.act_addr, linear.b_addr, linear.s_addr, flight.out_addr],
                )
            outcome.kernel_launches += len(inflight)
            return
        pool = runtime.stream_pool(self.num_streams)
        if self.use_graphs:
            self._decode_step_graphed(pool, inflight, outcome)
            return
        for idx, flight in enumerate(inflight):
            runtime.launch(
                program,
                [flight.act_addr, linear.b_addr, linear.s_addr, flight.out_addr],
                stream=pool.streams[idx % len(pool.streams)],
            )
        pool.synchronize()
        outcome.kernel_launches += len(inflight)

    def _decode_step_graphed(self, pool, inflight, outcome: TraceResult) -> None:
        """One decode step through the graph subsystem: capture the
        launch DAG on the first step at this batch size, replay it on
        every later one (rebinding each request slot's activation and
        output buffers to the current in-flight set)."""
        linear = self.decode_linear
        runtime = linear.runtime
        program = linear.program_for(1)
        batch = len(inflight)
        act_bytes = (linear.k * linear.act_dtype.nbits + 7) // 8
        out_bytes = (linear.n * linear.act_dtype.nbits + 7) // 8
        graph = self._graphs.get(batch)
        if graph is None:
            with runtime.capture(self.num_streams) as graph:
                for idx, flight in enumerate(inflight):
                    runtime.launch(
                        program,
                        [flight.act_addr, linear.b_addr, linear.s_addr, flight.out_addr],
                        stream=pool.streams[idx % len(pool.streams)],
                    )
            for idx, flight in enumerate(inflight):
                graph.bind(f"act{idx}", flight.act_addr, act_bytes)
                graph.bind(f"out{idx}", flight.out_addr, out_bytes)
            self._graphs[batch] = graph
            outcome.graph_captures += 1
            graph.replay()  # identity bindings: captured from this step
        else:
            bindings = {}
            for idx, flight in enumerate(inflight):
                bindings[f"act{idx}"] = flight.act_addr
                bindings[f"out{idx}"] = flight.out_addr
            graph.replay(bindings)
            outcome.graph_replays += 1
        outcome.kernel_launches += batch


def uniform_trace(
    num_requests: int,
    interarrival_s: float,
    prompt_tokens: int = 512,
    output_tokens: int = 64,
) -> list[Request]:
    """A simple open-loop trace with fixed spacing and sizes."""
    return [
        Request(
            arrival_s=i * interarrival_s,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            rid=i,
        )
        for i in range(num_requests)
    ]
