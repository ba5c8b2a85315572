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
*actually executes* the quantized linear on the VM, as the paper's loop
does: **one** ``program_for(max_batch)`` launch per step, ``m = batch``.
Each in-flight request decodes in a *slot*, and a slot is a row: the
first admission allocates one ``[max_batch, k]`` activation matrix and
one ``[max_batch, n]`` output matrix, an admitted request's activation
is written into a free row (a host write, not an allocation; device
memory never grows after that), and a finished request's output row is
digested before the row goes back on the free list.  Rows of requests
not in flight keep stale inputs and are never read back: rows are
independent, so the launch costs the same and computes the same bits
whatever the live count is.  Latency accounting stays analytical (the
VM is functional, not a timing model).

``num_streams=0`` selects the **reference** path instead, a different
program on purpose: one ``program_for(1)`` launch per in-flight request
on its own row, issued with ``stream="auto"`` and retired as one group
by ``runtime.synchronize()``.  Its digests are what a served run is
checked against, so every served digest is a check that the rows of one
``m = batch`` launch are the per-request launches' bits.

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
    #: Kernel-in-the-loop counter (zero in purely analytical runs): one
    #: per decode step, or one per request per step on the reference path.
    kernel_launches: int = 0
    #: Always 0: no decode step captures or replays a graph.  Kept because
    #: the standing benchmark and the router's sums still read them.
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
    #: The request's row of the decode matrices (None when analytical).
    row: int | None = None


class ContinuousBatchingSimulator:
    """Serves a request trace with continuous batching.

    ``decode_linear`` switches on kernel-in-the-loop decode (see module
    docstring): each in-flight request owns a row of one activation /
    output matrix pair, and a decode step is one synchronous
    ``program_for(max_batch)`` launch over both.  ``num_streams=0``
    selects the per-request reference path (one ``program_for(1)``
    launch per row, retired as one group); any other value the
    one-launch path.
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
        #: Only 0 versus not-0 matters (the reference path versus the
        #: one-launch path, see above) until the reference path gets an
        #: entry point of its own; every value from 1 up serves alike.
        self.num_streams = min(num_streams, max_batch)
        #: Record per-node execution profiles of the decode kernels onto
        #: the operator runtime (``TraceResult.profile`` carries them).
        self.profile = profile
        #: Every profiled run's records, merged (each run installs a
        #: fresh per-trace profile): what a worker exports on
        #: ``pull_state``.
        self.served_profile = Profile()
        #: The ``[max_batch, k]`` activation and ``[max_batch, n]``
        #: output matrices (allocated on the first admission, kept for
        #: the simulator's life) and their free rows.
        self._act: int | None = None
        self._out: int | None = None
        self._free_rows: list[int] = []

    def metrics(self) -> dict:
        """One flat snapshot of the simulator's counters under the
        frozen dot-namespaced contract
        (:data:`repro.obs.metrics.SIMULATOR_METRICS_KEYS`): the
        kernel-in-the-loop runtime's full ``runtime.*``/``streams.*``/
        ``jit.*`` snapshot (zeros when decode runs analytically,
        with no kernel in the loop) plus the ``batching.*`` shape.
        This is what workers ship on ``pull_trace`` next to their event
        buffers."""
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
    def _row_addr(self, matrix: int, width: int, row: int) -> int:
        """Address of ``row`` of a ``[max_batch, width]`` decode matrix."""
        return matrix + row * width * self.decode_linear.act_dtype.nbits // 8

    def _provision_buffers(self, flight: _Inflight) -> None:
        """Give an admitted request a free row of the decode matrices
        (allocating them on the first admission) and write its
        activation there."""
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
        if self._act is None:
            self._act = runtime.empty([self.max_batch, linear.k], linear.act_dtype)
            self._out = runtime.empty([self.max_batch, linear.n], linear.act_dtype)
            self._free_rows = list(range(self.max_batch - 1, -1, -1))
        flight.row = self._free_rows.pop()
        runtime.write(
            self._row_addr(self._act, linear.k, flight.row),
            linear.act_dtype.quantize(activation),
            linear.act_dtype,
        )

    def _finalize(self, flight: _Inflight) -> None:
        """Digest a finished request's output row (see
        :attr:`RequestResult.output_digest`), then free the row."""
        if self.decode_linear is None or flight.row is None:
            return
        linear = self.decode_linear
        out = linear.runtime.download(
            self._row_addr(self._out, linear.n, flight.row), [1, linear.n], linear.act_dtype
        )
        flight.result.output_digest = hashlib.sha256(out.tobytes()).hexdigest()[:16]
        self._free_rows.append(flight.row)

    def _run_decode_kernels(self, inflight: list[_Inflight], outcome: TraceResult) -> None:
        """One decode step: one ``program_for(max_batch)`` launch over
        the whole matrices, or, with ``num_streams=0``, the reference's
        ``program_for(1)`` launch per in-flight row."""
        if self.decode_linear is None:
            return
        linear = self.decode_linear
        runtime = linear.runtime
        if self.num_streams < 1:
            program = linear.program_for(1)
            for flight in inflight:
                runtime.launch(
                    program,
                    [
                        self._row_addr(self._act, linear.k, flight.row),
                        linear.b_addr,
                        linear.s_addr,
                        self._row_addr(self._out, linear.n, flight.row),
                    ],
                    stream="auto",
                )
            runtime.synchronize()
            outcome.kernel_launches += len(inflight)
            return
        runtime.launch(
            linear.program_for(self.max_batch),
            [self._act, linear.b_addr, linear.s_addr, self._out],
        )
        outcome.kernel_launches += 1


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
