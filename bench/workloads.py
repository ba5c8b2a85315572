"""The four pinned workloads and their seeded input generators.

The program under test sees only generated inputs: ``Request`` lists for
the serving workloads, weight/activation arrays and tile configs for
``matmul_spectrum``.  Each workload object builds its system through
public constructors, runs one operation at a time (closed loop, one
client) and checks its own outputs afterwards against an oracle that is
never the path under test.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from dataclasses import dataclass

import numpy as np

from bench.stats import percentile
from repro import ops
from repro.dtypes import dtype_from_name, float16
from repro.errors import CompilationError
from repro.kernels import MatmulConfig
from repro.llm.batching import Request
from repro.obs import trace as obs_trace
from repro.runtime import Runtime
from repro.serving.router import Router, WorkerPool
from repro.serving.spec import WorkerSpec

# ---------------------------------------------------------------------------
# Serving waves
# ---------------------------------------------------------------------------

WAVE_RPS = 400.0
PROMPT_TOKENS = (64, 128, 256, 512)
OUTPUT_TOKENS = (4, 32)  # inclusive
SLO_S = 60.0
#: Distinct wave compositions per seed stream; wave ``i`` repeats the
#: composition of wave ``i mod WAVE_CYCLE`` under fresh rids, so a phase
#: holds like-for-like repeats of every composition (``op_factors``).
WAVE_CYCLE = 8

#: Seed streams: warm-up operations never share inputs with measured ones.
MEASURE, WARMUP = 0, 1


def make_wave(
    seed: int, index: int, size: int, stream: int = MEASURE,
    output_tokens: tuple = OUTPUT_TOKENS,
) -> list[Request]:
    """Wave ``index`` of a seed stream: ``size`` requests with virtual
    Poisson arrivals at 400 rps, mixed prompts / output lengths /
    priorities — drawn per ``index mod WAVE_CYCLE`` — and run-unique
    non-negative ``rid`` s (the rid also seeds the request's activations
    inside the program, so repeats of a composition carry fresh data)."""
    if size > 64:
        raise ValueError("wave size must be <= 64 (rid packing)")
    rng = np.random.default_rng([seed, stream, index % WAVE_CYCLE])
    rid_base = ((((seed % 4096) * 2 + stream) << 20) + index) * 64
    arrival = 0.0
    wave = []
    for i in range(size):
        arrival += float(rng.exponential(1.0 / WAVE_RPS))
        wave.append(
            Request(
                arrival_s=arrival,
                prompt_tokens=int(rng.choice(PROMPT_TOKENS)),
                output_tokens=int(rng.integers(output_tokens[0], output_tokens[1] + 1)),
                rid=rid_base + i,
                priority=int(rng.integers(0, 2)),
                slo_s=SLO_S,
            )
        )
    return wave


def oracle_spec(spec: WorkerSpec) -> WorkerSpec:
    """The independent serving oracle: synchronous launches, no graphs,
    no JIT, no tracing — same weights."""
    return dataclasses.replace(
        spec, jit=False, num_streams=0, use_graphs=False, trace=False
    )


def oracle_digests(spec: WorkerSpec, rids) -> dict:
    """Digest per rid from the oracle simulator, one output token each
    (a digest is a pure function of ``rid`` and the decode weights)."""
    oracle = oracle_spec(spec).build_simulator()
    requests = [
        Request(arrival_s=0.0, prompt_tokens=PROMPT_TOKENS[0], output_tokens=1, rid=rid)
        for rid in rids
    ]
    return {r.request.rid: r.output_digest for r in oracle.run(requests).results}


def mismatched_ops(records: list, oracle: dict) -> set:
    """Indices of operations with a missing or wrong digest.  ``records``
    holds ``(op index, expected rids, {rid: digest})`` per operation."""
    failed = set()
    for index, rids, digests in records:
        if any(digests.get(rid) is None or digests.get(rid) != oracle[rid] for rid in rids):
            failed.add(index)
    return failed


#: Per-layer figures only the serving workloads produce (exact counts and
#: simulated-clock values, whose units say so: they repeat exactly for a
#: seed and must not be read as wall time); 0 on ``matmul_spectrum``.
SERVING_METRICS = {
    "sim.tok_per_s": "tok/sim_s",
    "sim.latency_p50": "sim_ms",
    "sim.latency_p99": "sim_ms",
    "sim.ttft_p99": "sim_ms",
    "llm.batching.steps_per_wave": "count",
    "llm.batching.mean_batch": "count",
    "serving.router.respawns": "count",
    "serving.router.shed": "count",
    "serving.router.redispatched": "count",
}


class BenchFailure(Exception):
    """An operation completed but violated a workload invariant."""


@dataclass
class SimTotals:
    """Simulated-clock figures and exact step counts accumulated over the
    operations of one phase (reset with the workload's ``begin_phase``)."""

    output_tokens: int = 0
    busy_s: float = 0.0
    steps: int = 0
    launches: int = 0
    waves: int = 0
    respawns: int = 0
    shed: int = 0
    redispatched: int = 0
    latencies_s: list = dataclasses.field(default_factory=list)
    ttfts_s: list = dataclasses.field(default_factory=list)


class ServingWorkload:
    """``decode_interp`` / ``decode_jit`` (in-process simulator) and
    ``serve_pool`` (router + two spawned workers) share everything but
    how a wave is served."""

    unit = "tok"

    def __init__(self, name, spec, wave_size, seed, warmup_ops, workers=0, smoke=False):
        self.name = name
        self.spec = spec
        self.wave_size = wave_size
        self.seed = seed
        self.workers = workers
        self.output_tokens = (1, 3) if smoke else OUTPUT_TOKENS
        self.warmup_ops = 1 if smoke else warmup_ops
        self.sim = None
        self.pool = None
        self.router = None
        self.records: list = []
        self.totals = SimTotals()
        self.worker_affinity: dict = {}

    # -- lifecycle -----------------------------------------------------------
    def setup(self, trace: bool, spans, cpus) -> None:
        if self.workers:
            spec = dataclasses.replace(self.spec, trace=trace)
            self.pool = WorkerPool(spec, self.workers)
            with spans.span("serving.pool.boot_s"):
                self.pool.start()
            for handle in self.pool.handles:
                cpu = cpus[handle.index % len(cpus)]
                os.sched_setaffinity(handle.process.pid, {cpu})
                self.worker_affinity[handle.index] = [cpu]
            self.router = Router(self.pool, chunk_size=8)
        else:
            with spans.span("setup.build"):
                self.sim = self.spec.build_simulator()

    def warmup(self) -> None:
        for index in range(self.warmup_ops):
            self._serve(make_wave(self.seed, index, self.wave_size, WARMUP, self.output_tokens))

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
        self.sim = None

    def begin_phase(self) -> None:
        self.totals = SimTotals()

    # -- one operation -------------------------------------------------------
    def wave(self, index: int) -> list[Request]:
        return make_wave(self.seed, index, self.wave_size, MEASURE, self.output_tokens)

    def op_factors(self, index: int) -> tuple:
        """What a wave's cost per token depends on: its composition."""
        return (index % WAVE_CYCLE,)

    def _serve(self, wave):
        """Serve one wave; returns ``{rid: digest}`` and folds the wave's
        simulated totals into ``self.totals``."""
        totals = self.totals
        if self.router is not None:
            result = self.router.serve(wave)
            totals.respawns += result.respawns
            totals.shed += len(result.rejected)
            totals.redispatched += result.redispatched
            if result.rejected or result.respawns or result.num_completed != len(wave):
                raise BenchFailure(
                    f"pool served {result.num_completed}/{len(wave)}, "
                    f"{len(result.rejected)} shed, {result.respawns} respawns"
                )
            served, digests = result.completed, result.digests()
            totals.busy_s += sum(result.worker_time_s.values())
        else:
            result = self.sim.run(wave)
            served = result.results
            digests = {r.request.rid: r.output_digest for r in served}
            totals.busy_s += result.total_time_s
        totals.steps += result.graph_captures + result.graph_replays
        totals.launches += result.kernel_launches
        totals.latencies_s += [r.latency_s for r in served]
        totals.ttfts_s += [r.ttft_s for r in served]
        return digests

    def run_op(self, index: int, spans) -> float:
        wave = self.wave(index)
        digests = self._serve(wave)
        self.records.append((index, [r.rid for r in wave], digests))
        tokens = sum(r.output_tokens for r in wave)
        self.totals.output_tokens += tokens
        self.totals.waves += 1
        return float(tokens)

    # -- checks and counters -------------------------------------------------
    def verify(self, spans) -> set:
        rids = [rid for _, wave_rids, _ in self.records for rid in wave_rids]
        if not rids:
            return set()
        with spans.span("verify.oracle", count=len(rids)):
            oracle = oracle_digests(self.spec, rids)
        return mismatched_ops(self.records, oracle)

    def phase_metrics(self) -> dict:
        """:data:`SERVING_METRICS` over the current phase: simulated
        throughput (output tokens per simulated busy second, summed over
        engines) and request latency, and the exact step counts."""
        t = self.totals
        served = bool(t.latencies_s)
        values = {
            "sim.tok_per_s": t.output_tokens / t.busy_s if t.busy_s else 0.0,
            "sim.latency_p50": percentile(t.latencies_s, 50) * 1e3 if served else 0.0,
            "sim.latency_p99": percentile(t.latencies_s, 99) * 1e3 if served else 0.0,
            "sim.ttft_p99": percentile(t.ttfts_s, 99) * 1e3 if served else 0.0,
            "llm.batching.steps_per_wave": t.steps / t.waves if t.waves else 0.0,
            "llm.batching.mean_batch": t.launches / t.steps if t.steps else 0.0,
            "serving.router.respawns": t.respawns,
            "serving.router.shed": t.shed,
            "serving.router.redispatched": t.redispatched,
        }
        return {name: (values[name], unit) for name, unit in SERVING_METRICS.items()}

    def kernels_launched(self, indices) -> int:
        return self.totals.launches

    def counters(self) -> dict:
        """Runtime counters summed over every engine of the workload."""
        if self.pool is None:
            return self.sim.metrics()
        total: dict = {}
        for handle in self.pool.handles:
            for key, value in self.pool.pull_trace(handle.index)["metrics"].items():
                total[key] = total.get(key, 0) + value
        return total

    def program_trace(self, tracer) -> dict:
        if self.router is not None:
            return self.router.fleet_trace()
        return obs_trace.chrome_trace(tracer, self.name)

    def pids(self) -> list:
        if self.pool is None:
            return []
        return [h.process.pid for h in self.pool.handles]


# ---------------------------------------------------------------------------
# matmul_spectrum
# ---------------------------------------------------------------------------

SPECTRUM_DTYPES = (
    [f"u{b}" for b in range(1, 9)]
    + [f"i{b}" for b in range(2, 9)]
    + ["f3e1m1", "f4e2m1", "f5e2m2", "f6e3m2", "f7e3m3", "f8e4m3"]
)
VARIANTS = ("direct", "staged", "splitk")
SHAPES = [(m, k, n) for m in (1, 16, 48) for k in (128, 256) for n in (32, 64)]
SPECTRUM_OPS = len(SPECTRUM_DTYPES) * len(VARIANTS) * 5  # 315
GROUP_SIZE = 128
TOLERANCE = 0.02
ORACLE_ONE_IN = 8
#: Off-grid shape for warm-up, so warm-up never pre-fills the spec cache
#: with a specialization a measured operation would then hit.
WARMUP_SHAPE = (8, 64, 16)


def tile_for(dtype) -> MatmulConfig:
    """Smallest tile whose per-thread weight fragment is byte-aligned for
    ``dtype`` (odd widths need wider n/k tiles, paper Section 7.2)."""
    for bn, bk in ((8, 16), (16, 16), (8, 32), (16, 32), (32, 32)):
        config = MatmulConfig(block_m=16, block_n=bn, block_k=bk)
        try:
            config.validate(dtype)
            return config
        except CompilationError:
            continue
    raise CompilationError(f"no tile configuration for {dtype}")


@dataclass(frozen=True)
class MatmulOp:
    """One kernel bring-up: prepare + cold call + two hot calls."""

    dtype: str
    variant: str
    m: int
    k: int
    n: int
    data_seed: tuple

    def config(self) -> MatmulConfig:
        base = tile_for(dtype_from_name(self.dtype))
        if self.variant == "staged":
            return dataclasses.replace(base, num_stages=2)
        if self.variant == "splitk":
            return dataclasses.replace(base, split_k=2)
        return base

    @property
    def streams(self) -> int:
        return 2 if self.variant == "splitk" else 0

    def data(self):
        """``(weight[k, n], activation[m, k])``; activations are already
        fp16-representable, as a serving stack would hand them over."""
        rng = np.random.default_rng(self.data_seed)
        weight = rng.standard_normal((self.k, self.n))
        activation = float16.quantize(rng.standard_normal((self.m, self.k)) * 0.3)
        return weight, activation

    def prepare(self, runtime, streams=None):
        weight, activation = self.data()
        linear = ops.prepare_linear(
            weight,
            dtype_from_name(self.dtype),
            group_size=GROUP_SIZE,
            config=self.config(),
            runtime=runtime,
            streams=self.streams if streams is None else streams,
        )
        return linear, activation


@functools.lru_cache(maxsize=4)
def _spectrum_order(seed: int) -> tuple:
    rng = np.random.default_rng([seed, 7])
    pairs = [(d, v) for d in SPECTRUM_DTYPES for v in VARIANTS]
    return (
        tuple(pairs[i] for i in rng.permutation(len(pairs))),
        tuple(SHAPES[i] for i in rng.permutation(len(SHAPES))),
    )


def spectrum_op(
    seed: int, index: int, stream: int = MEASURE, shape: tuple | None = None
) -> MatmulOp:
    """Operation ``index`` of the seeded spectrum sequence.

    The 63 (dtype, variant) pairs and the 12 shapes are each permuted by
    the seed; operation ``i`` takes pair ``i mod 63`` and shape slot
    ``(i + i div 252) mod 12``.  Every 12 consecutive operations cover
    every shape and every 63 cover every pair, so a time-bounded prefix
    has the same cost mix under any seed; the first 315 are pairwise
    distinct specializations (five shapes per pair).  Beyond 315 the
    sequence repeats with fresh data.  ``shape`` overrides the drawn
    shape (warm-up and smoke runs use the off-grid one)."""
    pairs, shapes = _spectrum_order(seed)
    j = index % SPECTRUM_OPS
    dtype, variant = pairs[j % len(pairs)]
    m, k, n = shapes[(j + j // 252) % len(shapes)]
    if shape is not None:
        m, k, n = shape
    return MatmulOp(dtype, variant, m, k, n, (seed, stream, index))


def relative_error(out, ref) -> float:
    """The test suite's matmul metric: ``max|out-ref| / (|ref| + 0.5)``."""
    return float(np.max(np.abs(out - ref) / (np.abs(ref) + 0.5)))


class MatmulSpectrum:
    """The kernel author's path over the 1-8-bit data-type spectrum, on
    one shared ``Runtime`` (315 specializations against its 128-entry
    specialization cache)."""

    unit = "kernel"
    #: No serving side: its per-layer metrics read 0 here.
    spec = None
    router = None
    workers = 0

    def __init__(self, seed: int, smoke: bool = False):
        self.name = "matmul_spectrum"
        self.seed = seed
        self.warmup_ops = 1 if smoke else 3
        self.worker_affinity: dict = {}
        #: Smoke runs only check plumbing: every operation is tiny.
        self.shape = WARMUP_SHAPE if smoke else None
        self.runtime = None
        self.records: list = []

    def setup(self, trace: bool, spans, cpus) -> None:
        with spans.span("setup.build"):
            self.runtime = Runtime()

    def warmup(self) -> None:
        for index in range(self.warmup_ops):
            op = spectrum_op(self.seed, index, WARMUP, WARMUP_SHAPE)
            linear, activation = op.prepare(self.runtime)
            linear(activation)
            linear(activation)

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.synchronize()
        self.runtime = None

    def begin_phase(self) -> None:
        pass

    def op(self, index: int) -> MatmulOp:
        return spectrum_op(self.seed, index, shape=self.shape)

    def op_factors(self, index: int) -> tuple:
        """What a bring-up's cost depends on (log-additively: a fit on
        these leaves ~8 % residual, machine noise included)."""
        op = self.op(index)
        return (op.variant, op.dtype, op.m, op.k, op.n)

    def run_op(self, index: int, spans) -> float:
        op = self.op(index)
        with spans.span("quant.prepare_ms", op=index):
            linear, activation = op.prepare(self.runtime)
        with spans.span("call.cold", op=index):
            cold = linear(activation)
        with spans.span("call.hot", op=index, count=2):
            hot1 = linear(activation)
            hot2 = linear(activation)
        stable = np.array_equal(cold, hot1) and np.array_equal(cold, hot2)
        self.records.append((index, op, cold, stable))
        return 1.0

    def sampled(self, index: int) -> bool:
        """Seeded 1-in-8 choice of operations re-run on the sequential
        interpreter."""
        return int(np.random.default_rng([self.seed, 11, index]).integers(ORACLE_ONE_IN)) == 0

    def verify(self, spans) -> set:
        failed = set()
        oracle_runtime = Runtime(engine="sequential")
        for index, op, cold, stable in self.records:
            weight, activation = op.data()
            ref = ops.reference_quantized_matmul(
                activation, weight, dtype_from_name(op.dtype), GROUP_SIZE
            )
            ok = stable and relative_error(cold, ref) < TOLERANCE
            if ok and self.sampled(index):
                # Synchronous launches on a runtime that forces the
                # sequential interpreter: no batched engine, no streams,
                # no graphs.
                linear, _ = op.prepare(oracle_runtime, streams=0)
                with spans.span("vm.sequential.launch_ms", op=index):
                    sequential = linear(activation)
                ok = np.array_equal(sequential, cold)
            if not ok:
                failed.add(index)
        return failed

    def phase_metrics(self) -> dict:
        return {name: (0.0, unit) for name, unit in SERVING_METRICS.items()}

    def kernels_launched(self, indices) -> int:
        """Kernel launches the operations cause: three calls each, one
        launch per call, or two slices + a reduce under split-k."""
        return sum(
            9 if self.op(i).variant == "splitk" else 3 for i in indices
        )

    def counters(self) -> dict:
        return self.runtime.metrics()

    def program_trace(self, tracer) -> dict:
        return obs_trace.chrome_trace(tracer, self.name)

    def pids(self) -> list:
        return []


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

JIT_SPEC = WorkerSpec(jit=True, num_streams=8)

WORKLOADS = ("decode_interp", "decode_jit", "serve_pool", "matmul_spectrum")


def build_workload(name: str, seed: int, smoke: bool = False):
    if name == "decode_interp":
        return ServingWorkload(name, WorkerSpec(), 8, seed, warmup_ops=2, smoke=smoke)
    if name == "decode_jit":
        return ServingWorkload(name, JIT_SPEC, 8, seed, warmup_ops=4, smoke=smoke)
    if name == "serve_pool":
        return ServingWorkload(
            name, JIT_SPEC, 32, seed, warmup_ops=2, workers=1 if smoke else 2,
            smoke=smoke,
        )
    if name == "matmul_spectrum":
        return MatmulSpectrum(seed, smoke=smoke)
    raise ValueError(f"unknown workload {name!r}")
