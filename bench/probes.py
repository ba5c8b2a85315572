"""Per-layer probes: benchmark spans around direct public calls.

Each probe calls one layer's public function on the workload's own
inputs and records a span named after the metric it feeds (the unit is
the name's suffix), so ``SpanLog.median_s(name)`` *is* the metric.  Only
the layers a workload exercises are probed: the llm model on the three
serving workloads, router and wire on ``serve_pool`` (whose pool boot is
timed in its own set-up); a layer without a span reads 0.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass

import numpy as np

from bench.workloads import GROUP_SIZE, WARMUP, make_wave
from repro import ops
from repro.compiler.lower import LoweringBailout, lower_program
from repro.compiler.pipeline import compile_program, specialization_key
from repro.dtypes import dtype_from_name, float32
from repro.kernels import quantized_matmul_program
from repro.llm.engine import ServingSimulator
from repro.runtime import Runtime
from repro.serving.messages import recv_msg, request_to_wire, send_msg


#: Per-layer metrics that are the median of the benchmark spans of the
#: same name, with the unit the name's suffix states.
SPAN_METRICS = {
    "kernels.build_ms": "ms",
    "compiler.compile_ms": "ms",
    "compiler.speckey_us": "us",
    "compiler.lower_ms": "ms",
    "quant.prepare_ms": "ms",
    "vm.batched.launch_ms": "ms",
    "vm.batched.pair_us": "us",
    "vm.sequential.launch_ms": "ms",
    "runtime.sync.step_us": "us",
    "runtime.streams.step_us": "us",
    "runtime.graphs.capture_ms": "ms",
    "runtime.graphs.replay_us": "us",
    "llm.model.step_us": "us",
    "llm.model.prefill_us": "us",
    "serving.router.admit_us_per_req": "us",
    "serving.router.schedule_us_per_req": "us",
    "serving.wire.chunk_rt_us": "us",
    "serving.pool.boot_s": "s",
}


@dataclass
class KernelCase:
    """One single-launch kernel the workload runs, as its inputs."""

    weight: np.ndarray
    activation: np.ndarray
    dtype: str
    group_size: int
    config: object = None  # MatmulConfig, or None for the operator default


@dataclass
class Launch:
    program: object
    args: list
    #: Stream lane, or None to let the pool's scheduler place it.
    lane: int | None = None


@dataclass
class StepCase:
    """One multi-launch unit of the workload (a decode step's launches;
    a split-k fan-out), with alternative buffer sets to rebind on replay:
    ``bind_sets[j][name] = (address, nbytes)``."""

    runtime: Runtime
    num_streams: int
    launches: list
    bind_sets: list
    profiled: bool = False


# ---------------------------------------------------------------------------
# kernels / quant / compiler / vm, one kernel at a time
# ---------------------------------------------------------------------------

def probe_kernel(case: KernelCase, spans, op: int, reps: int = 3) -> None:
    dtype = dtype_from_name(case.dtype)
    runtime = Runtime()
    with spans.span("quant.prepare_ms", op=op):
        linear = ops.prepare_linear(
            case.weight, dtype, case.group_size, config=case.config, runtime=runtime
        )
    m = case.activation.shape[0]
    with spans.span("kernels.build_ms", op=op):
        program = quantized_matmul_program(
            m, linear.n, linear.k, linear.act_dtype, linear.scheme, linear.config
        )
    with spans.span("compiler.compile_ms", op=op):
        program = compile_program(program).program
    args = [
        runtime.upload(linear.act_dtype.quantize(case.activation), linear.act_dtype),
        linear.b_addr,
        linear.s_addr,
        runtime.empty([m, linear.n], linear.act_dtype),
    ]
    with spans.span("compiler.speckey_us", op=op, count=20 * reps):
        for _ in range(20 * reps):
            specialization_key(program, args)
    with spans.span("compiler.lower_ms", op=op):
        try:
            lower_program(program, args, runtime.memory)
        except LoweringBailout:
            pass  # the time to decline is the cost the JIT pays too
    runtime.launch(program, args, engine="batched")  # fills the spec cache
    with spans.span("vm.batched.launch_ms", op=op, count=reps):
        for _ in range(reps):
            runtime.launch(program, args, engine="batched")
    # Two launches stacked into one grid, the way a stream coalesces
    # them when launches outnumber streams (decode_interp's hot path).
    pair = [args, args[:3] + [runtime.empty([m, linear.n], linear.act_dtype)]]
    runtime.batched.launch_many(program, pair)
    with spans.span("vm.batched.pair_us", op=op, count=reps):
        for _ in range(reps):
            runtime.batched.launch_many(program, pair)
    sequential = ops.prepare_linear(
        case.weight, dtype, case.group_size, config=case.config,
        runtime=Runtime(engine="sequential"),
    )
    sequential(case.activation)
    with spans.span("vm.sequential.launch_ms", op=op):
        sequential(case.activation)


# ---------------------------------------------------------------------------
# runtime: the same launches issued four ways
# ---------------------------------------------------------------------------

def _issue(case: StepCase, pool) -> None:
    for launch in case.launches:
        stream = (
            "auto" if launch.lane is None
            else pool.streams[launch.lane % len(pool.streams)]
        )
        case.runtime.launch(launch.program, launch.args, stream=stream)


def probe_step(case: StepCase, spans, reps: int = 20) -> None:
    runtime = case.runtime
    pool = runtime.stream_pool(case.num_streams)
    if case.profiled:
        # JIT-on simulators run every decode step profiled (promotion is
        # heat-driven), so the step is timed the way the workload pays it.
        runtime.enable_profiling()
    try:
        for rep in range(reps + 1):  # the first repetition is warm-up
            with spans.span("runtime.sync.step_us" if rep else "probe.warm"):
                for launch in case.launches:
                    runtime.launch(launch.program, launch.args)
        for rep in range(reps + 1):
            with spans.span("runtime.streams.step_us" if rep else "probe.warm"):
                _issue(case, pool)
                runtime.synchronize()
        with spans.span("runtime.graphs.capture_ms"):
            with runtime.capture(case.num_streams) as graph:
                _issue(case, pool)
            for name, (addr, nbytes) in case.bind_sets[0].items():
                graph.bind(name, addr, nbytes)
        for rep in range(reps + 1):
            binds = case.bind_sets[rep % len(case.bind_sets)]
            with spans.span("runtime.graphs.replay_us" if rep else "probe.warm"):
                graph.replay({name: addr for name, (addr, _) in binds.items()})
    finally:
        if case.profiled:
            runtime.disable_profiling()


def decode_step_case(sim, seed: int, profiled: bool, batch: int = 8) -> StepCase:
    """The ``batch`` launches of one full decode step on ``sim``'s own
    runtime and weights, with two buffer sets (replays alternate, as the
    in-flight set does between steps)."""
    linear = sim.decode_linear
    runtime = linear.runtime
    program = linear.program_for(1)
    act_bytes = (linear.k * linear.act_dtype.nbits + 7) // 8
    out_bytes = (linear.n * linear.act_dtype.nbits + 7) // 8
    rng = np.random.default_rng([seed, 13])
    bind_sets = []
    for _ in range(2):
        binds = {}
        for slot in range(batch):
            activation = linear.act_dtype.quantize(rng.standard_normal((1, linear.k)))
            binds[f"act{slot}"] = (runtime.upload(activation, linear.act_dtype), act_bytes)
            binds[f"out{slot}"] = (runtime.empty([1, linear.n], linear.act_dtype), out_bytes)
        bind_sets.append(binds)
    first = bind_sets[0]
    launches = [
        Launch(
            program,
            [first[f"act{slot}"][0], linear.b_addr, linear.s_addr, first[f"out{slot}"][0]],
            lane=slot,
        )
        for slot in range(batch)
    ]
    return StepCase(runtime, sim.num_streams, launches, bind_sets, profiled=profiled)


def splitk_step_case(op, runtime) -> StepCase:
    """The slice + reduce launches of one split-k matmul, laid out as
    ``QuantizedLinear`` issues them (slices on their own lanes, reduce
    scheduler-placed and hazard-ordered behind them)."""
    linear, activation = op.prepare(runtime)
    m, split_k = op.m, linear.config.split_k
    slice_program, reduce_program = linear.splitk_programs_for(m)
    a_addr = runtime.upload(linear.act_dtype.quantize(activation), linear.act_dtype)
    c_addr = runtime.empty([m, linear.n], linear.act_dtype)
    p_addr = runtime.empty([split_k, m, linear.n], float32)
    slice_bytes = m * linear.n * 4
    tiles = (linear.k // linear.config.block_k) // split_k
    launches = [
        Launch(
            slice_program,
            [a_addr, linear.b_addr, linear.s_addr, p_addr + s * slice_bytes, s * tiles],
            lane=s,
        )
        for s in range(split_k)
    ]
    launches.append(Launch(reduce_program, [p_addr, c_addr]))
    return StepCase(runtime, op.streams, launches, [{}])


# ---------------------------------------------------------------------------
# llm: the analytic latency model
# ---------------------------------------------------------------------------

def probe_model(engine, waves, spans) -> None:
    """``decode_step_latency`` / ``prefill_latency`` over the (batch,
    context) pairs and prompt lengths the waves' requests produce."""
    pairs = [
        (slot % 8 + 1, request.prompt_tokens + step)
        for wave in waves
        for slot, request in enumerate(wave)
        for step in range(request.output_tokens)
    ]
    prompts = [request.prompt_tokens for wave in waves for request in wave]
    with spans.span("llm.model.step_us", count=len(pairs)):
        for batch, context in pairs:
            engine.decode_step_latency(batch=batch, context=context)
    with spans.span("llm.model.prefill_us", count=len(prompts)):
        for prompt in prompts:
            engine.prefill_latency(prompt)


# ---------------------------------------------------------------------------
# serving: router policy and the JSON wire
# ---------------------------------------------------------------------------

def probe_router(router, waves, spans) -> None:
    for wave in waves:
        with spans.span("serving.router.admit_us_per_req", count=len(wave)):
            admitted, _ = router.admit(wave)
        with spans.span("serving.router.schedule_us_per_req", count=len(wave)):
            router.schedule(admitted)


def probe_wire(chunk, spans, reps: int = 50) -> None:
    """One ``run`` frame out and its ``done`` frame back over a loopback
    pipe (both ends in this process; frames are far below the pipe
    buffer, so no send blocks)."""
    near, far = mp.Pipe()
    requests = [request_to_wire(r) for r in chunk]
    results = [
        {"rid": r.rid, "ttft_s": 0.01, "latency_s": 0.1, "digest": "0" * 16}
        for r in chunk
    ]
    counters = {
        "total_time_s": 0.1, "total_tokens": 100, "kernel_launches": 100,
        "graph_captures": 0, "graph_replays": 20, "auto_reoptimizations": 0,
        "jit_compiled": 0, "jit_promotions": 100, "cache_hits": 0, "cache_misses": 0,
    }
    try:
        with spans.span("serving.wire.chunk_rt_us", count=reps):
            for _ in range(reps):
                send_msg(near, "run", requests=requests)
                recv_msg(far)
                send_msg(far, "done", results=results, counters=counters)
                recv_msg(near)
    finally:
        near.close()
        far.close()


# ---------------------------------------------------------------------------
# Which probes a workload gets
# ---------------------------------------------------------------------------

def run_probes(workload, indices, spans, smoke: bool = False) -> None:
    """Probe the layers ``workload`` exercises, on its own inputs
    (``indices``: the operations of the traced phase)."""
    reps = 2 if smoke else 20
    with spans.span("probes"):
        if workload.spec is None:
            _probe_spectrum(workload, indices, spans, reps)
            return
        _probe_decode(workload, spans, reps)
        waves = [workload.wave(i) for i in indices[:4]]
        spec = workload.spec
        probe_model(
            ServingSimulator(spec.model_config(), spec.serving_config()), waves, spans
        )
        if workload.router is not None:
            probe_router(workload.router, waves, spans)
            probe_wire(waves[0][:8], spans, reps=reps)


def _probe_spectrum(workload, indices, spans, reps) -> None:
    sample = [(i, workload.op(i)) for i in indices if workload.sampled(i)]
    sample = sample or [(indices[0], workload.op(indices[0]))]
    for index, op in sample:
        if op.variant == "splitk":
            continue
        weight, activation = op.data()
        probe_kernel(
            KernelCase(weight, activation, op.dtype, GROUP_SIZE, op.config()),
            spans, index, reps=min(reps, 3),
        )
    splitk = [op for i in indices if (op := workload.op(i)).variant == "splitk"]
    for op in splitk[:3]:
        probe_step(splitk_step_case(op, Runtime()), spans, reps=min(reps, 5))


def _probe_decode(workload, spans, reps) -> None:
    spec = workload.spec
    weight = np.random.default_rng(spec.weight_seed).standard_normal(
        (spec.linear_k, spec.linear_n)
    )
    activation = np.random.default_rng([workload.seed, 17]).standard_normal(
        (1, spec.linear_k)
    )
    for rep in range(min(reps, 5)):
        probe_kernel(
            KernelCase(weight, activation, spec.linear_dtype, spec.linear_group),
            spans, rep, reps=3,
        )
    # A private simulator built from the workload's spec, warmed so the
    # compiled tier is promoted exactly as in the measured system.
    sim = spec.build_simulator()
    for index in range(workload.warmup_ops):
        sim.run(make_wave(workload.seed, index, 8, WARMUP, workload.output_tokens))
    probe_step(decode_step_case(sim, workload.seed, profiled=spec.jit), spans, reps=reps)
