"""Microbenchmarks of the reproduction's own machinery: VM kernel
execution throughput (sequential vs grid-vectorized batched engine),
multi-stream asynchronous launch throughput, preparation of a relaunched
program, layout algebra, transform, and compilation speed.

These are honest pytest-benchmark measurements of this library (the
figures above are analytical); they guard against performance regressions
in the interpreter and compiler.

Run ``python benchmarks/bench_vm_execution.py --quick`` for a fast
self-checking summary: it measures the batched-vs-sequential speedup on a
multi-block program (asserting the >= 3x target), the multi-stream
speedup of 8 streams of independent launches over serial issue (asserting
the >= 1.5x target *and* bit-exactness versus a serial replay), the
execution-graph replay speedup over per-step eager stream submission on
the kernel-in-the-loop decode workload (asserting the >= 1.3x target and
bit-exactness), the multi-process
sharded-serving stack (4 spawned worker processes behind the router's
admission + SLO scheduling serving an open-loop Poisson burst —
asserting the >= 2.5x simulated-throughput target over the
single-process simulator, bit-exact output digests vs the serial
oracle, and the p50/p99 latency gates), the tiered JIT (the
pass-pipeline-lowered compiled kernel vs the batched engine on the
quantized-matmul template family — asserting the >= 2x target and
bit-exactness, with the one-time lowering cost reported), the
observability layer (a traced 2-worker serving burst: merged fleet
trace and frozen ``metrics()`` contracts validated), and reports the
``runtime.spec_cache`` hit rate of a repeated-launch scenario (a hit is
a launch of an already prepared program).
``--section engine|streams|graphs|serving|jit|obs|all`` selects
which quick checks run (the CI matrix runs them as separate jobs); an
unknown section is rejected with the list of valid ones.
"""

import time

import numpy as np

from repro.dtypes import float16, int6, uint8
from repro.kernels import (
    MatmulConfig,
    matmul_layouts,
    quantized_matmul_program,
)
from repro.compiler import compile_program
from repro.lang import ProgramBuilder, pointer
from repro.layout import local, mma_m16n8k16, spatial
from repro.quant import QuantScheme, quantize_weight, transform_weight
from repro.runtime import Runtime, StreamPool
from repro.vm import BatchedExecutor, GlobalMemory, Interpreter


def _setup_matmul(m=32, n=16, k=64, stages=1):
    scheme = QuantScheme(int6, group_size=32)
    cfg = MatmulConfig(16, 8, 16, num_stages=stages)
    rng = np.random.default_rng(0)
    a = float16.quantize(rng.standard_normal((m, k)))
    q, scales = quantize_weight(rng.standard_normal((k, n)), scheme)
    lay = matmul_layouts(cfg, int6)
    packed = transform_weight(q, int6, lay.b_warp)
    prog = quantized_matmul_program(m, n, k, float16, scheme, cfg)
    interp = Interpreter()
    args = [
        interp.upload(a, float16),
        interp.upload(packed, uint8),
        interp.upload(float16.quantize(scales), float16),
        interp.alloc_output([m, n], float16),
    ]
    return interp, prog, args


def test_vm_matmul_direct(benchmark):
    interp, prog, args = _setup_matmul(stages=1)
    benchmark(interp.launch, prog, args)


def test_vm_matmul_pipelined(benchmark):
    interp, prog, args = _setup_matmul(stages=2)
    benchmark(interp.launch, prog, args)


def test_layout_compose(benchmark):
    a = local(2, 1)
    b = spatial(8, 4)
    c = local(1, 2)
    benchmark(lambda: a.compose(b).compose(c))


def test_layout_map_batch(benchmark):
    layout = mma_m16n8k16().a_layout
    t = np.repeat(np.arange(32), 8)
    i = np.tile(np.arange(8), 32)
    benchmark(layout.map_batch, t, i)


def test_layout_divide(benchmark):
    from repro.layout import divide

    h = local(2, 1).spatial(8, 4).local(1, 2)
    g = local(1, 2)
    benchmark(divide, h, g)


def test_weight_transform_host(benchmark):
    lay = matmul_layouts(MatmulConfig(16, 8, 16), int6)
    q = np.random.default_rng(0).integers(-32, 32, size=(128, 64))
    benchmark(transform_weight, q, int6, lay.b_warp)


def test_compile_pipeline(benchmark):
    prog = quantized_matmul_program(
        64, 32, 64, float16, QuantScheme(int6, 32),
        MatmulConfig(32, 16, 32, 2, 2, num_stages=2),
    )
    benchmark(compile_program, prog)


# ---------------------------------------------------------------------------
# Batched engine vs sequential interpreter
# ---------------------------------------------------------------------------


def _multiblock_program(gb=8, gw=8, th=8, tw=4, steps=4, name="multiblock"):
    """An elementwise kernel over a gb*gw grid: out = (a * 2 + 1) summed
    ``steps`` times — the many-small-blocks shape that dominates serving
    traffic and that grid vectorization targets."""
    pb = ProgramBuilder(name, grid=[gb, gw])
    a_ptr = pb.param("a", pointer(float16))
    out_ptr = pb.param("out", pointer(float16))
    bi, bj = pb.block_indices()
    rows, cols = gb * th, gw * tw
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[rows, cols])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[rows, cols])
    layout = spatial(th, tw)
    acc = pb.allocate_register("f32", layout=layout, init=0.0)
    tile = pb.load_global(g_a, layout=layout, offset=[bi * th, bj * tw])
    scaled = pb.mul(tile, 2.0)
    shifted = pb.add(scaled, 1.0)
    contrib = pb.cast(shifted, "f32")
    with pb.for_range(steps):
        pb.add(acc, contrib, out=acc)
    result = pb.cast(acc, "f16")
    pb.store_global(result, g_out, offset=[bi * th, bj * tw])
    return pb.finish(), (rows, cols)


def _setup_multiblock(engine_cls, gb=8, gw=8):
    prog, (rows, cols) = _multiblock_program(gb=gb, gw=gw)
    engine = engine_cls()
    data = float16.quantize(np.random.default_rng(0).standard_normal((rows, cols)))
    args = [engine.upload(data, float16), engine.alloc_output([rows, cols], float16)]
    return engine, prog, args


def test_vm_multiblock_sequential(benchmark):
    engine, prog, args = _setup_multiblock(Interpreter)
    benchmark(engine.launch, prog, args)


def test_vm_multiblock_batched(benchmark):
    engine, prog, args = _setup_multiblock(BatchedExecutor)
    benchmark(engine.launch, prog, args)


def test_specialization_cache_relaunch(benchmark):
    """Steady-state relaunch cost: prepare once, then launches of the
    prepared program."""
    rt = Runtime()
    prog, (rows, cols) = _multiblock_program(gb=4, gw=4)
    data = float16.quantize(np.random.default_rng(0).standard_normal((rows, cols)))
    args = [rt.upload(data, float16), rt.empty([rows, cols], float16)]
    rt.launch(prog, args)  # prepares the program
    benchmark(rt.launch, prog, args)
    metrics = rt.metrics()
    assert metrics["runtime.spec_cache.misses"] == 1
    assert metrics["runtime.spec_cache.hits"] >= 1


# ---------------------------------------------------------------------------
# Multi-stream asynchronous issue vs serial issue
# ---------------------------------------------------------------------------

#: The serving-shaped stream workload: many independent small multi-block
#: launches (distinct in-flight decode requests), the regime where launch
#: orchestration — not kernel math — dominates.
STREAM_GRID = (2, 2)
STREAM_STEPS = 8


def _stream_workload(num_streams: int, per_stream: int):
    """One device image per issue mode: identical uploads, so outputs can
    be compared bit-exactly afterwards."""
    prog, (rows, cols) = _multiblock_program(
        gb=STREAM_GRID[0], gw=STREAM_GRID[1], steps=STREAM_STEPS, name="stream_block"
    )
    rng = np.random.default_rng(0)
    datas = [
        float16.quantize(rng.standard_normal((rows, cols)))
        for _ in range(num_streams * per_stream)
    ]
    memory = GlobalMemory(1 << 24)
    host = Interpreter(memory)
    args = [
        (host.upload(d, float16), host.alloc_output([rows, cols], float16))
        for d in datas
    ]
    return prog, (rows, cols), memory, host, args


def stream_report(
    min_speedup: float = 1.5, num_streams: int = 8, per_stream: int = 8
) -> dict:
    """Measure 8-stream asynchronous issue against serial issue.

    Serial issue runs every launch to completion before issuing the next
    (the synchronous ``Runtime.launch`` pattern: one engine invocation
    per launch); streamed issue queues all launches round-robin across
    the streams and synchronizes once — the drain point, where the pool
    coalesces hazard-independent launches into stacked groups and runs
    them inline.  What is measured is that coalescing (plus the
    per-launch submit cost), not thread overlap: there are no stream
    threads.  Asserts the >= ``min_speedup`` target and that streamed
    outputs are bit-identical to the serial replay's.
    """
    prog, (rows, cols), mem_serial, host_serial, args_serial = _stream_workload(
        num_streams, per_stream
    )
    executor = BatchedExecutor(mem_serial, stats=host_serial.stats)

    def serial():
        for a, o in args_serial:
            executor.launch(prog, [a, o])

    t_serial = _time_best(serial)

    _, _, mem_stream, host_stream, args_stream = _stream_workload(
        num_streams, per_stream
    )
    pool = StreamPool(mem_stream, num_streams=num_streams)

    def streamed():
        for i, (a, o) in enumerate(args_stream):
            pool.submit(prog, [a, o], stream=pool.streams[i % num_streams])
        pool.synchronize()

    try:
        t_stream = _time_best(streamed, repeats=7)
        # Counters for exactly one workload pass (not the timing repeats).
        launches0, executions0 = pool.launches, pool.executions
        streamed()
        launches = pool.launches - launches0
        executions = pool.executions - executions0
    finally:
        pool.shutdown()
    speedup = t_serial / t_stream

    for (_, o_serial), (_, o_stream) in zip(args_serial, args_stream):
        want = host_serial.download(o_serial, [rows, cols], float16)
        got = host_stream.download(o_stream, [rows, cols], float16)
        assert np.array_equal(got, want), "streamed outputs diverge from serial replay"

    report = {
        "serial_ms": t_serial * 1e3,
        "streamed_ms": t_stream * 1e3,
        "stream_speedup": speedup,
        "launches": launches,
        "executions": executions,
    }
    n = num_streams * per_stream
    print(
        f"{n} independent launches: serial issue {report['serial_ms']:.2f} ms, "
        f"{num_streams} streams {report['streamed_ms']:.2f} ms -> "
        f"{speedup:.1f}x speedup (bit-exact), "
        f"{launches} launches coalesced into {executions} executions"
    )
    assert speedup >= min_speedup, (
        f"multi-stream speedup {speedup:.2f}x below the {min_speedup:.1f}x target"
    )
    return report


# ---------------------------------------------------------------------------
# Execution-graph replay vs per-step eager stream submission
# ---------------------------------------------------------------------------

#: The decode-shaped graph workload: every "step" runs one tiny kernel
#: per in-flight request (each updating its own private buffer in place),
#: spread over the streams — and the step's launch DAG is identical every
#: time, which is exactly what graph capture freezes.  Single-block
#: grids with the batched engine forced keep the per-step math minimal
#: (coalescing stacks each stream's requests into one execution) so the
#: measurement isolates what capture eliminates: per-launch scheduling,
#: hazard analysis, and coalescing probes.
GRAPH_REQUESTS = 32
GRAPH_STREAMS = 4


def _decode_step_program(name="decode_step"):
    """An in-place per-request kernel: ``buf = buf * 0.5 + 1`` on one
    (8, 4) tile — small enough that per-launch orchestration, not kernel
    math, dominates a step."""
    pb = ProgramBuilder(name, grid=[1, 1])
    buf_ptr = pb.param("buf", pointer(float16))
    bi, bj = pb.block_indices()
    g_buf = pb.view_global(buf_ptr, dtype=float16, shape=[8, 4])
    tile = pb.load_global(g_buf, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
    result = pb.add(pb.mul(tile, 0.5), 1.0)
    pb.store_global(result, g_buf, offset=[bi * 8, bj * 4])
    return pb.finish(), (8, 4)


def _graph_workload(num_requests: int):
    prog, (rows, cols) = _decode_step_program()
    memory = GlobalMemory(1 << 24)
    host = Interpreter(memory)
    rng = np.random.default_rng(0)
    bufs = [
        host.upload(float16.quantize(rng.standard_normal((rows, cols))), float16)
        for _ in range(num_requests)
    ]
    return prog, (rows, cols), memory, host, bufs


def graph_report(
    min_speedup: float = 1.3,
    num_requests: int = GRAPH_REQUESTS,
    num_streams: int = GRAPH_STREAMS,
    steps: int = 20,
) -> dict:
    """Measure execution-graph replay against per-step eager submission.

    Eager issue re-submits the step's launch DAG every step — paying
    range resolution, the hazard scan and placement per launch and group
    formation per drain; graph replay captures the DAG once and runs the
    frozen groups through the same inline group loop.  Asserts the >= ``min_speedup`` target and that replayed
    device memory is bit-identical to the eager run's after the same
    number of steps.
    """
    prog, (rows, cols), _, host_e, bufs_e = _graph_workload(num_requests)
    pool_e = StreamPool(host_e.memory, num_streams=num_streams)

    def eager_step():
        for i, buf in enumerate(bufs_e):
            pool_e.submit(
                prog, [buf], stream=pool_e.streams[i % num_streams], engine="batched"
            )
        pool_e.synchronize()

    _, _, _, host_g, bufs_g = _graph_workload(num_requests)
    pool_g = StreamPool(host_g.memory, num_streams=num_streams)
    with pool_g.capture() as graph:
        for i, buf in enumerate(bufs_g):
            pool_g.submit(
                prog, [buf], stream=pool_g.streams[i % num_streams], engine="batched"
            )

    try:
        # Correctness first (before the timing loops perturb the data):
        # the same number of steps through each path must leave device
        # memory bit-identical.
        for _ in range(5):
            eager_step()
        for _ in range(5):
            graph.replay()
        for b_e, b_g in zip(bufs_e, bufs_g):
            want = host_e.download(b_e, [rows, cols], float16)
            got = host_g.download(b_g, [rows, cols], float16)
            assert np.array_equal(got, want), "graph replay diverges from eager issue"

        def eager_steps():
            for _ in range(steps):
                eager_step()

        def replay_steps():
            for _ in range(steps):
                graph.replay()

        t_eager = _time_best(eager_steps)
        t_replay = _time_best(replay_steps)
    finally:
        pool_e.shutdown()
        pool_g.shutdown()
    speedup = t_eager / t_replay
    report = {
        "eager_ms": t_eager * 1e3,
        "replay_ms": t_replay * 1e3,
        "graph_speedup": speedup,
        "nodes": graph.num_nodes,
        "groups": graph.num_groups,
    }
    print(
        f"{steps}-step decode DAG ({num_requests} requests, {num_streams} "
        f"streams): eager issue {report['eager_ms']:.2f} ms, graph replay "
        f"{report['replay_ms']:.2f} ms -> {speedup:.1f}x speedup (bit-exact), "
        f"{graph.num_nodes} nodes frozen into {graph.num_groups} groups"
    )
    assert speedup >= min_speedup, (
        f"graph replay speedup {speedup:.2f}x below the {min_speedup:.1f}x target"
    )
    return report


# ---------------------------------------------------------------------------
# Multi-process sharded serving vs the single-process simulator
# ---------------------------------------------------------------------------

#: The sharded-serving workload: an overloaded open-loop Poisson burst
#: (arrivals span milliseconds, service spans much longer — the regime
#: where sharding is the only way out) routed over a real worker pool.
SERVING_WORKERS = 4
SERVING_REQUESTS = 48
SERVING_CHUNK = 6
SERVING_OUTPUT_TOKENS = 16


def serving_report(
    min_speedup: float = 2.5,
    max_p99_s: float = 60.0,
    num_workers: int = SERVING_WORKERS,
    num_requests: int = SERVING_REQUESTS,
) -> dict:
    """Measure sharded serving against the single-process simulator.

    ``num_workers`` spawned worker processes (one kernel-in-the-loop
    :class:`~repro.llm.batching.ContinuousBatchingSimulator` each,
    rebuilt deterministically from the
    :class:`~repro.serving.WorkerSpec` recipe, JSON pipes only) serve an
    open-loop Poisson trace behind the router's admission + SLO
    scheduling; the oracle is one in-process simulator serving the
    identical trace.  The speedup gate compares **simulated** serving
    makespans (the repo's latency accounting is analytic throughout;
    wall-clock depends on host core count and is reported, not gated).
    Asserts the >= ``min_speedup`` throughput target, that every
    completed request's output digest matches the serial oracle
    bit-for-bit, that nothing was rejected or lost, and that the
    simulated p99 end-to-end latency stays under ``max_p99_s``.
    """
    from repro.serving import Router, WorkerPool, WorkerSpec, poisson_trace

    spec = WorkerSpec(
        linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
        max_batch=8, num_streams=4,
    )
    # Overloaded open-loop arrivals: the whole trace lands in ~5 ms of
    # virtual time, far faster than any single simulator can drain it.
    trace = poisson_trace(
        num_requests,
        rate_rps=10_000.0,
        prompt_tokens=128,
        output_tokens=SERVING_OUTPUT_TOKENS,
        seed=7,
        slo_s=60.0,
    )

    # Serial oracle: one in-process simulator, warmed so its one-time
    # template compile stays out of the comparison (the workers warm
    # equivalently below).
    sim = spec.build_simulator()
    sim.run(poisson_trace(1, rate_rps=1.0, output_tokens=2, rid_base=1_000_000))
    wall_start = time.perf_counter()
    oracle = sim.run(trace)
    single_wall = time.perf_counter() - wall_start

    with WorkerPool(spec, num_workers) as pool:
        # Warm every worker with a one-request chunk each (compiles the
        # decode kernel in each process before anything is timed).
        warmup = poisson_trace(
            num_workers, rate_rps=1.0, output_tokens=2, rid_base=2_000_000
        )
        Router(pool, chunk_size=1).serve(warmup, timeout_s=120.0)
        router = Router(pool, chunk_size=SERVING_CHUNK)
        result = router.serve(trace, timeout_s=300.0)

    assert not result.rejected, f"{len(result.rejected)} requests rejected"
    assert result.num_completed == num_requests, (
        f"completed {result.num_completed} of {num_requests} requests"
    )
    oracle_digests = {r.request.rid: r.output_digest for r in oracle.results}
    for served in result.completed:
        rid = served.request.rid
        assert served.digest == oracle_digests[rid], (
            f"request {rid}: worker {served.worker} digest {served.digest} "
            f"!= oracle {oracle_digests[rid]} — sharded decode is not bit-exact"
        )

    speedup = oracle.total_time_s / result.simulated_makespan_s
    p50 = result.latency_percentile(50)
    p99 = result.latency_percentile(99)
    report = {
        "workers": num_workers,
        "single_sim_s": oracle.total_time_s,
        "pool_sim_s": result.simulated_makespan_s,
        "serving_speedup": speedup,
        "p50_s": p50,
        "p99_s": p99,
        "slo_attainment": result.slo_attainment,
        "single_wall_s": single_wall,
        "pool_wall_s": result.wall_s,
        "respawns": result.respawns,
    }
    print(
        f"sharded serving ({num_requests}-request Poisson burst, "
        f"{num_workers} workers x batch {spec.max_batch}): single-process "
        f"{oracle.total_time_s * 1e3:.1f} ms simulated, pool "
        f"{result.simulated_makespan_s * 1e3:.1f} ms -> {speedup:.1f}x "
        f"throughput (bit-exact vs oracle, 0 lost); latency p50 "
        f"{p50 * 1e3:.1f} ms p99 {p99 * 1e3:.1f} ms, SLO attainment "
        f"{result.slo_attainment:.0%}; wall {single_wall:.1f}s vs "
        f"{result.wall_s:.1f}s on {num_workers} processes"
    )
    assert speedup >= min_speedup, (
        f"sharded-serving speedup {speedup:.2f}x below the "
        f"{min_speedup:.1f}x target"
    )
    assert p99 <= max_p99_s, (
        f"simulated p99 latency {p99:.2f}s above the {max_p99_s:.1f}s gate"
    )
    assert p50 <= p99
    return report


# ---------------------------------------------------------------------------
# Quick self-checking mode (CI smoke test)
# ---------------------------------------------------------------------------


def _time_best(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def quick_report(min_speedup: float = 3.0, launches: int = 20) -> dict:
    """Measure the headline numbers and assert the speedup target."""
    seq_engine, seq_prog, seq_args = _setup_multiblock(Interpreter)
    bat_engine, bat_prog, bat_args = _setup_multiblock(BatchedExecutor)
    t_seq = _time_best(lambda: seq_engine.launch(seq_prog, seq_args))
    t_bat = _time_best(lambda: bat_engine.launch(bat_prog, bat_args))
    speedup = t_seq / t_bat

    # Repeated-launch scenario: one program object relaunched (the
    # operator pattern: programs are memoized per shape) is prepared on
    # the first launch only.
    rt = Runtime()
    prog, (rows, cols) = _multiblock_program(gb=4, gw=4)
    data = float16.quantize(np.random.default_rng(0).standard_normal((rows, cols)))
    args = [rt.upload(data, float16), rt.empty([rows, cols], float16)]
    for _ in range(launches):
        rt.launch(prog, args)
    metrics = rt.metrics()
    hits = metrics["runtime.spec_cache.hits"]
    misses = metrics["runtime.spec_cache.misses"]
    report = {
        "sequential_ms": t_seq * 1e3,
        "batched_ms": t_bat * 1e3,
        "speedup": speedup,
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": hits / (hits + misses),
    }
    print(
        f"multi-block (64 blocks): sequential {report['sequential_ms']:.2f} ms, "
        f"batched {report['batched_ms']:.2f} ms -> {speedup:.1f}x speedup"
    )
    print(
        f"repeated launches (one program, {launches} launches): "
        f"{hits} hits / {misses} miss "
        f"(hit rate {report['cache_hit_rate']:.0%}) — prepared once"
    )
    assert speedup >= min_speedup, (
        f"batched engine speedup {speedup:.2f}x below the {min_speedup:.1f}x target"
    )
    assert misses == 1 and hits == launches - 1
    return report


def jit_report(min_speedup: float = 2.0) -> dict:
    """Measure the compiled tier against the batched engine on the
    quantized-matmul template family and assert the >= 2x floor.

    The floor is re-based on the packed-pattern batched engine (the two
    tiers now share one representation, so what compilation buys is the
    statement walk, the index math and the dispatch, not a re-packing):
    eight consecutive quick runs read a worst-of-templates speedup of
    4.5, 3.8, 4.8, 3.7, 2.8, 4.4, 4.8, 4.5 (direct 2.8-4.8x, pipelined
    3.7-6.3x) on a 2-vCPU guest; the floor sits below the minimum.

    Each template instantiation (direct and software-pipelined) is
    lowered once through the pass pipeline (const-fold -> unroll ->
    flatten) and the compiled kernel is raced against the batched
    executor on the same device image; outputs must agree byte for
    byte.  The one-time lowering cost is reported separately — it is
    what the JIT's ``PROMOTE_AFTER`` interpreted invocations amortize."""
    from repro.compiler.lower import lower_program

    report: dict = {}
    worst = float("inf")
    for label, stages in (("direct", 1), ("pipelined", 2)):
        interp, prog, args = _setup_matmul(m=32, n=16, k=64, stages=stages)
        memory = interp.memory
        batched = BatchedExecutor(memory, stats=interp.stats)
        start = time.perf_counter()
        kernel = lower_program(prog, args, memory)
        lower_ms = (time.perf_counter() - start) * 1e3

        batched.launch(prog, args)
        want = interp.download(args[-1], [32, 16], float16).copy()
        kernel.run(memory, args)
        got = interp.download(args[-1], [32, 16], float16)
        assert np.array_equal(want, got), (
            f"compiled {label} matmul diverged from the batched engine"
        )

        t_bat = _time_best(lambda: batched.launch(prog, args))
        t_jit = _time_best(lambda: kernel.run(memory, args))
        speedup = t_bat / t_jit
        worst = min(worst, speedup)
        report[label] = {
            "batched_ms": t_bat * 1e3,
            "compiled_ms": t_jit * 1e3,
            "lowering_ms": lower_ms,
            "speedup": speedup,
        }
        print(
            f"matmul template ({label}): batched {t_bat * 1e3:.2f} ms, "
            f"compiled {t_jit * 1e3:.2f} ms -> {speedup:.1f}x speedup "
            f"(lowering once: {lower_ms:.1f} ms)"
        )
    assert worst >= min_speedup, (
        f"compiled-tier speedup {worst:.2f}x below the "
        f"{min_speedup:.1f}x target"
    )
    return report


def obs_report(num_workers: int = 2, num_requests: int = 16) -> dict:
    """Validate the observability layer end to end and measure its cost.

    Part one runs a traced ``num_workers``-worker serving burst (every
    worker with the process tracer installed and the JIT attached: a
    key promotes after ``PROMOTE_AFTER`` interpreted launches, which a
    worker's run passes, so compiled-tier events appear even in a short
    run)
    and validates the merged fleet trace: one Chrome trace object that
    survives a JSON round-trip, with one pid per process (router +
    workers), every event category a serving fleet emits (router,
    worker, runtime, jit), and clock-normalized timestamps starting at
    t=0.  The unified ``metrics()`` snapshots (router contract and each
    worker's simulator contract) are validated against their frozen key
    sets, and the per-worker breakdown must account for every completed
    request.

    Part two measures tracing's *enabled* overhead on the multi-stream
    launch workload (reported, not gated: wall-clock noise in CI makes a
    tight enabled-overhead gate flaky).  The tracing-**disabled**
    overhead gate lives in the ``streams`` section: its 1.5x speedup
    floor runs with the emit-point guards present and no tracer
    installed, so a disabled-path regression fails that gate.
    """
    import json as _json

    from repro.obs import ROUTER_METRICS_KEYS, SIMULATOR_METRICS_KEYS
    from repro.obs import trace as obs_trace
    from repro.obs.trace import load_trace, summarize_trace
    from repro.serving import Router, WorkerPool, WorkerSpec, poisson_trace

    # -- traced fleet run ---------------------------------------------------
    spec = WorkerSpec(
        linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
        max_batch=1, num_streams=2, jit=True, trace=True,
    )
    # A chunk is 2 requests x 8 tokens at max_batch=1: sixteen launches
    # of one key per worker run, past the JIT's promotion constant.
    trace_requests = poisson_trace(
        num_requests, rate_rps=10_000.0, prompt_tokens=128,
        output_tokens=8, seed=11, slo_s=60.0,
    )
    obs_trace.install()
    try:
        with WorkerPool(spec, num_workers) as pool:
            router = Router(pool, chunk_size=2)
            result = router.serve(trace_requests, timeout_s=300.0)
            fleet = router.fleet_trace()
            worker_metrics = [
                pool.pull_trace(i)["metrics"] for i in range(num_workers)
            ]
    finally:
        obs_trace.uninstall()

    assert result.num_completed == num_requests, (
        f"completed {result.num_completed} of {num_requests}"
    )
    router_metrics = result.metrics()
    assert set(router_metrics) == set(ROUTER_METRICS_KEYS)
    for snapshot in worker_metrics:
        assert set(snapshot) == set(SIMULATOR_METRICS_KEYS)
    breakdown = result.per_worker()
    assert sum(row["requests"] for row in breakdown.values()) == num_requests

    # The merged trace must survive a JSON round-trip and be coherent.
    roundtrip = load_trace(_json.dumps(fleet))
    events = roundtrip["traceEvents"]
    assert events, "fleet trace is empty"
    pids = {e["pid"] for e in events}
    assert pids == set(range(num_workers + 1)), (
        f"expected pids 0..{num_workers}, got {sorted(pids)}"
    )
    cats = {e.get("cat") for e in events if e.get("ph") in ("X", "i")}
    # A served decode step is one synchronous launch ("runtime"); the
    # stream and graph lanes belong to split-k, not to a serving fleet.
    for category in ("router", "worker", "runtime", "jit"):
        assert category in cats, f"no {category!r} events in the fleet trace"
    stamps = [e["ts"] for e in events if e.get("ph") in ("X", "i")]
    assert min(stamps) >= 0.0, "clock normalization produced negative timestamps"
    summary = summarize_trace(roundtrip)

    # -- enabled-overhead measurement (streams workload) --------------------
    prog, _, mem, _, launch_args = _stream_workload(4, 8)
    pool = StreamPool(mem, num_streams=4)

    def streamed():
        for i, (a, o) in enumerate(launch_args):
            pool.submit(prog, [a, o], stream=pool.streams[i % 4])
        pool.synchronize()

    try:
        t_off = _time_best(streamed, repeats=7)
        obs_trace.install(capacity=1 << 20)
        try:
            t_on = _time_best(streamed, repeats=7)
        finally:
            obs_trace.uninstall()
    finally:
        pool.shutdown()
    overhead = t_on / t_off - 1.0

    report = {
        "workers": num_workers,
        "trace_events": len(events),
        "trace_pids": len(pids),
        "trace_categories": sorted(c for c in cats if c),
        "phases": summary["phases"],
        "router_metrics": router_metrics,
        "tracing_off_ms": t_off * 1e3,
        "tracing_on_ms": t_on * 1e3,
        "tracing_enabled_overhead": overhead,
    }
    print(
        f"observability: {num_workers}-worker traced burst -> "
        f"{len(events)} events across {len(pids)} processes "
        f"({', '.join(report['trace_categories'])}); metrics contracts "
        f"validated ({len(ROUTER_METRICS_KEYS)} router + "
        f"{len(SIMULATOR_METRICS_KEYS)} simulator keys); streams workload "
        f"{t_off * 1e3:.2f} ms untraced vs {t_on * 1e3:.2f} ms traced "
        f"({overhead:+.1%} enabled overhead; disabled-path cost is gated "
        f"by the streams section floor)"
    )
    return report


#: Quick-mode sections, in run order.  ``--section all`` runs every one.
SECTIONS = (
    "engine",
    "streams",
    "graphs",
    "serving",
    "jit",
    "obs",
)


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the self-checking speedup/cache summary instead of pytest-benchmark",
    )
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument(
        "--min-stream-speedup",
        type=float,
        default=1.5,
        help="multi-stream vs serial-issue speedup floor",
    )
    parser.add_argument(
        "--min-graph-speedup",
        type=float,
        default=1.3,
        help="graph replay vs per-step eager-submission speedup floor",
    )
    parser.add_argument(
        "--min-serving-speedup",
        type=float,
        default=2.5,
        help="sharded-serving (4 workers) vs single-process simulated "
        "throughput floor",
    )
    parser.add_argument(
        "--min-jit-speedup",
        type=float,
        default=2.0,
        help="compiled tier vs batched engine speedup floor on the "
        "matmul template family",
    )
    parser.add_argument(
        "--max-serving-p99",
        type=float,
        default=60.0,
        help="simulated p99 end-to-end latency ceiling (seconds) for the "
        "sharded-serving trace",
    )
    parser.add_argument(
        "--section",
        choices=(*SECTIONS, "all"),
        default="all",
        help="which quick checks to run (CI runs these as a matrix); "
        "an unknown value is rejected with the valid choices listed",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the per-section report dicts (plus the gate "
        "thresholds in force) as machine-readable JSON — the CI bench "
        "artifact",
    )
    args = parser.parse_args()
    if args.quick:
        sections: dict[str, dict] = {}
        if args.section in ("engine", "all"):
            sections["engine"] = quick_report(min_speedup=args.min_speedup)
        if args.section in ("streams", "all"):
            sections["streams"] = stream_report(min_speedup=args.min_stream_speedup)
        if args.section in ("graphs", "all"):
            sections["graphs"] = graph_report(min_speedup=args.min_graph_speedup)
        if args.section in ("serving", "all"):
            sections["serving"] = serving_report(
                min_speedup=args.min_serving_speedup,
                max_p99_s=args.max_serving_p99,
            )
        if args.section in ("jit", "all"):
            sections["jit"] = jit_report(min_speedup=args.min_jit_speedup)
        if args.section in ("obs", "all"):
            sections["obs"] = obs_report()
        if args.json is not None:
            import json

            payload = {
                "bench": "bench_vm_execution",
                "unix_time": time.time(),
                "section": args.section,
                "gates": {
                    "min_speedup": args.min_speedup,
                    "min_stream_speedup": args.min_stream_speedup,
                    "min_graph_speedup": args.min_graph_speedup,
                    "min_serving_speedup": args.min_serving_speedup,
                    "min_jit_speedup": args.min_jit_speedup,
                    "max_serving_p99": args.max_serving_p99,
                },
                "sections": sections,
            }
            with open(args.json, "w") as f:
                json.dump(payload, f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"wrote machine-readable report: {args.json}")
    else:
        parser.error("use pytest for full benchmarks, or pass --quick")


if __name__ == "__main__":
    main()
