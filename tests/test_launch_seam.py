"""The launch seam (:mod:`repro.runtime.executor`): one launch must be
decided, executed, measured and recorded the same way whichever of the
four entry points issues it — the synchronous ``Runtime.launch``, an
eager stream, a streamed graph replay, or the serial replay oracle.

Each case builds a fresh runtime, drives exactly one execution of one
launch through one entry point, and reduces what the runtime observed
to a comparable outcome: the tier that ran, the ``ExecutionStats``
delta, the profile record and the span.  All four entry points must
produce the same outcome for every tier scenario.
"""

import numpy as np
import pytest

from repro.compiler.pipeline import specialization_key
from repro.dtypes import float16
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.runtime import Runtime
from repro.runtime.profiling import spec_string
from repro.runtime.streams import Event

ROWS, COLS = 8, 4

ENTRIES = ("sync", "stream", "replay", "serial")

#: scenario -> (launch engine, JIT setup, expected tier).  The programs
#: are single-block, so ``auto`` resolves to the sequential engine and a
#: forced ``batched`` is distinguishable from it.  (``batched`` runs
#: against a *cold* JIT: capture consumes an explicit interpreted engine
#: into the node's frozen engine, so a hot one would promote at replay.)
SCENARIOS = {
    "auto-cold": (None, "cold", "sequential"),
    "auto-hot": (None, "hot", "compiled"),
    "forced-compiled": ("compiled", None, "compiled"),
    "forced-batched": ("batched", "cold", "batched"),
    "bailout": ("compiled", None, "batched"),
}


def scale_program(name: str, blocks: int = 1, printing: bool = False):
    """``out = a * scale``, half the rows per block when ``blocks=2``;
    ``scale`` is a scalar parameter, so launches binding it differently
    are distinct specializations of one program.  ``printing`` adds a
    ``PrintTensor``, which the lowering pipeline declines (the bailout
    program)."""
    pb = ProgramBuilder(name, grid=[blocks])
    a_ptr = pb.param("a", pointer(float16))
    out_ptr = pb.param("out", pointer(float16))
    scale = pb.param("scale", "f32")
    (bi,) = pb.block_indices()
    rows = ROWS // blocks
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
    tile = pb.load_global(g_a, layout=spatial(rows, COLS), offset=[bi * rows, 0])
    result = pb.cast(pb.mul(pb.cast(tile, "f32"), scale), "f16")
    if printing:
        pb.print_tensor(result, "seam")
    pb.store_global(result, g_out, offset=[bi * rows, 0])
    return pb.finish()


def fresh_runtime(num_outputs: int = 1, engine: str = "auto"):
    runtime = Runtime(engine=engine)
    rng = np.random.default_rng(0)
    a = runtime.upload(float16.quantize(rng.standard_normal((ROWS, COLS))), float16)
    outs = [runtime.empty([ROWS, COLS], float16) for _ in range(num_outputs)]
    return runtime, a, outs


def drive(entry: str, scenario: str) -> dict:
    """One execution of one launch through ``entry``; what was observed."""
    engine, jit_setup, _ = SCENARIOS[scenario]
    runtime, a, (out,) = fresh_runtime()
    program = scale_program(
        "seam_" + scenario.replace("-", "_"), printing=scenario == "bailout"
    )
    args = [a, out, 2.0]
    # The runtime executes the spec cache's compiled program, so the
    # recorded spec is the key of that program, not of the fresh build.
    program = runtime.cache.get(program, args).program
    spec = spec_string(specialization_key(program, args))
    profiler = runtime.enable_profiling()
    if jit_setup is not None:
        runtime.enable_jit(threshold_s=1.0)
        if jit_setup == "hot":
            runtime.jit.preheat({spec: 2.0})
    tracer = runtime.enable_tracing()
    try:
        graph = None
        if entry in ("replay", "serial"):
            with runtime.capture(num_streams=2) as graph:
                runtime.launch(program, args, engine=engine)
            assert len(profiler) == 0 and runtime.stats().blocks_run == 0
        before = runtime.stats().snapshot()
        if entry == "sync":
            runtime.launch(program, args, engine=engine)
        elif entry == "stream":
            runtime.launch(program, args, engine=engine, stream="auto").wait()
        else:
            graph.replay(serial=entry == "serial")
        runtime.synchronize()
        after = runtime.stats().snapshot()
    finally:
        runtime.disable_tracing()
        if runtime._pool is not None:
            runtime._pool.shutdown()
    spans = [
        event for event in tracer.events()
        if event["name"].split(":")[0] in ("launch", "exec", "replay")
        and event["name"].endswith(program.name)
    ]
    assert len(spans) == 1, f"{entry} emitted {[e['name'] for e in spans]}"
    (record,) = profiler.nodes.values()
    jit = runtime.jit
    return {
        "output": runtime.download(out, [ROWS, COLS], float16).tobytes(),
        "stats": {k: after[k] - before[k] for k in after},
        "record": (record.engine, record.spec, record.calls, record.group_size),
        "record_stats": (record.blocks, record.instructions,
                         record.global_bits_loaded, record.global_bits_stored),
        "span_tier": spans[0]["args"]["engine"],
        "span": (spans[0]["name"].split(":")[0], spans[0]["cat"],
                 sorted(spans[0]["args"])),
        "jit": None if jit is None else (jit.compiled, jit.bailouts, jit.promotions),
        "spec": spec,
    }


#: entry -> the span it emits (prefix, category, arg keys).
SPANS = {
    "sync": ("launch", "runtime", ["engine"]),
    "stream": ("exec", "stream", ["engine", "launches"]),
    "replay": ("replay", "stream", ["engine", "launches"]),
    "serial": ("replay", "stream", ["engine", "launches"]),
}


#: scenario -> the JIT manager's (compiled, bailouts, promotions) after
#: the one execution.  Forcing compiles on the first execution and needs
#: no prior enable_jit(), on every path.
JIT_COUNTERS = {
    "auto-cold": (0, 0, 0),
    "auto-hot": (1, 0, 1),
    "forced-compiled": (1, 0, 1),
    "forced-batched": (0, 0, 0),
    "bailout": (0, 1, 0),
}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("entry", ENTRIES[1:])
def test_one_launch_is_the_same_through_every_entry_point(entry, scenario):
    expected_tier = SCENARIOS[scenario][2]
    reference = drive("sync", scenario)
    assert reference["record"] == (expected_tier, reference["spec"], 1, 1)
    assert reference["stats"]["blocks_run"] == 1
    assert reference["jit"] == JIT_COUNTERS[scenario]
    outcome = drive(entry, scenario)
    for name, observed in (("sync", reference), (entry, outcome)):
        assert observed["span"] == SPANS[name]
        assert observed["span_tier"] == expected_tier
        # The profile's integer counters are the engine's own.
        assert observed["record_stats"] == tuple(
            observed["stats"][stat] for stat in (
                "blocks_run", "instructions",
                "global_bits_loaded", "global_bits_stored",
            )
        )
    for what in ("output", "stats", "record", "record_stats", "jit"):
        assert outcome[what] == reference[what], what


@pytest.mark.parametrize("entry", ["stream", "replay"])
def test_coalesced_pair_records_two_sites_summing_to_the_group_delta(entry):
    """Two launches of one program with different scalar bindings run as
    one stacked invocation; each keeps its own profile site, and the
    sites' integer counters sum exactly to the invocation's delta."""
    runtime, a, outs = fresh_runtime(num_outputs=2)
    # Two blocks: "auto" resolves to the batched engine on both paths
    # (capture only merges nodes frozen to it).
    program = scale_program(f"pair_{entry}", blocks=2)
    launches = [[a, outs[0], 2.0], [a, outs[1], 3.0]]
    program = runtime.cache.get(program, launches[0]).program
    profiler = runtime.enable_profiling()
    runtime.enable_jit(threshold_s=0.0)  # hot: groups must still skip the JIT
    pool = runtime.stream_pool(1)
    stream = pool.streams[0]
    try:
        before = runtime.stats().snapshot()
        if entry == "stream":
            gate = Event.manual()
            stream.wait_event(gate)  # hold the worker so the pair queues up
            for args in launches:
                runtime.launch(program, args, stream=stream)
            gate.set()
        else:
            with runtime.capture() as graph:
                for args in launches:
                    runtime.launch(program, args, stream=stream)
            assert graph.num_groups == 1
            graph.replay()
        runtime.synchronize()
        after = runtime.stats().snapshot()
        assert (pool.launches, pool.executions) == (2, 1)
    finally:
        pool.shutdown()
    assert runtime.jit.compiled == 0 and runtime.jit.promotions == 0
    records = list(profiler.nodes.values())
    assert len(records) == 2
    assert {r.spec for r in records} == {
        spec_string(specialization_key(program, args)) for args in launches
    }
    assert all((r.engine, r.calls, r.group_size) == ("batched", 1, 2) for r in records)
    delta = {k: after[k] - before[k] for k in after}
    assert delta["blocks_run"] == 4
    for attr, stat in (
        ("blocks", "blocks_run"),
        ("instructions", "instructions"),
        ("global_bits_loaded", "global_bits_loaded"),
        ("global_bits_stored", "global_bits_stored"),
    ):
        assert sum(getattr(r, attr) for r in records) == delta[stat], attr
    for out, scale in zip(outs, (2.0, 3.0)):
        want = float16.quantize(
            runtime.download(a, [ROWS, COLS], float16).astype(np.float64) * scale
        )
        assert np.array_equal(runtime.download(out, [ROWS, COLS], float16), want)


def test_runtime_forced_compiled_stays_forced_through_replay_and_plans():
    """``Runtime(engine="compiled")`` captures nodes that stay forced:
    the first replay compiles (no heat needed), the serial oracle and a
    plan round trip run the same kernel — while the plan itself carries
    the interpreted engine only."""
    from repro.runtime import GraphPlan

    runtime, a, (out,) = fresh_runtime(engine="compiled")
    try:
        with runtime.capture(num_streams=2) as graph:
            runtime.launch(scale_program("forced"), [a, out, 2.0])
        jit = runtime.jit
        assert (jit.compiled, jit.promotions) == (0, 0)  # capture runs nothing
        graph.replay()
        assert (jit.compiled, jit.promotions) == (1, 1)
        graph.replay(serial=True)
        assert (jit.compiled, jit.promotions) == (1, 2)
        plan = graph.plan()
        assert [node["engine"] for node in plan.nodes] == ["batched"]
        graph.apply_plan(GraphPlan.from_json(plan.to_json())).replay()
        assert (jit.compiled, jit.promotions) == (1, 3)
    finally:
        runtime.stream_pool().shutdown()
