"""The launch seam (:mod:`repro.runtime.executor`): one launch must be
decided, executed, measured and recorded the same way whichever of the
four entry points issues it — the synchronous ``Runtime.launch``, an
eager stream, a grouped graph replay, or the serial replay oracle.

Each case builds a fresh runtime, drives exactly one execution of one
launch through one entry point, and reduces what the runtime observed
to a comparable outcome: the tier that ran, the ``ExecutionStats``
delta, the profile record and the span.  All four entry points must
produce the same outcome for every tier scenario.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro.runtime
from repro import ops
from repro.compiler.pipeline import specialization_key
from repro.dtypes import float16, uint4
from repro.errors import CompilationError, TypeCheckError
from repro.ir import instructions as insts
from repro.ir.program import Program
from repro.ir.scope import MemoryScope
from repro.ir.stmt import InstructionStmt, SeqStmt
from repro.ir.types import TensorType, TensorVar
from repro.kernels import MatmulConfig
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.runtime import Runtime
from repro.runtime.jit import PROMOTE_AFTER

ROWS, COLS = 8, 4

ENTRIES = ("sync", "stream", "replay", "serial")

#: scenario -> (launch engine, JIT setup, expected tier).  ``auto``
#: resolves to the batched engine whatever the grid size (the programs
#: are single-block), so ``forced-sequential`` is the witness that an
#: explicit interpreted engine is honoured on every path.  The forced
#: interpreted engines run against a *hot* key: a captured node keeps
#: the tier it was asked for, so no path promotes them.
SCENARIOS = {
    "auto-cold": (None, "cold", "batched"),
    "auto-hot": (None, "hot", "compiled"),
    "forced-compiled": ("compiled", None, "compiled"),
    "forced-batched": ("batched", "hot", "batched"),
    "forced-sequential": ("sequential", "hot", "sequential"),
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


def make_hot(runtime, program, args) -> None:
    """Attach the JIT and bring one specialization to the promotion
    boundary without executing anything: the ``PROMOTE_AFTER``
    invocations the manager declines are what make a key hot."""
    jit = runtime.enable_jit()
    for _ in range(PROMOTE_AFTER):
        assert jit.maybe_compile(program, args) is None


def seam_program(scenario: str):
    return scale_program(
        "seam_" + scenario.replace("-", "_"), printing=scenario == "bailout"
    )


def drive(entry: str, scenario: str, program) -> dict:
    """One execution of one launch of ``program`` through ``entry``;
    what was observed.  A specialization is the program object plus its
    scalars, so the launches compared share one ``program``."""
    engine, jit_setup, _ = SCENARIOS[scenario]
    runtime, a, (out,) = fresh_runtime()
    args = [a, out, 2.0]
    spec = specialization_key(program, args)
    profiler = runtime.enable_profiling()
    if jit_setup == "cold":
        runtime.enable_jit()
    elif jit_setup == "hot":
        make_hot(runtime, program, args)
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
    "forced-sequential": (0, 0, 0),
    "bailout": (0, 1, 0),
}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("entry", ENTRIES[1:])
def test_one_launch_is_the_same_through_every_entry_point(entry, scenario):
    expected_tier = SCENARIOS[scenario][2]
    program = seam_program(scenario)
    reference = drive("sync", scenario, program)
    assert reference["record"] == (expected_tier, reference["spec"], 1, 1)
    assert reference["stats"]["blocks_run"] == 1
    assert reference["jit"] == JIT_COUNTERS[scenario]
    outcome = drive(entry, scenario, program)
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


# ---------------------------------------------------------------------------
# Groups: hazard-independent launches of one program in one invocation
# ---------------------------------------------------------------------------

GROUP = 3

#: scenario -> (scalars bound per launch, launch engine, printing program).
#: One specialization key runs stacked on the tier the key has reached;
#: a stacked bailout falls back to ``launch_many``; launches binding
#: ``scale`` differently are distinct specializations and stay batched.
GROUP_SCENARIOS = {
    "stacked-hot": ([2.0] * GROUP, None, False),
    "stacked-forced": ([2.0] * GROUP, "compiled", False),
    "stacked-bailout": ([2.0] * GROUP, "compiled", True),
    "mixed-key": ([2.0, 3.0, 4.0], None, False),
}


def drive_group(entry: str, scenario: str) -> dict:
    """``GROUP`` launches through ``entry``: ``sync`` issues them one by
    one (the reference), ``stream`` queues them on one stream (pending
    until ``synchronize``), ``replay``/``serial`` capture them on
    ``GROUP`` different streams."""
    scales, engine, printing = GROUP_SCENARIOS[scenario]
    runtime, a, outs = fresh_runtime(num_outputs=GROUP)
    # "auto" resolves to the batched engine on every path (capture only
    # merges nodes frozen to it).
    program = scale_program(
        "group_" + scenario.replace("-", "_"), blocks=2, printing=printing
    )
    launches = [[a, out, scale] for out, scale in zip(outs, scales)]
    specs = [specialization_key(program, args) for args in launches]
    profiler = runtime.enable_profiling()
    if engine is None:
        for args in dict(zip(specs, launches)).values():  # once per key
            make_hot(runtime, program, args)
    tracer = runtime.enable_tracing()
    pool = runtime.stream_pool(GROUP)
    try:
        graph = None
        if entry in ("replay", "serial"):
            with runtime.capture() as graph:
                for stream, args in zip(pool.streams, launches):
                    runtime.launch(program, args, engine=engine, stream=stream)
            assert graph.num_groups == 1
        before = runtime.stats().snapshot()
        if entry == "sync":
            for args in launches:
                runtime.launch(program, args, engine=engine)
        elif entry == "stream":
            handles = [
                runtime.launch(program, args, engine=engine, stream=pool.streams[0])
                for args in launches
            ]
            assert not any(handle.done for handle in handles)
        else:
            graph.replay(serial=entry == "serial")
        runtime.synchronize()
        after = runtime.stats().snapshot()
        counts = (pool.launches, pool.executions)
    finally:
        runtime.disable_tracing()
        pool.shutdown()
    spans = [
        (event["name"].split(":")[0], event["cat"], event["args"])
        for event in tracer.events()
        if event["name"].split(":")[0] in ("launch", "exec", "replay")
        and event["name"].endswith(program.name)
    ]
    records = sorted(profiler.nodes.values(), key=lambda r: (r.spec, r.engine))
    jit = runtime.jit
    return {
        "outputs": [
            runtime.download(out, [ROWS, COLS], float16).tobytes() for out in outs
        ],
        "stats": {k: after[k] - before[k] for k in after},
        "records": records,
        "specs": sorted(specs),
        "spans": spans,
        "counts": counts,
        "jit": (jit.compiled, jit.bailouts, jit.promotions),
    }


#: scenario -> (tier of one invocation per launch, tier of the group,
#: JIT (compiled, bailouts, promotions) per launch / for the group).
#: ``promotions`` counts launches, so a stacked call reads like G calls.
GROUP_EXPECTED = {
    "stacked-hot": ("compiled", "compiled", (1, 0, GROUP), (1, 0, GROUP)),
    "stacked-forced": ("compiled", "compiled", (1, 0, GROUP), (1, 0, GROUP)),
    "stacked-bailout": ("batched", "batched", (0, 1, 0), (0, 1, 0)),
    "mixed-key": ("compiled", "batched", (GROUP, 0, GROUP), (0, 0, 0)),
}


@pytest.mark.parametrize("scenario", list(GROUP_SCENARIOS))
@pytest.mark.parametrize("entry", ENTRIES[1:])
def test_a_group_is_its_launches_issued_one_by_one(entry, scenario):
    """A group through any entry point against the same launches issued
    synchronously on a fresh runtime: same bits, same ``ExecutionStats``
    delta, one profiled call per launch summing exactly to that delta,
    and the tier, span and JIT counters the one rule predicts."""
    single_tier, group_tier, single_jit, group_jit = GROUP_EXPECTED[scenario]
    grouped = entry in ("stream", "replay")  # the serial oracle runs node by node
    reference = drive_group("sync", scenario)
    outcome = drive_group(entry, scenario)
    assert outcome["outputs"] == reference["outputs"]
    assert outcome["stats"] == reference["stats"]
    assert outcome["stats"]["blocks_run"] == 2 * GROUP
    for observed, tier, jit, size in (
        (reference, single_tier, single_jit, 1),
        (outcome, group_tier if grouped else single_tier,
         group_jit if grouped else single_jit, GROUP if grouped else 1),
    ):
        # One call per launch under its own specialization (eager sites
        # are keyed by spec, so equal-key launches share a record).
        records = observed["records"]
        assert sorted(r.spec for r in records for _ in range(r.calls)) == (
            observed["specs"]
        )
        assert all((r.engine, r.group_size) == (tier, size) for r in records)
        for attr, stat in (
            ("blocks", "blocks_run"),
            ("instructions", "instructions"),
            ("global_bits_loaded", "global_bits_loaded"),
            ("global_bits_stored", "global_bits_stored"),
        ):
            assert sum(getattr(r, attr) for r in records) == observed["stats"][stat]
        assert observed["jit"] == jit
        assert all(args["engine"] == tier for _, _, args in observed["spans"])
    prefix, cat, _ = SPANS[entry]
    if grouped:
        assert outcome["spans"] == [
            (prefix, cat, {"engine": group_tier, "launches": GROUP})
        ]
        assert outcome["counts"] == (GROUP, 1)
    else:
        assert outcome["spans"] == [
            (prefix, cat, {"engine": single_tier, "launches": 1})
        ] * GROUP
        assert outcome["counts"] == (GROUP, GROUP)


def test_runtime_forced_compiled_stays_forced_through_replay():
    """``Runtime(engine="compiled")`` captures nodes that stay forced:
    the first replay compiles (no heat needed) and the serial oracle
    runs the same kernel — the node keeps the tier it was asked for."""
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
        assert [node.requested for node in graph.nodes] == ["compiled"]
    finally:
        runtime.stream_pool().shutdown()


def test_a_bailout_runs_sequential_when_the_program_cannot_batch():
    """The interpreted engine a launch falls to is derived from its
    requested tier and ``supports_batched``: a forced-compiled launch
    the lowering declines, of a program whose view shape varies by
    block, runs on the sequential engine — bit-exact with asking for it
    — where a ``batched`` fallback could not run it at all."""
    pb = ProgramBuilder("ragged", grid=[2])
    a_ptr = pb.param("a", pointer(float16))
    out_ptr = pb.param("out", pointer(float16))
    (bi,) = pb.block_indices()
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[bi * 4 + 4, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
    tile = pb.load_global(g_a, layout=spatial(4, COLS), offset=[bi * 4, 0])
    pb.store_global(tile, g_out, offset=[bi * 4, 0])
    program = pb.finish()
    outputs = []
    for engine in ("sequential", "compiled"):
        runtime, a, (out,) = fresh_runtime()
        runtime.launch(program, [a, out], engine=engine)
        outputs.append(runtime.download(out, [ROWS, COLS], float16).tobytes())
    assert (runtime.jit.compiled, runtime.jit.bailouts) == (0, 1)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Structure: streams are a schedule, not threads
# ---------------------------------------------------------------------------


RUNTIME_DIR = Path(repro.runtime.__file__).parent


def _calls(path):
    """``(enclosing function, callee name, module prefix)`` of every
    call in a source file."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    found.append((scope, func.id, None))
                elif isinstance(func, ast.Attribute):
                    base = func.value.id if isinstance(func.value, ast.Name) else None
                    found.append((scope, func.attr, base))
            visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return found


def test_streams_and_graphs_hold_one_lock_and_start_no_thread():
    """``runtime/streams.py`` + ``graphs.py`` construct no thread,
    condition or OS event — execution is inline on the draining thread —
    and the pool's re-entrant lock is the only lock between them."""
    constructed = []
    for name in ("streams.py", "graphs.py"):
        tree = ast.parse((RUNTIME_DIR / name).read_text())
        imported = {
            alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        } | {
            (node.module or "").split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        }
        # Any primitive must be spelled ``threading.X(...)`` to be seen.
        assert not imported & {"concurrent", "multiprocessing", "queue", "asyncio"}
        assert not any(
            isinstance(node, ast.ImportFrom) and node.module == "threading"
            for node in ast.walk(tree)
        )
        constructed += [
            (name, scope, callee)
            for scope, callee, base in _calls(RUNTIME_DIR / name)
            if base == "threading"
        ]
    assert constructed == [("streams.py", "StreamPool.__init__", "RLock")]


def test_execute_has_two_call_sites_in_the_runtime():
    """Every launch reaches the executor from the synchronous
    ``Runtime.launch`` or from the pool's group loop (eager drains,
    graph replays and the serial oracle alike)."""
    sites = sorted(
        (path.name, scope)
        for path in RUNTIME_DIR.glob("*.py")
        for scope, callee, _ in _calls(path) if callee == "execute"
    )
    assert sites == [
        ("runtime.py", "Runtime.launch"), ("streams.py", "StreamPool.run_group"),
    ]


def test_no_clock_and_no_profile_reaches_the_tier_decision():
    """JIT promotion is a count the manager keeps: under
    ``src/repro/runtime/`` only ``profiling.py`` (the ``StatsTimer``
    that *reports* wall time) names ``time``, ``jit.py`` references no
    ``Profile`` and no ``wall_s`` / ``spec_heat`` attribute, and
    ``maybe_compile`` takes no profiler — what it is told about a group
    is its key, its size and the pointers its launches share."""
    clocks = {"time", "timeit", "datetime"}
    for path in sorted(RUNTIME_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {
            alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        } | {
            (node.module or "").split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        } | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert bool(named & clocks) == (path.name == "profiling.py"), path.name
    tree = ast.parse((RUNTIME_DIR / "jit.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "Profile" not in names
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attrs & {"wall_s", "spec_heat", "profiler"}
    (maybe_compile,) = (
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "maybe_compile"
    )
    params = maybe_compile.args
    assert [a.arg for a in params.posonlyargs + params.args + params.kwonlyargs] == [
        "self", "program", "args", "forced", "key", "launches", "shared",
    ]


def test_nothing_served_ships_a_profile():
    """A profile is an in-process record: no module under
    ``src/repro/llm`` or ``src/repro/serving`` imports the profiling
    module (or its ``Profile`` / ``NodeProfile`` through the package),
    and the wire has no message type that could carry one."""
    from repro.serving.messages import MSG_TYPES

    src = RUNTIME_DIR.parent
    importers = []
    for path in sorted([*(src / "llm").glob("*.py"), *(src / "serving").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {node.module or ""} | {
                    f"{node.module}.{alias.name}" for alias in node.names
                }
            else:
                continue
            if modules & {
                "repro.runtime.profiling",
                "repro.runtime.Profile",
                "repro.runtime.NodeProfile",
            }:
                importers.append(path.name)
    assert importers == []
    assert not MSG_TYPES & {"pull_state", "state"}


def test_a_stream_is_a_label_on_one_pool_lane():
    """The pool is one pending list on one lane: ``Lane(...)`` is built
    once in ``runtime.py`` (the host lane) and once in ``streams.py``
    (the pool's), a ``Stream`` holds only its pool and its index, no
    module under ``src/repro`` defines ``resolve_engine`` or ``Event``,
    and ``execute`` takes no frozen engine — the requested tier is the
    one fact a launch carries."""
    from repro.runtime.executor import execute
    from repro.runtime.streams import Stream

    lanes, defined = [], set()
    for path in sorted(RUNTIME_DIR.parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Lane":
                    lanes.append(path.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    assert sorted(lanes) == ["runtime.py", "streams.py"]
    assert Stream.__slots__ == ("pool", "index")
    assert not defined & {"resolve_engine", "Event"}
    assert "frozen" not in inspect.signature(execute).parameters


# ---------------------------------------------------------------------------
# The runtime runs what it prepares, and builds no CUDA artifact
# ---------------------------------------------------------------------------


#: The CUDA artifact: ``compile_program``'s steps past ``prepare_program``.
ARTIFACT_MODULES = {"codegen", "selection", "memory_planner"}
ARTIFACT_NAMES = {"compile_program", "CompiledKernel"}


def _artifact_references(path):
    """What ``path`` imports from the artifact modules, and which
    artifact names it mentions."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
            found += [alias.name for alias in node.names if alias.name in ARTIFACT_NAMES]
        elif isinstance(node, ast.Name) and node.id in ARTIFACT_NAMES:
            found.append(node.id)
            continue
        elif isinstance(node, ast.Attribute) and node.attr in ARTIFACT_NAMES:
            found.append(node.attr)
            continue
        else:
            continue
        found += [m for m in modules if set(m.split(".")) & ARTIFACT_MODULES]
    return found


def test_the_launch_path_names_no_cuda_artifact():
    """Nothing under ``src/repro/runtime``, ``ops.py``, ``llm/`` or
    ``serving/`` imports the code generator, instruction selection or
    the memory planner, or names ``compile_program`` /
    ``CompiledKernel``: a launch prepares its program
    (``prepare_program``) and runs it."""
    src = RUNTIME_DIR.parent
    paths = [
        *RUNTIME_DIR.glob("*.py"), src / "ops.py",
        *(src / "llm").glob("*.py"), *(src / "serving").glob("*.py"),
    ]
    found = {
        path.name: refs for path in sorted(paths) if (refs := _artifact_references(path))
    }
    assert found == {}


LINEARS = {
    "direct": MatmulConfig(16, 8, 16),
    "staged": MatmulConfig(16, 8, 16, num_stages=2),
    "split-k": MatmulConfig(16, 8, 16, split_k=2),
}


def _linear_output(config, engine):
    rng = np.random.default_rng(7)
    weight = rng.standard_normal((64, 16))
    linear = ops.prepare_linear(
        weight, uint4, group_size=32, config=config, runtime=Runtime(engine=engine)
    )
    return linear(rng.standard_normal((4, 64)) * 0.3)


@pytest.mark.parametrize("name", list(LINEARS))
def test_the_runtime_runs_what_it_prepares(monkeypatch, name):
    """With the CUDA artifact's steps made to raise, a direct, a staged
    and a split-k linear run on the default and the compiled tier, and
    equal the sequential engine's output byte for byte."""
    from repro.compiler import codegen, memory_planner, pipeline, selection

    def refuse(*args, **kwargs):
        raise AssertionError("a launch built the CUDA artifact")

    for module, attr in (
        (codegen, "generate_cuda"), (selection, "select_instructions"),
        (memory_planner, "plan_shared_memory"), (pipeline, "generate_cuda"),
        (pipeline, "select_instructions"), (pipeline, "plan_shared_memory"),
    ):
        monkeypatch.setattr(module, attr, refuse)
    want = _linear_output(LINEARS[name], "sequential")
    for engine in ("auto", "compiled"):
        got = _linear_output(LINEARS[name], engine)
        assert got.tobytes() == want.tobytes(), engine


def test_an_ill_typed_program_raises_at_launch_and_leaves_no_trace():
    """The verifier stays on the launch path: an ill-typed program
    raises ``TypeCheckError`` from ``Runtime.launch``, is not marked
    prepared (preparing it again verifies again, and raises), counts no
    preparation, and no engine runs — while a launched well-typed
    program is marked, and preparing it again returns at once."""
    from repro.compiler.pipeline import prepare_program

    runtime, a, (out,) = fresh_runtime()
    typed = scale_program("seam_typed")
    runtime.launch(typed, [a, out, 2.0])
    assert prepare_program(typed) is False
    misses = runtime.metrics()["runtime.spec_cache.misses"]
    blocks = runtime.stats().blocks_run
    tile = TensorType(MemoryScope.REGISTER, float16, (ROWS, COLS), spatial(ROWS, COLS))
    ghost, neg = TensorVar("ghost", tile), TensorVar("neg", tile)
    program = Program(
        "ill_typed", grid=[1], params=[],
        body=SeqStmt([InstructionStmt(insts.Neg(ghost, neg))]),
    )
    with pytest.raises(TypeCheckError, match="before definition"):
        runtime.launch(program, [])
    assert runtime.metrics()["runtime.spec_cache.misses"] == misses == 1
    assert runtime.stats().blocks_run == blocks
    with pytest.raises(TypeCheckError, match="before definition"):
        prepare_program(program)


def test_a_program_only_the_cuda_emitter_refuses_runs_at_launch():
    """Emission limits are the CUDA artifact's, not the VM's: a rank-4
    grid, which ``generate_cuda`` refuses, runs at launch."""
    from repro.compiler import compile_program

    def build():
        pb = ProgramBuilder("rank4", grid=[2, 1, 1, 1])
        a_ptr = pb.param("a", pointer(float16))
        out_ptr = pb.param("out", pointer(float16))
        row = pb.block_indices()[0] * (ROWS // 2)
        g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
        g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
        tile = pb.load_global(g_a, layout=spatial(ROWS // 2, COLS), offset=[row, 0])
        pb.store_global(tile, g_out, offset=[row, 0])
        return pb.finish()

    with pytest.raises(CompilationError, match="rank 3"):
        compile_program(build())
    runtime, a, (out,) = fresh_runtime()
    runtime.launch(build(), [a, out])
    got = runtime.download(out, [ROWS, COLS], float16)
    assert got.tobytes() == runtime.download(a, [ROWS, COLS], float16).tobytes()


def test_a_split_k_call_computes_each_launch_key_once(monkeypatch):
    """``Runtime.launch`` computes a launch's specialization key and
    hands it to the pool (``submit`` → ``LaunchHandle``); no module of
    the launch path computes it again.  A split-k call is three
    launches: two slices and the reduce."""
    from repro.runtime import graphs, runtime as runtime_module, streams

    calls = []

    def counting(module):
        original = module.specialization_key

        def key(program, args=()):
            calls.append(module.__name__.rsplit(".", 1)[1])
            return original(program, args)

        return key

    linear = ops.prepare_linear(
        np.ones((64, 16)), uint4, group_size=32, config=LINEARS["split-k"]
    )
    for module in (runtime_module, streams, graphs):
        monkeypatch.setattr(module, "specialization_key", counting(module))
    linear(np.ones((4, 64)))
    assert calls == ["runtime"] * 3


def _counting_prepare(monkeypatch):
    """Count ``prepare_program``'s passes: returns the list of the
    programs it verified (its first pass), whoever called it."""
    from repro.compiler import pipeline

    prepared = []
    original = pipeline.verify_program

    def verify(program):
        prepared.append(program)
        return original(program)

    monkeypatch.setattr(pipeline, "verify_program", verify)
    return prepared


def test_a_specialization_is_the_program_object_plus_its_scalars(monkeypatch):
    """A specialization key is ``(program, const scalars)``: a profiled,
    traced launch through sync, stream and graph replay — cold and
    promoted — never prints its program (``Program.__repr__``); one
    object relaunched with the same scalars is one key and one
    preparation; two identical builds are two keys."""
    from repro.runtime import runtime as runtime_module

    def refuse(self):
        raise AssertionError("a launch printed its program")

    keys = []
    original_key = runtime_module.specialization_key

    def key(program, args=()):
        keys.append(original_key(program, args))
        return keys[-1]

    monkeypatch.setattr(Program, "__repr__", refuse)
    monkeypatch.setattr(runtime_module, "specialization_key", key)
    prepared = _counting_prepare(monkeypatch)
    runtime, a, (out,) = fresh_runtime()
    program = scale_program("identity")
    args = [a, out, 2.0]
    profiler = runtime.enable_profiling()
    runtime.enable_jit()
    runtime.enable_tracing()
    try:
        for _ in range(PROMOTE_AFTER + 1):
            runtime.launch(program, args)
            runtime.launch(program, args, stream="auto").wait()
            with runtime.capture(num_streams=2) as graph:
                runtime.launch(program, args)
            graph.replay()
        runtime.synchronize()
    finally:
        runtime.disable_tracing()
        runtime.stream_pool().shutdown()
    assert runtime.jit.compiled == 1
    specs = {rec.spec for rec in profiler.nodes.values()}
    assert specs == {(program, (("scale", 2.0),))}
    assert len(keys) == 3 * (PROMOTE_AFTER + 1) and set(keys) == {keys[0]}
    assert prepared == [program]
    twins = [scale_program("twin") for _ in range(2)]
    assert specialization_key(twins[0], args) != specialization_key(twins[1], args)


def test_a_split_k_linear_prepares_each_program_once(monkeypatch):
    """The slices of a split-k call differ only in the scalar ``k0``:
    preparation is per program object, so three calls of a
    ``split_k=2`` linear prepare its slice and its reduce program once
    each (the slice was once prepared per ``k0``)."""
    prepared = _counting_prepare(monkeypatch)
    linear = ops.prepare_linear(
        np.ones((64, 16)), uint4, group_size=32, config=LINEARS["split-k"]
    )
    for _ in range(3):
        linear(np.ones((4, 64)))
    assert prepared == list(linear.splitk_programs_for(4))


def test_a_program_launched_on_two_runtimes_is_prepared_once(monkeypatch):
    """Preparation lives on the program, not on a runtime: launched on
    two runtimes, a program runs ``prepare_program``'s passes once.  The
    first runtime counts the preparation (a miss), the second a launch
    of a prepared program (a hit), and both compute the same bytes."""
    prepared = _counting_prepare(monkeypatch)
    program = scale_program("two_runtimes")
    counts, outputs = [], []
    for _ in range(2):
        runtime, a, (out,) = fresh_runtime()
        runtime.launch(program, [a, out, 2.0])
        metrics = runtime.metrics()
        counts.append(
            (metrics["runtime.spec_cache.misses"], metrics["runtime.spec_cache.hits"])
        )
        outputs.append(runtime.download(out, [ROWS, COLS], float16).tobytes())
    assert prepared == [program]
    assert counts == [(1, 0), (0, 1)]
    assert outputs[0] == outputs[1]
