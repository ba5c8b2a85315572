"""The tiered JIT: pass-pipeline lowering (:mod:`repro.compiler.lower`)
and counted promotion (:mod:`repro.runtime.jit`).

Covers the lowering contract (bit-exact outputs *and* execution-stat
parity against the interpreter, argument/buffer validation, bailout on
unloweable programs), the runtime tier (bounded LRU kernel cache,
bailout memo, invocation-count promotion policy held to a reference
model, stickiness across profiler resets), and every execution path that
can promote — the
synchronous launch, the eager stream, the captured graph replay — plus
the serving integration (the ``WorkerSpec.jit`` knob becoming
``runtime.enable_jit()``, counters through the simulator and the sharded
router).  The exhaustive bit-exactness sweep lives in the differential
harness (``jit`` is one of its six locked modes); these tests pin the policy
and the plumbing.
"""

import contextlib
import gc
import re
import sys
import threading
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.lower import (
    PASS_NAMES,
    LoweringBailout,
    lower_program,
)
from repro.compiler.pipeline import specialization_key
from repro.dtypes import float16, int8, uint8
from repro.dtypes.registry import all_weight_dtypes
from repro.errors import VMError
from repro.ir import instructions as insts
from repro.ir.stmt import ForStmt
from repro.lang import ProgramBuilder, pointer
from repro.layout import local, mma_m16n8k16, spatial
from repro.layout.core import replicate
from repro.runtime import JitManager, Profile, Runtime
from repro.runtime.executor import shared_pointers
from repro.runtime.jit import PROMOTE_AFTER
from repro.runtime.profiling import COMPILED
from repro.vm import BatchedExecutor, GlobalMemory, Interpreter

ROWS, COLS = 16, 8
OUT_BYTES = ROWS * COLS * 2


def work_program(name: str, steps: int = 2):
    """``out = f(a)`` over a 2x2 grid; ``steps`` scales its cost."""
    pb = ProgramBuilder(name, grid=[2, 2])
    a_ptr = pb.param("a", pointer(float16))
    out_ptr = pb.param("out", pointer(float16))
    bi, bj = pb.block_indices()
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
    tile = pb.load_global(g_a, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
    acc = pb.allocate_register("f32", layout=spatial(8, 4), init=0.0)
    contrib = pb.cast(pb.add(pb.mul(tile, 2.0), 1.0), "f32")
    with pb.for_range(steps):
        pb.add(acc, contrib, out=acc)
    result = pb.cast(acc, "f16")
    pb.store_global(result, g_out, offset=[bi * 8, bj * 4])
    return pb.finish()


def print_program(name: str = "printer"):
    """A program the lowering pipeline must decline (``PrintTensor``)."""
    pb = ProgramBuilder(name, grid=[1])
    a_ptr = pb.param("a", pointer(float16))
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
    tile = pb.load_global(g_a, layout=spatial(8, 4), offset=[0, 0])
    pb.print_tensor(tile, "dbg")
    return pb.finish()


def device(seed: int = 0):
    """A fresh image with one input and one zeroed output buffer.
    Identical seeds and upload order ⇒ identical addresses and bits."""
    memory = GlobalMemory(1 << 22)
    host = Interpreter(memory)
    rng = np.random.default_rng(seed)
    a = host.upload(float16.quantize(rng.standard_normal((ROWS, COLS))), float16)
    out = host.alloc_output([ROWS, COLS], float16)
    return memory, host, a, out


def output_bits(memory, host, out):
    return host.download(out, [ROWS, COLS], float16).copy()


# ---------------------------------------------------------------------------
# Lowering: the compiled kernel is the interpreter, minus the interpreter
# ---------------------------------------------------------------------------


class TestLowering:
    def test_compiled_matches_interpreter_bit_exactly_with_stat_parity(self):
        program = work_program("lower_me", steps=3)
        memory1, host1, a1, out1 = device()
        host1.launch(program, [a1, out1])
        want = output_bits(memory1, host1, out1)
        want_stats = host1.stats.snapshot()

        memory2, host2, a2, out2 = device()
        assert (a2, out2) == (a1, out1)  # twin image, twin addresses
        kernel = lower_program(program, [a2, out2], memory2)
        kernel.run(memory2, [a2, out2], host2.stats)
        got = output_bits(memory2, host2, out2)
        assert np.array_equal(want, got)
        assert host2.stats.snapshot() == want_stats

    def test_lowered_kernel_shape(self):
        program = work_program("shape")
        memory, host, a, out = device()
        kernel = lower_program(program, [a, out], memory)
        assert kernel.passes == PASS_NAMES
        assert kernel.program_name == "shape"
        assert kernel.nblocks == 4  # the 2x2 grid, fully unrolled
        assert kernel.source  # straight-line numpy source survived
        assert kernel.spec == specialization_key(program, [a, out])

    def test_run_validates_arg_count(self):
        program = work_program("argcheck")
        memory, host, a, out = device()
        kernel = lower_program(program, [a, out], memory)
        with pytest.raises(VMError, match="expects 2 args, got 1"):
            kernel.run(memory, [a])

    def test_run_validates_buffer_identity(self):
        program = work_program("bufcheck")
        memory, host, a, out = device()
        kernel = lower_program(program, [a, out], memory)
        other = GlobalMemory(1 << 20)
        with pytest.raises(VMError, match="lowered against"):
            kernel.run(other, [a, out])

    def test_unloweable_program_bails(self):
        memory, host, a, out = device()
        with pytest.raises(LoweringBailout):
            lower_program(print_program(), [a], memory)


def const_table_lookup_program():
    """Runtime codes into a lookup table that is a constant register."""
    from repro.dtypes import uint4
    from repro.layout import local

    pb = ProgramBuilder("const_table", grid=[2])
    c_ptr = pb.param("codes", pointer(uint4))
    out_ptr = pb.param("out", pointer(float16))
    (bi,) = pb.block_indices()
    g_codes = pb.view_global(c_ptr, dtype=uint4, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
    table = pb.allocate_register(float16, layout=local(16), init=1.5)
    codes = pb.load_global(g_codes, layout=spatial(8, 4), offset=[bi * 8, 0])
    pb.store_global(pb.lookup(codes, table), g_out, offset=[bi * 8, 0])
    data = np.arange(ROWS * COLS).reshape(ROWS, COLS) % 16
    return pb.finish(), (data, uint4), ([ROWS, COLS], float16)


def const_operand_dot_program():
    """``Dot`` of a constant A and accumulator with a loaded B."""
    from repro.dtypes import float32
    from repro.layout import mma_m16n8k16

    mma = mma_m16n8k16()
    pb = ProgramBuilder("const_a", grid=[2])
    b_ptr = pb.param("b", pointer(float16))
    out_ptr = pb.param("out", pointer(float32))
    (bi,) = pb.block_indices()
    g_b = pb.view_global(b_ptr, dtype=float16, shape=[16, 16])
    g_out = pb.view_global(out_ptr, dtype=float32, shape=[32, 8])
    a = pb.allocate_register(float16, layout=mma.a_layout, init=0.5)
    b = pb.load_global(g_b, layout=mma.b_layout, offset=[0, bi * 8])
    c = pb.allocate_register(float32, layout=mma.c_layout, init=1.0)
    pb.store_global(pb.dot(a, b, c), g_out, offset=[bi * 16, 0])
    data = np.random.default_rng(0).standard_normal((16, 16))
    return pb.finish(), (data, float16), ([32, 8], float32)


@pytest.mark.parametrize("build", [const_table_lookup_program, const_operand_dot_program])
def test_a_constant_operand_folds_beside_a_runtime_one(build):
    """One handler, mixed operands: the constant side is computed at
    compile time (it reaches the kernel as a pooled constant), the other
    is recorded — and the kernel is still the interpreter, bit for bit."""
    program, (data, in_dtype), (out_shape, out_dtype) = build()
    images = []
    for _ in range(2):
        memory = GlobalMemory(1 << 16)
        host = Interpreter(memory)
        images.append((memory, host, [host.upload(data, in_dtype),
                                      host.alloc_output(out_shape, out_dtype)]))
    (memory1, host1, args1), (memory2, host2, args2) = images
    host1.launch(program, args1)
    kernel = lower_program(program, args2, memory2)
    kernel.run(memory2, args2, host2.stats)
    assert np.array_equal(memory1.buffer, memory2.buffer)
    assert host1.stats.snapshot() == host2.stats.snapshot()
    assert _calls(kernel, "_dec") == 1  # the loaded operand's only


# ---------------------------------------------------------------------------
# Stacked lowering: G launches of one specialization in one lowered call
# ---------------------------------------------------------------------------

STACK = 3


def _family_case(family: str):
    """The first generated (un-replicated) case of ``family`` the
    pipeline lowers at ``STACK`` launches, issued ``STACK`` times into
    separate outputs."""
    from tests.harness import generate_case

    for seed in range(256):
        case = generate_case(seed)
        if case.family != family or case.copies != 1:
            continue
        case = case.replicated(STACK)
        memory, groups = _case_image(case)
        try:
            for program, args_list in groups:
                lower_program(program, args_list[0], memory, launches=STACK)
        except LoweringBailout:
            continue
        return case
    raise AssertionError(f"the JIT accepts no generated case of family {family!r}")


def _case_image(case):
    """A fresh device image of ``case`` and its launches grouped by
    program (the copies are independent, so program-major order is a
    valid schedule): ``memory, [(program, [args, ...]), ...]``."""
    memory = GlobalMemory(1 << 24)
    host = Interpreter(memory)
    buffers = [host.upload(data, dtype) for data, dtype in case.inputs]
    buffers += [host.alloc_output(shape, dtype) for shape, dtype in case.outputs]
    groups: dict = {}
    for program, spec in case.launch_plan():
        groups.setdefault(id(program), (program, []))[1].append(
            [buffers[i] for i in spec]
        )
    return memory, list(groups.values())


def subbyte_store_program(name: str = "nibbles"):
    """Copies a tile of 4-bit values: its store is a sub-byte scatter
    through the output pointer."""
    from repro.dtypes import uint4

    pb = ProgramBuilder(name, grid=[2, 2])
    a_ptr = pb.param("a", pointer(uint4))
    out_ptr = pb.param("out", pointer(uint4))
    bi, bj = pb.block_indices()
    g_a = pb.view_global(a_ptr, dtype=uint4, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=uint4, shape=[ROWS, COLS])
    tile = pb.load_global(g_a, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
    pb.store_global(tile, g_out, offset=[bi * 8, bj * 4])
    return pb.finish()


#: The template families the JIT accepts.
FAMILIES = [
    "pipeline", "subbyte_view", "shared", "dot", "reduce", "lookup",
    "pipelined_matmul", "splitk",
]


class TestStackedLowering:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_stacked_kernel_equals_single_launch_kernels(self, family):
        """On every template family the JIT accepts: one ``G``-stacked
        call leaves the same device bytes and the same stats as ``G``
        single-launch calls, and the manager answers the second request
        for ``(key, G)`` from its cache."""
        case = _family_case(family)
        want_memory, want_groups = _case_image(case)
        want_stats = Interpreter(want_memory).stats
        for program, args_list in want_groups:
            single = lower_program(program, args_list[0], want_memory)
            for args in args_list:
                single.run(want_memory, args, want_stats)

        memory, groups = _case_image(case)
        manager = JitManager(memory)
        stats = Interpreter(memory).stats
        for program, args_list in groups:
            kernel = manager.maybe_compile(
                program, args_list[0], forced=True, launches=STACK
            )
            assert kernel is not None, manager.bailout_reason(
                program, args_list[0], launches=STACK
            )
            assert (kernel.launches, kernel.nblocks) == (
                STACK,
                STACK * int(np.prod(program.grid_size(args_list[0]))),
            )
            manager.run(kernel, args_list, stats)
            hits = manager.hits
            again = manager.maybe_compile(
                program, args_list[0], forced=True, launches=STACK
            )
            assert again is kernel and manager.hits == hits + 1
        assert np.array_equal(memory.buffer, want_memory.buffer)
        assert stats.snapshot() == want_stats.snapshot()
        assert manager.compiled == len(groups)
        assert manager.promotions == STACK * len(groups)

    def test_stack_sizes_are_cached_apart(self):
        memory, host, a, out = device()
        manager = JitManager(memory)
        program = work_program("sizes")
        one = manager.maybe_compile(program, [a, out], forced=True)
        two = manager.maybe_compile(program, [a, out], forced=True, launches=2)
        assert (one.launches, two.launches) == (1, 2) and one is not two
        assert manager.maybe_compile(program, [a, out], forced=True) is one
        assert manager.compiled == 2

    def test_run_many_validates_like_run(self):
        program = work_program("many_checks")
        memory, host, a, out = device()
        out2 = host.alloc_output([ROWS, COLS], float16)
        kernel = lower_program(program, [a, out], memory, launches=2)
        with pytest.raises(VMError, match="stacks 2 launches, got 1"):
            kernel.run(memory, [a, out])
        with pytest.raises(VMError, match="expects 2 args, got 1"):
            kernel.run_many(memory, [[a, out], [a]])
        with pytest.raises(VMError, match="lowered against"):
            kernel.run_many(GlobalMemory(1 << 20), [[a, out], [a, out2]])

    def test_stacked_bounds_check_names_the_offending_launch(self):
        """A pointer past the buffer in one stacked launch raises the
        batched engine's own error (the per-block view bounds check
        survives stacking)."""
        program = work_program("oob")
        memory, host, a, out = device()
        kernel = lower_program(program, [a, out], memory, launches=2)
        beyond = len(memory.buffer)
        with pytest.raises(VMError, match="exceeds its buffer"):
            kernel.run_many(memory, [[a, out], [a, beyond]])

    def test_subbyte_scatter_through_a_per_launch_pointer_bails(self):
        """The sub-byte scatter's precomputed last-writer dedup needs one
        pointer for all rows: a single launch lowers, a stack writing
        through per-launch pointers declines whatever it shares on the
        input side, a stack handed one output pointer lowers — and the
        manager remembers each ``(size, shared set)`` apart."""
        from repro.dtypes import uint4

        memory = GlobalMemory(1 << 22)
        host = Interpreter(memory)
        rng = np.random.default_rng(3)
        a = host.upload(rng.integers(0, 16, size=(ROWS, COLS)), uint4)
        outs = [host.alloc_output([ROWS, COLS], uint4) for _ in range(2)]
        program = subbyte_store_program()
        manager = JitManager(memory)
        assert manager.maybe_compile(program, [a, outs[0]], forced=True) is not None
        assert (
            manager.maybe_compile(program, [a, outs[0]], forced=True, launches=2)
            is None
        )
        assert "per-launch pointer" in manager.bailout_reason(
            program, [a, outs[0]], launches=2
        )
        assert manager.bailout_reason(program, [a, outs[0]]) is None
        # What execute() asks for when the launches read one input into
        # their own outputs: still a per-launch scatter, its own entry.
        assert manager.bailout_reason(program, [a, outs[0]], 2, shared=(0,)) is None
        assert (
            manager.maybe_compile(
                program, [a, outs[0]], forced=True, launches=2, shared=(0,))
            is None
        )
        assert "per-launch pointer" in manager.bailout_reason(
            program, [a, outs[0]], 2, shared=(0,)
        )
        assert manager.bailouts == 2
        with pytest.raises(LoweringBailout, match="per-launch pointer"):
            lower_program(program, [a, outs[0]], memory, launches=2)
        with pytest.raises(LoweringBailout, match="per-launch pointer"):
            lower_program(program, [a, outs[0]], memory, launches=2, shared=(0,))
        # One output pointer for the whole stack is one pointer for all
        # rows again: the dedup folds (last launch wins, as back to back).
        kernel = lower_program(program, [a, outs[0]], memory, launches=2, shared=(0, 1))
        kernel.run_many(memory, [[a, outs[0]], [a, outs[0]]])
        want = host.download(a, [ROWS, COLS], uint4)
        assert np.array_equal(host.download(outs[0], [ROWS, COLS], uint4), want)

    # -- operands the whole stack shares -------------------------------------

    @pytest.mark.parametrize("family", FAMILIES)
    def test_kernels_lowered_with_their_shared_set_match(self, family):
        """Every family again, each group lowered with the pointers its
        launches share (the inputs; outputs and workspaces are private):
        same device bytes and stats as the kernel that shares nothing."""
        case = _family_case(family)
        images, sharing = [], set()
        for share in (False, True):
            memory, groups = _case_image(case)
            stats = Interpreter(memory).stats
            for program, args_list in groups:
                shared = shared_pointers(program, args_list) if share else ()
                sharing.add(shared)
                kernel = lower_program(
                    program, args_list[0], memory, launches=STACK, shared=shared
                )
                assert kernel.shared == shared
                kernel.run_many(memory, args_list, stats)
            images.append((memory.buffer.copy(), stats.snapshot()))
        assert len(sharing) > 1  # some group shared an input
        assert np.array_equal(images[0][0], images[1][0])
        assert images[0][1] == images[1][1]

    def test_run_many_refuses_arguments_that_differ_where_it_shares(self):
        kernel, memory, args_list = decode_linear_stack(3, shared=(1, 2))
        assert kernel.shared == (1, 2)
        kernel.run_many(memory, args_list)
        moved = [list(args) for args in args_list]
        moved[2][2] += 2  # the last launch's scales, one element on
        with pytest.raises(VMError, match=r"shares argument 2 across its launches"):
            kernel.run_many(memory, moved)
        # The kernel that shares nothing takes the same lists.
        decode_linear_stack(3)[0].run_many(memory, moved)

    def test_a_single_launch_ignores_shared(self):
        memory, host, a, out = device()
        manager = JitManager(memory)
        program = work_program("alone")
        one = manager.maybe_compile(program, [a, out], forced=True)
        assert manager.maybe_compile(program, [a, out], forced=True, shared=(0,)) is one
        assert (manager.kernels(program), manager.compiled) == ([one], 1)
        named = lower_program(program, [a, out], memory, shared=(0, 1))
        assert named.shared == () and named.source == one.source

    def test_a_stack_sharing_only_the_scales(self):
        """Sharing is per pointer: with the weights private the weight
        side stays stacked, the scale rows are still read once, and the
        elementwise op of the two computes on the whole stack's rows."""
        both, memory, args_list = decode_linear_stack(4, shared=(1, 2))
        scales, _, _ = decode_linear_stack(4, shared=(2,))
        neither, _, _ = decode_linear_stack(4)
        assert len({both.source, scales.source, neither.source}) == 3
        blocks = 4 * neither.nblocks  # the k-loop's 4 steps are gathered at once
        for kernel, weight_rows, scale_rows in (
            (both, blocks // 4, blocks // 4),
            (scales, blocks, blocks // 4),
            (neither, blocks, blocks),
        ):
            assert f".reshape(({weight_rows}, 32, 3))" in kernel.source
            assert f".reshape(({scale_rows}, 32, 4))" in kernel.source
        outs = []
        for kernel in (both, scales, neither):
            for args in args_list:
                memory.buffer[args[3] : args[3] + 32] = 0
            stats = kernel.run_many(memory, args_list).snapshot()
            outs.append((b"".join(
                memory.buffer[args[3] : args[3] + 32].tobytes() for args in args_list
            ), stats))
        assert outs[0] == outs[1] == outs[2] and any(outs[0][0])

    @pytest.mark.parametrize("guarded", [False, True])
    def test_a_load_under_a_partial_mask_is_not_shared(self, guarded):
        """``guarded`` puts the load inside ``if bi > 0``: some blocks of
        every launch are masked off there, so it is made on the whole
        stack's rows; unguarded it is made on one launch's."""
        program = guarded_load_program(f"guard_{guarded}", guarded)
        memory, host, a, out = device()
        outs = [out, host.alloc_output([ROWS, COLS], float16)]
        args_list = [[a, o] for o in outs]
        kernel = lower_program(program, args_list[0], memory, launches=2, shared=(0,))
        gathered_rows = re.findall(
            r"= t\d+\.reshape\(\((\d+), 32, 1\)\)", kernel.source
        )
        one, whole = str(kernel.nblocks // 2), str(kernel.nblocks)
        assert gathered_rows == ([one, whole] if guarded else [one])
        kernel.run_many(memory, args_list)
        want_memory, want_host, want_a, want_out = device()
        want_outs = [want_out, want_host.alloc_output([ROWS, COLS], float16)]
        for o in want_outs:
            want_host.launch(program, [want_a, o])
        assert np.array_equal(memory.buffer, want_memory.buffer)
        BatchedExecutor(want_memory).launch_many(program, [[want_a, o] for o in want_outs])
        assert np.array_equal(memory.buffer, want_memory.buffer)

    def test_a_per_launch_offset_through_a_shared_pointer_is_not_shared(self):
        """Launches of mixed keys stack on the batched engine only: one
        ``a`` pointer, a row offset that differs per launch — each
        launch must read its own tile."""
        pb = ProgramBuilder("row_offset", grid=[2])
        a_ptr = pb.param("a", pointer(float16))
        out_ptr = pb.param("out", pointer(float16))
        row = pb.param("row", "i32")
        (bi,) = pb.block_indices()
        g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
        g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
        tile = pb.load_global(g_a, layout=spatial(4, 8), offset=[row + bi * 4, 0])
        pb.store_global(tile, g_out, offset=[row + bi * 4, 0])
        program = pb.finish()
        memory, host, a, out = device()
        BatchedExecutor(memory).launch_many(program, [[a, out, 0], [a, out, 8]])
        assert np.array_equal(
            output_bits(memory, host, out), output_bits(memory, host, a)
        )

    def test_a_store_to_a_shared_pointer_is_seen_by_its_reload(self):
        """``launch_many`` handed two launches that rewrite and reread
        one ``a`` (no hazard analysis ran): the reload is made once, but
        after the whole stack's store — byte for byte what the stacked
        rows read, on the engine and in both kernel forms."""
        program = reload_program("rewrite", store_between=True)
        images = []
        for run in ("engine", "stacked", "shared"):
            memory, host, a, out = device()
            args_list = [[a, out], [a, host.alloc_output([ROWS, COLS], float16)]]
            if run == "engine":
                BatchedExecutor(memory).launch_many(program, args_list)
            else:
                shared = (0,) if run == "shared" else ()
                kernel = lower_program(
                    program, args_list[0], memory, launches=2, shared=shared
                )
                kernel.run_many(memory, args_list)
            images.append(memory.buffer.copy())
        assert np.array_equal(images[0], images[1])
        assert np.array_equal(images[1], images[2])


# ---------------------------------------------------------------------------
# Loop distribution: a k-loop's early statements once, on every iteration's rows
# ---------------------------------------------------------------------------

STEPS = 4


def k_loop_program(variant: str):
    """``out = f16(sum over STEPS of f32(2 * tile))`` over a 2 x 2 grid,
    the tile moving with the loop variable; ``variant`` changes one
    thing about the loop (``plain`` changes nothing)."""
    from repro.dtypes import uint4
    from repro.ir.stmt import AssignStmt

    pb = ProgramBuilder("k_loop_" + re.sub(r"\W", "_", variant), grid=[2, 2])
    a_ptr = pb.param("a", pointer(float16))
    out_ptr = pb.param("out", pointer(float16))
    bi, bj = pb.block_indices()
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
    acc = pb.allocate_register("f32", layout=spatial(8, 4), init=0.0)
    if variant in ("lookup", "shared lookup"):
        # ``a``'s bytes read again as 4-bit codes into its first 16 values.
        g_codes = pb.view_global(a_ptr, dtype=uint4, shape=[ROWS, 2 * COLS])
        g_table = pb.view_global(a_ptr, dtype=float16, shape=[16])
    copies = variant.startswith("copy") or variant in ("sub-byte shared", "shared lookup")
    staged = pb.allocate_shared(float16, [8, 4]) if copies else None
    if variant == "sub-byte shared":
        g_nibbles = pb.view_global(a_ptr, dtype=uint4, shape=[ROWS, 2 * COLS])
        staged = pb.allocate_shared(uint4, [8, 8])
    if variant == "shared lookup":
        staged = pb.allocate_shared(float16, [16])
    late = pb.assign("i32", 0, hint="late") if variant == "copy reads a later assignment" else None
    extent = bi + 2 if variant == "per-block extent" else STEPS
    guard = pb.if_then(bi > 0) if variant == "divergent if" else contextlib.nullcontext()
    with guard, pb.for_range(extent) as i:
        row = bi * 8 + (i % 2) * 4 if variant == "masked" else bi * 8
        col = (i % 2) * 4
        if variant == "assign":
            col = pb.assign("i32", col, hint="col")
        if variant == "shared lookup":
            pb.copy_async(staged, g_table, src_offset=[0])
        if variant in ("lookup", "shared lookup"):
            codes = pb.load_global(g_codes, layout=spatial(8, 4), offset=[row, col])
            tile = pb.lookup(codes, g_table if variant == "lookup" else staged)
        else:
            tile = pb.load_global(
                g_a, layout=spatial(8, 4), offset=[row, col], masked=variant == "masked"
            )
        pb.add(acc, pb.cast(pb.mul(tile, 2.0), "f32"), out=acc)
        if variant == "dead value":
            pb.neg(tile)
        if variant == "store":
            pb.store_global(tile, g_out, offset=[bi * 8, bj * 4])
        if variant == "copy-async":
            pb.copy_async(staged, g_a, src_offset=[bi * 8, col])
        if variant == "copy-async else":
            with pb.if_then(i < 2):
                pb.copy_async(staged, g_a, src_offset=[bi * 8, col])
            with pb.otherwise():
                pb.copy_async(staged, g_a, src_offset=[bi * 8, 0])
        if variant == "sub-byte shared":
            pb.copy_async(staged, g_nibbles, src_offset=[bi * 8, 2 * col])
        if variant == "copy into global":
            # The builder refuses this scope; the VM runs it.
            pb._emit(insts.CopyAsync(g_out, g_a, [bi * 8, col], [bi * 8, bj * 4], [8, 4]))
        if variant == "copy reads a later assignment":
            pb.copy_async(staged, g_a, src_offset=[bi * 8, late])
            pb._stack[-1].append(AssignStmt(late, col))
        if variant in ("break", "continue"):
            with pb.if_then(i.equals(2)):
                getattr(pb, variant + "_")()
    result = pb.cast(acc, "f16")
    if variant == "early register read after the loop":
        result = pb.add(result, tile)  # the last iteration's tile
    col_out = bj * 4
    if variant == "loop variable read after the loop":
        col_out = col_out + (i - (STEPS - 1))  # the last iteration's index
    pb.store_global(result, g_out, offset=[bi * 8, col_out])
    return pb.finish()


def serial_lowering(program, args, memory, **kwargs):
    """The kernel of the walk with every loop left serial: unrolled."""
    with mock.patch("repro.vm.batched.loop_split", return_value=None):
        return lower_program(program, args, memory, **kwargs)


def _tiers_on(program, stack: int = 1, shared: tuple = ()):
    """``stack`` launches of ``program`` (one ``a``, an output each) on a
    fresh image per tier — the sequential oracle launch by launch, the
    batched engine's stack, the kernel lowered with ``shared`` and the
    serially lowered one — which must leave equal bytes and stats.
    Returns the two kernels."""
    images, kernels = [], {}
    for tier in ("sequential", "batched", "compiled", "serial"):
        memory, host, a, out = device()
        outs = [out] + [host.alloc_output([ROWS, COLS], float16) for _ in range(stack - 1)]
        args_list = [[a, o] for o in outs]
        if tier == "sequential":
            for args in args_list:
                host.launch(program, args)
            stats = host.stats
        elif tier == "batched":
            stats = BatchedExecutor(memory).launch_many(program, args_list)
        else:
            lower = lower_program if tier == "compiled" else serial_lowering
            kernels[tier] = lower(program, args_list[0], memory, launches=stack, shared=shared)
            stats = kernels[tier].run_many(memory, args_list)
        images.append((memory.buffer.copy(), stats.snapshot()))
    for buffer, stats in images[1:]:
        assert np.array_equal(buffer, images[0][0])
        assert stats == images[0][1]
    assert images[0][0].any()
    return kernels["compiled"], kernels["serial"]


class TestLoopDistribution:
    @pytest.mark.parametrize("variant", [
        "per-block extent", "break", "continue", "store", "divergent if",
        # The copies a journal does not take: an ``else``, a sub-byte
        # shared tensor, a shared table, a copy into global memory, one
        # that reads a scalar the body assigns after it.
        "copy-async else", "sub-byte shared", "shared lookup", "copy into global",
        "copy reads a later assignment",
    ])
    def test_a_refused_loop_lowers_as_it_did_unrolled(self, variant):
        kernel, serial = _tiers_on(k_loop_program(variant))
        assert kernel.source == serial.source

    @pytest.mark.parametrize("variant", [
        "plain", "loop variable read after the loop", "early register read after the loop",
        "masked", "lookup", "assign",
    ])
    def test_an_accepted_loop_gathers_every_iteration_at_once(self, variant):
        """The tile of every step is gathered in one call (unrolled, the
        two distinct ones are); a lookup still checks its codes step by
        step, in the serial order.  A scalar the body assigns from the
        loop variable is one per-row array."""
        kernel, serial = _tiers_on(k_loop_program(variant))
        loads = [len(re.findall(r"\b_g(?:b|sb)\(", k.source)) for k in (kernel, serial)]
        assert loads == [1, 2]
        assert _calls(kernel, "_lk") == _calls(serial, "_lk") == (variant == "lookup") * STEPS

    def test_a_copy_in_the_body_writes_one_journal(self):
        """A ``cp.async`` copy of every step is gathered once, into one
        journal, and its last state written back once; unrolled, each
        step's copy scatters into shared memory."""
        kernel, serial = _tiers_on(k_loop_program("copy-async"))
        assert (_calls(kernel, "_jnl"), _calls(serial, "_jnl")) == (1, 0)
        assert (_calls(kernel, "_scb"), _calls(serial, "_scb")) == (2, STEPS + 1)
        loads = [len(re.findall(r"\b_gb\(", k.source)) for k in (kernel, serial)]
        assert loads == [1, 2]  # the copy gathers what the load does

    def test_a_copy_of_a_body_register_is_refused(self):
        from repro.vm import batched

        pb = ProgramBuilder("copy_register", grid=[2])
        a_ptr = pb.param("a", pointer(float16))
        g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
        staged = pb.allocate_shared(float16, [8, 4])
        with pb.for_range(STEPS) as i:
            tile = pb.load_global(g_a, layout=spatial(8, 4), offset=[0, (i % 2) * 4])
            pb._emit(insts.CopyAsync(staged, tile, [0, 0]))
        (loop,) = [s for s in pb.finish().body.walk() if isinstance(s, ForStmt)]
        assert batched.loop_split(loop) is None

    def test_a_shared_pointer_loads_one_launchs_rows_of_every_iteration(self):
        """Three launches reading one ``a`` at per-iteration offsets: the
        early load is made once, on one launch's rows of every iteration
        (4 blocks x 4 steps); unrolled, each distinct tile on 4 rows."""
        kernel, serial = _tiers_on(k_loop_program("plain"), stack=3, shared=(0,))
        gathered = r"= t\d+\.reshape\(\((\d+), 32, 1\)\)"
        assert re.findall(gathered, kernel.source) == [str(STEPS * 4)]
        assert re.findall(gathered, serial.source) == ["4"] * 2

    @pytest.mark.parametrize("dtype", all_weight_dtypes(), ids=str)
    def test_the_matmul_template_distributes_bit_exactly(self, dtype):
        """The quantized matmul of every weight type of at most 8 bits,
        as a decode step stacks it: ``G`` launches (an activation row and
        an output each) at G = 1, 2 and 8, on one copy of the weights and
        scales lowered to share them, or on private copies — the output
        bytes and stats of the sequential oracle, launch by launch."""
        from repro import ops
        from repro.vm import tileops

        rng = np.random.default_rng(dtype.nbits)
        runtime = Runtime(dram_bytes=1 << 20)
        linear = ops.prepare_linear(rng.standard_normal((64, 32)), dtype, runtime=runtime)
        program, memory = linear.program_for(1), runtime.memory
        views = {inst.ptr: inst.out.ttype for inst in program.body.instructions()
                 if isinstance(inst, insts.ViewGlobal)}

        def private(param, addr: int) -> int:
            nbytes = tileops.tensor_nbytes(views[param].shape, views[param].dtype, "global")
            return runtime.upload(memory.buffer[addr : addr + nbytes].copy(), uint8)

        def out() -> int:
            return runtime.empty([1, linear.n], float16)

        acts = [runtime.upload(float16.quantize(rng.standard_normal((1, 64))), float16)
                for _ in range(8)]
        oracle = [[act, linear.b_addr, linear.s_addr, out()] for act in acts]
        oracle_stats = [Interpreter(memory).launch(program, args).snapshot() for args in oracle]
        for launches in (1, 2, 8):
            for shared in (True, False) if launches > 1 else (True,):
                args_list = [
                    [act, linear.b_addr, linear.s_addr, out()] if shared else
                    [act, private(program.params[1], linear.b_addr),
                     private(program.params[2], linear.s_addr), out()]
                    for act in acts[:launches]
                ]
                kernel = lower_program(
                    program, args_list[0], memory, launches=launches,
                    shared=shared_pointers(program, args_list),
                )
                stats = kernel.run_many(memory, args_list).snapshot()
                for args, want in zip(args_list, oracle):
                    got, ref = (memory.buffer[a[3] : a[3] + 2 * linear.n] for a in (args, want))
                    assert np.array_equal(got, ref), (launches, shared)
                assert stats == {
                    name: sum(s[name] for s in oracle_stats[:launches]) for name in stats
                }

    def test_the_split_is_worked_out_once_per_loop(self):
        from repro.vm import batched

        program = k_loop_program("plain")
        (loop,) = [s for s in program.body.walk() if isinstance(s, ForStmt)]
        with mock.patch.object(batched, "_split", wraps=batched._split) as split:
            for launches in (1, 2):
                memory, host, a, out = device()
                lower_program(program, [a, out], memory, launches=launches)
                BatchedExecutor(memory).launch(program, [a, out])
        assert split.call_count == 1
        split = batched.loop_split(loop)
        assert split.early == (True, True, True, False)  # load, mul, cast; the add chain
        assert split.guards == (None,) * 4 and (split.points, split.copies) == ((), 0)

    def test_a_body_a_compiler_pass_rewrote_is_split_again(self):
        """Dead-code elimination edits a loop body in place (the runtime
        compiles a program before its first launch, a direct caller need
        not): the dead ``Neg`` is then neither run nor counted."""
        from repro.compiler.dce import eliminate_dead_code

        program = k_loop_program("dead value")

        def instructions() -> int:
            memory, host, a, out = device()
            return BatchedExecutor(memory).launch(program, [a, out]).instructions

        before = instructions()
        assert eliminate_dead_code(program) == 1
        _tiers_on(program)  # the oracle runs the rewritten body
        assert instructions() == before - 4 * STEPS  # 4 blocks x 4 steps of Neg


# ---------------------------------------------------------------------------
# Forwarding: what the emitted source may and may not contain
# ---------------------------------------------------------------------------

_ASSIGN = re.compile(r"^(t\d+) = (.*)$")
_STORE_CALLS = ("_scb(", "_ssb(")


def _statements(kernel):
    """``[(target or None, expression), ...]`` of a kernel's body."""
    out = []
    for line in kernel.source.splitlines()[1:]:
        match = _ASSIGN.match(line.strip())
        out.append(match.groups() if match else (None, line.strip()))
    return out


def _calls(kernel, name: str) -> int:
    return kernel.source.count(name + "(")


def decode_linear_kernel(launches: int, shared: tuple = ()):
    """The serving decode linear (``WorkerSpec``'s i6 x f16, k=64, n=16)
    lowered as ``launches`` stacked launches; ``decode_jit`` runs it
    with ``shared=(1, 2)``, the weights and the scales."""
    return decode_linear_stack(launches, shared)[0]


def decode_linear_stack(launches: int, shared: tuple = ()):
    """The serving decode linear as a stack of ``launches`` launches,
    each on its own activation row and output, all on the linear's
    weights and scales: ``(kernel lowered with shared, memory, args)``."""
    from repro.serving import WorkerSpec

    linear = WorkerSpec(jit=True, num_streams=8).build_simulator().decode_linear
    runtime, program = linear.runtime, linear.program_for(1)
    rng = np.random.default_rng(0)
    args_list = [
        [
            runtime.upload(rng.standard_normal((1, linear.k)), linear.act_dtype),
            linear.b_addr,
            linear.s_addr,
            runtime.empty([1, linear.n], linear.act_dtype),
        ]
        for _ in range(launches)
    ]
    kernel = lower_program(
        program, args_list[0], runtime.memory, launches=launches, shared=shared
    )
    return kernel, runtime.memory, args_list


def guarded_load_program(name: str, guarded: bool):
    """``out = a + a``; the second load sits inside ``if bi > 0`` when
    ``guarded`` (block row 0 then adds zeros)."""
    pb = ProgramBuilder(name, grid=[2, 2])
    a_ptr = pb.param("a", pointer(float16))
    out_ptr = pb.param("out", pointer(float16))
    bi, bj = pb.block_indices()
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
    first = pb.load_global(g_a, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
    extra = pb.allocate_register("f16", layout=spatial(8, 4), init=0.0)
    if guarded:
        with pb.if_then(bi > 0):
            again = pb.load_global(g_a, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
            pb.add(again, 0.0, out=extra)
    else:
        again = pb.load_global(g_a, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
        pb.add(again, 0.0, out=extra)
    pb.store_global(pb.add(first, extra), g_out, offset=[bi * 8, bj * 4])
    return pb.finish()


def reload_program(name: str, store_between: bool):
    """Reads one tile twice; with ``store_between`` the tile is rewritten
    in place first, so the second read must see the new bytes."""
    pb = ProgramBuilder(name, grid=[2, 2])
    a_ptr = pb.param("a", pointer(float16))
    out_ptr = pb.param("out", pointer(float16))
    bi, bj = pb.block_indices()
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
    first = pb.load_global(g_a, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
    if store_between:
        pb.store_global(pb.add(first, 1.0), g_a, offset=[bi * 8, bj * 4])
    again = pb.load_global(g_a, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
    pb.store_global(pb.add(first, again), g_out, offset=[bi * 8, bj * 4])
    return pb.finish()


def dead_load_program(name: str = "dead_load"):
    """Loads a tile nobody reads, then stores a constant."""
    pb = ProgramBuilder(name, grid=[1])
    a_ptr = pb.param("a", pointer(float16))
    out_ptr = pb.param("out", pointer(float16))
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
    pb.load_global(g_a, layout=spatial(8, 4), offset=[0, 0])
    ones = pb.allocate_register("f16", layout=spatial(8, 4), init=1.0)
    pb.store_global(ones, g_out, offset=[0, 0])
    return pb.finish()


class TestForwarding:
    def test_decode_kernel_never_round_trips_a_register(self):
        """The structural contract of the forwarded trace, on the kernel
        a served token costs: counts of the emitted source, which repeat
        exactly (the lowering is deterministic) — whether or not the
        stack shares its weights and scales (that moves rows, not
        statements)."""
        for shared in ((), (1, 2)):
            self._check_decode_kernel_structure(shared)

    def _check_decode_kernel_structure(self, shared):
        kernel = decode_linear_kernel(launches=8, shared=shared)
        statements = _statements(kernel)
        produced = {target: expr for target, expr in statements if target}
        # No value is unpacked from bits this kernel packed itself.
        for _, expr in statements:
            for dtype, operand in re.findall(r"_dec\((C\d+), (t\d+)\)", expr):
                assert not produced[operand].startswith(f"_enc({dtype},"), expr
        # Bits exist where they are read: one packing per stored tensor.
        stores = sum(kernel.source.count(call) for call in _STORE_CALLS)
        assert stores == 1 and _calls(kernel, "_enc") <= stores
        # One gather per distinct (view base, address constant, width)
        # between two stores: the distributed k-loop reads each operand's
        # four k-steps in one call.
        seen = set()
        for _, expr in statements:
            if expr.startswith(_STORE_CALLS):
                seen.clear()
            for buf, addr, rest in re.findall(r"_gs?b\((mem|sm), (\w+), ([^)]*)\)", expr):
                key = (buf, produced.get(addr, addr), rest)
                assert key not in seen, f"gathered twice: {expr}"
                seen.add(key)
        # The k-loop is distributed: the A, B and scale tiles of all 4
        # k-steps are each gathered, unpacked and cast once (unrolled, they
        # read _gb 10, _dec 6, _rq 9, _tolg 8, _viewp / _tab 4); the 4
        # ``Dot``s stay a serial chain of ``_rq``s.  The i6 -> f16 cast is
        # one table lookup; the masked A tiles are never placed into zeros
        # (one ``_live`` lays their decoded live lanes out as the logical
        # tensor the ``Dot``s read), and the masked store reads its lanes
        # off the accumulator's logical tensor (no ``_tolg``: the one left
        # lays out the weights).  A pointer the whole stack shares is one
        # number, checked by one ``_vgb``.
        assert {
            name: _calls(kernel, name)
            for name in (
                "_gb", "_dec", "_enc", "_rq", "_tolg", "_viewp", "_vg", "_vgb", "_scb", "_tab",
                "_place", "_live",
            )
        } == {
            "_gb": 3, "_dec": 2, "_enc": 1, "_rq": 6, "_tolg": 1, "_viewp": 1,
            "_vg": 4 - len(shared), "_vgb": len(shared), "_scb": 1, "_tab": 1,
            "_place": 0, "_live": 1,
        }  # fmt: skip
        assert decode_linear_kernel(launches=8, shared=shared).source == kernel.source

    def test_decode_kernel_takes_the_cheap_form_of_each_chain_step(self):
        """Instruction selection on the served G = 8 kernel, read off its
        source and constants (they repeat exactly)."""
        kernel = decode_linear_kernel(launches=8)
        statements = _statements(kernel)
        produced = {target: expr for target, expr in statements if target}
        # The masked A tiles of the 4 k-steps (M = 1 row of an m16 tile, 16
        # blocks each) gather and decode their 4 x 256 live lanes of 4 x
        # 4096 at once: the address constant is that long, and the
        # pointer's rows are one index (the per-row copy of each block's
        # pointer folded in).  One scatter lays them out, iteration-major,
        # as the logical tensor the serial ``Dot``s cut runs of.
        laid = re.findall(r"_live\((C\d+), _dec\(C\d+, (t\d+)\), \((\d+), 16, 16\), (C\d+)\)",
                          kernel.source)
        assert len(laid) == 1
        for fill, gathered, rows, positions in laid:
            assert kernel.consts[fill].tolist() == [0.0]  # the f16 zero pattern, decoded
            address = re.fullmatch(r"_gb\(mem, (t\d+), 2, C\d+\)", produced[gathered]).group(1)
            index, offsets = re.fullmatch(r"p0\[(C\d+)\] \+ (C\d+)", produced[address]).groups()
            assert int(rows) == 4 * 16
            assert kernel.consts[offsets].shape == kernel.consts[index].shape == (4 * 256,)
            assert kernel.consts[positions].shape == (4 * 256,)
        # The masked store rounds and packs the 8 x 16 values it writes,
        # not the 8 x 256 of the accumulator tiles.
        (packed,) = re.findall(r"_enc\(C\d+, _rq\(C\d+, t\d+\.reshape\(-1\)\[(C\d+)\]\)\)",
                               kernel.source)
        assert kernel.consts[packed].shape == (8 * 16,)
        # A narrow source is never decoded and then rounded: that pair is
        # the table lookup.
        for _, expr in statements:
            for operand in re.findall(r"_rq\(C\d+, (t\d+)\)", expr):
                decoded = re.match(r"_dec\((C\d+),", produced[operand])
                assert decoded is None or kernel.consts[decoded.group(1)].nbits > 8, expr
            assert "_rq(" not in expr or "_dec(" not in expr, expr
        for table, _ in re.findall(r"_tab\((C\d+), (t\d+)\)", kernel.source):
            assert kernel.consts[table].shape == (64,)  # every i6 pattern, as f16
        # 150 statements before the cheap forms, 142 before the k-loop was
        # distributed, 83 before the A tiles held their live lanes; a stack
        # adds only its pointers' row addressing.
        for launches in (1, 2, 8):
            lowered = decode_linear_kernel(launches)
            assert len(_statements(lowered)) <= 71
            assert decode_linear_kernel(launches).source == lowered.source

    def test_constant_registers_fold_and_values_pack_once(self):
        """``acc = 0`` is decoded at compile time, the add chain stays
        decoded, and the one ``_enc`` is the stored tensor's."""
        memory, host, a, out = device()
        kernel = lower_program(work_program("fold", steps=3), [a, out], memory)
        assert (_calls(kernel, "_dec"), _calls(kernel, "_enc")) == (1, 1)

    def test_every_temporary_is_released_after_its_last_reader(self):
        kernel = decode_linear_kernel(launches=2)
        assigned, released = [], []
        for target, expr in _statements(kernel):
            if target:
                assigned.append(target)
            elif expr.startswith("del "):
                released.extend(expr[4:].split(", "))
            for name in re.findall(r"\bt\d+\b", expr):
                assert name not in released or expr.startswith("del "), expr
        assert sorted(assigned) == sorted(released)
        # ... and the constant pool is exactly what the source names.
        assert set(kernel.consts) == set(re.findall(r"\bC\d+\b", kernel.source))

    @pytest.mark.parametrize("store_between", [False, True])
    def test_load_cse_ends_at_a_store_to_the_buffer(self, store_between):
        program = reload_program(f"reload{int(store_between)}", store_between)
        memory1, host1, a1, out1 = device()
        host1.launch(program, [a1, out1])
        memory2, host2, a2, out2 = device()
        kernel = lower_program(program, [a2, out2], memory2)
        kernel.run(memory2, [a2, out2], host2.stats)
        assert np.array_equal(memory1.buffer, memory2.buffer)
        assert host1.stats.snapshot() == host2.stats.snapshot()
        assert _calls(kernel, "_gb") == (2 if store_between else 1)

    def test_a_dead_load_keeps_its_bounds_check(self):
        memory, host, a, out = device()
        kernel = lower_program(dead_load_program(), [a, out], memory)
        gathers = [expr for target, expr in _statements(kernel) if "_gb(" in expr]
        assert len(gathers) == 1 and _calls(kernel, "_dec") == 0
        stats = kernel.run(memory, [a, out])
        assert stats.global_bits_loaded == 8 * 4 * 16
        assert np.all(host.download(out, [ROWS, COLS], float16)[:8, :4] == 1.0)


def live_lanes_program(a_layout, elementwise: bool):
    """An ``M = 3`` activation through masked ``m16`` tiles of
    ``a_layout`` (a distributed 2-step k-loop), then — with
    ``elementwise``, an add of two, a multiply by a per-block scalar and a
    negation first — a float cast and a truncating integer cast, and two
    masked stores of the 3 live rows.  Without ``elementwise`` the casts
    read the ``Dot`` result, a logical tensor, and stay logical."""
    mma = mma_m16n8k16()
    pb = ProgramBuilder("live_lanes", grid=[2])
    a_ptr = pb.param("a", pointer(float16))
    b_ptr = pb.param("b", pointer(float16))
    out_ptr = pb.param("out", pointer(float16))
    ints_ptr = pb.param("ints", pointer(int8))
    (bi,) = pb.block_indices()
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[3, 32])
    g_b = pb.view_global(b_ptr, dtype=float16, shape=[32, 16])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[3, 16])
    g_ints = pb.view_global(ints_ptr, dtype=int8, shape=[3, 16])
    acc = pb.allocate_register("f32", layout=mma.c_layout, init=0.0)
    with pb.for_range(2) as k:
        tile = pb.load_global(g_a, layout=a_layout, offset=[0, k * 16], masked=True)
        weights = pb.load_global(g_b, layout=mma.b_layout, offset=[k * 16, bi * 8])
        pb.dot(tile, weights, acc, out=acc)
    scaled = pb.neg(pb.mul(pb.add(acc, acc), bi + 1)) if elementwise else acc
    pb.store_global(pb.cast(scaled, "f16"), g_out, offset=[0, bi * 8], masked=True)
    pb.store_global(pb.cast(scaled, "i8"), g_ints, offset=[0, bi * 8], masked=True)
    return pb.finish()


class TestLiveLanes:
    """A masked tile holds its live lanes, and a register held only as a
    logical tensor stays one through a cast until a masked store packs
    the lanes it writes; elementwise ops between them take the decoded
    values: on both tiers, stacked or not, the launches' outputs and
    counters are the oracle's."""

    LAYOUTS = {
        "mma": mma_m16n8k16().a_layout,
        # Every element held by two threads: the last writer decides.
        "replicated": spatial(8, 2).compose(replicate(2, rank=2)).compose(local(2, 8)),
    }

    @pytest.mark.parametrize("elementwise", [False, True], ids=["cast", "elementwise"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("launches, shared", [(1, ()), (3, ()), (3, (1,))])
    def test_matches_the_oracle(self, layout, launches, shared, elementwise):
        program = live_lanes_program(self.LAYOUTS[layout], elementwise)
        rng = np.random.default_rng(launches)
        acts = [rng.standard_normal((3, 32)) * 4 for _ in range(launches)]
        weight = rng.standard_normal((32, 16))

        def image():
            memory = GlobalMemory(1 << 16)
            b = memory.upload(weight, float16)
            args_list = [
                [memory.upload(act, float16), b, memory.alloc_output([3, 16], float16),
                 memory.alloc_output([3, 16], int8)]
                for act in acts
            ]
            return memory, args_list

        memory, args_list = image()
        oracle = Interpreter(memory)
        for args in args_list:
            oracle.launch(program, args)
        want = memory.buffer.copy()

        memory, args_list = image()
        batched = BatchedExecutor(memory).launch_many(program, args_list)
        assert np.array_equal(memory.buffer, want)
        assert batched.snapshot() == oracle.stats.snapshot()

        memory, args_list = image()
        kernel = lower_program(program, args_list[0], memory, launches=launches, shared=shared)
        assert "_place(" not in kernel.source and _calls(kernel, "_live") == 1
        # Each masked store of a cast of the Dot rounds and packs its lanes.
        written = re.findall(r"_enc\(\w+, _rq\(\w+, \w+\.reshape\(-1\)\[", kernel.source)
        assert len(written) == (0 if elementwise else 2)
        stats = kernel.run_many(memory, args_list)
        assert np.array_equal(memory.buffer, want)
        assert stats.snapshot() == oracle.stats.snapshot()


# Compiled-tier coverage of the data-type spectrum: forwarding must be
# exact on every codec, not only the i6 x f16 decode kernel.
SPECTRUM_K, SPECTRUM_N, SPECTRUM_M = 64, 32, 3


@pytest.mark.parametrize("stages", [1, 2], ids=["direct", "staged"])
@pytest.mark.parametrize("dtype", all_weight_dtypes(), ids=str)
def test_compiled_tier_is_exact_across_the_weight_spectrum(dtype, stages):
    """``ops.prepare_linear`` on ``engine="compiled"`` — launch by launch
    and as one stacked kernel — against ``Runtime(engine="sequential")``:
    equal output bits, equal ``ExecutionStats``."""
    import dataclasses

    from repro import ops
    from repro.vm.interp import ExecutionStats

    rng = np.random.default_rng(dtype.nbits * 2 + stages)
    weight = rng.standard_normal((SPECTRUM_K, SPECTRUM_N))
    acts = [rng.standard_normal((SPECTRUM_M, SPECTRUM_K)) for _ in range(STACK)]
    config = dataclasses.replace(ops._default_config(dtype), num_stages=stages)

    def linear(engine):
        return ops.prepare_linear(
            weight, dtype, group_size=32, config=config, runtime=Runtime(engine=engine)
        )

    oracle = linear("sequential")
    want = [oracle(a) for a in acts]
    want_stats = oracle.runtime.stats().snapshot()

    single = linear("compiled")
    for a, expected in zip(acts, want):
        assert np.array_equal(single(a), expected)
    jit = single.runtime.jit
    assert (jit.promotions, jit.bailouts) == (STACK, 0)
    assert single.runtime.stats().snapshot() == want_stats

    stacked = linear("compiled")
    runtime, act = stacked.runtime, stacked.act_dtype
    args_list = [
        [
            runtime.upload(act.quantize(a), act),
            stacked.b_addr,
            stacked.s_addr,
            runtime.empty([SPECTRUM_M, SPECTRUM_N], act),
        ]
        for a in acts
    ]
    kernel = runtime.jit.maybe_compile(
        stacked.program_for(SPECTRUM_M), args_list[0], forced=True, launches=STACK
    )
    assert kernel is not None and kernel.launches == STACK
    stats = runtime.jit.run(kernel, args_list, ExecutionStats())
    for args, expected in zip(args_list, want):
        got = runtime.download(args[3], [SPECTRUM_M, SPECTRUM_N], act)
        assert np.array_equal(got, expected)
    assert stats.snapshot() == want_stats


# ---------------------------------------------------------------------------
# The kernel cache and the manager's policy
# ---------------------------------------------------------------------------


class TestJitManager:
    def test_cold_specialization_never_compiles(self):
        """Fewer invocations than the constant, no forced engine: the
        launch stays interpreted and never pays a compile."""
        memory, host, a, out = device()
        manager = JitManager(memory)
        program = work_program("cold")
        for _ in range(PROMOTE_AFTER):
            assert manager.maybe_compile(program, [a, out]) is None
        assert manager.compiled == 0

    def test_heat_threshold_gates_promotion(self):
        """Heat is the number of invocations the manager left
        interpreted: ``PROMOTE_AFTER`` of them stay interpreted whatever
        group size they had, the next one compiles."""
        memory, host, a, out = device()
        manager = JitManager(memory)
        program = work_program("heat")
        for launches in (1, 2, 1, 3)[:PROMOTE_AFTER]:
            assert manager.maybe_compile(
                program, [a, out], launches=launches) is None
        assert manager.compiled == 0
        kernel = manager.maybe_compile(program, [a, out])
        assert kernel is not None and manager.compiled == 1
        # A hot key is hot at every group size: first sight compiles.
        stacked = manager.maybe_compile(program, [a, out], launches=2)
        assert stacked is not None and stacked.launches == 2
        assert manager.compiled == 2

    def test_compiled_time_is_not_heat(self):
        """Invocations served on the compiled tier must not count toward
        promotion — otherwise every promoted spec looks eternally hot,
        and a group size it has not met yet compiles on first sight
        although its interpreted traffic never justified a compile."""
        memory, host, a, out = device()
        manager = JitManager(memory)
        program = work_program("served")
        kernel = manager.maybe_compile(program, [a, out], forced=True)
        for _ in range(3 * PROMOTE_AFTER):  # kernel hits
            assert manager.maybe_compile(program, [a, out]) is kernel
        for _ in range(PROMOTE_AFTER):  # a new group size earns its compile
            assert manager.maybe_compile(program, [a, out], launches=2) is None
        assert manager.maybe_compile(program, [a, out], launches=2) is not None
        assert manager.compiled == 2

    def test_promotion_is_sticky_across_profiler_resets(self):
        """Promotion never consults a profiler: installing, replacing
        or removing one between launches neither delays nor demotes a
        specialization."""
        linear, runtime, a = _linear_fixture()
        runtime.enable_jit()
        program = linear.program_for(1)
        out = runtime.empty([1, linear.n], linear.act_dtype)
        args = [a, linear.b_addr, linear.s_addr, out]
        for step in range(PROMOTE_AFTER + 4):
            if step % 2:
                runtime.enable_profiling(Profile())  # knows nothing
            else:
                runtime.disable_profiling()
            runtime.launch(program, args)
        assert runtime.jit.compiled == 1  # never recompiled
        assert runtime.jit.promotions == 4

    def test_bailout_memo_bounds_reattempts(self):
        memory, host, a, out = device()
        manager = JitManager(memory)
        program = print_program()
        assert manager.maybe_compile(program, [a], forced=True) is None
        assert manager.bailouts == 1
        assert "PrintTensor" in manager.bailout_reason(program, [a])
        # The memo answers without re-running the pipeline.
        assert manager.maybe_compile(program, [a], forced=True) is None
        assert manager.bailouts == 1
        # One launch shares nothing: naming a pointer is the same entry.
        assert manager.maybe_compile(program, [a], forced=True, shared=(0,)) is None
        assert "PrintTensor" in manager.bailout_reason(program, [a], shared=(0,))
        assert manager.bailouts == 1
        # A stack is remembered per (size, shared set): each pays its
        # one attempt, and the memo tells them apart.
        for shared in ((), (0,)):
            assert manager.bailout_reason(program, [a], 2, shared) is None
            for _ in range(2):
                assert manager.maybe_compile(
                    program, [a], forced=True, launches=2, shared=shared) is None
            assert "PrintTensor" in manager.bailout_reason(program, [a], 2, shared)
        assert manager.bailouts == 3 and manager.compiled == 0

    #: The property test's world: keys 0-1 belong to a program the
    #: (stubbed) pipeline lowers, keys 2-3 to one it declines.
    BAILING = (2, 3)

    @staticmethod
    def _reference_model(calls):
        """What ``maybe_compile`` answers (a kernel?) for each call, and
        how many kernels and bailouts the calls make."""
        seen = {}
        cached, bailed, answers = set(), set(), []
        for k, launches, forced, shared in calls:
            # One launch shares nothing: its entry ignores ``shared``.
            entry = (k, launches, shared if launches > 1 else ())
            if entry not in cached | bailed:
                if not forced:  # forced compiles at once, uncounted
                    seen[k] = seen.get(k, 0) + 1
                if forced or seen[k] > PROMOTE_AFTER:
                    which = bailed if k in TestJitManager.BAILING else cached
                    which.add(entry)
            answers.append(entry in cached)
        return answers, len(cached), len(bailed)

    @settings(max_examples=200, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(1, 3), st.booleans(),
                st.sampled_from([(), (0,), (0, 1)]),
            ),
            max_size=60,
        ),
    )
    def test_promotion_matches_reference_model(self, calls):
        """Promotion is a pure function of the call sequence: count per
        key, promote after ``PROMOTE_AFTER``, forced immediately and
        uncounted, kernel cache and bailout memo per ``(key, G, shared)``
        — a single launch ignoring ``shared``."""
        programs = [SimpleNamespace(name="lowers"), SimpleNamespace(name="bails")]

        def fake_lower(program, args, memory, shared_capacity, launches, shared):
            if program.name == "bails":
                raise LoweringBailout("stub declines")
            return SimpleNamespace(launches=launches, shared=shared)

        manager = JitManager(GlobalMemory(1 << 12))
        with mock.patch("repro.runtime.jit.lower_program", fake_lower):
            answers = [
                manager.maybe_compile(
                    programs[k in self.BAILING], [], forced=forced,
                    key=("key", k), launches=launches, shared=shared,
                )
                for k, launches, forced, shared in calls
            ]
        want, compiled, bailed = self._reference_model(calls)
        assert [a is not None for a in answers] == want
        assert all(
            a is None or (a.launches, a.shared) == (c[1], c[3] if c[1] > 1 else ())
            for a, c in zip(answers, calls)
        )
        assert manager.compiled == len(manager.kernels(programs[0])) == compiled
        assert manager.bailouts == bailed

    def test_rejects_bad_threshold(self):
        """The promotion threshold is a module constant, not an
        argument, and a manager has no capacity either: it takes
        neither."""
        assert isinstance(PROMOTE_AFTER, int) and PROMOTE_AFTER >= 1
        for knob in ("promote_after", "max_entries"):
            with pytest.raises(TypeError, match=knob):
                JitManager(GlobalMemory(1 << 16), **{knob: 2})


class TestProgramStateLifetime:
    """A program's derived state — its preparation, and each manager's
    kernels, bailouts and counts — lives on the program: nothing the
    runtime or its manager keeps holds a program alive."""

    @pytest.mark.parametrize("stack", [1, 3])
    def test_a_dropped_program_is_collected_while_its_runtime_lives(self, stack):
        """Launched until it runs compiled — alone, or ``stack`` stream
        launches a group — the program is collected once the caller drops
        it, while the runtime and its manager are still alive."""
        runtime = Runtime()
        jit = runtime.enable_jit()
        a = runtime.upload(
            float16.quantize(np.random.default_rng(0).standard_normal((ROWS, COLS))),
            float16,
        )
        outs = [runtime.empty([ROWS, COLS], float16) for _ in range(stack)]
        program = work_program("dropped")
        for _ in range(PROMOTE_AFTER + 1):
            for out in outs:
                runtime.launch(program, [a, out], stream="auto" if stack > 1 else None)
            runtime.synchronize()
        assert [kernel.launches for kernel in jit.kernels(program)] == [stack]
        assert jit.promotions == stack
        dropped = weakref.ref(program)
        del program
        gc.collect()
        assert dropped() is None
        assert runtime.jit is jit and jit.compiled == 1

    def test_runtimes_on_more_threads_than_cores_share_one_program(self, monkeypatch):
        """Eight runtimes, each on its own thread, launch one program
        until it runs compiled: its passes run once, each manager
        compiles it once, and every output is the sequential engine's."""
        from repro.compiler import pipeline

        verified, original = [], pipeline.verify_program
        monkeypatch.setattr(
            pipeline, "verify_program", lambda p: verified.append(p) or original(p)
        )
        data = float16.quantize(np.random.default_rng(0).standard_normal((ROWS, COLS)))
        program, results, errors = work_program("threads"), {}, []

        def serve(i):
            try:
                runtime = Runtime(dram_bytes=1 << 22)
                jit = runtime.enable_jit()
                a = runtime.upload(data, float16)
                out = runtime.empty([ROWS, COLS], float16)
                for _ in range(PROMOTE_AFTER + 1):
                    runtime.launch(program, [a, out])
                bits = runtime.download(out, [ROWS, COLS], float16).tobytes()
                results[i] = (jit.compiled, jit.promotions, bits)
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert verified == [program]
        reference = Runtime(dram_bytes=1 << 22, engine="sequential")
        a = reference.upload(data, float16)
        out = reference.empty([ROWS, COLS], float16)
        reference.launch(work_program("threads"), [a, out])
        want = reference.download(out, [ROWS, COLS], float16).tobytes()
        assert sorted(results.values()) == [(1, 1, want)] * 8


# ---------------------------------------------------------------------------
# Runtime integration: every execution path promotes identically
# ---------------------------------------------------------------------------


def _linear_fixture():
    """A tiny quantized linear with its runtime — the serving decode
    kernel in miniature."""
    from repro import ops
    from repro.dtypes.registry import dtype_from_name

    weight = np.random.default_rng(0).standard_normal((64, 16))
    linear = ops.prepare_linear(weight, dtype_from_name("i6"), group_size=32)
    runtime = linear.runtime
    act = np.random.default_rng(1).standard_normal((1, 64))
    a = runtime.upload(linear.act_dtype.quantize(act), linear.act_dtype)
    return linear, runtime, a


class TestRuntimeTier:
    def test_explicit_compiled_engine_is_bit_exact(self):
        linear, runtime, a = _linear_fixture()
        program = linear.program_for(1)
        out1 = runtime.empty([1, linear.n], linear.act_dtype)
        runtime.launch(program, [a, linear.b_addr, linear.s_addr, out1],
                       engine="batched")
        want = runtime.download(out1, [1, linear.n], linear.act_dtype).copy()
        out2 = runtime.empty([1, linear.n], linear.act_dtype)
        runtime.launch(program, [a, linear.b_addr, linear.s_addr, out2],
                       engine="compiled")
        got = runtime.download(out2, [1, linear.n], linear.act_dtype)
        assert np.array_equal(want, got)
        assert runtime.jit is not None  # engine knob attached the tier
        assert runtime.jit.compiled == 1 and runtime.jit.promotions == 1

    def test_compiled_engine_falls_back_on_bailout(self, capsys):
        runtime = Runtime(engine="compiled")
        rng = np.random.default_rng(0)
        a = runtime.upload(float16.quantize(rng.standard_normal((ROWS, COLS))),
                           float16)
        runtime.launch(print_program(), [a], engine="compiled")
        assert runtime.jit.bailouts == 1 and runtime.jit.compiled == 0
        assert "dbg" in capsys.readouterr().out  # the batched fallback ran

    def test_runtime_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            Runtime(engine="turbo")
        runtime = Runtime()
        with pytest.raises(ValueError):
            runtime.launch(work_program("bad"), [0, 0], engine="turbo")

    def test_cold_auto_launches_stay_interpreted(self):
        linear, runtime, a = _linear_fixture()
        runtime.enable_profiling()
        runtime.enable_jit()
        program = linear.program_for(1)
        out = runtime.empty([1, linear.n], linear.act_dtype)
        for _ in range(PROMOTE_AFTER):
            runtime.launch(program, [a, linear.b_addr, linear.s_addr, out])
        assert runtime.jit.compiled == 0 and runtime.jit.promotions == 0

    def test_hot_auto_launches_promote_bit_exactly_across_the_boundary(self):
        """The promotion path end to end: the first ``PROMOTE_AFTER``
        launches stay interpreted, the next one compiles, and outputs
        are bit-identical before, at, and after the boundary."""
        linear, runtime, a = _linear_fixture()
        program = linear.program_for(1)
        out = runtime.empty([1, linear.n], linear.act_dtype)
        runtime.launch(program, [a, linear.b_addr, linear.s_addr, out],
                       engine="batched")
        want = runtime.download(out, [1, linear.n], linear.act_dtype).copy()
        profiler = runtime.enable_profiling()
        runtime.enable_jit()
        compiled_at = None
        for step in range(PROMOTE_AFTER + 3):
            runtime.launch(program, [a, linear.b_addr, linear.s_addr, out])
            got = runtime.download(out, [1, linear.n], linear.act_dtype)
            assert np.array_equal(want, got), f"step {step} diverged"
            if compiled_at is None and runtime.jit.compiled:
                compiled_at = step
        assert compiled_at == PROMOTE_AFTER
        assert runtime.jit.compiled == 1 and runtime.jit.promotions == 3
        # The profiler kept the tiers apart: compiled wall time recorded
        # under its own engine, not folded into the interpreted site.
        spec = specialization_key(
            program, [a, linear.b_addr, linear.s_addr, out])
        engines = {
            node.engine for node in profiler.nodes.values()
            if node.spec == spec and node.calls
        }
        assert COMPILED in engines
        assert engines - {COMPILED}, "interpreted records vanished"

    def test_enable_jit_rejects_a_different_capacity_on_an_attached_manager(self):
        """A manager has no capacity and ``enable_jit`` takes none:
        asking for one raises, and enabling again returns the attached
        manager."""
        runtime = Runtime()
        manager = runtime.enable_jit()
        with pytest.raises(TypeError, match="max_entries"):
            runtime.enable_jit(max_entries=16)
        assert runtime.enable_jit() is manager
        assert runtime.jit is manager

    def test_explicit_interpreted_engines_never_promote(self):
        linear, runtime, a = _linear_fixture()
        runtime.enable_profiling()
        runtime.enable_jit()
        program = linear.program_for(1)
        out = runtime.empty([1, linear.n], linear.act_dtype)
        for engine in ("batched", "sequential"):
            for _ in range(PROMOTE_AFTER + 2):
                runtime.launch(program,
                               [a, linear.b_addr, linear.s_addr, out],
                               engine=engine)
        assert runtime.jit.compiled == 0, (
            "an explicit engine choice must be honored"
        )
        for _ in range(PROMOTE_AFTER):  # and it earns no promotion either
            assert runtime.jit.maybe_compile(
                program, [a, linear.b_addr, linear.s_addr, out]) is None

    def test_stream_submission_promotes(self):
        linear, runtime, a = _linear_fixture()
        program = linear.program_for(1)
        out1 = runtime.empty([1, linear.n], linear.act_dtype)
        runtime.launch(program, [a, linear.b_addr, linear.s_addr, out1],
                       engine="batched")
        want = runtime.download(out1, [1, linear.n], linear.act_dtype).copy()
        runtime.enable_jit()
        pool = runtime.stream_pool(2)
        assert pool.jit is runtime.jit  # the pool shares the manager
        out2 = runtime.empty([1, linear.n], linear.act_dtype)
        runtime.launch(program, [a, linear.b_addr, linear.s_addr, out2],
                       engine="compiled", stream=pool.streams[0])
        pool.synchronize()
        got = runtime.download(out2, [1, linear.n], linear.act_dtype)
        assert np.array_equal(want, got)
        assert runtime.jit.promotions == 1

    def test_graph_replay_promotes_bit_exactly(self):
        """The captured-graph path: replays of a graph whose ``auto``
        nodes grew hot — replayed past the constant — run the compiled
        tier, bit-exactly vs. the serial oracle."""
        from repro.runtime import StreamPool

        memory, host, a, out = device()
        rng = np.random.default_rng(3)
        b = host.upload(float16.quantize(rng.standard_normal((ROWS, COLS))),
                        float16)
        out_b = host.alloc_output([ROWS, COLS], float16)
        # Distinct programs so capture cannot coalesce them into a
        # multi-launch group (only single-launch groups promote).
        p1, p2 = work_program("g1", steps=3), work_program("g2", steps=5)
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                pool.submit(p1, [a, out], stream=pool.streams[0])
                pool.submit(p2, [b, out_b], stream=pool.streams[1])
            graph.replay(serial=True)  # pool.jit unset: the pure oracle
            want = (output_bits(memory, host, out),
                    output_bits(memory, host, out_b))

            profiler = pool.profiler = Profile()
            jit = JitManager(memory)
            pool.jit = jit
            for replay in range(PROMOTE_AFTER + 3):
                graph.replay()
                pool.synchronize()
                got = (output_bits(memory, host, out),
                       output_bits(memory, host, out_b))
                for w, g in zip(want, got):
                    assert np.array_equal(w, g)
                # Each node's launches are counted replay by replay.
                assert jit.compiled == (2 if replay >= PROMOTE_AFTER else 0)
        assert jit.compiled == 2  # one kernel per distinct node
        assert jit.promotions == 2 * 3
        # Promoted replays recorded under the compiled engine, at the
        # same graph sites.
        engines = {node.engine for node in profiler.nodes.values()}
        assert COMPILED in engines


# ---------------------------------------------------------------------------
# Serving integration: the jit knob end to end
# ---------------------------------------------------------------------------


class TestServingTier:
    def test_simulator_jit_digests_match_and_promote(self):
        from repro.llm.batching import uniform_trace
        from repro.serving import WorkerSpec

        trace = uniform_trace(6, 0.001, prompt_tokens=32, output_tokens=16)
        spec = WorkerSpec(linear_k=64, linear_n=16, linear_dtype="i6",
                          linear_group=32, max_batch=4, num_streams=2)
        plain = spec.build_simulator().run(trace)
        jitted = WorkerSpec(
            linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
            max_batch=4, num_streams=2, jit=True,
        ).build_simulator().run(trace)
        assert jitted.jit_compiled >= 1
        assert jitted.jit_promotions >= 1
        assert plain.jit_compiled == 0 and plain.jit_promotions == 0
        want = {r.request.rid: r.output_digest for r in plain.results}
        got = {r.request.rid: r.output_digest for r in jitted.results}
        assert want == got, "the compiled tier changed decode bits"

    SHAPE = dict(linear_k=64, linear_n=16, linear_dtype="i6",
                 linear_group=32, max_batch=4, num_streams=4, jit=True)

    def test_hot_key_lowers_a_new_group_size_on_first_sight_in_a_later_run(self):
        """The count lives on the manager, not in a per-run profile: a
        key promoted in one ``run()`` is still hot in the next, so a
        group size that run sees for the first time lowers on its first
        invocation and no launch of the run is interpreted.  Run on the
        reference path (``num_streams=0``), whose per-request launches
        a step retires as one group of the live count: a served step is
        one launch, a group of one."""
        from repro.llm.batching import uniform_trace
        from repro.serving import WorkerSpec

        sim = WorkerSpec(**{**self.SHAPE, "num_streams": 0}).build_simulator()
        first = sim.run(uniform_trace(2, 0.0, prompt_tokens=32, output_tokens=12))
        jit = sim.decode_linear.runtime.jit
        assert first.jit_compiled >= 1
        assert first.jit_promotions < first.kernel_launches  # earned it
        program = sim.decode_linear.program_for(1)
        seen = {k.launches for k in jit.kernels(program)}
        assert max(seen) == 2
        second = sim.run(uniform_trace(4, 0.0, prompt_tokens=32, output_tokens=6))
        assert {k.launches for k in jit.kernels(program)} - seen == {4}
        assert second.jit_compiled >= 1
        assert second.jit_promotions == second.kernel_launches

    def test_equal_specs_and_traces_promote_identically_whatever_the_clock(self):
        """Promotion is a pure function of the launch sequence: two
        simulators built from equal specs and fed equal traces end with
        equal JIT counters, run by run — though one of them runs
        profiled, with every interpreted invocation slowed past the old
        0.02 s wall threshold and a pause between its runs."""
        import time

        from repro.llm.batching import uniform_trace
        from repro.serving import WorkerSpec
        from repro.vm import BatchedExecutor

        traces = [
            uniform_trace(2, 0.0, prompt_tokens=32, output_tokens=12),
            uniform_trace(4, 0.0, prompt_tokens=32, output_tokens=6),
        ]
        spec = WorkerSpec(**self.SHAPE)
        plain = spec.build_simulator()
        per_run = [
            (r.jit_compiled, r.jit_promotions, r.kernel_launches)
            for r in map(plain.run, traces)
        ]

        launch_many = BatchedExecutor.launch_many

        def slow_launch_many(self, program, args_list):
            time.sleep(0.025)
            return launch_many(self, program, args_list)

        disturbed = spec.build_simulator()
        disturbed.decode_linear.runtime.enable_profiling()
        with mock.patch.object(BatchedExecutor, "launch_many", slow_launch_many):
            disturbed_runs = []
            for trace in traces:
                outcome = disturbed.run(trace)
                disturbed_runs.append(
                    (outcome.jit_compiled, outcome.jit_promotions,
                     outcome.kernel_launches)
                )
                time.sleep(0.03)
        assert disturbed_runs == per_run

        def jit_metrics(sim):
            return {key: value
                    for key, value in sim.decode_linear.runtime.metrics().items()
                    if key.startswith("jit.")}

        assert jit_metrics(disturbed) == jit_metrics(plain)

    def test_spec_jit_knob_round_trips_and_defaults_off(self):
        from repro.serving import WorkerSpec

        spec = WorkerSpec(jit=True)
        assert WorkerSpec.from_json(spec.to_json()) == spec
        assert WorkerSpec().jit is False

    def test_metrics_report_jit_counters(self):
        """What a worker ships on ``pull_trace`` (``sim.metrics()``)
        carries the compiled tier's counters, and reads it as off when
        the spec does not attach it."""
        from repro.llm.batching import uniform_trace
        from repro.serving import WorkerSpec

        spec = WorkerSpec(linear_k=64, linear_n=16, linear_dtype="i6",
                          linear_group=32, max_batch=4, num_streams=2,
                          jit=True)
        sim = spec.build_simulator()
        sim.run(uniform_trace(6, 0.001, prompt_tokens=32, output_tokens=32))
        metrics = sim.metrics()
        assert metrics["jit.enabled"] == 1
        assert metrics["jit.compiled"] >= 1
        assert metrics["jit.promotions"] >= 1
        plain = WorkerSpec(linear_k=64, linear_n=16, linear_dtype="i6",
                           linear_group=32, max_batch=4, num_streams=2)
        sim2 = plain.build_simulator()
        sim2.run(uniform_trace(2, 0.001, prompt_tokens=32, output_tokens=2))
        metrics2 = sim2.metrics()
        assert metrics2["jit.enabled"] == 0 and metrics2["jit.compiled"] == 0

    def test_router_aggregates_jit_counters_bit_exactly(self):
        """Spawned jit workers promote identically: digests match the
        non-jit serial oracle and the router's counters see the tier."""
        from repro.serving import Router, WorkerPool, WorkerSpec, poisson_trace

        spec = WorkerSpec(linear_k=64, linear_n=16, linear_dtype="i6",
                          linear_group=32, max_batch=4, num_streams=2,
                          jit=True)
        trace = poisson_trace(6, rate_rps=1000.0, prompt_tokens=32,
                              output_tokens=16)
        with WorkerPool(spec, 2) as pool:
            result = Router(pool, chunk_size=3).serve(trace, timeout_s=180.0)
        assert result.num_completed == len(trace)
        assert result.jit_compiled >= 1
        assert result.jit_promotions >= 1
        oracle_spec = WorkerSpec(linear_k=64, linear_n=16, linear_dtype="i6",
                                 linear_group=32, max_batch=4, num_streams=2)
        oracle = oracle_spec.build_simulator().run(trace)
        assert result.digests() == {
            r.request.rid: r.output_digest for r in oracle.results
        }
