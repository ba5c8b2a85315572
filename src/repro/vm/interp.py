"""The Tilus virtual machine interpreter (sequential engine).

Executes a :class:`~repro.ir.Program` over a simulated device: thread
blocks run sequentially (their semantics are independent), and inside a
block every instruction operates on whole tiles at once, mirroring the
thread-block-level (SIMB) execution model of paper Section 6.

The interpreter is *functionally* faithful — including bit-exact sub-byte
storage and register reinterpretation — while timing behaviour is the
domain of :mod:`repro.perf`.

Instruction semantics live in module-level handlers registered in the
:data:`repro.vm.dispatch.SEQUENTIAL` table; the class only owns statement
execution (control flow), launch bookkeeping and the host-side memory
helpers.  The grid-vectorized sibling engine is
:class:`repro.vm.batched.BatchedExecutor`, which shares this module's
semantics instruction by instruction (locked in by the differential test
harness under ``tests/harness``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import VMError
from repro.ir import instructions as insts
from repro.ir.evaluator import evaluate
from repro.ir.expr import Var
from repro.ir.program import Program
from repro.ir.stmt import (
    AssignStmt,
    BreakStmt,
    ContinueStmt,
    ForStmt,
    IfStmt,
    InstructionStmt,
    SeqStmt,
    Stmt,
    WhileStmt,
)
from repro.ir.types import TensorVar
from repro.vm.dispatch import (
    SEQUENTIAL,
    bounds_mask,
    decompose_linear,
    layout_tile_coords,
    pad_tile_indices,
)
from repro.vm.memory import GlobalMemory, SharedMemory, TensorView
from repro.vm.values import RegisterValue


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Exit(Exception):
    pass


class ExecutionStats:
    """Counters collected during interpretation (useful in tests and for
    sanity-checking the performance model's operation counts)."""

    def __init__(self) -> None:
        self.blocks_run = 0
        self.instructions = 0
        self.global_bits_loaded = 0
        self.global_bits_stored = 0
        self.shared_bits_loaded = 0
        self.shared_bits_stored = 0
        self.copy_async_issued = 0
        self.dot_ops = 0
        self.synchronizations = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy of all counters (for comparisons in tests)."""
        return {k: v for k, v in vars(self).items()}

    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Add ``other``'s counters into this object (for aggregating
        the host lane's and the stream pool's statistics); returns
        self."""
        for key, value in vars(other).items():
            setattr(self, key, getattr(self, key) + value)
        return self

    def __repr__(self) -> str:
        return (
            f"ExecutionStats(blocks={self.blocks_run}, insts={self.instructions}, "
            f"gld={self.global_bits_loaded}b, gst={self.global_bits_stored}b, "
            f"dots={self.dot_ops})"
        )


class BlockContext:
    """Mutable state of one thread block during interpretation."""

    def __init__(self, interpreter: "Interpreter", block_idx: tuple[int, ...]) -> None:
        self.interp = interpreter
        self.block_idx = block_idx
        self.env: dict[Var, object] = dict(interpreter.launch_env)
        self.shared = SharedMemory(capacity_bytes=interpreter.shared_capacity)
        self.pending_copies: list = []
        self.committed_groups: list = []

    def lookup_tensor(self, var: TensorVar):
        value = self.env.get(var)
        if value is None:
            raise VMError(f"tensor {var.name} used before definition")
        return value


class Interpreter:
    """Executes Tilus programs on a simulated device, block by block."""

    def __init__(
        self,
        memory: GlobalMemory | None = None,
        shared_capacity: int = 228 * 1024,
        stdout=None,
    ) -> None:
        self.memory = memory if memory is not None else GlobalMemory()
        self.shared_capacity = shared_capacity
        self.launch_env: dict[Var, object] = {}
        self.stats = ExecutionStats()
        self._stdout = stdout
        #: Buffered ``PrintTensor`` output for the launch in flight,
        #: flushed at launch retire (created on first print) — the same
        #: ordered-sink contract as the batched engine, so callers can
        #: capture either engine's prints by swapping ``stdout``.
        self._prints: list[str] | None = None
        #: ``AllocateGlobal`` spans of the launch in flight, freed when
        #: it ends.
        self._workspaces: list[int] = []

    # -- host-side helpers ---------------------------------------------------
    def upload(self, values: np.ndarray, dtype) -> int:
        return self.memory.upload(values, dtype)

    def alloc_output(self, shape: Sequence[int], dtype) -> int:
        return self.memory.alloc_output(shape, dtype)

    def download(self, addr: int, shape: Sequence[int], dtype) -> np.ndarray:
        return self.memory.download(addr, shape, dtype)

    # -- launch ------------------------------------------------------------------
    def launch(self, program: Program, args: Sequence) -> ExecutionStats:
        """Run all thread blocks of ``program`` with the given arguments."""
        if len(args) != len(program.params):
            raise VMError(
                f"{program.name} expects {len(program.params)} args, got {len(args)}"
            )
        self.launch_env = {p: a for p, a in zip(program.params, args)}
        grid = program.grid_size(args)
        nblocks = int(np.prod(grid)) if grid else 1
        coords = decompose_linear(tuple(grid))
        self._prints = None
        self._workspaces = []
        try:
            for linear in range(nblocks):
                ctx = BlockContext(self, tuple(int(c[linear]) for c in coords))
                self.stats.blocks_run += 1
                try:
                    self._run_stmt(program.body, ctx)
                except _Exit:
                    pass
        finally:
            for addr in self._workspaces:
                self.memory.free(addr)
            self._flush_prints()
        return self.stats

    def _flush_prints(self) -> None:
        """Emit buffered print output in block (retire) order.  Blocks
        already run sequentially, so buffering changes nothing about the
        interleaving — it makes the launch's output atomic and routes it
        through the swappable ``stdout`` sink, mirroring
        :meth:`repro.vm.batched.BatchedExecutor._flush_prints`."""
        prints, self._prints = self._prints, None
        if prints is None:
            return
        for text in prints:
            if self._stdout is not None:
                self._stdout.write(text + "\n")
            else:
                print(text)

    # -- statement execution -----------------------------------------------------
    def _run_stmt(self, stmt: Stmt, ctx: BlockContext) -> None:
        if isinstance(stmt, SeqStmt):
            for child in stmt.body:
                self._run_stmt(child, ctx)
        elif isinstance(stmt, InstructionStmt):
            self.stats.instructions += 1
            self._run_instruction(stmt.instruction, ctx)
        elif isinstance(stmt, AssignStmt):
            ctx.env[stmt.var] = evaluate(stmt.value, ctx.env)
        elif isinstance(stmt, IfStmt):
            if evaluate(stmt.cond, ctx.env):
                self._run_stmt(stmt.then_body, ctx)
            elif stmt.else_body is not None:
                self._run_stmt(stmt.else_body, ctx)
        elif isinstance(stmt, ForStmt):
            extent = int(evaluate(stmt.extent, ctx.env))
            for i in range(extent):
                ctx.env[stmt.var] = i
                try:
                    self._run_stmt(stmt.body, ctx)
                except _Continue:
                    continue
                except _Break:
                    break
        elif isinstance(stmt, WhileStmt):
            while evaluate(stmt.cond, ctx.env):
                try:
                    self._run_stmt(stmt.body, ctx)
                except _Continue:
                    continue
                except _Break:
                    break
        elif isinstance(stmt, BreakStmt):
            raise _Break()
        elif isinstance(stmt, ContinueStmt):
            raise _Continue()
        else:
            raise VMError(f"unknown statement {type(stmt).__name__}")

    # -- instruction execution ------------------------------------------------------
    def _run_instruction(self, inst: insts.Instruction, ctx: BlockContext) -> None:
        SEQUENTIAL.lookup(inst)(self, inst, ctx)


# ---------------------------------------------------------------------------
# Sequential instruction handlers
# ---------------------------------------------------------------------------


def _tile_indices(layout, offset, ctx: BlockContext, broadcast_dims=frozenset()):
    """Global/shared indices touched by a register tile at ``offset``.

    When the register tile has lower rank than the memory tensor (e.g.
    a 1-D ``u8[96]`` tile stored into ``u8[K/BK, N/BN, 96]`` at
    ``offset=[bk, bj, 0]``), the tile addresses the trailing dimensions
    and the leading ones are fixed by the offset alone.  Dimensions in
    ``broadcast_dims`` ignore the tile coordinate entirely (scale-vector
    broadcast loads).
    """
    coords = layout_tile_coords(layout)
    origin = [int(evaluate(o, ctx.env)) for o in offset]
    return pad_tile_indices(coords, origin, broadcast_dims)


# tensor creation -------------------------------------------------------------


@SEQUENTIAL.register(insts.BlockIndices)
def _exec_block_indices(vm: Interpreter, inst: insts.BlockIndices, ctx: BlockContext) -> None:
    if len(inst.out_vars) != len(ctx.block_idx):
        raise VMError(
            f"BlockIndices unpacks {len(inst.out_vars)} values but the grid "
            f"has rank {len(ctx.block_idx)}"
        )
    for var, value in zip(inst.out_vars, ctx.block_idx):
        ctx.env[var] = value


@SEQUENTIAL.register(insts.ViewGlobal)
def _exec_view_global(vm: Interpreter, inst: insts.ViewGlobal, ctx: BlockContext) -> None:
    ptr = int(evaluate(inst.ptr, ctx.env))
    ttype = inst.out.ttype
    shape = tuple(
        int(evaluate(s, ctx.env)) if hasattr(s, "dtype") else int(s)
        for s in ttype.shape
    )
    ctx.env[inst.out] = TensorView(vm.memory.buffer, ptr * 8, ttype.dtype, shape)


@SEQUENTIAL.register(insts.AllocateRegister)
def _exec_allocate_register(
    vm: Interpreter, inst: insts.AllocateRegister, ctx: BlockContext
) -> None:
    ttype = inst.out.ttype
    if inst.init is not None:
        value = RegisterValue.filled(ttype.dtype, ttype.layout, inst.init)
    else:
        value = RegisterValue.zeros(ttype.dtype, ttype.layout)
    ctx.env[inst.out] = value


@SEQUENTIAL.register(insts.AllocateShared)
def _exec_allocate_shared(
    vm: Interpreter, inst: insts.AllocateShared, ctx: BlockContext
) -> None:
    ttype = inst.out.ttype
    shape = ttype.static_shape()
    if shape is None:
        raise VMError("shared tensors require static shapes")
    addr = ctx.shared.alloc((int(np.prod(shape)) * ttype.dtype.nbits + 7) // 8)
    ctx.env[inst.out] = TensorView(ctx.shared.buffer, addr * 8, ttype.dtype, shape)


@SEQUENTIAL.register(insts.FreeShared)
def _exec_free_shared(vm: Interpreter, inst: insts.FreeShared, ctx: BlockContext) -> None:
    # The VM gives each block fresh shared buffers; reuse is the
    # planner's concern.  Freeing just drops the binding.
    ctx.env.pop(inst.tensor, None)


@SEQUENTIAL.register(insts.AllocateGlobal)
def _exec_allocate_global(
    vm: Interpreter, inst: insts.AllocateGlobal, ctx: BlockContext
) -> None:
    ttype = inst.out.ttype
    shape = ttype.static_shape()
    if shape is None:
        raise VMError("workspace tensors require static shapes")
    addr = vm.memory.alloc((int(np.prod(shape)) * ttype.dtype.nbits + 7) // 8)
    vm._workspaces.append(addr)
    ctx.env[inst.out] = TensorView(vm.memory.buffer, addr * 8, ttype.dtype, shape)


# transfer ------------------------------------------------------------------


@SEQUENTIAL.register(insts.LoadGlobal)
def _exec_load_global(vm: Interpreter, inst: insts.LoadGlobal, ctx: BlockContext) -> None:
    src: TensorView = ctx.lookup_tensor(inst.src)
    layout = inst.out.ttype.layout
    indices = _tile_indices(layout, inst.offset, ctx, inst.broadcast_dims)
    if inst.masked:
        valid = bounds_mask(indices, src.shape)
        clipped = [np.clip(i, 0, e - 1) for i, e in zip(indices, src.shape)]
        patterns = src.gather_bits(clipped)
        patterns = np.where(valid, patterns, np.uint64(0))
    else:
        patterns = src.gather_bits(indices)
    patterns = patterns.reshape(layout.num_threads, layout.local_size)
    vm.stats.global_bits_loaded += layout.size * src.dtype.nbits
    ctx.env[inst.out] = RegisterValue.from_patterns(inst.out.ttype.dtype, layout, patterns)


@SEQUENTIAL.register(insts.LoadShared)
def _exec_load_shared(vm: Interpreter, inst: insts.LoadShared, ctx: BlockContext) -> None:
    src: TensorView = ctx.lookup_tensor(inst.src)
    layout = inst.out.ttype.layout
    indices = _tile_indices(layout, inst.offset, ctx, inst.broadcast_dims)
    patterns = src.gather_bits(indices).reshape(layout.num_threads, layout.local_size)
    vm.stats.shared_bits_loaded += layout.size * src.dtype.nbits
    ctx.env[inst.out] = RegisterValue.from_patterns(inst.out.ttype.dtype, layout, patterns)


@SEQUENTIAL.register(insts.StoreGlobal)
def _exec_store_global(vm: Interpreter, inst: insts.StoreGlobal, ctx: BlockContext) -> None:
    value: RegisterValue = ctx.lookup_tensor(inst.src)
    dst: TensorView = ctx.lookup_tensor(inst.dst)
    indices = _tile_indices(value.layout, inst.offset, ctx)
    patterns = value.thread_patterns().reshape(-1)
    if inst.masked:
        valid = bounds_mask(indices, dst.shape)
        if not valid.any():
            return
        indices = [i[valid] for i in indices]
        patterns = patterns[valid]
    dst.scatter_bits(indices, patterns)
    vm.stats.global_bits_stored += value.layout.size * dst.dtype.nbits


@SEQUENTIAL.register(insts.StoreShared)
def _exec_store_shared(vm: Interpreter, inst: insts.StoreShared, ctx: BlockContext) -> None:
    value: RegisterValue = ctx.lookup_tensor(inst.src)
    dst: TensorView = ctx.lookup_tensor(inst.dst)
    indices = _tile_indices(value.layout, inst.offset, ctx)
    dst.scatter_bits(indices, value.thread_patterns().reshape(-1))
    vm.stats.shared_bits_stored += value.layout.size * dst.dtype.nbits


@SEQUENTIAL.register(insts.CopyAsync)
def _exec_copy_async(vm: Interpreter, inst: insts.CopyAsync, ctx: BlockContext) -> None:
    src: TensorView = ctx.lookup_tensor(inst.src)
    dst: TensorView = ctx.lookup_tensor(inst.dst)
    shape = inst.copy_shape()
    src_origin = [int(evaluate(o, ctx.env)) for o in inst.src_offset]
    dst_origin = [int(evaluate(o, ctx.env)) for o in inst.dst_offset]
    # Functional semantics: copy eagerly; group tracking validates usage.
    size = int(np.prod(shape))
    idx = decompose_linear(tuple(shape))
    # Region rank may be lower than either tensor's rank: address the
    # trailing dimensions, leading ones fixed by the offsets.
    zero = np.zeros(size, dtype=np.int64)
    src_idx = [zero] * (len(src_origin) - len(idx)) + idx
    dst_idx = [zero] * (len(dst_origin) - len(idx)) + idx
    src_idx = [i + o for i, o in zip(src_idx, src_origin)]
    dst_idx = [i + o for i, o in zip(dst_idx, dst_origin)]
    # cp.async zero-fills out-of-bounds source elements (zfill semantics).
    valid = bounds_mask(src_idx, src.shape)
    clipped = [np.clip(i, 0, e - 1) for i, e in zip(src_idx, src.shape)]
    patterns = np.where(valid, src.gather_bits(clipped), np.uint64(0))
    dst.scatter_bits(dst_idx, patterns)
    ctx.pending_copies.append(inst)
    vm.stats.copy_async_issued += 1
    vm.stats.global_bits_loaded += size * src.dtype.nbits


@SEQUENTIAL.register(insts.CopyAsyncCommitGroup)
def _exec_copy_async_commit(vm: Interpreter, inst, ctx: BlockContext) -> None:
    ctx.committed_groups.append(ctx.pending_copies)
    ctx.pending_copies = []


@SEQUENTIAL.register(insts.CopyAsyncWaitGroup)
def _exec_copy_async_wait(
    vm: Interpreter, inst: insts.CopyAsyncWaitGroup, ctx: BlockContext
) -> None:
    while len(ctx.committed_groups) > inst.n:
        ctx.committed_groups.pop(0)


# computation --------------------------------------------------------------


@SEQUENTIAL.register(insts.ElementwiseBinary)
def _exec_elementwise_binary(
    vm: Interpreter, inst: insts.ElementwiseBinary, ctx: BlockContext
) -> None:
    a: RegisterValue = ctx.lookup_tensor(inst.a)
    if isinstance(inst.b, TensorVar):
        b = ctx.lookup_tensor(inst.b)
    else:
        b = evaluate(inst.b, ctx.env)
    ctx.env[inst.out] = a.binary(inst.op, b)


@SEQUENTIAL.register(insts.Neg)
def _exec_neg(vm: Interpreter, inst: insts.Neg, ctx: BlockContext) -> None:
    ctx.env[inst.out] = ctx.lookup_tensor(inst.a).neg()


@SEQUENTIAL.register(insts.Cast)
def _exec_cast(vm: Interpreter, inst: insts.Cast, ctx: BlockContext) -> None:
    ctx.env[inst.out] = ctx.lookup_tensor(inst.a).cast(inst.dtype)


@SEQUENTIAL.register(insts.ReduceSum)
def _exec_reduce_sum(vm: Interpreter, inst: insts.ReduceSum, ctx: BlockContext) -> None:
    value: RegisterValue = ctx.lookup_tensor(inst.a)
    logical = value.to_logical()
    reduced = logical.sum(axis=inst.axis, keepdims=True)
    out_t = inst.out.ttype
    ctx.env[inst.out] = RegisterValue.from_logical(out_t.dtype, out_t.layout, reduced)


@SEQUENTIAL.register(insts.Lookup)
def _exec_lookup(vm: Interpreter, inst: insts.Lookup, ctx: BlockContext) -> None:
    codes: RegisterValue = ctx.lookup_tensor(inst.codes)
    table = ctx.lookup_tensor(inst.table)
    indices = codes.thread_values().astype(np.int64)
    if isinstance(table, RegisterValue):
        # Register-held codebook: use the logical 1-D table.
        logical = table.to_logical()
        extent = logical.shape[0]
        if indices.size and (indices.min() < 0 or indices.max() >= extent):
            raise VMError(
                f"lookup code {int(indices.max())} exceeds table of {extent}"
            )
        values = logical[indices.reshape(-1)]
    else:
        extent = table.shape[0]
        if indices.size and (indices.min() < 0 or indices.max() >= extent):
            raise VMError(
                f"lookup code {int(indices.max())} exceeds table of {extent}"
            )
        bits = table.gather_bits([indices.reshape(-1)])
        values = table.dtype.from_bits(bits)
    out_t = inst.out.ttype
    ctx.env[inst.out] = RegisterValue.from_thread_values(
        out_t.dtype, out_t.layout, values.reshape(indices.shape)
    )


@SEQUENTIAL.register(insts.View)
def _exec_view(vm: Interpreter, inst: insts.View, ctx: BlockContext) -> None:
    out_t = inst.out.ttype
    ctx.env[inst.out] = ctx.lookup_tensor(inst.a).view(out_t.dtype, out_t.layout)


@SEQUENTIAL.register(insts.Dot)
def _exec_dot(vm: Interpreter, inst: insts.Dot, ctx: BlockContext) -> None:
    a = ctx.lookup_tensor(inst.a).to_logical()
    b = ctx.lookup_tensor(inst.b).to_logical()
    c = ctx.lookup_tensor(inst.c).to_logical()
    result = a.astype(np.float64) @ b.astype(np.float64) + c
    out_t = inst.out.ttype
    ctx.env[inst.out] = RegisterValue.from_logical(out_t.dtype, out_t.layout, result)
    vm.stats.dot_ops += a.shape[0] * a.shape[1] * b.shape[1]


# misc --------------------------------------------------------------------


@SEQUENTIAL.register(insts.Synchronize)
def _exec_synchronize(vm: Interpreter, inst, ctx: BlockContext) -> None:
    vm.stats.synchronizations += 1


@SEQUENTIAL.register(insts.Exit)
def _exec_exit(vm: Interpreter, inst, ctx: BlockContext) -> None:
    raise _Exit()


@SEQUENTIAL.register(insts.PrintTensor)
def _exec_print_tensor(vm: Interpreter, inst: insts.PrintTensor, ctx: BlockContext) -> None:
    value = ctx.lookup_tensor(inst.tensor)
    rendered = value.to_logical() if isinstance(value, RegisterValue) else value.read_all()
    prefix = f"{inst.message}: " if inst.message else ""
    text = f"{prefix}{inst.tensor.name} =\n{rendered}"
    # Rendered now (per-block state at this point), flushed in block
    # order at launch retire — see Interpreter._flush_prints.
    if vm._prints is None:
        vm._prints = []
    vm._prints.append(text)
