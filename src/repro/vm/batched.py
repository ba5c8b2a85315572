"""Grid-vectorized VM execution engine.

The sequential :class:`~repro.vm.interp.Interpreter` runs thread blocks one
after another in a Python loop, so per-instruction Python overhead is paid
once *per block*.  Thread blocks are independent by construction (paper
Section 6), which makes the grid a perfect vectorization axis: this module
executes **all blocks in lockstep**, representing every register tile as a
``(num_blocks, num_threads, elements_per_thread)`` array of packed uint64
bit patterns and every memory transfer as one stacked gather/scatter, so
per-instruction overhead is paid once *per launch*.

This module is a thin front-end: what a tile operation means on that
representation — codecs, regrouping for ``View``, gather/scatter, index
and bounds rules, the shared-memory allocator — is the table in
:mod:`repro.vm.tileops`, which the kernels generated by
:mod:`repro.compiler.lower` call too.  What lives here is the eager side:
the block-vectorised scalar evaluator, the value classes that hold live
arrays, the masked statement walk (:class:`LockstepWalk`, which lowering
re-runs at compile time) and one handler per instruction.

Engine selection
----------------
:func:`select_engine` implements the policy used by
:class:`repro.runtime.runtime.Runtime` with ``engine="auto"``:

- **batched** is selected whenever the program can batch: every global
  view shape is block-invariant (built from constants and parameters
  only).  That includes single-block launches: a stack of one block is
  still cheaper than the sequential engine's bit-plane registers, and
  the stream runtime can coalesce it with its neighbours;
- **sequential** is selected otherwise — per-block tensor shapes cannot
  be stacked — and when a caller asks for it by name.

``PrintTensor`` batches too: output is buffered per block during lockstep
execution and flushed in block order when the launch retires, which
reproduces the sequential engine's interleaving exactly for register
tensors and block-private memory (the only prints the SIMB contract
makes well-defined).

Callers can force either engine explicitly; the differential test harness
(``tests/harness``) runs randomized programs through both engines and
asserts bit-exact agreement — including sub-byte storage, register
reinterpretation and divergent control flow.

Bit-exactness assumes programs honor the SIMB contract that thread blocks
are independent: a block must not read global memory that another block
of the same launch writes.  Real hardware gives such programs no ordering
either; the sequential engine merely serializes them by accident of its
block loop.

Control-flow divergence is handled SIMT-style: every statement executes
under a boolean *active mask* over blocks; ``if``/``for``/``while`` split
and re-converge the mask, ``break``/``continue``/``Exit`` subtract from it.
All environment updates merge per block, so an inactive block observes no
effect from instructions it did not execute.

Known, documented divergences from the sequential engine (none observable
through tensor outputs of well-formed programs):

- ``AllocateGlobal`` address assignment order differs when a program
  allocates workspace more than once (contents are still per-block
  private; a single ``AllocateGlobal`` per program gets bit-identical
  addresses via :meth:`~repro.vm.memory.GlobalMemory.alloc_n`);
- ``PrintTensor`` of a *global view* renders the view's state at the
  lockstep execution point, so a program that (illegally) prints memory
  another block writes may observe a different interleaving;
- scalar expressions with block-varying operands evaluate both arms of
  short-circuit logicals and conditionals (under guard-refined masks, so
  guarded divisions still behave sequentially);
- a block whose loop extent is zero observes the loop variable as bound
  (to the first iteration index) if it reads it after the loop, where the
  sequential engine would raise an unbound-variable error.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import IRError, VMError
from repro.ir import instructions as insts
from repro.ir.evaluator import _c_div, _c_mod
from repro.ir.expr import (
    Binary,
    CastExpr,
    Compare,
    Conditional,
    Constant,
    Expr,
    Logical,
    Unary,
    Var,
)
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
from repro.vm import tileops
from repro.vm.dispatch import BATCHED, bounds_mask, decompose_linear
from repro.vm.interp import ExecutionStats
from repro.vm.memory import GlobalMemory
from repro.vm.tileops import BatchedSharedMemory
from repro.vm.values import apply_elementwise


# ---------------------------------------------------------------------------
# Batched scalar evaluation
# ---------------------------------------------------------------------------


def _c_div_vec(a, b, active=None):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return a / b
    if active is not None and b.ndim:
        # Blocks masked off by divergent control flow never evaluate this
        # expression sequentially; neutralize their divisors so only an
        # *active* zero divisor is an error.
        b = np.where(np.broadcast_to(active, b.shape), b, 1)
    if np.any(b == 0):
        raise VMError("division by zero in scalar expression")
    q = np.abs(a) // np.abs(b)
    return np.where((a >= 0) == (b >= 0), q, -q)


def _c_mod_vec(a, b, active=None):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return np.fmod(a, b)
    return a - _c_div_vec(a, b, active) * b


def _is_arr(x) -> bool:
    return isinstance(x, np.ndarray)


def batched_evaluate(expr: Expr, env, active=None):
    """Evaluate ``expr`` where env values may be per-block ``(B,)`` arrays.

    Uniform subexpressions stay Python scalars (matching the sequential
    evaluator exactly, including C division semantics); anything touched by
    a block-varying variable becomes a per-block array computed with the
    vectorized equivalents of the same C semantics.

    ``active`` is the divergence mask of the blocks actually evaluating
    the expression.  Array arms of conditionals and short-circuit logicals
    are evaluated for *all* blocks but under a mask refined by their guard,
    and division neutralizes masked-off divisors — so a program that
    guards a division (``if bi > 0: ... x / bi ...``) behaves exactly as
    it does sequentially.
    """
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Var):
        if expr not in env:
            raise IRError(f"unbound variable {expr.name!r} during evaluation")
        return env[expr]
    if isinstance(expr, Binary):
        a = batched_evaluate(expr.lhs, env, active)
        b = batched_evaluate(expr.rhs, env, active)
        op = expr.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if not _is_arr(a) and not _is_arr(b):
                return _c_div(a, b)
            return _c_div_vec(a, b, active)
        if op == "%":
            if not _is_arr(a) and not _is_arr(b):
                return _c_mod(a, b)
            return _c_mod_vec(a, b, active)
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "<<":
            return a << b
        if op == ">>":
            return a >> b
        raise IRError(f"unknown binary op {op!r}")
    if isinstance(expr, Unary):
        a = batched_evaluate(expr.operand, env, active)
        if expr.op == "-":
            return -a
        if expr.op == "~":
            return ~a
        if expr.op == "!":
            return ~np.asarray(a, dtype=bool) if _is_arr(a) else (not a)
        raise IRError(f"unknown unary op {expr.op!r}")
    if isinstance(expr, Compare):
        a = batched_evaluate(expr.lhs, env, active)
        b = batched_evaluate(expr.rhs, env, active)
        op = expr.op
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        raise IRError(f"unknown comparison {op!r}")
    if isinstance(expr, Logical):
        if expr.op not in ("&&", "||"):
            raise IRError(f"unknown logical op {expr.op!r}")
        a = batched_evaluate(expr.lhs, env, active)
        if not _is_arr(a):
            # Uniform left side keeps short-circuit semantics.
            if expr.op == "&&" and not a:
                return False
            if expr.op == "||" and a:
                return True
            b = batched_evaluate(expr.rhs, env, active)
            return np.asarray(b, dtype=bool) if _is_arr(b) else bool(b)
        am = np.asarray(a, dtype=bool)
        # The right side only evaluates sequentially where the left side
        # does not short-circuit; refine the mask accordingly.
        guard = am if expr.op == "&&" else ~am
        rhs_active = guard if active is None else (active & guard)
        b = batched_evaluate(expr.rhs, env, rhs_active)
        bm = np.asarray(b, dtype=bool)
        return (am & bm) if expr.op == "&&" else (am | bm)
    if isinstance(expr, Conditional):
        cond = batched_evaluate(expr.cond, env, active)
        if not _is_arr(cond):
            return batched_evaluate(expr.then if cond else expr.otherwise, env, active)
        cmask = np.asarray(cond, dtype=bool)
        then_active = cmask if active is None else (active & cmask)
        else_active = ~cmask if active is None else (active & ~cmask)
        return np.where(
            cmask,
            batched_evaluate(expr.then, env, then_active),
            batched_evaluate(expr.otherwise, env, else_active),
        )
    if isinstance(expr, CastExpr):
        value = batched_evaluate(expr.operand, env, active)
        if expr.dtype.is_float:
            return value.astype(np.float64) if _is_arr(value) else float(value)
        if _is_arr(value):
            return np.trunc(value).astype(np.int64) if value.dtype.kind == "f" else value.astype(np.int64)
        return int(value)
    raise IRError(f"cannot evaluate expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Batched runtime values
# ---------------------------------------------------------------------------


class BatchedRegisterValue:
    """All blocks' copies of one register tensor: ``(B, T, L)`` uint64 bit
    patterns, one per (block, thread, local element) — the paper's packed
    per-thread bits, and the representation compiled kernels carry.

    Mirrors :class:`repro.vm.values.RegisterValue` operation by operation
    (identical decode → numpy op → encode pipelines) so results are
    bit-exact with per-block execution.
    """

    def __init__(self, dtype, layout, patterns: np.ndarray) -> None:
        patterns = np.asarray(patterns, dtype=np.uint64)
        expected = (patterns.shape[0], layout.num_threads, layout.local_size)
        if patterns.shape != expected:
            raise VMError(f"pattern shape {patterns.shape} != {expected}")
        self.dtype = dtype
        self.layout = layout
        self.patterns = patterns

    @property
    def nblocks(self) -> int:
        return self.patterns.shape[0]

    # -- constructors -----------------------------------------------------
    @classmethod
    def filled(cls, dtype, layout, value, nblocks: int) -> "BatchedRegisterValue":
        """``value`` in every element; all-zero bits when it is None."""
        shape3 = (nblocks, layout.num_threads, layout.local_size)
        return cls(dtype, layout, tileops.filled(dtype, shape3, value))

    @classmethod
    def from_thread_values(cls, dtype, layout, values: np.ndarray) -> "BatchedRegisterValue":
        return cls(dtype, layout, tileops.encode(dtype, np.asarray(values)))

    @classmethod
    def from_logical(cls, dtype, layout, tensor: np.ndarray) -> "BatchedRegisterValue":
        tensor = np.asarray(tensor)
        tileops.check_logical_shape(tensor.shape, layout)
        nb = tensor.shape[0]
        values = tensor[tileops.logical_index(layout, nb)]
        return cls.from_thread_values(
            dtype, layout, values.reshape(nb, layout.num_threads, layout.local_size)
        )

    # -- accessors --------------------------------------------------------
    def thread_values(self) -> np.ndarray:
        return tileops.decode(self.dtype, self.patterns)

    def to_logical(self) -> np.ndarray:
        return tileops.gather_logical(
            self.thread_values(),
            (self.nblocks,) + self.layout.shape,
            tileops.logical_inverse(self.layout),
        )

    def _patterns_as(self, nbits: int) -> np.ndarray:
        """The same bits read as ``nbits``-wide elements (zero-cost when
        the width is unchanged)."""
        if nbits == self.dtype.nbits:
            return self.patterns
        return tileops.regroup(self.patterns, self.dtype.nbits, nbits)

    # -- operations -------------------------------------------------------
    def view(self, dtype, layout) -> "BatchedRegisterValue":
        tileops.check_view(self.dtype, self.layout, dtype, layout)
        return BatchedRegisterValue(dtype, layout, self._patterns_as(dtype.nbits))

    def cast(self, dtype) -> "BatchedRegisterValue":
        values = self.thread_values()
        if dtype.is_integer and self.dtype.is_float:
            values = np.trunc(values)
        return BatchedRegisterValue.from_thread_values(dtype, self.layout, values)

    def binary(self, op: str, other) -> "BatchedRegisterValue":
        a = self.thread_values()
        if isinstance(other, BatchedRegisterValue):
            tileops.check_same_tiling(self.layout, other.layout)
            b = other.thread_values()
        elif isinstance(other, np.ndarray):
            b = other.reshape(-1, 1, 1)  # per-block scalar broadcast
        else:
            b = other
        result = apply_elementwise(self.dtype, op, a, b)
        return BatchedRegisterValue.from_thread_values(self.dtype, self.layout, result)

    def neg(self) -> "BatchedRegisterValue":
        return BatchedRegisterValue.from_thread_values(
            self.dtype, self.layout, -self.thread_values()
        )

    def merge_into(self, old: "BatchedRegisterValue", active: np.ndarray) -> "BatchedRegisterValue":
        """Keep this value for active blocks, ``old`` (its bits regrouped
        to this element width) elsewhere."""
        tileops.check_view(old.dtype, old.layout, self.dtype, self.layout)
        patterns = np.where(
            active[:, None, None], self.patterns, old._patterns_as(self.dtype.nbits)
        )
        return BatchedRegisterValue(self.dtype, self.layout, patterns)

    def __repr__(self) -> str:
        return f"BatchedRegisterValue({self.dtype}, {self.layout.short_repr()}, B={self.nblocks})"


class BatchedView:
    """Per-block typed windows into one flat byte buffer (bit addressing).

    ``base_bits[b]`` is the absolute bit address of element 0 for block
    ``b``.  Global views share the device buffer with uniform (or per-block)
    bases; shared views use one row per block inside a flat
    :class:`BatchedSharedMemory` buffer.
    """

    def __init__(self, buffer: np.ndarray, base_bits, dtype, shape: tuple[int, ...]) -> None:
        self.buffer = buffer
        self.base_bits = np.asarray(base_bits, dtype=np.int64).reshape(-1)
        self.dtype = dtype
        self.shape = tuple(int(s) for s in shape)
        self.size = int(np.prod(self.shape)) if self.shape else 1

    @property
    def nblocks(self) -> int:
        return self.base_bits.shape[0]

    @cached_property
    def _aligned(self) -> bool:
        return self.dtype.nbits % 8 == 0 and not (self.base_bits % 8).any()

    @cached_property
    def _oob(self) -> str:
        return tileops.oob_message(self.dtype, self.shape, len(self.buffer))

    def gather_bits(self, indices: list, where=None, clip: bool = False) -> np.ndarray:
        """Read bit patterns at per-block multi-indices of shape (B, n);
        ``where``/``clip`` as in :func:`repro.vm.tileops.linear_index`."""
        linear = tileops.linear_index(self.shape, self.dtype, indices, where, clip)
        nbits = self.dtype.nbits
        return tileops.gather(
            self.buffer, self.base_bits[:, None] + linear * nbits, nbits,
            self._aligned, self._oob,
        )

    def scatter_bits(self, indices: list, patterns: np.ndarray, select=None) -> None:
        """Write bit patterns at per-block multi-indices of shape (B, n).

        ``select`` is a boolean (B, n) mask choosing which elements are
        written (inactive blocks, masked-out lanes).  Flattening is
        block-major, so overlapping writes resolve in the same order as
        sequential per-block execution.
        """
        selected = tileops.select_flat(indices, self.nblocks, select)
        if selected is None:
            return
        flat, rows, select = selected
        linear = tileops.linear_index(self.shape, self.dtype, flat)
        patterns = np.broadcast_to(np.asarray(patterns, dtype=np.uint64), select.shape)
        nbits = self.dtype.nbits
        tileops.scatter(
            self.buffer, self.base_bits[rows] + linear * nbits, patterns[select],
            nbits, self._aligned, self._oob,
        )

    def merge_into(self, old: "BatchedView", active: np.ndarray) -> "BatchedView":
        if old.buffer is not self.buffer:
            raise VMError("cannot merge views over different buffers")
        base = np.where(active, self.base_bits, old.base_bits)
        return BatchedView(self.buffer, base, self.dtype, self.shape)


# ---------------------------------------------------------------------------
# The masked statement walk
# ---------------------------------------------------------------------------


class LockstepWalk:
    """SIMT-style execution of a statement tree over all blocks at once.

    Every statement runs under a boolean *active mask* over blocks;
    ``if``/``for``/``while`` split and re-converge it, ``break``/
    ``continue``/``Exit`` subtract from it.  This is the one masked walk:
    the batched engine runs it on live values (:class:`BatchedContext`)
    and the lowering pipeline on compile-time ones, each supplying what
    differs — :meth:`scalar`, :meth:`instruction`, the ``merge`` of
    :meth:`bind`, and (lowering's trace budget) :meth:`step`.
    """

    def __init__(self, nblocks: int, env: dict) -> None:
        self.nblocks = nblocks
        self.env = env
        self.exited = np.zeros(nblocks, dtype=bool)
        self._breaks: list[np.ndarray] = []

    def scalar(self, expr: Expr, active: np.ndarray, control: bool = False):
        """Evaluate a scalar expression for the active blocks; ``control``
        marks a branch condition or loop extent (must be a number)."""
        raise NotImplementedError

    def instruction(self, inst, active: np.ndarray) -> None:
        raise NotImplementedError

    def bind_scalar(self, var: Var, value, active: np.ndarray) -> None:
        self.bind(var, value, active, lambda new, old: np.where(active, new, old))

    def step(self) -> None:
        """Called once per statement visited."""

    def bind(self, var, value, active: np.ndarray, merge) -> None:
        """Bind ``var`` for the active blocks; where some are inactive and
        hold an older value, keep theirs: ``merge(value, old)``."""
        old = None if bool(active.all()) else self.env.get(var)
        self.env[var] = value if old is None else merge(value, old)

    def lookup_tensor(self, var: TensorVar):
        value = self.env.get(var)
        if value is None:
            raise VMError(f"tensor {var.name} used before definition")
        return value

    def numbers(self, exprs, active: np.ndarray) -> list:
        """The values of index/offset expressions for the active blocks."""
        return [self.scalar(e, active, control=True) for e in exprs]

    def tile_indices(self, layout, offsets, active, broadcast_dims=frozenset()) -> list:
        """Per-block (B, n) memory indices of a register tile at ``offsets``."""
        return tileops.tile_indices(
            layout, self.numbers(offsets, active), self.nblocks, broadcast_dims
        )

    def run_stmt(self, stmt: Stmt, active: np.ndarray) -> np.ndarray:
        """Execute ``stmt`` under ``active``; returns the still-live mask."""
        self.step()
        if isinstance(stmt, SeqStmt):
            live = active
            for child in stmt.body:
                if not live.any():
                    break
                live = self.run_stmt(child, live)
            return live
        if isinstance(stmt, InstructionStmt):
            self.instruction(stmt.instruction, active)
            return active & ~self.exited
        if isinstance(stmt, AssignStmt):
            self.bind_scalar(stmt.var, self.scalar(stmt.value, active), active)
            return active
        if isinstance(stmt, IfStmt):
            cond = self.scalar(stmt.cond, active, control=True)
            if not _is_arr(cond):
                if cond:
                    return self.run_stmt(stmt.then_body, active)
                if stmt.else_body is not None:
                    return self.run_stmt(stmt.else_body, active)
                return active
            cmask = tileops.as_mask(cond, self.nblocks)
            then_mask = active & cmask
            else_mask = active & ~cmask
            then_live = (
                self.run_stmt(stmt.then_body, then_mask) if then_mask.any() else then_mask
            )
            else_live = (
                self.run_stmt(stmt.else_body, else_mask)
                if stmt.else_body is not None and else_mask.any()
                else else_mask
            )
            return then_live | else_live
        if isinstance(stmt, ForStmt):
            extent = self.scalar(stmt.extent, active, control=True)
            extent = extent.astype(np.int64) if _is_arr(extent) else int(extent)
            broken = np.zeros(self.nblocks, dtype=bool)
            self._breaks.append(broken)
            i = 0
            while True:
                iter_active = active & ~self.exited & ~broken & (i < extent)
                if not iter_active.any():
                    break
                # Bind per block: a block whose extent is exhausted keeps
                # its own last iteration value, exactly as sequential
                # execution leaves the loop variable behind.
                self.bind_scalar(stmt.var, i, iter_active)
                self.run_stmt(stmt.body, iter_active)
                i += 1
            self._breaks.pop()
            return active & ~self.exited
        if isinstance(stmt, WhileStmt):
            broken = np.zeros(self.nblocks, dtype=bool)
            done = np.zeros(self.nblocks, dtype=bool)
            self._breaks.append(broken)
            while True:
                base = active & ~self.exited & ~broken & ~done
                if not base.any():
                    break
                cmask = tileops.as_mask(
                    self.scalar(stmt.cond, base, control=True), self.nblocks
                )
                done |= base & ~cmask
                iter_active = base & cmask
                if not iter_active.any():
                    break
                self.run_stmt(stmt.body, iter_active)
            self._breaks.pop()
            return active & ~self.exited
        if isinstance(stmt, BreakStmt):
            if not self._breaks:
                raise VMError("break outside of a loop")
            self._breaks[-1] |= active
            return np.zeros_like(active)
        if isinstance(stmt, ContinueStmt):
            # Continue just kills the rest of this iteration; the loop head
            # recomputes the next iteration's mask from the loop-entry mask,
            # so continued blocks rejoin automatically.
            return np.zeros_like(active)
        raise VMError(f"unknown statement {type(stmt).__name__}")


class BatchedContext(LockstepWalk):
    """Lockstep state of all thread blocks during one launch: the walk
    over live values."""

    def __init__(self, executor: "BatchedExecutor", nblocks: int, coords: tuple) -> None:
        super().__init__(nblocks, dict(executor.launch_env))
        self.executor = executor
        self.block_coords = coords  # one (B,) array per grid dimension
        self.shared = BatchedSharedMemory(nblocks, executor.shared_capacity)
        self.pending_copy_count = 0
        self.committed_group_sizes: list[int] = []
        #: Per-block buffered ``PrintTensor`` output, flushed in block
        #: order when the launch retires (created on first print).
        self.prints: list[list[str]] | None = None

    def scalar(self, expr: Expr, active: np.ndarray, control: bool = False):
        return batched_evaluate(expr, self.env, active)

    def instruction(self, inst, active: np.ndarray) -> None:
        self.executor.stats.instructions += int(active.sum())
        BATCHED.lookup(inst)(self.executor, inst, self, active)

    def bind_tensor(self, var: TensorVar, value, active: np.ndarray) -> None:
        """All environment updates merge per block, so an inactive block
        observes no effect from instructions it did not execute."""
        self.bind(var, value, active, lambda new, old: new.merge_into(old, active))


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class BatchedExecutor:
    """Executes Tilus programs with all thread blocks stacked on one axis.

    Shares :class:`~repro.vm.interp.ExecutionStats` semantics with the
    sequential engine: every counter advances exactly as if the blocks had
    run one at a time.
    """

    def __init__(
        self,
        memory: GlobalMemory | None = None,
        shared_capacity: int = 228 * 1024,
        stats: ExecutionStats | None = None,
        stdout=None,
    ) -> None:
        self.memory = memory if memory is not None else GlobalMemory()
        self.shared_capacity = shared_capacity
        self.stats = stats if stats is not None else ExecutionStats()
        self.launch_env: dict[Var, object] = {}
        self._stdout = stdout

    # -- host-side helpers (same API as the sequential engine) -------------
    def upload(self, values: np.ndarray, dtype) -> int:
        from repro.vm.interp import Interpreter

        return Interpreter.upload(self, values, dtype)  # type: ignore[arg-type]

    def alloc_output(self, shape: Sequence[int], dtype) -> int:
        from repro.vm.interp import Interpreter

        return Interpreter.alloc_output(self, shape, dtype)  # type: ignore[arg-type]

    def download(self, addr: int, shape: Sequence[int], dtype) -> np.ndarray:
        from repro.vm.interp import Interpreter

        return Interpreter.download(self, addr, shape, dtype)  # type: ignore[arg-type]

    # -- launch ------------------------------------------------------------
    def launch(self, program: Program, args: Sequence) -> ExecutionStats:
        """Run all thread blocks of ``program`` in lockstep."""
        return self.launch_many(program, [args])

    def launch_many(self, program: Program, args_list: Sequence[Sequence]) -> ExecutionStats:
        """Run several independent launches of one program as a single
        stacked grid.

        All launches must share the same grid shape; any parameter may
        differ per launch — differing values (pointers or scalars) are
        bound as per-block arrays, exactly like block-varying scalars.
        The stacked block order is launch-major, so memory effects,
        ``AllocateGlobal`` addresses and buffered prints all match the
        launches running back to back.  Callers are responsible for the
        launches being independent (no cross-launch read/write hazards);
        the stream runtime only coalesces launches it has proven disjoint.
        """
        if not args_list:
            return self.stats
        for args in args_list:
            if len(args) != len(program.params):
                raise VMError(
                    f"{program.name} expects {len(program.params)} args, got {len(args)}"
                )
        grids = {program.grid_size(args) for args in args_list}
        if len(grids) != 1:
            raise VMError(
                f"launch_many requires one grid shape, got {sorted(grids)}"
            )
        grid = next(iter(grids))
        per_launch = int(np.prod(grid)) if grid else 1
        nlaunches = len(args_list)
        env: dict[Var, object] = {}
        for i, p in enumerate(program.params):
            values = [args[i] for args in args_list]
            if all(v == values[0] for v in values[1:]):
                env[p] = values[0]
            else:
                stacked = np.asarray(
                    values, dtype=np.float64 if p.dtype.is_float else np.int64
                )
                env[p] = np.repeat(stacked, per_launch)
        self.launch_env = env
        coords = tuple(
            np.tile(c, nlaunches) for c in decompose_linear(tuple(grid))
        )
        nblocks = per_launch * nlaunches
        ctx = BatchedContext(self, nblocks, coords)
        self.stats.blocks_run += nblocks
        ctx.run_stmt(program.body, np.ones(nblocks, dtype=bool))
        self._flush_prints(ctx)
        return self.stats

    def _flush_prints(self, ctx: "BatchedContext") -> None:
        """Emit buffered per-block print output in block order (block
        retire order), matching the sequential engine's interleaving."""
        if ctx.prints is None:
            return
        for texts in ctx.prints:
            for text in texts:
                if self._stdout is not None:
                    self._stdout.write(text + "\n")
                else:
                    print(text)


# ---------------------------------------------------------------------------
# Batched instruction handlers
# ---------------------------------------------------------------------------


@BATCHED.register(insts.BlockIndices)
def _bexec_block_indices(vm, inst: insts.BlockIndices, ctx: BatchedContext, active) -> None:
    if len(inst.out_vars) != len(ctx.block_coords):
        raise VMError(
            f"BlockIndices unpacks {len(inst.out_vars)} values but the grid "
            f"has rank {len(ctx.block_coords)}"
        )
    for var, arr in zip(inst.out_vars, ctx.block_coords):
        ctx.env[var] = arr


@BATCHED.register(insts.ViewGlobal)
def _bexec_view_global(vm, inst: insts.ViewGlobal, ctx: BatchedContext, active) -> None:
    ptr = ctx.scalar(inst.ptr, active)
    ttype = inst.out.ttype
    shape = tileops.view_shape(ttype.shape, lambda s: ctx.scalar(s, active), active)
    base = np.where(active, tileops.as_col(ptr, ctx.nblocks).reshape(-1) * 8, 0)
    size = int(np.prod(shape)) if shape else 1
    limit = (len(vm.memory.buffer) - 8) * 8
    tileops.check_view_global(
        base, size * ttype.dtype.nbits, limit,
        *tileops.view_global_messages(ttype.dtype, shape, limit),
    )
    ctx.bind_tensor(inst.out, BatchedView(vm.memory.buffer, base, ttype.dtype, shape), active)


@BATCHED.register(insts.AllocateRegister)
def _bexec_allocate_register(vm, inst: insts.AllocateRegister, ctx: BatchedContext, active) -> None:
    ttype = inst.out.ttype
    value = BatchedRegisterValue.filled(ttype.dtype, ttype.layout, inst.init, ctx.nblocks)
    ctx.bind_tensor(inst.out, value, active)


@BATCHED.register(insts.AllocateShared)
def _bexec_allocate_shared(vm, inst: insts.AllocateShared, ctx: BatchedContext, active) -> None:
    ttype = inst.out.ttype
    shape = ttype.static_shape()
    base_bits = ctx.shared.alloc(tileops.tensor_nbytes(shape, ttype.dtype, "shared"), active)
    view = BatchedView(ctx.shared.buffer, base_bits, ttype.dtype, shape)
    ctx.bind_tensor(inst.out, view, active)


@BATCHED.register(insts.FreeShared)
def _bexec_free_shared(vm, inst: insts.FreeShared, ctx: BatchedContext, active) -> None:
    ctx.env.pop(inst.tensor, None)


@BATCHED.register(insts.AllocateGlobal)
def _bexec_allocate_global(vm, inst: insts.AllocateGlobal, ctx: BatchedContext, active) -> None:
    ttype = inst.out.ttype
    shape = ttype.static_shape()
    nbytes = tileops.tensor_nbytes(shape, ttype.dtype, "workspace")
    addrs = np.zeros(ctx.nblocks, dtype=np.int64)
    idx = np.flatnonzero(active)
    if idx.size:
        # One vectorized reservation covering every active block, in block
        # order — the same addresses a per-block alloc loop (and the
        # sequential engine's block loop) would assign.
        addrs[idx] = vm.memory.alloc_n(nbytes, idx.size)
    view = BatchedView(vm.memory.buffer, addrs * 8, ttype.dtype, shape)
    ctx.bind_tensor(inst.out, view, active)


# transfer ------------------------------------------------------------------


@BATCHED.register(insts.LoadGlobal, insts.LoadShared)
def _bexec_load(vm, inst, ctx: BatchedContext, active) -> None:
    src: BatchedView = ctx.lookup_tensor(inst.src)
    layout = inst.out.ttype.layout
    indices = ctx.tile_indices(layout, inst.offset, active, inst.broadcast_dims)
    if getattr(inst, "masked", False):
        valid = bounds_mask(indices, src.shape)
        patterns = np.where(valid, src.gather_bits(indices, clip=True), np.uint64(0))
    else:
        patterns = src.gather_bits(indices, where=active[:, None])
    patterns = patterns.reshape(ctx.nblocks, layout.num_threads, layout.local_size)
    bits = layout.size * src.dtype.nbits * int(active.sum())
    if isinstance(inst, insts.LoadShared):
        vm.stats.shared_bits_loaded += bits
    else:
        vm.stats.global_bits_loaded += bits
    value = BatchedRegisterValue(inst.out.ttype.dtype, layout, patterns)
    ctx.bind_tensor(inst.out, value, active)


@BATCHED.register(insts.StoreGlobal, insts.StoreShared)
def _bexec_store(vm, inst, ctx: BatchedContext, active) -> None:
    value: BatchedRegisterValue = ctx.lookup_tensor(inst.src)
    dst: BatchedView = ctx.lookup_tensor(inst.dst)
    indices = ctx.tile_indices(value.layout, inst.offset, active)
    select = active[:, None]
    counted = active
    if getattr(inst, "masked", False):
        valid = bounds_mask(indices, dst.shape)
        select = select & valid
        counted = active & valid.any(axis=1)
    dst.scatter_bits(indices, value.patterns.reshape(ctx.nblocks, -1), select=select)
    bits = value.layout.size * dst.dtype.nbits * int(counted.sum())
    if isinstance(inst, insts.StoreShared):
        vm.stats.shared_bits_stored += bits
    else:
        vm.stats.global_bits_stored += bits


@BATCHED.register(insts.CopyAsync)
def _bexec_copy_async(vm, inst: insts.CopyAsync, ctx: BatchedContext, active) -> None:
    src: BatchedView = ctx.lookup_tensor(inst.src)
    dst: BatchedView = ctx.lookup_tensor(inst.dst)
    shape = inst.copy_shape()
    src_idx, dst_idx = tileops.copy_indices(
        shape,
        ctx.numbers(inst.src_offset, active),
        ctx.numbers(inst.dst_offset, active),
        ctx.nblocks,
    )
    # cp.async zero-fills out-of-bounds source elements (zfill semantics).
    valid = bounds_mask(src_idx, src.shape)
    patterns = np.where(valid, src.gather_bits(src_idx, clip=True), np.uint64(0))
    dst.scatter_bits(dst_idx, patterns, select=active[:, None])
    count = int(active.sum())
    ctx.pending_copy_count += 1
    vm.stats.copy_async_issued += count
    vm.stats.global_bits_loaded += int(np.prod(shape)) * src.dtype.nbits * count


@BATCHED.register(insts.CopyAsyncCommitGroup)
def _bexec_copy_async_commit(vm, inst, ctx: BatchedContext, active) -> None:
    ctx.committed_group_sizes.append(ctx.pending_copy_count)
    ctx.pending_copy_count = 0


@BATCHED.register(insts.CopyAsyncWaitGroup)
def _bexec_copy_async_wait(vm, inst: insts.CopyAsyncWaitGroup, ctx: BatchedContext, active) -> None:
    while len(ctx.committed_group_sizes) > inst.n:
        ctx.committed_group_sizes.pop(0)


# computation ---------------------------------------------------------------


@BATCHED.register(insts.ElementwiseBinary)
def _bexec_elementwise_binary(vm, inst: insts.ElementwiseBinary, ctx: BatchedContext, active) -> None:
    a: BatchedRegisterValue = ctx.lookup_tensor(inst.a)
    if isinstance(inst.b, TensorVar):
        b = ctx.lookup_tensor(inst.b)
    else:
        b = ctx.scalar(inst.b, active)
    ctx.bind_tensor(inst.out, a.binary(inst.op, b), active)


@BATCHED.register(insts.Neg)
def _bexec_neg(vm, inst: insts.Neg, ctx: BatchedContext, active) -> None:
    ctx.bind_tensor(inst.out, ctx.lookup_tensor(inst.a).neg(), active)


@BATCHED.register(insts.Cast)
def _bexec_cast(vm, inst: insts.Cast, ctx: BatchedContext, active) -> None:
    ctx.bind_tensor(inst.out, ctx.lookup_tensor(inst.a).cast(inst.dtype), active)


@BATCHED.register(insts.ReduceSum)
def _bexec_reduce_sum(vm, inst: insts.ReduceSum, ctx: BatchedContext, active) -> None:
    value: BatchedRegisterValue = ctx.lookup_tensor(inst.a)
    reduced = value.to_logical().sum(axis=inst.axis + 1, keepdims=True)
    out_t = inst.out.ttype
    ctx.bind_tensor(
        inst.out, BatchedRegisterValue.from_logical(out_t.dtype, out_t.layout, reduced), active
    )


@BATCHED.register(insts.Lookup)
def _bexec_lookup(vm, inst: insts.Lookup, ctx: BatchedContext, active) -> None:
    codes: BatchedRegisterValue = ctx.lookup_tensor(inst.codes)
    table = ctx.lookup_tensor(inst.table)
    indices = codes.thread_values().astype(np.int64)
    safe = np.where(active[:, None], indices.reshape(ctx.nblocks, -1), 0)
    is_register = isinstance(table, BatchedRegisterValue)
    logical = table.to_logical() if is_register else None  # (B, extent)
    extent = logical.shape[1] if is_register else table.shape[0]
    tileops.check_lookup(safe[active], extent, tileops.lookup_message(extent))
    if is_register:
        bidx = np.arange(ctx.nblocks, dtype=np.int64)[:, None]
        # Clipping only neutralizes inactive blocks' garbage codes; active
        # codes were just bounds-checked above.
        values = logical[bidx, np.clip(safe, 0, extent - 1)]
    else:
        values = tileops.decode(table.dtype, table.gather_bits([safe]))
    out_t = inst.out.ttype
    ctx.bind_tensor(
        inst.out,
        BatchedRegisterValue.from_thread_values(
            out_t.dtype, out_t.layout, values.reshape(indices.shape)
        ),
        active,
    )


@BATCHED.register(insts.View)
def _bexec_view(vm, inst: insts.View, ctx: BatchedContext, active) -> None:
    out_t = inst.out.ttype
    ctx.bind_tensor(
        inst.out, ctx.lookup_tensor(inst.a).view(out_t.dtype, out_t.layout), active
    )


@BATCHED.register(insts.Dot)
def _bexec_dot(vm, inst: insts.Dot, ctx: BatchedContext, active) -> None:
    a = ctx.lookup_tensor(inst.a).to_logical()
    b = ctx.lookup_tensor(inst.b).to_logical()
    c = ctx.lookup_tensor(inst.c).to_logical()
    result = a.astype(np.float64) @ b.astype(np.float64) + c
    out_t = inst.out.ttype
    ctx.bind_tensor(
        inst.out, BatchedRegisterValue.from_logical(out_t.dtype, out_t.layout, result), active
    )
    vm.stats.dot_ops += a.shape[1] * a.shape[2] * b.shape[2] * int(active.sum())


# misc ----------------------------------------------------------------------


@BATCHED.register(insts.Synchronize)
def _bexec_synchronize(vm, inst, ctx: BatchedContext, active) -> None:
    vm.stats.synchronizations += int(active.sum())


@BATCHED.register(insts.Exit)
def _bexec_exit(vm, inst, ctx: BatchedContext, active) -> None:
    ctx.exited |= active


@BATCHED.register(insts.PrintTensor)
def _bexec_print_tensor(vm, inst: insts.PrintTensor, ctx: BatchedContext, active) -> None:
    # Rendered now (per-block state at this lockstep point), flushed in
    # block order at launch retire — see BatchedExecutor._flush_prints.
    from repro.vm.memory import TensorView

    if ctx.prints is None:
        ctx.prints = [[] for _ in range(ctx.nblocks)]
    value = ctx.lookup_tensor(inst.tensor)
    prefix = f"{inst.message}: " if inst.message else ""
    if isinstance(value, BatchedRegisterValue):
        logical = value.to_logical()
        for b in np.flatnonzero(active):
            ctx.prints[b].append(f"{prefix}{inst.tensor.name} =\n{logical[b]}")
    else:
        for b in np.flatnonzero(active):
            view = TensorView(
                value.buffer, int(value.base_bits[b]), value.dtype, value.shape
            )
            ctx.prints[b].append(f"{prefix}{inst.tensor.name} =\n{view.read_all()}")


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


_BATCHABLE_ATTR = "_supports_batched"


def _uniform_view_shapes(program: Program) -> bool:
    """True when every ``ViewGlobal`` shape is block-invariant.

    A shape expression built only from constants and program parameters is
    the same for every block; one referencing any other scalar (a block
    index, a loop variable) may vary per block, which lockstep execution
    cannot represent as a single tensor view.
    """
    params = set(program.params)
    for inst in program.body.instructions():
        if not isinstance(inst, insts.ViewGlobal):
            continue
        for extent in inst.out.ttype.shape:
            if not isinstance(extent, Expr):
                continue
            for node in extent.walk():
                if isinstance(node, Var) and node not in params:
                    return False
    return True


def supports_batched(program: Program) -> bool:
    """True when the batched engine can execute ``program``: every
    instruction has a batched handler and all global view shapes are
    block-invariant (memoized — this sits on the launch path).
    ``PrintTensor`` programs batch too (per-block buffered output)."""
    cached = program.__dict__.get(_BATCHABLE_ATTR)
    if cached is None:
        cached = all(
            BATCHED.supports(i) for i in program.body.instructions()
        ) and _uniform_view_shapes(program)
        program.__dict__[_BATCHABLE_ATTR] = cached
    return cached


def select_engine(program: Program) -> str:
    """The ``engine="auto"`` policy: batched for every batchable program,
    sequential otherwise (see module docstring)."""
    return "batched" if supports_batched(program) else "sequential"
