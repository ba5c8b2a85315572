"""Grid-vectorized VM execution engine.

The sequential :class:`~repro.vm.interp.Interpreter` runs thread blocks one
after another in a Python loop, so per-instruction Python overhead is paid
once *per block*.  Thread blocks are independent by construction (paper
Section 6), which makes the grid a perfect vectorization axis: this module
executes **all blocks in lockstep**, representing every register tile as a
``(num_blocks, num_threads, bits_per_thread)`` tensor and every memory
transfer as one stacked gather/scatter, so per-instruction overhead is paid
once *per launch*.

Engine selection
----------------
:func:`select_engine` implements the policy used by
:class:`repro.runtime.runtime.Runtime` with ``engine="auto"``:

- **batched** is selected when the launch grid has more than one thread
  block and every global view shape is block-invariant (built from
  constants and parameters only);
- **sequential** is selected otherwise — single-block launches gain
  nothing from stacking, and per-block tensor shapes cannot be stacked.

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
from repro.utils.bits import regroup_patterns
from repro.vm.dispatch import (
    BATCHED,
    bounds_mask,
    decompose_linear,
    layout_tile_coords,
    pad_tile_indices,
)
from repro.vm.interp import ExecutionStats
from repro.vm.values import apply_elementwise
from repro.vm.memory import GlobalMemory


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


def _as_mask(value, nblocks: int) -> np.ndarray:
    """Coerce a condition value into a (B,) boolean mask."""
    return np.broadcast_to(np.asarray(value, dtype=bool), (nblocks,))


def _as_col(value, nblocks: int) -> np.ndarray:
    """Coerce a scalar-or-(B,) value into a (B, 1) int64 column."""
    arr = np.asarray(value, dtype=np.int64)
    if arr.ndim == 0:
        return np.full((nblocks, 1), int(arr), dtype=np.int64)
    return arr.reshape(nblocks, 1)


# ---------------------------------------------------------------------------
# Batched runtime values
# ---------------------------------------------------------------------------


class BatchedRegisterValue:
    """All blocks' copies of one register tensor: bits of shape (B, T, W).

    Mirrors :class:`repro.vm.values.RegisterValue` operation by operation
    (identical decode → numpy op → encode pipelines) so results are
    bit-exact with per-block execution.
    """

    def __init__(self, dtype, layout, bits: np.ndarray) -> None:
        expected = (bits.shape[0], layout.num_threads, layout.local_size * dtype.nbits)
        if bits.shape != expected:
            raise VMError(
                f"batched register bits shape {bits.shape} does not match "
                f"layout {layout.short_repr()} x {dtype} (expected {expected})"
            )
        self.dtype = dtype
        self.layout = layout
        self.bits = bits

    @property
    def nblocks(self) -> int:
        return self.bits.shape[0]

    # -- constructors -----------------------------------------------------
    @classmethod
    def zeros(cls, dtype, layout, nblocks: int) -> "BatchedRegisterValue":
        bits = np.zeros(
            (nblocks, layout.num_threads, layout.local_size * dtype.nbits),
            dtype=np.uint8,
        )
        return cls(dtype, layout, bits)

    @classmethod
    def filled(cls, dtype, layout, value, nblocks: int) -> "BatchedRegisterValue":
        values = np.full((nblocks, layout.num_threads, layout.local_size), value)
        return cls.from_thread_values(dtype, layout, values)

    @classmethod
    def from_patterns(cls, dtype, layout, patterns: np.ndarray) -> "BatchedRegisterValue":
        patterns = np.asarray(patterns, dtype=np.uint64)
        nb = patterns.shape[0]
        expected = (nb, layout.num_threads, layout.local_size)
        if patterns.shape != expected:
            raise VMError(f"pattern shape {patterns.shape} != {expected}")
        return cls(
            dtype, layout, regroup_patterns(patterns, dtype.nbits, 1).astype(np.uint8)
        )

    @classmethod
    def from_thread_values(cls, dtype, layout, values: np.ndarray) -> "BatchedRegisterValue":
        values = np.asarray(values)
        nb = values.shape[0]
        patterns = dtype.to_bits(values.reshape(-1)).reshape(
            nb, layout.num_threads, layout.local_size
        )
        return cls.from_patterns(dtype, layout, patterns)

    @classmethod
    def from_logical(cls, dtype, layout, tensor: np.ndarray) -> "BatchedRegisterValue":
        tensor = np.asarray(tensor)
        nb = tensor.shape[0]
        if tensor.shape[1:] != layout.shape:
            raise VMError(
                f"logical shape {tensor.shape[1:]} != layout shape {layout.shape}"
            )
        coords = layout_tile_coords(layout)
        bidx = np.arange(nb, dtype=np.int64)[:, None]
        values = tensor[(bidx,) + tuple(c[None, :] for c in coords)]
        return cls.from_thread_values(
            dtype, layout, values.reshape(nb, layout.num_threads, layout.local_size)
        )

    # -- accessors --------------------------------------------------------
    @property
    def bits_per_thread(self) -> int:
        return self.bits.shape[2]

    def thread_patterns(self) -> np.ndarray:
        nbits = self.dtype.nbits
        nb, t, width = self.bits.shape
        grouped = self.bits.reshape(nb, t, width // nbits, nbits).astype(np.uint64)
        weights = np.uint64(1) << np.arange(nbits, dtype=np.uint64)
        return (grouped * weights).sum(axis=3, dtype=np.uint64)

    def thread_values(self) -> np.ndarray:
        patterns = self.thread_patterns()
        return self.dtype.from_bits(patterns.reshape(-1)).reshape(patterns.shape)

    def to_logical(self) -> np.ndarray:
        values = self.thread_values()
        nb = self.nblocks
        out = np.zeros((nb,) + self.layout.shape, dtype=values.dtype)
        coords = layout_tile_coords(self.layout)
        bidx = np.arange(nb, dtype=np.int64)[:, None]
        out[(bidx,) + tuple(c[None, :] for c in coords)] = values.reshape(nb, -1)
        return out

    # -- operations -------------------------------------------------------
    def view(self, dtype, layout) -> "BatchedRegisterValue":
        if layout.num_threads != self.layout.num_threads:
            raise VMError(
                f"view: thread count {self.layout.num_threads} -> "
                f"{layout.num_threads} mismatch"
            )
        if layout.local_size * dtype.nbits != self.bits_per_thread:
            raise VMError(
                f"view: bits-per-thread mismatch: {self.bits_per_thread} -> "
                f"{layout.local_size * dtype.nbits}"
            )
        return BatchedRegisterValue(dtype, layout, self.bits)

    def cast(self, dtype) -> "BatchedRegisterValue":
        values = self.thread_values()
        if dtype.is_integer and self.dtype.is_float:
            values = np.trunc(values)
        return BatchedRegisterValue.from_thread_values(dtype, self.layout, values)

    def binary(self, op: str, other) -> "BatchedRegisterValue":
        a = self.thread_values()
        if isinstance(other, BatchedRegisterValue):
            if other.layout.num_threads != self.layout.num_threads or (
                other.layout.local_size != self.layout.local_size
            ):
                raise VMError("elementwise operands must have matching layouts")
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
        """Keep this value for active blocks, ``old`` elsewhere."""
        bits = np.where(active[:, None, None], self.bits, old.bits)
        return BatchedRegisterValue(self.dtype, self.layout, bits)

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

    def _oob(self, exc: IndexError) -> VMError:
        return VMError(
            f"batched tensor view [{self.dtype}{list(self.shape)}] addresses "
            f"bytes outside its buffer ({len(self.buffer)} bytes): {exc}"
        )

    def _linear(self, indices: list) -> np.ndarray:
        if len(indices) != len(self.shape):
            raise VMError(
                f"rank mismatch: {len(indices)} indices for shape {list(self.shape)}"
            )
        linear = np.zeros_like(np.asarray(indices[0], dtype=np.int64))
        for idx, extent in zip(indices, self.shape):
            idx = np.asarray(idx, dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= extent):
                raise VMError(
                    f"index out of bounds: [{idx.min()}, {idx.max()}] not within "
                    f"[0, {extent}) for tensor {self.dtype}{list(self.shape)}"
                )
            linear = linear * extent + idx
        return linear

    def gather_bits(self, indices: list, where=None, clip: bool = False) -> np.ndarray:
        """Read bit patterns at per-block multi-indices of shape (B, n).

        ``where`` (broadcastable to (B, n)) neutralizes unselected entries
        to index 0 before bounds checking (their results are discarded by
        the caller); ``clip`` clamps all indices into range instead of
        checking (masked-load semantics).
        """
        if clip:
            indices = [np.clip(i, 0, e - 1) for i, e in zip(indices, self.shape)]
        elif where is not None:
            indices = [np.where(where, i, 0) for i in indices]
        linear = self._linear(indices)
        nbits = self.dtype.nbits
        bit_addr = self.base_bits[:, None] + linear * nbits
        try:
            if nbits % 8 == 0 and (self.base_bits % 8 == 0).all():
                byte_addr = bit_addr // 8
                out = np.zeros(linear.shape, dtype=np.uint64)
                for k in range(nbits // 8):
                    out |= self.buffer[byte_addr + k].astype(np.uint64) << np.uint64(8 * k)
                return out
            byte_addr = bit_addr // 8
            shift = (bit_addr % 8).astype(np.uint64)
            window = np.zeros(linear.shape, dtype=np.uint64)
            for k in range(8):
                window |= self.buffer[byte_addr + k].astype(np.uint64) << np.uint64(8 * k)
        except IndexError as exc:
            raise self._oob(exc) from exc
        mask = np.uint64((1 << nbits) - 1)
        return (window >> shift) & mask

    def scatter_bits(self, indices: list, patterns: np.ndarray, select=None) -> None:
        """Write bit patterns at per-block multi-indices of shape (B, n).

        ``select`` is a boolean (B, n) mask choosing which elements are
        written (inactive blocks, masked-out lanes).  Flattening is
        block-major, so overlapping writes resolve in the same order as
        sequential per-block execution.
        """
        shape2d = np.broadcast(np.asarray(indices[0]), self.base_bits[:, None]).shape
        if select is None:
            select = np.ones(shape2d, dtype=bool)
        else:
            select = np.broadcast_to(select, shape2d)
        if not select.any():
            return
        idx_flat = [np.broadcast_to(np.asarray(i, dtype=np.int64), shape2d)[select] for i in indices]
        base_flat = np.broadcast_to(self.base_bits[:, None], shape2d)[select]
        pat_flat = np.broadcast_to(np.asarray(patterns, dtype=np.uint64), shape2d)[select]
        linear = self._linear(idx_flat)
        nbits = self.dtype.nbits
        bit_addr = base_flat + linear * nbits
        try:
            if nbits % 8 == 0 and (self.base_bits % 8 == 0).all():
                byte_addr = bit_addr // 8
                for k in range(nbits // 8):
                    self.buffer[byte_addr + k] = (
                        (pat_flat >> np.uint64(8 * k)) & np.uint64(0xFF)
                    ).astype(np.uint8)
                return
            # Sub-byte path: per-bit read-modify-write.  Deduplicate to the
            # *last* writer per bit position (block-major order), then a
            # single unbuffered clear+set per bit is exact.
            offsets = np.arange(nbits, dtype=np.int64)
            pos = (bit_addr[:, None] + offsets).reshape(-1)
            bit_vals = (
                (pat_flat[:, None] >> offsets.astype(np.uint64)) & np.uint64(1)
            ).astype(np.uint8).reshape(-1)
            rev = pos[::-1]
            _, first_in_rev = np.unique(rev, return_index=True)
            keep = pos.shape[0] - 1 - first_in_rev
            pos_u = pos[keep]
            val_u = bit_vals[keep]
            byte_idx = pos_u // 8
            bit_in_byte = (pos_u % 8).astype(np.uint8)
            np.bitwise_and.at(self.buffer, byte_idx, ~(np.uint8(1) << bit_in_byte))
            np.bitwise_or.at(self.buffer, byte_idx, val_u << bit_in_byte)
        except IndexError as exc:
            raise self._oob(exc) from exc

    def merge_into(self, old: "BatchedView", active: np.ndarray) -> "BatchedView":
        if old.buffer is not self.buffer:
            raise VMError("cannot merge views over different buffers")
        base = np.where(active, self.base_bits, old.base_bits)
        return BatchedView(self.buffer, base, self.dtype, self.shape)


class BatchedSharedMemory:
    """Per-block shared memories packed as rows of one flat buffer.

    Row ``b`` spans ``[b * row_bytes, (b + 1) * row_bytes)`` with an 8-byte
    guard at the end of each row so sub-byte window reads never cross into
    the next block's row.
    """

    def __init__(self, nblocks: int, capacity_bytes: int = 228 * 1024) -> None:
        self.nblocks = nblocks
        self.capacity = capacity_bytes
        self.row_bytes = capacity_bytes + 8
        # The backing buffer is created lazily on the first allocation:
        # most kernels on the hot launch path never touch shared memory,
        # and nblocks * 228KB of zeroed pages per launch is not free.
        self.buffer: np.ndarray | None = None
        self.row_base_bits = np.arange(nblocks, dtype=np.int64) * self.row_bytes * 8
        self._next = np.zeros(nblocks, dtype=np.int64)
        self.high_water = 0

    def alloc(self, nbytes: int, active: np.ndarray) -> np.ndarray:
        """Bump-allocate ``nbytes`` in every active block; returns (B,) byte
        offsets within each block's row (stale for inactive blocks)."""
        if self.buffer is None:
            self.buffer = np.zeros(self.nblocks * self.row_bytes, dtype=np.uint8)
        aligned = (int(nbytes) + 15) // 16 * 16
        addr = self._next.copy()
        grown = self._next + aligned
        if bool((active & (grown > self.capacity)).any()):
            free = self.capacity - int(self._next[active].max())
            raise VMError(
                f"shared memory exhausted: requested {nbytes} B, "
                f"{free} B free of {self.capacity} B"
            )
        self._next = np.where(active, grown, self._next)
        self.high_water = max(self.high_water, int(self._next.max()))
        return addr


class BatchedContext:
    """Lockstep state of all thread blocks during one launch."""

    def __init__(self, executor: "BatchedExecutor", nblocks: int, coords: tuple) -> None:
        self.executor = executor
        self.nblocks = nblocks
        self.block_coords = coords  # one (B,) array per grid dimension
        self.env: dict[Var, object] = dict(executor.launch_env)
        self.shared = BatchedSharedMemory(nblocks, executor.shared_capacity)
        self.exited = np.zeros(nblocks, dtype=bool)
        self.pending_copy_count = 0
        self.committed_group_sizes: list[int] = []
        #: Per-block buffered ``PrintTensor`` output, flushed in block
        #: order when the launch retires (created on first print).
        self.prints: list[list[str]] | None = None

    def lookup_tensor(self, var: TensorVar):
        value = self.env.get(var)
        if value is None:
            raise VMError(f"tensor {var.name} used before definition")
        return value


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
        self._break_stack: list[np.ndarray] = []
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
        if len(args) != len(program.params):
            raise VMError(
                f"{program.name} expects {len(program.params)} args, got {len(args)}"
            )
        self.launch_env = {p: a for p, a in zip(program.params, args)}
        grid = program.grid_size(args)
        nblocks = int(np.prod(grid)) if grid else 1
        coords = tuple(decompose_linear(tuple(grid)))
        return self._execute(program, nblocks, coords)

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
        if len(args_list) == 1:
            return self.launch(program, args_list[0])
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
            if all(v == values[0] for v in values[1:]) or nlaunches == 1:
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
        return self._execute(program, per_launch * nlaunches, coords)

    def _execute(self, program: Program, nblocks: int, coords: tuple) -> ExecutionStats:
        ctx = BatchedContext(self, nblocks, coords)
        self.stats.blocks_run += nblocks
        active = np.ones(nblocks, dtype=bool)
        self._break_stack = []
        self._run_stmt(program.body, ctx, active)
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

    # -- statement execution (SIMT reconvergence) ---------------------------
    def _run_stmt(self, stmt: Stmt, ctx: BatchedContext, active: np.ndarray) -> np.ndarray:
        """Execute ``stmt`` under ``active``; returns the still-live mask."""
        if isinstance(stmt, SeqStmt):
            live = active
            for child in stmt.body:
                if not live.any():
                    break
                live = self._run_stmt(child, ctx, live)
            return live
        if isinstance(stmt, InstructionStmt):
            self.stats.instructions += int(active.sum())
            BATCHED.lookup(stmt.instruction)(self, stmt.instruction, ctx, active)
            return active & ~ctx.exited
        if isinstance(stmt, AssignStmt):
            value = batched_evaluate(stmt.value, ctx.env, active)
            self._bind_scalar(ctx, stmt.var, value, active)
            return active
        if isinstance(stmt, IfStmt):
            cond = batched_evaluate(stmt.cond, ctx.env, active)
            if not _is_arr(cond):
                if cond:
                    return self._run_stmt(stmt.then_body, ctx, active)
                if stmt.else_body is not None:
                    return self._run_stmt(stmt.else_body, ctx, active)
                return active
            cmask = _as_mask(cond, ctx.nblocks)
            then_mask = active & cmask
            else_mask = active & ~cmask
            then_live = (
                self._run_stmt(stmt.then_body, ctx, then_mask)
                if then_mask.any()
                else then_mask
            )
            else_live = (
                self._run_stmt(stmt.else_body, ctx, else_mask)
                if stmt.else_body is not None and else_mask.any()
                else else_mask
            )
            return then_live | else_live
        if isinstance(stmt, ForStmt):
            extent = batched_evaluate(stmt.extent, ctx.env, active)
            if _is_arr(extent):
                extent = extent.astype(np.int64)
            else:
                extent = int(extent)
            broken = np.zeros(ctx.nblocks, dtype=bool)
            self._break_stack.append(broken)
            i = 0
            while True:
                iter_active = active & ~ctx.exited & ~broken & (i < extent)
                if not iter_active.any():
                    break
                # Bind per block: a block whose extent is exhausted keeps
                # its own last iteration value, exactly as sequential
                # execution leaves the loop variable behind.
                self._bind_scalar(ctx, stmt.var, i, iter_active)
                self._run_stmt(stmt.body, ctx, iter_active)
                i += 1
            self._break_stack.pop()
            return active & ~ctx.exited
        if isinstance(stmt, WhileStmt):
            broken = np.zeros(ctx.nblocks, dtype=bool)
            done = np.zeros(ctx.nblocks, dtype=bool)
            self._break_stack.append(broken)
            while True:
                base = active & ~ctx.exited & ~broken & ~done
                if not base.any():
                    break
                cmask = _as_mask(batched_evaluate(stmt.cond, ctx.env, base), ctx.nblocks)
                done |= base & ~cmask
                iter_active = base & cmask
                if not iter_active.any():
                    break
                self._run_stmt(stmt.body, ctx, iter_active)
            self._break_stack.pop()
            return active & ~ctx.exited
        if isinstance(stmt, BreakStmt):
            if not self._break_stack:
                raise VMError("break outside of a loop")
            self._break_stack[-1] |= active
            return np.zeros_like(active)
        if isinstance(stmt, ContinueStmt):
            # Continue just kills the rest of this iteration; the loop head
            # recomputes the next iteration's mask from the loop-entry mask,
            # so continued blocks rejoin automatically.
            return np.zeros_like(active)
        raise VMError(f"unknown statement {type(stmt).__name__}")

    # -- environment merging -----------------------------------------------
    def _bind_scalar(self, ctx: BatchedContext, var: Var, value, active: np.ndarray) -> None:
        if bool(active.all()):
            ctx.env[var] = value
            return
        old = ctx.env.get(var)
        if old is None:
            ctx.env[var] = value
            return
        ctx.env[var] = np.where(active, value, old)

    def _bind_tensor(self, ctx: BatchedContext, var: TensorVar, value, active: np.ndarray) -> None:
        if bool(active.all()):
            ctx.env[var] = value
            return
        old = ctx.env.get(var)
        if old is None:
            ctx.env[var] = value
            return
        ctx.env[var] = value.merge_into(old, active)


# ---------------------------------------------------------------------------
# Batched instruction handlers
# ---------------------------------------------------------------------------


def _tile_indices(
    layout, offsets, ctx: BatchedContext, active, broadcast_dims=frozenset()
) -> list:
    """Per-block (B, n) memory indices touched by a register tile.

    Padding/broadcast semantics come from the shared
    :func:`repro.vm.dispatch.pad_tile_indices`; the only batched-specific
    part is evaluating each offset into a (B, 1) column so the shared
    helper broadcasts it against the (n,) tile coordinates.
    """
    coords = layout_tile_coords(layout)
    origin = [_as_col(batched_evaluate(o, ctx.env, active), ctx.nblocks) for o in offsets]
    return pad_tile_indices(coords, origin, broadcast_dims)


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
    ptr = batched_evaluate(inst.ptr, ctx.env, active)
    ttype = inst.out.ttype
    shape = []
    for s in ttype.shape:
        if hasattr(s, "dtype"):
            v = batched_evaluate(s, ctx.env, active)
            if _is_arr(v):
                uniq = np.unique(v[active]) if active.any() else np.unique(v)
                if uniq.size > 1:
                    raise VMError(
                        "batched engine requires uniform global view shapes; "
                        f"got extents {uniq.tolist()} across blocks"
                    )
                v = int(uniq[0]) if uniq.size else 0
            shape.append(int(v))
        else:
            shape.append(int(s))
    shape = tuple(shape)
    base = np.where(active, _as_col(ptr, ctx.nblocks).reshape(-1) * 8, 0)
    size = int(np.prod(shape)) if shape else 1
    limit = (len(vm.memory.buffer) - 8) * 8
    end = base + size * ttype.dtype.nbits
    if bool((base < 0).any()):
        raise VMError(
            f"tensor view [{ttype.dtype}{list(shape)}] starts before the "
            f"buffer: bit offset {int(base.min())} is negative"
        )
    if bool((end > limit).any()):
        raise VMError(
            f"tensor view [{ttype.dtype}{list(shape)}] at bit offset "
            f"{int(base[end > limit][0])} exceeds its buffer: needs "
            f"{int(end.max())} bits, buffer has {limit}"
        )
    view = BatchedView(vm.memory.buffer, base, ttype.dtype, shape)
    vm._bind_tensor(ctx, inst.out, view, active)


@BATCHED.register(insts.AllocateRegister)
def _bexec_allocate_register(vm, inst: insts.AllocateRegister, ctx: BatchedContext, active) -> None:
    ttype = inst.out.ttype
    if inst.init is not None:
        value = BatchedRegisterValue.filled(ttype.dtype, ttype.layout, inst.init, ctx.nblocks)
    else:
        value = BatchedRegisterValue.zeros(ttype.dtype, ttype.layout, ctx.nblocks)
    vm._bind_tensor(ctx, inst.out, value, active)


@BATCHED.register(insts.AllocateShared)
def _bexec_allocate_shared(vm, inst: insts.AllocateShared, ctx: BatchedContext, active) -> None:
    ttype = inst.out.ttype
    shape = ttype.static_shape()
    if shape is None:
        raise VMError("shared tensors require static shapes")
    nbytes = (int(np.prod(shape)) * ttype.dtype.nbits + 7) // 8
    addr = ctx.shared.alloc(nbytes, active)
    base_bits = ctx.shared.row_base_bits + addr * 8
    view = BatchedView(ctx.shared.buffer, base_bits, ttype.dtype, shape)
    vm._bind_tensor(ctx, inst.out, view, active)


@BATCHED.register(insts.FreeShared)
def _bexec_free_shared(vm, inst: insts.FreeShared, ctx: BatchedContext, active) -> None:
    ctx.env.pop(inst.tensor, None)


@BATCHED.register(insts.AllocateGlobal)
def _bexec_allocate_global(vm, inst: insts.AllocateGlobal, ctx: BatchedContext, active) -> None:
    ttype = inst.out.ttype
    shape = ttype.static_shape()
    if shape is None:
        raise VMError("workspace tensors require static shapes")
    nbytes = (int(np.prod(shape)) * ttype.dtype.nbits + 7) // 8
    addrs = np.zeros(ctx.nblocks, dtype=np.int64)
    idx = np.flatnonzero(active)
    if idx.size:
        # One vectorized reservation covering every active block, in block
        # order — the same addresses a per-block alloc loop (and the
        # sequential engine's block loop) would assign.
        addrs[idx] = vm.memory.alloc_n(nbytes, idx.size)
    view = BatchedView(vm.memory.buffer, addrs * 8, ttype.dtype, shape)
    vm._bind_tensor(ctx, inst.out, view, active)


# transfer ------------------------------------------------------------------


def _load(vm, inst, ctx: BatchedContext, active, shared: bool) -> None:
    src: BatchedView = ctx.lookup_tensor(inst.src)
    layout = inst.out.ttype.layout
    indices = _tile_indices(layout, inst.offset, ctx, active, inst.broadcast_dims)
    if getattr(inst, "masked", False):
        valid = bounds_mask(indices, src.shape)
        patterns = src.gather_bits(indices, clip=True)
        patterns = np.where(valid, patterns, np.uint64(0))
    else:
        patterns = src.gather_bits(indices, where=active[:, None])
    patterns = patterns.reshape(ctx.nblocks, layout.num_threads, layout.local_size)
    count = int(active.sum())
    if shared:
        vm.stats.shared_bits_loaded += layout.size * src.dtype.nbits * count
    else:
        vm.stats.global_bits_loaded += layout.size * src.dtype.nbits * count
    value = BatchedRegisterValue.from_patterns(inst.out.ttype.dtype, layout, patterns)
    vm._bind_tensor(ctx, inst.out, value, active)


@BATCHED.register(insts.LoadGlobal)
def _bexec_load_global(vm, inst: insts.LoadGlobal, ctx: BatchedContext, active) -> None:
    _load(vm, inst, ctx, active, shared=False)


@BATCHED.register(insts.LoadShared)
def _bexec_load_shared(vm, inst: insts.LoadShared, ctx: BatchedContext, active) -> None:
    _load(vm, inst, ctx, active, shared=True)


@BATCHED.register(insts.StoreGlobal)
def _bexec_store_global(vm, inst: insts.StoreGlobal, ctx: BatchedContext, active) -> None:
    value: BatchedRegisterValue = ctx.lookup_tensor(inst.src)
    dst: BatchedView = ctx.lookup_tensor(inst.dst)
    indices = _tile_indices(value.layout, inst.offset, ctx, active)
    patterns = value.thread_patterns().reshape(ctx.nblocks, -1)
    n = patterns.shape[1]
    select = np.broadcast_to(active[:, None], (ctx.nblocks, n))
    if inst.masked:
        valid = bounds_mask(indices, dst.shape)
        select = select & valid
        counted = int((active & valid.any(axis=1)).sum())
    else:
        counted = int(active.sum())
    dst.scatter_bits(indices, patterns, select=select)
    vm.stats.global_bits_stored += value.layout.size * dst.dtype.nbits * counted


@BATCHED.register(insts.StoreShared)
def _bexec_store_shared(vm, inst: insts.StoreShared, ctx: BatchedContext, active) -> None:
    value: BatchedRegisterValue = ctx.lookup_tensor(inst.src)
    dst: BatchedView = ctx.lookup_tensor(inst.dst)
    indices = _tile_indices(value.layout, inst.offset, ctx, active)
    patterns = value.thread_patterns().reshape(ctx.nblocks, -1)
    select = np.broadcast_to(active[:, None], (ctx.nblocks, patterns.shape[1]))
    dst.scatter_bits(indices, patterns, select=select)
    vm.stats.shared_bits_stored += value.layout.size * dst.dtype.nbits * int(active.sum())


@BATCHED.register(insts.CopyAsync)
def _bexec_copy_async(vm, inst: insts.CopyAsync, ctx: BatchedContext, active) -> None:
    src: BatchedView = ctx.lookup_tensor(inst.src)
    dst: BatchedView = ctx.lookup_tensor(inst.dst)
    shape = inst.copy_shape()
    size = int(np.prod(shape))
    idx = decompose_linear(tuple(shape))
    src_origin = [_as_col(batched_evaluate(o, ctx.env, active), ctx.nblocks) for o in inst.src_offset]
    dst_origin = [_as_col(batched_evaluate(o, ctx.env, active), ctx.nblocks) for o in inst.dst_offset]
    zero = np.zeros(size, dtype=np.int64)
    src_full = [zero] * (len(src_origin) - len(idx)) + idx
    dst_full = [zero] * (len(dst_origin) - len(idx)) + idx
    src_idx = [f[None, :] + o for f, o in zip(src_full, src_origin)]
    dst_idx = [f[None, :] + o for f, o in zip(dst_full, dst_origin)]
    # cp.async zero-fills out-of-bounds source elements (zfill semantics).
    valid = bounds_mask(src_idx, src.shape)
    patterns = np.where(valid, src.gather_bits(src_idx, clip=True), np.uint64(0))
    select = np.broadcast_to(active[:, None], (ctx.nblocks, size))
    dst.scatter_bits(dst_idx, patterns, select=select)
    count = int(active.sum())
    ctx.pending_copy_count += 1
    vm.stats.copy_async_issued += count
    vm.stats.global_bits_loaded += size * src.dtype.nbits * count


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
        b = batched_evaluate(inst.b, ctx.env, active)
    vm._bind_tensor(ctx, inst.out, a.binary(inst.op, b), active)


@BATCHED.register(insts.Neg)
def _bexec_neg(vm, inst: insts.Neg, ctx: BatchedContext, active) -> None:
    vm._bind_tensor(ctx, inst.out, ctx.lookup_tensor(inst.a).neg(), active)


@BATCHED.register(insts.Cast)
def _bexec_cast(vm, inst: insts.Cast, ctx: BatchedContext, active) -> None:
    vm._bind_tensor(ctx, inst.out, ctx.lookup_tensor(inst.a).cast(inst.dtype), active)


@BATCHED.register(insts.ReduceSum)
def _bexec_reduce_sum(vm, inst: insts.ReduceSum, ctx: BatchedContext, active) -> None:
    value: BatchedRegisterValue = ctx.lookup_tensor(inst.a)
    logical = value.to_logical()
    reduced = logical.sum(axis=inst.axis + 1, keepdims=True)
    out_t = inst.out.ttype
    vm._bind_tensor(
        ctx, inst.out, BatchedRegisterValue.from_logical(out_t.dtype, out_t.layout, reduced), active
    )


@BATCHED.register(insts.Lookup)
def _bexec_lookup(vm, inst: insts.Lookup, ctx: BatchedContext, active) -> None:
    codes: BatchedRegisterValue = ctx.lookup_tensor(inst.codes)
    table = ctx.lookup_tensor(inst.table)
    indices = codes.thread_values().astype(np.int64)
    flat = indices.reshape(ctx.nblocks, -1)
    safe = np.where(active[:, None], flat, 0)
    if isinstance(table, BatchedRegisterValue):
        logical = table.to_logical()  # (B, extent)
        extent = logical.shape[1]
        act = safe[active]
        if act.size and (act.min() < 0 or act.max() >= extent):
            raise VMError(
                f"lookup code {int(act.max())} exceeds table of {extent}"
            )
        bidx = np.arange(ctx.nblocks, dtype=np.int64)[:, None]
        # Clipping only neutralizes inactive blocks' garbage codes; active
        # codes were just bounds-checked above.
        values = logical[bidx, np.clip(safe, 0, extent - 1)]
    else:
        extent = table.shape[0]
        act = safe[active]
        if act.size and (act.min() < 0 or act.max() >= extent):
            raise VMError(
                f"lookup code {int(act.max())} exceeds table of {extent}"
            )
        bits = table.gather_bits([safe])
        values = table.dtype.from_bits(bits.reshape(-1)).reshape(safe.shape)
    out_t = inst.out.ttype
    vm._bind_tensor(
        ctx,
        inst.out,
        BatchedRegisterValue.from_thread_values(
            out_t.dtype, out_t.layout, values.reshape(indices.shape)
        ),
        active,
    )


@BATCHED.register(insts.View)
def _bexec_view(vm, inst: insts.View, ctx: BatchedContext, active) -> None:
    out_t = inst.out.ttype
    vm._bind_tensor(
        ctx, inst.out, ctx.lookup_tensor(inst.a).view(out_t.dtype, out_t.layout), active
    )


@BATCHED.register(insts.Dot)
def _bexec_dot(vm, inst: insts.Dot, ctx: BatchedContext, active) -> None:
    a = ctx.lookup_tensor(inst.a).to_logical()
    b = ctx.lookup_tensor(inst.b).to_logical()
    c = ctx.lookup_tensor(inst.c).to_logical()
    result = a.astype(np.float64) @ b.astype(np.float64) + c
    out_t = inst.out.ttype
    vm._bind_tensor(
        ctx, inst.out, BatchedRegisterValue.from_logical(out_t.dtype, out_t.layout, result), active
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


def select_engine(program: Program, grid: Sequence[int]) -> str:
    """The ``engine="auto"`` policy: batched for multi-block grids of
    batchable programs, sequential otherwise (see module docstring)."""
    nblocks = int(np.prod(grid)) if len(tuple(grid)) else 1
    if nblocks > 1 and supports_batched(program):
        return "batched"
    return "sequential"
