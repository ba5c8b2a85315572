"""Progressive lowering of specialized programs to straight-line numpy.

The batched engine (:mod:`repro.vm.batched`) executes all thread blocks in
lockstep but still walks the statement tree and re-derives index math on
every launch.  Once a kernel is *specialized* — its fingerprint and
const-bound scalar arguments pinned by
:func:`repro.compiler.pipeline.specialization_key` — everything except the
pointer arguments and the tensor *data* is a compile-time constant: grid
coordinates, divergence masks, loop trip counts, tile indices, shared-memory
addresses and every ``ExecutionStats`` delta.

This module exploits that with a three-pass pipeline (the xdsl-style
progressive dialect lowering named in the ROADMAP):

1. **const-fold** (:class:`SpecializeConstants`): bind const scalars, grid
   coordinates and symbolic (affine) pointer parameters into a concrete
   compile-time environment.
2. **unroll** (:class:`UnrollAndTrace`): symbolically execute the batched
   engine's statement walk — loops unroll, ``if``/``while`` masks fold to
   concrete block sets — emitting one vectorized numpy statement per
   surviving instruction, with all index/mask/shift arrays precomputed.
3. **flatten** (:class:`FlattenToSource`): assemble the trace into a flat
   Python function, ``compile()`` it, and wrap it as a
   :class:`LoweredKernel`.

Bit-exactness contract: the emitted code performs the *same numpy
operations in the same order* as the batched engine, calling the shared
codecs (``dtype.to_bits``/``from_bits``) and
:func:`repro.vm.values.apply_elementwise`; compile-time scalar folding goes
through the real :func:`repro.vm.batched.batched_evaluate`.  Registers are
carried as ``(B, T, L)`` uint64 *pattern* arrays — a bijective regrouping of
the batched engine's bit-plane representation, converted only where a
``View`` regroups bit widths.

Anything the trace cannot prove flat raises :class:`LoweringBailout` and
the caller falls back to the batched engine: ``AllocateGlobal``,
``PrintTensor``, non-affine pointer arithmetic, pointer-dependent control
flow, and any VMError that mirrored compile-time logic raises
deterministically (out-of-bounds indices, shared-memory exhaustion, view
mismatches) — the fallback then reproduces the identical runtime error.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.compiler.pipeline import specialization_key
from repro.errors import IRError, VMError
from repro.ir import instructions as insts
from repro.ir.expr import Binary, CastExpr, Expr, Var
from repro.obs import trace as obs_trace
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
from repro.vm.batched import _as_mask, batched_evaluate
from repro.vm.dispatch import (
    bounds_mask,
    decompose_linear,
    layout_tile_coords,
    pad_tile_indices,
)
from repro.vm.interp import ExecutionStats
from repro.vm.memory import GlobalMemory
from repro.vm.values import apply_elementwise

__all__ = [
    "LoweredKernel",
    "LoweringBailout",
    "PASS_NAMES",
    "lower_program",
]

#: The pass pipeline, in application order.
PASS_NAMES = ("const-fold", "unroll", "flatten")

#: Unrolled-trace budget: statement-walk steps before lowering gives up.
#: Generous for every template family in the harness; a backstop against
#: data-independent-but-huge loops producing megabytes of source.
_TRACE_STEP_LIMIT = 100_000

#: Emitted-statement budget (lines of generated source).
_TRACE_LINE_LIMIT = 25_000


class LoweringBailout(Exception):
    """Lowering cannot flatten this program; run it on the batched engine."""


# ---------------------------------------------------------------------------
# Runtime helpers injected into every generated kernel's namespace.
#
# These mirror the corresponding BatchedView / BatchedRegisterValue code
# paths line for line (same loop order, same dtypes, same error strings) so
# the compiled tier stays bit-exact with the interpreted tiers.
# ---------------------------------------------------------------------------


def _dec(dt, p):
    """Patterns (B, T, L) uint64 -> decoded values, via the shared codec."""
    return dt.from_bits(p.reshape(-1)).reshape(p.shape)


def _enc(dt, v):
    """Values (B, T, L) -> patterns uint64, via the shared codec."""
    return np.asarray(dt.to_bits(v.reshape(-1)), dtype=np.uint64).reshape(v.shape)


def _gb(buf, byte_addr, nbytes, msg):
    """Byte-aligned gather: assemble little-endian patterns from bytes."""
    out = np.zeros(byte_addr.shape, dtype=np.uint64)
    try:
        for k in range(nbytes):
            out |= buf[byte_addr + k].astype(np.uint64) << np.uint64(8 * k)
    except IndexError as exc:
        raise VMError(msg.format(exc)) from exc
    return out


def _gsb(buf, byte_addr, shift, nbits, msg):
    """Sub-byte gather: 8-byte window read + shift/mask (generic path)."""
    window = np.zeros(byte_addr.shape, dtype=np.uint64)
    try:
        for k in range(8):
            window |= buf[byte_addr + k].astype(np.uint64) << np.uint64(8 * k)
    except IndexError as exc:
        raise VMError(msg.format(exc)) from exc
    return (window >> shift) & np.uint64((1 << nbits) - 1)


def _scb(buf, byte_addr, pat, nbytes, msg):
    """Byte-aligned scatter: per-byte fancy assignment, block-major order."""
    try:
        for k in range(nbytes):
            buf[byte_addr + k] = (
                (pat >> np.uint64(8 * k)) & np.uint64(0xFF)
            ).astype(np.uint8)
    except IndexError as exc:
        raise VMError(msg.format(exc)) from exc


def _ssb(buf, byte_idx, bit_in_byte, val_u, msg):
    """Sub-byte scatter: unbuffered clear+set of pre-deduplicated bits."""
    try:
        np.bitwise_and.at(buf, byte_idx, ~(np.uint8(1) << bit_in_byte))
        np.bitwise_or.at(buf, byte_idx, val_u << bit_in_byte)
    except IndexError as exc:
        raise VMError(msg.format(exc)) from exc


def _vg(base, size_bits, limit, msg_neg, msg_exc):
    """ViewGlobal bounds checks on a runtime (B,) bit-base array."""
    end = base + size_bits
    if bool((base < 0).any()):
        raise VMError(msg_neg.format(int(base.min())))
    over = end > limit
    if bool(over.any()):
        raise VMError(msg_exc.format(int(base[over][0]), int(end.max())))


def _lk(act, extent, msg):
    """Lookup-code bounds check over active blocks' codes."""
    if act.size and (int(act.min()) < 0 or int(act.max()) >= extent):
        raise VMError(msg.format(int(act.max())))


def _tolog(values, shape, ix):
    """Register (B, T, L) values -> logical (B,) + layout.shape tensor."""
    out = np.zeros(shape, dtype=values.dtype)
    out[ix] = values.reshape(shape[0], -1)
    return out


def _viewp(p, old_nbits, new_nbits, new_l):
    """Regroup patterns under a new element width (register View).
    ``new_l`` is implied by the row width; kernel sources persisted in
    tuning stores pass it."""
    return regroup_patterns(p, old_nbits, new_nbits)


_HELPERS = {
    "np": np,
    "VMError": VMError,
    "_ew": apply_elementwise,
    "_dec": _dec,
    "_enc": _enc,
    "_gb": _gb,
    "_gsb": _gsb,
    "_scb": _scb,
    "_ssb": _ssb,
    "_vg": _vg,
    "_lk": _lk,
    "_tolog": _tolog,
    "_viewp": _viewp,
}


# ---------------------------------------------------------------------------
# Compile-time value domain
# ---------------------------------------------------------------------------


class _Affine:
    """A scalar affine in the runtime pointer parameters.

    ``value = sum(ptr[i] * coeffs[i]) + conc`` where each coefficient and
    the concrete part are Python/numpy ints or (B,) int64 arrays.
    """

    __slots__ = ("coeffs", "conc")

    def __init__(self, coeffs: dict, conc) -> None:
        self.coeffs = coeffs
        self.conc = conc

    def add(self, other: "_Affine") -> "_Affine":
        coeffs = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            coeffs[idx] = coeffs[idx] + c if idx in coeffs else c
        return _Affine(coeffs, self.conc + other.conc)

    def neg(self) -> "_Affine":
        return _Affine({i: -c for i, c in self.coeffs.items()}, -self.conc)

    def scale(self, factor) -> "_Affine":
        return _Affine(
            {i: c * factor for i, c in self.coeffs.items()}, self.conc * factor
        )

    def is_concrete(self) -> bool:
        return all(not np.any(c) for c in self.coeffs.values())


def _as_affine(value) -> _Affine:
    if isinstance(value, _Affine):
        return value
    return _Affine({}, value)


def _affine_where(active: np.ndarray, new, old) -> object:
    """Per-block merge of two scalar values, either of which may be affine."""
    a, b = _as_affine(new), _as_affine(old)
    coeffs = {}
    for idx in set(a.coeffs) | set(b.coeffs):
        coeffs[idx] = np.where(active, a.coeffs.get(idx, 0), b.coeffs.get(idx, 0))
    merged = _Affine(coeffs, np.where(active, a.conc, b.conc))
    if merged.is_concrete():
        return merged.conc
    return merged


@dataclass
class _Reg:
    """Compile-time register descriptor: runtime name holds (B, T, L) u64."""

    dtype: object
    layout: object
    name: str


@dataclass
class _View:
    """Compile-time tensor-view descriptor.

    ``coeffs``/``conc_bits`` describe the per-block bit base as an affine
    form over runtime pointer slots (all arrays are (B,) int64, already
    masked by the creating instruction's active set and scaled to bits).
    ``name``/``byte_name`` are the runtime variables holding the bit and
    byte base arrays (constants for pointer-free views).
    """

    buf: str  # "mem" or "sm"
    dtype: object
    shape: tuple
    coeffs: dict  # ptr slot -> (B,) int64 bit coefficients
    conc_bits: np.ndarray  # (B,) int64
    name: str
    byte_name: str
    buflen: int

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    def is_concrete(self) -> bool:
        return all(not np.any(c) for c in self.coeffs.values())

    def oob_msg(self) -> str:
        return (
            f"batched tensor view [{self.dtype}{list(self.shape)}] addresses "
            f"bytes outside its buffer ({self.buflen} bytes): {{}}"
        )


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------


class _Emitter:
    """Accumulates generated statements and the constant pool."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        self._const_keys: dict = {}
        self._n = 0

    def tmp(self) -> str:
        name = f"t{self._n}"
        self._n += 1
        return name

    def emit(self, line: str) -> None:
        if len(self.lines) >= _TRACE_LINE_LIMIT:
            raise LoweringBailout(
                f"generated source exceeds {_TRACE_LINE_LIMIT} statements"
            )
        self.lines.append(line)

    def const(self, obj) -> str:
        key = self._const_key(obj)
        if key is not None and key in self._const_keys:
            return self._const_keys[key]
        name = f"C{len(self.consts)}"
        if isinstance(obj, np.ndarray):
            obj = np.ascontiguousarray(obj)
            obj.setflags(write=False)
        self.consts[name] = obj
        if key is not None:
            self._const_keys[key] = name
        return name

    @staticmethod
    def _const_key(obj):
        if isinstance(obj, np.ndarray):
            return ("a", obj.dtype.str, obj.shape, hashlib.sha1(obj.tobytes()).digest())
        if isinstance(obj, str):
            return ("s", obj)
        if isinstance(obj, (int, float, bool)):
            return ("n", type(obj).__name__, obj)
        # dtype objects, tuples of arrays, etc: dedupe by identity.
        return ("i", id(obj))


def _lit(value) -> str:
    """Embed a compile-time scalar as a source literal."""
    if isinstance(value, (bool, np.bool_)):
        return repr(bool(value))
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    raise LoweringBailout(f"cannot embed scalar of type {type(value).__name__}")


# ---------------------------------------------------------------------------
# Pass 1: const-fold / specialize
# ---------------------------------------------------------------------------


@dataclass
class _LoweringState:
    program: Program
    memory: GlobalMemory
    shared_capacity: int
    spec: tuple
    grid: tuple
    nblocks: int
    coords: tuple
    env: dict
    ptr_slots: dict  # param index -> ptrs[] slot
    ptr_indices: tuple
    #: Launches stacked launch-major on the block axis; with more than
    #: one, every pointer slot is a per-block array at runtime.
    launches: int = 1
    emitter: _Emitter = field(default_factory=_Emitter)


class SpecializeConstants:
    """Pass 1: bind const scalars, grid coords and symbolic pointers."""

    name = PASS_NAMES[0]

    @staticmethod
    def run(program: Program, args: Sequence, memory: GlobalMemory,
            shared_capacity: int, launches: int = 1) -> _LoweringState:
        if len(args) != len(program.params):
            raise LoweringBailout(
                f"{program.name} expects {len(program.params)} args, got {len(args)}"
            )
        ptr_params = {p for p in program.params if p.dtype.is_pointer}
        for extent in program.grid:
            if isinstance(extent, Expr):
                for node in extent.walk():
                    if isinstance(node, Var) and node in ptr_params:
                        raise LoweringBailout(
                            "grid size depends on a pointer parameter"
                        )
        try:
            grid = tuple(int(g) for g in program.grid_size(args))
        except (IRError, VMError, TypeError, ValueError) as exc:
            raise LoweringBailout(f"cannot evaluate launch grid: {exc}") from exc
        # Launch-major stacking, like BatchedExecutor.launch_many: block
        # order, memory effects and counters match back-to-back launches.
        nblocks = launches * (int(np.prod(grid)) if grid else 1)
        coords = tuple(np.tile(c, launches) for c in decompose_linear(tuple(grid)))
        env: dict = {}
        ptr_slots: dict = {}
        ptr_indices = []
        for i, (p, a) in enumerate(zip(program.params, args)):
            if p.dtype.is_pointer:
                slot = len(ptr_indices)
                ptr_slots[i] = slot
                ptr_indices.append(i)
                env[p] = _Affine({i: 1}, 0)
            elif p.dtype.is_float:
                env[p] = float(a)
            else:
                env[p] = int(a)
        return _LoweringState(
            program=program,
            memory=memory,
            shared_capacity=shared_capacity,
            spec=specialization_key(program, args),
            grid=grid,
            nblocks=nblocks,
            coords=coords,
            env=env,
            ptr_slots=ptr_slots,
            ptr_indices=tuple(ptr_indices),
            launches=launches,
        )


# ---------------------------------------------------------------------------
# Pass 2: unroll and trace
# ---------------------------------------------------------------------------


class UnrollAndTrace:
    """Pass 2: symbolic lockstep execution emitting the flat trace."""

    name = PASS_NAMES[1]

    @staticmethod
    def run(state: _LoweringState) -> "_Tracer":
        tracer = _Tracer(state)
        try:
            tracer.trace()
        except (VMError, IRError) as exc:
            # Mirrored compile-time logic raised an error the batched engine
            # would raise deterministically at runtime; the fallback engine
            # reproduces it, so lowering just declines.
            raise LoweringBailout(f"deterministic runtime error: {exc}") from exc
        return tracer


_STAT_FIELDS = (
    "blocks_run",
    "instructions",
    "global_bits_loaded",
    "global_bits_stored",
    "shared_bits_loaded",
    "shared_bits_stored",
    "copy_async_issued",
    "dot_ops",
    "synchronizations",
)


class _Tracer:
    """Runs the batched engine's statement walk at compile time.

    Scalars, masks and addresses are concrete; registers and views are
    symbolic SSA names bound to runtime arrays.  Every instruction handler
    is a compile-time mirror of the corresponding ``@BATCHED.register``
    handler in :mod:`repro.vm.batched`.
    """

    def __init__(self, state: _LoweringState) -> None:
        self.st = state
        self.em = state.emitter
        self.env = state.env
        self.nblocks = state.nblocks
        self.exited = np.zeros(state.nblocks, dtype=bool)
        self.break_stack: list[np.ndarray] = []
        self.tally = {f: 0 for f in _STAT_FIELDS}
        self.shared_next = np.zeros(state.nblocks, dtype=np.int64)
        self.shared_used = False
        self.pending_copy = 0
        self.committed: list[int] = []
        self.steps = 0
        self._dec_cache: dict[tuple, str] = {}
        self._handlers: dict[type, Callable] = {
            insts.BlockIndices: self._h_block_indices,
            insts.ViewGlobal: self._h_view_global,
            insts.AllocateRegister: self._h_allocate_register,
            insts.AllocateShared: self._h_allocate_shared,
            insts.FreeShared: self._h_free_shared,
            insts.LoadGlobal: self._h_load_global,
            insts.LoadShared: self._h_load_shared,
            insts.StoreGlobal: self._h_store_global,
            insts.StoreShared: self._h_store_shared,
            insts.CopyAsync: self._h_copy_async,
            insts.CopyAsyncCommitGroup: self._h_copy_commit,
            insts.CopyAsyncWaitGroup: self._h_copy_wait,
            insts.ElementwiseBinary: self._h_binary,
            insts.Neg: self._h_neg,
            insts.Cast: self._h_cast,
            insts.ReduceSum: self._h_reduce_sum,
            insts.Lookup: self._h_lookup,
            insts.View: self._h_view,
            insts.Dot: self._h_dot,
            insts.Synchronize: self._h_synchronize,
            insts.Exit: self._h_exit,
        }

    # -- entry --------------------------------------------------------------
    def trace(self) -> None:
        self.tally["blocks_run"] += self.nblocks
        active = np.ones(self.nblocks, dtype=bool)
        self._run_stmt(self.st.program.body, active)

    # -- scalar evaluation --------------------------------------------------
    def _has_ptr(self, expr: Expr) -> bool:
        for node in expr.walk():
            if isinstance(node, Var) and isinstance(self.env.get(node), _Affine):
                return True
        return False

    def _peval(self, expr: Expr, active):
        """Evaluate a scalar expression: concrete via the real batched
        evaluator, pointer-touching via the affine grammar."""
        if not self._has_ptr(expr):
            return batched_evaluate(expr, self.env, active)
        if isinstance(expr, Var):
            return self.env[expr]
        if isinstance(expr, CastExpr) and not expr.dtype.is_float:
            inner = self._peval(expr.operand, active)
            if isinstance(inner, _Affine):
                return inner
        if isinstance(expr, Binary):
            a = self._peval(expr.lhs, active)
            b = self._peval(expr.rhs, active)
            if expr.op == "+":
                return _as_affine(a).add(_as_affine(b))
            if expr.op == "-":
                return _as_affine(a).add(_as_affine(b).neg())
            if expr.op == "*":
                if isinstance(a, _Affine) and not isinstance(b, _Affine):
                    return a.scale(b)
                if isinstance(b, _Affine) and not isinstance(a, _Affine):
                    return b.scale(a)
        raise LoweringBailout(
            f"non-affine pointer arithmetic in {type(expr).__name__}"
        )

    def _peval_concrete(self, expr: Expr, active):
        value = self._peval(expr, active)
        if isinstance(value, _Affine):
            if value.is_concrete():
                return value.conc
            raise LoweringBailout("pointer-valued scalar where a number is needed")
        return value

    # -- statement walk (mirrors BatchedExecutor._run_stmt) -----------------
    def _run_stmt(self, stmt: Stmt, active: np.ndarray) -> np.ndarray:
        self.steps += 1
        if self.steps > _TRACE_STEP_LIMIT:
            raise LoweringBailout(
                f"unrolled trace exceeds {_TRACE_STEP_LIMIT} steps"
            )
        if isinstance(stmt, SeqStmt):
            live = active
            for child in stmt.body:
                if not live.any():
                    break
                live = self._run_stmt(child, live)
            return live
        if isinstance(stmt, InstructionStmt):
            inst = stmt.instruction
            handler = self._handlers.get(type(inst))
            if handler is None:
                raise LoweringBailout(
                    f"instruction {type(inst).__name__} cannot be lowered"
                )
            self.tally["instructions"] += int(active.sum())
            handler(inst, active)
            return active & ~self.exited
        if isinstance(stmt, AssignStmt):
            value = self._peval(stmt.value, active)
            self._bind_scalar(stmt.var, value, active)
            return active
        if isinstance(stmt, IfStmt):
            cond = self._peval_concrete(stmt.cond, active)
            if not isinstance(cond, np.ndarray):
                if cond:
                    return self._run_stmt(stmt.then_body, active)
                if stmt.else_body is not None:
                    return self._run_stmt(stmt.else_body, active)
                return active
            cmask = _as_mask(cond, self.nblocks)
            then_mask = active & cmask
            else_mask = active & ~cmask
            then_live = (
                self._run_stmt(stmt.then_body, then_mask)
                if then_mask.any()
                else then_mask
            )
            else_live = (
                self._run_stmt(stmt.else_body, else_mask)
                if stmt.else_body is not None and else_mask.any()
                else else_mask
            )
            return then_live | else_live
        if isinstance(stmt, ForStmt):
            extent = self._peval_concrete(stmt.extent, active)
            if isinstance(extent, np.ndarray):
                extent = extent.astype(np.int64)
            else:
                extent = int(extent)
            broken = np.zeros(self.nblocks, dtype=bool)
            self.break_stack.append(broken)
            i = 0
            while True:
                iter_active = active & ~self.exited & ~broken & (i < extent)
                if not iter_active.any():
                    break
                self._bind_scalar(stmt.var, i, iter_active)
                self._run_stmt(stmt.body, iter_active)
                i += 1
            self.break_stack.pop()
            return active & ~self.exited
        if isinstance(stmt, WhileStmt):
            broken = np.zeros(self.nblocks, dtype=bool)
            done = np.zeros(self.nblocks, dtype=bool)
            self.break_stack.append(broken)
            while True:
                base = active & ~self.exited & ~broken & ~done
                if not base.any():
                    break
                cmask = _as_mask(self._peval_concrete(stmt.cond, base), self.nblocks)
                done |= base & ~cmask
                iter_active = base & cmask
                if not iter_active.any():
                    break
                self._run_stmt(stmt.body, iter_active)
            self.break_stack.pop()
            return active & ~self.exited
        if isinstance(stmt, BreakStmt):
            if not self.break_stack:
                raise VMError("break outside of a loop")
            self.break_stack[-1] |= active
            return np.zeros_like(active)
        if isinstance(stmt, ContinueStmt):
            return np.zeros_like(active)
        raise LoweringBailout(f"unknown statement {type(stmt).__name__}")

    # -- environment merging ------------------------------------------------
    def _bind_scalar(self, var: Var, value, active: np.ndarray) -> None:
        if bool(active.all()):
            self.env[var] = value
            return
        old = self.env.get(var)
        if old is None:
            self.env[var] = value
            return
        if isinstance(value, _Affine) or isinstance(old, _Affine):
            self.env[var] = _affine_where(active, value, old)
        else:
            self.env[var] = np.where(active, value, old)

    def _bind_tensor(self, var: TensorVar, value, active: np.ndarray) -> None:
        if bool(active.all()):
            self.env[var] = value
            return
        old = self.env.get(var)
        if old is None:
            self.env[var] = value
            return
        act = self.em.const(active)
        if isinstance(value, _Reg) and isinstance(old, _Reg):
            new_w = value.layout.local_size * value.dtype.nbits
            old_w = old.layout.local_size * old.dtype.nbits
            if (
                value.layout.num_threads != old.layout.num_threads
                or new_w != old_w
            ):
                raise LoweringBailout("divergent register merge with mismatched bits")
            old_name = old.name
            if old.dtype.nbits != value.dtype.nbits:
                old_name = self.em.tmp()
                self.em.emit(
                    f"{old_name} = _viewp({old.name}, {old.dtype.nbits}, "
                    f"{value.dtype.nbits}, {value.layout.local_size})"
                )
            name = self.em.tmp()
            self.em.emit(
                f"{name} = np.where({act}[:, None, None], {value.name}, {old_name})"
            )
            self.env[var] = _Reg(value.dtype, value.layout, name)
            return
        if isinstance(value, _View) and isinstance(old, _View):
            if value.buf != old.buf:
                raise VMError("cannot merge views over different buffers")
            coeffs = {}
            for idx in set(value.coeffs) | set(old.coeffs):
                zero = np.zeros(self.nblocks, dtype=np.int64)
                coeffs[idx] = np.where(
                    active, value.coeffs.get(idx, zero), old.coeffs.get(idx, zero)
                )
            conc = np.where(active, value.conc_bits, old.conc_bits)
            name = self.em.tmp()
            self.em.emit(f"{name} = np.where({act}, {value.name}, {old.name})")
            byte_name = self.em.tmp()
            self.em.emit(f"{byte_name} = {name} // 8")
            self.env[var] = _View(
                buf=value.buf,
                dtype=value.dtype,
                shape=value.shape,
                coeffs=coeffs,
                conc_bits=conc,
                name=name,
                byte_name=byte_name,
                buflen=value.buflen,
            )
            return
        raise LoweringBailout("divergent merge of incompatible tensor kinds")

    def _lookup_tensor(self, var: TensorVar):
        value = self.env.get(var)
        if value is None:
            raise VMError(f"tensor {var.name} used before definition")
        return value

    # -- register plumbing --------------------------------------------------
    def _dtype_const(self, dtype) -> str:
        return self.em.const(dtype)

    def _decode(self, reg: _Reg) -> str:
        key = (reg.name, id(reg.dtype))
        cached = self._dec_cache.get(key)
        if cached is not None:
            return cached
        name = self.em.tmp()
        self.em.emit(f"{name} = _dec({self._dtype_const(reg.dtype)}, {reg.name})")
        self._dec_cache[key] = name
        return name

    def _encode(self, dtype, layout, values_expr: str) -> _Reg:
        name = self.em.tmp()
        self.em.emit(f"{name} = _enc({self._dtype_const(dtype)}, {values_expr})")
        return _Reg(dtype, layout, name)

    def _logical_ix(self, layout) -> str:
        """Constant fancy-index tuple ``(bidx,) + coords`` for a layout."""
        coords = layout_tile_coords(layout)
        bidx = np.arange(self.nblocks, dtype=np.int64)[:, None]
        ix = (bidx,) + tuple(c[None, :] for c in coords)
        return self.em.const(ix)

    def _to_logical(self, reg: _Reg) -> tuple[str, tuple]:
        values = self._decode(reg)
        shape = (self.nblocks,) + reg.layout.shape
        name = self.em.tmp()
        self.em.emit(
            f"{name} = _tolog({values}, {shape!r}, {self._logical_ix(reg.layout)})"
        )
        return name, shape

    def _from_logical(self, dtype, layout, tensor_expr: str,
                      tensor_shape: tuple) -> _Reg:
        if tuple(tensor_shape[1:]) != tuple(layout.shape):
            raise VMError(
                f"logical shape {tuple(tensor_shape[1:])} != layout shape {layout.shape}"
            )
        shape3 = (self.nblocks, layout.num_threads, layout.local_size)
        expr = (
            f"{tensor_expr}[{self._logical_ix(layout)}].reshape({shape3!r})"
        )
        return self._encode(dtype, layout, expr)

    # -- view addressing ----------------------------------------------------
    def _linear_indices(self, view: _View, indices: list) -> np.ndarray:
        if len(indices) != len(view.shape):
            raise VMError(
                f"rank mismatch: {len(indices)} indices for shape {list(view.shape)}"
            )
        linear = np.zeros_like(np.asarray(indices[0], dtype=np.int64))
        for idx, extent in zip(indices, view.shape):
            idx = np.asarray(idx, dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= extent):
                raise VMError(
                    f"index out of bounds: [{idx.min()}, {idx.max()}] not within "
                    f"[0, {extent}) for tensor {view.dtype}{list(view.shape)}"
                )
            linear = linear * extent + idx
        return linear

    def _emit_gather(self, view: _View, linear: np.ndarray) -> str:
        """Gather patterns at compile-time linear indices; returns a runtime
        name holding a uint64 array of ``linear.shape``."""
        nbits = view.dtype.nbits
        msg = self.em.const(view.oob_msg())
        out = self.em.tmp()
        if nbits % 8 == 0:
            off = (linear * nbits) // 8
            if view.is_concrete():
                addr = self.em.const(view.conc_bits[:, None] // 8 + off)
            else:
                addr = self.em.tmp()
                self.em.emit(
                    f"{addr} = {view.byte_name}[:, None] + {self.em.const(off)}"
                )
            self.em.emit(f"{out} = _gb({view.buf}, {addr}, {nbits // 8}, {msg})")
        else:
            byte_off = (linear * nbits) // 8
            shift = ((linear * nbits) % 8).astype(np.uint64)
            if view.is_concrete():
                addr = self.em.const(view.conc_bits[:, None] // 8 + byte_off)
            else:
                addr = self.em.tmp()
                self.em.emit(
                    f"{addr} = {view.byte_name}[:, None] + {self.em.const(byte_off)}"
                )
            self.em.emit(
                f"{out} = _gsb({view.buf}, {addr}, {self.em.const(shift)}, "
                f"{nbits}, {msg})"
            )
        return out

    def _emit_scatter(self, view: _View, indices: list, patterns_name: str,
                      select: np.ndarray) -> None:
        """Scatter runtime patterns (named (B, T, L) or (B, n) array) at
        compile-time indices under a concrete select mask."""
        shape2d = np.broadcast(
            np.asarray(indices[0]), np.empty((self.nblocks, 1))
        ).shape
        select = np.broadcast_to(select, shape2d)
        if not select.any():
            return
        idx_flat = [
            np.broadcast_to(np.asarray(i, dtype=np.int64), shape2d)[select]
            for i in indices
        ]
        rows = np.broadcast_to(
            np.arange(self.nblocks, dtype=np.int64)[:, None], shape2d
        )[select]
        linear = self._linear_indices(view, idx_flat)
        nbits = view.dtype.nbits
        msg = self.em.const(view.oob_msg())
        pf = self.em.tmp()
        if bool(select.all()):
            self.em.emit(f"{pf} = {patterns_name}.reshape(-1)")
        else:
            self.em.emit(
                f"{pf} = {patterns_name}.reshape({shape2d!r})"
                f"[{self.em.const(select)}]"
            )
        conc_flat = view.conc_bits[rows]
        if nbits % 8 == 0:
            byte_off = conc_flat // 8 + (linear * nbits) // 8
            if view.is_concrete():
                addr = self.em.const(byte_off)
            else:
                addr = self.em.tmp()
                # A stack's pointers are per-block arrays: pick each row's.
                at = "" if self.st.launches == 1 else f"[{self.em.const(rows)}]"
                terms = [
                    f"p{self.st.ptr_slots[idx]}{at} * {self.em.const(c[rows] // 8)}"
                    for idx, c in view.coeffs.items()
                    if np.any(c)
                ]
                rhs = " + ".join(terms + [self.em.const(byte_off)])
                self.em.emit(f"{addr} = {rhs}")
            self.em.emit(
                f"_scb({view.buf}, {addr}, {pf}, {nbits // 8}, {msg})"
            )
            return
        # Sub-byte scatter: precompute the last-writer dedup from the
        # concrete part of the bit positions.  Valid when every pointer
        # coefficient is uniform across the selected rows (the runtime
        # pointer then shifts all positions equally, preserving equality
        # classes and sorted order).
        shift_terms = []
        for idx, c in view.coeffs.items():
            sel_c = c[rows]
            if not np.any(sel_c):
                continue
            if sel_c.size and (sel_c.min() != sel_c.max()):
                raise LoweringBailout(
                    "sub-byte scatter through a block-varying pointer base"
                )
            shift_terms.append((idx, int(sel_c[0])))
        if shift_terms and self.st.launches > 1:
            # The dedup below needs one pointer for all selected rows.
            raise LoweringBailout("sub-byte scatter through a per-launch pointer")
        offsets = np.arange(nbits, dtype=np.int64)
        bit_addr_conc = conc_flat + linear * nbits
        pos = (bit_addr_conc[:, None] + offsets).reshape(-1)
        rev = pos[::-1]
        _, first_in_rev = np.unique(rev, return_index=True)
        keep = pos.shape[0] - 1 - first_in_rev
        pos_u = pos[keep]
        byte_conc = pos_u // 8
        bit_in_byte = (pos_u % 8).astype(np.uint8)
        bv = self.em.tmp()
        self.em.emit(
            f"{bv} = (({pf}[:, None] >> {self.em.const(offsets.astype(np.uint64))})"
            f" & np.uint64(1)).astype(np.uint8).reshape(-1)"
        )
        vu = self.em.tmp()
        self.em.emit(f"{vu} = {bv}[{self.em.const(keep)}]")
        if shift_terms:
            parts = [
                f"p{self.st.ptr_slots[idx]} * {coeff // 8}"
                for idx, coeff in shift_terms
            ]
            addr = self.em.tmp()
            self.em.emit(
                f"{addr} = {' + '.join(parts)} + {self.em.const(byte_conc)}"
            )
        else:
            addr = self.em.const(byte_conc)
        self.em.emit(
            f"_ssb({view.buf}, {addr}, {self.em.const(bit_in_byte)}, {vu}, {msg})"
        )

    def _tile_indices(self, layout, offsets, active, broadcast_dims=frozenset()):
        coords = layout_tile_coords(layout)
        origin = []
        for o in offsets:
            value = self._peval_concrete(o, active)
            arr = np.asarray(value, dtype=np.int64)
            if arr.ndim == 0:
                col = np.full((self.nblocks, 1), int(arr), dtype=np.int64)
            else:
                col = arr.reshape(self.nblocks, 1)
            origin.append(col)
        return pad_tile_indices(coords, origin, broadcast_dims)

    # -- instruction handlers (compile-time mirrors of vm/batched.py) -------
    def _h_block_indices(self, inst: insts.BlockIndices, active) -> None:
        if len(inst.out_vars) != len(self.st.coords):
            raise VMError(
                f"BlockIndices unpacks {len(inst.out_vars)} values but the grid "
                f"has rank {len(self.st.coords)}"
            )
        for var, arr in zip(inst.out_vars, self.st.coords):
            self.env[var] = arr

    def _h_view_global(self, inst: insts.ViewGlobal, active) -> None:
        ptr = self._peval(inst.ptr, active)
        ttype = inst.out.ttype
        shape = []
        for s in ttype.shape:
            if hasattr(s, "dtype"):
                v = self._peval_concrete(s, active)
                if isinstance(v, np.ndarray):
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
        aff = _as_affine(ptr)
        nb = self.nblocks
        coeffs = {}
        for idx, c in aff.coeffs.items():
            arr = np.broadcast_to(np.asarray(c, dtype=np.int64), (nb,))
            coeffs[idx] = np.where(active, arr, 0) * 8
        conc_arr = np.broadcast_to(np.asarray(aff.conc, dtype=np.int64), (nb,))
        conc_bits = np.where(active, conc_arr, 0) * 8
        size = int(np.prod(shape)) if shape else 1
        buflen = len(self.st.memory.buffer)
        limit = (buflen - 8) * 8
        size_bits = size * ttype.dtype.nbits
        msg_neg = (
            f"tensor view [{ttype.dtype}{list(shape)}] starts before the "
            f"buffer: bit offset {{}} is negative"
        )
        msg_exc = (
            f"tensor view [{ttype.dtype}{list(shape)}] at bit offset "
            f"{{}} exceeds its buffer: needs {{}} bits, buffer has {limit}"
        )
        concrete = all(not np.any(c) for c in coeffs.values())
        if concrete:
            base = conc_bits
            end = base + size_bits
            if bool((base < 0).any()):
                raise VMError(msg_neg.format(int(base.min())))
            if bool((end > limit).any()):
                raise VMError(msg_exc.format(int(base[end > limit][0]), int(end.max())))
            name = self.em.const(base)
            byte_name = self.em.const(base // 8)
        else:
            terms = [
                f"p{self.st.ptr_slots[idx]} * {self.em.const(c)}"
                for idx, c in coeffs.items()
                if np.any(c)
            ]
            name = self.em.tmp()
            self.em.emit(
                f"{name} = {' + '.join(terms)} + {self.em.const(conc_bits)}"
            )
            self.em.emit(
                f"_vg({name}, {size_bits}, {limit}, "
                f"{self.em.const(msg_neg)}, {self.em.const(msg_exc)})"
            )
            byte_name = self.em.tmp()
            self.em.emit(f"{byte_name} = {name} // 8")
        view = _View(
            buf="mem",
            dtype=ttype.dtype,
            shape=shape,
            coeffs=coeffs,
            conc_bits=conc_bits,
            name=name,
            byte_name=byte_name,
            buflen=buflen,
        )
        self._bind_tensor(inst.out, view, active)

    def _h_allocate_register(self, inst: insts.AllocateRegister, active) -> None:
        ttype = inst.out.ttype
        layout, dtype = ttype.layout, ttype.dtype
        shape3 = (self.nblocks, layout.num_threads, layout.local_size)
        if inst.init is not None:
            values = np.full(shape3, inst.init)
            patterns = np.asarray(
                dtype.to_bits(values.reshape(-1)), dtype=np.uint64
            ).reshape(shape3)
        else:
            patterns = np.zeros(shape3, dtype=np.uint64)
        reg = _Reg(dtype, layout, self.em.const(patterns))
        self._bind_tensor(inst.out, reg, active)

    def _h_allocate_shared(self, inst: insts.AllocateShared, active) -> None:
        ttype = inst.out.ttype
        shape = ttype.static_shape()
        if shape is None:
            raise VMError("shared tensors require static shapes")
        nbytes = (int(np.prod(shape)) * ttype.dtype.nbits + 7) // 8
        capacity = self.st.shared_capacity
        aligned = (int(nbytes) + 15) // 16 * 16
        addr = self.shared_next.copy()
        grown = self.shared_next + aligned
        if bool((active & (grown > capacity)).any()):
            free = capacity - int(self.shared_next[active].max())
            raise VMError(
                f"shared memory exhausted: requested {nbytes} B, "
                f"{free} B free of {capacity} B"
            )
        self.shared_next = np.where(active, grown, self.shared_next)
        self.shared_used = True
        row_bytes = capacity + 8
        row_base_bits = np.arange(self.nblocks, dtype=np.int64) * row_bytes * 8
        base_bits = row_base_bits + addr * 8
        view = _View(
            buf="sm",
            dtype=ttype.dtype,
            shape=tuple(shape),
            coeffs={},
            conc_bits=base_bits,
            name=self.em.const(base_bits),
            byte_name=self.em.const(base_bits // 8),
            buflen=self.nblocks * row_bytes,
        )
        self._bind_tensor(inst.out, view, active)

    def _h_free_shared(self, inst: insts.FreeShared, active) -> None:
        self.env.pop(inst.tensor, None)

    # transfer --------------------------------------------------------------
    def _load(self, inst, active, shared: bool) -> None:
        src = self._lookup_tensor(inst.src)
        if not isinstance(src, _View):
            raise LoweringBailout("load source is not a memory view")
        layout = inst.out.ttype.layout
        indices = self._tile_indices(
            layout, inst.offset, active, inst.broadcast_dims
        )
        nbits = src.dtype.nbits
        if getattr(inst, "masked", False):
            valid = bounds_mask(indices, src.shape)
            clipped = [
                np.clip(i, 0, e - 1) for i, e in zip(indices, src.shape)
            ]
            linear = self._linear_indices(src, clipped)
            raw = self._emit_gather(src, linear)
            pat = self.em.tmp()
            if bool(valid.all()):
                self.em.emit(f"{pat} = {raw}")
            else:
                self.em.emit(
                    f"{pat} = np.where({self.em.const(valid)}, {raw}, np.uint64(0))"
                )
        else:
            where = np.broadcast_to(active[:, None], (self.nblocks, indices[0].shape[-1]))
            neutral = [np.where(where, i, 0) for i in indices]
            linear = self._linear_indices(src, neutral)
            pat = self._emit_gather(src, linear)
        shape3 = (self.nblocks, layout.num_threads, layout.local_size)
        shaped = self.em.tmp()
        self.em.emit(f"{shaped} = {pat}.reshape({shape3!r})")
        count = int(active.sum())
        key = "shared_bits_loaded" if shared else "global_bits_loaded"
        self.tally[key] += layout.size * nbits * count
        reg = _Reg(inst.out.ttype.dtype, layout, shaped)
        self._bind_tensor(inst.out, reg, active)

    def _h_load_global(self, inst: insts.LoadGlobal, active) -> None:
        self._load(inst, active, shared=False)

    def _h_load_shared(self, inst: insts.LoadShared, active) -> None:
        self._load(inst, active, shared=True)

    def _h_store_global(self, inst: insts.StoreGlobal, active) -> None:
        value = self._lookup_tensor(inst.src)
        dst = self._lookup_tensor(inst.dst)
        if not isinstance(value, _Reg) or not isinstance(dst, _View):
            raise LoweringBailout("store operands are not register/view")
        indices = self._tile_indices(value.layout, inst.offset, active)
        n = value.layout.num_threads * value.layout.local_size
        select = np.broadcast_to(active[:, None], (self.nblocks, n))
        if inst.masked:
            valid = bounds_mask(indices, dst.shape)
            select = select & valid
            counted = int((active & valid.any(axis=1)).sum())
        else:
            counted = int(active.sum())
        self._emit_scatter(dst, indices, value.name, select)
        self.tally["global_bits_stored"] += (
            value.layout.size * dst.dtype.nbits * counted
        )

    def _h_store_shared(self, inst: insts.StoreShared, active) -> None:
        value = self._lookup_tensor(inst.src)
        dst = self._lookup_tensor(inst.dst)
        if not isinstance(value, _Reg) or not isinstance(dst, _View):
            raise LoweringBailout("store operands are not register/view")
        indices = self._tile_indices(value.layout, inst.offset, active)
        n = value.layout.num_threads * value.layout.local_size
        select = np.broadcast_to(active[:, None], (self.nblocks, n))
        self._emit_scatter(dst, indices, value.name, select)
        self.tally["shared_bits_stored"] += (
            value.layout.size * dst.dtype.nbits * int(active.sum())
        )

    def _h_copy_async(self, inst: insts.CopyAsync, active) -> None:
        src = self._lookup_tensor(inst.src)
        dst = self._lookup_tensor(inst.dst)
        if not isinstance(src, _View) or not isinstance(dst, _View):
            raise LoweringBailout("copy_async operands are not views")
        shape = inst.copy_shape()
        size = int(np.prod(shape))
        idx = decompose_linear(tuple(shape))
        src_origin = []
        for o in inst.src_offset:
            v = np.asarray(self._peval_concrete(o, active), dtype=np.int64)
            src_origin.append(
                np.full((self.nblocks, 1), int(v), dtype=np.int64)
                if v.ndim == 0
                else v.reshape(self.nblocks, 1)
            )
        dst_origin = []
        for o in inst.dst_offset:
            v = np.asarray(self._peval_concrete(o, active), dtype=np.int64)
            dst_origin.append(
                np.full((self.nblocks, 1), int(v), dtype=np.int64)
                if v.ndim == 0
                else v.reshape(self.nblocks, 1)
            )
        zero = np.zeros(size, dtype=np.int64)
        src_full = [zero] * (len(src_origin) - len(idx)) + idx
        dst_full = [zero] * (len(dst_origin) - len(idx)) + idx
        src_idx = [f[None, :] + o for f, o in zip(src_full, src_origin)]
        dst_idx = [f[None, :] + o for f, o in zip(dst_full, dst_origin)]
        valid = bounds_mask(src_idx, src.shape)
        clipped = [np.clip(i, 0, e - 1) for i, e in zip(src_idx, src.shape)]
        linear = self._linear_indices(src, clipped)
        raw = self._emit_gather(src, linear)
        pat = self.em.tmp()
        if bool(valid.all()):
            self.em.emit(f"{pat} = {raw}")
        else:
            self.em.emit(
                f"{pat} = np.where({self.em.const(valid)}, {raw}, np.uint64(0))"
            )
        select = np.broadcast_to(active[:, None], (self.nblocks, size))
        self._emit_scatter(dst, dst_idx, pat, select)
        count = int(active.sum())
        self.pending_copy += 1
        self.tally["copy_async_issued"] += count
        self.tally["global_bits_loaded"] += size * src.dtype.nbits * count

    def _h_copy_commit(self, inst, active) -> None:
        self.committed.append(self.pending_copy)
        self.pending_copy = 0

    def _h_copy_wait(self, inst: insts.CopyAsyncWaitGroup, active) -> None:
        while len(self.committed) > inst.n:
            self.committed.pop(0)

    # computation -----------------------------------------------------------
    def _h_binary(self, inst: insts.ElementwiseBinary, active) -> None:
        a = self._lookup_tensor(inst.a)
        if not isinstance(a, _Reg):
            raise LoweringBailout("binary operand is not a register")
        av = self._decode(a)
        if isinstance(inst.b, TensorVar):
            b = self._lookup_tensor(inst.b)
            if not isinstance(b, _Reg):
                raise LoweringBailout("binary operand is not a register")
            if b.layout.num_threads != a.layout.num_threads or (
                b.layout.local_size != a.layout.local_size
            ):
                raise VMError("elementwise operands must have matching layouts")
            b_expr = self._decode(b)
        else:
            value = self._peval_concrete(inst.b, active)
            if isinstance(value, np.ndarray):
                b_expr = f"{self.em.const(value)}.reshape(-1, 1, 1)"
            else:
                b_expr = _lit(value)
        res = self.em.tmp()
        self.em.emit(
            f"{res} = _ew({self._dtype_const(a.dtype)}, {inst.op!r}, {av}, {b_expr})"
        )
        self._bind_tensor(inst.out, self._encode(a.dtype, a.layout, res), active)

    def _h_neg(self, inst: insts.Neg, active) -> None:
        a = self._lookup_tensor(inst.a)
        if not isinstance(a, _Reg):
            raise LoweringBailout("neg operand is not a register")
        av = self._decode(a)
        self._bind_tensor(
            inst.out, self._encode(a.dtype, a.layout, f"-{av}"), active
        )

    def _h_cast(self, inst: insts.Cast, active) -> None:
        a = self._lookup_tensor(inst.a)
        if not isinstance(a, _Reg):
            raise LoweringBailout("cast operand is not a register")
        av = self._decode(a)
        if inst.dtype.is_integer and a.dtype.is_float:
            truncated = self.em.tmp()
            self.em.emit(f"{truncated} = np.trunc({av})")
            av = truncated
        self._bind_tensor(
            inst.out, self._encode(inst.dtype, a.layout, av), active
        )

    def _h_reduce_sum(self, inst: insts.ReduceSum, active) -> None:
        value = self._lookup_tensor(inst.a)
        if not isinstance(value, _Reg):
            raise LoweringBailout("reduce operand is not a register")
        logical, lshape = self._to_logical(value)
        reduced = self.em.tmp()
        self.em.emit(
            f"{reduced} = {logical}.sum(axis={inst.axis + 1}, keepdims=True)"
        )
        rshape = tuple(
            1 if d == inst.axis + 1 else e for d, e in enumerate(lshape)
        )
        out_t = inst.out.ttype
        reg = self._from_logical(out_t.dtype, out_t.layout, reduced, rshape)
        self._bind_tensor(inst.out, reg, active)

    def _h_lookup(self, inst: insts.Lookup, active) -> None:
        codes = self._lookup_tensor(inst.codes)
        table = self._lookup_tensor(inst.table)
        if not isinstance(codes, _Reg):
            raise LoweringBailout("lookup codes are not a register")
        cv = self._decode(codes)
        flat = self.em.tmp()
        self.em.emit(f"{flat} = {cv}.astype(np.int64).reshape({self.nblocks}, -1)")
        safe = self.em.tmp()
        if bool(active.all()):
            self.em.emit(f"{safe} = {flat}")
        else:
            self.em.emit(
                f"{safe} = np.where({self.em.const(active)}[:, None], {flat}, 0)"
            )
        act_rows = self.em.const(active)
        if isinstance(table, _Reg):
            logical, lshape = self._to_logical(table)
            extent = lshape[1]
            msg = self.em.const(f"lookup code {{}} exceeds table of {extent}")
            self.em.emit(f"_lk({safe}[{act_rows}], {extent}, {msg})")
            bidx = self.em.const(np.arange(self.nblocks, dtype=np.int64)[:, None])
            values = self.em.tmp()
            self.em.emit(
                f"{values} = {logical}[{bidx}, np.clip({safe}, 0, {extent - 1})]"
            )
        elif isinstance(table, _View):
            extent = table.shape[0]
            msg = self.em.const(f"lookup code {{}} exceeds table of {extent}")
            self.em.emit(f"_lk({safe}[{act_rows}], {extent}, {msg})")
            nbits = table.dtype.nbits
            oob = self.em.const(table.oob_msg())
            if table.is_concrete():
                base_expr = f"{self.em.const(table.conc_bits // 8)}[:, None]"
            else:
                base_expr = f"{table.byte_name}[:, None]"
            raw = self.em.tmp()
            if nbits % 8 == 0:
                self.em.emit(
                    f"{raw} = _gb({table.buf}, {base_expr} + {safe} * {nbits // 8}, "
                    f"{nbits // 8}, {oob})"
                )
            else:
                ba = self.em.tmp()
                sh = self.em.tmp()
                self.em.emit(f"{ba} = {base_expr} + ({safe} * {nbits}) // 8")
                self.em.emit(f"{sh} = (({safe} * {nbits}) % 8).astype(np.uint64)")
                self.em.emit(
                    f"{raw} = _gsb({table.buf}, {ba}, {sh}, {nbits}, {oob})"
                )
            values = self.em.tmp()
            self.em.emit(
                f"{values} = {self._dtype_const(table.dtype)}"
                f".from_bits({raw}.reshape(-1)).reshape({raw}.shape)"
            )
        else:
            raise LoweringBailout("lookup table is neither register nor view")
        out_t = inst.out.ttype
        shape3 = (
            self.nblocks,
            out_t.layout.num_threads,
            out_t.layout.local_size,
        )
        reg = self._encode(
            out_t.dtype, out_t.layout, f"{values}.reshape({shape3!r})"
        )
        self._bind_tensor(inst.out, reg, active)

    def _h_view(self, inst: insts.View, active) -> None:
        a = self._lookup_tensor(inst.a)
        if not isinstance(a, _Reg):
            raise LoweringBailout("view operand is not a register")
        out_t = inst.out.ttype
        if out_t.layout.num_threads != a.layout.num_threads:
            raise VMError(
                f"view: thread count {a.layout.num_threads} -> "
                f"{out_t.layout.num_threads} mismatch"
            )
        if out_t.layout.local_size * out_t.dtype.nbits != (
            a.layout.local_size * a.dtype.nbits
        ):
            raise VMError(
                f"view: bits-per-thread mismatch: "
                f"{a.layout.local_size * a.dtype.nbits} -> "
                f"{out_t.layout.local_size * out_t.dtype.nbits}"
            )
        if out_t.dtype.nbits == a.dtype.nbits:
            reg = _Reg(out_t.dtype, out_t.layout, a.name)
        else:
            name = self.em.tmp()
            self.em.emit(
                f"{name} = _viewp({a.name}, {a.dtype.nbits}, "
                f"{out_t.dtype.nbits}, {out_t.layout.local_size})"
            )
            reg = _Reg(out_t.dtype, out_t.layout, name)
        self._bind_tensor(inst.out, reg, active)

    def _h_dot(self, inst: insts.Dot, active) -> None:
        a = self._lookup_tensor(inst.a)
        b = self._lookup_tensor(inst.b)
        c = self._lookup_tensor(inst.c)
        if not all(isinstance(x, _Reg) for x in (a, b, c)):
            raise LoweringBailout("dot operands are not registers")
        al, ashape = self._to_logical(a)
        bl, bshape = self._to_logical(b)
        cl, _ = self._to_logical(c)
        res = self.em.tmp()
        self.em.emit(
            f"{res} = {al}.astype(np.float64) @ {bl}.astype(np.float64) + {cl}"
        )
        rshape = (self.nblocks, ashape[1], bshape[2])
        out_t = inst.out.ttype
        reg = self._from_logical(out_t.dtype, out_t.layout, res, rshape)
        self._bind_tensor(inst.out, reg, active)
        self.tally["dot_ops"] += (
            ashape[1] * ashape[2] * bshape[2] * int(active.sum())
        )

    # misc ------------------------------------------------------------------
    def _h_synchronize(self, inst, active) -> None:
        self.tally["synchronizations"] += int(active.sum())

    def _h_exit(self, inst, active) -> None:
        self.exited |= active


# ---------------------------------------------------------------------------
# Pass 3: flatten to source
# ---------------------------------------------------------------------------


@dataclass
class LoweredKernel:
    """A specialized program compiled to a flat numpy function.

    ``run`` executes on the memory the kernel was lowered against (buffer
    length is baked into bounds checks and error strings).  A kernel
    lowered with ``launches=G`` is ``G`` launches of one specialization
    stacked launch-major on the block axis: ``nblocks`` is ``G`` grids,
    and :meth:`run_many` takes the ``G`` argument lists.
    """

    program_name: str
    spec: tuple
    grid: tuple
    nblocks: int
    ptr_indices: tuple
    source: str
    passes: tuple
    buffer_len: int
    shared_used: bool
    num_consts: int
    num_params: int
    _fn: Callable = field(repr=False, default=None)
    #: The constant pool the source closes over (C0, C1, ...).  Carried
    #: so the tuning store can persist a kernel as source + consts and
    #: rehydrate it in a fresh process without re-running the passes.
    consts: dict = field(repr=False, default=None)
    launches: int = 1

    def run(self, memory: GlobalMemory, args: Sequence,
            stats: Optional[ExecutionStats] = None) -> ExecutionStats:
        return self.run_many(memory, [args], stats)

    def run_many(self, memory: GlobalMemory, args_list: Sequence[Sequence],
                 stats: Optional[ExecutionStats] = None) -> ExecutionStats:
        """Execute the ``launches`` launches this kernel stacks, with the
        memory effects and counters of running them back to back (the
        caller has proven them independent)."""
        if len(args_list) != self.launches:
            raise VMError(
                f"compiled kernel for {self.program_name} stacks "
                f"{self.launches} launches, got {len(args_list)}"
            )
        for args in args_list:
            if len(args) != self.num_params:
                raise VMError(
                    f"{self.program_name} expects {self.num_params} args, "
                    f"got {len(args)}"
                )
        if len(memory.buffer) != self.buffer_len:
            raise VMError(
                f"compiled kernel for {self.program_name} was lowered against a "
                f"{self.buffer_len}-byte buffer, got {len(memory.buffer)} bytes"
            )
        if stats is None:
            stats = ExecutionStats()
        if self.launches == 1:
            ptrs = [int(args_list[0][i]) for i in self.ptr_indices]
        else:
            per_launch = self.nblocks // self.launches
            ptrs = [
                np.repeat(
                    np.array([args[i] for args in args_list], dtype=np.int64),
                    per_launch,
                )
                for i in self.ptr_indices
            ]
        self._fn(memory.buffer, ptrs, stats)
        return stats


class FlattenToSource:
    """Pass 3: assemble, ``compile()`` and wrap the trace."""

    name = PASS_NAMES[2]

    @staticmethod
    def run(state: _LoweringState, tracer: _Tracer) -> LoweredKernel:
        em = state.emitter
        body: list[str] = []
        for slot in range(len(state.ptr_indices)):
            body.append(f"p{slot} = ptrs[{slot}]")
        if tracer.shared_used:
            row_bytes = state.shared_capacity + 8
            body.append(
                f"sm = np.zeros({state.nblocks * row_bytes}, dtype=np.uint8)"
            )
        body.extend(em.lines)
        for fname in _STAT_FIELDS:
            delta = tracer.tally[fname]
            if delta:
                body.append(f"stats.{fname} += {delta}")
        if not body:
            body.append("pass")
        source = "def _jit_kernel(mem, ptrs, stats):\n" + "\n".join(
            "    " + line for line in body
        )
        code = compile(source, f"<jit:{state.program.name}>", "exec")
        namespace = dict(_HELPERS)
        namespace.update(em.consts)
        exec(code, namespace)  # noqa: S102 - the source is generated above
        return LoweredKernel(
            program_name=state.program.name,
            spec=state.spec,
            grid=state.grid,
            nblocks=state.nblocks,
            ptr_indices=state.ptr_indices,
            source=source,
            passes=PASS_NAMES,
            buffer_len=len(state.memory.buffer),
            shared_used=tracer.shared_used,
            num_consts=len(em.consts),
            num_params=len(state.program.params),
            _fn=namespace["_jit_kernel"],
            consts=dict(em.consts),
            launches=state.launches,
        )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def lower_program(
    program: Program,
    args: Sequence,
    memory: GlobalMemory,
    shared_capacity: int = 228 * 1024,
    launches: int = 1,
) -> LoweredKernel:
    """Lower a specialized launch to a :class:`LoweredKernel`.

    ``args`` provides the const-bound scalars (baked in, canonicalized the
    same way :func:`specialization_key` canonicalizes them) and is used to
    evaluate the launch grid; pointer arguments are *not* baked — the
    compiled kernel is reusable for any launch with the same specialization
    key.  Raises :class:`LoweringBailout` when the program cannot be
    flattened; callers fall back to the batched engine.

    ``launches=G`` lowers ``G`` hazard-independent launches of this one
    specialization as a single stacked grid (the compiled twin of
    :meth:`~repro.vm.batched.BatchedExecutor.launch_many`): the same
    three passes over ``G`` times the blocks, pointers bound per block.
    """
    recorder = obs_trace.ACTIVE
    start = recorder.now() if recorder is not None else 0.0
    state = SpecializeConstants.run(
        program, args, memory, shared_capacity, launches
    )
    tracer = UnrollAndTrace.run(state)
    kernel = FlattenToSource.run(state, tracer)
    if recorder is not None:
        recorder.complete(
            f"jit.lower:{program.name}",
            "jit",
            obs_trace.HOST_TID,
            start,
            recorder.now() - start,
        )
    return kernel
