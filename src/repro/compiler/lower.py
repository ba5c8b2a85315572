"""Progressive lowering of specialized programs to straight-line numpy.

The batched engine (:mod:`repro.vm.batched`) executes all thread blocks in
lockstep but still walks the statement tree and re-derives index math on
every launch.  Once a kernel is *specialized* — its fingerprint and
const-bound scalar arguments pinned by
:func:`repro.compiler.pipeline.specialization_key` — everything except the
pointer arguments and the tensor *data* is a compile-time constant: grid
coordinates, divergence masks, loop trip counts, tile indices, shared-memory
addresses and every ``ExecutionStats`` delta.

This module exploits that with a four-pass pipeline (the xdsl-style
progressive dialect lowering named in the ROADMAP):

1. **const-fold** (:class:`SpecializeConstants`): bind const scalars, grid
   coordinates and symbolic (affine) pointer parameters into a concrete
   compile-time environment.
2. **unroll** (:class:`UnrollAndTrace`): run the batched engine's own
   statement walk (:class:`repro.vm.batched.LockstepWalk`) at compile time
   — loops unroll, ``if``/``while`` masks fold to concrete block sets —
   recording one vectorized numpy statement per surviving instruction,
   with all index/mask/shift arrays precomputed.  Values are *forwarded*
   as they are recorded: a register is a :class:`_Reg` of lazily emitted
   twins (packed bits, decoded values, logical tensor), every consumer
   reads the twin it computes on, and equal expressions — a gather of the
   same addresses with no store in between included — share a temporary.
3. **forward** (:class:`ForwardValues`): one backward liveness walk over
   the finished trace drops what nothing reads and releases every
   temporary after its last reader.
4. **flatten** (:class:`FlattenToSource`): assemble the trace into a flat
   Python function, ``compile()`` it, and wrap it as a
   :class:`LoweredKernel`.

Bit-exactness contract: lowering is the second front-end of the
tile-semantics table :mod:`repro.vm.tileops`.  It defines no runtime
helper of its own: whatever is concrete (indices, bounds checks, the
last-writer dedup, shared-memory addresses, constant registers) it
computes at compile time by calling the table, and what depends on tensor
data it emits as calls into the same table
(:data:`repro.vm.tileops.KERNEL_NAMESPACE`), plus the shared codecs
(``dtype.to_bits``/``from_bits``) and
:func:`repro.vm.values.apply_elementwise`; compile-time scalar folding goes
through the real :func:`repro.vm.batched.batched_evaluate`.  The batched
engine packs every instruction's result to ``(B, T, L)`` uint64 patterns
and unpacks it for the next one; a kernel instead keeps the decoded values
rounded to the register's type (``tileops.requantize``, by definition the
pack-unpack round trip) and packs where bits are read: a register
``View``, a store, a divergent merge.  What stays lowering's own is emit
granularity: which table calls a handler emits, what it folds into
constants, which twin it asks for.

Anything the trace cannot prove flat raises :class:`LoweringBailout` and
the caller falls back to the batched engine: the instructions in
:data:`UNLOWERABLE`, non-affine pointer arithmetic, pointer-dependent
control flow, and any VMError the table raises deterministically at
compile time (out-of-bounds indices, shared-memory exhaustion, view
mismatches) — the fallback then reproduces the identical runtime error.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.compiler.pipeline import specialization_key
from repro.errors import IRError, VMError
from repro.ir import instructions as insts
from repro.ir.expr import Binary, CastExpr, Expr, Var
from repro.obs import trace as obs_trace
from repro.ir.program import Program
from repro.ir.types import TensorVar
from repro.vm import tileops
from repro.vm.batched import BatchedSharedMemory, LockstepWalk, batched_evaluate
from repro.vm.dispatch import bounds_mask, decompose_linear
from repro.vm.interp import ExecutionStats
from repro.vm.memory import GlobalMemory
from repro.vm.values import apply_elementwise

__all__ = [
    "LoweredKernel",
    "LoweringBailout",
    "PASS_NAMES",
    "UNLOWERABLE",
    "lower_program",
]

#: The pass pipeline, in application order.
PASS_NAMES = ("const-fold", "unroll", "forward", "flatten")

#: Instructions the pipeline declines by design (a launch containing one
#: stays on the batched engine): a workspace allocation moves the device
#: allocator, a print has no flat form.  Every other instruction has a
#: lowering handler — ``tests/test_instruction_coverage.py`` holds the two
#: sets to exactly the instruction set.
UNLOWERABLE = frozenset({insts.AllocateGlobal, insts.PrintTensor})

#: Unrolled-trace budget: statement-walk steps before lowering gives up.
#: Generous for every template family in the harness; a backstop against
#: data-independent-but-huge loops producing megabytes of source.
_TRACE_STEP_LIMIT = 100_000

#: Emitted-statement budget (lines of generated source).
_TRACE_LINE_LIMIT = 25_000


class LoweringBailout(Exception):
    """Lowering cannot flatten this program; run it on the batched engine."""


#: Globals of every generated kernel: the tile-semantics table under the
#: names kernel sources (including ones persisted in tuning stores) use.
_HELPERS = {
    "np": np,
    "VMError": VMError,
    "_ew": apply_elementwise,
    **tileops.KERNEL_NAMESPACE,
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
    """Compile-time register descriptor: up to three runtime twins of one
    value, each the name of a runtime array and each emitted the first
    time an instruction asks for it (``_Tracer._bits`` / ``_vals`` /
    ``_logical``).  A register is born with whichever twin its producer
    computes — a load has bits, arithmetic has values, ``Dot`` has the
    logical tensor — and a consumer that wants that same twin reads it
    with no conversion emitted.
    """

    dtype: object
    layout: object
    #: (B, T, L) uint64 patterns.
    bits: Optional[str] = None
    #: (B, T, L) decoded values, exactly ``_dec(dtype, bits)``.
    vals: Optional[str] = None
    #: ``(B,) + layout.shape`` decoded values, exactly ``_tolog`` of ``vals``.
    logical: Optional[str] = None


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
        return tileops.oob_message(self.dtype, self.shape, self.buflen)


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------


@dataclass
class _Stmt:
    """One traced statement: ``target = expr``, or a bare ``expr`` (a
    check or a store) when ``target`` is None.  ``checked`` marks an
    assignment that can raise (a gather's bounds check): it is kept even
    when nothing reads the result."""

    target: Optional[str]
    expr: str
    checked: bool = False


_TEMP_NAME = re.compile(r"\bt\d+\b")
_CONST_NAME = re.compile(r"\bC\d+\b")


class _Emitter:
    """Accumulates the traced statements and the constant pool.

    Every temporary is assigned once and never mutated, so an expression
    string over temporaries and constants names one value for the whole
    kernel: :meth:`value` hands back the temporary already holding it
    instead of emitting it again.  An expression that reads ``mem`` or
    ``sm`` is that value only until the next store to the buffer
    (:meth:`clobber`).
    """

    def __init__(self) -> None:
        self.stmts: list[_Stmt] = []
        self.consts: dict[str, object] = {}
        self._const_keys: dict = {}
        self._values: dict = {}
        self._stores = {"mem": 0, "sm": 0}

    def _push(self, stmt: _Stmt) -> None:
        if len(self.stmts) >= _TRACE_LINE_LIMIT:
            raise LoweringBailout(
                f"generated source exceeds {_TRACE_LINE_LIMIT} statements"
            )
        self.stmts.append(stmt)

    def effect(self, expr: str) -> None:
        """A statement run for what it does: a check or a store."""
        self._push(_Stmt(None, expr))

    def value(self, expr: str, reads: Optional[str] = None) -> str:
        """The temporary holding ``expr``; ``reads`` names the buffer a
        gather reads (it is also what makes the statement ``checked``)."""
        key = expr if reads is None else (expr, self._stores[reads])
        name = self._values.get(key)
        if name is None:
            name = self._values[key] = f"t{len(self._values)}"
            self._push(_Stmt(name, expr, checked=reads is not None))
        return name

    def clobber(self, buf: str) -> None:
        """A store to ``buf`` was emitted: earlier gathers from it are stale."""
        self._stores[buf] += 1

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
        if isinstance(obj, tuple):
            return ("t",) + tuple(_Emitter._const_key(e) for e in obj)
        # dtype objects: dedupe by identity.
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
            # A table check raised at compile time what the batched engine
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


class _Tracer(LockstepWalk):
    """The lockstep statement walk at compile time.

    Scalars, masks and addresses are concrete; registers and views are
    symbolic SSA names bound to runtime arrays.  Every instruction handler
    is the emitting twin of the ``@BATCHED.register`` handler in
    :mod:`repro.vm.batched`, over the same :mod:`repro.vm.tileops` table.
    """

    #: instruction class -> handler(self, inst, active); filled below.
    handlers: dict[type, Callable] = {}

    def __init__(self, state: _LoweringState) -> None:
        super().__init__(state.nblocks, state.env)
        self.st = state
        self.em = state.emitter
        self.tally = {f: 0 for f in _STAT_FIELDS}
        self.shared = BatchedSharedMemory(state.nblocks, state.shared_capacity)
        self.steps = 0

    # -- entry --------------------------------------------------------------
    def trace(self) -> None:
        self.tally["blocks_run"] += self.nblocks
        self.run_stmt(self.st.program.body, np.ones(self.nblocks, dtype=bool))

    # -- what the walk asks of a front-end ----------------------------------
    def step(self) -> None:
        self.steps += 1
        if self.steps > _TRACE_STEP_LIMIT:
            raise LoweringBailout(
                f"unrolled trace exceeds {_TRACE_STEP_LIMIT} steps"
            )

    def scalar(self, expr: Expr, active, control: bool = False):
        """Concrete via the real batched evaluator, pointer-touching via
        the affine grammar; a ``control`` value must be a number."""
        value = self._peval(expr, active)
        if control and isinstance(value, _Affine):
            if value.is_concrete():
                return value.conc
            raise LoweringBailout("pointer-valued scalar where a number is needed")
        return value

    def instruction(self, inst, active) -> None:
        handler = self.handlers.get(type(inst))
        if handler is None:
            raise LoweringBailout(
                f"instruction {type(inst).__name__} cannot be lowered"
            )
        self.tally["instructions"] += int(active.sum())
        handler(self, inst, active)

    def bind_scalar(self, var: Var, value, active: np.ndarray) -> None:
        self.bind(var, value, active, lambda new, old: _affine_where(active, new, old))

    # -- scalar evaluation --------------------------------------------------
    def _has_ptr(self, expr: Expr) -> bool:
        for node in expr.walk():
            if isinstance(node, Var) and isinstance(self.env.get(node), _Affine):
                return True
        return False

    def _peval(self, expr: Expr, active):
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

    # -- environment merging ------------------------------------------------
    def _bind_tensor(self, var: TensorVar, value, active: np.ndarray) -> None:
        self.bind(var, value, active, lambda new, old: self._merge(new, old, active))

    def _merge(self, value, old, active: np.ndarray):
        act = self.em.const(active)
        if isinstance(value, _Reg) and isinstance(old, _Reg):
            tileops.check_view(old.dtype, old.layout, value.dtype, value.layout)
            # Merged as bits: the old value may be of another type, and a
            # loaded pattern need not be the one its value encodes to.
            old_bits = self._regrouped(old, value.dtype.nbits, value.layout.local_size)
            merged = self.em.value(
                f"np.where({act}[:, None, None], {self._bits(value)}, {old_bits})"
            )
            return _Reg(value.dtype, value.layout, bits=merged)
        if isinstance(value, _View) and isinstance(old, _View):
            if value.buf != old.buf:
                raise VMError("cannot merge views over different buffers")
            zero = np.zeros(self.nblocks, dtype=np.int64)
            coeffs = {
                idx: np.where(active, value.coeffs.get(idx, zero), old.coeffs.get(idx, zero))
                for idx in set(value.coeffs) | set(old.coeffs)
            }
            conc = np.where(active, value.conc_bits, old.conc_bits)
            name = self.em.value(f"np.where({act}, {value.name}, {old.name})")
            byte_name = self.em.value(f"{name} // 8")
            return _View(
                value.buf, value.dtype, value.shape, coeffs, conc, name, byte_name,
                value.buflen,
            )
        raise LoweringBailout("divergent merge of incompatible tensor kinds")

    def _operand(self, var: TensorVar, kind: type, what: str):
        value = self.lookup_tensor(var)
        if not isinstance(value, kind):
            raise LoweringBailout(
                f"{what} is not a {'register' if kind is _Reg else 'memory view'}"
            )
        return value

    # -- register plumbing --------------------------------------------------
    def _dtype_const(self, dtype) -> str:
        return self.em.const(dtype)

    def _bits(self, reg: _Reg) -> str:
        """Runtime name of ``reg``'s patterns: where a value is packed."""
        if reg.bits is None:
            reg.bits = self.em.value(
                f"_enc({self._dtype_const(reg.dtype)}, {self._vals(reg)})"
            )
        return reg.bits

    def _vals(self, reg: _Reg) -> str:
        """Runtime name of ``reg``'s decoded values; a constant register's
        are decoded here, at compile time."""
        if reg.vals is None:
            consts = self.em.consts
            if reg.bits is None:
                reg.vals = self.em.value(
                    f"{reg.logical}[{self._logical_ix(reg.layout)}]"
                    f".reshape({self._shape3(reg.layout)!r})"
                )
            elif reg.bits in consts:
                reg.vals = self.em.const(tileops.decode(reg.dtype, consts[reg.bits]))
            else:
                reg.vals = self.em.value(
                    f"_dec({self._dtype_const(reg.dtype)}, {reg.bits})"
                )
        return reg.vals

    def _logical(self, var: TensorVar, what: str) -> tuple[str, tuple]:
        """Runtime name and shape of a register operand's logical tensor."""
        reg = self._operand(var, _Reg, what)
        shape = (self.nblocks,) + reg.layout.shape
        if reg.logical is None:
            inverse = tileops.logical_inverse(reg.layout)
            vals, consts = self._vals(reg), self.em.consts
            if vals in consts:
                reg.logical = self.em.const(
                    tileops.gather_logical(consts[vals], shape, inverse)
                )
            else:
                reg.logical = self.em.value(
                    f"_tolg({vals}, {shape!r}, {self.em.const(inverse)})"
                )
        return reg.logical, shape

    def _encode(self, dtype, layout, values_expr: str) -> _Reg:
        """A register of ``dtype`` holding ``values_expr`` rounded to it."""
        return _Reg(
            dtype, layout,
            vals=self.em.value(f"_rq({self._dtype_const(dtype)}, {values_expr})"),
        )

    def _from_logical(self, out: TensorVar, tensor_expr: str, tensor_shape: tuple) -> _Reg:
        """The register a logical-tensor result lands in.  Rounding is
        elementwise, so it is applied to the tensor and the register is
        born logical: reading it back as a logical tensor (the next
        ``Dot`` of an accumulator chain) is the rounded tensor itself."""
        dtype, layout = out.ttype.dtype, out.ttype.layout
        tileops.check_logical_shape(tensor_shape, layout)
        tileops.logical_inverse(layout)  # the claim needs every element held
        return _Reg(
            dtype, layout,
            logical=self.em.value(f"_rq({self._dtype_const(dtype)}, {tensor_expr})"),
        )

    def _regrouped(self, reg: _Reg, nbits: int, local_size: int) -> str:
        """Runtime name of ``reg``'s bits read as ``nbits``-wide elements."""
        bits = self._bits(reg)
        if reg.dtype.nbits == nbits:
            return bits
        return self.em.value(f"_viewp({bits}, {reg.dtype.nbits}, {nbits}, {local_size})")

    def _shape3(self, layout) -> tuple:
        return (self.nblocks, layout.num_threads, layout.local_size)

    def _logical_ix(self, layout) -> str:
        return self.em.const(tileops.logical_index(layout, self.nblocks))

    # -- view addressing ----------------------------------------------------
    def _byte_addr(self, view: _View, byte_off: np.ndarray) -> str:
        """Runtime name of ``view``'s per-block byte base plus (B, n)
        compile-time byte offsets."""
        if view.is_concrete():
            return self.em.const(view.conc_bits[:, None] // 8 + byte_off)
        return self.em.value(f"{view.byte_name}[:, None] + {self.em.const(byte_off)}")

    def _emit_gather(self, view: _View, linear: np.ndarray) -> str:
        """Gather patterns at compile-time linear indices; returns a runtime
        name holding a uint64 array of ``linear.shape``.  View bases are
        whole bytes (pointers and 16-byte shared granules).  The same
        addresses of the same view gather once between two stores to its
        buffer: an unrolled loop re-reading one scale row reads it once."""
        nbits = view.dtype.nbits
        bit_off = linear * nbits
        msg = self.em.const(view.oob_msg())
        addr = self._byte_addr(view, bit_off // 8)
        if nbits % 8 == 0:
            return self.em.value(
                f"_gb({view.buf}, {addr}, {nbits // 8}, {msg})", reads=view.buf
            )
        shift = self.em.const((bit_off % 8).astype(np.uint64))
        return self.em.value(
            f"_gsb({view.buf}, {addr}, {shift}, {nbits}, {msg})", reads=view.buf
        )

    def _emit_zfill_gather(self, view: _View, indices: list) -> str:
        """Gather with out-of-bounds elements reading as zero bits (masked
        loads, ``cp.async`` zfill)."""
        valid = bounds_mask(indices, view.shape)
        linear = tileops.linear_index(view.shape, view.dtype, indices, clip=True)
        raw = self._emit_gather(view, linear)
        if bool(valid.all()):
            return raw
        return self.em.value(f"np.where({self.em.const(valid)}, {raw}, np.uint64(0))")

    def _emit_scatter(self, view: _View, indices: list, patterns_name: str,
                      select: np.ndarray) -> None:
        """Scatter runtime patterns (named (B, T, L) or (B, n) array) at
        compile-time indices under a concrete select mask."""
        selected = tileops.select_flat(indices, self.nblocks, select)
        if selected is None:
            return
        flat, rows, select = selected
        self.em.clobber(view.buf)
        linear = tileops.linear_index(view.shape, view.dtype, flat)
        nbits = view.dtype.nbits
        msg = self.em.const(view.oob_msg())
        if bool(select.all()):
            pf = self.em.value(f"{patterns_name}.reshape(-1)")
        else:
            pf = self.em.value(
                f"{patterns_name}.reshape({select.shape!r})[{self.em.const(select)}]"
            )
        bit_addr = view.conc_bits[rows] + linear * nbits
        # The runtime part of the address: the pointer terms of the
        # selected rows, in bytes.  A stack's pointers are per-block
        # arrays: pick each row's.
        coeffs = [(idx, c[rows] // 8) for idx, c in view.coeffs.items() if np.any(c[rows])]
        at = f"[{self.em.const(rows)}]" if coeffs and self.st.launches > 1 else ""
        if nbits % 8 == 0:
            addr = self.em.const(bit_addr // 8)
            if coeffs:
                terms = [
                    f"p{self.st.ptr_slots[idx]}{at} * {self.em.const(c)}" for idx, c in coeffs
                ]
                addr = self.em.value(" + ".join(terms + [addr]))
            self.em.effect(f"_scb({view.buf}, {addr}, {pf}, {nbits // 8}, {msg})")
            return
        # Sub-byte scatter: the last-writer dedup is precomputed from the
        # concrete part of the bit positions.  Valid when every pointer
        # coefficient is uniform across the selected rows (the runtime
        # pointer then shifts all positions equally, preserving equality
        # classes and sorted order).
        if any(c.min() != c.max() for _, c in coeffs):
            raise LoweringBailout(
                "sub-byte scatter through a block-varying pointer base"
            )
        if coeffs and self.st.launches > 1:
            # The dedup below needs one pointer for all selected rows.
            raise LoweringBailout("sub-byte scatter through a per-launch pointer")
        keep, byte_idx, bit_in_byte = tileops.last_writers(bit_addr, nbits)
        vu = self.em.value(f"_pbits({pf}, {nbits})[{self.em.const(keep)}]")
        addr = self.em.const(byte_idx)
        if coeffs:
            parts = [f"p{self.st.ptr_slots[idx]} * {int(c[0])}" for idx, c in coeffs]
            addr = self.em.value(" + ".join(parts + [addr]))
        self.em.effect(
            f"_ssb({view.buf}, {addr}, {self.em.const(bit_in_byte)}, {vu}, {msg})"
        )

    # -- instruction handlers (emitting twins of vm/batched.py's) -----------
    def _h_block_indices(self, inst: insts.BlockIndices, active) -> None:
        if len(inst.out_vars) != len(self.st.coords):
            raise VMError(
                f"BlockIndices unpacks {len(inst.out_vars)} values but the grid "
                f"has rank {len(self.st.coords)}"
            )
        for var, arr in zip(inst.out_vars, self.st.coords):
            self.env[var] = arr

    def _h_view_global(self, inst: insts.ViewGlobal, active) -> None:
        aff = _as_affine(self._peval(inst.ptr, active))
        ttype = inst.out.ttype
        shape = tileops.view_shape(
            ttype.shape, lambda s: self.scalar(s, active, control=True), active
        )

        def masked_bits(c):  # (B,) bit quantity, zero for inactive blocks
            arr = np.broadcast_to(np.asarray(c, dtype=np.int64), (self.nblocks,))
            return np.where(active, arr, 0) * 8

        coeffs = {idx: masked_bits(c) for idx, c in aff.coeffs.items()}
        conc_bits = masked_bits(aff.conc)
        buflen = len(self.st.memory.buffer)
        limit = (buflen - 8) * 8
        size_bits = (int(np.prod(shape)) if shape else 1) * ttype.dtype.nbits
        msgs = tileops.view_global_messages(ttype.dtype, shape, limit)
        terms = [
            f"p{self.st.ptr_slots[idx]} * {self.em.const(c)}"
            for idx, c in coeffs.items()
            if np.any(c)
        ]
        if not terms:
            tileops.check_view_global(conc_bits, size_bits, limit, *msgs)
            name = self.em.const(conc_bits)
            byte_name = self.em.const(conc_bits // 8)
        else:
            name = self.em.value(" + ".join(terms + [self.em.const(conc_bits)]))
            self.em.effect(
                f"_vg({name}, {size_bits}, {limit}, "
                f"{self.em.const(msgs[0])}, {self.em.const(msgs[1])})"
            )
            byte_name = self.em.value(f"{name} // 8")
        view = _View("mem", ttype.dtype, shape, coeffs, conc_bits, name, byte_name, buflen)
        self._bind_tensor(inst.out, view, active)

    def _h_allocate_register(self, inst: insts.AllocateRegister, active) -> None:
        dtype, layout = inst.out.ttype.dtype, inst.out.ttype.layout
        patterns = tileops.filled(dtype, self._shape3(layout), inst.init)
        self._bind_tensor(
            inst.out, _Reg(dtype, layout, bits=self.em.const(patterns)), active
        )

    def _h_allocate_shared(self, inst: insts.AllocateShared, active) -> None:
        ttype = inst.out.ttype
        shape = ttype.static_shape()
        base_bits = self.shared.alloc(
            tileops.tensor_nbytes(shape, ttype.dtype, "shared"), active
        )
        view = _View(
            "sm", ttype.dtype, tuple(shape), {}, base_bits,
            self.em.const(base_bits), self.em.const(base_bits // 8), self.shared.nbytes,
        )
        self._bind_tensor(inst.out, view, active)

    def _h_free_shared(self, inst: insts.FreeShared, active) -> None:
        self.env.pop(inst.tensor, None)

    # transfer --------------------------------------------------------------
    def _h_load(self, inst, active) -> None:
        src = self._operand(inst.src, _View, "load source")
        layout = inst.out.ttype.layout
        indices = self.tile_indices(layout, inst.offset, active, inst.broadcast_dims)
        if getattr(inst, "masked", False):
            pat = self._emit_zfill_gather(src, indices)
        else:
            linear = tileops.linear_index(
                src.shape, src.dtype, indices, where=active[:, None]
            )
            pat = self._emit_gather(src, linear)
        shaped = self.em.value(f"{pat}.reshape({self._shape3(layout)!r})")
        shared = isinstance(inst, insts.LoadShared)
        self.tally["shared_bits_loaded" if shared else "global_bits_loaded"] += (
            layout.size * src.dtype.nbits * int(active.sum())
        )
        self._bind_tensor(
            inst.out, _Reg(inst.out.ttype.dtype, layout, bits=shaped), active
        )

    def _h_store(self, inst, active) -> None:
        value = self._operand(inst.src, _Reg, "store source")
        dst = self._operand(inst.dst, _View, "store destination")
        indices = self.tile_indices(value.layout, inst.offset, active)
        select = active[:, None]
        counted = active
        if getattr(inst, "masked", False):
            valid = bounds_mask(indices, dst.shape)
            select = select & valid
            counted = active & valid.any(axis=1)
        self._emit_scatter(dst, indices, self._bits(value), select)
        shared = isinstance(inst, insts.StoreShared)
        self.tally["shared_bits_stored" if shared else "global_bits_stored"] += (
            value.layout.size * dst.dtype.nbits * int(counted.sum())
        )

    def _h_copy_async(self, inst: insts.CopyAsync, active) -> None:
        src = self._operand(inst.src, _View, "copy_async source")
        dst = self._operand(inst.dst, _View, "copy_async destination")
        shape = inst.copy_shape()
        src_idx, dst_idx = tileops.copy_indices(
            shape,
            self.numbers(inst.src_offset, active),
            self.numbers(inst.dst_offset, active),
            self.nblocks,
        )
        pat = self._emit_zfill_gather(src, src_idx)
        self._emit_scatter(dst, dst_idx, pat, active[:, None])
        count = int(active.sum())
        self.tally["copy_async_issued"] += count
        self.tally["global_bits_loaded"] += int(np.prod(shape)) * src.dtype.nbits * count

    def _h_nothing(self, inst, active) -> None:
        """Commit/wait group bookkeeping has no effect on a flat trace."""

    # computation -----------------------------------------------------------
    def _h_binary(self, inst: insts.ElementwiseBinary, active) -> None:
        a = self._operand(inst.a, _Reg, "binary operand")
        av = self._vals(a)
        if isinstance(inst.b, TensorVar):
            b = self._operand(inst.b, _Reg, "binary operand")
            tileops.check_same_tiling(a.layout, b.layout)
            b_expr = self._vals(b)
        else:
            value = self.scalar(inst.b, active, control=True)
            if isinstance(value, np.ndarray):
                b_expr = f"{self.em.const(value)}.reshape(-1, 1, 1)"
            else:
                b_expr = _lit(value)
        res = f"_ew({self._dtype_const(a.dtype)}, {inst.op!r}, {av}, {b_expr})"
        self._bind_tensor(inst.out, self._encode(a.dtype, a.layout, res), active)

    def _h_neg(self, inst: insts.Neg, active) -> None:
        a = self._operand(inst.a, _Reg, "neg operand")
        self._bind_tensor(
            inst.out, self._encode(a.dtype, a.layout, f"-{self._vals(a)}"), active
        )

    def _h_cast(self, inst: insts.Cast, active) -> None:
        a = self._operand(inst.a, _Reg, "cast operand")
        av = self._vals(a)
        if inst.dtype.is_integer and a.dtype.is_float:
            av = f"np.trunc({av})"
        self._bind_tensor(
            inst.out, self._encode(inst.dtype, a.layout, av), active
        )

    def _h_reduce_sum(self, inst: insts.ReduceSum, active) -> None:
        logical, lshape = self._logical(inst.a, "reduce operand")
        rshape = tuple(
            1 if d == inst.axis + 1 else e for d, e in enumerate(lshape)
        )
        reduced = f"{logical}.sum(axis={inst.axis + 1}, keepdims=True)"
        self._bind_tensor(inst.out, self._from_logical(inst.out, reduced, rshape), active)

    def _h_lookup(self, inst: insts.Lookup, active) -> None:
        codes = self._operand(inst.codes, _Reg, "lookup codes")
        table = self.lookup_tensor(inst.table)
        safe = self.em.value(
            f"{self._vals(codes)}.astype(np.int64).reshape({self.nblocks}, -1)"
        )
        if not bool(active.all()):
            safe = self.em.value(
                f"np.where({self.em.const(active)}[:, None], {safe}, 0)"
            )
        act_rows = self.em.const(active)
        if isinstance(table, _Reg):
            logical, lshape = self._logical(inst.table, "lookup table")
            extent = lshape[1]
        elif isinstance(table, _View):
            extent = table.shape[0]
        else:
            raise LoweringBailout("lookup table is neither register nor view")
        msg = self.em.const(tileops.lookup_message(extent))
        self.em.effect(f"_lk({safe}[{act_rows}], {extent}, {msg})")
        if isinstance(table, _Reg):
            bidx = self.em.const(np.arange(self.nblocks, dtype=np.int64)[:, None])
            values = self.em.value(
                f"{logical}[{bidx}, np.clip({safe}, 0, {extent - 1})]"
            )
        else:
            # Data-dependent addresses: the whole gather runs in the kernel.
            values = self.em.value(
                f"_dec({self._dtype_const(table.dtype)}, _gather("
                f"{table.buf}, {table.name}[:, None] + {safe} * {table.dtype.nbits}, "
                f"{table.dtype.nbits}, {table.dtype.nbits % 8 == 0}, "
                f"{self.em.const(table.oob_msg())}))",
                reads=table.buf,
            )
        out_t = inst.out.ttype
        reg = self._encode(
            out_t.dtype, out_t.layout, f"{values}.reshape({self._shape3(out_t.layout)!r})"
        )
        self._bind_tensor(inst.out, reg, active)

    def _h_view(self, inst: insts.View, active) -> None:
        a = self._operand(inst.a, _Reg, "view operand")
        out_t = inst.out.ttype
        tileops.check_view(a.dtype, a.layout, out_t.dtype, out_t.layout)
        bits = self._regrouped(a, out_t.dtype.nbits, out_t.layout.local_size)
        self._bind_tensor(inst.out, _Reg(out_t.dtype, out_t.layout, bits=bits), active)

    def _h_dot(self, inst: insts.Dot, active) -> None:
        al, ashape = self._logical(inst.a, "dot operand")
        bl, bshape = self._logical(inst.b, "dot operand")
        cl, _ = self._logical(inst.c, "dot operand")

        def f64(name: str, var: TensorVar) -> str:  # decoded floats already are
            return name if var.ttype.dtype.is_float else f"{name}.astype(np.float64)"

        res = f"{f64(al, inst.a)} @ {f64(bl, inst.b)} + {cl}"
        rshape = (self.nblocks, ashape[1], bshape[2])
        self._bind_tensor(inst.out, self._from_logical(inst.out, res, rshape), active)
        self.tally["dot_ops"] += (
            ashape[1] * ashape[2] * bshape[2] * int(active.sum())
        )

    # misc ------------------------------------------------------------------
    def _h_synchronize(self, inst, active) -> None:
        self.tally["synchronizations"] += int(active.sum())

    def _h_exit(self, inst, active) -> None:
        self.exited |= active


_Tracer.handlers = {
    insts.BlockIndices: _Tracer._h_block_indices,
    insts.ViewGlobal: _Tracer._h_view_global,
    insts.AllocateRegister: _Tracer._h_allocate_register,
    insts.AllocateShared: _Tracer._h_allocate_shared,
    insts.FreeShared: _Tracer._h_free_shared,
    insts.LoadGlobal: _Tracer._h_load,
    insts.LoadShared: _Tracer._h_load,
    insts.StoreGlobal: _Tracer._h_store,
    insts.StoreShared: _Tracer._h_store,
    insts.CopyAsync: _Tracer._h_copy_async,
    insts.CopyAsyncCommitGroup: _Tracer._h_nothing,
    insts.CopyAsyncWaitGroup: _Tracer._h_nothing,
    insts.ElementwiseBinary: _Tracer._h_binary,
    insts.Neg: _Tracer._h_neg,
    insts.Cast: _Tracer._h_cast,
    insts.ReduceSum: _Tracer._h_reduce_sum,
    insts.Lookup: _Tracer._h_lookup,
    insts.View: _Tracer._h_view,
    insts.Dot: _Tracer._h_dot,
    insts.Synchronize: _Tracer._h_synchronize,
    insts.Exit: _Tracer._h_exit,
}


# ---------------------------------------------------------------------------
# Pass 3: forward values
# ---------------------------------------------------------------------------


class ForwardValues:
    """Pass 3: keep what the kernel reads.

    Forwarding has two halves.  While the trace is recorded, a register
    is a :class:`_Reg` of lazily emitted twins and every consumer takes
    the twin it computes on, so a conversion nobody asks for is never
    written; equal expressions share one temporary.  This pass is the
    half that needs the whole trace, one backward liveness walk: a
    statement survives if it is a check or a store, a gather (its bounds
    check is an effect), or is read by a survivor — view bases only
    folded addresses used, merges of values never read again and dead
    program code all go — and every temporary is released after its last
    reader, so the kernel's working set is the live values and numpy
    reuses their (cache-warm) memory instead of growing by one array per
    statement until the function returns.
    """

    name = PASS_NAMES[2]

    @staticmethod
    def run(state: _LoweringState) -> list[_Stmt]:
        needed: set = set()
        kept = []  # built last statement first
        for stmt in reversed(state.emitter.stmts):
            if stmt.target is None or stmt.checked or stmt.target in needed:
                reads = dict.fromkeys(_TEMP_NAME.findall(stmt.expr))
                last = [name for name in reads if name not in needed]
                if last:
                    kept.append(_Stmt(None, "del " + ", ".join(last)))
                needed.update(reads)
                if stmt.target is not None and stmt.target not in needed:
                    stmt = _Stmt(None, stmt.expr)  # gathered for its check only
                kept.append(stmt)
        return kept[::-1]


# ---------------------------------------------------------------------------
# Pass 4: flatten to source
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
    """Pass 4: assemble, ``compile()`` and wrap the trace."""

    name = PASS_NAMES[3]

    @staticmethod
    def run(state: _LoweringState, tracer: _Tracer, stmts: list[_Stmt]) -> LoweredKernel:
        body: list[str] = []
        for slot in range(len(state.ptr_indices)):
            body.append(f"p{slot} = ptrs[{slot}]")
        if tracer.shared.used:
            body.append(f"sm = np.zeros({tracer.shared.nbytes}, dtype=np.uint8)")
        body.extend(
            stmt.expr if stmt.target is None else f"{stmt.target} = {stmt.expr}"
            for stmt in stmts
        )
        for fname in _STAT_FIELDS:
            delta = tracer.tally[fname]
            if delta:
                body.append(f"stats.{fname} += {delta}")
        if not body:
            body.append("pass")
        source = "def _jit_kernel(mem, ptrs, stats):\n" + "\n".join(
            "    " + line for line in body
        )
        # The pool a kernel carries (and the store persists) is what its
        # source names: constants folded away at compile time stay behind.
        pool = state.emitter.consts
        consts = {name: pool[name] for name in _CONST_NAME.findall(source)}
        code = compile(source, f"<jit:{state.program.name}>", "exec")
        namespace = dict(_HELPERS)
        namespace.update(consts)
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
            shared_used=tracer.shared.used,
            num_consts=len(consts),
            num_params=len(state.program.params),
            _fn=namespace["_jit_kernel"],
            consts=consts,
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
    passes over ``G`` times the blocks, pointers bound per block.
    """
    recorder = obs_trace.ACTIVE
    start = recorder.now() if recorder is not None else 0.0
    state = SpecializeConstants.run(
        program, args, memory, shared_capacity, launches
    )
    tracer = UnrollAndTrace.run(state)
    kernel = FlattenToSource.run(state, tracer, ForwardValues.run(state))
    if recorder is not None:
        recorder.complete(
            f"jit.lower:{program.name}",
            "jit",
            obs_trace.HOST_TID,
            start,
            recorder.now() - start,
        )
    return kernel
