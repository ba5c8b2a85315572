"""Grid-vectorized VM execution engine.

The sequential :class:`~repro.vm.interp.Interpreter` runs thread blocks one
after another in a Python loop, so per-instruction Python overhead is paid
once *per block*.  Thread blocks are independent by construction (paper
Section 6), which makes the grid a perfect vectorization axis: this module
executes **all blocks in lockstep**, representing every register tile as a
``(num_blocks, num_threads, elements_per_thread)`` array and every memory
transfer as one stacked gather/scatter, so per-instruction overhead is
paid once *per launch*.

This module holds the one handler set of the block-vectorised tiers.
What a tile operation means on that representation — codecs, regrouping
for ``View``, gather/scatter, index and bounds rules, the shared-memory
allocator — is the table in :mod:`repro.vm.tileops`.  What lives here is
what an *instruction* does with it: the block-vectorised scalar evaluator,
the two tensor value types (:class:`Register`, :class:`View`), the masked
statement walk (:class:`LockstepWalk`) and one handler per instruction
(:class:`TileWalk`), each written once as plain numpy plus table calls.
:class:`BatchedExecutor` runs that walk on arrays; the lowering pipeline
(:mod:`repro.compiler.lower`) runs the same walk with the device buffer,
the shared buffer and the pointer arguments left symbolic, and what the
handlers then compute *is* the kernel.  So the interpreted tier, the
compiled tier and their error behaviour cannot disagree: a new
instruction, dtype rule or counter is one edit.

A stack reads its shared operands once
--------------------------------------
``launch_many`` stacks several launches' grids on the block axis.  Where
every launch of the stack would load the same addresses — the view's
base and the tile's offsets repeat launch by launch (a decode step's
weights and scales, passed by every launch through one pointer) and no
block is masked off — the load is made once, on one launch's rows, and
the register says so (``Register.shared``).  ``View``, ``Cast``, ``Neg``,
``ReduceSum``, a register ``Lookup`` and an elementwise op whose operands
all hold one launch's rows keep them, so the unpack / cast / dequantize
chain behind a shared load runs on ``B / launches`` rows; ``Dot``
broadcasts such an operand against a per-launch one over the launch
axis; everything else — stores, divergent merges, an op with a
per-launch operand, anything under a partial mask — first repeats the
rows for the whole stack (:meth:`TileWalk.stack`).  It is an ``if`` on
what the launch's arguments decide, like every instruction-selection
rule here, so the engine takes it on arrays and lowering on names; the
counters still advance for every block, as if the launches ran back to
back.

A loop runs what its iterations do alike once
---------------------------------------------
A ``for`` loop whose extent is one number for every block, whose body is
straight-line register and load instructions (no store, allocation,
free, print or exit; at most one ``Lookup``), scalar assignments from the
loop variable and the ``cp.async`` ring — copies from global into shared
memory, their fences, an ``if`` around them — and which runs under a
full mask is *distributed* (:meth:`TileWalk.distributed`).  Its early
statements — those that read no value a later statement of the body
assigns, nor one the accumulator chain computes (:func:`loop_split`,
worked out once per loop) — run once, on ``iterations x`` the rows: the
loop variable and every assignment are per-row arrays, every value
defined before the loop is repeated for each iteration.  The copies
write a :class:`Journal`, not shared memory: every shared read gathers
the state its place in the serial order sees, and the last state is
written back.  The rows stay launch-major (launch, then
iteration, then block), so a shared operand holds ``iterations x B /
launches`` rows and :meth:`TileWalk.one_launch`, :meth:`TileWalk.stack`
and the ``Dot`` broadcast work unchanged.  The rest — the ``Dot`` /
in-place accumulator chain and what reads it — then runs ``iterations``
times, each on iteration ``k``'s cut of the early registers
(``Register.part``, cut lazily from whichever twin the reader takes, so
the serial ``Dot`` sees the operand shapes of the unrolled loop).
Counters advance per iteration as before; after the loop the early
registers and the loop variable hold their last iteration's values.  If
an early statement raises, the attempt is forgotten (:func:`tileops.rewind`)
and the loop runs serially, so every error is the serial loop's.

A masked tile carries only its live lanes
-----------------------------------------
A masked load that leaves lanes out of bounds holds just the in-bounds
ones (``Register.live``); what reads it as a logical tensor gets one
scatter of their decoded values into the decoded zero pattern, laid out
straight into the row order a distributed loop cuts.  A ``Cast`` of a
register held only as a logical tensor stays logical and rounds when
read, and a masked store takes from such a register only the lanes it
writes (:meth:`TileWalk.written`).  Bits and
decoded values keep their definitions, so what reads them is unchanged.

Engine selection
----------------
``runtime/executor.py::execute`` decides ``engine="auto"`` from
:func:`supports_batched`:

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

import copy
from typing import NamedTuple, Sequence

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
from repro.vm.dispatch import LOCKSTEP, bounds_mask, decompose_linear
from repro.vm.interp import ExecutionStats
from repro.vm.memory import GlobalMemory, TensorView
from repro.vm.tileops import BatchedSharedMemory


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
# Tensor values
# ---------------------------------------------------------------------------


class Register:
    """All blocks' copies of one register tensor, as up to three twins of
    one value: ``bits`` — ``(rows, T, L)`` uint64 patterns, the paper's
    packed per-thread bits; ``vals`` — the same shape decoded, exactly
    ``decode(dtype, bits)``; ``logical`` — ``(rows,) + layout.shape``,
    exactly ``gather_logical`` of ``vals``.

    ``rows`` is ``B``, one per block — or, when ``shared``, one launch's
    ``B / launches``: every launch of the stack holds the same value
    (it was loaded from addresses the whole stack shares, or computed
    from such values alone), so it is held once
    (:meth:`TileWalk.one_launch`, :meth:`TileWalk.operands`).

    A register is born with the twin its producer computes (a load has
    bits, arithmetic has values, ``Dot`` the logical tensor) and the
    others appear the first time an instruction reads them
    (:meth:`TileWalk.bits` / ``vals`` / ``logical``): a value stays
    decoded between instructions and is packed only where bits are read —
    a ``View``, a store, a divergent merge.  Each twin is an array, or
    under a lowering trace the kernel's name for one.

    Two producers hold less than a twin.  A masked load that leaves lanes
    out of bounds holds its ``live`` lanes: ``(valid, patterns)``, the
    launch-constant ``(rows, T * L)`` mask of in-bounds lanes and one
    gathered pattern per True, row-major.  Its bits are those placed into
    zeros and its logical tensor one scatter of the decoded live values
    (:meth:`TileWalk.live_logical`), so an ``M = 1`` row of an ``m16``
    tile decodes and moves one row, not sixteen.  A ``Cast`` of a
    register held only as a logical tensor holds its result
    ``unrounded``: its logical twin is ``requantize(dtype,
    unrounded)``, rounded when read — a masked store rounds and packs only
    the lanes it writes (:meth:`TileWalk.written`).

    ``part`` is ``(walk, whole, k)`` for iteration ``k`` of a register a
    distributed loop computed once for all its iterations on ``walk``'s
    rows (:meth:`TileWalk.distributed`): a twin is then computed on the
    whole and cut to the iteration (:meth:`TileWalk.cut`).
    """

    __slots__ = ("dtype", "layout", "bits", "vals", "logical", "live", "unrounded",
                 "shared", "part")

    def __init__(self, dtype, layout, bits=None, vals=None, logical=None, live=None,
                 unrounded=None, shared: bool = False, part=None) -> None:
        self.dtype = dtype
        self.layout = layout
        self.bits = bits
        self.vals = vals
        self.logical = logical
        self.live = live
        self.unrounded = unrounded
        self.shared = shared
        self.part = part

    def __repr__(self) -> str:
        return f"Register({self.dtype}, {self.layout.short_repr()})"

    @property
    def logical_only(self) -> bool:
        """Held as a logical tensor (rounded or not) and nothing else."""
        return (self.part is None and self.live is None and self.bits is None
                and self.vals is None)


class View:
    """Per-block typed windows into one flat byte buffer.

    ``base[b]`` is the byte address of element 0 for block ``b`` (bases
    are whole bytes: pointers and 16-byte shared granules); element ``k``
    of an ``nbits``-wide tensor occupies bits ``[8 * base + k * nbits,
    ...)``.  Global views share the device buffer, shared views use one
    row per block of a flat :class:`BatchedSharedMemory` buffer.  Under a
    lowering trace ``buf`` is the kernel's name for the buffer and
    ``base`` stays affine in its pointer arguments.
    """

    __slots__ = ("buf", "base", "dtype", "shape", "buflen", "oob")

    def __init__(self, buf, base, dtype, shape: tuple, buflen: int) -> None:
        self.buf = buf
        self.base = base
        self.dtype = dtype
        self.shape = tuple(int(s) for s in shape)
        self.buflen = buflen
        #: The message of an access outside the buffer.
        self.oob = tileops.oob_message(dtype, self.shape, buflen)


# ---------------------------------------------------------------------------
# The masked statement walk
# ---------------------------------------------------------------------------


class LockstepWalk:
    """SIMT-style execution of a statement tree over all blocks at once.

    Every statement runs under a boolean *active mask* over blocks;
    ``if``/``for``/``while`` split and re-converge it, ``break``/
    ``continue``/``Exit`` subtract from it.  Scalars are whatever
    :func:`batched_evaluate` computes on the environment's values;
    :class:`TileWalk` says what an instruction does.
    """

    def __init__(self, nblocks: int, env: dict) -> None:
        self.nblocks = nblocks
        self.env = env
        self.exited = np.zeros(nblocks, dtype=bool)
        self._breaks: list[np.ndarray] = []

    def scalar(self, expr: Expr, active: np.ndarray):
        """Evaluate a scalar expression for the active blocks."""
        return batched_evaluate(expr, self.env, active)

    def instruction(self, inst, active: np.ndarray) -> None:
        raise NotImplementedError

    def distributed(self, loop: ForStmt, extent: int, active: np.ndarray) -> bool:
        """Run ``loop``, whose extent is ``extent`` for every block, with
        what its iterations do alike done once for all of them; False
        leaves it to the serial walk."""
        return False

    def step(self) -> None:
        """Called once per statement visited (a lowering trace counts
        them against its budget)."""

    def bind(self, var, value, active: np.ndarray, merge) -> None:
        """Bind ``var`` for the active blocks; where some are inactive and
        hold an older value, keep theirs: ``merge(value, old)``."""
        old = None if bool(active.all()) else self.env.get(var)
        self.env[var] = value if old is None else merge(value, old)

    def bind_scalar(self, var: Var, value, active: np.ndarray) -> None:
        self.bind(var, value, active, lambda new, old: np.where(active, new, old))

    def lookup_tensor(self, var: TensorVar):
        value = self.env.get(var)
        if value is None:
            raise VMError(f"tensor {var.name} used before definition")
        return value

    def numbers(self, exprs, active: np.ndarray) -> list:
        """The values of index/offset expressions for the active blocks."""
        return [self.scalar(e, active) for e in exprs]

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
            cond = self.scalar(stmt.cond, active)
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
            extent = self.scalar(stmt.extent, active)
            extent = extent.astype(np.int64) if _is_arr(extent) else int(extent)
            if not _is_arr(extent) and self.distributed(stmt, extent, active):
                return active & ~self.exited
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
                cmask = tileops.as_mask(self.scalar(stmt.cond, base), self.nblocks)
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


# ---------------------------------------------------------------------------
# Loop distribution: which statements of a loop run once for every iteration
# ---------------------------------------------------------------------------

#: What a distributed loop's body may hold: instructions that compute on
#: registers and read memory — no store, allocation, free, print or exit,
#: so running one early for every iteration changes nothing another
#: statement of the loop can observe.
_DISTRIBUTABLE = frozenset({
    insts.LoadGlobal, insts.LoadShared, insts.ElementwiseBinary, insts.Neg,
    insts.Cast, insts.View, insts.Dot, insts.ReduceSum, insts.Lookup,
})

#: And the ``cp.async`` ring, which may also sit in an ``if`` without
#: ``else``: copies from global into shared memory, which write a journal,
#: not the buffer (:class:`Journal`), and the fences and groups around
#: them, which only count.
_RING = frozenset({
    insts.CopyAsync, insts.Synchronize, insts.CopyAsyncWaitGroup, insts.CopyAsyncCommitGroup,
})

_SPLIT_ATTR = "_vm_loop_split"


class LoopSplit(NamedTuple):
    """How a loop distributes (:func:`loop_split`)."""

    #: The body's statements in serial order — instructions and scalar
    #: assignments; an ``if``'s instructions in place of the ``if``.
    stmts: tuple
    #: Per statement: whether it runs on every iteration's rows at once.
    early: tuple
    #: The variables defined before the loop that those statements read.
    reads: tuple
    #: Per statement: the condition of the ``if`` it sits in, or None.
    guards: tuple
    #: Per statement: the copies before it in the body.
    copies_before: tuple
    #: The distinct ``copies_before`` of the body's shared loads: the
    #: points of an iteration at which the journal is read.
    points: tuple
    #: The ``CopyAsync`` instructions in the body.
    copies: int


def loop_split(loop: ForStmt):
    """How ``loop`` distributes — worked out once per loop and kept on
    it — as a :class:`LoopSplit`; None when the loop runs serially.

    The body must be :data:`_DISTRIBUTABLE` and :data:`_RING`
    instructions (at most one ``Lookup``: its run-time code check must
    keep the serial order), ``if`` statements without ``else`` around ring
    instructions, and scalar assignments, each variable assigned once.
    An assignment or an ``if`` condition may read only the loop variable
    and values defined before the loop; it is evaluated once on every
    iteration's rows, and an assignment is bound again per iteration for
    the serial statements.  An instruction runs early when it reads no
    register the body assigns at or after it (no loop-carried value),
    none a serial one assigns (nothing downstream of the accumulator
    chain), no scalar assigned at or after it, and its own output is
    assigned nowhere else in the body.  A ring instruction always runs
    early, so it must read only what is defined before it; a shared load
    must then run early too (it reads the journal).
    """
    stmts = [s for s in loop.body.walk() if not isinstance(s, SeqStmt)]
    cached = loop.__dict__.get(_SPLIT_ATTR)
    if cached is None or cached[0] != stmts:
        # Worked out again only if a compiler pass (dead-code
        # elimination) rewrote the body in place.
        cached = loop.__dict__[_SPLIT_ATTR] = (stmts, _split(loop.var, loop.body))
    return cached[1]


def _flat(stmt: Stmt) -> list:
    return [s for child in stmt.body for s in _flat(child)] if isinstance(stmt, SeqStmt) else [stmt]


def _body(body: Stmt):
    """``(statement, guard)`` in serial order, an ``if``'s ring
    instructions guarded by its condition; None for any other shape."""
    steps = []
    for stmt in _flat(body):
        if isinstance(stmt, IfStmt):
            inner = _flat(stmt.then_body)
            if stmt.else_body is not None or not all(
                isinstance(s, InstructionStmt) and type(s.instruction) in _RING for s in inner
            ):
                return None
            steps += [(s, stmt.cond) for s in inner]
        elif isinstance(stmt, AssignStmt) or (
            isinstance(stmt, InstructionStmt)
            and type(stmt.instruction) in _DISTRIBUTABLE | _RING
        ):
            steps.append((stmt, None))
        else:
            return None
    return steps


def _split(loop_var: Var, body: Stmt):
    steps = _body(body)
    if steps is None:
        return None
    stmts = [s for s, _ in steps]
    assigned_at = {s.var: i for i, s in enumerate(stmts) if isinstance(s, AssignStmt)}
    if len(assigned_at) < sum(isinstance(s, AssignStmt) for s in stmts) or sum(
        isinstance(s, InstructionStmt) and isinstance(s.instruction, insts.Lookup) for s in stmts
    ) > 1:
        return None

    def scalars(*exprs) -> dict:  # the variables they read, in order
        return dict.fromkeys(node for expr in exprs for node in expr.walk()
                             if isinstance(node, Var) and node != loop_var)

    outputs = [s.instruction.output if isinstance(s, InstructionStmt) else None for s in stmts]
    last = {var: i for i, var in enumerate(outputs) if var is not None}
    early, serial, reads, before, copies = [], set(), {}, [], 0
    for i, (stmt, guard) in enumerate(steps):
        before.append(copies)
        if isinstance(stmt, AssignStmt):
            if assigned_at.keys() & scalars(stmt.value):
                return None
            reads.update(scalars(stmt.value))
            early.append(True)
            continue
        inst = stmt.instruction
        inputs = inst.inputs()
        operands = scalars(*inst.scalar_operands(), *([guard] if guard is not None else []))
        late = any(assigned_at.get(var, -1) >= i for var in operands)
        if type(inst) in _RING:
            if late or any(var in last for var in inputs) or (
                guard is not None and assigned_at.keys() & scalars(guard)
            ):
                return None
            stays = False
            copies += isinstance(inst, insts.CopyAsync)
        else:
            stays = late or outputs.count(outputs[i]) > 1 or any(
                last.get(var, -1) >= i or var in serial for var in inputs
            )
        if stays:
            serial.add(outputs[i])
        else:
            reads.update(dict.fromkeys(var for var in inputs if var not in last))
            reads.update(dict.fromkeys(var for var in operands if var not in assigned_at))
        early.append(not stays)
    if not any(first and isinstance(s, InstructionStmt) for s, first in zip(stmts, early)):
        return None
    loads = [i for i, s in enumerate(stmts)
             if isinstance(s, InstructionStmt) and isinstance(s.instruction, insts.LoadShared)]
    if copies and not all(early[i] for i in loads):
        return None
    return LoopSplit(
        tuple(stmts), tuple(early), tuple(reads), tuple(g for _, g in steps), tuple(before),
        tuple(sorted({before[i] for i in loads})) if copies else (), copies,
    )


# ---------------------------------------------------------------------------
# The shared-memory journal of a distributed loop's copies
# ---------------------------------------------------------------------------

#: The most bytes a journal's states may hold (every read point of every
#: iteration, one region each); a loop that would need more runs serially.
_JOURNAL_BYTES_KEPT = 1 << 24


class Journal:
    """What a distributed loop's copies write into shared memory, kept
    apart from it so every shared read of the loop sees the bytes its
    place in the serial order sees.

    The copies run first, once on every iteration's rows; each is
    recorded (:meth:`record`): the patterns it copies and the journal
    cell of every byte they write — every block's allocated shared bytes
    are ``span`` cells, block-major, plus one trash cell that takes what
    a row the copy's guard leaves out would write.  :meth:`seal` then
    builds, from the pre-loop buffer, one state of those cells per read
    point of every iteration and the last one, applying the copies
    iteration by iteration, copy by copy (:func:`tileops.journal`).  A
    shared read (:meth:`read`) gathers its bytes from the state of its
    iteration and point; :meth:`write_back` leaves the last state in the
    buffer, as the serial loop leaves it.  Cells and the states to read
    are launch constants: a lowering trace folds them, and records the
    journal and its reads as table calls.
    """

    def __init__(self, walk: "TileWalk", points: tuple) -> None:
        self.buf = walk.shared.buffer
        self.blocks = walk.nblocks // walk.iterations
        self.span = walk.shared.span
        self.trash = self.blocks * self.span  # the last cell
        #: Per row, what to add to a shared byte address for its cell.
        self.to_cell = -walk.copied * (walk.shared.row_bytes - self.span)
        self.points = points
        #: Per copy, in body order: (cells (rows, lanes), patterns, bytes per element).
        self.copies: list = []

    def record(self, dst: View, indices: list, patterns, active: np.ndarray) -> None:
        """A copy of ``patterns`` to ``dst`` at (rows, n) ``indices``
        where ``active`` holds."""
        width = dst.dtype.nbits // 8
        everything = bool(active.all())
        linear = tileops.linear_index(
            dst.shape, dst.dtype, indices, where=None if everything else active[:, None]
        )
        cells = (dst.base + self.to_cell)[:, None] + linear * width
        if width > 1:
            cells = (cells[..., None] + np.arange(width)).reshape(cells.shape[0], -1)
        if not everything:
            cells[~active] = self.trash
        self.copies.append((cells, patterns, width))

    def seal(self, walk: "TileWalk") -> None:
        """Build the states: one at every read point of every iteration
        (after the body's first ``c`` copies, for each point ``c``) and
        one at the end.  Between two, the copies' moves: a copy's rows of
        one iteration, one run of them per launch."""
        per = self.blocks // walk.launches
        steps, moves = [], []
        for k in range(walk.iterations):
            for c in range(len(self.copies) + 1):
                if c in self.points:
                    steps.append(tuple(moves))
                    moves = []
                if c < len(self.copies):
                    lanes = self.copies[c][0].shape[1]
                    moves += [(c, row * lanes, (row + per) * lanes)
                              for row in range(k * per, walk.nblocks, walk.per_launch)]
        steps.append(tuple(moves))
        ops = walk.ops
        self.region = (
            np.arange(self.blocks, dtype=np.int64)[:, None] * walk.shared.row_bytes
            + np.arange(self.span)
        ).reshape(-1)
        self.states = ops.hold(ops.journal(
            self.buf, self.region, tuple(steps),
            tuple(cells.reshape(-1) for cells, _, _ in self.copies),
            tuple(width for *_, width in self.copies),
            *(patterns for _, patterns, _ in self.copies),
        ))
        self.flat = ops.hold(self.states.reshape(-1))

    def read(self, walk: "TileWalk", addr, width: int, msg: str):
        """The ``width``-byte patterns at (rows, n) shared byte addresses
        ``addr`` as the read at ``walk``'s current point sees them."""
        state = walk.iteration_index * len(self.points) + walk.point
        cell = (state * (self.trash + 1) + self.to_cell)[:, None] + addr
        return walk.ops.gather_bytes(self.flat, cell, width, msg)

    def write_back(self, walk: "TileWalk") -> None:
        """Leave the loop's last state in the buffer."""
        last = self.states[-1]
        walk.ops.scatter_bytes(
            self.buf, self.region, last[:self.trash], 1, "journal write-back: {}"
        )


# ---------------------------------------------------------------------------
# What an instruction does
# ---------------------------------------------------------------------------


class TileWalk(LockstepWalk):
    """The lockstep walk with the instruction set on it: one handler per
    instruction, written once as numpy over register twins and view bases
    plus calls into the tile-semantics table through ``ops``.

    Executing, ``ops`` *is* :mod:`repro.vm.tileops`, ``mem`` the device
    buffer, pointers are numbers and every twin an array: the handlers
    compute (:class:`BatchedExecutor`).  Lowering runs the same handlers
    with ``mem``, the shared buffer and the pointer arguments left as
    names and an ``ops`` that calls the table when every argument is
    concrete and otherwise records the call: they write the kernel
    (:mod:`repro.compiler.lower`).  ``stats`` advances exactly as if the
    blocks had run one at a time.

    ``launches`` grids are stacked launch-major on the block axis.  What
    every launch of the stack would load from the same addresses is
    loaded once, on one launch's rows (:meth:`one_launch`), and stays on
    them through the instructions whose operands all do
    (:meth:`operands`); ``Dot`` broadcasts such an operand against a
    stacked one, everything else first repeats it for the whole stack
    (:meth:`stack`).

    A loop's early statements (:func:`loop_split`) run once, on a walk
    over ``iterations`` copies of these rows (:meth:`distributed`).
    """

    #: Copies of the rows this walk holds, one per iteration of the loop
    #: it runs distributed (:meth:`over_iterations`); 1 outside one.
    iterations = 1

    #: The :class:`Journal` of that loop's copies, if it has any, and the
    #: read point of the statement running (:attr:`LoopSplit.points`).
    journal = None
    point = 0

    #: What makes a distributed loop fall back to the serial walk: the
    #: errors an early statement can raise, which must be the serial
    #: loop's, raised at its iteration (a lowering trace adds its bailout).
    ROLLBACK = (VMError, IRError)

    def __init__(self, nblocks: int, env: dict, coords: tuple, ops,
                 memory: GlobalMemory, mem, shared: BatchedSharedMemory,
                 stats: ExecutionStats, launches: int = 1) -> None:
        super().__init__(nblocks, env)
        self.launches = launches
        self.per_launch = nblocks // launches
        self.block_coords = coords  # one (B,) array per grid dimension
        self.ops = ops
        self.memory = memory
        self.mem = mem
        self.shared = shared
        self.stats = stats
        #: Per-block buffered ``PrintTensor`` output, flushed in block
        #: order when the launch retires (created on first print).
        self.prints: list[list[str]] | None = None
        #: ``AllocateGlobal`` spans reserved so far, freed when the
        #: launch ends.
        self.workspaces: list[int] = []

    def instruction(self, inst, active: np.ndarray) -> None:
        self.stats.instructions += int(active.sum())
        LOCKSTEP.lookup(inst)(self, inst, active)

    def bind_tensor(self, var: TensorVar, value, active: np.ndarray) -> None:
        """All environment updates merge per block, so an inactive block
        observes no effect from instructions it did not execute."""
        self.bind(var, value, active, lambda new, old: self._merge(new, old, active))

    def _merge(self, new, old, active: np.ndarray):
        if isinstance(new, Register) and isinstance(old, Register):
            tileops.check_view(old.dtype, old.layout, new.dtype, new.layout)
            new, old = self.stack(new), self.stack(old)
            # Merged as bits: the old value may be of another type, and a
            # loaded pattern need not be the one its value encodes to.
            bits = np.where(
                active[:, None, None], self.bits(new), self.regrouped(old, new.dtype.nbits)
            )
            return Register(new.dtype, new.layout, bits=self.ops.hold(bits))
        if isinstance(new, View) and isinstance(old, View):
            if new.buf is not old.buf:
                raise VMError("cannot merge views over different buffers")
            base = np.where(active, new.base, old.base)
            return View(new.buf, base, new.dtype, new.shape, new.buflen)
        raise VMError("divergent merge of incompatible tensor kinds")

    # -- register rows ------------------------------------------------------
    def rows(self, shared: bool) -> int:
        return self.per_launch if shared else self.nblocks

    def shape3(self, layout, shared: bool = False) -> tuple:
        return (self.rows(shared), layout.num_threads, layout.local_size)

    def expand(self, twin, cell: tuple):
        """One launch's rows of ``cell``-shaped entries, repeated for
        every launch of the stack."""
        stack = np.broadcast_to(twin, (self.launches, self.per_launch) + cell)
        return self.ops.hold(stack.reshape((self.nblocks,) + cell))

    def stack(self, reg: Register) -> Register:
        """``reg`` on the whole stack's rows."""
        if not reg.shared:
            return reg
        cell = self.shape3(reg.layout)[1:]
        bits, vals, logical = self.twins(reg)
        return Register(
            reg.dtype, reg.layout,
            bits=None if bits is None else self.expand(bits, cell),
            vals=None if vals is None else self.expand(vals, cell),
            logical=None if logical is None else self.expand(logical, tuple(reg.layout.shape)),
        )

    def operands(self, active: np.ndarray, *regs: Register) -> list:
        """An instruction's register operands on common rows: one
        launch's when every one holds that and no block is masked off
        (the result then holds one launch's rows too), else the whole
        stack's."""
        if all(reg.shared for reg in regs) and bool(active.all()):
            return list(regs)
        return [self.stack(reg) for reg in regs]

    # -- register twins -----------------------------------------------------
    def bits(self, reg: Register):
        """``reg``'s patterns: where a value is packed."""
        if reg.bits is None:
            if reg.part:
                bits = self.cut(reg, "bits")
            elif reg.live is not None:
                bits = self.ops.place(*reg.live).reshape(self.shape3(reg.layout, reg.shared))
            else:
                bits = self.ops.encode(reg.dtype, self.vals(reg))
            reg.bits = self.ops.hold(bits)
        return reg.bits

    def vals(self, reg: Register):
        """``reg``'s decoded values."""
        if reg.vals is None:
            if reg.part:
                vals = self.cut(reg, "vals")
            elif reg.bits is not None or reg.live is not None:
                vals = self.ops.decode(reg.dtype, self.bits(reg))
            else:
                vals = self.ops.gather_logical(
                    self.logical(reg), self.shape3(reg.layout, reg.shared),
                    tileops.logical_slots(reg.layout),
                )
            reg.vals = self.ops.hold(vals)
        return reg.vals

    def logical(self, reg: Register):
        """``reg`` as a ``(B,) + layout.shape`` tensor of decoded values."""
        if reg.logical is None:
            if reg.part:
                logical = self.cut(reg, "logical")
            elif reg.unrounded is not None:
                logical = self.ops.requantize(reg.dtype, reg.unrounded)
            elif reg.live is not None:
                logical = self.live_logical(reg)
            else:
                logical = self.ops.gather_logical(
                    self.vals(reg),
                    (self.rows(reg.shared),) + tuple(reg.layout.shape),
                    tileops.logical_inverse(reg.layout),
                )
            reg.logical = self.ops.hold(logical)
        return reg.logical

    def live_logical(self, reg: Register, order=None):
        """The logical tensor of a register holding live lanes: one scatter
        of their decoded values into the decoded zero pattern — the
        positions composed, at compile time, from the valid mask, the
        layout's last writers and the row ``order``
        (:func:`tileops.live_positions`)."""
        valid, patterns = reg.live
        positions, keep = tileops.live_positions(valid, reg.layout, order)
        if keep is not None:
            patterns = patterns[keep]
        fill = tileops.decode(reg.dtype, np.zeros(1, dtype=np.uint64))
        return self.ops.live_logical(
            fill, self.ops.decode(reg.dtype, patterns),
            (valid.shape[0],) + tuple(reg.layout.shape), positions,
        )

    def written(self, reg: Register, select: np.ndarray):
        """The patterns of a register held only as a logical tensor at the
        ``(B, T * L)`` lanes ``select`` holds, row-major: its logical twin
        read through the layout's slots there, rounded (if it holds the
        tensor unrounded) and packed there alone."""
        lanes = np.arange(select.shape[0])[:, None] * reg.layout.size
        at = (lanes + tileops.logical_slots(reg.layout))[select]
        if reg.logical is not None:
            values = reg.logical.reshape(-1)[at]
        else:
            values = self.ops.requantize(reg.dtype, reg.unrounded.reshape(-1)[at])
        return self.ops.encode(reg.dtype, values)

    def twins(self, reg: Register) -> tuple:
        """``reg``'s ``(bits, vals, logical)`` as it holds them, one at
        least: live lanes are placed (bits: a loaded pattern need not be
        the one its value encodes to), an unrounded tensor is rounded —
        cut first, for a register of a distributed loop, from each twin
        its whole holds."""
        whole = reg.part[1] if reg.part else reg
        held = [twin for twin in ("bits", "vals", "logical") if getattr(whole, twin) is not None]
        for twin in held or ["bits" if whole.live is not None else "logical"]:
            getattr(self, twin)(reg)
        return reg.bits, reg.vals, reg.logical

    def cut(self, reg: Register, twin: str):
        """A twin of iteration ``k`` of a distributed loop's register:
        computed once on the whole, on the rows of every iteration, and
        cut to ``k``'s.  The logical tensor of live lanes is scattered
        straight into iteration-major rows."""
        walk, whole, k = reg.part
        if twin == "logical" and whole.logical is None and whole.live is not None:
            ordered = walk.by_iteration.get(id(whole))
            if ordered is None:
                ordered = walk.by_iteration[id(whole)] = (whole, self.ops.hold(
                    walk.live_logical(whole, walk.iteration_order(whole.shared))
                ))
            return walk.run(ordered[1], k, whole.shared)
        return walk.iteration(getattr(walk, twin)(whole), k, whole.shared)

    def regrouped(self, reg: Register, nbits: int):
        """``reg``'s bits read as ``nbits``-wide elements (zero-cost when
        the width is unchanged)."""
        bits = self.bits(reg)
        if reg.dtype.nbits == nbits:
            return bits
        return self.ops.hold(self.ops.regroup(bits, reg.dtype.nbits, nbits))

    def rounded(self, dtype, layout, values, shared: bool = False,
                logical: bool = False) -> Register:
        """A register of ``dtype`` holding ``values`` rounded to it — or,
        for values computed on a ``logical`` tensor, holding them
        unrounded: its logical twin rounds them when read."""
        if logical:
            return Register(dtype, layout, unrounded=self.ops.hold(values), shared=shared)
        return Register(
            dtype, layout, vals=self.ops.hold(self.ops.requantize(dtype, values)),
            shared=shared,
        )

    def from_logical(self, ttype, tensor, shape: tuple, shared: bool = False) -> Register:
        """The register a logical-tensor result of ``shape`` lands in.
        Rounding is elementwise, so it is applied to the tensor and the
        register is born logical: reading it back as a logical tensor
        (the next ``Dot`` of an accumulator chain) is the rounded tensor
        itself."""
        tileops.check_logical_shape(shape, ttype.layout)
        tileops.logical_inverse(ttype.layout)  # the claim needs every element held
        return Register(
            ttype.dtype, ttype.layout,
            logical=self.ops.hold(self.ops.requantize(ttype.dtype, tensor)),
            shared=shared,
        )

    # -- loop distribution --------------------------------------------------
    def distributed(self, loop: ForStmt, extent: int, active: np.ndarray) -> bool:
        """Run ``loop`` split in two (:func:`loop_split`): its early
        statements once, on every iteration's rows (:meth:`over_iterations`;
        the loop variable is a per-row array) — scalar assignments first,
        then the copies into the journal (:class:`Journal`), then the
        rest — then ``extent`` times the serial statements — the
        accumulator chain — each on iteration ``k``'s cut of the early
        registers, with the assignments bound again.  The early registers
        (and the loop variable) are left bound to the last iteration, and
        shared memory holds what the copies left, as the serial walk
        leaves them.  Only under a full mask and for two or more
        iterations; if an early statement fails, its work is forgotten
        and the loop runs serially, so what fails is the serial loop's
        error."""
        split = loop_split(loop) if extent > 1 and bool(active.all()) else None
        if split is None:
            return False
        ring = split.copies > 0
        if ring and not self.journals(split, extent):
            return False
        defined = [(var, self.env[var]) for var in split.reads if var in self.env]
        for _, value in defined:
            if isinstance(value, Register):
                # Cut before the mark: a rollback must not leave a register
                # of the enclosing walk naming a forgotten temporary.
                self.twins(value)
        walk = self.over_iterations(extent)
        mark = self.ops.mark()
        try:
            walk.env = {var: walk.spread(value) for var, value in defined}
            walk.env[loop.var] = walk.iteration_index
            everything = np.ones(walk.nblocks, dtype=bool)
            steps = list(zip(split.stmts, split.early, split.guards))
            for stmt, _, _ in steps:
                if isinstance(stmt, AssignStmt):
                    walk.env[stmt.var] = walk.scalar(stmt.value, everything)
            if ring:
                walk.journal = Journal(walk, split.points)
            for stmt, _, guard in steps:
                if isinstance(stmt, InstructionStmt) and type(stmt.instruction) in _RING:
                    mask = everything if guard is None else everything & tileops.as_mask(
                        walk.scalar(guard, everything), walk.nblocks
                    )
                    walk.instruction(stmt.instruction, mask)
            if ring:
                walk.journal.seal(walk)
            for (stmt, first, _), copies in zip(steps, split.copies_before):
                if first and isinstance(stmt, InstructionStmt) and stmt.instruction.output:
                    if copies in split.points:
                        walk.point = split.points.index(copies)
                    walk.instruction(stmt.instruction, everything)
            if ring:
                walk.journal.write_back(walk)
                walk.journal = None  # its arrays go with the loop, not the launch
        except self.ROLLBACK:
            self.ops.rewind(mark)
            return False
        self.stats.merge(walk.stats)
        for k in range(extent):
            self.bind_scalar(loop.var, k, active)
            for stmt, first, _ in steps:
                if not first or isinstance(stmt, AssignStmt):
                    self.run_stmt(stmt, active)
                elif stmt.instruction.output:
                    var = stmt.instruction.output
                    whole = walk.env[var]
                    self.env[var] = Register(
                        whole.dtype, whole.layout, shared=whole.shared, part=(walk, whole, k)
                    )
        return True

    def journals(self, split: LoopSplit, extent: int) -> bool:
        """Whether a loop with copies can run them through a journal:
        each copies a global view into a shared one of whole bytes, every
        shared view the loop reads is read by a ``LoadShared`` and of
        whole bytes, no ``Lookup`` reads a shared table, and the states
        fit :data:`_JOURNAL_BYTES_KEPT`."""
        def on_shared(var) -> bool:
            value = self.env.get(var)
            return isinstance(value, View) and self.shared.holds(value.buf)

        def whole_bytes(var) -> bool:
            return self.env[var].dtype.nbits % 8 == 0

        for stmt in split.stmts:
            inst = getattr(stmt, "instruction", None)
            if isinstance(inst, insts.CopyAsync):
                from_global = isinstance(self.env.get(inst.src), View) and not on_shared(inst.src)
                if not (from_global and on_shared(inst.dst) and whole_bytes(inst.dst)):
                    return False
            elif isinstance(inst, (insts.LoadGlobal, insts.LoadShared)) and on_shared(inst.src):
                if isinstance(inst, insts.LoadGlobal) or not whole_bytes(inst.src):
                    return False
            elif isinstance(inst, insts.Lookup) and on_shared(inst.table):
                return False
        states = extent * len(split.points) + 1
        return states * self.nblocks * self.shared.span <= _JOURNAL_BYTES_KEPT

    def over_iterations(self, iterations: int) -> "TileWalk":
        """This walk on ``iterations`` copies of its rows, with its own
        counters.  The rows stay launch-major — launch, then iteration,
        then block — so one launch's rows are still the first
        ``1 / launches`` of them (:meth:`one_launch`, :meth:`stack` and
        the ``Dot`` broadcast hold unchanged) and one launch's rows of
        one iteration are one contiguous run."""
        walk = copy.copy(self)
        walk.iterations = iterations
        walk.nblocks = self.nblocks * iterations
        walk.per_launch = self.per_launch * iterations
        walk.stats = ExecutionStats()
        grid = (self.launches, iterations, self.per_launch)
        blocks = np.arange(self.nblocks).reshape(self.launches, 1, self.per_launch)
        # The block each row copies, and the one each of one launch's rows
        # copies (``spread``); the iteration each row runs.
        walk.copied = np.broadcast_to(blocks, grid).reshape(-1)
        walk.copied_in_launch = np.tile(np.arange(self.per_launch), iterations)
        walk.iteration_index = np.broadcast_to(
            np.arange(iterations).reshape(1, iterations, 1), grid
        ).reshape(-1)
        #: id(twin) -> (twin, its rows iteration-major); for a register of
        #: live lanes, id(register) -> (register, its logical tensor so).
        walk.by_iteration = {}
        return walk

    def spread(self, value):
        """A value defined before a distributed loop, on this walk's
        rows: each block's repeated for every iteration."""
        if isinstance(value, Register):
            index = self.copied_in_launch if value.shared else self.copied
            return Register(value.dtype, value.layout, *(
                None if twin is None else self.ops.hold(twin[index])
                for twin in (value.bits, value.vals, value.logical)
            ), shared=value.shared)
        if isinstance(value, View):
            base = self.spread(value.base)
            return View(value.buf, base, value.dtype, value.shape, value.buflen)
        if isinstance(value, (int, float, np.generic)):
            return value
        return np.broadcast_to(value, (self.nblocks // self.iterations,))[self.copied]

    def iteration_order(self, shared: bool):
        """The order that makes each iteration's rows one contiguous run
        (row ``i`` is row ``order[i]``), None where they already are: one
        launch's rows, or one launch's stack."""
        if shared or self.launches == 1:
            return None
        order = np.arange(self.nblocks).reshape(self.launches, self.iterations, -1)
        return order.swapaxes(0, 1).reshape(-1)

    def iteration(self, twin, k: int, shared: bool):
        """Iteration ``k``'s rows of ``twin``, held on this walk's rows
        (one launch's when ``shared``): a contiguous run of them."""
        if self.iterations == 1:
            return twin
        order = self.iteration_order(shared)
        if order is not None:
            # The whole stack's rows are launch-major: gather them once
            # in iteration-major order, then every cut is a run.
            cached = self.by_iteration.get(id(twin))
            if cached is None:
                cached = self.by_iteration[id(twin)] = (twin, self.ops.hold(twin[order]))
            twin = cached[1]
        return self.run(twin, k, shared)

    def run(self, twin, k: int, shared: bool):
        """Iteration ``k``'s run of iteration-major rows."""
        per = self.rows(shared) // self.iterations
        return self.ops.hold(twin[k * per:(k + 1) * per])

    # -- view addressing ----------------------------------------------------
    def one_launch(self, view: View, indices: list, active: np.ndarray):
        """``(view, indices, True)`` cut to one launch's rows when every
        launch of the stack reads the same addresses — the base and every
        index repeat launch by launch and no block is masked off — else
        ``(view, indices, False)`` as they are."""
        if self.launches == 1 or not bool(active.all()):
            return view, indices, False
        base = self.ops.launch_rows(view.base, self.launches)
        if base is None:
            return view, indices, False
        cut = [tileops.launch_rows(index, self.launches) for index in indices]
        if any(index is None for index in cut):
            return view, indices, False
        return View(view.buf, base, view.dtype, view.shape, view.buflen), cut, True

    def gather(self, view: View, linear: np.ndarray, rows=None):
        """Patterns of ``view``'s elements at (B, n) linear indices — or
        at flat ones, ``rows`` naming the block of each."""
        nbits = view.dtype.nbits
        bit_off = linear * nbits
        addr = (view.base[:, None] if rows is None else view.base[rows]) + bit_off // 8
        if self.journal is not None and view.buf is self.journal.buf:
            # A LoadShared: unmasked, of whole bytes (TileWalk.journals).
            return self.journal.read(self, addr, nbits // 8, view.oob)
        if nbits % 8 == 0:
            return self.ops.gather_bytes(view.buf, addr, nbits // 8, view.oob)
        shift = (bit_off % 8).astype(np.uint64)
        return self.ops.gather_subbyte(view.buf, addr, shift, nbits, view.oob)

    def gather_masked(self, view: View, indices: list, shared: bool = False):
        """Gather with out-of-bounds elements reading as zero bits (masked
        loads, ``cp.async`` zfill): the ``(rows, n)`` patterns when every
        lane is in bounds, else the live lanes ``(valid, patterns)`` — only
        the in-bounds lanes gathered, selected like a scatter's.  A tile
        wholly out of bounds touches no memory."""
        valid = bounds_mask(indices, view.shape)
        if bool(valid.all()):
            return self.gather(view, tileops.linear_index(view.shape, view.dtype, indices))
        rows = self.rows(shared)
        selected = tileops.select_flat(indices, rows, valid)
        if selected is None:
            return np.zeros((rows, valid.shape[-1]), dtype=np.uint64)
        flat, rows, valid = selected
        linear = tileops.linear_index(view.shape, view.dtype, flat)
        return valid, self.gather(view, linear, rows)

    def gather_zfill(self, view: View, indices: list, shared: bool = False):
        """:meth:`gather_masked`'s patterns, live lanes placed into zeros."""
        got = self.gather_masked(view, indices, shared)
        return self.ops.place(*got) if isinstance(got, tuple) else got

    def scatter(self, view: View, indices: list, value, select: np.ndarray) -> None:
        """Write ``value`` — patterns, one per index, or a register held
        only as a logical tensor (:meth:`written`) — at per-block (B, n)
        multi-indices where ``select`` holds (inactive blocks, masked-out
        lanes are skipped).  Flattening is block-major, so overlapping
        writes resolve in the same order as sequential per-block
        execution."""
        selected = tileops.select_flat(indices, self.nblocks, select)
        if selected is None:
            return
        flat, rows, select = selected
        linear = tileops.linear_index(view.shape, view.dtype, flat)
        nbits = view.dtype.nbits
        if isinstance(value, Register):
            patterns = self.ops.hold(self.written(value, select))
        elif bool(select.all()):
            patterns = value.reshape(-1)
        else:
            patterns = value.reshape(select.shape)[select]
        if nbits % 8 == 0:
            addr = view.base[rows] + linear * (nbits // 8)
            self.ops.scatter_bytes(view.buf, addr, patterns, nbits // 8, view.oob)
            return
        keep, byte_idx, bit_in_byte = self.ops.last_writers(
            view.base[rows] * 8 + linear * nbits, nbits
        )
        self.ops.scatter_subbyte(
            view.buf, byte_idx, bit_in_byte, self.ops.pattern_bits(patterns, nbits)[keep],
            view.oob,
        )

    # -- allocation and views -----------------------------------------------
    @LOCKSTEP.register(insts.BlockIndices)
    def _h_block_indices(self, inst: insts.BlockIndices, active) -> None:
        if len(inst.out_vars) != len(self.block_coords):
            raise VMError(
                f"BlockIndices unpacks {len(inst.out_vars)} values but the grid "
                f"has rank {len(self.block_coords)}"
            )
        for var, arr in zip(inst.out_vars, self.block_coords):
            self.env[var] = arr

    @LOCKSTEP.register(insts.ViewGlobal)
    def _h_view_global(self, inst: insts.ViewGlobal, active) -> None:
        ttype = inst.out.ttype
        shape = tileops.view_shape(ttype.shape, lambda s: self.scalar(s, active), active)
        ptr = self.scalar(inst.ptr, active)
        base = np.where(active, np.broadcast_to(ptr, (self.nblocks,)), 0)
        buflen = len(self.memory.buffer)
        limit = (buflen - 8) * 8
        size = int(np.prod(shape)) if shape else 1
        checks = tileops.view_global_messages(ttype.dtype, shape, limit)
        if np.ndim(ptr) == 0 and bool(active.all()):
            # One pointer for every block (one launch's, or the one a
            # stack shares): one base to check.
            self.ops.check_view_base(ptr, size * ttype.dtype.nbits, limit, *checks)
        else:
            self.ops.check_view_global(base * 8, size * ttype.dtype.nbits, limit, *checks)
        self.bind_tensor(inst.out, View(self.mem, base, ttype.dtype, shape, buflen), active)

    @LOCKSTEP.register(insts.AllocateRegister)
    def _h_allocate_register(self, inst: insts.AllocateRegister, active) -> None:
        dtype, layout = inst.out.ttype.dtype, inst.out.ttype.layout
        bits = tileops.filled(dtype, self.shape3(layout), inst.init)
        self.bind_tensor(inst.out, Register(dtype, layout, bits=bits), active)

    @LOCKSTEP.register(insts.AllocateShared)
    def _h_allocate_shared(self, inst: insts.AllocateShared, active) -> None:
        ttype = inst.out.ttype
        shape = ttype.static_shape()
        base_bits = self.shared.alloc(tileops.tensor_nbytes(shape, ttype.dtype, "shared"), active)
        view = View(self.shared.buffer, base_bits // 8, ttype.dtype, shape, self.shared.nbytes)
        self.bind_tensor(inst.out, view, active)

    @LOCKSTEP.register(insts.FreeShared)
    def _h_free_shared(self, inst: insts.FreeShared, active) -> None:
        self.env.pop(inst.tensor, None)

    @LOCKSTEP.register(insts.AllocateGlobal)
    def _h_allocate_global(self, inst: insts.AllocateGlobal, active) -> None:
        self.ops.host_effect(inst)
        ttype = inst.out.ttype
        shape = ttype.static_shape()
        nbytes = tileops.tensor_nbytes(shape, ttype.dtype, "workspace")
        addrs = np.zeros(self.nblocks, dtype=np.int64)
        idx = np.flatnonzero(active)
        if idx.size:
            # One vectorized reservation covering every active block, in block
            # order — the same addresses a per-block alloc loop (and the
            # sequential engine's block loop) would assign.
            addrs[idx] = self.memory.alloc_n(nbytes, idx.size)
            self.workspaces.extend(addrs[idx].tolist())
        view = View(self.mem, addrs, ttype.dtype, shape, len(self.memory.buffer))
        self.bind_tensor(inst.out, view, active)

    # -- transfer -----------------------------------------------------------
    @LOCKSTEP.register(insts.LoadGlobal, insts.LoadShared)
    def _h_load(self, inst, active) -> None:
        src: View = self.lookup_tensor(inst.src)
        ttype = inst.out.ttype
        indices = self.tile_indices(ttype.layout, inst.offset, active, inst.broadcast_dims)
        src, indices, shared = self.one_launch(src, indices, active)
        if getattr(inst, "masked", False):
            bits = self.gather_masked(src, indices, shared)
        else:
            bits = self.gather(src, tileops.linear_index(
                src.shape, src.dtype, indices, where=None if shared else active[:, None]
            ))
        loaded = ttype.layout.size * src.dtype.nbits * int(active.sum())
        if isinstance(inst, insts.LoadShared):
            self.stats.shared_bits_loaded += loaded
        else:
            self.stats.global_bits_loaded += loaded
        if isinstance(bits, tuple):
            out = Register(ttype.dtype, ttype.layout, live=bits, shared=shared)
        else:
            bits = self.ops.hold(bits.reshape(self.shape3(ttype.layout, shared)))
            out = Register(ttype.dtype, ttype.layout, bits=bits, shared=shared)
        self.bind_tensor(inst.out, out, active)

    @LOCKSTEP.register(insts.StoreGlobal, insts.StoreShared)
    def _h_store(self, inst, active) -> None:
        value: Register = self.stack(self.lookup_tensor(inst.src))
        dst: View = self.lookup_tensor(inst.dst)
        indices = self.tile_indices(value.layout, inst.offset, active)
        select = active[:, None]
        counted = active
        masked = getattr(inst, "masked", False)
        if masked:
            valid = bounds_mask(indices, dst.shape)
            select = select & valid
            counted = active & valid.any(axis=1)
        # A masked store of a logical tensor packs only the lanes it writes.
        lanes = value if masked and value.logical_only else self.bits(value)
        self.scatter(dst, indices, lanes, select)
        stored = value.layout.size * dst.dtype.nbits * int(counted.sum())
        if isinstance(inst, insts.StoreShared):
            self.stats.shared_bits_stored += stored
        else:
            self.stats.global_bits_stored += stored

    @LOCKSTEP.register(insts.CopyAsync)
    def _h_copy_async(self, inst: insts.CopyAsync, active) -> None:
        src: View = self.lookup_tensor(inst.src)
        dst: View = self.lookup_tensor(inst.dst)
        shape = inst.copy_shape()
        src_idx, dst_idx = tileops.copy_indices(
            shape,
            self.numbers(inst.src_offset, active),
            self.numbers(inst.dst_offset, active),
            self.nblocks,
        )
        patterns = self.gather_zfill(src, src_idx)
        if self.journal is not None:
            self.journal.record(dst, dst_idx, patterns, active)
        else:
            self.scatter(dst, dst_idx, patterns, active[:, None])
        count = int(active.sum())
        self.stats.copy_async_issued += count
        self.stats.global_bits_loaded += int(np.prod(shape)) * src.dtype.nbits * count

    @LOCKSTEP.register(insts.CopyAsyncCommitGroup, insts.CopyAsyncWaitGroup)
    def _h_nothing(self, inst, active) -> None:
        """Copies land when issued: group bookkeeping has nothing to order."""

    # -- computation --------------------------------------------------------
    @LOCKSTEP.register(insts.ElementwiseBinary)
    def _h_binary(self, inst: insts.ElementwiseBinary, active) -> None:
        a: Register = self.lookup_tensor(inst.a)
        if isinstance(inst.b, TensorVar):
            a, other = self.operands(active, a, self.lookup_tensor(inst.b))
            tileops.check_same_tiling(a.layout, other.layout)
            b = self.vals(other)
        else:
            (a,) = self.operands(active, a)
            b = self.scalar(inst.b, active)
            if np.ndim(b):
                a = self.stack(a)
                b = b.reshape(-1, 1, 1)  # per-block scalar broadcast
        result = self.ops.apply_elementwise(a.dtype, inst.op, self.vals(a), b)
        self.bind_tensor(inst.out, self.rounded(a.dtype, a.layout, result, a.shared), active)

    @LOCKSTEP.register(insts.Neg)
    def _h_neg(self, inst: insts.Neg, active) -> None:
        (a,) = self.operands(active, self.lookup_tensor(inst.a))
        out = self.rounded(a.dtype, a.layout, -self.vals(a), a.shared)
        self.bind_tensor(inst.out, out, active)

    @LOCKSTEP.register(insts.Cast)
    def _h_cast(self, inst: insts.Cast, active) -> None:
        (a,) = self.operands(active, self.lookup_tensor(inst.a))
        if a.vals is None and (a.bits is not None or a.live is not None) and a.dtype.nbits <= 8:
            # Still packed and narrow: the cast is a lookup, not arithmetic.
            table = tileops.cast_table(a.dtype, inst.dtype)
            out = Register(
                inst.dtype, a.layout,
                vals=self.ops.hold(self.ops.take_table(table, self.bits(a))), shared=a.shared,
            )
        else:
            logical = a.logical_only
            values = self.logical(a) if logical else self.vals(a)
            if inst.dtype.is_integer and a.dtype.is_float:
                values = np.trunc(values)
            out = self.rounded(inst.dtype, a.layout, values, a.shared, logical)
        self.bind_tensor(inst.out, out, active)

    @LOCKSTEP.register(insts.ReduceSum)
    def _h_reduce_sum(self, inst: insts.ReduceSum, active) -> None:
        (a,) = self.operands(active, self.lookup_tensor(inst.a))
        axis = inst.axis + 1
        reduced = self.logical(a).sum(axis=axis, keepdims=True)
        shape = tuple(
            1 if d == axis else e
            for d, e in enumerate((self.rows(a.shared),) + tuple(a.layout.shape))
        )
        out = self.from_logical(inst.out.ttype, reduced, shape, a.shared)
        self.bind_tensor(inst.out, out, active)

    @LOCKSTEP.register(insts.Lookup)
    def _h_lookup(self, inst: insts.Lookup, active) -> None:
        codes: Register = self.lookup_tensor(inst.codes)
        table = self.lookup_tensor(inst.table)
        is_register = isinstance(table, Register)
        if is_register:
            codes, table = self.operands(active, codes, table)
        else:
            codes = self.stack(codes)
        rows = self.rows(codes.shared)
        safe = self.vals(codes).astype(np.int64).reshape(rows, -1)
        if not bool(active.all()):
            safe = np.where(active[:, None], safe, 0)
        safe = self.ops.hold(safe)
        extent = table.layout.shape[0] if is_register else table.shape[0]
        # One launch's rows are only held under a full mask: its slice of
        # ``active`` is all true, and the whole stack's is ``active``.
        # Checked iteration by iteration: a distributed loop's lookup
        # fails on the code its serial form fails on first.
        checked = safe[active[:rows]]
        for k in range(self.iterations):
            self.ops.check_lookup(
                self.iteration(checked, k, codes.shared), extent, tileops.lookup_message(extent)
            )
        if is_register:
            # Clipping only neutralizes inactive blocks' garbage codes; active
            # codes were just bounds-checked above.
            values = np.take_along_axis(
                self.logical(table), np.clip(safe, 0, extent - 1), axis=1
            )
        else:
            nbits = table.dtype.nbits
            values = self.ops.decode(table.dtype, self.ops.gather(
                table.buf, table.base[:, None] * 8 + safe * nbits, nbits, nbits % 8 == 0,
                table.oob,
            ))
        out_t = inst.out.ttype
        values = values.reshape(self.shape3(out_t.layout, codes.shared))
        out = self.rounded(out_t.dtype, out_t.layout, values, codes.shared)
        self.bind_tensor(inst.out, out, active)

    @LOCKSTEP.register(insts.View)
    def _h_view(self, inst: insts.View, active) -> None:
        (a,) = self.operands(active, self.lookup_tensor(inst.a))
        out_t = inst.out.ttype
        tileops.check_view(a.dtype, a.layout, out_t.dtype, out_t.layout)
        bits = self.regrouped(a, out_t.dtype.nbits)
        out = Register(out_t.dtype, out_t.layout, bits=bits, shared=a.shared)
        self.bind_tensor(inst.out, out, active)

    @LOCKSTEP.register(insts.Dot)
    def _h_dot(self, inst: insts.Dot, active) -> None:
        a, b, c = (self.lookup_tensor(var) for var in (inst.a, inst.b, inst.c))
        (m, k), n = a.layout.shape, b.layout.shape[1]
        shared = a.shared and b.shared and c.shared and bool(active.all())
        if not shared:
            c = self.stack(c)
            if a.shared and b.shared:
                a = self.stack(a)

        def f64(reg: Register):  # decoded floats already are
            tensor = self.logical(reg)
            return tensor if reg.dtype.is_float else tensor.astype(np.float64)

        left, right = f64(a), f64(b)
        if a.shared == b.shared:
            product = left @ right
        else:
            # One operand is the same matrices for every launch: matmul
            # broadcasts it over the launch axis instead of repeating it.
            if a.shared:
                right = right.reshape((self.launches, self.per_launch, k, n))
            else:
                left = left.reshape((self.launches, self.per_launch, m, k))
            product = (left @ right).reshape((self.nblocks, m, n))
        result = product + self.logical(c)
        out = self.from_logical(inst.out.ttype, result, (self.rows(shared), m, n), shared)
        self.bind_tensor(inst.out, out, active)
        self.stats.dot_ops += m * k * n * int(active.sum())

    # -- misc ---------------------------------------------------------------
    @LOCKSTEP.register(insts.Synchronize)
    def _h_synchronize(self, inst, active) -> None:
        self.stats.synchronizations += int(active.sum())

    @LOCKSTEP.register(insts.Exit)
    def _h_exit(self, inst, active) -> None:
        self.exited |= active

    @LOCKSTEP.register(insts.PrintTensor)
    def _h_print_tensor(self, inst: insts.PrintTensor, active) -> None:
        # Rendered now (per-block state at this lockstep point), flushed in
        # block order at launch retire — see BatchedExecutor._flush_prints.
        self.ops.host_effect(inst)
        if self.prints is None:
            self.prints = [[] for _ in range(self.nblocks)]
        value = self.lookup_tensor(inst.tensor)
        if isinstance(value, Register):
            value = self.stack(value)
        prefix = f"{inst.message}: " if inst.message else ""
        for b in np.flatnonzero(active):
            if isinstance(value, Register):
                shown = self.logical(value)[b]
            else:
                shown = TensorView(
                    value.buf, int(value.base[b]) * 8, value.dtype, value.shape
                ).read_all()
            self.prints[b].append(f"{prefix}{inst.tensor.name} =\n{shown}")


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


def stacked_grid(grid: tuple, launches: int) -> tuple:
    """``launches`` grids stacked launch-major on the block axis: the
    block count and one (B,) coordinate array per grid dimension."""
    coords = tuple(np.tile(c, launches) for c in decompose_linear(tuple(grid)))
    return launches * (int(np.prod(grid)) if grid else 1), coords


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
        self._stdout = stdout

    # -- host-side helpers (same API as the sequential engine) -------------
    def upload(self, values: np.ndarray, dtype) -> int:
        return self.memory.upload(values, dtype)

    def alloc_output(self, shape: Sequence[int], dtype) -> int:
        return self.memory.alloc_output(shape, dtype)

    def download(self, addr: int, shape: Sequence[int], dtype) -> np.ndarray:
        return self.memory.download(addr, shape, dtype)

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
        nblocks, coords = stacked_grid(next(iter(grids)), len(args_list))
        per_launch = nblocks // len(args_list)
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
        walk = TileWalk(
            nblocks, env, coords, tileops, self.memory, self.memory.buffer,
            BatchedSharedMemory(nblocks, self.shared_capacity), self.stats,
            launches=len(args_list),
        )
        self.stats.blocks_run += nblocks
        try:
            walk.run_stmt(program.body, np.ones(nblocks, dtype=bool))
        finally:
            for addr in walk.workspaces:
                self.memory.free(addr)
        self._flush_prints(walk.prints)
        return self.stats

    def _flush_prints(self, prints) -> None:
        """Emit buffered per-block print output in block order (block
        retire order), matching the sequential engine's interleaving."""
        for texts in prints or ():
            for text in texts:
                if self._stdout is not None:
                    self._stdout.write(text + "\n")
                else:
                    print(text)


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
    """True when the batched engine can execute ``program``: all global
    view shapes are block-invariant (memoized — this sits on the launch
    path).  Every instruction has a handler, ``PrintTensor`` included
    (per-block buffered output)."""
    cached = program.__dict__.get(_BATCHABLE_ATTR)
    if cached is None:
        cached = program.__dict__[_BATCHABLE_ATTR] = _uniform_view_shapes(program)
    return cached
