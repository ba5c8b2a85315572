"""Progressive lowering of specialized programs to straight-line numpy.

The batched engine (:mod:`repro.vm.batched`) executes all thread blocks in
lockstep but still walks the statement tree and re-derives index math on
every launch.  Once a kernel is *specialized* — its program object and
const-bound scalar arguments pinned by
:func:`repro.compiler.pipeline.specialization_key` — everything except the
pointer arguments and the tensor *data* is a compile-time constant: grid
coordinates, divergence masks, loop trip counts, tile indices, shared-memory
addresses and every ``ExecutionStats`` delta.

Lowering is therefore not a second front-end: it is the engine's own walk
(:class:`repro.vm.batched.TileWalk`, one handler per instruction) run once
with three things left symbolic — the device buffer ``mem``, the shared
buffer ``sm`` and the pointer arguments ``p<i>``.  Whatever a handler
computes from concrete values it computes, here, at compile time; whatever
touches a symbolic leaf becomes an expression (:class:`_Sym`, or
:class:`_Affine` while it is still pointer arithmetic), and a table call
on one is recorded instead of made (:class:`_TraceOps`).  The recorded
statements are the kernel.  A four-pass pipeline (the xdsl-style
progressive dialect lowering named in the ROADMAP):

1. **const-fold** (:class:`SpecializeConstants`): bind const scalars, grid
   coordinates and symbolic (affine) pointer parameters into a
   compile-time environment.
2. **unroll+distribute** (:class:`UnrollAndTrace`): run the walk — loops
   unroll, ``if``/``while`` masks fold to concrete block sets — leaving
   one vectorized numpy statement per surviving table call, with all
   index/mask/shift arrays precomputed.  A loop the walk distributes
   (:meth:`TileWalk.distributed`) leaves its loads, unpacks and casts
   once, on every iteration's rows, and only its accumulator chain
   unrolled; a failed attempt is rewound off the trace
   (:meth:`_Emitter.rewind`) before the loop unrolls, so a bailout's
   reason is the unrolled loop's.  Values are *forwarded* exactly
   as the engine forwards them: a register is a
   :class:`~repro.vm.batched.Register` of lazily computed twins (packed
   bits, decoded values, logical tensor), every consumer reads the twin
   it computes on, and equal expressions — a gather of the same addresses
   with no store in between included — share a temporary.
3. **forward** (:class:`ForwardValues`): one backward liveness walk over
   the finished trace drops what nothing reads and releases every
   temporary after its last reader.
4. **flatten** (:class:`FlattenToSource`): assemble the trace into a flat
   Python function, ``compile()`` it, and wrap it as a
   :class:`LoweredKernel`.

Bit-exactness is by construction: the kernel is what the batched engine's
handlers did, and it defines no runtime helper of its own — its globals
are ``np``, ``VMError`` and :data:`repro.vm.tileops.KERNEL_NAMESPACE`.
What stays lowering's own is what only a trace has: the constant pool,
common-subexpression reuse (ended by a store to the buffer read), the
step and line budgets, and the two preconditions of a precomputed
sub-byte scatter (:meth:`_TraceOps.last_writers`).

``launches=G`` traces ``G`` launches of one specialization stacked on
the block axis.  Each pointer is then a per-block array at run time —
except the ones the caller names in ``shared``: the whole stack passes
one value there, so the leaf stays the number it is for a single launch,
and the walk's own rule (a load through a base that repeats launch by
launch is made on one launch's rows, :meth:`TileWalk.one_launch`) finds
it: :meth:`_TraceOps.launch_rows` answers "does this base repeat?" from
the affine form — every leaf one number, coefficients and concrete part
repeating — which is reuse across launches read off the address algebra,
not off a trace of addresses.  :meth:`LoweredKernel.run_many` refuses
argument lists that differ where the kernel was told they agree.

A distributed loop's early statements address every iteration's rows at
once: a per-launch pointer repeated per row is an index constant that
folds into the gather's own row index (:attr:`_Sym.rows`), and the
serial chain reads each iteration as a run of rows (one reorder of the
stack's rows first).  What the kernel still checks at run time — a
``Lookup``'s codes — it checks iteration by iteration, so a bad code
fails with the unrolled loop's message.

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
from repro.ir.expr import Expr, Var
from repro.obs import trace as obs_trace
from repro.ir.program import Program
from repro.vm import tileops
from repro.vm.batched import BatchedSharedMemory, TileWalk, stacked_grid
from repro.vm.interp import ExecutionStats
from repro.vm.memory import GlobalMemory

__all__ = [
    "LoweredKernel",
    "LoweringBailout",
    "PASS_NAMES",
    "UNLOWERABLE",
    "lower_program",
]

#: The pass pipeline, in application order.
PASS_NAMES = ("const-fold", "unroll+distribute", "forward", "flatten")

#: Instructions the pipeline declines by design (a launch containing one
#: stays on the batched engine): a workspace allocation moves the device
#: allocator, a print has no flat form.  Their handlers say so themselves
#: (``tileops.host_effect``); ``tests/test_instruction_coverage.py`` holds
#: this set to exactly the instructions that do.
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
_HELPERS = {"np": np, "VMError": VMError, **tileops.KERNEL_NAMESPACE}


# ---------------------------------------------------------------------------
# What stays symbolic: names for runtime arrays, pointers kept affine
# ---------------------------------------------------------------------------

#: Operator precedence of an emitted expression (higher binds tighter).
_ADD, _MUL, _UNARY, _ATOM = 1, 2, 3, 4


class _Sym:
    """A runtime array the trace knows only by the expression computing
    it.  It speaks enough numpy — the operators, methods and protocols the
    handlers in :mod:`repro.vm.batched` use on register twins and
    addresses — to turn each into source text; temporaries are assigned
    once and never mutated, so the text names one value for the whole
    kernel.  ``scalar`` marks a leaf that is a number at runtime (a
    pointer of an unstacked launch, or one the whole stack shares):
    indexing it is the identity.  ``rows`` is ``(x, a)`` for ``x[a]``
    with ``a`` an integer array, so indexing it again is one gather.
    """

    __slots__ = ("em", "expr", "prec", "scalar", "rows")

    def __init__(self, em: "_Emitter", expr: str, prec: int = _ATOM, scalar: bool = False):
        self.em = em
        self.expr = expr
        self.prec = prec
        self.scalar = scalar
        self.rows = None

    def _infix(self, op: str, prec: int, other) -> "_Sym":
        lhs, rhs = self.em.operand(self, prec), self.em.operand(other, prec + 1)
        return _Sym(self.em, f"{lhs} {op} {rhs}", prec)

    def __add__(self, other):
        return self._infix("+", _ADD, other)

    def __mul__(self, other):
        return self._infix("*", _MUL, other)

    def __matmul__(self, other):
        return self._infix("@", _MUL, other)

    def __neg__(self):
        return _Sym(self.em, "-" + self.em.operand(self, _UNARY), _UNARY)

    def __getitem__(self, key):
        if self.scalar:
            return self
        rows = isinstance(key, np.ndarray) and key.dtype.kind in "iu"
        if rows and self.rows is not None:
            source, index = self.rows  # x[a][b] is x[a[b]]
            return source[index[key]]
        indexed = _Sym(self.em, f"{self.em.operand(self, _ATOM)}[{self.em.key(key)}]")
        if rows:
            indexed.rows = (self, key)
        return indexed

    def _method(name: str):  # noqa: N805 - builds the three methods below
        def call(self, *args, **kwargs):
            recv = self.em.operand(self, _ATOM)
            return _Sym(self.em, f"{recv}.{name}({self.em.args(args, kwargs)})")

        return call

    reshape, astype, sum = _method("reshape"), _method("astype"), _method("sum")
    del _method

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__":
            raise LoweringBailout(f"np.{ufunc.__name__}.{method} has no flat form")
        return _Sym(self.em, f"np.{ufunc.__name__}({self.em.args(inputs, kwargs)})")

    def __array_function__(self, func, types, args, kwargs):
        return _Sym(self.em, f"np.{func.__name__}({self.em.args(args, kwargs)})")


class _Affine:
    """An integer — a scalar, or an array over blocks — affine in the
    runtime pointer arguments: ``sum(leaf * coeff) + conc``, each leaf a
    :class:`_Sym` pointer (``p0``, or ``p0[rows]`` once indexed), each
    coefficient and the concrete part numbers or arrays.

    It supports exactly the arithmetic that keeps it affine — ``+``,
    ``-``, ``*`` by a number, indexing, ``np.where``, ``np.broadcast_to``
    — and ``np.ndim``, so the scalar evaluator and the handlers carry a
    pointer through address math unchanged and every concrete part still
    folds at compile time.  Anything else (a branch on it, a division, an
    index made of it) raises :class:`LoweringBailout`.
    """

    __slots__ = ("terms", "conc")
    __array_ufunc__ = None  # ndarray operators defer to the reflected ones

    def __init__(self, terms: dict, conc) -> None:
        self.terms = terms
        self.conc = conc

    @staticmethod
    def of(terms: dict, conc):
        """The affine value, or plainly ``conc`` when no pointer is left."""
        terms = {leaf: c for leaf, c in terms.items() if np.any(c)}
        return _Affine(terms, conc) if terms else conc

    def __add__(self, other):
        if isinstance(other, _Sym):
            return self.sym() + other
        terms = dict(self.terms)
        if isinstance(other, _Affine):
            for leaf, c in other.terms.items():
                terms[leaf] = terms[leaf] + c if leaf in terms else c
            other = other.conc
        return _Affine.of(terms, self.conc + other)

    __radd__ = __add__

    def __neg__(self):
        return _Affine({leaf: -c for leaf, c in self.terms.items()}, -self.conc)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, factor):
        if isinstance(factor, (_Affine, _Sym)):
            raise LoweringBailout("non-affine pointer arithmetic")
        return _Affine.of({leaf: c * factor for leaf, c in self.terms.items()}, self.conc * factor)

    __rmul__ = __mul__

    def __getitem__(self, key):
        return _Affine.of({leaf[key]: c[key] for leaf, c in self.terms.items()}, self.conc[key])

    def __array_function__(self, func, types, args, kwargs):
        if func is np.ndim:
            return self.ndim
        if func is np.broadcast_to:
            shape = args[1]
            return _Affine(
                {leaf: np.broadcast_to(c, shape) for leaf, c in self.terms.items()},
                np.broadcast_to(self.conc, shape),
            )
        if func is np.where:  # per-block merge; either side may be affine
            mask, new, old = args
            new = new if isinstance(new, _Affine) else _Affine({}, new)
            old = old if isinstance(old, _Affine) else _Affine({}, old)
            terms = {
                leaf: np.where(mask, new.terms.get(leaf, 0), old.terms.get(leaf, 0))
                for leaf in {**new.terms, **old.terms}
            }
            return _Affine.of(terms, np.where(mask, new.conc, old.conc))
        raise LoweringBailout("non-affine pointer arithmetic")

    @property
    def ndim(self) -> int:
        """0 when it is one number at run time — every pointer in it one
        number for the whole stack, every coefficient and the concrete
        part scalars — else the rank of the array it is."""
        return max([np.ndim(self.conc)] + [
            max(np.ndim(c), 0 if leaf.scalar else 1) for leaf, c in self.terms.items()
        ])

    def sym(self) -> _Sym:
        """The expression computing it in the kernel."""
        total = None
        for leaf, coeff in self.terms.items():
            term = leaf if np.all(coeff == 1) else leaf * coeff
            total = term if total is None else total + term
        return total + self.conc

    def _not_affine(self, *args, **kwargs):
        raise LoweringBailout("non-affine pointer arithmetic")

    def _not_a_number(self, *args, **kwargs):
        raise LoweringBailout("pointer-valued scalar where a number is needed")


for _name in ("truediv", "floordiv", "mod", "pow", "and", "or", "xor", "lshift", "rshift"):
    setattr(_Affine, f"__{_name}__", _Affine._not_affine)
    setattr(_Affine, f"__r{_name}__", _Affine._not_affine)
for _name in ("abs", "invert", "eq", "ne", "lt", "le", "gt", "ge"):
    setattr(_Affine, f"__{_name}__", _Affine._not_affine)
for _name in ("bool", "int", "float", "index", "array"):
    setattr(_Affine, f"__{_name}__", _Affine._not_a_number)
del _name


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
        #: The kernel's names for the device buffer and the shared buffer.
        self.mem, self.sm = _Sym(self, "mem"), _Sym(self, "sm")

    def _push(self, stmt: _Stmt) -> None:
        if len(self.stmts) >= _TRACE_LINE_LIMIT:
            raise LoweringBailout(
                f"generated source exceeds {_TRACE_LINE_LIMIT} statements"
            )
        self.stmts.append(stmt)

    def value(self, expr: str, reads: Optional[str] = None) -> _Sym:
        """The temporary holding ``expr``; ``reads`` names the buffer a
        gather reads (it is also what makes the statement ``checked``)."""
        key = expr if reads is None else (expr, self._stores[reads])
        name = self._values.get(key)
        if name is None:
            name = self._values[key] = f"t{len(self._values)}"
            self._push(_Stmt(name, expr, checked=reads is not None))
        return _Sym(self, name)

    def hold(self, value):
        """``value`` under a name: a symbolic one is bound to a temporary
        (once per expression), a concrete one is itself."""
        if isinstance(value, _Affine):
            value = value.sym()
        if isinstance(value, _Sym) and not value.expr.isidentifier():
            return self.value(value.expr)
        return value

    def call(self, name: str, args: tuple):
        """Record the table call ``name(*args)``.  A pure function of
        temporaries stays an expression until something holds it; a check
        or a store is a statement where it stands, and so is a gather —
        what it reads is there only until the next store to the buffer
        (:attr:`_stores` counts them)."""
        effect = name in tileops.KERNEL_EFFECTS
        reads = next(
            (a.expr for a in args if isinstance(a, _Sym) and a.expr in self._stores), None
        )
        if not effect and reads is None:
            return _Sym(self, f"{name}({self.args(args)})")
        expr = f"{name}({self.args([self.hold(a) for a in args])})"
        if not effect:
            return self.value(expr, reads)
        if reads is not None:
            self._stores[reads] += 1  # earlier gathers from it are stale
        self._push(_Stmt(None, expr))
        return None

    # -- formatting -----------------------------------------------------------
    def fmt(self, obj) -> str:
        """``obj`` as source text: expressions as they are, numbers as
        literals, everything else a pooled constant."""
        if isinstance(obj, _Sym):
            return obj.expr
        if isinstance(obj, _Affine):
            return obj.sym().expr
        if obj is None:
            return "None"
        if isinstance(obj, (bool, int, float, np.generic)):
            return _lit(obj)
        if isinstance(obj, type):
            return f"np.{obj.__name__}"  # a numpy scalar type
        if isinstance(obj, tuple) and not all(isinstance(e, np.ndarray) for e in obj):
            return f"({self.args(obj)}{',' if len(obj) == 1 else ''})"
        return self.const(obj)

    def operand(self, obj, prec: int) -> str:
        """``obj`` as an operand of an operator of precedence ``prec``."""
        if isinstance(obj, _Affine):
            obj = obj.sym()
        text = self.fmt(obj)
        return f"({text})" if isinstance(obj, _Sym) and obj.prec < prec else text

    def args(self, args, kwargs=None) -> str:
        parts = [self.fmt(a) for a in args]
        parts += [f"{k}={self.fmt(v)}" for k, v in (kwargs or {}).items()]
        return ", ".join(parts)

    def key(self, key) -> str:
        """A subscript: an index tuple of arrays is one constant, anything
        with a slice or ``None`` in it is spelled out."""
        if isinstance(key, slice):
            key = (key,)
        if isinstance(key, tuple) and not all(isinstance(k, np.ndarray) for k in key):
            return ", ".join(
                ":".join("" if b is None else self.fmt(b) for b in (k.start, k.stop))
                if isinstance(k, slice) else self.fmt(k)
                for k in key
            )
        return self.fmt(key)

    def mark(self) -> tuple:
        return len(self.stmts), len(self._values)

    def rewind(self, mark: tuple) -> None:
        """Drop the statements recorded since :meth:`mark` and the
        temporaries they named (names are handed out in order)."""
        stmts, values = mark
        del self.stmts[stmts:]
        for key in list(self._values)[values:]:
            del self._values[key]

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


class _TraceOps:
    """The tile-semantics table as the lowering trace calls it: ``ops.f``
    is ``tileops.f`` whenever every argument is concrete — that is the
    compile-time folding — and otherwise records the call under the name
    kernels know ``f`` by.  The batched engine's ``ops`` is the table
    itself, so this is the whole difference between executing an
    instruction and lowering it.
    """

    _NAMES = {fn: name for name, fn in tileops.KERNEL_NAMESPACE.items()}

    def __init__(self, em: _Emitter) -> None:
        self.em = em
        self.hold, self.mark, self.rewind = em.hold, em.mark, em.rewind

    def __getattr__(self, name: str):
        fn = getattr(tileops, name)

        def staged(*args):
            if not any(isinstance(a, (_Sym, _Affine)) for a in args):
                return fn(*args)
            if fn not in self._NAMES:
                raise LoweringBailout(f"tileops.{name} cannot run in a kernel")
            return self.em.call(self._NAMES[fn], args)

        setattr(self, name, staged)
        return staged

    def host_effect(self, inst) -> None:
        raise LoweringBailout(f"instruction {type(inst).__name__} cannot be lowered")

    def last_writers(self, bit_addr, nbits: int):
        """The sub-byte scatter's last-writer dedup, precomputed from the
        concrete part of the bit positions.  Valid when every pointer
        shifts all positions equally (one coefficient, one runtime value
        for all rows): equality classes and sorted order are preserved,
        and the pointer only moves the byte each bit lands in."""
        if not isinstance(bit_addr, _Affine):
            return tileops.last_writers(bit_addr, nbits)
        shift = {}
        for leaf, coeff in bit_addr.terms.items():
            if coeff.min() != coeff.max():
                raise LoweringBailout(
                    "sub-byte scatter through a block-varying pointer base"
                )
            if not leaf.scalar:  # a stack's pointers are per-block arrays
                raise LoweringBailout("sub-byte scatter through a per-launch pointer")
            shift[leaf] = int(coeff.flat[0]) // 8
        keep, byte_idx, bit_in_byte = tileops.last_writers(bit_addr.conc, nbits)
        return keep, _Affine(shift, byte_idx), bit_in_byte

    def launch_rows(self, base, launches: int):
        """The first launch's rows of a view base when every launch of
        the stack holds the same ones: each pointer in it is one number
        for the whole stack, and its coefficients and the concrete part
        repeat launch by launch."""
        if not isinstance(base, _Affine):
            return tileops.launch_rows(base, launches)
        if not all(leaf.scalar for leaf in base.terms):
            return None
        terms = {leaf: tileops.launch_rows(c, launches) for leaf, c in base.terms.items()}
        conc = tileops.launch_rows(base.conc, launches)
        if conc is None or any(c is None for c in terms.values()):
            return None
        return _Affine(terms, conc)


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
    ptr_indices: tuple
    #: Launches stacked launch-major on the block axis; with more than
    #: one, a pointer is a per-block array at runtime unless its
    #: parameter index is in ``shared`` — the whole stack passes one
    #: value there, and it stays the number it is for a single launch.
    launches: int
    shared: tuple
    emitter: _Emitter


class SpecializeConstants:
    """Pass 1: bind const scalars, grid coords and symbolic pointers."""

    name = PASS_NAMES[0]

    @staticmethod
    def run(program: Program, args: Sequence, memory: GlobalMemory,
            shared_capacity: int, launches: int = 1, shared: tuple = ()) -> _LoweringState:
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
        nblocks, coords = stacked_grid(grid, launches)
        emitter = _Emitter()
        env: dict = {}
        ptr_indices = []
        for i, (p, a) in enumerate(zip(program.params, args)):
            if p.dtype.is_pointer:
                scalar = launches == 1 or i in shared
                leaf = _Sym(emitter, f"p{len(ptr_indices)}", scalar=scalar)
                ptr_indices.append(i)
                env[p] = _Affine({leaf: 1}, 0)
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
            ptr_indices=tuple(ptr_indices),
            launches=launches,
            shared=tuple(i for i in ptr_indices if launches > 1 and i in shared),
            emitter=emitter,
        )


# ---------------------------------------------------------------------------
# Pass 2: unroll and trace
# ---------------------------------------------------------------------------


class _BudgetedWalk(TileWalk):
    """The engine's walk, counted against the trace budget."""

    ROLLBACK = TileWalk.ROLLBACK + (LoweringBailout,)
    steps = 0

    def step(self) -> None:
        self.steps += 1
        if self.steps > _TRACE_STEP_LIMIT:
            raise LoweringBailout(
                f"unrolled trace exceeds {_TRACE_STEP_LIMIT} steps"
            )


class UnrollAndTrace:
    """Pass 2: the batched engine's walk with ``mem``, ``sm`` and the
    pointers left symbolic; what its handlers compute is the flat trace,
    what they tally is the kernel's ``ExecutionStats`` delta."""

    name = PASS_NAMES[1]

    @staticmethod
    def run(state: _LoweringState) -> TileWalk:
        em = state.emitter
        walk = _BudgetedWalk(
            state.nblocks, state.env, state.coords, _TraceOps(em), state.memory, em.mem,
            BatchedSharedMemory(state.nblocks, state.shared_capacity, buffer=em.sm),
            ExecutionStats(), launches=state.launches,
        )
        walk.stats.blocks_run += state.nblocks
        try:
            walk.run_stmt(state.program.body, np.ones(state.nblocks, dtype=bool))
        except (VMError, IRError) as exc:
            # A table check raised at compile time what the batched engine
            # would raise deterministically at runtime; the fallback engine
            # reproduces it, so lowering just declines.
            raise LoweringBailout(f"deterministic runtime error: {exc}") from exc
        return walk


# ---------------------------------------------------------------------------
# Pass 3: forward values
# ---------------------------------------------------------------------------


class ForwardValues:
    """Pass 3: keep what the kernel reads.

    Forwarding has two halves.  While the trace is recorded, a register
    is a :class:`~repro.vm.batched.Register` of lazily computed twins and
    every consumer takes the twin it computes on, so a conversion nobody
    asks for is never written; equal expressions share one temporary.
    This pass is the
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
    and :meth:`run_many` takes the ``G`` argument lists.  ``shared`` are
    the parameter indices of the pointers it was lowered to receive one
    value for from the whole stack; what it loads through them it loads
    once, so it is valid only for argument lists that agree there.
    """

    program_name: str
    #: ``(program, const scalars)``: its repr would print the program.
    spec: tuple = field(repr=False)
    grid: tuple
    nblocks: int
    ptr_indices: tuple
    source: str
    passes: tuple
    buffer_len: int
    num_params: int
    _fn: Callable = field(repr=False, default=None)
    #: The constant pool the source closes over (C0, C1, ...).  Carried
    #: so ``tools/kernel_profile.py`` can re-run the source statement by
    #: statement.
    consts: dict = field(repr=False, default=None)
    launches: int = 1
    shared: tuple = ()

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
        first = args_list[0]
        for i in self.shared:
            if any(args[i] != first[i] for args in args_list):
                raise VMError(
                    f"compiled kernel for {self.program_name} shares argument {i} "
                    f"across its launches, got {[args[i] for args in args_list]}"
                )
        per_launch = self.nblocks // self.launches
        ptrs = [
            int(first[i]) if self.launches == 1 or i in self.shared
            else np.repeat(
                np.array([args[i] for args in args_list], dtype=np.int64), per_launch
            )
            for i in self.ptr_indices
        ]
        self._fn(memory.buffer, ptrs, stats)
        return stats


class FlattenToSource:
    """Pass 4: assemble, ``compile()`` and wrap the trace."""

    name = PASS_NAMES[3]

    @staticmethod
    def run(state: _LoweringState, walk: TileWalk, stmts: list[_Stmt]) -> LoweredKernel:
        body: list[str] = []
        for slot in range(len(state.ptr_indices)):
            body.append(f"p{slot} = ptrs[{slot}]")
        if walk.shared.used:
            body.append(f"sm = np.zeros({walk.shared.nbytes}, dtype=np.uint8)")
        body.extend(
            stmt.expr if stmt.target is None else f"{stmt.target} = {stmt.expr}"
            for stmt in stmts
        )
        for fname, delta in walk.stats.snapshot().items():
            if delta:
                body.append(f"stats.{fname} += {delta}")
        if not body:
            body.append("pass")
        source = "def _jit_kernel(mem, ptrs, stats):\n" + "\n".join(
            "    " + line for line in body
        )
        # The pool a kernel carries is what its source names: constants
        # folded away at compile time stay behind.
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
            num_params=len(state.program.params),
            _fn=namespace["_jit_kernel"],
            consts=consts,
            launches=state.launches,
            shared=state.shared,
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
    shared: tuple = (),
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
    passes over ``G`` times the blocks, pointers bound per block —
    except those whose parameter index is in ``shared``: the caller
    promises one value there from every launch of the stack, the pointer
    stays a number, and a load through it at offsets that repeat per
    launch is made (and unpacked, cast, scaled) on one launch's rows.
    Without ``shared`` the kernel is valid for any argument lists.
    """
    recorder = obs_trace.ACTIVE
    start = recorder.now() if recorder is not None else 0.0
    state = SpecializeConstants.run(
        program, args, memory, shared_capacity, launches, shared
    )
    walk = UnrollAndTrace.run(state)
    kernel = FlattenToSource.run(state, walk, ForwardValues.run(state))
    if recorder is not None:
        recorder.complete(
            f"jit.lower:{program.name}",
            "jit",
            obs_trace.HOST_TID,
            start,
            recorder.now() - start,
        )
    return kernel
