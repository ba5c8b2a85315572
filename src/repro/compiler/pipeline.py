"""The compilation pipeline (paper Section 8.1).

Steps: verify → simplify → DCE → shared-memory planning → instruction
selection → code generation.  The first three are
:func:`prepare_program`: they make the program the engines run, and the
runtime's specialization cache runs nothing else.  :func:`compile_program`
adds the rest — the CUDA artifact: the generated source, the shared-
memory size it requests at launch, and the selection report the
performance model reads.

The module also defines the **kernel specialization key**: a structural
program fingerprint combined with the launch's const-bound scalar
parameters and the program's data-type set.  The runtime's specialization
cache (:class:`repro.runtime.runtime.SpecializationCache`) keys prepared
programs on it, so *structurally identical* programs — e.g. the same
template re-instantiated for every call of an operator — skip the
compiler passes entirely instead of matching only on object identity.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from repro.compiler.codegen import generate_cuda
from repro.compiler.dce import eliminate_dead_code
from repro.compiler.memory_planner import MemoryPlan, plan_shared_memory
from repro.compiler.selection import SelectionReport, select_instructions
from repro.compiler.simplify import simplify_program
from repro.compiler.verify import VerificationReport, verify_program
from repro.ir import instructions as insts
from repro.ir.expr import Expr, Var
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


@dataclass
class CompiledKernel:
    """A fully compiled Tilus kernel."""

    program: Program
    source: str
    shared_plan: MemoryPlan
    selection: SelectionReport
    verification: VerificationReport

    @property
    def shared_bytes(self) -> int:
        return self.shared_plan.total_bytes

    @property
    def name(self) -> str:
        return self.program.name


# ---------------------------------------------------------------------------
# Structural fingerprinting and specialization keys
# ---------------------------------------------------------------------------

#: Memo attribute for the per-program fingerprint.  Compiler passes mutate
#: programs in place, so the fingerprint is pinned the first time it is
#: requested (always before compilation on the launch path).
_FINGERPRINT_ATTR = "_specialization_fingerprint"
_LAYOUT_FP_ATTR = "_layout_fingerprint"


#: Fallback layout-token cache for layouts that reject attribute
#: memoization (slotted or frozen classes).  Keyed by ``id(layout)``
#: with the layout itself stored alongside as a **liveness guard**: the
#: strong reference keeps the object alive while its entry exists, so a
#: recycled id can never alias a dead layout's token — and an identity
#: check (`is`) on lookup makes the guarantee explicit.  LRU-bounded so
#: unbounded distinct layouts cannot leak.
_LAYOUT_TOKEN_FALLBACK: "OrderedDict[int, tuple[object, str]]" = OrderedDict()
_LAYOUT_TOKEN_FALLBACK_MAX = 1024


def _layout_token(layout) -> str:
    """Canonical token for a layout: a hash of its dense mapping table.

    ``short_repr`` is not injective (different thread mappings can share
    shapes and counts), so the token hashes the full (thread, local) →
    index table instead.

    The token is memoized on the layout object; layouts that refuse
    ``setattr`` (slotted/frozen classes) fall back to an id-keyed
    module-level LRU instead of silently re-hashing the full table on
    every specialization lookup.
    """
    if layout is None:
        return "linear"
    cached = getattr(layout, _LAYOUT_FP_ATTR, None)
    if cached is not None:
        return cached
    entry = _LAYOUT_TOKEN_FALLBACK.get(id(layout))
    if entry is not None and entry[0] is layout:
        _LAYOUT_TOKEN_FALLBACK.move_to_end(id(layout))
        return entry[1]
    table = layout.table()
    token = hashlib.sha256(
        repr(table.shape).encode() + table.astype("int64").tobytes()
    ).hexdigest()[:16]
    try:
        setattr(layout, _LAYOUT_FP_ATTR, token)
    except AttributeError:
        _LAYOUT_TOKEN_FALLBACK[id(layout)] = (layout, token)
        _LAYOUT_TOKEN_FALLBACK.move_to_end(id(layout))
        while len(_LAYOUT_TOKEN_FALLBACK) > _LAYOUT_TOKEN_FALLBACK_MAX:
            _LAYOUT_TOKEN_FALLBACK.popitem(last=False)
    return token


class _VarNormalizer:
    """Assigns stable, binding-aware identifiers to variables.

    Variables are compared by object identity (every ``Var`` carries a
    process-global uid), so two *different* variables that happen to share
    a surface name — e.g. a parameter named ``b1`` and a builder-generated
    block-index var also named ``b1`` — normalize to different tokens,
    while every reference to the same variable normalizes identically.
    First-appearance ordering makes the tokens reproducible across
    independent builds of the same program.
    """

    def __init__(self) -> None:
        self._ids: dict = {}

    def token(self, var) -> str:
        norm = self._ids.get(var)
        if norm is None:
            norm = len(self._ids)
            self._ids[var] = norm
        return f"{var.name}#{norm}"


def _tensor_token(var: TensorVar, norm: _VarNormalizer) -> str:
    t = var.ttype
    return (
        f"{norm.token(var)}:{t.scope}:{t.dtype.name}:"
        f"[{','.join(_value_token(s, norm) for s in t.shape)}]:{_layout_token(t.layout)}"
    )


def _expr_token(expr: Expr, norm: _VarNormalizer) -> str:
    if isinstance(expr, TensorVar):
        return _tensor_token(expr, norm)
    if isinstance(expr, Var):
        return norm.token(expr)
    children = ",".join(_expr_token(c, norm) for c in expr.children())
    if children:
        op = getattr(expr, "op", getattr(expr, "dtype", ""))
        return f"{type(expr).__name__}[{op}]({children})"
    # Constant: the dtype is semantically meaningful (it drives generated
    # C types), so it is part of the token, not just the value.
    return f"{expr!r}:{expr.dtype.name}"


def _value_token(value, norm: _VarNormalizer) -> str:
    if isinstance(value, TensorVar):
        return _tensor_token(value, norm)
    if isinstance(value, Expr):
        return _expr_token(value, norm)
    if isinstance(value, frozenset):
        return f"{{{','.join(str(v) for v in sorted(value))}}}"
    if isinstance(value, (tuple, list)):
        return f"({','.join(_value_token(v, norm) for v in value)})"
    if hasattr(value, "name") and hasattr(value, "nbits"):  # DataType
        return value.name
    return repr(value)


def _instruction_tokens(inst: insts.Instruction, norm: _VarNormalizer) -> str:
    fields = ",".join(
        f"{k}={_value_token(v, norm)}" for k, v in sorted(vars(inst).items())
    )
    return f"{type(inst).__name__}({fields})"


def _stmt_tokens(stmt: Stmt, out: list[str], depth: int, norm: _VarNormalizer) -> None:
    pad = "." * depth
    if isinstance(stmt, SeqStmt):
        for child in stmt.body:
            _stmt_tokens(child, out, depth, norm)
    elif isinstance(stmt, InstructionStmt):
        out.append(pad + _instruction_tokens(stmt.instruction, norm))
    elif isinstance(stmt, AssignStmt):
        out.append(
            pad
            + f"assign {norm.token(stmt.var)}:{stmt.var.dtype.name}"
            + f"={_expr_token(stmt.value, norm)}"
        )
    elif isinstance(stmt, IfStmt):
        out.append(pad + f"if {_expr_token(stmt.cond, norm)}")
        _stmt_tokens(stmt.then_body, out, depth + 1, norm)
        if stmt.else_body is not None:
            out.append(pad + "else")
            _stmt_tokens(stmt.else_body, out, depth + 1, norm)
    elif isinstance(stmt, ForStmt):
        out.append(
            pad
            + f"for {norm.token(stmt.var)} in {_expr_token(stmt.extent, norm)} "
            + f"unroll={stmt.unroll} stages={stmt.pipeline_stages}"
        )
        _stmt_tokens(stmt.body, out, depth + 1, norm)
    elif isinstance(stmt, WhileStmt):
        out.append(pad + f"while {_expr_token(stmt.cond, norm)}")
        _stmt_tokens(stmt.body, out, depth + 1, norm)
    elif isinstance(stmt, BreakStmt):
        out.append(pad + "break")
    elif isinstance(stmt, ContinueStmt):
        out.append(pad + "continue")
    else:
        out.append(pad + f"<{type(stmt).__name__}>")


_DTYPE_NAMES_ATTR = "_specialization_dtype_names"


def program_dtype_names(program: Program) -> tuple[str, ...]:
    """Sorted names of every data type the program touches (memoized —
    this sits on the per-launch hot path)."""
    cached = program.__dict__.get(_DTYPE_NAMES_ATTR)
    if cached is not None:
        return cached
    names = {p.dtype.name for p in program.params}
    for inst in program.body.instructions():
        out = inst.output
        if out is not None:
            names.add(out.ttype.dtype.name)
        for operand in inst.inputs():
            names.add(operand.ttype.dtype.name)
    result = tuple(sorted(names))
    program.__dict__[_DTYPE_NAMES_ATTR] = result
    return result


def program_fingerprint(program: Program) -> str:
    """Structural hash of a program (memoized on the program object).

    Two independently built but identical programs get equal fingerprints;
    any semantically meaningful difference — an offset expression, a mask
    flag, a layout's thread mapping, broadcast dimensions, ``num_threads``
    — changes the hash.  Compiler passes mutate programs in place, so the
    value is pinned on first request (the launch path always fingerprints
    before compiling).
    """
    cached = program.__dict__.get(_FINGERPRINT_ATTR)
    if cached is not None:
        return cached
    norm = _VarNormalizer()
    tokens = [
        f"program {program.name} threads={program.num_threads}",
        f"params=({','.join(f'{norm.token(p)}:{p.dtype.name}' for p in program.params)})",
        f"grid=({','.join(_expr_token(g, norm) for g in program.grid)})",
    ]
    _stmt_tokens(program.body, tokens, 0, norm)
    digest = hashlib.sha256("\n".join(tokens).encode()).hexdigest()
    program.__dict__[_FINGERPRINT_ATTR] = digest
    return digest


def specialization_key(program: Program, args: Sequence = ()) -> tuple:
    """Cache key for a compiled kernel launch.

    ``(program hash, const-bound scalar params, dtype set)`` — pointer
    arguments are excluded (the kernel is address-agnostic), while scalar
    arguments are treated as specialization constants.

    The last two components are deliberately conservative: today's
    pipeline lowers identically for every scalar value (so same-program /
    different-const entries hold structurally equal kernels, bounded by
    the cache's LRU limit), and the dtype set is implied by the program
    hash — both are kept explicit so the key already has the shape a
    const-folding or dtype-specializing pass will need, without another
    cache migration.
    """
    const_params = tuple(
        (p.name, float(a) if p.dtype.is_float else int(a))
        for p, a in zip(program.params, args)
        if not p.dtype.is_pointer
    )
    return (program_fingerprint(program), const_params, program_dtype_names(program))


def prepare_program(program: Program) -> VerificationReport:
    """Verify ``program``, then simplify it and eliminate dead code in
    place: the program the engines run.  Raises
    :class:`~repro.errors.TypeCheckError` before touching an ill-typed
    program."""
    verification = verify_program(program)
    simplify_program(program)
    eliminate_dead_code(program)
    return verification


def compile_program(
    program: Program, shared_capacity: int | None = None
) -> CompiledKernel:
    """Run the full pipeline on ``program``: :func:`prepare_program`,
    then the CUDA artifact."""
    verification = prepare_program(program)
    shared_plan = plan_shared_memory(program, shared_capacity)
    selection = select_instructions(program)
    source = generate_cuda(program, shared_plan, selection)
    return CompiledKernel(
        program=program,
        source=source,
        shared_plan=shared_plan,
        selection=selection,
        verification=verification,
    )
