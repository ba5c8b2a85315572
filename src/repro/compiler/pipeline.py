"""The compilation pipeline (paper Section 8.1).

Steps: verify → simplify → DCE → shared-memory planning → instruction
selection → code generation.  The first three are
:func:`prepare_program`: they make the program the engines run, once per
program object — the program carries the mark, so preparation lives and
dies with it, and a launch runs nothing else.  :func:`compile_program`
adds the rest — the CUDA artifact: the generated source, the shared-
memory size it requests at launch, and the selection report the
performance model reads.

The module also defines the **kernel specialization key**: the program
object together with the launch's const-bound scalar parameters.  The
JIT's kernels and stacking key on it.  Two builds of one template are
two programs; a served path launches one program object for a whole
run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from repro.compiler.codegen import generate_cuda
from repro.compiler.dce import eliminate_dead_code
from repro.compiler.memory_planner import MemoryPlan, plan_shared_memory
from repro.compiler.selection import SelectionReport, select_instructions
from repro.compiler.simplify import simplify_program
from repro.compiler.verify import VerificationReport, verify_program
from repro.ir.program import Program


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
# Specialization keys
# ---------------------------------------------------------------------------


def specialization_key(program: Program, args: Sequence = ()) -> tuple:
    """Cache key for a compiled kernel launch: ``(program, const-bound
    scalar params)``.

    Pointer arguments are excluded (the kernel is address-agnostic);
    scalar arguments are specialization constants — the compiled tier
    folds them into its kernels.  The program component is the object
    itself, which hashes by identity (``Program`` defines no ``__eq__``):
    two builds of one template are two specializations, and a key
    holds its program alive, so a recycled ``id`` can never alias a
    dead program.
    """
    const_params = tuple(
        (p.name, float(a) if p.dtype.is_float else int(a))
        for p, a in zip(program.params, args)
        if not p.dtype.is_pointer
    )
    return (program, const_params)


#: Where a prepared program keeps its verification report — the mark
#: that it is prepared.
_PREPARED_ATTR = "_prepared_verification"
#: Held while a program is prepared: runtimes on several threads may
#: launch one program, and the passes rewrite it in place.
_PREPARE_LOCK = threading.Lock()


def prepare_program(program: Program) -> bool:
    """Verify ``program``, then simplify it and eliminate dead code in
    place: the program the engines run.  Runs once per program object:
    the verification report marks the program, and a marked program
    returns at once.  Returns whether this call ran the passes.  Raises
    :class:`~repro.errors.TypeCheckError` before touching an ill-typed
    program, which stays unmarked."""
    if _PREPARED_ATTR in program.__dict__:
        return False
    with _PREPARE_LOCK:
        if _PREPARED_ATTR in program.__dict__:
            return False
        verification = verify_program(program)
        simplify_program(program)
        eliminate_dead_code(program)
        program.__dict__[_PREPARED_ATTR] = verification
    return True


def compile_program(
    program: Program, shared_capacity: int | None = None
) -> CompiledKernel:
    """Run the full pipeline on ``program``: :func:`prepare_program`,
    then the CUDA artifact."""
    prepare_program(program)
    shared_plan = plan_shared_memory(program, shared_capacity)
    selection = select_instructions(program)
    source = generate_cuda(program, shared_plan, selection)
    return CompiledKernel(
        program=program,
        source=source,
        shared_plan=shared_plan,
        selection=selection,
        verification=program.__dict__[_PREPARED_ATTR],
    )
