"""Every instruction is accounted for, once per statement of the semantics.

The instruction set is stated twice: naively in the sequential oracle
(``vm/interp.py``) and once for the block-vectorised tiers — one handler
per instruction in ``vm/batched.py``, which the batched engine runs on
arrays and the lowering pipeline runs on names.  An instruction class
missing from a handler table is not an error anywhere at import time: it
fails at the first launch that uses it.  This file makes that a named
failure, holds the declared :data:`repro.compiler.lower.UNLOWERABLE` set
to exactly the handlers that decline to lower, and guards the structure
itself: outside the oracle no instruction is handled in two places, and
the lowering pipeline names no instruction at all.
"""

import ast
import inspect
import io
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.vm  # noqa: F401 — registers the SEQUENTIAL and LOCKSTEP handlers
from repro.compiler.lower import UNLOWERABLE, LoweringBailout, lower_program
from repro.dtypes import float16
from repro.ir import instructions as insts
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.vm import BatchedExecutor, GlobalMemory
from repro.vm.dispatch import LOCKSTEP, SEQUENTIAL

INSTRUCTIONS = {
    cls
    for _, cls in inspect.getmembers(insts, inspect.isclass)
    if issubclass(cls, insts.Instruction) and cls is not insts.Instruction
}


def names(classes) -> list:
    return sorted(cls.__name__ for cls in classes)


def test_the_instruction_set_is_the_papers_table():
    assert len(INSTRUCTIONS) == 23


def test_every_instruction_has_a_sequential_handler():
    assert names(SEQUENTIAL.instruction_classes()) == names(INSTRUCTIONS)


def test_every_instruction_has_a_batched_handler():
    """The one handler table of the batched and the compiled tier."""
    assert names(LOCKSTEP.instruction_classes()) == names(INSTRUCTIONS)


def _program_using(cls):
    """A one-block program whose last instruction is a ``cls``."""
    pb = ProgramBuilder(f"uses_{cls.__name__}", grid=[1])
    a_ptr = pb.param("a", pointer(float16))
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[8, 4])
    tile = pb.load_global(g_a, layout=spatial(8, 4), offset=[0, 0])
    if cls is insts.PrintTensor:
        pb.print_tensor(tile, "dbg")
    else:
        assert cls is insts.AllocateGlobal
        pb.store_global(tile, pb.allocate_global(float16, [8, 4]), offset=[0, 0])
    return pb.finish()


def test_every_instruction_is_lowered_or_declared_unlowerable():
    """``UNLOWERABLE`` is declared, not a second table: its members have
    handlers like every instruction, which execute on the batched engine
    and decline — by name — when the same handler is asked to lower."""
    assert UNLOWERABLE == {insts.AllocateGlobal, insts.PrintTensor}
    assert UNLOWERABLE <= set(LOCKSTEP.instruction_classes())
    for cls in sorted(UNLOWERABLE, key=lambda c: c.__name__):
        program = _program_using(cls)
        memory = GlobalMemory(1 << 16)
        a = memory.upload(np.ones((8, 4)), float16)
        used, bumped = memory.used_bytes, memory._next
        with pytest.raises(LoweringBailout, match=f"{cls.__name__} cannot be lowered"):
            lower_program(program, [a], memory)
        assert memory._next == bumped  # declined before touching the allocator
        out = io.StringIO()
        stats = BatchedExecutor(memory, stdout=out).launch(program, [a])
        assert stats.instructions == len(list(program.body.instructions()))
        assert bool(out.getvalue()) == (cls is insts.PrintTensor)
        # AllocateGlobal reserved a span, and the launch freed it.
        assert (memory._next > bumped) == (cls is insts.AllocateGlobal)
        assert memory.used_bytes == used


# ---------------------------------------------------------------------------
# Structure: one handler per instruction outside the oracle
# ---------------------------------------------------------------------------

SRC = Path(repro.__file__).parent
ORACLE = SRC / "vm" / "interp.py"


def _instruction_refs(node) -> list:
    """Names of the ``insts.<Class>`` references anywhere under ``node``."""
    return [
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id == "insts"
        and n.attr in {cls.__name__ for cls in INSTRUCTIONS}
    ]


def _registered_handlers(path: Path) -> list:
    """``(instruction class name, function name)`` for every function in
    ``path`` decorated ``@<table>.register(insts.X, ...)``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.FunctionDef):
            continue
        for deco in node.decorator_list:
            if (
                isinstance(deco, ast.Call)
                and isinstance(deco.func, ast.Attribute)
                and deco.func.attr == "register"
            ):
                found += [(name, node.name) for name in _instruction_refs(deco)]
    return found


def test_each_instruction_is_handled_in_one_place_outside_the_oracle():
    """Under ``src/repro``, leaving out ``vm/interp.py``: exactly one
    function is registered for each instruction class, and
    ``compiler/lower.py`` names instruction classes only to declare
    ``UNLOWERABLE`` — there is no second handler set to drift."""
    handlers: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        if path != ORACLE:
            for cls_name, fn_name in _registered_handlers(path):
                handlers.setdefault(cls_name, []).append(f"{path.name}:{fn_name}")
    assert sorted(handlers) == names(INSTRUCTIONS)
    assert {k: v for k, v in handlers.items() if len(v) != 1} == {}
    assert len(_registered_handlers(ORACLE)) == 23  # the helper does see handlers

    lower = ast.parse((SRC / "compiler" / "lower.py").read_text())
    declared = [
        node
        for node in lower.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["UNLOWERABLE"]
    ]
    assert len(declared) == 1
    assert sorted(_instruction_refs(lower)) == sorted(_instruction_refs(declared[0]))
    assert sorted(_instruction_refs(declared[0])) == names(UNLOWERABLE)
