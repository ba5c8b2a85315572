"""Every instruction is accounted for on every tier.

An instruction class missing from a tier's handler set is not an error
anywhere at import time: on the interpreted tiers it fails at the first
launch that uses it, and on the compiled tier it is a silent, permanent
fallback to the batched engine — a perf cliff no other test sees.  This
file makes each of those a named failure: a new
:class:`~repro.ir.instructions.Instruction` subclass must get a
sequential handler, a batched handler, and either a lowering handler or
an explicit entry in :data:`repro.compiler.lower.UNLOWERABLE`.
"""

import inspect

import repro.vm  # noqa: F401 — registers the SEQUENTIAL and BATCHED handlers
from repro.compiler.lower import UNLOWERABLE, _Tracer
from repro.ir import instructions as insts
from repro.vm.dispatch import BATCHED, SEQUENTIAL

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
    assert names(BATCHED.instruction_classes()) == names(INSTRUCTIONS)


def test_every_instruction_is_lowered_or_declared_unlowerable():
    lowered = set(_Tracer.handlers)
    assert not lowered & UNLOWERABLE, names(lowered & UNLOWERABLE)
    assert names(lowered | UNLOWERABLE) == names(INSTRUCTIONS)
    assert UNLOWERABLE == {insts.AllocateGlobal, insts.PrintTensor}
