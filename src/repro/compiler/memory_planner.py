"""Shared-memory planning (paper Section 8.1, step 1).

Kernels may allocate shared tensors multiple times on demand; the planner
assigns each allocation a byte offset within the kernel's single shared
region, reusing space freed by :class:`~repro.ir.instructions.FreeShared`,
and computes the total shared size the launch must request.  The plan is
part of the CUDA artifact (:func:`repro.compiler.pipeline.compile_program`):
the VM engines give each block its own shared memory, and reserve an
``AllocateGlobal`` workspace span when the instruction runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CompilationError
from repro.ir import instructions as insts
from repro.ir.program import Program
from repro.ir.types import TensorVar

_SMEM_ALIGN = 16


@dataclass
class MemoryPlan:
    """Result of planning one memory space."""

    offsets: dict[TensorVar, int] = field(default_factory=dict)
    total_bytes: int = 0

    def offset_of(self, tensor: TensorVar) -> int:
        if tensor not in self.offsets:
            raise CompilationError(f"tensor {tensor.name} was never planned")
        return self.offsets[tensor]


class _FirstFit:
    """First-fit free-list allocator over a growable byte span."""

    def __init__(self, align: int) -> None:
        self.align = align
        self.free: list[tuple[int, int]] = []  # (offset, size), sorted
        self.high_water = 0

    def alloc(self, size: int) -> int:
        size = (size + self.align - 1) // self.align * self.align
        for idx, (offset, span) in enumerate(self.free):
            if span >= size:
                if span == size:
                    self.free.pop(idx)
                else:
                    self.free[idx] = (offset + size, span - size)
                return offset
        offset = self.high_water
        self.high_water += size
        return offset

    def release(self, offset: int, size: int) -> None:
        size = (size + self.align - 1) // self.align * self.align
        self.free.append((offset, size))
        self.free.sort()
        # Coalesce adjacent spans.
        merged: list[tuple[int, int]] = []
        for off, span in self.free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + span)
            else:
                merged.append((off, span))
        self.free = merged


def plan_shared_memory(program: Program, capacity_bytes: int | None = None) -> MemoryPlan:
    """Assign offsets to every shared allocation in program order.

    The walk is linear over the instruction stream: an allocation inside a
    loop reuses the same offset every iteration (allocations are hoisted in
    real codegen), which the linear walk models by planning each
    ``AllocateShared`` instruction once.
    """
    plan = MemoryPlan()
    allocator = _FirstFit(_SMEM_ALIGN)
    sizes: dict[TensorVar, int] = {}
    for inst in program.body.instructions():
        if isinstance(inst, insts.AllocateShared):
            tensor = inst.out
            if tensor in plan.offsets:
                continue  # same static allocation revisited (loop body)
            nbytes = tensor.ttype.storage_bytes()
            plan.offsets[tensor] = allocator.alloc(nbytes)
            sizes[tensor] = nbytes
        elif isinstance(inst, insts.FreeShared):
            tensor = inst.tensor
            if tensor in plan.offsets:
                allocator.release(plan.offsets[tensor], sizes[tensor])
    plan.total_bytes = allocator.high_water
    if capacity_bytes is not None and plan.total_bytes > capacity_bytes:
        raise CompilationError(
            f"program needs {plan.total_bytes} B of shared memory but the "
            f"device provides {capacity_bytes} B"
        )
    return plan

