"""Virtual machine: simulated device memory and the execution engines.

Two statements of one instruction set.  The sequential
:class:`Interpreter` (one block at a time) is the deliberately naive
oracle, independent of everything below.  The block-vectorised tiers
share one: the tile-semantics table :mod:`repro.vm.tileops` and, over
it, one handler per instruction (:mod:`repro.vm.batched`), which the
grid-vectorized :class:`BatchedExecutor` runs on arrays — all blocks in
lockstep as stacked numpy ops — and the lowering pipeline runs on names
to write a compiled kernel.  :func:`select_engine` implements the
runtime's ``engine="auto"`` policy: batched whenever the program can
batch, whatever the grid size.
"""

from repro.vm.batched import (
    BatchedExecutor,
    BatchedSharedMemory,
    select_engine,
    supports_batched,
)
from repro.vm.dispatch import LOCKSTEP, SEQUENTIAL, DispatchTable
from repro.vm.interp import BlockContext, ExecutionStats, Interpreter
from repro.vm.memory import GlobalMemory, SharedMemory, TensorView
from repro.vm.values import RegisterValue

__all__ = [
    "Interpreter",
    "BatchedExecutor",
    "BatchedSharedMemory",
    "select_engine",
    "supports_batched",
    "DispatchTable",
    "SEQUENTIAL",
    "LOCKSTEP",
    "BlockContext",
    "ExecutionStats",
    "GlobalMemory",
    "SharedMemory",
    "TensorView",
    "RegisterValue",
]
