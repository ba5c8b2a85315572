"""Virtual machine: simulated device memory and the execution engines.

Two engines execute the same instruction set: the sequential
:class:`Interpreter` (one block at a time; the deliberately naive oracle,
independent of everything below) and the grid-vectorized
:class:`BatchedExecutor` (all blocks in lockstep as stacked numpy ops over
the tile-semantics table :mod:`repro.vm.tileops`, which compiled kernels
share).  :func:`select_engine` implements the runtime's ``engine="auto"``
policy: batched whenever the program can batch, whatever the grid size.
"""

from repro.vm.batched import (
    BatchedExecutor,
    BatchedRegisterValue,
    BatchedSharedMemory,
    BatchedView,
    select_engine,
    supports_batched,
)
from repro.vm.dispatch import BATCHED, SEQUENTIAL, DispatchTable
from repro.vm.interp import BlockContext, ExecutionStats, Interpreter
from repro.vm.memory import GlobalMemory, SharedMemory, TensorView
from repro.vm.values import RegisterValue

__all__ = [
    "Interpreter",
    "BatchedExecutor",
    "BatchedRegisterValue",
    "BatchedSharedMemory",
    "BatchedView",
    "select_engine",
    "supports_batched",
    "DispatchTable",
    "SEQUENTIAL",
    "BATCHED",
    "BlockContext",
    "ExecutionStats",
    "GlobalMemory",
    "SharedMemory",
    "TensorView",
    "RegisterValue",
]
