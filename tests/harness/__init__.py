"""Differential test harness for the VM execution engines.

:mod:`tests.harness.generator` produces randomized Tilus programs with
mixed data types (including sub-byte), control flow, shared-memory
staging, register reinterpretation and tensor-core ops;
:mod:`tests.harness.differential` runs each program through every
execution mode — the sequential interpreter, the grid-vectorized
batched executor, the multi-stream runtime, execution-graph
capture-and-replay and the compiled tier —
and asserts *bit-exact* agreement of every output
tensor plus execution-stat parity.
"""

from tests.harness.differential import DifferentialMismatch, run_differential
from tests.harness.generator import GeneratedCase, generate_case

__all__ = [
    "GeneratedCase",
    "generate_case",
    "run_differential",
    "DifferentialMismatch",
]
