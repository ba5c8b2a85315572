"""Reproduction of *Tilus: A Tile-Level GPGPU Programming Language for
Low-Precision Computation* (ASPLOS 2026).

Subpackages:
    :mod:`repro.dtypes`   — standard + arbitrary low-precision data types
    :mod:`repro.layout`   — the algebraic layout system
    :mod:`repro.ir`       — the thread-block-level VM language
    :mod:`repro.lang`     — the Python DSL (ProgramBuilder)
    :mod:`repro.compiler` — verifier, planners, selection, CUDA codegen
    :mod:`repro.vm`       — bit-accurate interpreter (GPU substitute)
    :mod:`repro.runtime`  — launches, streams, JIT tier, execution context
    :mod:`repro.quant`    — quantization + weight layout transforms
    :mod:`repro.kernels`  — the parameterized quantized-matmul template
    :mod:`repro.autotune` — tile-configuration tuner
    :mod:`repro.perf`     — analytical GPU model + baseline systems
    :mod:`repro.llm`      — end-to-end serving simulation
    :mod:`repro.ops`      — one-call user API
    :mod:`repro.core`     — stable re-export of the primary contribution
"""

__version__ = "0.1.0"

from repro import core  # noqa: F401  (stable public surface)
