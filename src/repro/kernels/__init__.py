"""Kernel library: the parameterized quantized matmul template and the
weight transformation program."""

from repro.kernels.config import MatmulConfig, default_configs
from repro.kernels.layouts import MatmulLayouts, matmul_layouts
from repro.kernels.matmul import matmul_reference, quantized_matmul_program
from repro.kernels.splitk import (
    splitk_partial_program,
    splitk_reduce_program,
    splitk_slice_program,
)
from repro.kernels.transform import make_transform_program

__all__ = [
    "MatmulConfig",
    "default_configs",
    "MatmulLayouts",
    "matmul_layouts",
    "quantized_matmul_program",
    "matmul_reference",
    "make_transform_program",
    "splitk_partial_program",
    "splitk_reduce_program",
    "splitk_slice_program",
]
