"""Algebraic layout system (paper Sections 4 and 5)."""

from repro.layout.core import (
    Layout,
    column_local,
    column_repeat,
    column_spatial,
    flat_local,
    flat_spatial,
    local,
    repeat,
    spatial,
)
from repro.layout.core import replicate
from repro.layout.mma import (
    MMA_CONFIGS,
    WARP_SIZE,
    MmaConfig,
    ldmatrix_m8n8_layout,
    ldmatrix_unit_layout,
    mma_m16n8k8,
    mma_m16n8k16,
    supports_ldmatrix,
)
from repro.layout.ops import (
    canonicalize,
    divide,
    is_divisible,
    left_divide,
)

__all__ = [
    "Layout",
    "local",
    "spatial",
    "column_local",
    "column_spatial",
    "repeat",
    "column_repeat",
    "replicate",
    "ldmatrix_m8n8_layout",
    "flat_local",
    "flat_spatial",
    "canonicalize",
    "divide",
    "left_divide",
    "is_divisible",
    "MmaConfig",
    "MMA_CONFIGS",
    "WARP_SIZE",
    "mma_m16n8k8",
    "mma_m16n8k16",
    "ldmatrix_unit_layout",
    "supports_ldmatrix",
]
