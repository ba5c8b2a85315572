"""Layouts mandated by tensor-core (mma) and ldmatrix instructions.

These are the concrete layouts from the paper:

- Figure 3 / Section 4.2: operand A of ``mma.m16n8k8`` is
  ``local(2, 1).spatial(8, 4).local(1, 2)``.
- Figure 2: the FP16×INT6 matmul uses ``mma.m16n8k16`` with
  A ``column_local(2, 2).spatial(8, 4).local(1, 2)``,
  B ``local(2, 1).column_spatial(4, 8).local(2, 1)`` and accumulator
  C/D ``local(2, 1).spatial(8, 4).local(1, 2)``.
- Section 8: ``ldmatrix`` accepts register layouts divisible by
  ``spatial(8, 4).repeat(1, 4)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LayoutError
from repro.layout.core import Layout, column_local, column_spatial, local, spatial
from repro.layout.ops import is_divisible

WARP_SIZE = 32


@dataclass(frozen=True)
class MmaConfig:
    """Shape and operand layouts of one tensor-core mma instruction."""

    name: str
    m: int
    n: int
    k: int
    a_layout: Layout
    b_layout: Layout
    c_layout: Layout

    def __post_init__(self) -> None:
        if self.a_layout.shape != (self.m, self.k):
            raise LayoutError(f"{self.name}: A layout shape mismatch")
        if self.b_layout.shape != (self.k, self.n):
            raise LayoutError(f"{self.name}: B layout shape mismatch")
        if self.c_layout.shape != (self.m, self.n):
            raise LayoutError(f"{self.name}: C layout shape mismatch")
        for operand in (self.a_layout, self.b_layout, self.c_layout):
            if operand.num_threads != WARP_SIZE:
                raise LayoutError(f"{self.name}: operands must span one warp")


def mma_m16n8k8() -> MmaConfig:
    """``mma.m16n8k8.f32.f16.f16.f32`` (paper Figure 3)."""
    return MmaConfig(
        name="mma.m16n8k8",
        m=16,
        n=8,
        k=8,
        a_layout=local(2, 1).spatial(8, 4).local(1, 2),
        b_layout=column_spatial(4, 8).column_local(2, 1),
        c_layout=local(2, 1).spatial(8, 4).local(1, 2),
    )


def mma_m16n8k16() -> MmaConfig:
    """``mma.m16n8k16.f32.f16.f16.f32`` (paper Figure 2)."""
    return MmaConfig(
        name="mma.m16n8k16",
        m=16,
        n=8,
        k=16,
        a_layout=column_local(2, 2).spatial(8, 4).local(1, 2),
        b_layout=local(2, 1).column_spatial(4, 8).local(2, 1),
        c_layout=local(2, 1).spatial(8, 4).local(1, 2),
    )


MMA_CONFIGS: dict[str, MmaConfig] = {
    cfg.name: cfg for cfg in (mma_m16n8k8(), mma_m16n8k16())
}


def ldmatrix_unit_layout() -> Layout:
    """The divisibility unit for ``ldmatrix`` (Section 8 step 2)."""
    return spatial(8, 4).repeat(1, 4)


def ldmatrix_m8n8_layout() -> Layout:
    """One 8x8 ``ldmatrix`` fragment: 32 threads, two b16 lanes each."""
    return spatial(8, 4).repeat(1, 2)


def supports_ldmatrix(layout: Layout) -> bool:
    """True when the register layout can be filled with ``ldmatrix``.

    A layout qualifies when it is divisible by the paired unit of
    Section 8 (``spatial(8, 4).repeat(1, 4)``) or by a single 8x8
    fragment (``spatial(8, 4).repeat(1, 2)``), which covers the mma
    operand layouts loaded with ``ldmatrix.x2``/``.x4``.
    """
    if layout.rank != 2:
        return False
    return is_divisible(layout, ldmatrix_unit_layout()) or is_divisible(
        layout, ldmatrix_m8n8_layout()
    )
