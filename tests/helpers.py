"""Shared test fixtures and hypothesis strategies."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.dtypes import uint
from repro.layout import Layout, column_local, column_spatial, local, spatial
from repro.vm import TensorView


@st.composite
def primitive_layouts(draw, rank: int = 2, max_extent: int = 4):
    """A random primitive layout of the given rank."""
    kind = draw(st.sampled_from([local, spatial, column_local, column_spatial]))
    extents = [draw(st.integers(1, max_extent)) for _ in range(rank)]
    return kind(*extents)


@st.composite
def composed_layouts(draw, rank: int = 2, max_factors: int = 3, max_extent: int = 3):
    """A random Kronecker product of 1..max_factors primitives."""
    n = draw(st.integers(1, max_factors))
    layout = draw(primitive_layouts(rank=rank, max_extent=max_extent))
    for _ in range(n - 1):
        layout = layout.compose(draw(primitive_layouts(rank=rank, max_extent=max_extent)))
    return layout


def layout_table_dict(layout: Layout) -> dict:
    """Map (thread, local) -> logical index tuple, for comparisons."""
    table = layout.table()
    return {
        (t, i): tuple(table[t, i])
        for t in range(layout.num_threads)
        for i in range(layout.local_size)
    }


def random_values_for(dtype, shape, rng: np.random.Generator):
    """Representable random values for any data type."""
    if dtype.is_integer:
        return rng.integers(int(dtype.min_value), int(dtype.max_value) + 1, size=shape)
    return dtype.quantize(rng.standard_normal(shape) * 2)


def stored(values, nbits: int) -> np.ndarray:
    """The bytes the VM's sub-byte storage (``vm/memory.py``'s
    ``TensorView``) holds for ``values`` as ``uint(nbits)`` elements."""
    values = np.asarray(values, dtype=np.uint64)
    nbytes = (values.size * nbits + 7) // 8
    buffer = np.zeros(nbytes + 8, dtype=np.uint8)  # + the view's guard
    view = TensorView(buffer, 0, uint(nbits), values.shape)
    view.write_all(values)
    assert np.array_equal(view.read_all(), values)
    return buffer[:nbytes]
