"""Host-side weight packing and the global-layout transformation.

Two representations of a quantized weight matrix exist on the device:

1. **Row-major compact** — ``q[k, n]`` packed back to back at ``nbits``
   per element.  Simple, but loading it into the mma register layout needs
   non-coalesced accesses and per-element bit surgery (paper Section 7.2).
2. **Tile-transformed** — ``u8[k/BK, n/BN, BK*BN*nbits/8]`` where each
   tile's bytes are ordered exactly as the kernel's register ``View``
   expects, so a plain vectorized byte load reconstructs every thread's
   fragment (paper Figure 9).

:func:`transform_weight` computes representation 2 directly with numpy —
it is the host-side equivalent of running the ``transform_b`` VM program
and is validated against it in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import DataType
from repro.errors import LayoutError
from repro.layout import Layout
from repro.utils.bits import regroup_patterns
from repro.utils.indexmath import gcd


def byte_view_layout(reg_layout: Layout, nbits: int) -> Layout:
    """The uint8 view layout for a low-precision register tile.

    Paper Section 7.2: a tile holding ``n`` bytes per thread over ``T``
    threads is reinterpreted as dtype uint8 with layout
    ``local(n2).spatial(T).local(n1)`` where ``n1 = gcd(n, 16)`` and
    ``n2 = n / n1`` — ``n1`` contiguous bytes feed one vectorized
    (up to 128-bit) memory instruction.
    """
    from repro.layout import local, spatial

    bits_per_thread = reg_layout.local_size * nbits
    if bits_per_thread % 8 != 0:
        raise LayoutError(
            f"register tile holds {bits_per_thread} bits per thread, not a "
            f"whole number of bytes; choose a tile with more local elements"
        )
    n = bits_per_thread // 8
    n1 = gcd(n, 16)
    n2 = n // n1
    return local(n2).spatial(reg_layout.num_threads).local(n1)


def tile_bytes(reg_layout: Layout, nbits: int) -> int:
    """Packed byte count of one weight tile."""
    bits = reg_layout.local_size * nbits
    if bits % 8 != 0:
        raise LayoutError(f"{bits} bits per thread is not byte-aligned")
    return reg_layout.num_threads * (bits // 8)


def _placement(reg_layout: Layout, nbits: int) -> tuple:
    """Where one tile's values come from and where its bytes go.

    Returns ``((rows, cols), positions)``: ``rows[t * L + i], cols[t * L +
    i]`` is the tile coordinate thread ``t`` holds in local slot ``i``
    (``L`` locals per thread), and ``positions[t * nbytes + j]`` is the
    byte offset within the packed tile of thread ``t``'s ``j``-th byte
    under :func:`byte_view_layout`.  Both hold for every tile alike.
    """
    view = byte_view_layout(reg_layout, nbits)
    t_count = reg_layout.num_threads

    def thread_major(layout: Layout) -> list:
        per_thread = layout.local_size
        t = np.repeat(np.arange(t_count), per_thread)
        i = np.tile(np.arange(per_thread), t_count)
        return [np.broadcast_to(c, t.shape) for c in layout.map_batch(t, i)]

    rows, cols = thread_major(reg_layout)
    (positions,) = thread_major(view)
    return (rows, cols), positions


def transform_weight(
    q: np.ndarray, dtype: DataType, reg_layout: Layout
) -> np.ndarray:
    """Rearrange ``q[k, n]`` into the tile-transformed byte representation.

    One array program over every tile: gather each thread's values through
    the register layout, encode them, regroup each thread's ``L`` patterns
    into bytes (:func:`~repro.utils.bits.regroup_patterns`, LSB first) and
    scatter the bytes to the byte-view layout's positions.

    Args:
        q: stored weight values (shape [k, n]).
        dtype: the low-precision storage type.
        reg_layout: register layout of one (BK, BN) weight tile — bytes are
            ordered so that the kernel's ``View`` to this layout is a no-op.

    Returns:
        uint8 array of shape ``[k // BK, n // BN, tile_bytes]``.
    """
    q = np.asarray(q)
    bk, bn = reg_layout.shape
    k, n = q.shape
    if k % bk or n % bn:
        raise LayoutError(f"weight {k}x{n} is not tiled by {bk}x{bn}")
    (rows, cols), positions = _placement(reg_layout, dtype.nbits)
    tiles = q.reshape(k // bk, bk, n // bn, bn).swapaxes(1, 2)
    patterns = dtype.to_bits(tiles[:, :, rows, cols])
    patterns = patterns.reshape(tiles.shape[:2] + (reg_layout.num_threads, -1))
    per_thread = regroup_patterns(patterns, dtype.nbits, 8)
    out = np.empty(tiles.shape[:2] + positions.shape, dtype=np.uint8)
    out[:, :, positions] = per_thread.reshape(out.shape)
    return out


def untransform_weight(
    packed: np.ndarray, dtype: DataType, reg_layout: Layout, k: int, n: int
) -> np.ndarray:
    """Invert :func:`transform_weight` (used by tests): the same program
    run backwards — gather bytes, regroup, decode, scatter."""
    packed = np.asarray(packed, dtype=np.uint8)
    bk, bn = reg_layout.shape
    (rows, cols), positions = _placement(reg_layout, dtype.nbits)
    per_thread = packed[:, :, positions].reshape(
        packed.shape[:2] + (reg_layout.num_threads, -1)
    )
    patterns = regroup_patterns(per_thread, 8, dtype.nbits)
    out = np.zeros((k, n), dtype=np.int64 if dtype.is_integer else np.float64)
    tiles = out.reshape(k // bk, bk, n // bn, bn).swapaxes(1, 2)
    tiles[:, :, rows, cols] = dtype.from_bits(patterns.reshape(tiles.shape[:2] + (-1,)))
    return out
