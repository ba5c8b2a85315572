"""Split-k (Stream-K style) matmul: k-dimension parallelization.

The decode optimization the paper calls out as missing from Ladder
(Section 9.4): for tall-skinny products (m small, n·k large) the regular
grid cannot fill the GPU, so the reduction dimension is partitioned into
``split_k`` slices computed by independent thread blocks.  Partial sums
land in an f32 workspace; a second small kernel reduces them into the
output.

The partial/reduce pair is functionally deterministic (the reduce sums
slices in ascending order); on real hardware the same structure runs
with inter-block parallelism.  :func:`splitk_slice_program` splits the
partial computation into one launch per slice so the multi-stream
runtime (:mod:`repro.runtime.streams`) can issue the slices concurrently
on distinct streams.
"""

from __future__ import annotations

from repro.dtypes import DataType, float16, float32, uint8
from repro.errors import CompilationError
from repro.ir.program import Program
from repro.kernels.config import MatmulConfig
from repro.kernels.layouts import matmul_layouts
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.quant.scheme import QuantScheme
from repro.utils.indexmath import ceil_div


def splitk_partial_program(
    m: int,
    n: int,
    k: int,
    act_dtype: DataType,
    scheme: QuantScheme,
    cfg: MatmulConfig,
) -> Program:
    """Grid ``[m/BM, n/BN, split_k]``; slice ``s`` reduces k-range
    ``[s*K/split_k, (s+1)*K/split_k)`` into ``partials[s, m, n]`` (f32).

    Parameters: ``a_ptr``, ``b_ptr`` (transformed u8), ``scales_ptr``,
    ``partials_ptr`` (f32 workspace of shape [split_k, m, n]).
    """
    weight_dtype = scheme.dtype
    cfg.validate(weight_dtype)
    sk = cfg.split_k
    bm, bn, bk = cfg.block_m, cfg.block_n, cfg.block_k
    if sk < 2:
        raise CompilationError("splitk_partial_program needs split_k >= 2")
    if n % bn or k % bk or (k // bk) % sk:
        raise CompilationError(
            f"n={n}, k={k} must tile by ({bn}, {bk}) with k-tiles divisible by {sk}"
        )
    group = min(scheme.group_size, k)
    if group % bk != 0:
        raise CompilationError(f"group_size={group} must be a multiple of block_k={bk}")
    lay = matmul_layouts(cfg, weight_dtype)
    block_bytes = cfg.warps_n * lay.b_tile_bytes
    tiles_per_slice = (k // bk) // sk
    grid_m = ceil_div(m, bm)

    pb = ProgramBuilder(
        "splitk_partial", grid=[grid_m, n // bn, sk], num_threads=cfg.num_threads
    )
    a_ptr = pb.param("a_ptr", pointer(act_dtype))
    b_ptr = pb.param("b_ptr", pointer(uint8))
    s_ptr = pb.param("scales_ptr", pointer(act_dtype))
    p_ptr = pb.param("partials_ptr", pointer(float32))

    bi, bj, bs = pb.block_indices()
    ga = pb.view_global(a_ptr, dtype=act_dtype, shape=[m, k])
    gb = pb.view_global(b_ptr, dtype=uint8, shape=[k // bk, n // bn, block_bytes])
    gs = pb.view_global(s_ptr, dtype=act_dtype, shape=[k // group, n])
    gp = pb.view_global(p_ptr, dtype=float32, shape=[sk, m, n])

    acc = pb.allocate_register(float32, layout=lay.c, init=0.0)
    base = pb.assign("i32", bs * tiles_per_slice, hint="base")
    with pb.for_range(tiles_per_slice) as t:
        kt = pb.assign("i32", base + t, hint="kt")
        a_tile = pb.load_global(ga, layout=lay.a, offset=[bi * bm, kt * bk], masked=True)
        braw = pb.load_global(gb, layout=lay.b_bytes, offset=[kt, bj, 0])
        b_lp = pb.view(braw, dtype=weight_dtype, layout=lay.b)
        b_act = pb.cast(b_lp, act_dtype)
        if scheme.zero_point:
            b_act = pb.sub(b_act, float(scheme.zero_point))
        sc = pb.load_global(
            gs, layout=lay.b, offset=[kt * bk // group, bj * bn], broadcast_dims=[0]
        )
        b_deq = pb.mul(b_act, sc)
        pb.dot(a_tile, b_deq, acc, out=acc)
    pb.store_global(acc, gp, offset=[bs, bi * bm, bj * bn], masked=True)
    return pb.finish()


def splitk_slice_program(
    m: int,
    n: int,
    k: int,
    act_dtype: DataType,
    scheme: QuantScheme,
    cfg: MatmulConfig,
) -> Program:
    """One split-k slice as its *own launch*, for multi-stream issue.

    Unlike :func:`splitk_partial_program` (whose grid carries the whole
    split dimension), this program covers a single k-slice on grid
    ``[m/BM, n/BN]``; the slice is selected by two runtime arguments:

    - ``partial_ptr`` — the f32 ``[m, n]`` slab for *this* slice (the
      caller offsets the workspace base by ``s * m * n * 4`` bytes), and
    - ``k0`` — the slice's first k-tile, ``s * (k / bk / split_k)``.

    Because each slice writes a disjoint workspace slab, the runtime's
    hazard tracker lets all ``split_k`` launches run concurrently on
    distinct streams; the reduce kernel, which reads the whole workspace,
    is ordered after every slice automatically.  One program object
    serves every slice (each ``k0`` is its own specialization key).
    """
    weight_dtype = scheme.dtype
    cfg.validate(weight_dtype)
    sk = cfg.split_k
    bm, bn, bk = cfg.block_m, cfg.block_n, cfg.block_k
    if sk < 2:
        raise CompilationError("splitk_slice_program needs split_k >= 2")
    if n % bn or k % bk or (k // bk) % sk:
        raise CompilationError(
            f"n={n}, k={k} must tile by ({bn}, {bk}) with k-tiles divisible by {sk}"
        )
    group = min(scheme.group_size, k)
    if group % bk != 0:
        raise CompilationError(f"group_size={group} must be a multiple of block_k={bk}")
    lay = matmul_layouts(cfg, weight_dtype)
    block_bytes = cfg.warps_n * lay.b_tile_bytes
    tiles_per_slice = (k // bk) // sk
    grid_m = ceil_div(m, bm)

    pb = ProgramBuilder(
        "splitk_slice", grid=[grid_m, n // bn], num_threads=cfg.num_threads
    )
    a_ptr = pb.param("a_ptr", pointer(act_dtype))
    b_ptr = pb.param("b_ptr", pointer(uint8))
    s_ptr = pb.param("scales_ptr", pointer(act_dtype))
    p_ptr = pb.param("partial_ptr", pointer(float32))
    k0 = pb.param("k0", "i32")

    bi, bj = pb.block_indices()
    ga = pb.view_global(a_ptr, dtype=act_dtype, shape=[m, k])
    gb = pb.view_global(b_ptr, dtype=uint8, shape=[k // bk, n // bn, block_bytes])
    gs = pb.view_global(s_ptr, dtype=act_dtype, shape=[k // group, n])
    gp = pb.view_global(p_ptr, dtype=float32, shape=[m, n])

    acc = pb.allocate_register(float32, layout=lay.c, init=0.0)
    with pb.for_range(tiles_per_slice) as t:
        kt = pb.assign("i32", k0 + t, hint="kt")
        a_tile = pb.load_global(ga, layout=lay.a, offset=[bi * bm, kt * bk], masked=True)
        braw = pb.load_global(gb, layout=lay.b_bytes, offset=[kt, bj, 0])
        b_lp = pb.view(braw, dtype=weight_dtype, layout=lay.b)
        b_act = pb.cast(b_lp, act_dtype)
        if scheme.zero_point:
            b_act = pb.sub(b_act, float(scheme.zero_point))
        sc = pb.load_global(
            gs, layout=lay.b, offset=[kt * bk // group, bj * bn], broadcast_dims=[0]
        )
        b_deq = pb.mul(b_act, sc)
        pb.dot(a_tile, b_deq, acc, out=acc)
    pb.store_global(acc, gp, offset=[bi * bm, bj * bn], masked=True)
    return pb.finish()


def splitk_reduce_program(
    m: int,
    n: int,
    split_k: int,
    act_dtype: DataType = float16,
    tile_n: int = 32,
) -> Program:
    """Sum the f32 partials over the split dimension and cast to the
    activation type: ``c[i, j] = sum_s partials[s, i, j]``."""
    if split_k < 2:
        raise CompilationError("reduce needs split_k >= 2")
    if tile_n % 4:
        raise CompilationError("tile_n must be a multiple of 4")
    layout = spatial(8, 4) if tile_n == 4 else spatial(8, 4).local(1, tile_n // 4)

    pb = ProgramBuilder(
        "splitk_reduce", grid=[ceil_div(m, 8), ceil_div(n, tile_n)], num_threads=32
    )
    p_ptr = pb.param("partials_ptr", pointer(float32))
    c_ptr = pb.param("c_ptr", pointer(act_dtype))
    bi, bj = pb.block_indices()
    gp = pb.view_global(p_ptr, dtype=float32, shape=[split_k, m, n])
    gc = pb.view_global(c_ptr, dtype=act_dtype, shape=[m, n])
    acc = pb.allocate_register(float32, layout=layout, init=0.0)
    with pb.for_range(split_k) as s:
        part = pb.load_global(
            gp, layout=layout, offset=[s, bi * 8, bj * tile_n], masked=True
        )
        pb.add(acc, part, out=acc)
    out = pb.cast(acc, act_dtype)
    pb.store_global(out, gc, offset=[bi * 8, bj * tile_n], masked=True)
    return pb.finish()
