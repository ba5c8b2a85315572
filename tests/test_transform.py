"""Weight layout transformation: host path vs device program (Figure 9)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import random_values_for
from repro.dtypes import dtype_from_name, uint4, uint8
from repro.dtypes.registry import all_weight_dtypes
from repro.errors import LayoutError
from repro.kernels import MatmulConfig, make_transform_program, matmul_layouts
from repro.layout import local, spatial
from repro.ops import _default_config
from repro.quant import byte_view_layout, tile_bytes, transform_weight, untransform_weight
from repro.vm import Interpreter

NARROW = all_weight_dtypes()  # every registry dtype of at most 8 bits
#: u8 on this tile holds 128 bits per thread: more than one 64-bit word,
#: so the regroup expands to single bits.
WIDE = MatmulConfig(16, 16, 32)
ROUND_TRIP_CASES = [(d, _default_config(d)) for d in NARROW] + [(uint8, WIDE)]


class TestByteViewLayout:
    def test_paper_rule(self):
        """n bytes/thread -> local(n/n1).spatial(T).local(n1), n1=gcd(n,16)."""
        reg = local(2, 1).compose(spatial(8, 4)).local(2, 1)  # 4 locals, 32 thr
        view = byte_view_layout(reg, 6)  # 24 bits = 3 bytes/thread
        assert view.num_threads == 32
        assert view.local_size == 3
        # n=3: n1 = gcd(3,16) = 1, n2 = 3.
        assert view.shape == (96,)

    def test_vectorized_grouping(self):
        reg = local(4, 2).compose(spatial(8, 4)).local(2, 1)  # 16 locals
        view = byte_view_layout(reg, 8)  # 16 bytes/thread
        # n=16: n1=16 -> single 128-bit load per thread.
        assert view.local_size == 16
        first_bytes = [view.map(0, j)[0] for j in range(16)]
        assert first_bytes == list(range(first_bytes[0], first_bytes[0] + 16))

    def test_unaligned_bits_rejected(self):
        reg = spatial(8, 4)  # 1 local
        with pytest.raises(LayoutError):
            byte_view_layout(reg, 6)  # 6 bits/thread: not a whole byte

    def test_tile_bytes(self):
        reg = local(2, 1).compose(spatial(8, 4)).local(2, 1)
        assert tile_bytes(reg, 6) == 96
        assert tile_bytes(reg, 4) == 64


class TestHostTransform:
    @pytest.mark.parametrize("name", ["u4", "i6", "u3", "f6e3m2", "u8", "u1"])
    def test_untransform_roundtrip(self, name):
        dtype = dtype_from_name(name)
        cfg = MatmulConfig(16, 16, 16)
        lay = matmul_layouts(cfg, dtype)
        rng = np.random.default_rng(11)
        k, n = 32, 32
        q = random_values_for(dtype, (k, n), rng)
        packed = transform_weight(q, dtype, lay.b_warp)
        assert packed.dtype == np.uint8
        assert packed.shape == (k // 16, n // 16, lay.b_tile_bytes)
        back = untransform_weight(packed, dtype, lay.b_warp, k, n)
        assert np.array_equal(back, q)

    def test_non_tiled_shape_rejected(self):
        cfg = MatmulConfig(16, 8, 16)
        lay = matmul_layouts(cfg, dtype_from_name("u4"))
        with pytest.raises(LayoutError):
            transform_weight(np.zeros((20, 8)), dtype_from_name("u4"), lay.b_warp)

    @pytest.mark.parametrize(
        "dtype, cfg", ROUND_TRIP_CASES, ids=[d.name for d in NARROW] + ["u8-wide"]
    )
    @given(
        tiles_k=st.integers(2, 4),
        tiles_n=st.integers(2, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=5, deadline=None)
    def test_untransform_inverts_transform_exactly(self, dtype, cfg, tiles_k, tiles_n, seed):
        """``untransform(transform(q)) == q`` on multi-tile weights, for
        every registry dtype of at most 8 bits on its default tile, and on
        a tile of more than 64 bits per thread (the expansion regroup)."""
        reg = matmul_layouts(cfg, dtype).b_warp
        assert (reg.local_size * dtype.nbits > 64) == (cfg is WIDE)
        bk, bn = reg.shape
        k, n = tiles_k * bk, tiles_n * bn
        q = random_values_for(dtype, (k, n), np.random.default_rng(seed))
        packed = transform_weight(q, dtype, reg)
        assert packed.shape == (tiles_k, tiles_n, tile_bytes(reg, dtype.nbits))
        back = untransform_weight(packed, dtype, reg, k, n)
        assert back.dtype == q.dtype
        assert np.array_equal(back, q)

    def test_temporaries_stay_within_four_weights(self):
        """Packing a 1024x1024 u4 weight (int64 values) peaks at no more
        than 4x ``q.nbytes`` of traced allocations: all tiles are packed
        in one pass, and that pass may not grow without bound."""
        dtype = uint4
        reg = matmul_layouts(_default_config(dtype), dtype).b_warp
        q = random_values_for(dtype, (1024, 1024), np.random.default_rng(0))
        tracemalloc.start()
        try:
            transform_weight(q, dtype, reg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * q.nbytes


class TestDeviceTransform:
    @pytest.mark.parametrize("dtype", NARROW, ids=lambda d: d.name)
    def test_device_matches_host(self, dtype):
        """The Figure 9 VM program produces the identical byte stream, on
        2x2 tiles of every spectrum dtype's default tile."""
        cfg = _default_config(dtype)
        lay = matmul_layouts(cfg, dtype)
        bk, bn = lay.b_warp.shape
        k, n = 2 * bk, 2 * bn
        rng = np.random.default_rng(5)
        q = random_values_for(dtype, (k, n), rng)
        host = transform_weight(q, dtype, lay.b_warp)

        prog = make_transform_program(k, n, dtype, cfg)
        interp = Interpreter()
        b_addr = interp.upload(q, dtype)
        out_addr = interp.alloc_output(host.shape, uint8)
        interp.launch(prog, [b_addr, out_addr])
        device = interp.download(out_addr, host.shape, uint8)
        assert np.array_equal(device, host)

    def test_transform_program_structure(self):
        prog = make_transform_program(64, 32, dtype_from_name("i6"), MatmulConfig(16, 8, 16))
        text = repr(prog)
        assert "transform_b" in text
        assert "View" in text
        assert prog.static_grid() == (4, 4)
