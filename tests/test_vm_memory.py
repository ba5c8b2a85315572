"""Device memory simulation: bit-granular tensor views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import random_values_for
from repro.dtypes import dtype_from_name, float16, int6, uint, uint8
from repro.dtypes.registry import all_weight_dtypes
from repro.errors import OutOfMemoryError, VMError
from repro.vm import GlobalMemory, SharedMemory, TensorView


SUB_BYTE = [dt for dt in all_weight_dtypes() if dt.nbits < 8]


class TestGlobalMemory:
    @pytest.mark.parametrize("dtype", SUB_BYTE + [float16], ids=str)
    def test_a_zero_element_tensor_round_trips(self, dtype):
        """Storing nothing writes nothing, whatever the element width."""
        mem = GlobalMemory(1 << 12)
        for shape in [(0,), (3, 0)]:
            addr = mem.upload(np.zeros(shape), dtype)
            assert mem.download(addr, shape, dtype).shape == shape
        assert not mem.buffer.any()

    def test_alloc_and_alignment(self):
        mem = GlobalMemory(1 << 20)
        a = mem.alloc(100)
        b = mem.alloc(100)
        assert a % 256 == 0 and b % 256 == 0
        assert b > a

    def test_oom(self):
        mem = GlobalMemory(1024)
        mem.alloc(512)
        with pytest.raises(OutOfMemoryError):
            mem.alloc(1024)

    def test_free_all(self):
        mem = GlobalMemory(1024)
        mem.alloc(512)
        mem.free_all()
        assert mem.used_bytes == 0
        mem.alloc(1024)  # fits again


class TestSharedMemory:
    def test_high_water(self):
        smem = SharedMemory(1024)
        smem.alloc(100)
        smem.alloc(100)
        assert smem.high_water >= 200

    def test_exhaustion(self):
        smem = SharedMemory(256)
        with pytest.raises(VMError):
            smem.alloc(512)


class TestTensorView:
    def test_roundtrip_f16(self):
        mem = GlobalMemory()
        view = TensorView(mem.buffer, 0, float16, (4, 8))
        data = float16.quantize(np.random.default_rng(0).standard_normal((4, 8)))
        view.write_all(data)
        assert np.array_equal(view.read_all(), data)

    def test_roundtrip_i6_compact(self):
        mem = GlobalMemory()
        view = TensorView(mem.buffer, 0, int6, (5, 7))
        data = np.arange(-17, 18).reshape(5, 7)
        view.write_all(data)
        assert np.array_equal(view.read_all(), data)
        # Compactness: 35 elements * 6 bits = 210 bits = 27 bytes max touched.
        assert not mem.buffer[27:64].any()

    def test_gather_scatter_subbyte(self):
        mem = GlobalMemory()
        view = TensorView(mem.buffer, 0, uint(3), (4, 4))
        idx = [np.array([0, 1, 3, 2]), np.array([3, 0, 2, 1])]
        view.scatter_bits(idx, np.array([7, 5, 3, 1], dtype=np.uint64))
        assert view.gather_bits(idx).tolist() == [7, 5, 3, 1]

    def test_unaligned_base_bits(self):
        """A view can start mid-byte (packed sub-tile within a tile)."""
        mem = GlobalMemory()
        view = TensorView(mem.buffer, 3, uint(5), (6,))
        data = np.array([31, 0, 17, 8, 1, 30])
        view.write_all(data)
        assert np.array_equal(view.read_all(), data)

    def test_out_of_bounds_rejected(self):
        mem = GlobalMemory()
        view = TensorView(mem.buffer, 0, float16, (4, 4))
        with pytest.raises(VMError):
            view.gather_bits([np.array([4]), np.array([0])])
        with pytest.raises(VMError):
            view.gather_bits([np.array([-1]), np.array([0])])

    def test_rank_mismatch_rejected(self):
        mem = GlobalMemory()
        view = TensorView(mem.buffer, 0, float16, (4, 4))
        with pytest.raises(VMError):
            view.gather_bits([np.array([0])])

    def test_view_exceeding_buffer_rejected(self):
        small = np.zeros(16, dtype=np.uint8)
        with pytest.raises(VMError):
            TensorView(small, 0, float16, (100, 100))

    def test_oversized_view_error_names_offset_and_shape(self):
        small = np.zeros(64, dtype=np.uint8)
        with pytest.raises(VMError, match=r"\[100, 100\].*bit offset 128"):
            TensorView(small, 128, float16, (100, 100))

    def test_negative_base_rejected_with_offset(self):
        # A bogus (e.g. negative) pointer must raise a typed VMError rather
        # than silently wrapping around through numpy negative indexing.
        mem = GlobalMemory()
        with pytest.raises(VMError, match=r"-800.*negative"):
            TensorView(mem.buffer, -800, float16, (4, 4))

    def test_bad_pointer_via_interpreter_raises_vmerror(self):
        from repro.lang import ProgramBuilder, pointer
        from repro.layout import spatial
        from repro.vm import Interpreter

        pb = ProgramBuilder("badptr", grid=[1])
        ptr = pb.param("p", pointer(float16))
        g = pb.view_global(ptr, dtype=float16, shape=[4, 4])
        tile = pb.load_global(g, layout=spatial(4, 4), offset=[0, 0])
        pb.store_global(tile, g, offset=[0, 0])
        prog = pb.finish()
        with pytest.raises(VMError):
            Interpreter().launch(prog, [-5])

    def test_write_shape_mismatch(self):
        mem = GlobalMemory()
        view = TensorView(mem.buffer, 0, float16, (4, 4))
        with pytest.raises(VMError):
            view.write_all(np.zeros((4, 5)))

    def test_neighbouring_views_do_not_clobber(self):
        mem = GlobalMemory()
        a = TensorView(mem.buffer, 0, uint8, (16,))
        b = TensorView(mem.buffer, 16 * 8, uint8, (16,))
        a.write_all(np.full(16, 0xAA))
        b.write_all(np.full(16, 0x55))
        assert np.array_equal(a.read_all(), np.full(16, 0xAA))
        assert np.array_equal(b.read_all(), np.full(16, 0x55))

    @given(
        name=st.sampled_from(
            ["u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "i3", "i5", "i6", "f16", "f6e3m2"]
        ),
        rows=st.integers(1, 6),
        cols=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_any_dtype(self, name, rows, cols, seed):
        dtype = dtype_from_name(name)
        rng = np.random.default_rng(seed)
        data = random_values_for(dtype, (rows, cols), rng)
        mem = GlobalMemory(1 << 16)
        view = TensorView(mem.buffer, 0, dtype, (rows, cols))
        view.write_all(data)
        assert np.array_equal(view.read_all(), data)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_partial_scatter_preserves_rest(self, seed):
        rng = np.random.default_rng(seed)
        mem = GlobalMemory(1 << 16)
        view = TensorView(mem.buffer, 0, int6, (8, 8))
        base = rng.integers(-32, 32, size=(8, 8))
        view.write_all(base)
        rows = rng.integers(0, 8, size=5)
        cols = rng.integers(0, 8, size=5)
        new_vals = rng.integers(-32, 32, size=5)
        view.scatter_bits([rows, cols], int6.to_bits(new_vals))
        result = view.read_all()
        expected = base.copy()
        expected[rows, cols] = new_vals  # later writes win, same as scatter
        # Untouched positions must be intact.
        mask = np.ones((8, 8), dtype=bool)
        mask[rows, cols] = False
        assert np.array_equal(result[mask], expected[mask])
