"""The user-facing ops API and the runtime system."""

import numpy as np
import pytest

from repro import ops
from repro.dtypes import float16, int4, int6, uint2, uint4
from repro.errors import VMError
from repro.kernels import MatmulConfig
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.runtime import Runtime


class TestOpsApi:
    @pytest.mark.parametrize("dtype", [uint4, int6, uint2])
    def test_one_shot_matmul(self, dtype):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 64)) * 0.3
        w = rng.standard_normal((64, 16))
        out = ops.quantized_matmul(a, w, weight_dtype=dtype, group_size=32)
        ref = ops.reference_quantized_matmul(a, w, dtype, 32)
        err = np.max(np.abs(out - ref) / (np.abs(ref) + 0.5))
        assert err < 0.02, dtype

    def test_prepared_linear_reused(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((64, 16))
        linear = ops.prepare_linear(w, int4, group_size=32)
        out1 = linear(rng.standard_normal((4, 64)) * 0.3)
        out2 = linear(rng.standard_normal((4, 64)) * 0.3)
        assert out1.shape == out2.shape == (4, 16)
        assert not np.array_equal(out1, out2)

    def test_batch_one_token(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((64, 16))
        linear = ops.prepare_linear(w, uint4, group_size=64)
        out = linear(rng.standard_normal((1, 64)))
        assert out.shape == (1, 16)

    def test_wrong_activation_shape(self):
        w = np.zeros((64, 16))
        linear = ops.prepare_linear(w, uint4)
        with pytest.raises(ValueError):
            linear(np.zeros((4, 32)))

    def test_custom_config(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 64)) * 0.3
        w = rng.standard_normal((64, 16))
        out = ops.quantized_matmul(
            a, w, uint4, group_size=32, config=MatmulConfig(16, 16, 32, num_stages=2)
        )
        ref = ops.reference_quantized_matmul(a, w, uint4, 32)
        assert np.max(np.abs(out - ref) / (np.abs(ref) + 0.5)) < 0.02


class TestRuntime:
    def _copy_program(self):
        pb = ProgramBuilder("copy", grid=[1])
        src = pb.param("src", pointer(float16))
        dst = pb.param("dst", pointer(float16))
        g_in = pb.view_global(src, dtype=float16, shape=[8, 4])
        g_out = pb.view_global(dst, dtype=float16, shape=[8, 4])
        tile = pb.load_global(g_in, layout=spatial(8, 4), offset=[0, 0])
        pb.store_global(tile, g_out, offset=[0, 0])
        return pb.finish()

    def test_launch_and_download(self):
        rt = Runtime()
        prog = self._copy_program()
        data = float16.quantize(np.random.default_rng(0).standard_normal((8, 4)))
        a = rt.upload(data, float16)
        b = rt.empty([8, 4], float16)
        rt.launch(prog, [a, b])
        assert np.array_equal(rt.download(b, [8, 4], float16), data)
        assert rt.context.launches == 1

    def test_kernel_cache_hit(self):
        rt = Runtime()
        prog = self._copy_program()
        data = np.zeros((8, 4))
        a = rt.upload(data, float16)
        b = rt.empty([8, 4], float16)
        rt.launch(prog, [a, b])
        rt.launch(prog, [a, b])
        assert (rt.prepared, rt.reused) == (1, 1)

    def test_identical_rebuilds_take_two_entries(self):
        # Preparation is per program object: a re-instantiated
        # template is a new program, prepared again.
        rt = Runtime()
        p1, p2 = self._copy_program(), self._copy_program()
        data = np.zeros((8, 4))
        a = rt.upload(data, float16)
        b = rt.empty([8, 4], float16)
        rt.launch(p1, [a, b])
        rt.launch(p2, [a, b])
        rt.launch(p1, [a, b])
        assert (rt.prepared, rt.reused) == (2, 1)

    def test_distinct_programs_cached_separately(self):
        rt = Runtime()
        p1 = self._copy_program()
        pb = ProgramBuilder("copy", grid=[1])
        src = pb.param("src", pointer(float16))
        dst = pb.param("dst", pointer(float16))
        g_in = pb.view_global(src, dtype=float16, shape=[8, 4])
        g_out = pb.view_global(dst, dtype=float16, shape=[8, 4])
        tile = pb.load_global(g_in, layout=spatial(8, 4), offset=[0, 0])
        doubled = pb.add(tile, tile)  # structural difference
        pb.store_global(doubled, g_out, offset=[0, 0])
        p2 = pb.finish()
        data = np.zeros((8, 4))
        a = rt.upload(data, float16)
        b = rt.empty([8, 4], float16)
        rt.launch(p1, [a, b])
        rt.launch(p2, [a, b])
        assert (rt.prepared, rt.reused) == (2, 0)

    def test_error_wrapped_with_kernel_name(self):
        rt = Runtime()
        pb = ProgramBuilder("oob_kernel", grid=[1])
        ptr = pb.param("p", pointer(float16))
        g = pb.view_global(ptr, dtype=float16, shape=[2, 2])
        tile = pb.load_global(g, layout=spatial(8, 4), offset=[0, 0])
        pb.store_global(tile, g, offset=[0, 0])
        prog = pb.finish()
        addr = rt.upload(np.zeros((2, 2)), float16)
        with pytest.raises(VMError, match="oob_kernel"):
            rt.launch(prog, [addr])

    def test_stats_accumulate(self):
        rt = Runtime()
        prog = self._copy_program()
        data = np.zeros((8, 4))
        a = rt.upload(data, float16)
        b = rt.empty([8, 4], float16)
        rt.launch(prog, [a, b])
        assert rt.stats().global_bits_loaded > 0


class TestDeviceMemoryLifetime:
    def test_free_reuses_a_span_of_its_size(self):
        from repro.vm import GlobalMemory

        memory = GlobalMemory(1 << 16)
        a, b = memory.alloc(300), memory.alloc(100)
        memory.free(a)
        assert memory.alloc(100) == b + 256  # no freed span of 256 bytes: a new one
        assert memory.alloc(400) == a  # 300 and 400 both take 512 bytes
        with pytest.raises(VMError):
            memory.free(a + 1)  # unknown
        memory.free(b)
        with pytest.raises(VMError):
            memory.free(b)  # double
        assert memory.alloc_n(10, 2).tolist() == [b, b + 512]
        memory.free_all()
        assert memory.used_bytes == 0 and memory.alloc(1) == 0

    def test_calls_and_operators_hold_device_memory_flat(self):
        """300 calls of a split-k linear (stream launches, partials)
        over three row counts, then 50 operators prepared, called and
        dropped: the allocator's state repeats after the first round, and
        every output is the bits a fresh runtime computes."""
        rng = np.random.default_rng(3)
        weight = rng.standard_normal((64, 16))
        acts = {m: float16.quantize(rng.standard_normal((m, 64)) * 0.3) for m in (1, 5, 16)}
        config = MatmulConfig(16, 8, 16, split_k=2)

        def fresh(m):
            return ops.prepare_linear(weight, int4, 32, config, Runtime(dram_bytes=1 << 20))(acts[m])

        want = {m: fresh(m) for m in acts}
        runtime = Runtime(dram_bytes=1 << 20)
        memory = runtime.memory
        linear = ops.prepare_linear(weight, int4, 32, config, runtime, streams=2)
        held = None
        for _ in range(100):
            for m, act in acts.items():
                assert np.array_equal(linear(act), want[m])
            held = held or (memory.used_bytes, len(memory._allocations))
            assert (memory.used_bytes, len(memory._allocations)) == held
        del linear
        held = None
        for _ in range(50):
            other = ops.prepare_linear(weight, uint4, 64, runtime=runtime)
            other(acts[5])
            del other
            held = held or (memory.used_bytes, len(memory._allocations))
            assert (memory.used_bytes, len(memory._allocations)) == held
        assert held == (0, 0)
