"""Preparation once per program object: the ``runtime.spec_cache.*``
counts, identity keys, and wiring into the operator launch path."""

import numpy as np
import pytest

from repro.compiler import specialization_key
from repro.dtypes import float16, int32
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.runtime import Runtime


def _scale_program(scale: float, name: str = "scale"):
    pb = ProgramBuilder(name, grid=[2, 1])
    src = pb.param("src", pointer(float16))
    dst = pb.param("dst", pointer(float16))
    g_in = pb.view_global(src, dtype=float16, shape=[8, 4])
    g_out = pb.view_global(dst, dtype=float16, shape=[8, 4])
    bi, _ = pb.block_indices()
    tile = pb.load_global(g_in, layout=spatial(4, 4), offset=[bi * 4, 0])
    scaled = pb.mul(tile, scale)
    pb.store_global(scaled, g_out, offset=[bi * 4, 0])
    return pb.finish()


class TestSpecializationKey:
    def test_key_is_the_program_and_its_scalars(self):
        program = _scale_program(2.0)
        assert specialization_key(program) == (program, ())

    def test_key_is_stable_across_compilation(self):
        from repro.compiler import compile_program

        program = _scale_program(2.0)
        before = specialization_key(program)
        compile_program(program)  # mutates the program in place
        assert specialization_key(program) == before

    def test_scalar_args_specialize_the_key(self):
        pb = ProgramBuilder("dyn", grid=[1])
        pb.param("p", pointer(float16))
        n = pb.param("n", int32)
        program = pb.finish()
        k1 = specialization_key(program, [0, 4])
        k2 = specialization_key(program, [0, 8])
        k3 = specialization_key(program, [512, 4])  # pointer excluded
        assert k1 != k2
        assert k1 == k3
        assert ("n", 4) in k1[1]


def _spec_counts(rt):
    metrics = rt.metrics()
    return tuple(
        metrics[f"runtime.spec_cache.{name}"] for name in ("misses", "hits", "evictions")
    )


class TestSpecializationCache:
    """The counts still named for the cache: misses are the programs a
    runtime prepared, hits its launches of a prepared program, and
    nothing evicts."""

    def test_hits_and_misses_counted(self):
        rt = Runtime()
        data = float16.quantize(np.random.default_rng(0).standard_normal((8, 4)))
        a = rt.upload(data, float16)
        b = rt.empty([8, 4], float16)
        program = _scale_program(2.0)
        rt.launch(program, [a, b])
        rt.launch(program, [a, b])
        rt.launch(_scale_program(2.0), [a, b])  # fresh identical build: a new program
        assert _spec_counts(rt) == (2, 1, 0)


class TestRuntimeWiring:
    def test_relaunched_program_is_prepared_once(self):
        rt = Runtime()
        data = float16.quantize(np.random.default_rng(0).standard_normal((8, 4)))
        a = rt.upload(data, float16)
        b = rt.empty([8, 4], float16)
        program = _scale_program(2.0)
        for _ in range(5):
            rt.launch(program, [a, b])
        assert _spec_counts(rt) == (1, 4, 0)
        assert np.array_equal(
            rt.download(b, [8, 4], float16), float16.quantize(data * np.float64(2.0))
        )

    def test_quantized_linear_repeat_calls_hit_cache(self):
        from repro import ops
        from repro.dtypes import int6

        rng = np.random.default_rng(0)
        linear = ops.prepare_linear(rng.standard_normal((64, 16)), int6, group_size=32)
        a = rng.standard_normal((16, 64))
        first = linear(a)
        second = linear(a)
        assert np.array_equal(first, second)
        assert _spec_counts(linear.runtime) == (1, 1, 0)

    def test_engine_override_per_launch(self):
        rt = Runtime(engine="sequential")
        data = float16.quantize(np.random.default_rng(1).standard_normal((8, 4)))
        a = rt.upload(data, float16)
        b = rt.empty([8, 4], float16)
        c = rt.empty([8, 4], float16)
        rt.launch(_scale_program(3.0), [a, b])
        rt.launch(_scale_program(3.0), [a, c], engine="batched")
        assert np.array_equal(
            rt.download(b, [8, 4], float16), rt.download(c, [8, 4], float16)
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Runtime(engine="warp")

    def test_wrong_arg_count_is_vmerror_and_never_cached(self):
        from repro.compiler.pipeline import prepare_program
        from repro.errors import VMError

        rt = Runtime()
        program = _scale_program(2.0)
        with pytest.raises(VMError, match="expects 2 args, got 1"):
            rt.launch(program, [0])
        assert _spec_counts(rt) == (0, 0, 0)
        assert prepare_program(program), "the refused launch prepared it"

    def test_block_varying_view_shape_routes_sequential(self):
        # Per-block tensor shapes cannot be stacked; the auto policy must
        # fall back to the sequential engine instead of failing at launch.
        from repro.vm import supports_batched

        pb = ProgramBuilder("varshape", grid=[2])
        p = pb.param("p", pointer(float16))
        bi, = pb.block_indices()
        g = pb.view_global(p, dtype=float16, shape=[4 + bi * 4, 4])
        tile = pb.load_global(g, layout=spatial(4, 4), offset=[0, 0])
        pb.store_global(tile, g, offset=[0, 0])
        prog = pb.finish()
        assert not supports_batched(prog)
        rt = Runtime()
        data = float16.quantize(np.random.default_rng(2).standard_normal((8, 4)))
        a = rt.upload(data, float16)
        rt.launch(prog, [a])  # must not raise under the default policy
        assert np.array_equal(rt.download(a, [8, 4], float16), data)
