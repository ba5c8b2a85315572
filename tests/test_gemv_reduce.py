"""The ReduceSum instruction."""

import numpy as np
import pytest

from repro.compiler import compile_program
from repro.dtypes import float32
from repro.errors import TypeCheckError
from repro.lang import ProgramBuilder, pointer
from repro.layout import local, spatial
from repro.layout.core import replicate
from repro.vm import Interpreter


class TestReduceSum:
    def _run_reduce(self, axis, in_layout, out_layout, shape):
        pb = ProgramBuilder("red", grid=[1])
        ptr = pb.param("p", pointer(float32))
        out_ptr = pb.param("q", pointer(float32))
        g = pb.view_global(ptr, dtype=float32, shape=list(shape))
        out_shape = [1 if d == axis else e for d, e in enumerate(shape)]
        go = pb.view_global(out_ptr, dtype=float32, shape=out_shape)
        tile = pb.load_global(g, layout=in_layout, offset=[0, 0])
        red = pb.reduce_sum(tile, axis=axis, layout=out_layout)
        pb.store_global(red, go, offset=[0, 0])
        prog = pb.finish()
        interp = Interpreter()
        data = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        a = interp.upload(data, float32)
        b = interp.alloc_output(out_shape, float32)
        interp.launch(prog, [a, b])
        return data, interp.download(b, out_shape, float32)

    def test_reduce_axis0(self):
        in_layout = spatial(8, 4).local(1, 2)
        out_layout = replicate(4, rank=2).compose(spatial(1, 8))
        data, result = self._run_reduce(0, in_layout, out_layout, (8, 8))
        assert np.allclose(result, data.sum(axis=0, keepdims=True), atol=1e-4)

    def test_reduce_axis1(self):
        in_layout = spatial(8, 4).local(1, 2)
        out_layout = spatial(8, 1).replicate(4).compose(local(1, 1))
        data, result = self._run_reduce(1, in_layout, out_layout, (8, 8))
        assert np.allclose(result, data.sum(axis=1, keepdims=True), atol=1e-4)

    def test_bad_axis_rejected(self):
        pb = ProgramBuilder("bad", grid=[1])
        t = pb.allocate_register(float32, layout=spatial(8, 4))
        with pytest.raises(TypeCheckError, match="axis"):
            pb.reduce_sum(t, axis=2, layout=spatial(8, 4))

    def test_bad_output_shape_rejected(self):
        pb = ProgramBuilder("bad2", grid=[1])
        t = pb.allocate_register(float32, layout=spatial(8, 4))
        with pytest.raises(TypeCheckError, match="shape"):
            pb.reduce_sum(t, axis=0, layout=spatial(8, 4))

    def test_codegen_uses_shuffle(self):
        pb = ProgramBuilder("redgen", grid=[1])
        ptr = pb.param("p", pointer(float32))
        g = pb.view_global(ptr, dtype=float32, shape=[8, 8])
        tile = pb.load_global(g, layout=spatial(8, 4).local(1, 2), offset=[0, 0])
        red = pb.reduce_sum(
            tile, axis=0, layout=replicate(4, rank=2).compose(spatial(1, 8))
        )
        pb.store_global(red, g, offset=[0, 0], masked=True)
        kernel = compile_program(pb.finish())
        assert "__shfl_xor_sync" in kernel.source
