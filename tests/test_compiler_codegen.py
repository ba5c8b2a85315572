"""CUDA code generation: structural golden tests.

Without an NVIDIA toolchain the emitted source cannot be compiled, so
these tests assert the *structure* the paper's backend would produce:
instruction selection results (cp.async / ldmatrix / mma.sync / vector
loads), the planned shared-memory offsets, the PRMT/LOP3 cast sequences,
and zero-cost ``View`` reinterpretation.
"""

import pytest

from repro.compiler import compile_program, cuda_type, expr_to_c
from repro.dtypes import dtype_from_name, float16, float32, int6, uint4, uint8
from repro.errors import CompilationError
from repro.ir import Var, wrap
from repro.kernels import MatmulConfig, make_transform_program, quantized_matmul_program
from repro.quant import QuantScheme


def compile_matmul(weight="u4", stages=2, warps=(2, 2)):
    cfg = MatmulConfig(32, 16, 32, warps[0], warps[1], num_stages=stages)
    prog = quantized_matmul_program(
        64, 32, 64, float16, QuantScheme(dtype_from_name(weight), 64), cfg
    )
    return compile_program(prog)


class TestKernelSource:
    def test_signature(self):
        kernel = compile_matmul()
        assert 'extern "C" __global__' in kernel.source
        assert "__launch_bounds__(128)" in kernel.source
        assert "__half* a_ptr" in kernel.source
        assert "uint8_t* b_ptr" in kernel.source

    def test_pipelined_path_tokens(self):
        src = compile_matmul(stages=2).source
        for token in (
            "cp.async.cg.shared.global",
            "cp.async.commit_group",
            "cp.async.wait_group",
            "__syncthreads()",
            "extern __shared__ uint8_t smem[]",
        ):
            assert token in src, token

    def test_mma_emitted(self):
        src = compile_matmul().source
        assert "mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32" in src

    def test_ldmatrix_emitted_for_a(self):
        src = compile_matmul(stages=2).source
        assert "ldmatrix.sync.aligned" in src

    def test_view_is_pointer_reinterpret(self):
        src = compile_matmul().source
        assert "zero-cost register" in src

    def test_cast_recipe_tokens(self):
        src = compile_matmul().source
        assert "lop3.b32" in src
        assert "__hsub2" in src  # the (x | 0x6400) - 1024 trick

    def test_prmt_for_wide_subbyte(self):
        # u6 lanes straddle nibbles -> PRMT byte gather appears.
        src = compile_matmul(weight="i6").source
        assert "prmt.b32" in src

    def test_direct_path_has_vector_ldg(self):
        kernel = compile_matmul(stages=1)
        assert "cp.async" not in kernel.source
        assert kernel.shared_bytes == 0

    def test_shared_plan_offsets_disjoint(self):
        kernel = compile_matmul(stages=3)
        offsets = sorted(kernel.shared_plan.offsets.values())
        assert len(set(offsets)) == len(offsets)
        assert kernel.shared_bytes > 0
        assert f"smem + {offsets[1]}" in kernel.source

    def test_masked_stores_guarded(self):
        src = compile_matmul().source
        assert "if ((" in src or "?" in src  # predicated boundary accesses

    def test_transform_program_compiles(self):
        kernel = compile_program(
            make_transform_program(64, 32, int6, MatmulConfig(16, 8, 16))
        )
        assert "transform_b" in kernel.source
        assert "reinterpret" in kernel.source


class TestHelpers:
    def test_cuda_types(self):
        assert cuda_type(float16) == "__half"
        assert cuda_type(float32) == "float"
        assert cuda_type(uint8) == "uint8_t"
        assert cuda_type(uint4) == "uint8_t"  # packed container
        assert cuda_type(dtype_from_name("f16*")) == "__half*"
        with pytest.raises(CompilationError):
            cuda_type(dtype_from_name("u9"))

    def test_expr_rendering(self):
        from repro.dtypes import int32

        x = Var("x", int32)
        assert expr_to_c(x * 4 + 1) == "((x * 4) + 1)"
        assert expr_to_c(wrap(True)) == "true"
        assert expr_to_c(wrap(1.5)) == "1.5f"

    def test_kernel_reports(self):
        kernel = compile_matmul()
        assert kernel.name == "quantized_matmul"
        assert kernel.verification.num_instructions > 10
        hist = kernel.selection.histogram()
        assert sum(hist.values()) >= 4


class TestDeterminism:
    def test_codegen_is_deterministic(self):
        a = compile_matmul().source
        b = compile_matmul().source
        # Variable counters differ between builds, but structure must not.
        import re

        normalize = lambda s: re.sub(r"[a-z]+\d+", "V", s)
        assert normalize(a) == normalize(b)
