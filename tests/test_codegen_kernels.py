"""Structural codegen checks for the whole kernel library."""

import pytest

from repro.compiler import compile_program
from repro.dtypes import dtype_from_name, float16
from repro.kernels import (
    MatmulConfig,
    make_transform_program,
    splitk_partial_program,
    splitk_reduce_program,
)
from repro.quant import QuantScheme, fit_codebook, codebook_matmul_program

import numpy as np

U4 = dtype_from_name("u4")
CFG = MatmulConfig(16, 8, 16)


def _compiles(program, *tokens):
    kernel = compile_program(program)
    for token in tokens:
        assert token in kernel.source, token
    return kernel


class TestAllKernelsCompile:
    def test_splitk_pair(self):
        scheme = QuantScheme(U4, 32)
        cfg = MatmulConfig(16, 8, 16, split_k=2)
        partial = splitk_partial_program(8, 16, 64, float16, scheme, cfg)
        _compiles(partial, "splitk_partial", "mma.sync")
        reduce = splitk_reduce_program(8, 16, 2, tile_n=16)
        _compiles(reduce, "splitk_reduce")

    def test_transform(self):
        prog = make_transform_program(32, 16, U4, CFG)
        _compiles(prog, "transform_b", "reinterpret")

    def test_codebook(self):
        cb = fit_codebook(np.random.default_rng(0).standard_normal(128), 4)
        prog = codebook_matmul_program(16, 16, 32, cb, MatmulConfig(16, 16, 16))
        _compiles(prog, "codebook lookup")

    def test_three_dim_grid(self):
        """Split-k uses a rank-3 grid mapped onto blockIdx.{x,y,z}."""
        scheme = QuantScheme(U4, 32)
        cfg = MatmulConfig(16, 8, 16, split_k=2)
        kernel = compile_program(splitk_partial_program(8, 16, 64, float16, scheme, cfg))
        assert "blockIdx.z" in kernel.source


class TestCrossGpuKernelModel:
    """Kernel-level perf ordering across the three GPUs (fig13's basis)."""

    def test_decode_scales_with_bandwidth(self):
        from repro.perf import A100, ALL_SYSTEMS, H100, L40S, MatmulWorkload

        tilus = ALL_SYSTEMS["tilus"]
        w = MatmulWorkload.of(1, 8192, 8192, "u4")
        lat = {g.name: tilus.matmul_latency(w, g) for g in (L40S, A100, H100)}
        # Bandwidth ratio ~2.4x L40S->A100, ~1.6x A100->H100.
        assert 1.5 < lat["L40S"] / lat["A100"] < 3.0
        assert 1.2 < lat["A100"] / lat["H100"] < 2.2

    def test_prefill_scales_with_tensor_cores(self):
        from repro.perf import A100, ALL_SYSTEMS, H100, MatmulWorkload

        tilus = ALL_SYSTEMS["tilus"]
        w = MatmulWorkload.of(8192, 8192, 8192, "u4")
        a100 = tilus.matmul_latency(w, A100)
        h100 = tilus.matmul_latency(w, H100)
        assert 2.0 < a100 / h100 < 4.5  # 312 vs 989 TFLOPS

    def test_every_baseline_supported_set_on_a100(self):
        from repro.perf import A100, ALL_SYSTEMS, MatmulWorkload

        w4 = MatmulWorkload.of(1, 4096, 4096, "i4")
        for name in ("tilus", "triton", "ladder", "marlin"):
            assert ALL_SYSTEMS[name].supports(w4, A100), name
