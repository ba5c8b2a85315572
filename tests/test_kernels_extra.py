"""Split-k matmul and bf16 activations."""

import numpy as np
import pytest

from repro.dtypes import bfloat16, dtype_from_name, float16, float32, uint8
from repro.errors import CompilationError
from repro.kernels import (
    MatmulConfig,
    matmul_layouts,
    quantized_matmul_program,
    splitk_partial_program,
    splitk_reduce_program,
)
from repro.quant import QuantScheme, dequantize_weight, quantize_weight, transform_weight
from repro.vm import Interpreter


class TestSplitK:
    def test_partial_plus_reduce_matches_monolithic(self):
        m, n, k = 8, 16, 128
        split_k = 4
        dtype = dtype_from_name("u4")
        scheme = QuantScheme(dtype, group_size=32)
        cfg = MatmulConfig(16, 8, 16, split_k=split_k)
        rng = np.random.default_rng(3)
        a = float16.quantize(rng.standard_normal((m, k)) * 0.3)
        w = rng.standard_normal((k, n))
        q, scales = quantize_weight(w, scheme)
        scales16 = float16.quantize(scales)
        lay = matmul_layouts(cfg, dtype)
        packed = transform_weight(q, dtype, lay.b_warp)

        partial = splitk_partial_program(m, n, k, float16, scheme, cfg)
        reduce = splitk_reduce_program(m, n, split_k, tile_n=16)
        interp = Interpreter()
        a_dev = interp.upload(a, float16)
        b_dev = interp.upload(packed, uint8)
        s_dev = interp.upload(scales16, float16)
        p_dev = interp.alloc_output([split_k, m, n], float32)
        c_dev = interp.alloc_output([m, n], float16)
        interp.launch(partial, [a_dev, b_dev, s_dev, p_dev])
        interp.launch(reduce, [p_dev, c_dev])
        result = interp.download(c_dev, [m, n], float16)

        reference = a.astype(np.float64) @ dequantize_weight(q, scales16, scheme)
        err = np.max(np.abs(result - reference) / (np.abs(reference) + 0.5))
        assert err < 0.02

        # The split-k result must also match the monolithic kernel.
        mono_cfg = MatmulConfig(16, 8, 16)
        mono = quantized_matmul_program(m, n, k, float16, scheme, mono_cfg)
        c2_dev = interp.alloc_output([m, n], float16)
        interp.launch(mono, [a_dev, b_dev, s_dev, c2_dev])
        mono_result = interp.download(c2_dev, [m, n], float16)
        assert np.allclose(result, mono_result, atol=0.02, rtol=0.02)

    def test_partials_are_disjoint_slices(self):
        """Each slice's partial is the product over its own k-range."""
        m, n, k = 4, 8, 64
        split_k = 2
        dtype = dtype_from_name("u4")
        scheme = QuantScheme(dtype, group_size=32)
        cfg = MatmulConfig(16, 8, 16, split_k=split_k)
        rng = np.random.default_rng(4)
        a = float16.quantize(rng.standard_normal((m, k)) * 0.3)
        q, scales = quantize_weight(rng.standard_normal((k, n)), scheme)
        scales16 = float16.quantize(scales)
        lay = matmul_layouts(cfg, dtype)
        packed = transform_weight(q, dtype, lay.b_warp)
        deq = dequantize_weight(q, scales16, scheme)

        partial = splitk_partial_program(m, n, k, float16, scheme, cfg)
        interp = Interpreter()
        p_dev = interp.alloc_output([split_k, m, n], float32)
        interp.launch(
            partial,
            [
                interp.upload(a, float16),
                interp.upload(packed, uint8),
                interp.upload(scales16, float16),
                p_dev,
            ],
        )
        partials = interp.download(p_dev, [split_k, m, n], float32)
        for s in range(split_k):
            lo, hi = s * k // split_k, (s + 1) * k // split_k
            expected = a[:, lo:hi].astype(np.float64) @ deq[lo:hi]
            assert np.allclose(partials[s], expected, atol=0.05, rtol=0.02)

    def test_validation(self):
        scheme = QuantScheme(dtype_from_name("u4"), 32)
        with pytest.raises(CompilationError, match="split_k"):
            splitk_partial_program(8, 16, 64, float16, scheme, MatmulConfig(16, 8, 16, split_k=1))
        with pytest.raises(CompilationError):
            splitk_reduce_program(8, 16, 1)


class TestBf16Activations:
    def test_bf16_matmul(self):
        """The paper: 'we also support bfloat16' activations."""
        m, n, k = 8, 16, 32
        dtype = dtype_from_name("u4")
        scheme = QuantScheme(dtype, group_size=32)
        cfg = MatmulConfig(16, 8, 16)
        rng = np.random.default_rng(5)
        a = bfloat16.quantize(rng.standard_normal((m, k)) * 0.3)
        q, scales = quantize_weight(rng.standard_normal((k, n)), scheme)
        scales_b = bfloat16.quantize(scales)
        lay = matmul_layouts(cfg, dtype)
        packed = transform_weight(q, dtype, lay.b_warp)

        prog = quantized_matmul_program(m, n, k, bfloat16, scheme, cfg)
        interp = Interpreter()
        args = [
            interp.upload(a, bfloat16),
            interp.upload(packed, uint8),
            interp.upload(scales_b, bfloat16),
            interp.alloc_output([m, n], bfloat16),
        ]
        interp.launch(prog, args)
        result = interp.download(args[-1], [m, n], bfloat16)
        reference = a.astype(np.float64) @ dequantize_weight(q, scales_b, scheme)
        err = np.max(np.abs(result - reference) / (np.abs(reference) + 0.5))
        assert err < 0.05  # bf16 has 8 mantissa bits
