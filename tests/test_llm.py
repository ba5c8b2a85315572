"""End-to-end LLM serving simulation (paper Figures 12 and 13)."""

import pytest

from repro.dtypes import float16, uint2, uint4, uint8
from repro.errors import OutOfMemoryError
from repro.llm import (
    GEMMA2_9B,
    LLAMA3_70B,
    MODELS,
    QWEN2_5_32B,
    ServingConfig,
    ServingSimulator,
    simulate_cell,
)
from repro.perf import A100, H100, L40S

#: The stages of Figures 12 and 13.
STAGES = (("decode", 1), ("decode", 16), ("prefill", 2048))


class TestModelConfigs:
    def test_paper_benchmark_shapes_come_from_llama(self):
        """Figure 10's shapes are Llama-3.3-70B linears: 8192x8192 (o),
        28672->8192 (down), 8192->57344 (gate_up)."""
        shapes = {(l.k, l.n) for l in LLAMA3_70B.block_linears()}
        assert (8192, 8192) in shapes
        assert (28672, 8192) in shapes
        assert (8192, 57344) in shapes

    def test_param_counts_plausible(self):
        assert 8.5e9 < GEMMA2_9B.total_params < 10.5e9
        assert 30e9 < QWEN2_5_32B.total_params < 34e9
        assert 67e9 < LLAMA3_70B.total_params < 72e9

    def test_kv_bytes_per_token(self):
        # 2 (K,V) * layers * kv_heads * head_dim * 2 bytes
        assert LLAMA3_70B.kv_bytes_per_token() == 2 * 80 * 8 * 128 * 2

    def test_registry(self):
        assert set(MODELS) == {"Gemma-2-9B", "Qwen2.5-32B", "Llama-3.3-70B"}


class TestMemoryAccounting:
    def test_weight_bytes_scale_with_dtype(self):
        cfg8 = ServingConfig("tilus", uint8, L40S)
        cfg4 = ServingConfig("tilus", uint4, L40S)
        w8 = ServingSimulator(LLAMA3_70B, cfg8).weight_bytes()
        w4 = ServingSimulator(LLAMA3_70B, cfg4).weight_bytes()
        assert w8 > 1.7 * w4  # head/embeddings stay f16, so not exactly 2x

    def test_oom_cells_of_figure12(self):
        """vLLM f16: Qwen-32B and Llama-70B exceed 48 GiB; Llama u8 too."""
        assert simulate_cell(QWEN2_5_32B, ServingConfig("vllm", float16, L40S), "decode", 1).error == "OOM"
        assert simulate_cell(LLAMA3_70B, ServingConfig("vllm", float16, L40S), "decode", 1).error == "OOM"
        assert simulate_cell(LLAMA3_70B, ServingConfig("tilus", uint8, L40S), "decode", 1).error == "OOM"
        assert simulate_cell(LLAMA3_70B, ServingConfig("ladder", uint8, L40S), "decode", 1).error == "OOM"
        assert simulate_cell(GEMMA2_9B, ServingConfig("vllm", float16, L40S), "decode", 1).ok
        assert simulate_cell(LLAMA3_70B, ServingConfig("tilus", uint4, L40S), "decode", 1).ok

    def test_a100_80g_fits_qwen_f16(self):
        """Figure 13: vLLM f16 runs on A100/H100 (80 GiB) but not L40S."""
        assert simulate_cell(QWEN2_5_32B, ServingConfig("vllm", float16, A100), "decode", 1).ok
        assert simulate_cell(QWEN2_5_32B, ServingConfig("vllm", float16, H100), "decode", 1).ok
        assert simulate_cell(QWEN2_5_32B, ServingConfig("vllm", float16, L40S), "decode", 1).error == "OOM"

    def test_oom_exception_direct(self):
        sim = ServingSimulator(LLAMA3_70B, ServingConfig("vllm", float16, L40S))
        with pytest.raises(OutOfMemoryError):
            sim.check_memory(batch=1)


class TestFigure13HardwareMatrix:
    def test_ladder_errs_on_hopper(self):
        for stage, toks in STAGES:
            cell = simulate_cell(QWEN2_5_32B, ServingConfig("ladder", uint4, H100), stage, toks)
            assert cell.error == "ERR", stage

    def test_tilus_runs_everywhere(self):
        for gpu in (A100, L40S, H100):
            for stage, toks in STAGES:
                cell = simulate_cell(QWEN2_5_32B, ServingConfig("tilus", uint4, gpu), stage, toks)
                assert cell.ok, (gpu, stage)

    def test_tilus_beats_ladder_on_all_gpus(self):
        for gpu in (A100, L40S):
            for stage, toks in STAGES:
                t = simulate_cell(QWEN2_5_32B, ServingConfig("tilus", uint4, gpu), stage, toks)
                l = simulate_cell(QWEN2_5_32B, ServingConfig("ladder", uint4, gpu), stage, toks)
                assert t.latency_ms < l.latency_ms, (gpu, stage, toks)

    def test_h100_fastest(self):
        lat = {
            gpu.name: simulate_cell(
                QWEN2_5_32B, ServingConfig("tilus", uint4, gpu), "decode", 1
            ).latency_ms
            for gpu in (A100, L40S, H100)
        }
        assert lat["H100"] < lat["A100"] < lat["L40S"]


class TestFigure12Shapes:
    def test_decode1_ordering(self):
        """Lower-precision weights => faster decode; Tilus <= Ladder."""
        lat = {}
        for sysname, wd in (("vllm", float16), ("ladder", uint8), ("tilus", uint8),
                            ("ladder", uint4), ("tilus", uint4),
                            ("ladder", uint2), ("tilus", uint2)):
            cell = simulate_cell(GEMMA2_9B, ServingConfig(sysname, wd, L40S), "decode", 1)
            lat[(sysname, wd.name)] = cell.latency_ms
        assert lat[("tilus", "u2")] < lat[("tilus", "u4")] < lat[("tilus", "u8")]
        assert lat[("tilus", "u8")] < lat[("vllm", "f16")]
        for w in ("u8", "u4", "u2"):
            assert lat[("tilus", w)] <= lat[("ladder", w)]

    def test_decode16_ladder_inversion(self):
        """Figure 12 middle column: Ladder u4 at 16 tokens is slower than
        vLLM f16 while Tilus stays much faster."""
        v = simulate_cell(GEMMA2_9B, ServingConfig("vllm", float16, L40S), "decode", 16)
        l = simulate_cell(GEMMA2_9B, ServingConfig("ladder", uint4, L40S), "decode", 16)
        t = simulate_cell(GEMMA2_9B, ServingConfig("tilus", uint4, L40S), "decode", 16)
        assert l.latency_ms > v.latency_ms
        assert t.latency_ms < v.latency_ms * 0.7

    def test_prefill_quantized_is_slower_than_f16(self):
        """Figure 12 right column: at prefill, quantized paths trail the
        f16 baseline (dequant tax on a compute-bound stage)."""
        v = simulate_cell(GEMMA2_9B, ServingConfig("vllm", float16, L40S), "prefill", 2048)
        t = simulate_cell(GEMMA2_9B, ServingConfig("tilus", uint4, L40S), "prefill", 2048)
        l = simulate_cell(GEMMA2_9B, ServingConfig("ladder", uint4, L40S), "prefill", 2048)
        assert v.latency_ms < t.latency_ms < l.latency_ms

    def test_tilus_at_most_ladder_on_every_cell(self):
        """Every model, stage and weight width both systems run."""
        count = 0
        for model in MODELS.values():
            for stage, toks in STAGES:
                for dtype in (uint8, uint4, uint2):
                    t = simulate_cell(model, ServingConfig("tilus", dtype, L40S), stage, toks)
                    l = simulate_cell(model, ServingConfig("ladder", dtype, L40S), stage, toks)
                    if t.ok and l.ok:
                        assert t.latency_ms <= l.latency_ms, (model.name, stage, dtype)
                        count += 1
        assert count >= 18

    def test_decode_latency_scales_with_model(self):
        g = simulate_cell(GEMMA2_9B, ServingConfig("tilus", uint4, L40S), "decode", 1)
        q = simulate_cell(QWEN2_5_32B, ServingConfig("tilus", uint4, L40S), "decode", 1)
        l = simulate_cell(LLAMA3_70B, ServingConfig("tilus", uint4, L40S), "decode", 1)
        assert g.latency_ms < q.latency_ms < l.latency_ms

    def test_gemma_decode1_magnitude(self):
        """Paper: vLLM 32.6 ms, Tilus u4 14.0 ms — ours must land within
        ~35% (documented in EXPERIMENTS.md)."""
        v = simulate_cell(GEMMA2_9B, ServingConfig("vllm", float16, L40S), "decode", 1)
        t = simulate_cell(GEMMA2_9B, ServingConfig("tilus", uint4, L40S), "decode", 1)
        assert abs(v.latency_ms - 32.6) / 32.6 < 0.35
        assert abs(t.latency_ms - 14.0) / 14.0 < 0.35

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            simulate_cell(GEMMA2_9B, ServingConfig("vllm", float16, L40S), "train", 1)


class TestBatchOnlyTermsAreKept:
    """``decode_step_latency`` keeps, per instance, the terms that depend
    only on the batch size; nothing a caller can read may tell."""

    GRID = [(b, c) for b in (1, 2, 5, 8, 16) for c in (1, 64, 256, 2048)]

    @pytest.mark.parametrize("system,dtype", [("tilus", uint4), ("vllm", float16)])
    def test_a_warmed_simulator_answers_like_a_fresh_one(self, system, dtype):
        config = ServingConfig(system, dtype, L40S)
        warmed = ServingSimulator(GEMMA2_9B, config)
        for _ in range(2):  # the second pass is answered from the memo
            for batch, context in self.GRID:
                fresh = ServingSimulator(GEMMA2_9B, config)
                want = fresh.decode_step_latency(batch, context)
                assert warmed.decode_step_latency(batch, context) == want
                assert warmed.memory_required(batch, context) == (
                    fresh.memory_required(batch, context)
                )
        assert warmed.prefill_latency(512) == (
            ServingSimulator(GEMMA2_9B, config).prefill_latency(512)
        )
        assert sorted(warmed._linear_time) == sorted({b for b, _ in self.GRID})

    def test_the_memo_is_per_instance(self):
        """Two configurations never share a kept term, and a step that
        does not fit still raises every time it is asked."""
        small = ServingSimulator(GEMMA2_9B, ServingConfig("tilus", uint4, L40S))
        large = ServingSimulator(LLAMA3_70B, ServingConfig("tilus", uint4, L40S))
        assert small.decode_step_latency(4) < large.decode_step_latency(4)
        assert small.weight_bytes() < large.weight_bytes()
        assert small._linear_time is not large._linear_time
        assert small._linear_time[4] != large._linear_time[4]
        oom = ServingSimulator(LLAMA3_70B, ServingConfig("tilus", uint8, L40S))
        for _ in range(2):
            with pytest.raises(OutOfMemoryError):
                oom.decode_step_latency(1)
        assert not oom._linear_time  # refused before any kernel was priced
