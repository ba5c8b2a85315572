"""The analytical performance model and baseline systems."""

import numpy as np
import pytest

from repro.autotune import config_latency_estimate
from repro.dtypes import all_weight_dtypes, dtype_from_name
from repro.errors import UnsupportedKernelError
from repro.kernels import MatmulConfig
from repro.perf import (
    A100,
    ALL_SYSTEMS,
    H100,
    L40S,
    CuBLAS,
    Ladder,
    Marlin,
    MatmulWorkload,
    QuantLLM,
    Tilus,
    Triton,
    speedup_vs_cublas,
    system_by_name,
)

SHAPES = [(8192, 8192), (8192, 28672), (57344, 8192)]  # paper Figure 10
FIG10_DTYPES = ("u8", "f6", "u4", "i4", "u2", "u1")


def wl(m, n, k, w):
    return MatmulWorkload.of(m, n, k, w)


class TestSupportMatrix:
    def test_tilus_supports_full_spectrum(self):
        tilus = ALL_SYSTEMS["tilus"]
        for name in ("u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8",
                     "i2", "i5", "i8", "f3", "f6", "f8", "f16"):
            assert tilus.supports(wl(1, 8192, 8192, name), L40S), name

    def test_triton_pow2_ints_only(self):
        triton = ALL_SYSTEMS["triton"]
        assert triton.supports(wl(1, 1024, 1024, "u4"), L40S)
        assert triton.supports(wl(1, 1024, 1024, "u8"), L40S)
        assert not triton.supports(wl(1, 1024, 1024, "u3"), L40S)
        assert not triton.supports(wl(1, 1024, 1024, "f6"), L40S)

    def test_ladder_pow2_and_no_hopper(self):
        ladder = ALL_SYSTEMS["ladder"]
        assert ladder.supports(wl(1, 1024, 1024, "u4"), L40S)
        assert not ladder.supports(wl(1, 1024, 1024, "u5"), L40S)
        assert not ladder.supports(wl(1, 1024, 1024, "f6"), L40S)
        with pytest.raises(UnsupportedKernelError, match="Hopper"):
            ladder.check(wl(1, 1024, 1024, "u4"), H100)

    def test_quantllm_fp56_only(self):
        q = ALL_SYSTEMS["quantllm"]
        assert q.supports(wl(1, 1024, 1024, "f6"), L40S)
        assert q.supports(wl(1, 1024, 1024, "f5"), L40S)
        assert not q.supports(wl(1, 1024, 1024, "u4"), L40S)
        assert not q.supports(wl(1, 1024, 1024, "f4"), L40S)

    def test_marlin_int4_only_no_hopper(self):
        marlin = ALL_SYSTEMS["marlin"]
        assert marlin.supports(wl(1, 1024, 1024, "i4"), L40S)
        assert marlin.supports(wl(1, 1024, 1024, "i4"), A100)
        assert not marlin.supports(wl(1, 1024, 1024, "u4"), L40S)
        assert not marlin.supports(wl(1, 1024, 1024, "i4"), H100)

    def test_cublas_f16_only(self):
        cublas = ALL_SYSTEMS["cublas"]
        assert cublas.supports(wl(1, 1024, 1024, "f16"), L40S)
        assert not cublas.supports(wl(1, 1024, 1024, "u4"), L40S)

    def test_unknown_system(self):
        with pytest.raises(UnsupportedKernelError):
            system_by_name("tensorrt")


class TestTilusModel:
    def test_latency_monotone_in_bits(self):
        """At small batch, fewer weight bits => lower latency."""
        tilus = ALL_SYSTEMS["tilus"]
        lat = [
            tilus.matmul_latency(wl(1, 8192, 8192, f"u{b}"), L40S)
            for b in (8, 6, 4, 2)
        ]
        assert lat == sorted(lat, reverse=True)

    def test_speedup_in_paper_range(self):
        """Figure 10: Tilus speedups fall in the paper's bands (±25%)."""
        bands = {"u8": (2.0, 2.3), "f6": (2.6, 3.0), "u4": (3.5, 4.1),
                 "u2": (5.7, 7.8), "u1": (8.7, 13.0)}
        tilus = ALL_SYSTEMS["tilus"]
        for name, (lo, hi) in bands.items():
            for n, k in SHAPES:
                for m in (1, 16):
                    s = speedup_vs_cublas(tilus, wl(m, n, k, name), L40S)
                    assert lo * 0.75 <= s <= hi * 1.25, (name, m, n, k, s)

    def test_prefill_converges_to_parity(self):
        """Large m: compute-bound, quantization advantage vanishes."""
        tilus = ALL_SYSTEMS["tilus"]
        s = speedup_vs_cublas(tilus, wl(8192, 8192, 8192, "u4"), L40S)
        assert 0.8 <= s <= 1.1

    def test_crossover_with_batch(self):
        """Speedup decays from memory-bound decode to compute-bound
        prefill (paper Figure 14)."""
        tilus = ALL_SYSTEMS["tilus"]
        speedups = [
            speedup_vs_cublas(tilus, wl(m, 57344, 8192, "u4"), L40S)
            for m in (1, 16, 4096, 12288)
        ]
        assert speedups[0] > 3
        assert speedups[-1] < 1.2
        assert speedups == sorted(speedups, reverse=True)

    def test_faster_gpu_is_faster(self):
        tilus = ALL_SYSTEMS["tilus"]
        w = wl(1, 8192, 8192, "u4")
        assert tilus.matmul_latency(w, H100) < tilus.matmul_latency(w, A100)
        assert tilus.matmul_latency(w, A100) < tilus.matmul_latency(w, L40S)

    def test_dequant_cost_from_compiler_recipes(self):
        """Signed ints cost more dequant time than unsigned (extra sign
        extension ops in the lowering recipe)."""
        tilus = Tilus()
        du = tilus.dequant_time(wl(1, 8192, 8192, "u4"), L40S)
        di = tilus.dequant_time(wl(1, 8192, 8192, "i4"), L40S)
        assert di > du > 0


#: Paper Figure 11: Tilus over cuBLAS f16 at BS=16, N=57344, K=8192, by
#: weight kind and width.
FIG11 = {
    "uint": {8: 2.1, 7: 2.4, 6: 2.8, 5: 3.3, 4: 3.8, 3: 5.0, 2: 6.3, 1: 9.4},
    "int": {8: 2.2, 7: 2.4, 6: 2.8, 5: 3.3, 4: 3.8, 3: 5.0, 2: 6.9},
    "float": {8: 2.2, 7: 2.4, 6: 2.8, 5: 3.3, 4: 4.0, 3: 5.0},
}
#: Paper Figure 14: decode and prefill batches at N=57344, K=8192.
FIG14_BATCHES = (1, 4, 8, 16, 4096, 8192, 12288)


class TestPaperFigures:
    def test_fig10_bs1_speedup_grows_as_weights_narrow(self):
        tilus = ALL_SYSTEMS["tilus"]
        for n, k in SHAPES:
            s = {name: speedup_vs_cublas(tilus, wl(1, n, k, name), L40S)
                 for name in FIG10_DTYPES}
            assert s["u1"] > s["u2"] > s["u4"] > s["f6"] > s["u8"] > 1.0, (n, k)

    def test_fig10_bs16_ladder_u4_below_cublas_on_every_shape(self):
        ladder = ALL_SYSTEMS["ladder"]
        for n, k in SHAPES:
            assert speedup_vs_cublas(ladder, wl(16, n, k, "u4"), L40S) < 1.0, (n, k)

    def test_fig11_spectrum_within_35_percent_of_the_paper(self):
        """All 21 weight types run; per kind the speedup falls as the
        width grows, and every cell is within 35 % of the paper's."""
        tilus = ALL_SYSTEMS["tilus"]
        cells: dict = {"uint": {}, "int": {}, "float": {}}
        for dtype in all_weight_dtypes():
            w = MatmulWorkload(m=16, n=57344, k=8192, weight_dtype=dtype)
            assert tilus.supports(w, L40S), dtype
            kind = "float" if dtype.is_float else ("int" if dtype.is_signed else "uint")
            cells[kind][dtype.nbits] = speedup_vs_cublas(tilus, w, L40S)
        assert sum(len(row) for row in cells.values()) == 21
        for kind, row in cells.items():
            by_width = [row[bits] for bits in sorted(row)]
            assert by_width == sorted(by_width, reverse=True), kind
            for bits, value in row.items():
                ref = FIG11[kind][bits]
                assert abs(value - ref) / ref < 0.35, (kind, bits, value, ref)

    def test_fig14_tilus_u4_batch_sweep(self):
        """Decode batches: above 3x; prefill: near parity; the speedup
        never grows with the batch."""
        tilus = ALL_SYSTEMS["tilus"]
        s = [speedup_vs_cublas(tilus, wl(m, 57344, 8192, "u4"), L40S)
             for m in FIG14_BATCHES]
        assert all(v > 3.0 for v in s[:4])
        assert all(0.8 <= v <= 1.2 for v in s[4:])
        assert s == sorted(s, reverse=True)

    def test_fig14_tilus_leads_every_curve_at_every_batch(self):
        tilus = ALL_SYSTEMS["tilus"]
        count = 0
        for m in FIG14_BATCHES:
            for base, name in (("triton", "u4"), ("quantllm", "f6"), ("ladder", "u4")):
                system, w = ALL_SYSTEMS[base], wl(m, 57344, 8192, name)
                if not system.supports(w, L40S):
                    continue
                assert system.matmul_latency(w, L40S) >= tilus.matmul_latency(
                    w, L40S), (base, m)
                count += 1
        assert count >= 15

    def test_ablation_software_pipelining(self):
        """Three stages against one, same tile, on the decode workload."""
        w = wl(1, 57344, 8192, "u4")
        serial = config_latency_estimate(w, MatmulConfig(16, 64, 64, num_stages=1), L40S)
        piped = config_latency_estimate(w, MatmulConfig(16, 64, 64, num_stages=3), L40S)
        assert serial / piped > 1.2

    def test_ablation_global_layout_transform(self):
        """Tilus against a Triton-style layout conversion at Tilus's
        memory efficiency, on the decode workload."""
        w = wl(1, 57344, 8192, "u4")
        converting = Triton(mem_efficiency=Tilus().mem_efficiency)
        tilus = ALL_SYSTEMS["tilus"]
        assert converting.matmul_latency(w, L40S) / tilus.matmul_latency(w, L40S) > 1.3


class TestBaselineShapes:
    def test_tilus_beats_all_baselines(self):
        """On every supported workload of Figure 10, Tilus wins."""
        tilus = ALL_SYSTEMS["tilus"]
        wins = 0
        for base in ("triton", "ladder", "quantllm", "marlin"):
            system = ALL_SYSTEMS[base]
            for n, k in SHAPES:
                for m in (1, 16):
                    for name in FIG10_DTYPES:
                        w = wl(m, n, k, name)
                        if not system.supports(w, L40S):
                            continue
                        assert system.matmul_latency(w, L40S) >= tilus.matmul_latency(
                            w, L40S
                        ), (base, name, m)
                        wins += 1
        assert wins > 50

    def test_headline_ratios(self):
        """Geomean speedups vs each baseline (paper Section 1: 1.75x,
        2.61x, 1.29x, 1.03x).  Ladder's figure-level inversion at BS=16 is
        prioritized over its exact headline (see EXPERIMENTS.md)."""
        def geomean(xs):
            return float(np.exp(np.mean(np.log(xs))))

        tilus = ALL_SYSTEMS["tilus"]
        targets = {"triton": (1.75, 0.15), "ladder": (2.61, 0.60),
                   "quantllm": (1.29, 0.15), "marlin": (1.03, 0.10)}
        achieved = {}
        for base, (target, tol) in targets.items():
            system = ALL_SYSTEMS[base]
            ratios = []
            for m in (1, 16):
                for n, k in SHAPES:
                    for name in FIG10_DTYPES:
                        w = wl(m, n, k, name)
                        if system.supports(w, L40S):
                            ratios.append(
                                system.matmul_latency(w, L40S)
                                / tilus.matmul_latency(w, L40S)
                            )
            achieved[base] = geomean(ratios)
            assert abs(achieved[base] - target) <= target * tol, (base, achieved)
        # The paper's order: Ladder furthest behind, Marlin closest.
        assert (
            achieved["ladder"] > achieved["triton"] > achieved["quantllm"]
            > achieved["marlin"]
        )

    def test_ladder_slower_than_cublas_at_decode16(self):
        """The paper's striking inversion: Ladder's unpipelined kernels
        lose to plain f16 cuBLAS at batch 16."""
        ladder = ALL_SYSTEMS["ladder"]
        s = speedup_vs_cublas(ladder, wl(16, 8192, 8192, "u4"), L40S)
        assert s < 1.0

    def test_ladder_wins_at_decode1(self):
        ladder = ALL_SYSTEMS["ladder"]
        s = speedup_vs_cublas(ladder, wl(1, 8192, 8192, "u4"), L40S)
        assert s > 1.5

    def test_marlin_close_to_tilus(self):
        marlin, tilus = ALL_SYSTEMS["marlin"], ALL_SYSTEMS["tilus"]
        w = wl(1, 8192, 8192, "i4")
        ratio = marlin.matmul_latency(w, L40S) / tilus.matmul_latency(w, L40S)
        assert 1.0 <= ratio <= 1.10

    def test_triton_conversion_penalty_scales_with_elements(self):
        """The layout-conversion term grows linearly with weight elements
        and sits on the critical path (additive to the roofline max)."""
        triton = Triton()
        small = triton.matmul_latency(wl(1, 1024, 1024, "u4"), L40S)
        large = triton.matmul_latency(wl(1, 8192, 8192, "u4"), L40S)
        assert large > small * 15  # 64x elements, launch floor dampens
        # And Triton pays strictly more than its own roofline would:
        tilus_like = Tilus(mem_efficiency=triton.mem_efficiency)
        assert large > tilus_like.matmul_latency(wl(1, 8192, 8192, "u4"), L40S)

    def test_quantllm_batch_penalty(self):
        q = QuantLLM()
        t8 = q.matmul_latency(wl(8, 8192, 8192, "f6"), L40S)
        t16 = q.matmul_latency(wl(16, 8192, 8192, "f6"), L40S)
        assert t16 > t8 * 1.1


class TestWorkload:
    def test_byte_accounting(self):
        w = wl(4, 1024, 2048, "u4")
        assert w.weight_bytes == 2048 * 1024 / 2
        assert w.act_bytes == 4 * 2048 * 2
        assert w.out_bytes == 4 * 1024 * 2
        assert w.flops == 2 * 4 * 1024 * 2048

    def test_scale_bytes(self):
        w = MatmulWorkload.of(1, 1024, 2048, "u4")
        assert w.scale_bytes == (2048 / 128) * 1024 * 2

    def test_with_batch(self):
        w = wl(1, 64, 64, "u4").with_batch(16)
        assert w.m == 16 and w.n == 64
