"""The tile-configuration autotuner (paper Section 9.3)."""

import pytest

from repro.autotune import Autotuner, config_latency_estimate, enumerate_valid_configs
from repro.errors import AutotuneError
from repro.kernels import MatmulConfig
from repro.perf import L40S, MatmulWorkload


@pytest.fixture(scope="module")
def enumerated():
    """``dtype -> (workload, candidates)`` for the ``(16, 8192, 8192)``
    workloads: each is enumerated once (~0.7 s) for the whole module."""
    cache = {}

    def get(dtype):
        if dtype not in cache:
            w = MatmulWorkload.of(16, 8192, 8192, dtype)
            cache[dtype] = (w, enumerate_valid_configs(w, L40S))
        return cache[dtype]

    return get


@pytest.fixture(scope="module")
def shared_tuner():
    """One tuner for the tests that only read its results."""
    return Autotuner(L40S)


class TestEnumeration:
    def test_candidate_count_in_paper_range(self, enumerated):
        """'around 200 configurations per operator' — same order here."""
        _, configs = enumerated("u4")
        assert 100 <= len(configs) <= 2500

    def test_all_candidates_valid(self, enumerated):
        w, configs = enumerated("u3")
        for cfg in configs:
            cfg.validate(w.weight_dtype)  # must not raise
            assert w.n % cfg.block_n == 0
            assert w.k % cfg.block_k == 0

    def test_odd_width_prunes_misaligned(self, enumerated):
        """u3 weights prune configs whose fragment is not byte-aligned."""
        assert len(enumerated("u3")[1]) < len(enumerated("u4")[1])

    def test_shared_capacity_respected(self, enumerated):
        _, configs = enumerated("u8")
        for cfg in configs:
            assert cfg.shared_bytes(16, 8) <= L40S.shared_mem_per_sm


class TestTuning:
    def test_decode_prefers_split_k(self):
        """Paper Section 9.4: k-dimension parallelization is what Ladder
        lacks; the tuner must reach for it on decode shapes."""
        result = Autotuner(L40S).tune(MatmulWorkload.of(1, 8192, 28672, "u4"))
        assert result.config.split_k > 1
        assert result.config.block_m == 16

    def test_prefill_prefers_big_tiles(self):
        result = Autotuner(L40S).tune(MatmulWorkload.of(8192, 8192, 8192, "u4"))
        assert result.config.block_m >= 64
        assert result.config.block_n >= 64
        assert result.config.split_k == 1

    def test_pipelining_always_chosen(self, shared_tuner):
        """num_stages >= 2 dominates: overlap never hurts in the model."""
        for m in (1, 16, 4096):
            result = shared_tuner.tune(MatmulWorkload.of(m, 8192, 8192, "u4"))
            assert result.config.num_stages >= 2

    def test_cache(self):
        tuner = Autotuner(L40S)
        w = MatmulWorkload.of(16, 8192, 8192, "u4")
        first = tuner.tune(w)
        second = tuner.tune(w)
        assert first is second
        assert len(tuner._cache) == 1
        tuner.tune(w.with_batch(1))
        assert len(tuner._cache) == 2

    def test_impossible_workload(self):
        with pytest.raises(AutotuneError):
            Autotuner(L40S).tune(MatmulWorkload.of(1, 7, 13, "u4"))

    def test_estimate_monotone_in_data(self):
        cfg = MatmulConfig(16, 64, 64, num_stages=2)
        small = config_latency_estimate(MatmulWorkload.of(1, 8192, 8192, "u4"), cfg, L40S)
        large = config_latency_estimate(MatmulWorkload.of(1, 8192, 28672, "u4"), cfg, L40S)
        assert large > small

    def test_describe(self, shared_tuner):
        result = shared_tuner.tune(MatmulWorkload.of(16, 8192, 8192, "u4"))
        text = result.describe()
        assert "BM" in text and "us" in text
