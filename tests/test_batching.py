"""Continuous batching trace simulation."""

import pytest

from repro.dtypes import float16, uint4
from repro.llm import (
    ContinuousBatchingSimulator,
    GEMMA2_9B,
    Request,
    ServingConfig,
    uniform_trace,
)
from repro.perf import L40S


def make_sim(system="tilus", dtype=uint4, max_batch=16):
    return ContinuousBatchingSimulator(
        GEMMA2_9B, ServingConfig(system, dtype, L40S), max_batch=max_batch
    )


def test_constructor_carries_no_engine_knobs():
    """Engine state (compiled tier, tuning store) lives
    on ``decode_linear.runtime``; the simulator's own options are these
    six and a new one must be argued for, not slipped in."""
    import inspect

    assert list(inspect.signature(ContinuousBatchingSimulator.__init__).parameters) == [
        "self", "model", "config", "max_batch", "decode_linear",
        "num_streams", "profile",
    ]


class TestTraceMechanics:
    def test_single_request_completes(self):
        sim = make_sim()
        trace = [Request(arrival_s=0.0, prompt_tokens=128, output_tokens=8)]
        result = sim.run(trace)
        assert len(result.results) == 1
        r = result.results[0]
        assert r.ttft_s > 0
        assert r.finished_s > r.first_token_s
        assert result.total_tokens == 128 + 8

    def test_all_requests_finish(self):
        sim = make_sim()
        result = sim.run(uniform_trace(6, interarrival_s=0.01, output_tokens=4))
        assert len(result.results) == 6
        assert all(r.finished_s > 0 for r in result.results)

    def test_batching_shares_decode_steps(self):
        """Simultaneous arrivals decode together: total time far below
        the sum of isolated runs."""
        burst = [Request(0.0, 128, 32) for _ in range(8)]
        batched = make_sim(max_batch=8).run(burst)
        solo = make_sim(max_batch=1).run(burst)
        assert batched.total_time_s < solo.total_time_s * 0.7
        assert batched.throughput_tokens_per_s > solo.throughput_tokens_per_s

    def test_idle_gap_advances_clock(self):
        sim = make_sim()
        trace = [Request(0.0, 64, 2), Request(10.0, 64, 2)]
        result = sim.run(trace)
        second = result.results[1]
        assert second.first_token_s >= 10.0

    def test_max_batch_respected(self):
        """With max_batch=2, the 3rd request cannot start until a slot
        frees, so its TTFT exceeds the first's."""
        burst = [Request(0.0, 256, 64) for _ in range(3)]
        result = make_sim(max_batch=2).run(burst)
        ttfts = sorted(r.ttft_s for r in result.results)
        assert ttfts[2] > ttfts[0] * 1.5


class TestSystemComparison:
    def test_tilus_outperforms_f16_on_decode_heavy_trace(self):
        trace = uniform_trace(4, interarrival_s=0.0, prompt_tokens=64, output_tokens=64)
        quant = make_sim("tilus", uint4).run(trace)
        dense = make_sim("vllm", float16).run(trace)
        assert quant.total_time_s < dense.total_time_s
        assert quant.throughput_tokens_per_s > dense.throughput_tokens_per_s

    def test_tilus_beats_ladder_throughput(self):
        trace = uniform_trace(6, interarrival_s=0.0, prompt_tokens=64, output_tokens=32)
        tilus = make_sim("tilus", uint4).run(trace)
        ladder = make_sim("ladder", uint4).run(trace)
        assert tilus.throughput_tokens_per_s > ladder.throughput_tokens_per_s

    def test_metrics_consistent(self):
        trace = uniform_trace(3, interarrival_s=0.05, output_tokens=8)
        result = make_sim().run(trace)
        assert result.mean_latency_s() >= result.mean_ttft_s()
        assert result.throughput_tokens_per_s > 0


class TestEmptyTraceStats:
    """Regression: mean_ttft_s/mean_latency_s raised ZeroDivisionError on
    an empty trace — which a router's per-worker sub-trace legitimately
    produces."""

    def test_empty_trace_result_means_are_zero(self):
        from repro.llm.batching import TraceResult

        empty = TraceResult()
        assert empty.mean_ttft_s() == 0.0
        assert empty.mean_latency_s() == 0.0
        assert empty.throughput_tokens_per_s == 0.0

    def test_run_with_no_requests(self):
        result = make_sim().run([])
        assert result.results == []
        assert result.mean_ttft_s() == 0.0
        assert result.mean_latency_s() == 0.0


class TestPercentiles:
    def test_nearest_rank(self):
        from repro.llm.batching import _percentile

        values = [0.4, 0.1, 0.3, 0.2]
        assert _percentile(values, 50) == 0.2
        assert _percentile(values, 99) == 0.4
        assert _percentile(values, 0) == 0.1
        assert _percentile(values, 100) == 0.4

    def test_empty_and_out_of_range(self):
        from repro.llm.batching import _percentile

        assert _percentile([], 99) == 0.0
        with pytest.raises(ValueError):
            _percentile([1.0], 101)
        with pytest.raises(ValueError):
            _percentile([1.0], -1)

    def test_trace_result_percentiles(self):
        trace = uniform_trace(5, interarrival_s=0.05, output_tokens=4)
        result = make_sim().run(trace)
        assert result.latency_percentile(50) <= result.latency_percentile(99)
        assert result.ttft_percentile(99) <= result.latency_percentile(99)
        assert TraceResultEmpty().latency_percentile(50) == 0.0


def TraceResultEmpty():
    from repro.llm.batching import TraceResult

    return TraceResult()


class TestRequestIdentity:
    def test_uniform_trace_assigns_sequential_rids(self):
        trace = uniform_trace(4, interarrival_s=0.1)
        assert [r.rid for r in trace] == [0, 1, 2, 3]

    def test_priority_and_slo_defaults(self):
        import math

        r = Request(0.0, 8, 2)
        assert r.priority == 0
        assert r.slo_s == math.inf
        assert r.deadline_s == math.inf

    def test_slo_met_reflects_latency(self):
        trace = [Request(0.0, 64, 4, rid=0, slo_s=1e9),
                 Request(0.0, 64, 4, rid=1, slo_s=1e-12)]
        result = make_sim().run(trace)
        by_rid = {r.request.rid: r for r in result.results}
        assert by_rid[0].slo_met
        assert not by_rid[1].slo_met


class TestSlotOwnedBuffers:
    def test_a_jit_soak_allocates_nothing_and_serves_the_oracles_digests(self):
        """300 waves on one JIT simulator: every request decodes in one of
        the ``max_batch`` slot buffers the simulator owns, so device
        memory does not grow after the first wave, and every digest is
        the sequential oracle's for that rid — a slot's last occupant
        leaves nothing its next one reads."""
        from dataclasses import replace

        from repro.serving import WorkerSpec

        spec = WorkerSpec(jit=True, max_batch=4, num_streams=4)
        sim = spec.build_simulator()
        memory = sim.decode_linear.runtime.memory
        rids = range(6)
        digests: dict = {}
        for wave in range(300):
            outcome = sim.run([
                Request(0.0, prompt_tokens=32, output_tokens=1 + (rid + wave) % 3, rid=rid)
                for rid in rids
            ])
            for r in outcome.results:
                digests.setdefault(r.request.rid, set()).add(r.output_digest)
            if wave == 0:
                held = memory.used_bytes, len(memory._allocations)
        assert (memory.used_bytes, len(memory._allocations)) == held
        assert sim.decode_linear.runtime.jit.compiled >= 1
        oracle = replace(spec, jit=False, num_streams=0, use_graphs=False).build_simulator()
        oracle.decode_linear.runtime.engine = "sequential"
        served = oracle.run([Request(0.0, 32, 1, rid=rid) for rid in rids])
        assert digests == {r.request.rid: {r.output_digest} for r in served.results}
