"""The unified observability layer: tracer semantics, Chrome trace
export, the frozen metrics-key contracts, the sequential engine's
buffered print sink, the ``trace summarize`` CLI, and the cross-process
fleet-trace merge through real spawned workers.

The metrics-key tests are CI guards in the same style as
``BASELINE_MODES`` in ``test_vm_differential.py``: the key sets are
restated here as literals, so dropping or renaming a published metric
fails the suite until the contract (and this file) is updated
deliberately.
"""

import io
import json

import numpy as np
import pytest

from repro.errors import VMError
from repro.lang import ProgramBuilder
from repro.dtypes import float16
from repro.layout import spatial
from repro.obs import (
    HOST_TID,
    ROUTER_METRICS_KEYS,
    RUNTIME_METRICS_KEYS,
    SIMULATOR_METRICS_KEYS,
    TRACE_JSON_VERSION,
    Tracer,
    chrome_trace,
    merge_process_traces,
    validate_metrics,
    zero_metrics,
)
from repro.obs import trace as obs_trace
from repro.obs.trace import load_trace, summarize_trace
from repro.runtime import Runtime
from repro.runtime.jit import PROMOTE_AFTER
from repro.vm import BatchedExecutor, GlobalMemory, Interpreter


# ---------------------------------------------------------------------------
# Tracer semantics
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_by_default(self):
        assert obs_trace.ACTIVE is None
        assert obs_trace.active() is None

    def test_install_uninstall(self):
        tracer = obs_trace.install()
        try:
            assert obs_trace.active() is tracer
        finally:
            assert obs_trace.uninstall() is tracer
        assert obs_trace.ACTIVE is None

    def test_span_and_instant_record(self):
        tracer = Tracer()
        with tracer.span("work", "test", args={"k": 1}):
            tracer.instant("tick", "test", tid=3)
        events = tracer.events()
        assert len(events) == 2
        instant, span = events
        assert instant["ph"] == "i" and instant["tid"] == 3
        assert span["ph"] == "X" and span["name"] == "work"
        assert span["dur"] >= 0.0 and span["args"] == {"k": 1}

    def test_ring_bound_drops_oldest(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.instant(f"e{i}", "test")
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [e["name"] for e in tracer.events()] == ["e6", "e7", "e8", "e9"]

    def test_clear_resets(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.instant(f"e{i}", "test")
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


# ---------------------------------------------------------------------------
# Chrome export, merge, summarize
# ---------------------------------------------------------------------------


class TestChromeExport:
    def _tracer_with_events(self):
        clock = iter(float(i) for i in range(100))
        tracer = Tracer(clock=lambda: next(clock))
        tracer.complete("launch:k", "runtime", HOST_TID, 1.0, 0.5)
        tracer.instant("jit.promote:k", "jit", tid=2)
        return tracer

    def test_round_trips_through_json(self):
        trace = chrome_trace(self._tracer_with_events())
        loaded = load_trace(json.dumps(trace))
        assert loaded["otherData"]["trace_v"] == TRACE_JSON_VERSION
        spans = [e for e in loaded["traceEvents"] if e.get("ph") == "X"]
        instants = [e for e in loaded["traceEvents"] if e.get("ph") == "i"]
        assert len(spans) == 1 and len(instants) == 1
        # Timestamps rebase to t=0 at the earliest event (the instant,
        # stamped at the fake clock's first reading) and convert to us.
        assert instants[0]["ts"] == 0.0 and instants[0]["s"] == "t"
        assert spans[0]["ts"] == 1.0e6 and spans[0]["dur"] == 0.5e6

    def test_metadata_names_processes_and_lanes(self):
        trace = chrome_trace(self._tracer_with_events(), name="solo")
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["tid"]): e["args"]["name"] for e in meta}
        assert names[("process_name", HOST_TID)] == "solo"
        assert names[("thread_name", HOST_TID)] == "host"
        assert names[("thread_name", 2)] == "stream-1"

    def test_merge_normalizes_clock_offsets(self):
        # Two processes whose clocks disagree by exactly 100 s record the
        # same physical instant; after the merge they must coincide.
        a = [{"name": "x", "cat": "t", "ph": "i", "ts": 5.0, "tid": 0}]
        b = [{"name": "y", "cat": "t", "ph": "i", "ts": 105.0, "tid": 0}]
        trace = merge_process_traces(
            [
                {"name": "p0", "pid": 0, "events": a, "offset_s": 0.0},
                {"name": "p1", "pid": 1, "events": b, "offset_s": 100.0},
            ]
        )
        stamps = {e["pid"]: e["ts"] for e in trace["traceEvents"] if e["ph"] == "i"}
        assert stamps[0] == stamps[1] == 0.0

    def test_load_trace_accepts_bare_array(self):
        loaded = load_trace("[]")
        assert loaded["traceEvents"] == []

    @pytest.mark.parametrize("text", ["not json", '{"a": 1}', "3"])
    def test_load_trace_rejects_malformed(self, text):
        with pytest.raises(VMError):
            load_trace(text)

    def test_summarize_counts_phases_and_processes(self):
        trace = chrome_trace(self._tracer_with_events())
        summary = summarize_trace(trace)
        by_cat = {p["cat"]: p for p in summary["phases"]}
        assert by_cat["runtime"]["spans"] == 1
        assert by_cat["runtime"]["busy_ms"] == pytest.approx(500.0)
        assert by_cat["jit"]["instants"] == 1
        (proc,) = summary["processes"]
        assert proc["lanes"] == 2 and proc["events"] == 2


# ---------------------------------------------------------------------------
# Frozen metrics-key contracts (CI guards, BASELINE_MODES-style)
# ---------------------------------------------------------------------------

#: The published runtime metrics namespace (baseline — CI fails if a key
#: is ever dropped or renamed without updating this contract).
BASELINE_RUNTIME_KEYS = {
    "runtime.launches",
    "runtime.spec_cache.entries",
    "runtime.spec_cache.hits",
    "runtime.spec_cache.misses",
    "runtime.spec_cache.evictions",
    "runtime.stats.blocks_run",
    "runtime.stats.instructions",
    "runtime.stats.global_bits_loaded",
    "runtime.stats.global_bits_stored",
    "runtime.stats.shared_bits_loaded",
    "runtime.stats.shared_bits_stored",
    "runtime.stats.copy_async_issued",
    "runtime.stats.dot_ops",
    "runtime.stats.synchronizations",
    "streams.count",
    "streams.launches",
    "streams.executions",
    "jit.enabled",
    "jit.compiled",
    "jit.bailouts",
    "jit.promotions",
    "jit.cache.hits",
    "jit.cache.misses",
    "jit.cache.evictions",
}

BASELINE_SIMULATOR_KEYS = BASELINE_RUNTIME_KEYS | {
    "batching.max_batch",
    "batching.num_streams",
}

BASELINE_ROUTER_KEYS = {
    "router.completed",
    "router.shed",
    "router.redispatched",
    "router.respawns",
    "router.total_tokens",
    "router.kernel_launches",
    "router.graph_captures",
    "router.graph_replays",
    "router.jit_compiled",
    "router.jit_promotions",
    "router.slo_attainment",
    "router.simulated_makespan_s",
    "router.wall_s",
}


class TestMetricsContracts:
    def test_runtime_contract_frozen(self):
        assert set(RUNTIME_METRICS_KEYS) == BASELINE_RUNTIME_KEYS

    def test_simulator_contract_frozen(self):
        assert set(SIMULATOR_METRICS_KEYS) == BASELINE_SIMULATOR_KEYS

    def test_router_contract_frozen(self):
        assert set(ROUTER_METRICS_KEYS) == BASELINE_ROUTER_KEYS

    def test_validate_rejects_missing_and_extra(self):
        with pytest.raises(VMError, match="missing"):
            validate_metrics({}, frozenset({"a.b"}), "T")
        with pytest.raises(VMError, match="unexpected"):
            validate_metrics({"a.b": 1, "a.c": 2}, frozenset({"a.b"}), "T")

    def test_validate_rejects_non_numeric(self):
        for bad in ("1", True, None):
            with pytest.raises(VMError, match="expected int or float"):
                validate_metrics({"a.b": bad}, frozenset({"a.b"}), "T")

    def test_zero_metrics_covers_contract(self):
        zeros = zero_metrics(RUNTIME_METRICS_KEYS)
        assert set(zeros) == set(RUNTIME_METRICS_KEYS)
        assert all(v == 0 for v in zeros.values())

    def test_fresh_runtime_snapshot_validates(self):
        snapshot = Runtime().metrics()
        assert set(snapshot) == set(RUNTIME_METRICS_KEYS)
        assert snapshot["runtime.launches"] == 0
        assert snapshot["jit.enabled"] == 0

    def test_runtime_snapshot_counts_launches(self):
        from repro import ops
        from repro.dtypes import int6

        rng = np.random.default_rng(0)
        linear = ops.prepare_linear(
            rng.standard_normal((64, 16)), int6, group_size=32
        )
        linear.runtime.enable_jit()
        before = linear.runtime.metrics()
        linear(rng.standard_normal((4, 64)))
        after = linear.runtime.metrics()
        assert after["runtime.launches"] > before["runtime.launches"]
        assert after["jit.enabled"] == 1
        assert after["runtime.stats.blocks_run"] > 0


# ---------------------------------------------------------------------------
# Runtime emit points (single process)
# ---------------------------------------------------------------------------


class TestRuntimeEmitPoints:
    def test_launch_and_jit_events_recorded(self):
        from repro import ops
        from repro.dtypes import int6

        rng = np.random.default_rng(1)
        linear = ops.prepare_linear(
            rng.standard_normal((64, 16)), int6, group_size=32
        )
        runtime = linear.runtime
        runtime.enable_jit()
        tracer = runtime.enable_tracing()
        act = rng.standard_normal((2, 64))
        try:
            for _ in range(PROMOTE_AFTER + 1):  # launch past the constant
                linear(act)
        finally:
            runtime.disable_tracing()
        cats = {e["cat"] for e in tracer.events()}
        assert "runtime" in cats
        assert "jit" in cats
        names = [e["name"].split(":")[0] for e in tracer.events()]
        assert names.count("launch") == PROMOTE_AFTER + 1
        # One promotion, after exactly PROMOTE_AFTER interpreted
        # launches and before the launch span it fed.
        assert names.count("jit.promote") == 1
        assert names[:PROMOTE_AFTER] == ["launch"] * PROMOTE_AFTER
        assert names.index("jit.promote") < len(names) - 1
        assert names[-1] == "launch"

    def test_no_events_recorded_when_disabled(self):
        from repro import ops
        from repro.dtypes import int6

        rng = np.random.default_rng(2)
        linear = ops.prepare_linear(
            rng.standard_normal((64, 16)), int6, group_size=32
        )
        assert obs_trace.ACTIVE is None
        linear(rng.standard_normal((2, 64)))  # must not raise, must not record

    def test_splitk_emits_stream_and_graph_events(self):
        """Streamed split-k is the graph and stream user left (a served
        decode step is one synchronous launch): its first call captures,
        its second replays, and the summary sees both lanes."""
        from repro import ops
        from repro.dtypes import int6
        from repro.kernels import MatmulConfig

        rng = np.random.default_rng(3)
        linear = ops.prepare_linear(
            rng.standard_normal((64, 16)), int6, group_size=32,
            config=MatmulConfig(16, 8, 16, split_k=2), streams=2,
        )
        tracer = linear.runtime.enable_tracing()
        act = rng.standard_normal((2, 64))
        try:
            linear(act)
            linear(act)
        finally:
            linear.runtime.disable_tracing()
        names = [e["name"] for e in tracer.events()]
        assert names.count("graph.capture") == 1
        assert names.count("graph.replay") == 2
        summary = summarize_trace(load_trace(json.dumps(chrome_trace(tracer))))
        by_cat = {p["cat"]: p for p in summary["phases"]}
        assert by_cat["stream"]["spans"] > 0
        assert by_cat["graph"]["spans"] == 2 and by_cat["graph"]["instants"] == 1


# ---------------------------------------------------------------------------
# Sequential print sink
# ---------------------------------------------------------------------------


class TestSequentialPrintSink:
    @staticmethod
    def _print_program():
        pb = ProgramBuilder("dbg_sink", grid=[3])
        (bi,) = pb.block_indices()
        tile = pb.allocate_register(float16, layout=spatial(2, 2), init=1.5)
        pb.print_tensor(tile, message="acc")
        return pb.finish()

    def test_prints_flush_to_sink_in_block_order(self):
        buf = io.StringIO()
        interp = Interpreter(stdout=buf)
        interp.launch(self._print_program(), [])
        text = buf.getvalue()
        assert text.count("acc") == 3

    def test_sequential_matches_batched_capture(self):
        prog = self._print_program()
        memory = GlobalMemory(1 << 16)
        seq, bat = io.StringIO(), io.StringIO()
        Interpreter(memory, stdout=seq).launch(prog, [])
        BatchedExecutor(memory, stdout=bat).launch(prog, [])
        assert seq.getvalue() == bat.getvalue()

    def test_buffer_resets_between_launches(self):
        buf = io.StringIO()
        interp = Interpreter(stdout=buf)
        prog = self._print_program()
        interp.launch(prog, [])
        interp.launch(prog, [])
        assert buf.getvalue().count("acc") == 6


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestTraceCli:
    def test_summarize_prints_breakdown(self, tmp_path, capsys):
        from repro.cli import main

        tracer = Tracer()
        with tracer.span("launch:k", "runtime"):
            pass
        tracer.instant("jit.promote:k", "jit")
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(chrome_trace(tracer)))
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "runtime" in out and "jit" in out and "repro" in out
        assert "phase" in out and "pid" in out

    def test_summarize_rejects_malformed(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text('{"nope": true}')
        with pytest.raises(VMError):
            main(["trace", "summarize", str(path)])


# ---------------------------------------------------------------------------
# Cross-process fleet merge (real spawned workers)
# ---------------------------------------------------------------------------


class TestFleetTrace:
    """The acceptance test: a 4-worker traced run must yield one
    Perfetto-loadable Chrome trace with router, worker, runtime-launch
    and JIT events on normalized clocks (a served decode step is one
    synchronous launch: the stream and graph lanes are split-k's, see
    ``TestRuntimeEmitPoints``)."""

    NUM_WORKERS = 4
    NUM_REQUESTS = 12

    @pytest.fixture(scope="class")
    def fleet(self):
        from repro.serving import Router, WorkerPool, WorkerSpec, poisson_trace

        # A chunk is 2 requests x 4 tokens at max_batch=1: eight
        # replays of one key in one run, past the promotion constant —
        # which guarantees JIT events in a short run.
        spec = WorkerSpec(
            linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
            max_batch=1, num_streams=2, profile=True, jit=True, trace=True,
        )
        requests = poisson_trace(
            self.NUM_REQUESTS, rate_rps=10_000.0, prompt_tokens=64,
            output_tokens=4, seed=5, slo_s=60.0,
        )
        obs_trace.install()
        try:
            with WorkerPool(spec, self.NUM_WORKERS) as pool:
                router = Router(pool, chunk_size=2)
                result = router.serve(requests, timeout_s=300.0)
                trace = router.fleet_trace()
                worker_metrics = [
                    pool.pull_trace(i)["metrics"]
                    for i in range(self.NUM_WORKERS)
                ]
        finally:
            obs_trace.uninstall()
        return result, trace, worker_metrics

    def test_all_requests_complete(self, fleet):
        result, _, _ = fleet
        assert result.num_completed == self.NUM_REQUESTS
        assert not result.rejected

    def test_one_pid_per_process(self, fleet):
        _, trace, _ = fleet
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == set(range(self.NUM_WORKERS + 1))
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"router"} | {
            f"worker-{i}" for i in range(self.NUM_WORKERS)
        }

    def test_every_category_present(self, fleet):
        _, trace, _ = fleet
        cats = {
            e.get("cat")
            for e in trace["traceEvents"]
            if e.get("ph") in ("X", "i")
        }
        assert {"router", "worker", "runtime", "jit"} <= cats
        assert not {"stream", "graph"} & cats

    def test_clocks_normalized(self, fleet):
        _, trace, _ = fleet
        stamps = [
            e["ts"] for e in trace["traceEvents"] if e.get("ph") in ("X", "i")
        ]
        assert min(stamps) >= 0.0
        # Every worker's spans must land inside the router's serve span:
        # gross clock-offset errors (e.g. unnormalized epochs) would
        # scatter them far outside it.
        serve = next(
            e for e in trace["traceEvents"]
            if e.get("name") == "router.serve" and e.get("ph") == "X"
        )
        hi = serve["ts"] + serve["dur"]
        for event in trace["traceEvents"]:
            if event.get("ph") == "X" and event["pid"] > 0:
                assert event["ts"] >= serve["ts"] - 1e6
                assert event["ts"] <= hi + 1e6

    def test_round_trips_and_summarizes(self, fleet):
        _, trace, _ = fleet
        summary = summarize_trace(load_trace(json.dumps(trace)))
        assert len(summary["processes"]) == self.NUM_WORKERS + 1
        by_cat = {p["cat"]: p for p in summary["phases"]}
        # One launch span per decode step: the 4-token chunks at
        # max_batch=1 take 4 steps per request.
        assert by_cat["runtime"]["spans"] == 4 * self.NUM_REQUESTS
        assert by_cat["jit"]["instants"] > 0

    def test_worker_metrics_validate(self, fleet):
        _, _, worker_metrics = fleet
        assert len(worker_metrics) == self.NUM_WORKERS
        for snapshot in worker_metrics:
            assert set(snapshot) == set(SIMULATOR_METRICS_KEYS)
            assert snapshot["jit.enabled"] == 1
            assert snapshot["batching.max_batch"] == 1

    def test_router_result_contracts(self, fleet):
        result, _, _ = fleet
        snapshot = result.metrics()
        assert set(snapshot) == set(ROUTER_METRICS_KEYS)
        assert snapshot["router.completed"] == self.NUM_REQUESTS
        assert snapshot["router.shed"] == 0
        breakdown = result.per_worker()
        assert sum(r["requests"] for r in breakdown.values()) == self.NUM_REQUESTS
        for row in breakdown.values():
            assert {"latency_p50_s", "latency_p99_s", "ttft_p50_s",
                    "ttft_p99_s", "time_s"} <= set(row)
        assert sum(r.get("jit_promotions", 0) for r in breakdown.values()) == (
            result.jit_promotions
        )
        assert sum(r.get("kernel_launches", 0) for r in breakdown.values()) == (
            result.kernel_launches
        )


class TestWorkerSpecObsKnobs:
    def test_trace_and_threshold_round_trip(self):
        from repro.serving import WorkerSpec

        """``trace`` round-trips; the promotion threshold is no longer
        a field of the recipe (promotion is a constant of the JIT)."""
        spec = WorkerSpec(trace=True, jit=True)
        assert "threshold" not in spec.to_json()
        again = WorkerSpec.from_json(spec.to_json())
        assert again == spec
        assert again.trace is True and again.jit is True

    def test_defaults_stay_off(self):
        from repro.serving import WorkerSpec

        spec = WorkerSpec()
        assert spec.trace is False and spec.jit is False
