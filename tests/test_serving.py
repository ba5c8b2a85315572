"""Multi-process sharded serving: wire protocol, spec recipes, router
policy (admission / SLO scheduling), worker-pool end-to-end bit-exactness,
crash recovery, and what crosses the wire from a worker.

The process-spawning tests use real ``spawn``-context workers (fresh
interpreters, JSON pipes only) — they are the acceptance tests for the
"no pickle of live objects" transport contract.
"""

import json
import math
import multiprocessing as mp
from dataclasses import replace
from unittest import mock

import pytest

from repro.errors import VMError
from repro.llm.batching import ContinuousBatchingSimulator, Request
from repro.serving import (
    CRASH_EXIT_CODE,
    Router,
    WorkerPool,
    WorkerSpec,
    poisson_trace,
    recv_msg,
    request_from_wire,
    request_to_wire,
    send_msg,
)

#: A deliberately tiny engine so every spawned worker compiles in a
#: fraction of a second.
TINY = WorkerSpec(
    linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
    max_batch=4, num_streams=2,
)


def served_steps(spec: WorkerSpec, requests) -> int:
    """Decode steps a fresh simulator built from ``spec`` takes to serve
    ``requests`` (counted where the simulated clock advances one)."""
    sim = spec.build_simulator()
    engine = sim.engine
    with mock.patch.object(
        engine, "decode_step_latency", wraps=engine.decode_step_latency
    ) as step:
        sim.run(requests)
    return step.call_count


# ---------------------------------------------------------------------------
# Open-loop arrival generators
# ---------------------------------------------------------------------------


class TestArrivals:
    def test_poisson_is_deterministic_and_sorted(self):
        a = poisson_trace(32, rate_rps=10.0, seed=3)
        b = poisson_trace(32, rate_rps=10.0, seed=3)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        arrivals = [r.arrival_s for r in a]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0

    def test_poisson_seed_changes_trace(self):
        a = poisson_trace(32, rate_rps=10.0, seed=3)
        b = poisson_trace(32, rate_rps=10.0, seed=4)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]

    def test_poisson_rate_sets_mean_gap(self):
        trace = poisson_trace(2000, rate_rps=50.0, seed=0)
        span = trace[-1].arrival_s - trace[0].arrival_s
        mean_gap = span / (len(trace) - 1)
        assert mean_gap == pytest.approx(1 / 50.0, rel=0.15)

    def test_rids_priorities_and_slo_assigned(self):
        trace = poisson_trace(
            6, rate_rps=10.0, priorities=(0, 2), slo_s=1.5, rid_base=100
        )
        assert [r.rid for r in trace] == list(range(100, 106))
        assert [r.priority for r in trace] == [0, 2, 0, 2, 0, 2]
        assert all(r.slo_s == 1.5 for r in trace)
        assert all(r.deadline_s == r.arrival_s + 1.5 for r in trace)

    def test_empty_and_invalid(self):
        assert poisson_trace(0, rate_rps=1.0) == []
        with pytest.raises(ValueError):
            poisson_trace(4, rate_rps=0.0)


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestWireProtocol:
    def test_message_round_trip_over_pipe(self):
        a, b = mp.Pipe()
        send_msg(a, "run", requests=[{"rid": 1}], note="x")
        msg = recv_msg(b)
        assert msg["type"] == "run"
        assert msg["requests"] == [{"rid": 1}]
        assert msg["note"] == "x"

    def test_unknown_type_rejected_on_send(self):
        a, _ = mp.Pipe()
        with pytest.raises(VMError, match="unknown serving message type"):
            send_msg(a, "teleport")

    def test_version_mismatch_rejected_on_receive(self):
        a, b = mp.Pipe()
        a.send_bytes(json.dumps({"v": 99, "type": "ready"}).encode())
        with pytest.raises(VMError, match="version mismatch"):
            recv_msg(b)

    def test_garbage_bytes_rejected(self):
        a, b = mp.Pipe()
        a.send_bytes(b"\xff\xfenot json")
        with pytest.raises(VMError, match="malformed"):
            recv_msg(b)

    def test_request_round_trip(self):
        request = Request(
            arrival_s=1.25, prompt_tokens=64, output_tokens=8,
            rid=7, priority=3, slo_s=2.5,
        )
        assert request_from_wire(request_to_wire(request)) == request

    def test_best_effort_slo_survives_json(self):
        """``inf`` has no strict-JSON encoding: it travels as null."""
        request = Request(0.0, 16, 4, rid=1)
        wire = request_to_wire(request)
        assert wire["slo_s"] is None
        json.dumps(wire)  # strictly serializable
        back = request_from_wire(json.loads(json.dumps(wire)))
        assert back.slo_s == math.inf
        assert back == request

    def test_malformed_request_rejected(self):
        with pytest.raises(VMError, match="malformed wire request"):
            request_from_wire({"rid": 1})


# ---------------------------------------------------------------------------
# Worker spec: the deterministic rebuild recipe
# ---------------------------------------------------------------------------


class TestWorkerSpec:
    def test_json_round_trip(self):
        spec = WorkerSpec(
            model="Gemma-2-9B", system="ladder", weight_dtype="u4",
            linear_k=128, linear_n=32, weight_seed=9, max_batch=6,
            jit=True,
        )
        assert WorkerSpec.from_json(spec.to_json()) == spec
        assert WorkerSpec.from_json(WorkerSpec().to_json()) == WorkerSpec()
        # The recipe is JSON v5; a v4 document (which could carry the
        # removed profile flag) fails on its version stamp.
        body = json.loads(spec.to_json())
        assert body["version"] == 5 and "profile" not in body
        v4 = dict(body, version=4, profile=True)
        with pytest.raises(VMError, match="version mismatch: got 4, expected 5"):
            WorkerSpec.from_json(json.dumps(v4))

    def test_wrong_kind_and_version_rejected(self):
        with pytest.raises(VMError, match="not a worker-spec"):
            WorkerSpec.from_json(json.dumps({"kind": "other", "version": 1}))
        body = json.loads(WorkerSpec().to_json())
        body["version"] = 99
        with pytest.raises(VMError, match="version mismatch"):
            WorkerSpec.from_json(json.dumps(body))
        with pytest.raises(VMError, match="malformed worker spec"):
            WorkerSpec.from_json(json.dumps({"kind": "worker-spec", "version": 5,
                                             "no_such_field": 1}))

    def test_v1_spec_json_is_rejected_by_version(self):
        """A recipe written before the ``adaptive`` field went (spec
        version 1) fails on its version stamp, not on the stray field:
        router and worker from different builds disagree loudly."""
        body = json.loads(WorkerSpec().to_json())
        assert body["version"] == 5 and "adaptive" not in body
        v1 = dict(body, version=1, adaptive=False)
        with pytest.raises(VMError, match="version mismatch: got 1, expected 5"):
            WorkerSpec.from_json(json.dumps(v1))

    #: One field the wire could carry wrong, per case: wrong types (a
    #: ``bool`` is not a count, nor a string a flag) and out-of-range
    #: counts.  ``max_batch=0`` used to hang ``run`` forever.
    BAD_FIELDS = [
        ("max_batch", 0),
        ("max_batch", True),
        ("max_batch", "8"),
        ("max_batch", 8.0),
        ("num_streams", -3),
        ("num_streams", None),
        ("jit", "no"),
        ("jit", 1),
        ("use_graphs", 0),
        ("trace", "true"),
        ("trace", None),
        ("model", 7),
        ("system", None),
        ("weight_dtype", 4),
        ("gpu", ["L40S"]),
        ("linear_dtype", 6),
        ("group_size", 0),
        ("linear_k", 0),
        ("linear_n", -16),
        ("linear_group", 0),
        ("weight_seed", -1),
        ("weight_seed", False),
    ]

    @pytest.mark.parametrize("field,value", BAD_FIELDS)
    def test_bad_field_is_refused_when_made(self, field, value):
        """A spec that cannot serve raises ``VMError`` naming the field
        at construction, and ``from_json`` — the wire's way in — refuses
        the same document the same way."""
        with pytest.raises(VMError, match=f"field {field!r}"):
            WorkerSpec(**{field: value})
        body = dict(json.loads(WorkerSpec().to_json()), **{field: value})
        with pytest.raises(VMError, match=f"field {field!r}"):
            WorkerSpec.from_json(json.dumps(body))

    def test_zero_batch_never_reaches_the_simulator(self):
        """``max_batch=0`` could admit no request, so the batching loop
        refuses it too, whoever builds it."""
        with pytest.raises(ValueError, match="max_batch"):
            ContinuousBatchingSimulator(
                WorkerSpec().model_config(), WorkerSpec().serving_config(),
                max_batch=0,
            )

    def test_unknown_model_rejected(self):
        with pytest.raises(VMError, match="unknown model"):
            WorkerSpec(model="GPT-17").model_config()

    def test_rebuild_is_bit_deterministic(self):
        """Two independent builds from one recipe decode identical bits —
        the property the whole JSON-only transport rests on."""
        trace = poisson_trace(2, rate_rps=100.0, prompt_tokens=32, output_tokens=2)
        digests = []
        for _ in range(2):
            outcome = TINY.build_simulator().run(trace)
            digests.append({r.request.rid: r.output_digest for r in outcome.results})
        assert digests[0] == digests[1]
        assert all(d is not None for d in digests[0].values())


# ---------------------------------------------------------------------------
# Router policy (no processes: admission + scheduling are pure)
# ---------------------------------------------------------------------------


def _policy_router(num_workers=2, **kwargs) -> Router:
    """A router over an *unstarted* pool: admission and scheduling never
    touch worker processes."""
    return Router(WorkerPool(TINY, num_workers), **kwargs)


class TestRouterPolicy:
    def test_schedule_priority_then_deadline_then_arrival(self):
        low_late = Request(0.0, 8, 1, rid=0, priority=0, slo_s=9.0)
        low_soon = Request(0.2, 8, 1, rid=1, priority=0, slo_s=1.0)
        high = Request(0.5, 8, 1, rid=2, priority=5, slo_s=8.0)
        best_effort = Request(0.0, 8, 1, rid=3, priority=0)
        order = Router.schedule([low_late, low_soon, high, best_effort])
        assert [r.rid for r in order] == [2, 1, 0, 3]

    def test_schedule_is_total_and_deterministic(self):
        twins = [Request(0.0, 8, 1, rid=i) for i in (5, 3, 4)]
        assert [r.rid for r in Router.schedule(twins)] == [3, 4, 5]

    def test_estimate_grows_with_output_tokens(self):
        router = _policy_router()
        short = Request(0.0, 64, 4, rid=0)
        long = Request(0.0, 64, 64, rid=1)
        assert router.estimate_service_s(long) > router.estimate_service_s(short)

    def test_admission_open_by_default(self):
        router = _policy_router()
        trace = poisson_trace(20, rate_rps=1000.0)
        admitted, rejected = router.admit(trace)
        assert len(admitted) == 20 and not rejected

    def test_admission_sheds_overload(self):
        """With zero queueing tolerance, a burst beyond the pool's slot
        capacity is rejected at the door — and exactly the overflow."""
        router = _policy_router(num_workers=1, admission_wait_s=0.0)
        capacity = TINY.max_batch  # one worker
        burst = [Request(0.0, 512, 64, rid=i) for i in range(capacity + 5)]
        admitted, rejected = router.admit(burst)
        assert len(admitted) == capacity
        assert len(rejected) == 5

    def test_admission_queue_bound(self):
        router = _policy_router(num_workers=1, max_queue=2)
        burst = [Request(0.0, 512, 64, rid=i) for i in range(TINY.max_batch + 10)]
        admitted, rejected = router.admit(burst)
        assert len(admitted) == TINY.max_batch + 2
        assert len(rejected) == 8

    def test_admission_recovers_after_idle(self):
        """Slots free up in virtual time: a second burst after a long
        gap is admitted even when the first filled every slot."""
        router = _policy_router(num_workers=1, admission_wait_s=0.0)
        first = [Request(0.0, 64, 4, rid=i) for i in range(TINY.max_batch)]
        second = [Request(1e6, 64, 4, rid=100 + i) for i in range(TINY.max_batch)]
        admitted, rejected = router.admit(first + second)
        assert len(admitted) == 2 * TINY.max_batch and not rejected

    def test_requeue_inserts_by_policy_order(self):
        """A recovered chunk rejoins the queue where the schedule would
        have placed it: strict priority, then deadline, then arrival —
        never at the front unconditionally."""
        router = _policy_router()
        high = [Request(0.0, 8, 1, rid=0, priority=5)]
        mid = [Request(0.1, 8, 1, rid=1, priority=1)]
        low = [Request(0.2, 8, 1, rid=2, priority=0)]
        queue = [mid, low]
        router._requeue(queue, high)
        assert queue == [high, mid, low]
        late_mid = [Request(0.5, 8, 1, rid=3, priority=1)]
        router._requeue(queue, late_mid)
        assert queue == [high, mid, late_mid, low]
        tail = [Request(9.0, 8, 1, rid=4, priority=0)]
        router._requeue(queue, tail)
        assert queue[-1] == tail

    def test_requeue_is_fifo_among_equal_keys(self):
        """A chunk never jumps ahead of an equal-key chunk already
        queued: insertion is before the first *strictly greater* key."""
        router = _policy_router()
        a = [Request(0.0, 8, 1, rid=1)]
        b = [Request(0.0, 8, 1, rid=2)]
        queue = [a]
        router._requeue(queue, b)
        assert queue == [a, b]  # rid is the tiebreak: b sorts after a
        twin = [Request(0.0, 8, 1, rid=1)]  # same key as a
        router._requeue(queue, twin)
        assert queue == [a, twin, b]

    def test_unknown_done_counters_are_carried_not_required(self):
        """A ``done`` frame from another build may carry counters this
        router never heard of (one retired since, or one not yet
        added): they pass the wire, land in the raw per-worker sums and
        leave the frozen metrics contract alone."""
        from repro.serving.router import RouterResult

        near, far = mp.Pipe()
        try:
            send_msg(
                far, "done",
                results=[{"rid": 0, "ttft_s": 0.01, "latency_s": 0.1, "digest": None}],
                counters={"total_tokens": 9, "retired_counter": 3},
            )
            outcome = RouterResult()
            _policy_router()._record(
                recv_msg(near), [Request(0.0, 8, 1, rid=0)], 0, outcome
            )
        finally:
            near.close()
            far.close()
        assert outcome.total_tokens == 9
        assert outcome.per_worker()[0]["retired_counter"] == 3
        assert "router.retired_counter" not in outcome.metrics()

    def test_router_rejects_bad_config(self):
        with pytest.raises(ValueError):
            _policy_router(chunk_size=0)
        with pytest.raises(ValueError):
            WorkerPool(TINY, 0)


# ---------------------------------------------------------------------------
# Worker pool end-to-end (real spawned processes)
# ---------------------------------------------------------------------------


class TestPoolServing:
    def test_pool_serves_bit_exactly_vs_oracle(self):
        """Two workers serve a Poisson trace; every digest matches a
        single-process simulator's and the per-request reference's, a
        served decode step is one launch, and the simulated timings
        gate."""
        trace = poisson_trace(
            8, rate_rps=1000.0, prompt_tokens=32, output_tokens=3, slo_s=30.0
        )
        with WorkerPool(TINY, 2) as pool:
            result = Router(pool, chunk_size=3).serve(trace, timeout_s=180.0)
        assert result.num_completed == len(trace)
        assert not result.rejected
        assert result.respawns == 0
        oracle = TINY.build_simulator().run(trace)
        oracle_digests = {r.request.rid: r.output_digest for r in oracle.results}
        assert result.digests() == oracle_digests
        reference = replace(TINY, num_streams=0).build_simulator().run(trace)
        assert {r.request.rid: r.output_digest for r in reference.results} == oracle_digests
        # The reference launches once per request per step; a served step
        # is one launch, in the single process and summed over the
        # router's chunks alike.
        assert reference.kernel_launches == sum(r.output_tokens for r in trace)
        assert oracle.kernel_launches == served_steps(TINY, trace)
        scheduled = Router.schedule(trace)
        chunks = [scheduled[i : i + 3] for i in range(0, len(scheduled), 3)]
        assert result.kernel_launches == sum(served_steps(TINY, c) for c in chunks)
        # Simulated metrics are populated and ordered sensibly.
        assert 0.0 < result.latency_percentile(50) <= result.latency_percentile(99)
        assert 0.0 < result.simulated_makespan_s
        assert result.slo_attainment == 1.0
        assert set(result.worker_time_s) <= {0, 1}

    def test_worker_crash_loses_nothing(self):
        """A worker killed mid-chunk: the router re-dispatches the chunk,
        respawns the worker, and completes every request bit-exactly."""
        trace = poisson_trace(
            10, rate_rps=1000.0, prompt_tokens=32, output_tokens=3
        )
        killed = []

        def chaos(worker, dispatch_count):
            if dispatch_count == 2 and not killed:
                killed.append(worker)
                return "kill"

        with WorkerPool(TINY, 2) as pool:
            result = Router(pool, chunk_size=3).serve(
                trace, timeout_s=180.0, on_dispatch=chaos
            )
        assert killed, "fault injection never fired"
        assert result.respawns == 1
        assert result.redispatched == 3
        assert result.num_completed == len(trace)
        rids = sorted(r.request.rid for r in result.completed)
        assert rids == [r.rid for r in trace], "requests lost or duplicated"
        oracle = TINY.build_simulator().run(trace)
        assert result.digests() == {
            r.request.rid: r.output_digest for r in oracle.results
        }

    def test_dual_crash_recovery_preserves_priority_order(self):
        """Both workers die holding chunks of *different* priorities;
        the recovered chunks must rejoin the queue in policy order.
        The old recovery path pushed each recovered chunk to the queue
        front unconditionally — two crashes in one sweep replayed them
        in detection order, so the low-priority chunk cut ahead of the
        high-priority one (and of any higher-priority work still
        queued): a priority inversion on exactly the path meant to make
        crashes invisible."""
        high = Request(0.0, 32, 2, rid=0, priority=1)
        low = [Request(0.0, 32, 2, rid=i, priority=0) for i in (1, 2, 3)]
        trace = [high] + low

        def chaos(worker, dispatch_count):
            # Kill both workers on their first chunk: worker 0 dies
            # holding the high-priority chunk, worker 1 the low.
            if dispatch_count <= 2:
                return "kill"

        with WorkerPool(TINY, 2) as pool:
            result = Router(pool, chunk_size=1).serve(
                trace, timeout_s=180.0, on_dispatch=chaos
            )
        assert result.respawns == 2
        assert result.redispatched == 2
        assert result.num_completed == len(trace)
        served = {r.request.rid: r for r in result.completed}
        # The high-priority chunk went back to the *head* of the queue,
        # so the first respawned worker (index 0) re-serves it; with
        # front-insertion the second-detected crash (worker 1's
        # low-priority chunk) would have claimed that slot instead.
        assert served[0].worker == 0
        oracle = TINY.build_simulator().run(trace)
        assert result.digests() == {
            r.request.rid: r.output_digest for r in oracle.results
        }

    def test_crash_message_hard_exits_worker(self):
        """The in-band fault injection: ``crash`` makes the process die
        with no reply (``os._exit``), and respawn brings it back."""
        pool = WorkerPool(TINY, 1)
        try:
            pool.start()
            handle = pool.handles[0]
            process = handle.process
            pool.inject_crash(0)
            process.join(timeout=30.0)
            assert process.exitcode == CRASH_EXIT_CODE
            handle.respawn()
            assert handle.alive
            assert handle.respawns == 1
            trace = poisson_trace(2, rate_rps=100.0, prompt_tokens=32,
                                  output_tokens=2)
            result = Router(pool, chunk_size=2).serve(trace, timeout_s=180.0)
            assert result.num_completed == 2
        finally:
            pool.shutdown()


class TestDispatchLoop:
    def test_answered_worker_is_not_held_behind_a_busy_one(self):
        """The dispatch loop waits on every busy pipe at once.  Scripted
        workers on threads: worker 0 holds its first chunk until worker 1
        has *received* a second one, which a loop polling worker 0 first
        for ``poll_s`` only hands out after that poll times out — here
        past ``timeout_s``."""
        import threading
        import types

        pool = WorkerPool(TINY, 2)
        pool._started = True
        second_chunk_on_1 = threading.Event()

        def worker(index, conn):
            received = 0
            while True:
                try:
                    msg = recv_msg(conn)
                except (EOFError, OSError):
                    return
                received += 1
                if index == 1 and received == 2:
                    second_chunk_on_1.set()
                if index == 0 and received == 1:
                    second_chunk_on_1.wait(30.0)
                send_msg(
                    conn, "done", counters={},
                    results=[
                        {"rid": r["rid"], "ttft_s": 0.0, "latency_s": 0.0, "digest": None}
                        for r in msg["requests"]
                    ],
                )

        threads = []
        for handle in pool.handles:
            handle.conn, child = mp.Pipe()
            handle.process = types.SimpleNamespace(is_alive=lambda: True)
            threads.append(
                threading.Thread(target=worker, args=(handle.index, child), daemon=True)
            )
            threads[-1].start()
        dispatched = []
        try:
            result = Router(pool, chunk_size=1).serve(
                [Request(0.0, 8, 1, rid=i) for i in range(3)],
                timeout_s=2.0,
                poll_s=5.0,
                on_dispatch=lambda index, count: dispatched.append(index),
            )
        finally:
            second_chunk_on_1.set()
            for handle in pool.handles:
                handle.conn.close()
            for thread in threads:
                thread.join(30.0)
        assert dispatched == [0, 1, 1]
        assert result.num_completed == 3 and result.respawns == 0


# ---------------------------------------------------------------------------
# Cross-process state: what a real spawned worker's results and metrics
# carry back over the JSON wire
# ---------------------------------------------------------------------------


class TestCrossProcessState:
    def test_worker_digests_and_cache_counters_cross_the_wire(self):
        spec = WorkerSpec(
            linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
            max_batch=3, num_streams=2,
        )
        chunk = poisson_trace(
            3, rate_rps=1000.0, prompt_tokens=32, output_tokens=3
        )
        with WorkerPool(spec, 1) as pool:
            result = Router(pool, chunk_size=3).serve(chunk, timeout_s=180.0)
            metrics = pool.pull_trace(0)["metrics"]
        assert result.num_completed == 3

        # The parent rebuilds the identical engine from the same recipe
        # and serves the same chunk.
        sim = spec.build_simulator()
        parent = sim.run(chunk)

        # 1. Bit-exactness across the process boundary: every worker
        #    digest equals the parent's.
        assert result.digests() == {
            r.request.rid: r.output_digest for r in parent.results
        }

        # 2. Cache counters crossed as plain JSON numbers.
        assert metrics["runtime.spec_cache.misses"] >= 1
        assert metrics["runtime.spec_cache.hits"] >= 1
