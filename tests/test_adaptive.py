"""The adaptive runtime: profile-guided capture and online
auto-reoptimization (:mod:`repro.runtime.adaptive`).

Covers the convergence/soak contract (bit-exact across the swap
boundary, exactly one swap per signature under steady costs, hysteresis
against flapping, window-shift re-swaps), the concurrency contract
(atomic swaps under an 8-stream replay storm with correct per-image
profile attribution), the capture-time scheduling properties (guided
placement never estimated worse than round-robin, deterministic across
profile serialize→load, stream-count capping, measured-cost engine
choice), the Profile JSON negative paths (truncated/mismatched profiles
fail loudly from both ``optimize`` and ``capture(profile=...)``), and
the serving integrations (``QuantizedLinear`` and the batching decode
loop reach optimized graphs with no explicit ``reoptimize()`` call).
"""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import float16
from repro.errors import VMError
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.runtime import AdaptiveGraph, AdaptivePolicy, Profile, Runtime, StreamPool
from repro.runtime.adaptive import (
    estimated_makespan,
    guided_placement,
    lpt_placement,
    round_robin_placement,
)
from repro.runtime.profiling import EAGER, spec_string
from repro.vm import GlobalMemory, Interpreter

ROWS, COLS = 16, 8
OUT_BYTES = ROWS * COLS * 2


def work_program(name: str, steps: int = 2):
    """``out = f(a)`` over a 2x2 grid; ``steps`` scales its cost.
    Idempotent (output is a pure function of the input), so repeated
    replays leave device memory fixed — the soak-loop invariant."""
    pb = ProgramBuilder(name, grid=[2, 2])
    a_ptr = pb.param("a", pointer(float16))
    out_ptr = pb.param("out", pointer(float16))
    bi, bj = pb.block_indices()
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
    tile = pb.load_global(g_a, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
    acc = pb.allocate_register("f32", layout=spatial(8, 4), init=0.0)
    contrib = pb.cast(pb.add(pb.mul(tile, 2.0), 1.0), "f32")
    with pb.for_range(steps):
        pb.add(acc, contrib, out=acc)
    result = pb.cast(acc, "f16")
    pb.store_global(result, g_out, offset=[bi * 8, bj * 4])
    return pb.finish()


def device(num_buffers: int, seed: int = 0):
    memory = GlobalMemory(1 << 22)
    host = Interpreter(memory)
    rng = np.random.default_rng(seed)
    pairs = [
        (
            host.upload(float16.quantize(rng.standard_normal((ROWS, COLS))), float16),
            host.alloc_output([ROWS, COLS], float16),
        )
        for _ in range(num_buffers)
    ]
    return memory, host, pairs


def capture_workload(pool, programs, pairs):
    """Capture one launch per (program, buffer pair) with scheduler
    placement and bind every output."""
    with pool.capture() as graph:
        for program, (a, out) in zip(programs, pairs):
            pool.submit(program, [a, out], engine="batched")
    for i, (_, out) in enumerate(pairs):
        graph.bind(f"out{i}", out, OUT_BYTES)
    return graph


def skewed_programs(prefix: str, n: int = 8, heavy_at=(0, 4), heavy_steps: int = 96):
    """``n`` programs where the heavy ones land on one round-robin
    stream of a 4-stream pool (their submission indices are congruent
    mod 4) — the placement skew the policy must discover and fix."""
    return [
        work_program(f"{prefix}_heavy{i}", steps=heavy_steps)
        if i in heavy_at
        else work_program(f"{prefix}_light{i}", steps=2)
        for i in range(n)
    ]


def downloads(host, pairs):
    return [host.download(out, [ROWS, COLS], float16).copy() for _, out in pairs]


# ---------------------------------------------------------------------------
# Convergence / soak
# ---------------------------------------------------------------------------


class TestConvergenceSoak:
    WARMUP = 3

    def test_decode_loop_converges_bit_exactly_with_one_swap(self):
        """3xN-step decode-style loop: the swap fires at the first
        window boundary (exactly once per signature under steady costs),
        spreads the heavies, and every step's outputs — before, at, and
        after the boundary — match the serial oracle bit for bit."""
        memory, host, pairs = device(8)
        programs = skewed_programs("soak")
        with StreamPool(memory, num_streams=4) as pool:
            graph = capture_workload(pool, programs, pairs)
            assert graph.nodes[0].stream_index == graph.nodes[4].stream_index
            graph.replay(serial=True)
            want = downloads(host, pairs)

            policy = AdaptivePolicy(warmup_replays=self.WARMUP, min_gain=0.5)
            managed = policy.manage(graph)
            pool.profiler = Profile()
            for step in range(1, 3 * self.WARMUP + 1):
                managed.replay()
                pool.synchronize()
                expected_swaps = 1 if step >= self.WARMUP else 0
                assert policy.swaps == expected_swaps, (
                    f"step {step}: {policy.swaps} swaps, expected {expected_swaps}"
                )
                got = downloads(host, pairs)
                for w, g in zip(want, got):
                    assert np.array_equal(g, w), (
                        f"step {step} diverges from the serial oracle "
                        f"(swaps so far: {policy.swaps})"
                    )
            # Steady costs: the boundary evaluations ran but never
            # re-swapped, and the live image spread the heavies.
            assert policy.evaluations == 3
            assert managed.swaps == 1
            live = managed.live
            assert live.nodes[0].stream_index != live.nodes[4].stream_index
            assert live.num_nodes == 8  # all outputs bound: nothing eliminated

    def test_hysteresis_prevents_flapping_within_min_gain(self):
        """A balanced workload: after the first swap every candidate
        placement scores within ``min_gain`` of the live one, so the
        policy keeps evaluating but never swaps again."""
        memory, host, pairs = device(8)
        programs = [work_program(f"flat{i}", steps=4) for i in range(8)]
        with StreamPool(memory, num_streams=4) as pool:
            graph = capture_workload(pool, programs, pairs)
            policy = AdaptivePolicy(warmup_replays=self.WARMUP, min_gain=0.5)
            managed = policy.manage(graph)
            pool.profiler = Profile()
            for _ in range(3 * self.WARMUP):
                managed.replay()
            pool.synchronize()
            assert policy.evaluations == 3
            assert policy.swaps == 1  # the unconditional first swap only

    def test_window_cost_shift_reruns_the_swap(self):
        """After convergence, a profile window whose costs shift beyond
        the hysteresis threshold re-runs the swap."""
        memory, host, pairs = device(8)
        programs = skewed_programs("shift")
        with StreamPool(memory, num_streams=4) as pool:
            graph = capture_workload(pool, programs, pairs)
            graph.replay(serial=True)
            want = downloads(host, pairs)
            policy = AdaptivePolicy(warmup_replays=2, min_gain=0.3)
            managed = policy.manage(graph)
            profiler = pool.profiler = Profile()
            for _ in range(4):  # swap at replay 2, steady evaluation at 4
                managed.replay()
            pool.synchronize()
            assert policy.swaps == 1
            # Shift the measured costs: pick two light nodes the live
            # placement put on one stream and make them look enormous —
            # the next window's LPT must split them, a gain far beyond
            # min_gain.
            live = managed.live
            assert live.signature == graph.signature  # pure re-placement
            by_stream: dict = {}
            for node in live.nodes:
                by_stream.setdefault(node.stream_index, []).append(node.index)
            shared = next(ids for ids in by_stream.values() if len(ids) >= 2)
            recorded = profiler.graph_nodes(live.signature)
            for ident in shared[:2]:
                rec = recorded[ident]
                profiler.record(
                    live.signature, ident, rec.program, rec.spec,
                    rec.engine, rec.stream, 10.0,
                )
            for _ in range(2):  # one more window under the shifted costs
                managed.replay()
            pool.synchronize()
            assert policy.swaps == 2, "shifted window did not re-run the swap"
            new_live = managed.live
            assert (
                new_live.nodes[shared[0]].stream_index
                != new_live.nodes[shared[1]].stream_index
            )
            got = downloads(host, pairs)
            for w, g in zip(want, got):
                assert np.array_equal(g, w)

    def test_unprofiled_replays_never_trigger_evaluation(self):
        memory, host, pairs = device(2)
        programs = [work_program(f"cold{i}") for i in range(2)]
        with StreamPool(memory, num_streams=2) as pool:
            graph = capture_workload(pool, programs, pairs)
            policy = AdaptivePolicy(warmup_replays=1)
            managed = policy.manage(graph)
            for _ in range(3):  # pool.profiler is None: nothing measured
                managed.replay()
            pool.synchronize()
            assert policy.evaluations == 0 and policy.swaps == 0

    def test_counter_skipping_a_boundary_still_evaluates(self):
        """Regression: evaluation used to fire only when the profiled
        replay count was an exact multiple of ``warmup_replays`` — a
        counter that jumped past the boundary (racing replays whose
        increments land together before either checks) would never hit
        the multiple again, and the graph would never reoptimize.  The
        last-evaluated anchor makes every window reachable no matter
        how the count got there."""
        memory, host, pairs = device(2)
        programs = [work_program(f"skip{i}") for i in range(2)]
        with StreamPool(memory, num_streams=2) as pool:
            graph = capture_workload(pool, programs, pairs)
            policy = AdaptivePolicy(warmup_replays=4, min_gain=0.5)
            managed = policy.manage(graph)
            pool.profiler = Profile()
            for _ in range(3):
                managed.replay()
            pool.synchronize()
            assert policy.evaluations == 0
            # Simulate the race: the count skips straight past the
            # boundary multiple (3 -> 5, never 4).
            with managed._lock:
                managed._profiled_replays += 2
            managed.replay()  # count 6: 6 - 0 >= 4 -> evaluates
            pool.synchronize()
            assert policy.evaluations == 1, (
                "a skipped window boundary silenced the policy forever"
            )
            # The next window anchors at the evaluation point (6), not
            # at multiples of the warmup: 4 more replays re-evaluate.
            for _ in range(3):
                managed.replay()
            pool.synchronize()
            assert policy.evaluations == 1
            managed.replay()
            pool.synchronize()
            assert policy.evaluations == 2

    def test_racing_replays_never_silence_evaluation(self):
        """Many threads replaying one managed graph concurrently: the
        window anchor must advance exactly once per ``warmup_replays``
        profiled replays (counting is serialized under the graph lock),
        and outputs stay bit-exact under the storm."""
        memory, host, pairs = device(4)
        programs = [work_program(f"race{i}", steps=4) for i in range(4)]
        threads_n, per_thread, warmup = 4, 6, 3
        with StreamPool(memory, num_streams=4) as pool:
            graph = capture_workload(pool, programs, pairs)
            graph.replay(serial=True)
            want = downloads(host, pairs)
            policy = AdaptivePolicy(warmup_replays=warmup, min_gain=0.5)
            managed = policy.manage(graph)
            pool.profiler = Profile()
            errors: list[BaseException] = []

            def storm():
                try:
                    for _ in range(per_thread):
                        managed.replay()
                except BaseException as exc:  # noqa: BLE001 — surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=storm) for _ in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            pool.synchronize()
            assert not errors, errors
            total = threads_n * per_thread
            assert managed._profiled_replays == total
            # Every boundary was reached: the anchor sits at the last
            # full window regardless of interleaving.
            assert managed._last_evaluated == (total // warmup) * warmup
            assert policy.evaluations >= 1 and policy.swaps >= 1
            for w, g in zip(want, downloads(host, pairs)):
                assert np.array_equal(g, w)

    def test_policy_validates_knobs(self):
        with pytest.raises(ValueError, match="warmup_replays"):
            AdaptivePolicy(warmup_replays=0)
        with pytest.raises(ValueError, match="min_gain"):
            AdaptivePolicy(min_gain=-0.1)

    def test_pool_attached_policy_manages_captures(self):
        """The StreamPool-level attachment point: with ``pool.adaptive``
        set, ``pool.capture()`` hands back a managed graph directly."""
        memory, host, pairs = device(2)
        programs = [work_program(f"poolattach{i}") for i in range(2)]
        with StreamPool(memory, num_streams=2) as pool:
            pool.adaptive = AdaptivePolicy(warmup_replays=1, min_gain=0.5)
            with pool.capture() as graph:
                for program, (a, out) in zip(programs, pairs):
                    pool.submit(program, [a, out], engine="batched")
            assert isinstance(graph, AdaptiveGraph)
            for i, (_, out) in enumerate(pairs):
                graph.bind(f"out{i}", out, OUT_BYTES)
            graph.replay(serial=True)
            want = downloads(host, pairs)
            pool.profiler = Profile()
            graph.replay()  # warmup 1: swaps right after this replay
            pool.synchronize()
            assert pool.adaptive.swaps == 1 and graph.swaps == 1
            graph.replay()
            pool.synchronize()
            for w, g in zip(want, downloads(host, pairs)):
                assert np.array_equal(g, w)

    def test_manage_is_idempotent_and_rehomes_foreign_facades(self):
        memory, _, pairs = device(1)
        with StreamPool(memory, num_streams=2) as pool:
            graph = capture_workload(pool, [work_program("idem")], pairs)
            policy = AdaptivePolicy()
            managed = policy.manage(graph)
            assert isinstance(managed, AdaptiveGraph)
            assert policy.manage(managed) is managed
            # A facade bound to another policy is re-homed, not silently
            # kept: the caller's knobs and counters must apply.
            other = AdaptivePolicy(warmup_replays=2)
            rehomed = other.manage(managed)
            assert rehomed is not managed
            assert rehomed.policy is other
            assert rehomed.live is managed.live


    def test_manage_marks_its_own_facade_warm(self):
        """``capture()`` on a pool with the policy attached already
        returns the facade, so ``manage(facade, warm=True)`` is how a
        warm capture is declared: the flag must stick (it used to be
        dropped with the facade returned unchanged) and turn off the
        free first-window swap."""
        memory, _, pairs = device(2)
        programs = [work_program(f"warmfacade{i}") for i in range(2)]
        with StreamPool(memory, num_streams=2) as pool:
            # Relative gain never exceeds 1: past the free first swap,
            # this policy cannot swap.
            policy = pool.adaptive = AdaptivePolicy(warmup_replays=1, min_gain=2.0)
            with pool.capture() as graph:
                for program, (a, out) in zip(programs, pairs):
                    pool.submit(program, [a, out], engine="batched")
            assert policy.manage(graph, warm=True) is graph
            pool.profiler = Profile()
            for _ in range(3):
                graph.replay()
            pool.synchronize()
            assert policy.evaluations == 3
            assert policy.swaps == 0 and graph.swaps == 0


# ---------------------------------------------------------------------------
# Concurrency stress: atomic swaps under a replay storm
# ---------------------------------------------------------------------------


class TestConcurrentSwap:
    THREADS_PER_GRAPH = 4
    REPLAYS_PER_THREAD = 6

    def test_shared_signature_graphs_swap_atomically_under_storm(self):
        """8 streams, two shared-signature graphs, 8 host threads
        replaying while the policy swaps both: no torn reads (every
        replay runs one consistent image and matches the oracle), each
        graph swaps exactly once, and every replay's profile records
        attribute to the signature of the image that actually ran."""
        memory, host, pairs = device(16)
        g1_pairs, g2_pairs = pairs[:8], pairs[8:]
        # 6 live nodes + 2 heavy dead scratch writers per graph: the
        # swap eliminates the dead nodes, so the post-swap image has a
        # *different* signature — attribution is checkable.
        def build(pool, bufs, tag):
            live_progs = [work_program(f"storm_live{i}", steps=4) for i in range(6)]
            dead_prog = work_program("storm_dead", steps=96)
            with pool.capture() as graph:
                for program, (a, out) in zip(live_progs, bufs[:6]):
                    pool.submit(program, [a, out], engine="batched")
                for a, out in bufs[6:]:
                    pool.submit(dead_prog, [a, out], engine="batched")
            for i, (_, out) in enumerate(bufs[:6]):
                graph.bind(f"out{i}", out, OUT_BYTES)
            return graph

        with StreamPool(memory, num_streams=8) as pool:
            graph1 = build(pool, g1_pairs, "g1")
            graph2 = build(pool, g2_pairs, "g2")
            assert graph1.signature == graph2.signature  # address-agnostic
            old_signature = graph1.signature
            graph1.replay(serial=True)
            graph2.replay(serial=True)
            want1 = downloads(host, g1_pairs[:6])
            want2 = downloads(host, g2_pairs[:6])

            policy = AdaptivePolicy(warmup_replays=4, min_gain=0.3)
            managed = [policy.manage(graph1), policy.manage(graph2)]
            profiler = pool.profiler = Profile()

            errors: list[BaseException] = []

            def storm(agraph):
                try:
                    for _ in range(self.REPLAYS_PER_THREAD):
                        agraph.replay()
                except BaseException as exc:  # noqa: BLE001 — surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=storm, args=(agraph,))
                for agraph in managed
                for _ in range(self.THREADS_PER_GRAPH)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            pool.synchronize()
            assert not errors, errors

            # Both graphs swapped exactly once; the storm's steady costs
            # never re-swapped them.
            assert [ag.swaps for ag in managed] == [1, 1]
            assert policy.swaps == 2
            for agraph in managed:
                assert agraph.live.num_nodes == 6  # dead writers eliminated
                assert agraph.signature != old_signature

            # Bit-exact: every live output matches the serial oracle.
            for want, bufs in ((want1, g1_pairs), (want2, g2_pairs)):
                got = downloads(host, bufs[:6])
                for w, g in zip(want, got):
                    assert np.array_equal(g, w)

            # Attribution: each replay recorded node 0 exactly once,
            # under the signature of the image that executed — pre-swap
            # replays under the old signature, post-swap under the new.
            total = 2 * self.THREADS_PER_GRAPH * self.REPLAYS_PER_THREAD
            new_signature = managed[0].signature
            old_calls = sum(
                rec.calls
                for ident, rec in profiler.graph_nodes(old_signature).items()
                if ident == 0
            )
            new_calls = sum(
                rec.calls
                for ident, rec in profiler.graph_nodes(new_signature).items()
                if ident == 0
            )
            assert old_calls + new_calls == total
            assert old_calls >= 4 and new_calls >= 1
            # The old image had 8 sites, the optimized one only 6.
            assert sorted(profiler.graph_nodes(old_signature)) == list(range(8))
            assert sorted(profiler.graph_nodes(new_signature)) == list(range(6))

    RACING_REPLAYS = 6000

    def test_racing_rebinds_each_execute_their_own_arguments(self):
        """Two host threads replay ONE graph with different bindings, a
        fresh output buffer per replay: rebinding and execution share
        the pool lock, so no replay runs the other thread's arguments —
        every output is written, from its own thread's input."""
        memory = GlobalMemory(1 << 22)
        host = Interpreter(memory)
        rng = np.random.default_rng(3)
        program = work_program("racing")
        per_thread = self.RACING_REPLAYS // 2
        inputs = [
            host.upload(float16.quantize(rng.standard_normal((ROWS, COLS))), float16)
            for _ in range(2)
        ]
        outputs = [
            [host.alloc_output([ROWS, COLS], float16) for _ in range(per_thread)]
            for _ in range(2)
        ]
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                pool.submit(program, [inputs[0], outputs[0][0]])
            graph.bind("a", inputs[0], OUT_BYTES)
            graph.bind("out", outputs[0][0], OUT_BYTES)
            errors: list[BaseException] = []

            def racer(which):
                try:
                    for out in outputs[which]:
                        graph.replay({"a": inputs[which], "out": out})
                except BaseException as exc:  # noqa: BLE001 — surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=racer, args=(i,)) for i in range(2)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=300.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors
            assert graph.replays == self.RACING_REPLAYS
        for which in range(2):
            graph.replay({"a": inputs[which], "out": outputs[which][0]}, serial=True)
            want = host.download(outputs[which][0], [ROWS, COLS], float16)
            assert want.any()
            wrong = [
                out for out in outputs[which]
                if not np.array_equal(host.download(out, [ROWS, COLS], float16), want)
            ]
            assert not wrong, f"{len(wrong)} outputs of thread {which} never written"


# ---------------------------------------------------------------------------
# Capture-time scheduling properties
# ---------------------------------------------------------------------------


@st.composite
def hazard_dags(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    costs = {
        i: draw(
            st.floats(
                min_value=1e-3, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            )
        )
        for i in range(n)
    }
    deps = {
        i: tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(min_value=0, max_value=i - 1), max_size=3
                    )
                )
            )
        )
        if i
        else ()
        for i in range(n)
    }
    num_streams = draw(st.integers(min_value=1, max_value=8))
    return num_streams, costs, deps


class TestPlacementProperties:
    @settings(max_examples=120, deadline=None)
    @given(hazard_dags())
    def test_guided_placement_never_estimated_worse_than_round_robin(self, dag):
        num_streams, costs, deps = dag
        placement = guided_placement(num_streams, costs, deps)
        rr = round_robin_placement(costs, num_streams)
        assert set(placement) == set(costs)
        assert all(0 <= s < num_streams for s in placement.values())
        assert estimated_makespan(placement, costs, deps) <= (
            estimated_makespan(rr, costs, deps) + 1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(hazard_dags())
    def test_placement_deterministic_across_profile_round_trip(self, dag):
        num_streams, costs, deps = dag
        profile = Profile()
        for i, cost in costs.items():
            profile.record("graph:prop", i, f"p{i}", f"s{i}", "batched", 0, cost)
        loaded = Profile.from_json(profile.to_json())
        direct = {
            i: rec.mean_wall_s
            for i, rec in profile.graph_nodes("graph:prop").items()
        }
        reloaded = {
            i: rec.mean_wall_s
            for i, rec in loaded.graph_nodes("graph:prop").items()
        }
        assert direct == reloaded  # JSON round-trips floats exactly
        assert guided_placement(num_streams, direct, deps) == guided_placement(
            num_streams, reloaded, deps
        )

    def test_lpt_respects_dependency_order(self):
        # A chain has no parallelism: every node must be schedulable and
        # the makespan equals the cost sum on any stream count.
        costs = {0: 3.0, 1: 1.0, 2: 2.0}
        deps = {0: (), 1: (0,), 2: (1,)}
        placement = lpt_placement(4, costs, deps)
        assert estimated_makespan(placement, costs, deps) == pytest.approx(6.0)


class TestProfileGuidedCapture:
    def _skewed_capture(self, num_streams=4):
        """2 heavy + 4 light independent launches on a ``num_streams``
        pool, captured heuristically, plus a handmade exact-cost profile
        (heavies 100x the lights)."""
        memory, host, pairs = device(6)
        programs = [work_program(f"cap_heavy{i}", steps=4) for i in range(2)] + [
            work_program(f"cap_light{i}", steps=2) for i in range(4)
        ]
        pool = StreamPool(memory, num_streams=num_streams)
        graph = capture_workload(pool, programs, pairs)
        profile = Profile()
        for node in graph.nodes:
            cost = 100.0 if node.index < 2 else 1.0
            profile.record(
                graph.signature, node.index, node.program.name,
                spec_string(node.key), node.engine, node.stream_index, cost,
            )
        return memory, host, pairs, programs, pool, graph, profile

    def test_stream_count_capped_to_measured_parallelism(self):
        """Two dominant kernels -> two streams: the guided capture's
        estimated makespan at 2 streams is within slack of the best over
        all counts, so the smaller count wins and the heavies still land
        on distinct streams."""
        memory, host, pairs, programs, pool, graph, profile = self._skewed_capture()
        with pool:
            graph.replay(serial=True)
            want = downloads(host, pairs)
            with pool.capture(profile=profile) as guided:
                for program, (a, out) in zip(programs, pairs):
                    pool.submit(program, [a, out], engine="batched")
            assert len(graph.stream_indices) == 4  # heuristic spread wide
            assert len(guided.stream_indices) == 2  # capped to parallelism
            assert guided.nodes[0].stream_index != guided.nodes[1].stream_index
            guided.replay()
            pool.synchronize()
            got = downloads(host, pairs)
            for w, g in zip(want, got):
                assert np.array_equal(g, w)

    def test_capture_placement_deterministic_across_profile_save_load(self):
        memory, host, pairs, programs, pool, graph, profile = self._skewed_capture()
        with pool:
            loaded = Profile.from_json(profile.to_json())
            placements = []
            for prior in (profile, loaded):
                with pool.capture(profile=prior) as guided:
                    for program, (a, out) in zip(programs, pairs):
                        pool.submit(program, [a, out], engine="batched")
                placements.append([n.stream_index for n in guided.nodes])
            assert placements[0] == placements[1]

    def test_empty_profile_falls_back_to_heuristic_placement(self):
        memory, host, pairs, programs, pool, graph, _ = self._skewed_capture()
        with pool:
            with pool.capture(profile=Profile()) as guided:
                for program, (a, out) in zip(programs, pairs):
                    pool.submit(program, [a, out], engine="batched")
            assert [n.stream_index for n in guided.nodes] == [
                n.stream_index for n in graph.nodes
            ]


# ---------------------------------------------------------------------------
# Profile JSON negative paths
# ---------------------------------------------------------------------------


class TestProfileJsonNegativePaths:
    def _real_profile(self):
        memory, _, pairs = device(2)
        programs = [work_program(f"neg{i}") for i in range(2)]
        with StreamPool(memory, num_streams=2) as pool:
            graph = capture_workload(pool, programs, pairs)
            pool.profiler = Profile()
            graph.replay()
            pool.synchronize()
            return pool.profiler

    def test_unknown_version_raises(self):
        bad = json.dumps({"version": 99, "nodes": []})
        with pytest.raises(VMError, match="version"):
            Profile.from_json(bad)

    def test_truncated_payload_raises(self):
        text = self._real_profile().to_json()
        with pytest.raises(VMError, match="truncated or malformed"):
            Profile.from_json(text[: len(text) // 2])

    def test_non_object_payload_raises(self):
        with pytest.raises(VMError, match="must be an object"):
            Profile.from_json("[1, 2, 3]")

    def test_missing_nodes_list_raises(self):
        with pytest.raises(VMError, match="nodes"):
            Profile.from_json(json.dumps({"version": 1}))

    def test_malformed_node_record_raises(self):
        bad = json.dumps({"version": 1, "nodes": [{"scope": "only"}]})
        with pytest.raises(VMError, match="malformed profile node record"):
            Profile.from_json(bad)

    def _mismatched(self):
        """A profile recorded from one graph and a wholly different
        workload it can never describe."""
        memory, _, pairs = device(2)
        with StreamPool(memory, num_streams=2) as pool:
            graph = capture_workload(
                pool, [work_program(f"src{i}") for i in range(2)], pairs
            )
            pool.profiler = Profile()
            graph.replay()
            pool.synchronize()
            profile = pool.profiler
        memory2, host2, pairs2 = device(2)
        other_pool = StreamPool(memory2, num_streams=2)
        other_programs = [work_program(f"other{i}", steps=8) for i in range(2)]
        return profile, other_pool, other_programs, pairs2

    def test_signature_mismatch_rejected_by_optimize(self):
        profile, pool, programs, pairs = self._mismatched()
        with pool:
            graph = capture_workload(pool, programs, pairs)
            with pytest.raises(VMError, match="wrong profile"):
                graph.optimize(profile)

    def test_signature_mismatch_rejected_by_capture(self):
        profile, pool, programs, pairs = self._mismatched()
        with pool:
            with pytest.raises(VMError, match="matches no node"):
                with pool.capture(profile=profile):
                    for program, (a, out) in zip(programs, pairs):
                        pool.submit(program, [a, out], engine="batched")

    def test_failed_guided_capture_aborts_the_graph(self):
        profile, pool, programs, pairs = self._mismatched()
        with pool:
            graph = None
            with pytest.raises(VMError, match="matches no node"):
                with pool.capture(profile=profile) as graph:
                    for program, (a, out) in zip(programs, pairs):
                        pool.submit(program, [a, out], engine="batched")
            # The failed graph reports itself aborted, not mid-capture...
            with pytest.raises(VMError, match="aborted"):
                graph.replay()
            # ...and the pool is not wedged: a fresh capture works.
            with pool.capture() as fresh:
                pool.submit(
                    programs[0], [pairs[0][0], pairs[0][1]], engine="batched"
                )
            fresh.replay()
            pool.synchronize()


# ---------------------------------------------------------------------------
# Serving integrations: no explicit reoptimize() anywhere
# ---------------------------------------------------------------------------


class TestOperatorAdaptive:
    def test_splitk_graph_swaps_automatically(self):
        from repro import ops
        from repro.dtypes import int6
        from repro.kernels import MatmulConfig

        rng = np.random.default_rng(5)
        linear = ops.prepare_linear(
            rng.standard_normal((64, 16)), int6, group_size=32,
            config=MatmulConfig(16, 8, 16, split_k=2), streams=2,
        )
        try:
            policy = linear.runtime.enable_adaptive(
                AdaptivePolicy(warmup_replays=2, min_gain=0.5)
            )
            a = rng.standard_normal((8, 64))
            want = linear(a)  # capture + first profiled replay
            (managed,) = linear._graphs.values()
            assert isinstance(managed, AdaptiveGraph)
            assert policy.swaps == 0
            assert np.array_equal(linear(a), want)  # replay 2 -> swap
            assert policy.swaps == 1 and managed.swaps == 1
            assert np.array_equal(linear(a), want)  # optimized image replay
            assert policy.swaps == 1
            # Explicit reoptimize stays valid on a managed graph: the
            # live image swaps in place, management is kept.
            assert linear.reoptimize() == 1
            assert linear._graphs and all(
                isinstance(g, AdaptiveGraph) for g in linear._graphs.values()
            )
            assert np.array_equal(linear(a), want)
        finally:
            linear.runtime.stream_pool().shutdown()

    def test_reoptimize_tolerates_graphs_the_profile_never_saw(self):
        # Two row counts captured before profiling, traffic recorded for
        # only one: reoptimize must optimize the matched graph from the
        # profile and uniform-re-balance the other — not abort mid-loop
        # and leave self._graphs half-swapped.
        from repro import ops
        from repro.dtypes import int6
        from repro.kernels import MatmulConfig

        rng = np.random.default_rng(10)
        linear = ops.prepare_linear(
            rng.standard_normal((64, 16)), int6, group_size=32,
            config=MatmulConfig(16, 8, 16, split_k=2), streams=2,
        )
        try:
            a4, a8 = rng.standard_normal((4, 64)), rng.standard_normal((8, 64))
            want4, want8 = linear(a4), linear(a8)  # both graphs captured
            linear.runtime.enable_profiling()
            linear(a4)  # profile records m=4 only
            assert linear.reoptimize() == 2
            assert np.array_equal(linear(a4), want4)
            assert np.array_equal(linear(a8), want8)
        finally:
            linear.runtime.stream_pool().shutdown()

    def test_graphs_captured_without_policy_stay_unmanaged(self):
        from repro import ops
        from repro.dtypes import int6
        from repro.kernels import MatmulConfig

        rng = np.random.default_rng(6)
        linear = ops.prepare_linear(
            rng.standard_normal((64, 16)), int6, group_size=32,
            config=MatmulConfig(16, 8, 16, split_k=2), streams=2,
        )
        try:
            linear(rng.standard_normal((8, 64)))
            (graph,) = linear._graphs.values()
            assert not isinstance(graph, AdaptiveGraph)
        finally:
            linear.runtime.stream_pool().shutdown()


class TestServingAdaptive:
    def _simulator(self, linear, policy):
        from repro.dtypes import uint4
        from repro.llm import GEMMA2_9B, ContinuousBatchingSimulator, ServingConfig
        from repro.perf import L40S

        linear.runtime.enable_adaptive(policy)
        return ContinuousBatchingSimulator(
            GEMMA2_9B,
            ServingConfig("tilus", uint4, L40S),
            max_batch=4,
            decode_linear=linear,
            num_streams=2,
        )

    def test_decode_reaches_optimized_graph_without_reoptimize(self):
        from repro import ops
        from repro.dtypes import int6
        from repro.llm import Request

        rng = np.random.default_rng(7)
        linear = ops.prepare_linear(
            rng.standard_normal((64, 16)), int6, group_size=32
        )
        policy = AdaptivePolicy(warmup_replays=2, min_gain=0.5)
        sim = self._simulator(linear, policy)
        caller_profile = linear.runtime.profiler
        try:
            result = sim.run([Request(0.0, 16, 8), Request(0.0, 16, 8)])
            # The batch-2 decode graph replayed 8 times: the policy
            # swapped it at the first window boundary, automatically —
            # the simulator never calls reoptimize()/optimize().
            assert result.auto_reoptimizations == 1
            assert policy.swaps == 1
            assert sim.graphs and all(
                isinstance(g, AdaptiveGraph) for g in sim.graphs.values()
            )
            assert result.graph_captures == 1
            assert result.graph_replays == 7
            # Caller profiling state is untouched (the profiler
            # enable_adaptive() installed is back, and empty); the
            # adaptive profile was the run's own.
            assert linear.runtime.profiler is caller_profile
            assert len(caller_profile) == 0
            assert result.profile is None  # profile=True not requested
            # A later run keeps serving through the managed graphs.
            again = sim.run([Request(0.0, 16, 4), Request(0.0, 16, 4)])
            assert again.total_tokens > 0
        finally:
            linear.runtime.stream_pool().shutdown()

    def test_adaptive_requires_graphs(self):
        from repro import ops
        from repro.dtypes import int6, uint4
        from repro.llm import GEMMA2_9B, ContinuousBatchingSimulator, ServingConfig
        from repro.perf import L40S

        linear = ops.prepare_linear(
            np.random.default_rng(9).standard_normal((64, 16)), int6, group_size=32
        )
        linear.runtime.enable_adaptive()
        with pytest.raises(ValueError, match="use_graphs"):
            ContinuousBatchingSimulator(
                GEMMA2_9B,
                ServingConfig("tilus", uint4, L40S),
                decode_linear=linear,
                use_graphs=False,
            )

    def test_new_batch_size_captures_profile_guided(self):
        from repro import ops
        from repro.dtypes import int6
        from repro.llm import Request

        rng = np.random.default_rng(8)
        linear = ops.prepare_linear(
            rng.standard_normal((64, 16)), int6, group_size=32
        )
        policy = AdaptivePolicy(warmup_replays=2, min_gain=0.5)
        sim = self._simulator(linear, policy)
        try:
            # Staggered finishes: batch 2 decodes first, then a batch-1
            # tail — the second capture happens after the first graph's
            # replays populated the profiler with the decode spec.
            result = sim.run([Request(0.0, 16, 8), Request(0.0, 16, 3)])
            assert result.graph_captures == 2
            assert len(sim.graphs) == 2
        finally:
            linear.runtime.stream_pool().shutdown()


class TestTunerConsultsPolicy:
    def test_tune_profiled_accepts_the_policy_directly(self):
        from repro.autotune.tuner import Autotuner
        from repro.compiler.pipeline import specialization_key
        from repro.perf.workload import MatmulWorkload

        workload = MatmulWorkload.of(16, 16, 64, "i6")
        tuner = Autotuner()
        trials = tuner._trial_configs(workload, top_k=2)
        profile = Profile()
        for rank, cfg in enumerate(trials):
            program, _ = tuner._trial_program(workload, cfg)
            spec = spec_string(
                specialization_key(program, [0] * len(program.params))
            )
            profile.record(EAGER, spec, program.name, spec, "batched", -1,
                           0.001 * (rank + 1))
        policy = AdaptivePolicy()
        policy.profile = profile  # what a managed serving loop observed
        poisoned = object()  # measurement would crash on this "runtime"
        result = tuner.tune_profiled(workload, policy, runtime=poisoned, top_k=2)
        assert result.config == trials[0]
        assert result.estimated_latency == pytest.approx(0.001)
