"""The profiling subsystem and graph optimization: per-node recording
across every execution mode, JSON round-trips and their negative paths,
dead-node elimination that never drops observable work (loop-carried
state included), and the serving integration."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import float16
from repro.errors import VMError
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.runtime import Profile, Runtime, StreamPool
from repro.runtime.profiling import EAGER, HOST_STREAM, NodeProfile
from repro.vm import GlobalMemory, Interpreter

ROWS, COLS = 16, 8
OUT_BYTES = ROWS * COLS * 2


def work_program(name: str, steps: int = 2, printing: bool = False):
    """``out = f(a)`` over a 2x2 grid; ``steps`` scales its cost."""
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
    if printing:
        pb.print_tensor(result, "profiled")
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


def graph_sites(profile: Profile, signature: str) -> dict:
    """The profile's records of one graph, by node index."""
    return {
        node.ident: node for node in profile.nodes.values() if node.scope == signature
    }


# ---------------------------------------------------------------------------
# Recording across execution modes
# ---------------------------------------------------------------------------


class TestRecording:
    def test_synchronous_launch_records(self):
        rt = Runtime()
        profile = rt.enable_profiling()
        prog = work_program("sync")
        a = rt.upload(np.zeros((ROWS, COLS), dtype=np.float16), float16)
        out = rt.empty([ROWS, COLS], float16)
        rt.launch(prog, [a, out])
        rt.launch(prog, [a, out])
        assert len(profile) == 1
        (node,) = profile.nodes.values()
        assert node.scope == EAGER
        assert node.stream == HOST_STREAM
        assert node.program == "sync"
        assert node.calls == 2
        assert node.wall_s > 0.0
        assert node.instructions > 0
        assert node.blocks == 8  # 2 launches x 4 blocks
        assert node.bytes_touched > 0

    def test_disable_profiling_stops_recording(self):
        rt = Runtime()
        profile = rt.enable_profiling()
        prog = work_program("toggle")
        a = rt.upload(np.zeros((ROWS, COLS), dtype=np.float16), float16)
        out = rt.empty([ROWS, COLS], float16)
        rt.launch(prog, [a, out])
        assert rt.disable_profiling() is profile
        rt.launch(prog, [a, out])
        (node,) = profile.nodes.values()
        assert node.calls == 1

    def test_streamed_launches_record_per_stream(self):
        memory, _, pairs = device(4)
        prog = work_program("streamed")
        with StreamPool(memory, num_streams=2) as pool:
            pool.profiler = Profile()
            for i, (a, out) in enumerate(pairs):
                pool.submit(prog, [a, out], stream=pool.streams[i % 2])
            chained = pool.submit(prog, [pairs[0][1], pairs[1][1]], stream=pool.streams[1])
            pool.synchronize()
            profile = pool.profiler
            assert (pool.launches, pool.executions) == (5, 2)
        # Eager groups form over the whole pending DAG, as graph groups
        # do: the four independent launches stack into one invocation
        # that records under its head's stream, whatever stream each
        # member was placed on; the dependent launch runs alone on its own.
        assert chained.deps
        per_stream = profile.per_stream()
        assert per_stream[0]["calls"] == 4 and per_stream[1]["calls"] == 1
        assert sum(node.calls for node in profile.nodes.values()) == 5

    def test_graph_replay_records_one_site_per_node(self):
        memory, _, pairs = device(3)
        prog = work_program("graphed")
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                for a, out in pairs:
                    pool.submit(prog, [a, out])
            pool.profiler = Profile()
            graph.replay()
            graph.replay()
            pool.synchronize()
            profile = pool.profiler
        recorded = graph_sites(profile, graph.signature)
        assert sorted(recorded) == [0, 1, 2]
        for node in recorded.values():
            assert node.calls == 2
            assert node.wall_s > 0.0
        # Graph sites are keyed by the node's stream label.
        assert all(
            recorded[i].stream == graph.nodes[i].stream_index for i in recorded
        )

    def test_serial_replay_records_exact_per_node_costs(self):
        memory, _, pairs = device(2)
        prog = work_program("serial")
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                for a, out in pairs:
                    pool.submit(prog, [a, out])
            pool.profiler = Profile()
            graph.replay(serial=True)
            profile = pool.profiler
        recorded = graph_sites(profile, graph.signature)
        assert sorted(recorded) == [0, 1]
        assert all(rec.group_size == 1 for rec in recorded.values())

    def test_group_attribution_preserves_exact_totals(self):
        # Splitting a coalesced invocation across 3 members must not
        # truncate counters: 100 instructions stay 100 in aggregate.
        from repro.runtime.profiling import split_counts

        shares = split_counts({"instructions": 100, "blocks_run": 7}, 3)
        assert sum(s["instructions"] for s in shares) == 100
        assert sum(s["blocks_run"] for s in shares) == 7
        profile = Profile()
        profile.record_group(
            EAGER, ["a", "b", "c"], "p", ["s1", "s2", "s3"], "batched", 0,
            0.3, stats_delta={"instructions": 100},
        )
        assert sum(n.instructions for n in profile.nodes.values()) == 100

    def test_coalesced_group_records_exact_stat_totals(self):
        # End to end: 4 identical launches coalesce into one stacked
        # execution; the profile's aggregate must equal the engine's own
        # ExecutionStats for the pass, not an int-truncated approximation.
        memory, _, pairs = device(4)
        prog = work_program("exact")
        with StreamPool(memory, num_streams=1) as pool:
            pool.profiler = Profile()
            for a, out in pairs:
                pool.submit(prog, [a, out], stream=pool.streams[0])
            pool.synchronize()
            stats = pool.aggregate_stats()
            recorded = sum(
                n.instructions for n in pool.profiler.nodes.values()
            )
            assert recorded == stats.instructions

    def test_signature_is_address_agnostic(self):
        prog = work_program("sig")
        signatures = []
        for seed in (0, 1):
            memory, _, pairs = device(2, seed=seed)
            with StreamPool(memory, num_streams=2) as pool:
                with pool.capture() as graph:
                    for a, out in pairs:
                        pool.submit(prog, [a, out])
                signatures.append(graph.signature)
        assert signatures[0] == signatures[1]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


class TestJsonRoundTrip:
    def _collect(self):
        memory, _, pairs = device(6)
        heavy = work_program("rt_heavy", steps=64)
        light = work_program("rt_light", steps=2)
        with StreamPool(memory, num_streams=4) as pool:
            with pool.capture() as graph:
                for i, (a, out) in enumerate(pairs):
                    pool.submit(heavy if i % 3 == 0 else light, [a, out])
            pool.profiler = Profile()
            graph.replay()
            pool.synchronize()
            return graph, pool.profiler

    def test_round_trip_preserves_records(self):
        graph, profile = self._collect()
        loaded = Profile.from_json(profile.to_json())
        assert len(loaded) == len(profile)
        for key, node in profile.nodes.items():
            other = loaded.nodes[key]
            assert other.to_dict() == node.to_dict()

    def test_save_and_load_stream(self):
        _, profile = self._collect()
        buf = io.StringIO()
        profile.save(buf)
        buf.seek(0)
        loaded = Profile.load(buf)
        assert len(loaded) == len(profile)

    def test_version_guard(self):
        bad = json.dumps({"version": 99, "nodes": []})
        with pytest.raises(VMError, match="version"):
            Profile.from_json(bad)

    @settings(max_examples=25, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from(["s0", "s1"]),        # scope
                st.integers(min_value=0, max_value=7),  # ident
                st.sampled_from(["spec-a", "spec-b", "spec-c"]),
                st.sampled_from(["sequential", "batched"]),
                st.integers(min_value=0, max_value=3),  # stream
                st.floats(min_value=1e-9, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=12,
        )
    )
    def test_profile_roundtrip_bit_identical(self, records):
        """What a worker ships on ``pull_state`` is read back bit for
        bit: records, and every aggregate over them."""
        profile = Profile()
        for scope, ident, spec, engine, stream, wall in records:
            profile.record(scope, ident, "prog", spec, engine, stream, wall)
        loaded = Profile.from_json(profile.to_json())
        assert loaded.to_json() == profile.to_json()
        assert loaded.per_stream() == profile.per_stream()
        assert loaded.per_graph() == profile.per_graph()

    def test_merge_sums_shared_sites(self):
        _, first = self._collect()
        clone = Profile.from_json(first.to_json())
        merged = Profile().merge(first).merge(clone)
        assert len(merged) == len(first)
        total = sum(node.calls for node in merged.nodes.values())
        assert total == 2 * sum(node.calls for node in first.nodes.values())


class TestProfileJsonNegativePaths:
    def _real_profile(self):
        memory, _, pairs = device(2)
        programs = [work_program(f"neg{i}") for i in range(2)]
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                for program, (a, out) in zip(programs, pairs):
                    pool.submit(program, [a, out], engine="batched")
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


# ---------------------------------------------------------------------------
# Dead-node elimination
# ---------------------------------------------------------------------------


class TestDeadNodeElimination:
    def _graph(self, num_streams=2):
        memory, host, pairs = device(3)
        prog = work_program("life")
        scratch = host.alloc_output([ROWS, COLS], float16)
        pool = StreamPool(memory, num_streams=num_streams)
        with pool.capture() as graph:
            pool.submit(prog, [pairs[0][0], pairs[0][1]])   # writes out0
            pool.submit(prog, [pairs[1][0], scratch])       # writes scratch
            pool.submit(prog, [pairs[2][0], pairs[2][1]])   # writes out2
        return pool, host, pairs, scratch, graph

    def test_unbound_unread_writer_is_eliminated(self):
        pool, host, pairs, scratch, graph = self._graph()
        with pool:
            graph.bind("out0", pairs[0][1], OUT_BYTES)
            graph.bind("out2", pairs[2][1], OUT_BYTES)
            optimized = graph.optimize()
            assert optimized.num_nodes == 2
            assert [n.args[1] for n in optimized.nodes] == [
                pairs[0][1],
                pairs[2][1],
            ]
            before = host.download(scratch, [ROWS, COLS], float16).copy()
            optimized.replay()
            pool.synchronize()
            # The eliminated node really did not run.
            assert np.array_equal(
                host.download(scratch, [ROWS, COLS], float16), before
            )

    def test_refuses_to_drop_span_aliasing_a_bound_output(self):
        # The scratch writer's span overlaps a bound output by one byte:
        # elimination must keep it (satellite acceptance case).
        pool, host, pairs, scratch, graph = self._graph()
        with pool:
            graph.bind("out0", pairs[0][1], OUT_BYTES)
            # A span that ends one byte inside the scratch buffer.
            graph.bind("tail", scratch - 16, 17)
            optimized = graph.optimize()
            assert optimized.num_nodes == 3

    def test_reader_keeps_its_producer_alive(self):
        # producer writes mid, consumer reads mid into a bound output:
        # the producer's output is unbound but RAW-reachable, so it stays.
        memory, host, pairs = device(2)
        prog = work_program("chain")
        mid = host.alloc_output([ROWS, COLS], float16)
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                pool.submit(prog, [pairs[0][0], mid])
                pool.submit(prog, [mid, pairs[1][1]])
            graph.bind("out", pairs[1][1], OUT_BYTES)
            assert graph.optimize().num_nodes == 2

    def test_no_bindings_means_everything_is_observable(self):
        pool, _, pairs, scratch, graph = self._graph()
        with pool:
            assert graph.optimize().num_nodes == 3

    def test_explicit_empty_outputs_drops_unread_writers(self):
        pool, _, pairs, scratch, graph = self._graph()
        with pool:
            graph.bind("out0", pairs[0][1], OUT_BYTES)
            optimized = graph.optimize(outputs=())
            assert optimized.num_nodes == 0

    def test_unknown_output_name_raises(self):
        pool, _, pairs, scratch, graph = self._graph()
        with pool:
            graph.bind("out0", pairs[0][1], OUT_BYTES)
            with pytest.raises(VMError, match="nope"):
                graph.optimize(outputs=("nope",))

    def test_side_effecting_node_survives(self):
        # A printing kernel writes only unobserved scratch, but printing
        # is observable: it must never be eliminated.
        memory, host, pairs = device(1)
        printer = work_program("printer", printing=True)
        scratch = host.alloc_output([ROWS, COLS], float16)
        out = io.StringIO()
        pool = StreamPool(memory, num_streams=2, stdout=out)
        with pool:
            with pool.capture() as graph:
                pool.submit(printer, [pairs[0][0], scratch], engine="sequential")
            graph.bind("anchor", pairs[0][1], OUT_BYTES)
            optimized = graph.optimize(outputs=())
            assert optimized.num_nodes == 1


    def test_writer_read_by_an_earlier_node_on_the_next_replay_stays(self):
        # Loop-carried state: node 0 computes out = f(S), node 1 then
        # refreshes S = f(a).  The S writer's only reader sits *before*
        # it and observes the write on the next replay, so dropping it
        # would freeze S: replay 1 equal, replay 2 not.
        prog = work_program("carry")
        outs = []
        for optimize in (False, True):
            memory, host, pairs = device(2)
            (a, out), (state, _) = pairs
            with StreamPool(memory, num_streams=2) as pool:
                with pool.capture() as graph:
                    pool.submit(prog, [state, out])
                    pool.submit(prog, [a, state])
                graph.bind("out", out, OUT_BYTES)
                if optimize:
                    graph = graph.optimize()
                seen = []
                for _ in range(2):
                    graph.replay()
                    seen.append(host.download(out, [ROWS, COLS], float16).copy())
            outs.append(seen)
        assert not np.array_equal(outs[0][0], outs[0][1])  # S really carries
        for plain, optimized in zip(*outs):
            assert np.array_equal(plain, optimized)

    def test_optimized_graph_rebinds_like_the_original(self):
        memory, host, pairs = device(2)
        prog = work_program("rebind")
        fresh_out = host.alloc_output([ROWS, COLS], float16)
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                pool.submit(prog, [pairs[0][0], pairs[0][1]])
            graph.bind("out", pairs[0][1], OUT_BYTES)
            graph.replay(serial=True)
            want = host.download(pairs[0][1], [ROWS, COLS], float16).copy()
            optimized = graph.optimize()
            optimized.replay({"out": fresh_out})
            pool.synchronize()
            assert np.array_equal(
                host.download(fresh_out, [ROWS, COLS], float16), want
            )

    def test_optimize_requires_ready_phase(self):
        memory, _, _ = device(1)
        with StreamPool(memory, num_streams=2) as pool:
            graph = pool.capture()
            with pytest.raises(VMError, match="phase"):
                graph.optimize()


# ---------------------------------------------------------------------------
# Integration: serving
# ---------------------------------------------------------------------------


class TestServingProfile:
    def test_trace_result_carries_reusable_profile(self):
        from repro import ops
        from repro.dtypes import int6, uint4
        from repro.llm import (
            GEMMA2_9B,
            ContinuousBatchingSimulator,
            Request,
            ServingConfig,
        )
        from repro.perf import L40S

        rng = np.random.default_rng(2)
        linear = ops.prepare_linear(
            rng.standard_normal((64, 16)), int6, group_size=32
        )
        sim = ContinuousBatchingSimulator(
            GEMMA2_9B,
            ServingConfig("tilus", uint4, L40S),
            max_batch=4,
            decode_linear=linear,
            num_streams=2,
            profile=True,
        )
        try:
            result = sim.run([Request(0.0, 32, 4) for _ in range(2)])
            assert result.profile is not None
            assert len(result.profile) > 0
            # The profile is reusable after the run: it serializes and
            # still resolves the decode graphs' nodes.
            loaded = Profile.from_json(result.profile.to_json())
            assert len(loaded) == len(result.profile)
            # Recording does not outlive the trace: the shared runtime's
            # profiler is detached, and each run gets its own profile.
            assert linear.runtime.profiler is None
            sites = len(result.profile)
            again = sim.run([Request(0.0, 32, 4)])
            assert len(result.profile) == sites
            assert again.profile is not result.profile
            # A caller-enabled profiler is neither contaminated by the
            # trace's records nor left detached afterwards.
            mine = linear.runtime.enable_profiling()
            third = sim.run([Request(0.0, 32, 4)])
            assert third.profile is not mine and len(mine) == 0
            assert linear.runtime.profiler is mine
        finally:
            linear.runtime.stream_pool().shutdown()
