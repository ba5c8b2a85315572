"""The execution-graph subsystem: capture semantics, frozen hazard edges
and coalescing, replay bit-exactness against eager stream submission and
serial replay, pointer rebinding with specialization-key validation, and
error propagation.

The load-bearing property is the last acceptance criterion of the
subsystem: replay drives the pool's lane *directly* — a replay
must succeed even when the hazard-analysis entry points are made to
blow up, because it never calls them.
"""

import sys
import threading

import numpy as np
import pytest

from repro.dtypes import float16
from repro.errors import VMError
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.runtime import Runtime, StreamPool
from repro.runtime import streams as streams_mod
from repro.vm import GlobalMemory, Interpreter

ROWS, COLS = 16, 8
BUF_BYTES = ROWS * COLS * 2


def transform_program(name: str, scale: float, bias: float):
    """``dst = src * scale + bias`` over a 2x2 grid of (8, 4) tiles."""
    pb = ProgramBuilder(name, grid=[2, 2])
    src_ptr = pb.param("src", pointer(float16))
    dst_ptr = pb.param("dst", pointer(float16))
    bi, bj = pb.block_indices()
    g_src = pb.view_global(src_ptr, dtype=float16, shape=[ROWS, COLS])
    g_dst = pb.view_global(dst_ptr, dtype=float16, shape=[ROWS, COLS])
    tile = pb.load_global(g_src, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
    pb.store_global(pb.add(pb.mul(tile, scale), bias), g_dst, offset=[bi * 8, bj * 4])
    return pb.finish()


def upload_buffers(memory: GlobalMemory, num_buffers: int, seed: int = 0):
    host = Interpreter(memory)
    rng = np.random.default_rng(seed)
    addrs = [
        host.upload(float16.quantize(rng.standard_normal((ROWS, COLS))), float16)
        for _ in range(num_buffers)
    ]
    return host, addrs


def hazard_plan(num_launches=24, num_buffers=8, seed=7):
    """(program_idx, src, dst) triples with randomized RAW/WAR/WAW churn."""
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(num_launches):
        src = int(rng.integers(num_buffers))
        dst = int(rng.integers(num_buffers - 1))
        dst = dst if dst < src else dst + 1
        plan.append((int(rng.integers(2)), src, dst))
    return plan


class TestCapture:
    def test_capture_records_without_executing(self):
        program = transform_program("cap", 2.0, 1.0)
        memory = GlobalMemory(1 << 22)
        host, addrs = upload_buffers(memory, 2)
        before = host.download(addrs[1], [ROWS, COLS], float16)
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                assert pool.capturing
                handle = pool.submit(program, [addrs[0], addrs[1]])
                handle.wait()  # inert: must not block or execute
                assert handle.done
            assert not pool.capturing
            assert len(graph) == 1
            assert pool.launches == 0
            assert np.array_equal(
                host.download(addrs[1], [ROWS, COLS], float16), before
            )

    def test_capture_freezes_coalescing_groups(self):
        program = transform_program("merge", 2.0, 1.0)
        memory = GlobalMemory(1 << 22)
        host, addrs = upload_buffers(memory, 10)
        start = [host.download(a, [ROWS, COLS], float16) for a in addrs]
        with StreamPool(memory, num_streams=1) as pool:
            stream = pool.streams[0]
            with pool.capture() as graph:
                for i in range(5):
                    pool.submit(program, [addrs[2 * i], addrs[2 * i + 1]], stream=stream)
            assert graph.num_nodes == 5
            assert graph.num_groups == 1  # one stacked launch_many at replay
            graph.replay()
            assert (pool.launches, pool.executions) == (5, 1)
        for i in range(5):
            want = float16.quantize(start[2 * i].astype(np.float64) * 2 + 1)
            got = host.download(addrs[2 * i + 1], [ROWS, COLS], float16)
            assert np.array_equal(got, want)

    def test_conflicting_nodes_do_not_coalesce(self):
        program = transform_program("chain", 2.0, 0.0)
        memory = GlobalMemory(1 << 22)
        _, addrs = upload_buffers(memory, 3)
        with StreamPool(memory, num_streams=1) as pool:
            with pool.capture() as graph:
                pool.submit(program, [addrs[0], addrs[1]], stream=pool.streams[0])
                pool.submit(program, [addrs[1], addrs[2]], stream=pool.streams[0])
            writer, reader = graph.nodes
            assert reader.deps == (writer.index,)  # RAW on addrs[1]
            assert graph.num_groups == 2

    def test_groups_form_over_the_whole_dag_not_per_stream(self):
        """Eight launches of one specialization captured on eight streams
        are one group: one invocation on the pool's lane."""
        program = transform_program("fuse", 2.0, 1.0)
        memory = GlobalMemory(1 << 22)
        host, addrs = upload_buffers(memory, 16)
        start = [host.download(a, [ROWS, COLS], float16) for a in addrs]
        with StreamPool(memory, num_streams=8) as pool:
            with pool.capture() as graph:
                for i, stream in enumerate(pool.streams):
                    pool.submit(program, [addrs[2 * i], addrs[2 * i + 1]], stream=stream)
            assert graph.num_groups == 1
            graph.replay()
            assert (pool.launches, pool.executions) == (8, 1)
        for i in range(8):
            want = float16.quantize(start[2 * i].astype(np.float64) * 2 + 1)
            got = host.download(addrs[2 * i + 1], [ROWS, COLS], float16)
            assert np.array_equal(got, want)

    def test_dependent_or_overlapping_nodes_do_not_fuse_across_streams(self):
        program = transform_program("nofuse", 2.0, 0.0)
        memory = GlobalMemory(1 << 22)
        _, addrs = upload_buffers(memory, 5)
        with StreamPool(memory, num_streams=4) as pool:
            s = pool.streams
            with pool.capture() as chain:  # 0 -> 1 -> 2: each reads its predecessor
                pool.submit(program, [addrs[0], addrs[1]], stream=s[0])
                pool.submit(program, [addrs[1], addrs[2]], stream=s[1])
                pool.submit(program, [addrs[2], addrs[3]], stream=s[2])
            assert chain.num_groups == 3
            with pool.capture() as overlap:  # two writers of one buffer
                pool.submit(program, [addrs[0], addrs[4]], stream=s[0])
                pool.submit(program, [addrs[1], addrs[4]], stream=s[1])
            assert overlap.num_groups == 2
            with pool.capture() as mixed:
                # 0 and 2 are independent and fuse past node 1, which
                # reads what node 0 writes; node 3 depends on node 1,
                # which is not before the group's head.
                pool.submit(program, [addrs[0], addrs[1]], stream=s[0])
                pool.submit(program, [addrs[1], addrs[2]], stream=s[1])
                pool.submit(program, [addrs[0], addrs[3]], stream=s[2])
                pool.submit(program, [addrs[2], addrs[4]], stream=s[3])
            assert [g.node_indices for g in mixed._groups] == [[0, 2], [1], [3]]
            mixed.replay()
            mixed.replay(serial=True)

    def test_the_stack_cap_still_splits_whole_dag_groups(self):
        from repro.runtime.streams import MAX_MERGED_BLOCKS

        program = transform_program("cap", 2.0, 0.0)  # 4 blocks a launch
        memory = GlobalMemory(1 << 22)
        _, addrs = upload_buffers(memory, 40)
        with StreamPool(memory, num_streams=4) as pool:
            with pool.capture() as graph:
                for i in range(20):
                    pool.submit(program, [addrs[2 * i], addrs[2 * i + 1]])
            per_group = MAX_MERGED_BLOCKS // 4
            assert [len(g.node_indices) for g in graph._groups] == [per_group, 4]
            graph.replay()

    def test_nested_capture_rejected(self):
        memory = GlobalMemory(1 << 20)
        with StreamPool(memory, num_streams=1) as pool:
            with pool.capture():
                with pytest.raises(VMError, match="already active"):
                    pool.capture().__enter__()

    def test_graph_cannot_be_reentered_or_replayed_unready(self):
        memory = GlobalMemory(1 << 20)
        with StreamPool(memory, num_streams=1) as pool:
            graph = pool.capture()
            with pytest.raises(VMError, match="not replayable"):
                graph.replay()
            with graph:
                pass
            with pytest.raises(VMError, match="re-enter"):
                graph.__enter__()


class TestReplayBitExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replay_matches_eager_and_serial(self, seed):
        programs_for = lambda: [
            transform_program("double", 2.0, 1.0),
            transform_program("halve", 0.5, -1.0),
        ]
        plan = hazard_plan(seed=40 + seed)
        num_buffers = 8

        # Eager stream submission.
        mem_eager = GlobalMemory(1 << 22)
        host_eager, addrs_eager = upload_buffers(mem_eager, num_buffers)
        progs = programs_for()
        with StreamPool(mem_eager, num_streams=4) as pool:
            for p, src, dst in plan:
                pool.submit(progs[p], [addrs_eager[src], addrs_eager[dst]])
            pool.synchronize()
            eager_stats = pool.stats.snapshot()
        eager = [host_eager.download(a, [ROWS, COLS], float16) for a in addrs_eager]

        # Graph capture + grouped replay (twice over: second replay
        # continues from the first's memory state, like a decode loop).
        mem_graph = GlobalMemory(1 << 22)
        host_graph, addrs_graph = upload_buffers(mem_graph, num_buffers)
        progs = programs_for()
        with StreamPool(mem_graph, num_streams=4) as pool:
            with pool.capture() as graph:
                for p, src, dst in plan:
                    pool.submit(progs[p], [addrs_graph[src], addrs_graph[dst]])
            graph.replay()
            replay_stats = pool.stats.snapshot()
        replayed = [host_graph.download(a, [ROWS, COLS], float16) for a in addrs_graph]

        # Serial replay of the same graph on a third image.
        mem_serial = GlobalMemory(1 << 22)
        host_serial, addrs_serial = upload_buffers(mem_serial, num_buffers)
        progs = programs_for()
        with StreamPool(mem_serial, num_streams=4) as pool:
            with pool.capture() as graph:
                for p, src, dst in plan:
                    pool.submit(progs[p], [addrs_serial[src], addrs_serial[dst]])
            graph.replay(serial=True)
        serial = [host_serial.download(a, [ROWS, COLS], float16) for a in addrs_serial]

        for got, want in zip(replayed, eager):
            assert np.array_equal(got, want)
        for got, want in zip(serial, eager):
            assert np.array_equal(got, want)
        assert replay_stats == eager_stats

    def test_replay_skips_hazard_analysis_entirely(self, monkeypatch):
        """The headline property: after instantiation a replay never
        touches launch_ranges/ranges_conflict/analyze_access — it must
        survive those being poisoned, while eager submission cannot."""
        program = transform_program("nohazard", 2.0, 1.0)
        memory = GlobalMemory(1 << 22)
        host, addrs = upload_buffers(memory, 4)
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                pool.submit(program, [addrs[0], addrs[1]])
                pool.submit(program, [addrs[1], addrs[2]])

            def bomb(*a, **k):
                raise AssertionError("hazard analysis ran during replay")

            monkeypatch.setattr(streams_mod, "launch_ranges", bomb)
            monkeypatch.setattr(streams_mod, "ranges_conflict", bomb)
            monkeypatch.setattr(streams_mod, "analyze_access", bomb)
            graph.replay()
            with pytest.raises(AssertionError):
                pool.submit(program, [addrs[2], addrs[3]])
        want = float16.quantize(
            float16.quantize(
                host.download(addrs[0], [ROWS, COLS], float16).astype(np.float64)
            )
            * 2
            + 1
        )
        got = host.download(addrs[1], [ROWS, COLS], float16)
        assert np.array_equal(got, want)


class TestRebinding:
    def test_pointer_rebinding_moves_the_dag(self):
        program = transform_program("rebind", 2.0, 1.0)
        memory = GlobalMemory(1 << 22)
        host, addrs = upload_buffers(memory, 4)
        start = [host.download(a, [ROWS, COLS], float16) for a in addrs]
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                pool.submit(program, [addrs[0], addrs[1]])
            graph.bind("src", addrs[0], BUF_BYTES)
            graph.bind("dst", addrs[1], BUF_BYTES)
            graph.replay({"src": addrs[2], "dst": addrs[3]})
        want = float16.quantize(start[2].astype(np.float64) * 2 + 1)
        assert np.array_equal(host.download(addrs[3], [ROWS, COLS], float16), want)
        # The capture-time buffers were not touched.
        assert np.array_equal(host.download(addrs[1], [ROWS, COLS], float16), start[1])

    def test_offset_derived_slots_rebase(self):
        # Pointer arithmetic into a bound span: slices at base + offset
        # keep their intra-buffer offset when the span is rebound —
        # the split-k workspace pattern.
        program = transform_program("span", 2.0, 0.0)
        memory = GlobalMemory(1 << 22)
        host, addrs = upload_buffers(memory, 1)
        span_a = memory.alloc(4 * BUF_BYTES)
        span_b = memory.alloc(4 * BUF_BYTES)
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                for s in range(4):
                    pool.submit(program, [addrs[0], span_a + s * BUF_BYTES])
            graph.bind("span", span_a, 4 * BUF_BYTES)
            graph.replay({"span": span_b})
            assert [n.args[1] for n in graph.nodes] != [
                span_b + s * BUF_BYTES for s in range(4)
            ]  # captured args unchanged...
            assert [a[1] for a in graph._bound_args] == [
                span_b + s * BUF_BYTES for s in range(4)
            ]  # ...bound args rebased slice by slice
        src = host.download(addrs[0], [ROWS, COLS], float16)
        want = float16.quantize(src.astype(np.float64) * 2)
        for s in range(4):
            got = host.download(span_b + s * BUF_BYTES, [ROWS, COLS], float16)
            assert np.array_equal(got, want)

    def test_scalar_rebinding_validates_specialization_key(self):
        # A scalar that feeds a view shape: rebinding it would change the
        # specialization key (different shapes), so replay must reject it.
        pb = ProgramBuilder("dynshape", grid=[2, 1])
        src_ptr = pb.param("src", pointer(float16))
        dst_ptr = pb.param("dst", pointer(float16))
        rows = pb.param("rows", "i32")
        bi, _ = pb.block_indices()
        g_src = pb.view_global(src_ptr, dtype=float16, shape=[rows, 4])
        g_dst = pb.view_global(dst_ptr, dtype=float16, shape=[rows, 4])
        tile = pb.load_global(g_src, layout=spatial(8, 4), offset=[bi * 8, 0])
        pb.store_global(tile, g_dst, offset=[bi * 8, 0])
        prog = pb.finish()

        memory = GlobalMemory(1 << 22)
        host = Interpreter(memory)
        data = float16.quantize(np.random.default_rng(3).standard_normal((16, 4)))
        src = host.upload(data, float16)
        dst = host.alloc_output([16, 4], float16)
        with StreamPool(memory, num_streams=1) as pool:
            with pool.capture() as graph:
                pool.submit(prog, [src, dst, 16])
            graph.bind("rows", 16)
            graph.replay({"rows": 16})  # identity: allowed
            with pytest.raises(VMError, match="specialization key"):
                graph.replay({"rows": 32})

    def test_unknown_and_overlapping_bindings_rejected(self):
        program = transform_program("badbind", 2.0, 0.0)
        memory = GlobalMemory(1 << 22)
        _, addrs = upload_buffers(memory, 2)
        with StreamPool(memory, num_streams=1) as pool:
            with pool.capture() as graph:
                pool.submit(program, [addrs[0], addrs[1]])
            graph.bind("src", addrs[0], BUF_BYTES)
            with pytest.raises(VMError, match="already registered"):
                graph.bind("src", addrs[1], BUF_BYTES)
            with pytest.raises(VMError, match="overlaps"):
                graph.bind("alias", addrs[0] + 4, BUF_BYTES)
            with pytest.raises(VMError, match="unknown bindings"):
                graph.replay({"nope": 0})

    def test_rebound_spans_must_stay_disjoint(self):
        # The frozen groups assume distinct bindings stay disjoint: two
        # stacked launches rebound onto one output would interleave
        # silently.  Overlap raises (naming both bindings) and executes
        # nothing; adjacency is legal; an identity replay skips the
        # check's path altogether.
        program = transform_program("alias", 2.0, 1.0)
        memory = GlobalMemory(1 << 22)
        host, addrs = upload_buffers(memory, 6)
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                pool.submit(program, [addrs[0], addrs[1]])
                pool.submit(program, [addrs[2], addrs[3]])
            assert graph.num_groups == 1
            graph.bind("out0", addrs[1], BUF_BYTES)
            graph.bind("out1", addrs[3], BUF_BYTES)
            graph.replay()  # identity
            before = host.download(addrs[5], [ROWS, COLS], float16)
            for alias in (addrs[5], addrs[5] + 2, addrs[5] - BUF_BYTES + 2):
                with pytest.raises(VMError, match="'out0'.*'out1'|'out1'.*'out0'"):
                    graph.replay({"out0": addrs[5], "out1": alias})
            assert graph.replays == 1
            assert np.array_equal(
                host.download(addrs[5], [ROWS, COLS], float16), before
            )
            # Back-to-back spans touch but do not overlap.
            assert addrs[5] == addrs[4] + BUF_BYTES
            graph.replay({"out0": addrs[4], "out1": addrs[5]})
            graph.replay({"out0": addrs[5], "out1": addrs[4]})
            graph.replay()  # identity again: the captured spans
            assert graph.replays == 4
        for src, dst in ((2, 4), (0, 5)):
            data = host.download(addrs[src], [ROWS, COLS], float16)
            want = float16.quantize(data.astype(np.float64) * 2 + 1)
            assert np.array_equal(host.download(addrs[dst], [ROWS, COLS], float16), want)


    RACING_REPLAYS = 6000

    def test_racing_rebinds_each_execute_their_own_arguments(self):
        """Two host threads replay ONE graph with different bindings, a
        fresh output buffer per replay: rebinding and execution share
        the pool lock, so no replay runs the other thread's arguments —
        every output is written, from its own thread's input."""
        memory = GlobalMemory(1 << 22)
        host = Interpreter(memory)
        rng = np.random.default_rng(3)
        program = transform_program("racing", 2.0, 1.0)
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
            graph.bind("a", inputs[0], BUF_BYTES)
            graph.bind("out", outputs[0][0], BUF_BYTES)
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


class TestErrorPropagation:
    def test_failing_node_poisons_replay(self):
        pb = ProgramBuilder("oob", grid=[2, 2])
        src_ptr = pb.param("src", pointer(float16))
        dst_ptr = pb.param("dst", pointer(float16))
        bi, bj = pb.block_indices()
        g_src = pb.view_global(src_ptr, dtype=float16, shape=[ROWS, COLS])
        g_dst = pb.view_global(dst_ptr, dtype=float16, shape=[ROWS, COLS])
        tile = pb.load_global(
            g_src, layout=spatial(8, 4), offset=[bi * 8 + 100, bj * 4]
        )
        pb.store_global(tile, g_dst, offset=[bi * 8, bj * 4])
        bad = pb.finish()
        good = transform_program("after", 2.0, 0.0)

        memory = GlobalMemory(1 << 22)
        host, addrs = upload_buffers(memory, 3)
        before = host.download(addrs[2], [ROWS, COLS], float16)
        pool = StreamPool(memory, num_streams=2)
        try:
            with pool.capture() as graph:
                pool.submit(bad, [addrs[0], addrs[1]])
                pool.submit(good, [addrs[1], addrs[2]])  # depends on the bad one
            with pytest.raises(VMError, match="graph replay failed"):
                graph.replay()
            # The dependent group retired without executing.
            assert np.array_equal(
                host.download(addrs[2], [ROWS, COLS], float16), before
            )
        finally:
            pool.shutdown()


class TestRuntimeCapture:
    def test_runtime_capture_records_sync_and_streamed_launches(self):
        rt = Runtime(dram_bytes=1 << 22)
        program = transform_program("rt_graph", 2.0, 1.0)
        rng = np.random.default_rng(5)
        data = float16.quantize(rng.standard_normal((ROWS, COLS)))
        src = rt.upload(data, float16)
        mid = rt.empty([ROWS, COLS], float16)
        dst = rt.empty([ROWS, COLS], float16)
        pool = rt.stream_pool()
        try:
            with rt.capture() as graph:
                rt.launch(program, [src, mid], stream=pool.streams[0])
                rt.launch(program, [mid, dst])  # sync launch: recorded too
            assert graph.num_nodes == 2
            assert rt.prepared == 1  # capture prepared the program
            graph.replay()
            want = float16.quantize(
                float16.quantize(data.astype(np.float64) * 2 + 1).astype(np.float64)
                * 2
                + 1
            )
            assert np.array_equal(rt.download(dst, [ROWS, COLS], float16), want)
            # Steady state: a replay prepares nothing and counts no launch
            # of a prepared program.
            counts = (rt.prepared, rt.reused)
            graph.replay()
            assert (rt.prepared, rt.reused) == counts
        finally:
            pool.shutdown()
