"""The multi-stream runtime: hazard ordering, scheduling, coalescing,
events, error propagation, program order, and the 64-launch
interleaving stress test.

The pool is lazy: ``submit`` only queues, so every launch of a test is
pending — and its hazard dependencies are computed against pending
work — until the test reaches a drain point.

The stress test is the subsystem's acceptance gate: 64 launches with
randomized read/write hazards over a small set of shared buffers are
issued across 8 streams, and the resulting device memory must be
bit-identical to a serial replay of the same launch sequence, with
per-stream execution statistics summing to the serial totals.
"""

import numpy as np
import pytest

from repro.dtypes import float16, float32, int6, uint8
from repro.errors import VMError
from repro.kernels import (
    MatmulConfig,
    matmul_layouts,
    splitk_partial_program,
    splitk_reduce_program,
)
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.quant import QuantScheme, quantize_weight, transform_weight
from repro.runtime import Runtime, StreamPool
from repro.runtime.streams import launch_ranges, ranges_conflict
from repro.vm import GlobalMemory, Interpreter


ROWS, COLS = 16, 8  # every stress buffer is f16[ROWS, COLS]


def transform_program(name: str, scale: float, bias: float):
    """``dst = src * scale + bias`` over a 2x2 grid of (8, 4) tiles."""
    pb = ProgramBuilder(name, grid=[2, 2])
    src_ptr = pb.param("src", pointer(float16))
    dst_ptr = pb.param("dst", pointer(float16))
    bi, bj = pb.block_indices()
    g_src = pb.view_global(src_ptr, dtype=float16, shape=[ROWS, COLS])
    g_dst = pb.view_global(dst_ptr, dtype=float16, shape=[ROWS, COLS])
    tile = pb.load_global(g_src, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
    scaled = pb.mul(tile, scale)
    shifted = pb.add(scaled, bias)
    pb.store_global(shifted, g_dst, offset=[bi * 8, bj * 4])
    return pb.finish()


def upload_buffers(memory: GlobalMemory, num_buffers: int, seed: int = 0):
    """Identical device images for the concurrent and replay runs."""
    host = Interpreter(memory)
    rng = np.random.default_rng(seed)
    addrs = [
        host.upload(float16.quantize(rng.standard_normal((ROWS, COLS))), float16)
        for _ in range(num_buffers)
    ]
    return host, addrs


def snapshot_buffers(host, addrs):
    return [host.download(a, [ROWS, COLS], float16) for a in addrs]


class TestStressInterleaved:
    NUM_LAUNCHES = 64
    NUM_STREAMS = 8
    #: 6 hot shared buffers (hazard churn) + 20 private pair buffers
    #: (independent launches that must spread across streams).
    NUM_SHARED = 6
    NUM_BUFFERS = 6 + 20

    def _launch_sequence(self, programs, rng):
        """64 (program, src, dst) triples: two of every three launches hit
        the hot shared buffers (randomized RAW / WAR / WAW hazards), the
        third reads/writes a private pair and is independent."""
        plan = []
        private = self.NUM_SHARED
        for j in range(self.NUM_LAUNCHES):
            program = programs[int(rng.integers(len(programs)))]
            if j % 3 == 2 and private + 1 < self.NUM_BUFFERS:
                plan.append((program, private, private + 1))
                private += 2
            else:
                src = int(rng.integers(self.NUM_SHARED))
                dst = int(rng.integers(self.NUM_SHARED - 1))
                dst = dst if dst < src else dst + 1
                plan.append((program, src, dst))
        return plan

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_serial_replay_bit_exactly(self, seed):
        programs = [
            transform_program("double_inc", 2.0, 1.0),
            transform_program("halve_dec", 0.5, -1.0),
        ]
        plan = self._launch_sequence(programs, np.random.default_rng(100 + seed))

        # Concurrent run: scheduler-placed launches on 8 streams.
        mem_stream = GlobalMemory(1 << 22)
        host_stream, addrs_stream = upload_buffers(mem_stream, self.NUM_BUFFERS)
        with StreamPool(mem_stream, num_streams=self.NUM_STREAMS) as pool:
            handles = [
                pool.submit(program, [addrs_stream[src], addrs_stream[dst]])
                for program, src, dst in plan
            ]
            pool.synchronize()
            streamed = snapshot_buffers(host_stream, addrs_stream)
            stream_stats = pool.aggregate_stats().snapshot()
            per_stream = [s.stats.snapshot() for s in pool.streams]
            used_streams = {h.stream.index for h in handles}

        # Serial replay: same sequence, one launch at a time.
        mem_serial = GlobalMemory(1 << 22)
        host_serial, addrs_serial = upload_buffers(mem_serial, self.NUM_BUFFERS)
        for program, src, dst in plan:
            host_serial.launch(program, [addrs_serial[src], addrs_serial[dst]])
        serial = snapshot_buffers(host_serial, addrs_serial)

        for got, want in zip(streamed, serial):
            assert np.array_equal(got, want)
        # Per-stream stats must sum to the serial totals, counter by counter.
        summed = {
            key: sum(stats[key] for stats in per_stream) for key in stream_stats
        }
        assert summed == stream_stats == host_serial.stats.snapshot()
        assert len(used_streams) > 1  # the work genuinely spread out

    def test_scheduler_spreads_independent_work_round_robin(self):
        program = transform_program("spread", 2.0, 0.0)
        memory = GlobalMemory(1 << 22)
        _, addrs = upload_buffers(memory, 16)
        with StreamPool(memory, num_streams=8) as pool:
            handles = [
                pool.submit(program, [addrs[2 * i], addrs[2 * i + 1]])
                for i in range(8)
            ]
            pool.synchronize()
            assert [h.stream.index for h in handles] == list(range(8))

    def test_scheduler_is_memory_aware_for_conflicts(self):
        # A launch that conflicts with outstanding work must land on the
        # conflicting stream, so FIFO order replaces a cross-stream wait.
        program = transform_program("chain", 2.0, 0.0)
        memory = GlobalMemory(1 << 22)
        _, addrs = upload_buffers(memory, 4)
        with StreamPool(memory, num_streams=4) as pool:
            writer = pool.submit(program, [addrs[0], addrs[1]])  # round-robin: stream 0
            reader = pool.submit(program, [addrs[1], addrs[2]])
            assert not writer.done  # pending until the drain point
            pool.synchronize()
            assert writer in reader.deps
            assert writer.stream is pool.streams[0]
            assert reader.stream is writer.stream


class TestHazardTracking:
    def test_raw_chain_across_streams(self):
        program = transform_program("raw", 2.0, 0.0)
        memory = GlobalMemory(1 << 22)
        host, addrs = upload_buffers(memory, 3)
        start = snapshot_buffers(host, addrs)
        with StreamPool(memory, num_streams=3) as pool:
            h1 = pool.submit(program, [addrs[0], addrs[1]], stream=pool.streams[0])
            h2 = pool.submit(program, [addrs[1], addrs[2]], stream=pool.streams[1])
            assert h1 in h2.deps
            assert not h1.done and not h2.done
            h2.wait()
            assert h1.done
            doubled = float16.quantize(start[0].astype(np.float64) * 2)
            quadrupled = float16.quantize(doubled.astype(np.float64) * 2)
            assert np.array_equal(host.download(addrs[2], [ROWS, COLS], float16), quadrupled)

    def test_reads_share_writes_serialize(self):
        program = transform_program("share", 2.0, 0.0)
        memory = GlobalMemory(1 << 22)
        _, addrs = upload_buffers(memory, 4)
        with StreamPool(memory, num_streams=4) as pool:
            writer = pool.submit(program, [addrs[0], addrs[1]], stream=pool.streams[0])
            # Readers of addrs[0] do not depend on the writer's *read* of
            # addrs[0] — only overlapping writes order launches.
            r1 = pool.submit(program, [addrs[0], addrs[2]], stream=pool.streams[1])
            r2 = pool.submit(program, [addrs[0], addrs[3]], stream=pool.streams[2])
            assert writer not in r1.deps and writer not in r2.deps
            assert r1 not in r2.deps
            # RAW on addrs[1] and WAR on addrs[0] both serialize.
            war = pool.submit(program, [addrs[1], addrs[0]])
            assert writer in war.deps
            assert r1 in war.deps and r2 in war.deps  # WAR on their source
            assert not war.done
            pool.synchronize()

    def test_launch_ranges_and_conflicts(self):
        program = transform_program("ranges", 2.0, 0.0)
        nbytes = ROWS * COLS * 2
        ranges = launch_ranges(program, [1024, 8192])
        assert (1024, 1024 + nbytes, False) in ranges
        assert (8192, 8192 + nbytes, True) in ranges
        other = launch_ranges(program, [8192, 16384])
        assert ranges_conflict(ranges, other)          # write/read overlap
        disjoint = launch_ranges(program, [32768, 65536])
        assert not ranges_conflict(ranges, disjoint)

    #: The slice-writer workload is W=4 columns wide so one 32-thread
    #: (8, 4) tile covers full rows of its view.
    SLICE_W = 4

    @classmethod
    def _slice_writer_program(cls):
        """Writes one (8, 4) tile at a *parameter-selected* row offset
        through a view covering the whole [ROWS, SLICE_W] buffer."""
        pb = ProgramBuilder("slice_writer", grid=[1, 1])
        src_ptr = pb.param("src", pointer(float16))
        dst_ptr = pb.param("dst", pointer(float16))
        row0 = pb.param("row0", "i32")
        pb.block_indices()
        g_src = pb.view_global(src_ptr, dtype=float16, shape=[8, cls.SLICE_W])
        g_dst = pb.view_global(dst_ptr, dtype=float16, shape=[ROWS, cls.SLICE_W])
        tile = pb.load_global(g_src, layout=spatial(8, cls.SLICE_W), offset=[0, 0])
        doubled = pb.mul(tile, 2.0)
        pb.store_global(doubled, g_dst, offset=[row0, 0])
        return pb.finish()

    def test_offset_granular_ranges_split_shared_views(self):
        # A store at a statically-known row offset resolves to the slice
        # it touches, not the whole view.
        program = self._slice_writer_program()
        row_bytes = self.SLICE_W * 2
        top = launch_ranges(program, [1024, 8192, 0])
        bottom = launch_ranges(program, [2048, 8192, 8])
        assert (8192, 8192 + 8 * row_bytes, True) in top
        assert (8192 + 8 * row_bytes, 8192 + 16 * row_bytes, True) in bottom
        assert not ranges_conflict(top, bottom)        # disjoint slices
        overlapping = launch_ranges(program, [2048, 8192, 4])
        assert ranges_conflict(top, overlapping)       # rows [4, 12) overlap

    def test_disjoint_slice_writers_run_concurrently(self):
        # Regression for the coarse one-range-per-view behaviour: two
        # writers of disjoint slices through a *shared* view must get no
        # dependency edge and spread across streams.
        program = self._slice_writer_program()
        W = self.SLICE_W
        memory = GlobalMemory(1 << 22)
        host, _ = upload_buffers(memory, 0)
        rng = np.random.default_rng(21)
        top_src = float16.quantize(rng.standard_normal((8, W)))
        bot_src = float16.quantize(rng.standard_normal((8, W)))
        a_top = host.upload(top_src, float16)
        a_bot = host.upload(bot_src, float16)
        shared = host.alloc_output([ROWS, W], float16)
        with StreamPool(memory, num_streams=2) as pool:
            top = pool.submit(program, [a_top, shared, 0])
            bottom = pool.submit(program, [a_bot, shared, 8])
            assert top not in bottom.deps              # disjoint: no edge
            assert bottom.stream is not top.stream     # round-robin spread
            pool.synchronize()
            # Independent, so the drain ran them as one stacked group.
            assert (pool.launches, pool.executions) == (2, 1)
        got = host.download(shared, [ROWS, W], float16)
        assert np.array_equal(got[:8], float16.quantize(top_src.astype(np.float64) * 2))
        assert np.array_equal(got[8:], float16.quantize(bot_src.astype(np.float64) * 2))


class TestStreamSemantics:
    def test_events_order_streams(self):
        program = transform_program("evt", 2.0, 0.0)
        memory = GlobalMemory(1 << 22)
        _, addrs = upload_buffers(memory, 4)
        with StreamPool(memory, num_streams=2) as pool:
            head = pool.submit(program, [addrs[0], addrs[1]], stream=pool.streams[0])
            event = pool.streams[0].record_event()
            assert not event.query()
            pool.streams[1].wait_event(event)
            tail = pool.submit(program, [addrs[2], addrs[3]], stream=pool.streams[1])
            # No memory hazard between the two: the event is the edge.
            assert tail.deps == (head,)
            tail.wait()
            assert event.query()
            event.wait()  # already signaled: returns immediately
            # The edge kept two otherwise-stackable launches apart.
            assert pool.executions == 2

    def test_manual_event_set_after_work_is_queued(self):
        # The pool holds a stream's queue until a drain point: an event
        # recorded behind queued work stays unsignaled, nothing has run,
        # and the drain then runs everything queued, in order, to
        # completion.
        program = transform_program("late_gate", 2.0, 1.0)
        memory = GlobalMemory(1 << 22)
        host, addrs = upload_buffers(memory, 6)
        start = snapshot_buffers(host, addrs)
        with StreamPool(memory, num_streams=1) as pool:
            stream = pool.streams[0]
            handles = [
                pool.submit(program, [addrs[2 * i], addrs[2 * i + 1]], stream=stream)
                for i in range(3)
            ]
            event = stream.record_event()
            assert not event.query()
            assert not any(h.done for h in handles)  # genuinely held
            assert np.array_equal(
                host.download(addrs[1], [ROWS, COLS], float16), start[1]
            )
            event.wait()
            assert event.query() and all(h.done for h in handles)
        for i in range(3):
            want = float16.quantize(start[2 * i].astype(np.float64) * 2 + 1)
            got = host.download(addrs[2 * i + 1], [ROWS, COLS], float16)
            assert np.array_equal(got, want)

    def test_stream_coalesces_independent_launches(self):
        # Five independent same-program launches queue up; the drain
        # must execute them as ONE stacked grid.
        program = transform_program("small", 2.0, 1.0)
        memory = GlobalMemory(1 << 22)
        host, addrs = upload_buffers(memory, 10)
        start = snapshot_buffers(host, addrs)
        with StreamPool(memory, num_streams=1) as pool:
            stream = pool.streams[0]
            for i in range(5):
                pool.submit(program, [addrs[2 * i], addrs[2 * i + 1]], stream=stream)
            assert stream.launches == 0  # nothing runs before the drain
            pool.synchronize()
            assert stream.launches == 5
            assert stream.executions == 1  # coalesced into one stacked grid
        for i in range(5):
            want = float16.quantize(start[2 * i].astype(np.float64) * 2 + 1)
            got = host.download(addrs[2 * i + 1], [ROWS, COLS], float16)
            assert np.array_equal(got, want)

    def test_no_coalescing_across_differing_view_shapes(self):
        # A program whose view shape depends on a scalar param: launches
        # binding it differently are individually valid but must NOT be
        # coalesced (the batched engine needs uniform view shapes).
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
        rng = np.random.default_rng(9)
        small = float16.quantize(rng.standard_normal((16, 4)))
        big = float16.quantize(rng.standard_normal((32, 4)))
        a_small = host.upload(small, float16)
        a_big = host.upload(big, float16)
        o_small = host.alloc_output([16, 4], float16)
        o_big = host.alloc_output([32, 4], float16)
        with StreamPool(memory, num_streams=1) as pool:
            stream = pool.streams[0]
            h1 = pool.submit(prog, [a_small, o_small, 16], stream=stream)
            h2 = pool.submit(prog, [a_big, o_big, 32], stream=stream)
            h1.wait()
            h2.wait()  # must not be poisoned by an illegal merge
            assert stream.executions == 2
        assert np.array_equal(host.download(o_small, [16, 4], float16), small)
        assert np.array_equal(
            host.download(o_big, [32, 4], float16)[:16], big[:16]
        )

    def test_error_propagates_and_poisons_dependents(self):
        pb = ProgramBuilder("oob", grid=[2, 2])
        src_ptr = pb.param("src", pointer(float16))
        dst_ptr = pb.param("dst", pointer(float16))
        bi, bj = pb.block_indices()
        g_src = pb.view_global(src_ptr, dtype=float16, shape=[ROWS, COLS])
        g_dst = pb.view_global(dst_ptr, dtype=float16, shape=[ROWS, COLS])
        # Unmasked load far past the view: raises at execution time.
        tile = pb.load_global(g_src, layout=spatial(8, 4), offset=[bi * 8 + 100, bj * 4])
        pb.store_global(tile, g_dst, offset=[bi * 8, bj * 4])
        bad = pb.finish()
        good = transform_program("after", 2.0, 0.0)

        memory = GlobalMemory(1 << 22)
        _, addrs = upload_buffers(memory, 3)
        pool = StreamPool(memory, num_streams=2)
        try:
            failing = pool.submit(bad, [addrs[0], addrs[1]])  # round-robin: stream 0
            dependent = pool.submit(good, [addrs[1], addrs[2]])
            assert failing in dependent.deps
            with pytest.raises(VMError, match="out of bounds"):
                failing.wait()
            with pytest.raises(VMError, match="dependency"):
                dependent.wait()
            with pytest.raises(VMError):
                failing.stream.synchronize()
        finally:
            pool.shutdown()

    def test_conservative_fallback_serializes(self):
        # A program whose view pointer is computed (not a bare parameter)
        # defeats range analysis and must serialize against everything.
        pb = ProgramBuilder("opaque", grid=[2, 2])
        src_ptr = pb.param("src", pointer(float16))
        dst_ptr = pb.param("dst", pointer(float16))
        bi, bj = pb.block_indices()
        g_src = pb.view_global(src_ptr + 0, dtype=float16, shape=[ROWS, COLS])
        g_dst = pb.view_global(dst_ptr, dtype=float16, shape=[ROWS, COLS])
        tile = pb.load_global(g_src, layout=spatial(8, 4), offset=[bi * 8, bj * 4])
        pb.store_global(tile, g_dst, offset=[bi * 8, bj * 4])
        opaque = pb.finish()
        assert launch_ranges(opaque, [0, 4096])[0][1] == float("inf")

        clear = transform_program("clear", 2.0, 0.0)
        memory = GlobalMemory(1 << 22)
        _, addrs = upload_buffers(memory, 4)
        with StreamPool(memory, num_streams=2) as pool:
            first = pool.submit(clear, [addrs[0], addrs[1]])  # round-robin: stream 0
            blocked = pool.submit(opaque, [addrs[2], addrs[3]])
            assert first in blocked.deps
            pool.synchronize()


class TestRuntimeIntegration:
    def test_runtime_async_launch_roundtrip(self):
        rt = Runtime(dram_bytes=1 << 22)
        program = transform_program("rt_async", 2.0, 1.0)
        rng = np.random.default_rng(5)
        data = float16.quantize(rng.standard_normal((ROWS, COLS)))
        src = rt.upload(data, float16)
        dst = rt.empty([ROWS, COLS], float16)
        handle = rt.launch(program, [src, dst], stream="auto")
        handle.wait()
        want = float16.quantize(data.astype(np.float64) * 2 + 1)
        assert np.array_equal(rt.download(dst, [ROWS, COLS], float16), want)
        # Runtime stats aggregate the per-stream counters.
        assert rt.stats().blocks_run == 4
        assert rt.cache.misses == 1
        rt.stream_pool().shutdown()

    def test_program_order_across_sync_launch_and_download(self):
        """Un-synchronized streamed launches are visible to a following
        synchronous launch and to ``download``: both are drain points."""
        rt = Runtime(dram_bytes=1 << 22)
        program = transform_program("order", 2.0, 1.0)
        rng = np.random.default_rng(6)
        data = float16.quantize(rng.standard_normal((ROWS, COLS)))
        src = rt.upload(data, float16)
        mid, dst, other = (rt.empty([ROWS, COLS], float16) for _ in range(3))
        once = float16.quantize(data.astype(np.float64) * 2 + 1)
        twice = float16.quantize(once.astype(np.float64) * 2 + 1)

        streamed = rt.launch(program, [src, mid], stream="auto")
        assert not streamed.done
        rt.launch(program, [mid, dst])  # synchronous: reads the streamed output
        assert streamed.done
        assert np.array_equal(rt.download(dst, [ROWS, COLS], float16), twice)

        pending = rt.launch(program, [src, other], stream="auto")
        assert not pending.done
        assert np.array_equal(rt.download(other, [ROWS, COLS], float16), once)
        assert pending.done

    def test_streamed_splitk_matches_single_launch_pair(self):
        """ops.QuantizedLinear's one-stream-per-slice split-k path must be
        bit-exact with the classic partial+reduce launch pair."""
        from repro import ops

        rng = np.random.default_rng(11)
        m, n, k, sk = 16, 16, 64, 2
        a = rng.standard_normal((m, k))
        w = rng.standard_normal((k, n))
        cfg = MatmulConfig(16, 8, 16, split_k=sk)
        linear = ops.prepare_linear(w, int6, group_size=32, config=cfg, streams=sk)
        try:
            streamed = linear(a)
            pool = linear.runtime.stream_pool()
            assert pool.launches == sk + 1  # sk slices + 1 reduce
        finally:
            linear.runtime.stream_pool().shutdown()

        rt = Runtime()
        scheme = QuantScheme(int6, group_size=32)
        q, scales = quantize_weight(w, scheme)
        packed = transform_weight(q, int6, matmul_layouts(cfg, int6).b_warp)
        args = [
            rt.upload(float16.quantize(a), float16),
            rt.upload(packed, uint8),
            rt.upload(float16.quantize(scales), float16),
            rt.empty([sk, m, n], float32),
            rt.empty([m, n], float16),
        ]
        rt.launch(
            splitk_partial_program(m, n, k, float16, scheme, cfg), args[:4]
        )
        rt.launch(splitk_reduce_program(m, n, sk, float16), args[3:])
        classic = rt.download(args[4], [m, n], float16)
        assert np.array_equal(streamed, classic)

    def test_streamed_splitk_replays_its_graph_with_buffers_rebound(self):
        """Later calls at one row count replay the captured fan-out with
        the a/p/c buffers rebound: bit-exact with eager issue of the
        same calls (``use_graphs=False``)."""
        from repro import ops

        rng = np.random.default_rng(12)
        w = rng.standard_normal((64, 16))
        cfg = MatmulConfig(16, 8, 16, split_k=2)
        calls = [rng.standard_normal((8, 64)) for _ in range(3)]
        outs = {}
        for use_graphs in (True, False):
            linear = ops.prepare_linear(w, int6, group_size=32, config=cfg, streams=2)
            linear.use_graphs = use_graphs
            try:
                outs[use_graphs] = [linear(a) for a in calls]
                if use_graphs:
                    assert linear._graphs[8].replays == len(calls)
            finally:
                linear.runtime.stream_pool().shutdown()
        for graphed, eager in zip(outs[True], outs[False]):
            assert np.array_equal(graphed, eager)
        assert not np.array_equal(outs[True][0], outs[True][1])

    @staticmethod
    def _decode_simulator(num_streams: int):
        from repro import ops
        from repro.llm import ContinuousBatchingSimulator, GEMMA2_9B, ServingConfig
        from repro.dtypes import uint4
        from repro.perf import L40S

        rng = np.random.default_rng(2)
        linear = ops.prepare_linear(rng.standard_normal((64, 16)), int6, group_size=32)
        return ContinuousBatchingSimulator(
            GEMMA2_9B,
            ServingConfig("tilus", uint4, L40S),
            max_batch=4,
            decode_linear=linear,
            num_streams=num_streams,
        )

    def test_batching_simulator_issues_decode_kernels_on_streams(self):
        """llm.batching's reference path (``num_streams=0``): every decode
        step launches one ``program_for(1)`` kernel per in-flight request
        on the pool, and the step's barrier runs them as one stacked
        group."""
        from repro.llm import Request

        sim = self._decode_simulator(num_streams=0)
        runtime = sim.decode_linear.runtime
        try:
            result = sim.run([Request(0.0, 32, 4) for _ in range(3)])
            assert result.kernel_launches == 3 * 4
            pool = runtime.stream_pool()
            assert pool.launches == result.kernel_launches
            assert pool.executions < pool.launches
            # The analytical accounting is unchanged by kernel issue.
            assert result.total_tokens == 3 * (32 + 4)
        finally:
            runtime.stream_pool().shutdown()

    def test_batching_simulator_decode_step_is_one_launch(self):
        """The served path: a decode step is one synchronous
        ``program_for(max_batch)`` launch over the slot rows — no stream
        pool, no per-request launch — and its digests are the reference
        path's."""
        from repro.llm import Request

        trace = [Request(0.0, 32, 4, rid=i) for i in range(3)]
        sim = self._decode_simulator(num_streams=4)
        runtime = sim.decode_linear.runtime
        result = sim.run(trace)
        # Three admissions, then four steps with all three in flight.
        assert result.kernel_launches == runtime.context.launches == 4
        assert runtime._pool is None
        assert result.total_tokens == 3 * (32 + 4)
        reference = self._decode_simulator(num_streams=0).run(trace)
        assert [r.output_digest for r in result.results] == [
            r.output_digest for r in reference.results
        ]
