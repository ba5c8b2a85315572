"""The profiling subsystem: per-launch recording across every execution
mode (a replayed launch records like an eager one).  A profile is an
in-process record; nothing serializes or ships it."""

import numpy as np

from repro.dtypes import float16
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.runtime import Profile, Runtime, StreamPool
from repro.vm import GlobalMemory, Interpreter

ROWS, COLS = 16, 8


def work_program(name: str, steps: int = 2):
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
        assert node.engine == "batched"
        assert node.program == "sync"
        assert node.calls == 2
        assert node.wall_s > 0.0
        assert node.instructions > 0
        assert node.blocks == 8  # 2 launches x 4 blocks
        assert node.global_bits_loaded > 0 and node.global_bits_stored > 0

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
        """The stream a launch names is no part of its profile site: a
        streamed launch records under its spec and tier, as any other."""
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
        # do: the four independent launches stack into one invocation,
        # whatever stream each named; the dependent launch runs alone.
        # All five share one specialization, so one site records them.
        assert chained.deps
        (node,) = profile.nodes.values()
        assert (node.engine, node.calls) == ("batched", 5)
        assert node.group_size == 1  # the most recent invocation: the chained launch

    def test_graph_replay_records_one_site_per_node(self):
        """A replayed launch records like a drained eager one: under its
        spec string, with the engine that ran it — so three
        specializations are three sites, each keyed as the same launches
        issued eagerly are."""
        memory, _, pairs = device(3)
        programs = [work_program(f"graphed{i}") for i in range(3)]
        with StreamPool(memory, num_streams=2) as pool:
            with pool.capture() as graph:
                for prog, (a, out) in zip(programs, pairs):
                    pool.submit(prog, [a, out])
            pool.profiler = Profile()
            graph.replay()
            graph.replay()
            pool.synchronize()
            replayed = pool.profiler
            pool.profiler = Profile()
            for node in graph.nodes:
                pool.submit(node.program, node.args)
            pool.synchronize()
            eager = pool.profiler
        assert replayed.nodes.keys() == eager.nodes.keys()
        for node in graph.nodes:
            (site,) = [
                rec for rec in replayed.nodes.values()
                if rec.spec == node.key
            ]
            assert site.calls == 2
            assert site.wall_s > 0.0

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
        assert sum(rec.calls for rec in profile.nodes.values()) == 2
        assert all(rec.group_size == 1 for rec in profile.nodes.values())

    def test_group_attribution_preserves_exact_totals(self):
        # Splitting a coalesced invocation across 3 members must not
        # truncate counters: 100 instructions stay 100 in aggregate.
        from repro.runtime.profiling import split_counts

        shares = split_counts({"instructions": 100, "blocks_run": 7}, 3)
        assert sum(s["instructions"] for s in shares) == 100
        assert sum(s["blocks_run"] for s in shares) == 7
        profile = Profile()
        profile.record_group(
            "p", ["s1", "s2", "s3"], "batched", 0.3,
            stats_delta={"instructions": 100},
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
            stats = pool.stats
            recorded = sum(
                n.instructions for n in pool.profiler.nodes.values()
            )
            assert recorded == stats.instructions
