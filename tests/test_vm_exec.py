"""The VM interpreter: control flow, transfers, pipelining, masking."""

import io

import numpy as np
import pytest

from repro.dtypes import float16, float32, int32, uint8
from repro.errors import VMError
from repro.lang import ProgramBuilder, pointer
from repro.layout import local, spatial
from repro.runtime import Runtime
from repro.vm import BatchedExecutor, GlobalMemory, Interpreter, select_engine


def run_simple(build_body, m=16, n=16, grid=None):
    """Helper: build a program over one f16[m, n] tensor and run it."""
    pb = ProgramBuilder("t", grid=grid or [1])
    ptr = pb.param("p", pointer(float16))
    g = pb.view_global(ptr, dtype=float16, shape=[m, n])
    build_body(pb, g)
    prog = pb.finish()
    interp = Interpreter()
    data = float16.quantize(np.random.default_rng(0).standard_normal((m, n)))
    addr = interp.upload(data, float16)
    interp.launch(prog, [addr])
    return data, interp.download(addr, [m, n], float16), interp


class TestControlFlow:
    def test_for_accumulates(self):
        def body(pb, g):
            acc = pb.allocate_register(float32, layout=spatial(4, 4), init=0.0)
            with pb.for_range(5):
                tile = pb.load_global(g, layout=spatial(4, 4), offset=[0, 0])
                tile32 = pb.cast(tile, float32)
                pb.add(acc, tile32, out=acc)
            out = pb.cast(acc, float16)
            pb.store_global(out, g, offset=[0, 0])

        before, after, _ = run_simple(body)
        assert np.allclose(after[:4, :4], float16.quantize(before[:4, :4] * 5), atol=0.05)

    def test_if_else_on_block_index(self):
        def body(pb, g):
            bi, = pb.block_indices()
            r = pb.allocate_register(float16, layout=spatial(4, 4), init=0.0)
            with pb.if_then(bi.equals(0)):
                r2 = pb.add(r, 1.0)
                pb.store_global(r2, g, offset=[0, 0])
            with pb.otherwise():
                r3 = pb.add(r, 2.0)
                pb.store_global(r3, g, offset=[4, 0])

        before, after, _ = run_simple(body, grid=[2])
        assert (after[:4, :4] == 1.0).all()
        assert (after[4:8, :4] == 2.0).all()

    def test_while_with_break(self):
        pb = ProgramBuilder("w", grid=[1])
        ptr = pb.param("p", pointer(float16))
        g = pb.view_global(ptr, dtype=float16, shape=[4, 4])
        i = pb.assign("i32", 0)
        r = pb.allocate_register(float16, layout=spatial(4, 4), init=0.0)
        with pb.while_loop(wrap_true()):
            pb.add(r, 1.0, out=r)
            pb.break_()
        pb.store_global(r, g, offset=[0, 0])
        prog = pb.finish()
        interp = Interpreter()
        addr = interp.upload(np.zeros((4, 4)), float16)
        interp.launch(prog, [addr])
        assert (interp.download(addr, [4, 4], float16) == 1.0).all()

    def test_continue_skips(self):
        pb = ProgramBuilder("c", grid=[1])
        ptr = pb.param("p", pointer(float16))
        g = pb.view_global(ptr, dtype=float16, shape=[4, 4])
        r = pb.allocate_register(float16, layout=spatial(4, 4), init=0.0)
        with pb.for_range(4) as i:
            with pb.if_then((i % 2).equals(0)):
                pb.continue_()
            pb.add(r, 1.0, out=r)
        pb.store_global(r, g, offset=[0, 0])
        prog = pb.finish()
        interp = Interpreter()
        addr = interp.upload(np.zeros((4, 4)), float16)
        interp.launch(prog, [addr])
        assert (interp.download(addr, [4, 4], float16) == 2.0).all()

    def test_exit_stops_block(self):
        def body(pb, g):
            r = pb.allocate_register(float16, layout=spatial(4, 4), init=5.0)
            pb.exit()
            pb.store_global(r, g, offset=[0, 0])  # unreachable

        before, after, _ = run_simple(body)
        assert np.array_equal(before, after)


class TestGrid:
    def test_every_block_runs(self):
        def body(pb, g):
            bi, bj = pb.block_indices()
            r = pb.allocate_register(float16, layout=spatial(4, 4), init=0.0)
            r2 = pb.add(r, bi * 4 + bj + 1)
            pb.store_global(r2, g, offset=[bi * 4, bj * 4])

        before, after, interp = run_simple(body, grid=[4, 4])
        assert interp.stats.blocks_run == 16
        for bi in range(4):
            for bj in range(4):
                assert (after[bi * 4 : bi * 4 + 4, bj * 4 : bj * 4 + 4] == bi * 4 + bj + 1).all()

    def test_arg_count_checked(self):
        pb = ProgramBuilder("args", grid=[1])
        pb.param("p", pointer(float16))
        prog = pb.finish()
        with pytest.raises(VMError):
            Interpreter().launch(prog, [])


class TestCopyAsyncStaging:
    def test_two_stage_pipeline(self):
        """Stage tiles through shared memory with explicit dst offsets."""
        pb = ProgramBuilder("stage", grid=[1])
        ptr = pb.param("p", pointer(float16))
        out_ptr = pb.param("q", pointer(float16))
        g = pb.view_global(ptr, dtype=float16, shape=[4, 8, 8])
        out = pb.view_global(out_ptr, dtype=float16, shape=[4, 8, 8])
        smem = pb.allocate_shared(float16, [2, 8, 8])
        with pb.for_range(4) as k:
            pb.copy_async(smem, g, src_offset=[k, 0, 0], dst_offset=[k % 2, 0, 0], shape=[8, 8])
            pb.copy_async_commit_group()
            pb.copy_async_wait_group(0)
            pb.synchronize()
            tile = pb.load_shared(smem, layout=spatial(8, 4).local(1, 2), offset=[k % 2, 0, 0])
            pb.store_global(tile, out, offset=[k, 0, 0])
        prog = pb.finish()
        interp = Interpreter()
        data = float16.quantize(np.random.default_rng(1).standard_normal((4, 8, 8)))
        a = interp.upload(data, float16)
        b = interp.alloc_output([4, 8, 8], float16)
        interp.launch(prog, [a, b])
        assert np.array_equal(interp.download(b, [4, 8, 8], float16), data)
        assert interp.stats.copy_async_issued == 4

    def test_zfill_out_of_bounds(self):
        pb = ProgramBuilder("zfill", grid=[1])
        ptr = pb.param("p", pointer(float16))
        g = pb.view_global(ptr, dtype=float16, shape=[4, 4])
        smem = pb.allocate_shared(float16, [8, 4])
        pb.copy_async(smem, g, src_offset=[0, 0], shape=[8, 4])  # reads past row 3
        pb.copy_async_commit_group()
        pb.copy_async_wait_group(0)
        tile = pb.load_shared(smem, layout=spatial(8, 4), offset=[0, 0])
        pb.store_global(tile, g, offset=[0, 0])  # OOB rows dropped? no: in-bounds 8x4 won't fit
        prog = pb.finish()
        interp = Interpreter()
        data = float16.quantize(np.ones((4, 4)))
        a = interp.upload(data, float16)
        with pytest.raises(VMError):
            interp.launch(prog, [a])  # the final unmasked store is OOB


class TestMasking:
    def test_masked_load_zero_fills(self):
        pb = ProgramBuilder("mask", grid=[1])
        ptr = pb.param("p", pointer(float16))
        out_ptr = pb.param("q", pointer(float16))
        g = pb.view_global(ptr, dtype=float16, shape=[3, 4])
        out = pb.view_global(out_ptr, dtype=float16, shape=[8, 4])
        tile = pb.load_global(g, layout=spatial(8, 4), offset=[0, 0], masked=True)
        pb.store_global(tile, out, offset=[0, 0])
        prog = pb.finish()
        interp = Interpreter()
        data = float16.quantize(np.ones((3, 4)))
        a = interp.upload(data, float16)
        b = interp.alloc_output([8, 4], float16)
        interp.launch(prog, [a, b])
        result = interp.download(b, [8, 4], float16)
        assert (result[:3] == 1.0).all()
        assert (result[3:] == 0.0).all()

    def test_masked_store_drops_oob(self):
        pb = ProgramBuilder("mstore", grid=[1])
        ptr = pb.param("p", pointer(float16))
        g = pb.view_global(ptr, dtype=float16, shape=[3, 4])
        r = pb.allocate_register(float16, layout=spatial(8, 4), init=7.0)
        pb.store_global(r, g, offset=[0, 0], masked=True)
        prog = pb.finish()
        interp = Interpreter()
        a = interp.upload(np.zeros((3, 4)), float16)
        interp.launch(prog, [a])
        assert (interp.download(a, [3, 4], float16) == 7.0).all()

    def test_broadcast_load(self):
        pb = ProgramBuilder("bcast", grid=[1])
        ptr = pb.param("p", pointer(float16))
        out_ptr = pb.param("q", pointer(float16))
        g = pb.view_global(ptr, dtype=float16, shape=[1, 4])
        out = pb.view_global(out_ptr, dtype=float16, shape=[8, 4])
        tile = pb.load_global(g, layout=spatial(8, 4), offset=[0, 0], broadcast_dims=[0])
        pb.store_global(tile, out, offset=[0, 0])
        prog = pb.finish()
        interp = Interpreter()
        row = float16.quantize(np.array([[1.0, 2.0, 3.0, 4.0]]))
        a = interp.upload(row, float16)
        b = interp.alloc_output([8, 4], float16)
        interp.launch(prog, [a, b])
        result = interp.download(b, [8, 4], float16)
        assert np.array_equal(result, np.tile(row, (8, 1)))


class TestDebug:
    def test_print_tensor(self):
        buf = io.StringIO()
        pb = ProgramBuilder("dbg", grid=[1])
        r = pb.allocate_register(float16, layout=spatial(4, 4), init=1.5)
        pb.print_tensor(r, message="acc")
        prog = pb.finish()
        interp = Interpreter(stdout=buf)
        interp.launch(prog, [])
        text = buf.getvalue()
        assert "acc" in text and "1.5" in text

    def test_stats_collected(self):
        def body(pb, g):
            tile = pb.load_global(g, layout=spatial(4, 4), offset=[0, 0])
            pb.store_global(tile, g, offset=[4, 0])

        _, _, interp = run_simple(body)
        assert interp.stats.global_bits_loaded == 16 * 16
        assert interp.stats.global_bits_stored == 16 * 16
        assert interp.stats.instructions >= 3


class TestBatchedDebug:
    """Per-block PrintTensor buffering in the grid-vectorized engine."""

    @staticmethod
    def _print_program(grid=(2, 3), th=4, tw=4):
        """A multi-block debug kernel: prints a block-dependent register
        tile twice (once inside a loop) and stores a result."""
        gb, gw = grid
        pb = ProgramBuilder("dbg_grid", grid=[gb, gw])
        in_ptr = pb.param("in0", pointer(float16))
        out_ptr = pb.param("out0", pointer(float16))
        bi, bj = pb.block_indices()
        rows, cols = gb * th, gw * tw
        g_in = pb.view_global(in_ptr, dtype=float16, shape=[rows, cols])
        g_out = pb.view_global(out_ptr, dtype=float16, shape=[rows, cols])
        tile = pb.load_global(g_in, layout=spatial(th, tw), offset=[bi * th, bj * tw])
        pb.print_tensor(tile, message="loaded")
        cur = tile
        with pb.for_range(2):
            cur = pb.mul(cur, 2.0)
            pb.print_tensor(cur, message="scaled")
        pb.store_global(cur, g_out, offset=[bi * th, bj * tw])
        return pb.finish(), (rows, cols)

    def _run(self, engine_cls):
        prog, (rows, cols) = self._print_program()
        out = io.StringIO()
        memory = GlobalMemory(1 << 20)
        host = Interpreter(memory)
        data = float16.quantize(np.random.default_rng(7).standard_normal((rows, cols)))
        args = [host.upload(data, float16), host.alloc_output([rows, cols], float16)]
        engine = engine_cls(memory, stdout=out)
        engine.launch(prog, args)
        return out.getvalue(), host.download(args[1], [rows, cols], float16)

    def test_batched_print_matches_sequential_capture(self):
        # The buffered batched output must equal the sequential engine's
        # interleaving character for character: all of block 0's prints
        # (program order), then block 1's, and so on.
        seq_text, seq_out = self._run(lambda m, stdout: Interpreter(m, stdout=stdout))
        bat_text, bat_out = self._run(lambda m, stdout: BatchedExecutor(m, stdout=stdout))
        assert seq_text == bat_text
        assert seq_text.count("loaded") == 6 and seq_text.count("scaled") == 12
        assert np.array_equal(seq_out, bat_out)

    def test_print_programs_now_select_batched(self):
        # Debug programs batch: the auto policy no longer forces them
        # onto the sequential engine.
        prog, _ = self._print_program()
        assert select_engine(prog) == "batched"


class TestBatchedAllocateGlobal:
    """The vectorized per-block workspace allocator must be address-
    deterministic across engines, and every engine frees a launch's
    workspace spans when the launch ends."""

    @staticmethod
    def _workspace_program(gb=3, gw=2, th=4, tw=4):
        """Each block round-trips its tile through a private global
        workspace allocation before storing ``tile + 1``."""
        pb = ProgramBuilder("wsalloc", grid=[gb, gw])
        in_ptr = pb.param("in0", pointer(float16))
        out_ptr = pb.param("out0", pointer(float16))
        bi, bj = pb.block_indices()
        rows, cols = gb * th, gw * tw
        g_in = pb.view_global(in_ptr, dtype=float16, shape=[rows, cols])
        g_out = pb.view_global(out_ptr, dtype=float16, shape=[rows, cols])
        ws = pb.allocate_global(float16, [th, tw])
        tile = pb.load_global(g_in, layout=spatial(th, tw), offset=[bi * th, bj * tw])
        pb.store_global(tile, ws, offset=[0, 0])
        staged = pb.load_global(ws, layout=spatial(th, tw), offset=[0, 0])
        bumped = pb.add(staged, 1.0)
        pb.store_global(bumped, g_out, offset=[bi * th, bj * tw])
        return pb.finish(), (rows, cols)

    def _run(self, engine_cls):
        prog, (rows, cols) = self._workspace_program()
        memory = GlobalMemory(1 << 20)
        host = Interpreter(memory)
        data = float16.quantize(np.random.default_rng(3).standard_normal((rows, cols)))
        args = [host.upload(data, float16), host.alloc_output([rows, cols], float16)]
        engine = engine_cls(memory)
        live = dict(memory._allocations)
        engine.launch(prog, args)
        assert memory._allocations == live  # the launch freed its spans
        # The spans it reserved, by aligned size, in the order it freed them.
        reserved = {size: list(addrs) for size, addrs in memory._free.items()}
        return host.download(args[1], [rows, cols], float16), reserved

    def test_allocation_addresses_deterministic_across_engines(self):
        seq_out, seq_allocs = self._run(Interpreter)
        bat_out, bat_allocs = self._run(BatchedExecutor)
        # Same addresses, same sizes, same outputs: the batched engine's
        # single alloc_n reservation reproduces the sequential engine's
        # per-block alloc loop exactly.
        assert seq_allocs == bat_allocs and len(seq_allocs) == 1
        assert np.array_equal(seq_out, bat_out)

    @pytest.mark.parametrize("engine", ["sequential", "batched"])
    def test_workspace_spans_do_not_outlive_their_launch(self, engine):
        """A 100-launch soak on one runtime: device memory use and the
        live-allocation count after every launch equal the first's."""
        prog, (rows, cols) = self._workspace_program()
        rt = Runtime(engine=engine)
        data = float16.quantize(np.random.default_rng(3).standard_normal((rows, cols)))
        args = [rt.upload(data, float16), rt.empty([rows, cols], float16)]
        memory = rt.memory
        held = None
        for _ in range(100):
            rt.launch(prog, args)
            held = held or (memory.used_bytes, len(memory._allocations))
            assert (memory.used_bytes, len(memory._allocations)) == held
        assert held[1] == 2  # the two tensors the host allocated


def wrap_true():
    from repro.ir import wrap

    return wrap(True)
