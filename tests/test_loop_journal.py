"""The shared-memory journal of a distributed ``cp.async`` ring.

A k-loop that copies global tiles into a ring of shared slots and reads
them back distributes (:class:`repro.vm.batched.Journal`): its copies run
once on every iteration's rows into a journal, each shared read gathers
the state its place in the serial order sees, and the last state is
written back.  Every ring here must leave the sequential oracle's bytes
and ``ExecutionStats`` on the batched engine and on the compiled tier,
alone (and, at three stages, as a stack of two launches) — and both
tiers must have taken the journal.
"""

from unittest import mock

import numpy as np
import pytest

from repro.compiler.lower import lower_program
from repro.dtypes import float16, uint8
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial
from repro.vm import BatchedExecutor, GlobalMemory, Interpreter, batched

ROWS, COLS, STEPS = 16, 32, 6


def ring_program(stages: int, variant: str):
    """``out = f16(sum over STEPS of f32(2 * slot) + bytes)`` over a 2 x 2
    grid, each step reading the f16 slot ``t % stages`` of a shared ring
    the copies fill ``stages - 1`` steps ahead (and a u8 ring beside it);
    after the loop one more slot is read.  ``variant``:

    - ``ring``: the ring as the matmul template writes it;
    - ``guarded``: the f16 copy sits under an ``if`` that differs by block
      row, so some blocks read a slot an earlier step left;
    - ``prologue``: an extra slot only the prologue writes, read every step;
    - ``overlap``: a second copy rewrites half of the slot the first one
      just filled, from other columns, in the same step;
    - ``refill``: a copy after the reads rewrites half of the slot just
      read, which the step's reads must not see.
    """
    pb = ProgramBuilder(f"ring_{stages}_{variant}", grid=[2, 2])
    a_ptr = pb.param("a", pointer(float16))
    b_ptr = pb.param("b", pointer(uint8))
    out_ptr = pb.param("out", pointer(float16))
    bi, bj = pb.block_indices()
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
    g_b = pb.view_global(b_ptr, dtype=uint8, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, 8])
    slots = stages + (variant == "prologue")
    sa = pb.allocate_shared(float16, [slots, 8, 4])
    sb = pb.allocate_shared(uint8, [stages, 8, 4])
    acc = pb.allocate_register("f32", layout=spatial(8, 4), init=0.0)

    def col(step):
        return (step * 4 + bj * 4) % COLS

    for s in range(stages - 1):
        pb.copy_async(sa, g_a, src_offset=[bi * 8, col(s)], dst_offset=[s, 0, 0], shape=[8, 4])
        pb.copy_async(sb, g_b, src_offset=[bi * 8, col(s)], dst_offset=[s, 0, 0], shape=[8, 4])
        pb.copy_async_commit_group()
    if variant == "prologue":
        pb.copy_async(sa, g_a, src_offset=[bi * 8, 28], dst_offset=[stages, 0, 0], shape=[8, 4])
    with pb.for_range(STEPS) as t:
        pb.copy_async_wait_group(stages - 2)
        pb.synchronize()
        tile = pb.load_shared(sa, layout=spatial(8, 4), offset=[t % stages, 0, 0])
        raw = pb.load_shared(sb, layout=spatial(8, 4), offset=[t % stages, 0, 0])
        if variant == "prologue":
            extra = pb.load_shared(sa, layout=spatial(8, 4), offset=[stages, 0, 0])
        if variant == "refill":
            pb.copy_async(
                sa, g_a, src_offset=[bi * 8, col(t + 5)], dst_offset=[t % stages, 4, 0],
                shape=[4, 4],
            )
        nxt = t + (stages - 1)
        cond = nxt < STEPS
        if variant == "guarded":
            cond = (nxt + bi) % 3 != 0
        with pb.if_then(cond):
            pb.copy_async(
                sa, g_a, src_offset=[bi * 8, col(nxt)], dst_offset=[nxt % stages, 0, 0],
                shape=[8, 4],
            )
        with pb.if_then(nxt < STEPS):
            pb.copy_async(
                sb, g_b, src_offset=[bi * 8, col(nxt)], dst_offset=[nxt % stages, 0, 0],
                shape=[8, 4],
            )
            if variant == "overlap":
                pb.copy_async(
                    sa, g_a, src_offset=[bi * 8, col(nxt + 3)],
                    dst_offset=[nxt % stages, 2, 0], shape=[4, 4],
                )
        pb.copy_async_commit_group()
        value = pb.add(pb.cast(pb.mul(tile, 2.0), "f32"), pb.cast(raw, "f32"))
        if variant == "prologue":
            value = pb.add(value, pb.cast(extra, "f32"))
        pb.add(acc, value, out=acc)
        pb.synchronize()
    after = pb.load_shared(sa, layout=spatial(8, 4), offset=[1 % stages, 0, 0])
    result = pb.add(pb.cast(acc, "f16"), after)
    pb.store_global(result, g_out, offset=[bi * 8, bj * 4])
    return pb.finish()


def image(stack: int):
    """A fresh device: ``a``, ``b`` and one output per launch."""
    memory = GlobalMemory(1 << 20)
    host = Interpreter(memory)
    rng = np.random.default_rng(7)
    a = host.upload(float16.quantize(rng.standard_normal((ROWS, COLS))), float16)
    b = host.upload(rng.integers(0, 256, (ROWS, COLS)), uint8)
    return memory, host, [[a, b, host.alloc_output([ROWS, 8], float16)] for _ in range(stack)]


def on_every_tier(program, stack: int):
    """Bytes and stats of ``stack`` launches on the oracle, the batched
    engine and the compiled tier; the batched engine's journal count and
    the compiled kernel."""
    results = {}
    memory, host, args_list = image(stack)
    for args in args_list:
        host.launch(program, args)
    results["sequential"] = (memory.buffer.copy(), host.stats.snapshot())
    memory, host, args_list = image(stack)
    with mock.patch.object(
        batched.Journal, "write_back", autospec=True, side_effect=batched.Journal.write_back
    ) as written:
        stats = BatchedExecutor(memory).launch_many(program, args_list)
    results["batched"] = (memory.buffer.copy(), stats.snapshot())
    memory, host, args_list = image(stack)
    kernel = lower_program(program, args_list[0], memory, launches=stack)
    stats = kernel.run_many(memory, args_list)
    results["compiled"] = (memory.buffer.copy(), stats.snapshot())
    return results, written.call_count, kernel


VARIANTS = ["ring", "guarded", "prologue", "overlap", "refill"]


@pytest.mark.parametrize("stages, variant, stack", [
    *((stages, variant, 1) for stages in (2, 3, 4) for variant in VARIANTS),
    *((3, variant, 2) for variant in VARIANTS),
])
def test_a_ring_reads_what_the_serial_loop_reads(stages, variant, stack):
    program = ring_program(stages, variant)
    results, journals, kernel = on_every_tier(program, stack)
    want_bytes, want_stats = results["sequential"]
    for tier in ("batched", "compiled"):
        got_bytes, got_stats = results[tier]
        assert np.array_equal(got_bytes, want_bytes), tier
        assert got_stats == want_stats, tier
    assert journals == 1
    assert kernel.source.count("_jnl(") == 1


def test_the_journal_is_bounded():
    """A loop whose states would outgrow the bound runs serially."""
    program = ring_program(2, "ring")
    with mock.patch.object(batched, "_JOURNAL_BYTES_KEPT", 0):
        results, journals, kernel = on_every_tier(program, 1)
    assert journals == 0 and "_jnl(" not in kernel.source
    assert all(np.array_equal(results[t][0], results["sequential"][0]) for t in results)
