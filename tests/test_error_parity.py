"""The interpreted and the compiled tier fail alike.

Every check of the tile-semantics table (:mod:`repro.vm.tileops`) is
reached from one handler per instruction, which the batched engine runs
on arrays and the lowering pipeline on names — so a check raises the
same message on both.  One the launch's constants decide is a ``VMError``
from :meth:`BatchedExecutor.launch` and, at compile time, a
:class:`LoweringBailout` that says the runtime error is deterministic and
hands the launch back to the engine that reproduces it; one a pointer
argument decides (a view past the buffer) is compiled *into* the kernel,
which raises it at the launch that trips it.  One case per check.  (The
sequential oracle words the index errors per block — ``[8, 15]`` where
the stacked tiers report ``[0, 15]`` — the documented difference; it is
not part of this assertion.)

The cheap forms instruction selection picks (``docs/jit.md``) sit in the
same handlers, so they are held to the same rule at the end of the file:
a masked load gathers only its in-bounds lanes — a valid lane behind a
bad pointer still fails alike on both tiers, a masked-out one fails on
neither — and a narrow ``Cast`` that became a table lookup reads a
divergently merged register exactly as the oracle does.
"""

import numpy as np
import pytest

from repro.compiler.lower import LoweringBailout, lower_program
from repro.dtypes import float16, int4, int64, uint4, uint8
from repro.errors import VMError
from repro.ir import instructions as insts
from repro.ir.types import MemoryScope, TensorType
from repro.lang import ProgramBuilder, pointer
from repro.layout import local, spatial
from repro.vm import BatchedExecutor, GlobalMemory, Interpreter

ROWS, COLS = 8, 4
SHARED_CAPACITY = 1024


def _tile_program(name, body):
    """Two blocks over an ``f16[ROWS, COLS]`` input and output; ``body``
    gets the builder, the block index and the two global views."""
    pb = ProgramBuilder(name, grid=[2])
    a_ptr = pb.param("a", pointer(float16))
    out_ptr = pb.param("out", pointer(float16))
    (bi,) = pb.block_indices()
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[ROWS, COLS])
    body(pb, bi, g_a, g_out)
    return pb.finish()


def _oob_load(pb, bi, g_a, g_out):
    # Block 1's tile starts at row 8 of an 8-row tensor.
    tile = pb.load_global(g_a, layout=spatial(ROWS, COLS), offset=[bi * ROWS, 0])
    pb.store_global(tile, g_out, offset=[0, 0])


def _oob_store(pb, bi, g_a, g_out):
    tile = pb.load_global(g_a, layout=spatial(ROWS, COLS), offset=[0, 0])
    pb.store_global(tile, g_out, offset=[bi * ROWS, 0])


def _shared_exhaustion(pb, bi, g_a, g_out):
    pb.allocate_shared(float16, [256])  # 512 B of the 1024 B capacity
    pb.allocate_shared(float16, [384])  # 768 B more


def _view_mismatch(pb, bi, g_a, g_out):
    # The builder type-checks ``view``; an instruction built by hand (a
    # transform pass could) reaches the table's own check.
    tile = pb.load_global(g_a, layout=spatial(ROWS, COLS), offset=[0, 0])
    layout = local(1, 3).spatial(ROWS, COLS)  # 24 bits per thread, not 16
    out = pb._fresh_tensor(TensorType(MemoryScope.REGISTER, uint8, layout.shape, layout), "r")
    pb._emit(insts.View(tile, out))


def _lookup_program():
    """Constant code 9 into a table whose (parameter) extent is 4."""
    pb = ProgramBuilder("lookup_range", grid=[2])
    t_ptr = pb.param("table", pointer(float16))
    extent = pb.param("extent", int64)
    table = pb.view_global(t_ptr, dtype=float16, shape=[extent])
    codes = pb.allocate_register(uint4, layout=spatial(ROWS, COLS), init=9)
    pb.lookup(codes, table)
    return pb.finish()


def _no_body(pb, bi, g_a, g_out):
    """The two ``ViewGlobal`` of :func:`_tile_program` are the program."""


def _image():
    memory = GlobalMemory(1 << 16)
    a = memory.upload(np.arange(ROWS * COLS, dtype=np.float64).reshape(ROWS, COLS), float16)
    out = memory.alloc_output([ROWS, COLS], float16)
    return memory, a, out


CASES = {
    "load-out-of-bounds": (
        lambda: _tile_program("oob_load", _oob_load),
        lambda memory, a, out: [a, out],
        "index out of bounds: [0, 15] not within [0, 8) for tensor f16[8, 4]",
    ),
    "store-out-of-bounds": (
        lambda: _tile_program("oob_store", _oob_store),
        lambda memory, a, out: [a, out],
        "index out of bounds: [0, 15] not within [0, 8) for tensor f16[8, 4]",
    ),
    "shared-memory-exhausted": (
        lambda: _tile_program("shared_exhaustion", _shared_exhaustion),
        lambda memory, a, out: [a, out],
        "shared memory exhausted: requested 768 B, 512 B free of 1024 B",
    ),
    "lookup-code-out-of-range": (
        _lookup_program,
        lambda memory, a, out: [a, 4],
        "lookup code 9 exceeds table of 4",
    ),
    "view-global-beyond-the-buffer": (
        lambda: _tile_program("view_past_end", _no_body),
        lambda memory, a, out: [a, memory.capacity],
        "tensor view [f16[8, 4]] at bit offset 524288 exceeds its buffer: "
        "needs 524800 bits, buffer has 524288",
    ),
    "view-bits-per-thread-mismatch": (
        lambda: _tile_program("view_mismatch", _view_mismatch),
        lambda memory, a, out: [a, out],
        "view: bits-per-thread mismatch: 16 -> 24",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_a_deterministic_error_reads_the_same_on_both_tiers(case):
    build, make_args, message = CASES[case]
    program = build()
    memory, a, out = _image()
    args = make_args(memory, a, out)
    before = memory.buffer.copy()
    with pytest.raises(VMError) as executed:
        BatchedExecutor(memory, shared_capacity=SHARED_CAPACITY).launch(program, args)
    assert str(executed.value) == message
    if case == "view-global-beyond-the-buffer":
        # Pointers stay symbolic: the kernel lowers (from a launch that
        # fits) and carries the check to whichever launch trips it.
        kernel = lower_program(program, [a, out], memory, shared_capacity=SHARED_CAPACITY)
        with pytest.raises(VMError) as compiled:
            kernel.run(memory, args)
        assert str(compiled.value) == message
    else:
        with pytest.raises(LoweringBailout) as lowered:
            lower_program(program, args, memory, shared_capacity=SHARED_CAPACITY)
        assert str(lowered.value) == "deterministic runtime error: " + message
        assert isinstance(lowered.value.__cause__, VMError)
    assert np.array_equal(memory.buffer, before)  # neither tier wrote a byte


# ---------------------------------------------------------------------------
# Instruction selection keeps the checks and the values
# ---------------------------------------------------------------------------


def _masked_load(pb, bi, g_a, g_out):
    # Rows 4..11 of an 8-row tensor: the upper half of the tile is masked
    # out and reads as zero.
    tile = pb.load_global(g_a, layout=spatial(ROWS, COLS), offset=[4, 0], masked=True)
    pb.store_global(tile, g_out, offset=[0, 0])


def test_a_masked_load_fails_on_its_valid_lanes_only():
    program = _tile_program("masked_load", _masked_load)
    memory, a, out = _image()
    tile_bytes = ROWS * COLS * 2
    # ``a`` as the last tensor of the device: its masked-out rows would
    # address past the buffer, its valid rows do not.
    last = memory.capacity - tile_bytes
    memory.buffer[last : last + tile_bytes] = memory.buffer[a : a + tile_bytes]
    kernel = lower_program(program, [a, out], memory)
    want = np.zeros((ROWS, COLS))
    want[:4] = np.arange(ROWS * COLS).reshape(ROWS, COLS)[4:]
    for run in (BatchedExecutor(memory).launch, lambda p, args: kernel.run(memory, args)):
        memory.buffer[out : out + tile_bytes] = 0xFF
        run(program, [last, out])
        assert np.array_equal(memory.download(out, [ROWS, COLS], float16), want)
    # One row further and the view — valid lanes included — leaves the
    # buffer: the same error from both tiers, nothing written.
    before = memory.buffer.copy()
    message = (
        "tensor view [f16[8, 4]] at bit offset 523840 exceeds its buffer: "
        "needs 524352 bits, buffer has 524288"
    )
    for run in (BatchedExecutor(memory).launch, lambda p, args: kernel.run(memory, args)):
        with pytest.raises(VMError) as raised:
            run(program, [last + COLS * 2, out])
        assert str(raised.value) == message
        assert np.array_equal(memory.buffer, before)


def test_an_out_of_bounds_load_through_a_shared_pointer_fails_alike():
    """A stack of three launches reading one ``a``: what it loads
    through the shared pointer it loads once, on one launch's rows — and
    fails there with the class and message of the stack whose launches
    each read a private copy, on both tiers.  A constant index out of
    range is deterministic (``VMError`` / ``LoweringBailout``); a bad
    pointer is caught by the kernel at the launch that passes it."""
    memory, a, out = _image()
    tile_bytes = ROWS * COLS * 2
    copies = [a] + [memory.alloc_output([ROWS, COLS], float16) for _ in range(2)]
    outs = [out] + [memory.alloc_output([ROWS, COLS], float16) for _ in range(2)]
    for copy in copies[1:]:
        memory.buffer[copy : copy + tile_bytes] = memory.buffer[a : a + tile_bytes]
    forms = {  # shared pointer set -> the launches' ``a`` arguments
        (0,): [a, a, a],
        (): copies,
    }
    before = memory.buffer.copy()

    program = _tile_program("oob_load_stack", _oob_load)
    message = CASES["load-out-of-bounds"][2]
    for shared, sources in forms.items():
        args_list = [[src, dst] for src, dst in zip(sources, outs)]
        with pytest.raises(VMError) as executed:
            BatchedExecutor(memory).launch_many(program, args_list)
        with pytest.raises(LoweringBailout) as lowered:
            lower_program(program, args_list[0], memory, launches=3, shared=shared)
        assert str(executed.value) == message
        assert str(lowered.value) == "deterministic runtime error: " + message

    program = _tile_program("masked_load_stack", _masked_load)
    beyond = memory.capacity - tile_bytes + COLS * 2  # its valid rows leave the buffer
    failures = {  # a bad ``a`` -> the message of its view check
        beyond: "tensor view [f16[8, 4]] at bit offset 523840 exceeds its buffer: "
        "needs 524352 bits, buffer has 524288",
        -16: "tensor view [f16[8, 4]] starts before the buffer: bit offset -128 is negative",
    }
    for shared, sources in forms.items():
        fits = [[src, dst] for src, dst in zip(sources, outs)]
        kernel = lower_program(program, fits[0], memory, launches=3, shared=shared)
        assert kernel.shared == shared
        # A shared pointer is one number: its view is checked once.  (The
        # private ``dst`` differs per launch, so only ``p0`` can be.)
        assert ("_vgb(" in kernel.source) == bool(shared)
        kernel.run_many(memory, fits)
        memory.buffer[:] = before
        for bad, message in failures.items():
            trips = [[bad if shared else src, dst] for src, dst in zip(sources, outs)]
            trips[0][0] = bad
            for run in (
                lambda: BatchedExecutor(memory).launch_many(program, trips),
                lambda: kernel.run_many(memory, trips),
            ):
                with pytest.raises(VMError) as raised:
                    run()
                assert str(raised.value) == message
                assert np.array_equal(memory.buffer, before)


def _oob_in_a_loop(pb, bi, g_a, g_out):
    # Steps 0 and 1 read rows 0..7, step 2 rows 8..15 of an 8-row tensor.
    acc = pb.allocate_register(float16, layout=spatial(ROWS, COLS), init=0.0)
    with pb.for_range(4) as i:
        tile = pb.load_global(g_a, layout=spatial(ROWS, COLS), offset=[(i / 2) * ROWS, 0])
        pb.add(acc, tile, out=acc)
    pb.store_global(acc, g_out, offset=[0, 0])


def test_an_error_in_a_distributed_loop_is_the_serial_loops():
    """The loop's load runs early, once for all four steps — where its
    indices span ``[0, 15]``.  That fails, the walk forgets the attempt
    and runs the loop serially, so both tiers report step 2's ``[8, 15]``,
    exactly as the loop unrolled does."""
    from unittest import mock

    from repro.ir.stmt import ForStmt
    from repro.vm.batched import loop_split

    program = _tile_program("oob_loop", _oob_in_a_loop)
    (loop,) = [s for s in program.body.walk() if isinstance(s, ForStmt)]
    assert loop_split(loop) is not None
    memory, a, out = _image()
    before = memory.buffer.copy()
    message = "index out of bounds: [8, 15] not within [0, 8) for tensor f16[8, 4]"
    with pytest.raises(VMError) as executed:
        BatchedExecutor(memory).launch(program, [a, out])
    assert str(executed.value) == message
    reasons = []
    for split in (loop_split, lambda loop: None):  # distributed, then unrolled
        with mock.patch("repro.vm.batched.loop_split", split):
            with pytest.raises(LoweringBailout) as lowered:
                lower_program(program, [a, out], memory)
        assert isinstance(lowered.value.__cause__, VMError)
        reasons.append(str(lowered.value))
    assert reasons == ["deterministic runtime error: " + message] * 2
    assert np.array_equal(memory.buffer, before)


def test_a_lookup_in_a_distributed_loop_fails_on_the_serial_loops_code():
    """Codes are data, so the compiled kernel checks them at run time:
    step by step, so that of two bad codes — 9 at step 1, 12 at step 3 —
    it names the one the serial loop reaches first, as the engine does."""
    pb = ProgramBuilder("lookup_loop", grid=[2])
    t_ptr = pb.param("table", pointer(float16))
    c_ptr = pb.param("codes", pointer(uint4))
    extent = pb.param("extent", int64)
    table = pb.view_global(t_ptr, dtype=float16, shape=[extent])
    g_codes = pb.view_global(c_ptr, dtype=uint4, shape=[4 * ROWS, COLS])
    acc = pb.allocate_register(float16, layout=spatial(ROWS, COLS), init=0.0)
    with pb.for_range(4) as i:
        codes = pb.load_global(g_codes, layout=spatial(ROWS, COLS), offset=[i * ROWS, 0])
        pb.add(acc, pb.lookup(codes, table), out=acc)
    program = pb.finish()
    memory, a, out = _image()
    codes = np.zeros((4 * ROWS, COLS), dtype=np.int64)
    codes[ROWS + 3, 1], codes[3 * ROWS, 0] = 9, 12
    args = [a, memory.upload(codes, uint4), 8]
    kernel = lower_program(program, args, memory)
    for run in (BatchedExecutor(memory).launch, lambda p, args: kernel.run(memory, args)):
        with pytest.raises(VMError) as raised:
            run(program, args)
        assert str(raised.value) == "lookup code 9 exceeds table of 8"


def _merged_cast_program(rebind: str):
    """Two blocks; block 0 rebinds an ``i4`` register under ``if``, so
    what ``Cast`` reads is a divergent merge — packed bits only, in the
    ``view`` variant block 0's being a ``u8`` tile's patterns regrouped."""
    pb = ProgramBuilder(f"merged_cast_{rebind}", grid=[2])
    codes_ptr = pb.param("codes", pointer(int4))
    bytes_ptr = pb.param("bytes", pointer(uint8))
    out_ptr = pb.param("out", pointer(float16))
    (bi,) = pb.block_indices()
    g_codes = pb.view_global(codes_ptr, dtype=int4, shape=[ROWS, 2 * COLS])
    g_bytes = pb.view_global(bytes_ptr, dtype=uint8, shape=[ROWS, COLS])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[2 * ROWS, 2 * COLS])
    pairs = local(1, 2).spatial(ROWS, COLS)  # 8 bits per thread, like a u8 tile
    codes = pb.load_global(g_codes, layout=pairs, offset=[0, 0])
    merged = pb.add(codes, 1)
    with pb.if_then(bi.equals(0)):
        if rebind == "view":
            raw = pb.load_global(g_bytes, layout=spatial(ROWS, COLS), offset=[0, 0])
            pb._emit(insts.View(raw, merged))
        else:
            pb.sub(codes, 2, out=merged)
    pb.store_global(pb.cast(merged, float16), g_out, offset=[bi * ROWS, 0])
    return pb.finish()


@pytest.mark.parametrize("rebind", ["arithmetic", "view"])
def test_a_table_cast_reads_a_divergent_merge_like_the_oracle(rebind):
    program = _merged_cast_program(rebind)
    rng = np.random.default_rng(7)
    results = []
    for tier in ("sequential", "batched", "compiled"):
        memory = GlobalMemory(1 << 16)
        args = [
            memory.upload(rng.integers(-8, 8, size=(ROWS, 2 * COLS)), int4),
            memory.upload(rng.integers(0, 256, size=(ROWS, COLS)), uint8),
            memory.alloc_output([2 * ROWS, 2 * COLS], float16),
        ]
        rng = np.random.default_rng(7)  # every tier sees the same image
        if tier == "sequential":
            stats = Interpreter(memory).launch(program, args)
        elif tier == "batched":
            stats = BatchedExecutor(memory).launch(program, args)
        else:
            kernel = lower_program(program, args, memory)
            assert "_tab(" in kernel.source  # the cast is the lookup
            stats = kernel.run(memory, args)
        results.append((memory.buffer.copy(), stats.snapshot()))
    for buffer, stats in results[1:]:
        assert np.array_equal(buffer, results[0][0])
        assert stats == results[0][1]
    assert results[0][0].any()
