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
"""

import numpy as np
import pytest

from repro.compiler.lower import LoweringBailout, lower_program
from repro.dtypes import float16, int64, uint4, uint8
from repro.errors import VMError
from repro.ir import instructions as insts
from repro.ir.types import MemoryScope, TensorType
from repro.lang import ProgramBuilder, pointer
from repro.layout import local, spatial
from repro.vm import BatchedExecutor, GlobalMemory

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
