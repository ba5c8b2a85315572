"""The tile-semantics table (:mod:`repro.vm.tileops`) against the naive
sequential oracle.

The table is what both block-vectorised tiers call, so it is tested on
its own, below any engine: its bit-addressed gather/scatter pair against
:class:`repro.vm.memory.TensorView` run block by block (every element
width, unaligned and overlapping per-block bases, duplicate indices, a
partial ``select`` mask — block-major last-writer-wins), and the packed
register ``View`` (the regrouped bits of the engines' one register type,
:class:`repro.vm.batched.Register`) against
:class:`repro.vm.values.RegisterValue`'s bit-plane reinterpretation.  The oracle stays worth comparing against
only while it shares nothing with the table; the last test pins that.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vm
from repro.dtypes import bfloat16, float16, float32, float64, tfloat32, uint
from repro.dtypes.base import DataType
from repro.dtypes.registry import (
    all_weight_dtypes,
    int16,
    int32,
    int64,
    uint16,
    uint32,
    uint64,
)
from repro.errors import VMError
from repro.layout import local, mma_m16n8k16, spatial
from repro.layout.core import replicate
from repro.utils.bits import expand_regroup, regroup_patterns
from repro.vm import RegisterValue, TensorView, tileops
from repro.vm.batched import Register, TileWalk, View
from repro.vm.dispatch import bounds_mask

WIDTHS = (1, 2, 3, 4, 5, 6, 7, 8, 16, 32)
BUFFER_BYTES = 512
EXTENT = 24  # elements per 1-D view


@st.composite
def transfers(draw):
    """A stacked scatter/gather: per-block views of one buffer (bases may
    be unaligned and may overlap each other), (B, n) indices with
    duplicates, patterns, and a partial select mask."""
    nbits = draw(st.sampled_from(WIDTHS))
    nblocks = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    aligned = draw(st.booleans())
    span = (BUFFER_BYTES - 9) * 8 - EXTENT * nbits
    # Blocks' windows a few bits, a few elements or anywhere apart.
    spread = draw(st.sampled_from([7, 5 * nbits, span]))
    first = draw(st.integers(0, span))
    apart = draw(st.lists(st.integers(-spread, spread), min_size=nblocks, max_size=nblocks))
    base = np.clip(first + np.array(apart, dtype=np.int64), 0, span)
    if nbits % 8 == 0 and aligned:
        # The byte path resolves writers of the *same* address; blocks
        # whose multi-byte elements overlap partially (different element
        # grids) are a write race the SIMB contract leaves undefined, so
        # here all blocks share one grid.
        base -= base % nbits
    elif nbits % 8 == 0 and base[0] % 8 == 0:
        base[0] += 1  # one sub-byte skew sends every block down the bit path
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, EXTENT, size=(nblocks, n))
    patterns = rng.integers(0, 1 << nbits, size=(nblocks, n), dtype=np.uint64)
    select = rng.random((nblocks, n)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    background = rng.integers(0, 256, size=BUFFER_BYTES, dtype=np.uint8)
    return nbits, base, indices, patterns, select, background


@settings(max_examples=150, deadline=None)
@given(transfers())
def test_scatter_then_gather_match_the_sequential_oracle(case):
    nbits, base, indices, patterns, select, background = case
    dtype = uint(nbits)
    nblocks = base.shape[0]
    aligned = nbits % 8 == 0 and not (base % 8).any()
    msg = tileops.oob_message(dtype, (EXTENT,), BUFFER_BYTES)

    # Oracle: one block after another, each through its own TensorView.
    want = background.copy()
    for b in range(nblocks):
        if select[b].any():
            TensorView(want, int(base[b]), dtype, (EXTENT,)).scatter_bits(
                [indices[b][select[b]]], patterns[b][select[b]]
            )

    got = background.copy()
    selected = tileops.select_flat([indices], nblocks, select)
    assert (selected is None) == (not select.any())
    if selected is not None:
        flat, rows, mask = selected
        linear = tileops.linear_index((EXTENT,), dtype, flat)
        tileops.scatter(
            got, base[rows] + linear * nbits, patterns[mask], nbits, aligned, msg
        )
    assert np.array_equal(got, want)

    linear = tileops.linear_index((EXTENT,), dtype, [indices])
    gathered = tileops.gather(got, base[:, None] + linear * nbits, nbits, aligned, msg)
    for b in range(nblocks):
        oracle = TensorView(want, int(base[b]), dtype, (EXTENT,)).gather_bits([indices[b]])
        assert np.array_equal(gathered[b], oracle)


def test_linear_index_checks_neutralises_and_clips():
    dtype = uint(4)
    idx = [np.array([[0, 5], [9, 1]])]
    with pytest.raises(VMError, match=r"index out of bounds: \[0, 9\]"):
        tileops.linear_index((8,), dtype, idx)
    where = np.array([[True, True], [False, True]])
    assert tileops.linear_index((8,), dtype, idx, where=where).tolist() == [[0, 5], [0, 1]]
    assert tileops.linear_index((8,), dtype, idx, clip=True).tolist() == [[0, 5], [7, 1]]
    with pytest.raises(VMError, match="rank mismatch"):
        tileops.linear_index((8, 8), dtype, idx)


def test_out_of_buffer_access_is_a_vm_error_not_an_index_error():
    buf = np.zeros(16, dtype=np.uint8)
    msg = tileops.oob_message(uint(8), (4,), len(buf))
    addr = np.array([8 * 64], dtype=np.int64)
    with pytest.raises(VMError, match="addresses bytes outside its buffer"):
        tileops.gather(buf, addr, 8, True, msg)
    with pytest.raises(VMError, match="addresses bytes outside its buffer"):
        tileops.scatter(buf, addr, np.array([1], dtype=np.uint64), 3, False, msg)


# ---------------------------------------------------------------------------
# Register View: packed patterns vs the oracle's bit planes
# ---------------------------------------------------------------------------

VIEW_WIDTHS = (1, 2, 3, 4, 5, 6, 7, 8, 16)
THREADS, BLOCKS = 4, 3


def _walk() -> TileWalk:
    """The engine's walk over ``BLOCKS`` blocks, executing (its ``ops``
    is the table): all a register's twins need of it."""
    return TileWalk(BLOCKS, {}, (), tileops, None, None, None, None)


@pytest.mark.parametrize("old", VIEW_WIDTHS)
def test_view_round_trips_every_width_pair(old):
    rng = np.random.default_rng(old)
    walk = _walk()
    for new in VIEW_WIDTHS:
        unit = math.lcm(old, new)
        # One row that fits a 64-bit word when the pair allows it, and
        # one that cannot (the expansion path).
        for row_bits in {unit, unit * (64 // unit + 1)}:
            old_layout = local(row_bits // old).spatial(THREADS)
            new_layout = local(row_bits // new).spatial(THREADS)
            patterns = rng.integers(
                0, 1 << old, size=(BLOCKS, THREADS, row_bits // old), dtype=np.uint64
            )
            value = Register(uint(old), old_layout, bits=patterns)
            tileops.check_view(value.dtype, value.layout, uint(new), new_layout)
            viewed = Register(uint(new), new_layout, bits=walk.regrouped(value, new))
            assert viewed.bits.shape == (BLOCKS, THREADS, row_bits // new)
            for b in range(BLOCKS):
                oracle = RegisterValue.from_patterns(uint(old), old_layout, patterns[b])
                assert np.array_equal(
                    viewed.bits[b],
                    oracle.view(uint(new), new_layout).thread_patterns(),
                ), (old, new, row_bits)
            assert np.array_equal(walk.regrouped(viewed, old), patterns), (old, new, row_bits)


def test_view_of_the_same_width_is_zero_cost():
    patterns = np.arange(BLOCKS * THREADS * 2, dtype=np.uint64).reshape(BLOCKS, THREADS, 2)
    value = Register(uint(8), local(2).spatial(THREADS), bits=patterns)
    assert _walk().regrouped(value, 8) is patterns


def test_divergent_merge_regroups_the_old_value():
    """Inactive blocks keep their old bits even when the variable was last
    bound under another element width."""
    rng = np.random.default_rng(0)
    walk = _walk()
    old = Register(
        uint(4), local(4).spatial(THREADS),
        bits=rng.integers(0, 16, size=(BLOCKS, THREADS, 4), dtype=np.uint64),
    )
    new = Register(
        uint(8), local(2).spatial(THREADS),
        bits=rng.integers(0, 256, size=(BLOCKS, THREADS, 2), dtype=np.uint64),
    )
    active = np.array([True, False, True])
    walk.bind_tensor("r", old, np.ones(BLOCKS, dtype=bool))
    walk.bind_tensor("r", new, active)
    expected = np.where(active[:, None, None], new.bits, walk.regrouped(old, 8))
    assert np.array_equal(walk.env["r"].bits, expected)
    unset = Register(
        uint(8), local(3).spatial(THREADS),
        bits=tileops.filled(uint(8), (BLOCKS, THREADS, 3), None),
    )
    assert not unset.bits.any()
    walk.bind_tensor("r", unset, np.ones(BLOCKS, dtype=bool))
    with pytest.raises(VMError, match="bits-per-thread mismatch"):
        walk.bind_tensor("r", new, active)


# ---------------------------------------------------------------------------
# requantize: the rounding a forwarded register keeps instead of packing
# ---------------------------------------------------------------------------

CODECS = all_weight_dtypes() + [
    float16, bfloat16, float32,
    int16, int32, int64, uint16, uint32, uint64,
]  # fmt: skip

#: What a codec must get right however it is written: signed zeros,
#: infinities, NaNs (quiet, signalling, payload in the low and the high
#: mantissa bits), subnormals of f64 / f32 / f16, ties and the first value
#: past every narrow type's range.
_F64_PATTERNS = [
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001, 0x7FF4000000000000,
    0x7FFFFFFFFFFFFFFF, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
]  # fmt: skip
_F64_VALUES = [
    1e-46, -1.4e-45, 5.9e-8, 6e-8, -2.98e-8, 0.5, 1.5, 2.5, -3.5, 448.0, 464.0,
    65504.0, 65519.9, 65520.0, -65536.0, 3.4028235e38, 3.5e38, -1e300, 2.0**63, -(2.0**63),
]  # fmt: skip
SPECIALS = np.concatenate(
    [np.array(_F64_PATTERNS, dtype=np.uint64).view(np.float64), np.array(_F64_VALUES)]
)


def _bit_identical(got: np.ndarray, want: np.ndarray) -> bool:
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    )


@pytest.mark.parametrize("dtype", CODECS, ids=str)
@settings(max_examples=25, deadline=None)
@given(
    raw=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=24),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=24),
)
def test_requantize_is_bit_identical_to_the_codec_round_trip(dtype, raw, ints):
    """``requantize(d, x)`` is ``d.from_bits(d.to_bits(x))`` to the bit —
    values (NaN payloads and the sign of zero included) *and* numpy dtype
    — for float inputs drawn as raw 64-bit patterns, every special value,
    and integer-typed inputs; and packing the rounded values gives the
    patterns of the unrounded ones (what lets a compiled kernel pack a
    forwarded register late)."""
    floats = np.concatenate([np.array(raw, dtype=np.uint64).view(np.float64), SPECIALS])
    small = np.arange(-(1 << 9), 1 << 9, 37, dtype=np.int64)
    with np.errstate(all="ignore"):
        for values in (floats, np.concatenate([np.array(ints, dtype=np.int64), small])):
            values = values.reshape(1, -1, 1)  # any shape, like a register's
            want = dtype.from_bits(dtype.to_bits(values.reshape(-1))).reshape(values.shape)
            got = tileops.requantize(dtype, values)
            assert _bit_identical(got, want), dtype
            assert _bit_identical(got, tileops.decode(dtype, tileops.encode(dtype, values)))
            assert np.array_equal(
                tileops.encode(dtype, got), tileops.encode(dtype, values)
            ), dtype


# ---------------------------------------------------------------------------
# to_logical: one gather through the last-writer inverse
# ---------------------------------------------------------------------------


def _warp_shared(wm: int, wn: int):
    """``test_layout_replicate``'s A operand, shared across warp columns."""
    return (
        spatial(wm, 1).compose(replicate(wn, rank=2)).compose(local(1, 1))
        .compose(mma_m16n8k16().a_layout)
    )  # fmt: skip


REPLICATED = {
    "origin-only": replicate(6, rank=1),
    "origin-only-2d": replicate(4, rank=2),
    "replica-left": replicate(2, rank=1).compose(spatial(4)),
    "replica-right": spatial(4).compose(replicate(2, rank=1)),
    "fluent": spatial(2, 1).replicate(3),
    "warp-shared-2x2": _warp_shared(2, 2),
    "warp-shared-1x4": _warp_shared(1, 4),
    "bijective": local(2, 2).spatial(4, 8),
}


@pytest.mark.parametrize("name", REPLICATED)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nblocks=st.integers(1, 3))
def test_gather_form_to_logical_is_the_scatter_form(name, seed, nblocks):
    """Every replica holds a *different* value, so the two forms agree
    only if the gather reads, element by element, the slot whose write
    the scatter keeps — the last writer in thread-major order."""
    layout = REPLICATED[name]
    shape3 = (nblocks, layout.num_threads, layout.local_size)
    values = np.random.default_rng(seed).permutation(int(np.prod(shape3))).reshape(shape3)
    shape = (nblocks,) + tuple(layout.shape)
    scatter = tileops.to_logical(values, shape, tileops.logical_index(layout, nblocks))
    inverse = tileops.logical_inverse(layout)
    assert inverse is tileops.logical_inverse(layout)  # computed once per layout
    gathered = tileops.gather_logical(values, shape, inverse)
    assert gathered.dtype == scatter.dtype and np.array_equal(gathered, scatter)
    # ... and it is what the sequential oracle assembles, block by block.
    for b in range(nblocks):
        oracle = RegisterValue.from_patterns(uint(32), layout, values[b].astype(np.uint64))
        assert np.array_equal(oracle.to_logical(), scatter[b])


#: Every layout above, and the kinds the kernel templates and the harness
#: generators build: MMA operands and thread-local runs.
HARNESS_LAYOUTS = {
    **REPLICATED,
    **{f"mma-{name}": getattr(mma_m16n8k16(), f"{name}_layout") for name in "abc"},
    "local-runs": spatial(8, 4).local(1, 2),
    "column-runs": local(2, 1).spatial(4, 8),
}


@pytest.mark.parametrize("name", HARNESS_LAYOUTS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nblocks=st.integers(1, 3))
def test_register_values_off_a_logical_tensor_are_one_gather(name, seed, nblocks):
    """A register's values read back off its logical tensor: one gather
    through the layout's slot table is the ``(block, *coords)`` fancy
    index — replicas read the element they replicate."""
    layout = HARNESS_LAYOUTS[name]
    shape3 = (nblocks, layout.num_threads, layout.local_size)
    logical = np.random.default_rng(seed).permutation(nblocks * layout.size).reshape(
        (nblocks,) + tuple(layout.shape)
    )
    fancy = logical[tileops.logical_index(layout, nblocks)].reshape(shape3)
    slots = tileops.logical_slots(layout)
    assert slots is tileops.logical_slots(layout) and not slots.flags.writeable
    got = tileops.gather_logical(logical, shape3, slots)
    assert got.dtype == fancy.dtype and np.array_equal(got, fancy)


# ---------------------------------------------------------------------------
# Instruction selection: each cheap form against the definition it replaces
# ---------------------------------------------------------------------------

NARROW = all_weight_dtypes()  # every registry dtype of at most 8 bits
DESTINATIONS = CODECS + [float64, tfloat32]


def _arithmetic_cast(src, dst, patterns: np.ndarray) -> np.ndarray:
    """``Cast`` as the handler computes it on a decoded register."""
    values = tileops.decode(src, patterns)
    if dst.is_integer and src.is_float:
        values = np.trunc(values)
    return tileops.requantize(dst, values)


@pytest.mark.parametrize("src", NARROW, ids=str)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(*[st.integers(1, 4)] * 3))
def test_cast_table_is_the_arithmetic_cast_on_every_pattern(src, seed, shape):
    """One ``take`` through ``cast_table(src, dst)`` is ``requantize(dst,
    trunc?(decode(src, bits)))`` — on all ``2**nbits`` patterns and on a
    register-shaped draw, for every destination, bit for bit on the
    result's 64-bit image (NaN payloads, the sign of zero) and in dtype."""
    assert src.nbits <= 8
    every = np.arange(1 << src.nbits, dtype=np.uint64)
    drawn = np.random.default_rng(seed).integers(0, 1 << src.nbits, size=shape, dtype=np.uint64)
    with np.errstate(all="ignore"):
        for dst in DESTINATIONS:
            table = tileops.cast_table(src, dst)
            assert table is tileops.cast_table(src, dst)  # built once per pair
            assert table.shape == (1 << src.nbits,) and not table.flags.writeable
            for patterns in (every, drawn):
                got = tileops.take_table(table, patterns)
                assert _bit_identical(got, _arithmetic_cast(src, dst, patterns)), (src, dst)


@settings(max_examples=100, deadline=None)
@given(
    old_l=st.integers(1, 8),
    new=st.integers(1, 8),
    lead=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_byte_rows_regroup_by_reinterpretation_like_the_expansion(old_l, new, lead, seed):
    """``regroup_patterns`` from 8-bit elements (the word is the bytes,
    viewed) equals ``expand_regroup``, whatever sits above bit 7."""
    if (old_l * 8) % new:
        return
    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 256, size=lead + (old_l,), dtype=np.uint64)
    garbage = rng.integers(0, 1 << 56, size=patterns.shape, dtype=np.uint64) << np.uint64(8)
    got = regroup_patterns(patterns | garbage, 8, new)
    want = expand_regroup(patterns, 8, new)
    assert got.dtype == np.uint64 and got.shape == want.shape and np.array_equal(got, want)


@st.composite
def masked_tiles(draw):
    """A masked load's operands: per-block views of one buffer and (B, n)
    — or (1, n), broadcast over blocks — 2-D indices straying out of the
    view on every side; some blocks' bases are 0 (inactive blocks)."""
    nbits = draw(st.sampled_from(WIDTHS))
    nblocks = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    rows = 1 if draw(st.booleans()) else nblocks
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (3, 5)
    low, high = draw(st.sampled_from([(0, 3), (-2, 7), (5, 9)]))  # all valid / mixed / none
    indices = [rng.integers(low, high, size=(rows, n)), rng.integers(low, high, size=(rows, n))]
    room = BUFFER_BYTES - 8 - math.prod(shape) * 4  # the widest view plus a sub-byte window
    base = rng.integers(0, room, size=nblocks) * (rng.random(nblocks) < 0.7)
    background = rng.integers(0, 256, size=BUFFER_BYTES, dtype=np.uint8)
    return uint(nbits), nblocks, shape, indices, base.astype(np.int64), background


@settings(max_examples=150, deadline=None)
@given(masked_tiles())
def test_live_lane_zfill_gather_is_the_clipped_gather_masked(case):
    """``gather_zfill`` gathers only the in-bounds lanes and places them
    into zeros; it must read what gathering every clipped lane and
    ``where``-ing the strays away read — and no memory at all when the
    whole tile is out of bounds."""
    dtype, nblocks, shape, indices, base, background = case
    walk = TileWalk(nblocks, {}, (), tileops, None, None, None, None)
    view = View(background, base, dtype, shape, BUFFER_BYTES)
    valid = bounds_mask(indices, shape)
    clipped = walk.gather(view, tileops.linear_index(shape, dtype, indices, clip=True))
    want = np.where(valid, clipped, np.uint64(0))
    got = walk.gather_zfill(view, indices)
    assert got.dtype == np.uint64 and got.shape == want.shape == (nblocks, valid.shape[1])
    assert np.array_equal(got, want)
    if not valid.any():
        unreadable = View(None, base, dtype, shape, BUFFER_BYTES)
        assert not walk.gather_zfill(unreadable, indices).any()


class _Excess4(DataType):
    """A 4-bit offset-binary integer: pattern ``p`` is ``p - 8``, so the
    zero pattern a masked-out lane holds decodes to -8, not 0."""

    def __init__(self) -> None:
        super().__init__(name="x4", nbits=4)

    @property
    def is_integer(self) -> bool:
        return True

    min_value, max_value = -8, 7

    def to_bits(self, values):
        values = np.clip(np.rint(np.asarray(values, dtype=np.float64)), -8, 7)
        return (values.astype(np.int64) + 8).astype(np.uint64)

    def from_bits(self, bits):
        return np.asarray(bits, dtype=np.uint64).astype(np.int64) - 8


LIVE_DTYPES = CODECS + [_Excess4()]


def _random_mask(layout, rows: int, rng, live: float) -> np.ndarray:
    """``(rows, T * L)`` valid lanes, ``live`` of them on average — and in
    row 0, every replica that is not its element's writer live while the
    writer is masked out (the element must keep the zero pattern)."""
    valid = rng.random((rows, layout.num_threads * layout.local_size)) < live
    slots, inverse = tileops.logical_slots(layout), tileops.logical_inverse(layout)
    for slot, writer in enumerate(inverse[slots]):
        if writer != slot:
            valid[0, slot], valid[0, writer] = True, False
    return valid


@pytest.mark.parametrize("name", REPLICATED)
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 6),
    live=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_the_live_lane_logical_tensor_is_the_placed_one_laid_out(name, seed, rows, live):
    """A masked load's register holds its live lanes; its logical twin —
    one scatter of their decoded values into the decoded zero pattern,
    rows in any order — is ``gather_logical(decode(place(valid, live)))``
    bit for bit and in dtype, for every registry dtype (and one whose
    zero pattern is not 0) on every replicated layout."""
    layout = REPLICATED[name]
    rng = np.random.default_rng(seed)
    valid = _random_mask(layout, rows, rng, live)
    shape3 = (rows, layout.num_threads, layout.local_size)
    shape = (rows,) + tuple(layout.shape)
    order = rng.permutation(rows)
    walk = TileWalk(rows, {}, (), tileops, None, None, None, None)
    for dtype in LIVE_DTYPES:
        patterns = rng.integers(
            0, 1 << min(dtype.nbits, 63), size=int(valid.sum()), dtype=np.uint64
        )
        with np.errstate(all="ignore"):
            placed = tileops.decode(dtype, tileops.place(valid, patterns)).reshape(shape3)
            want = tileops.gather_logical(placed, shape, tileops.logical_inverse(layout))
            register = Register(dtype, layout, live=(valid, patterns))
            assert _bit_identical(walk.logical(register), want), dtype
            assert np.array_equal(
                walk.bits(register), tileops.place(valid, patterns).reshape(shape3)
            )
            reordered = Register(dtype, layout, live=(valid, patterns))
            assert _bit_identical(walk.live_logical(reordered, order), want[order]), dtype


@pytest.mark.parametrize("name", REPLICATED)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6))
def test_a_masked_store_packs_the_selected_lanes_of_a_logical_tensor(name, seed, rows):
    """A register held only as a logical tensor — rounded, or unrounded
    (a ``Cast`` result) — gives a masked store just the
    lanes it writes: ``encode(vals)[select]``, the packing of the whole
    register cut to the selected lanes, for every registry dtype."""
    layout = REPLICATED[name]
    rng = np.random.default_rng(seed)
    shape3 = (rows, layout.num_threads, layout.local_size)
    shape = (rows,) + tuple(layout.shape)
    select = _random_mask(layout, rows, rng, 0.5)
    walk = TileWalk(rows, {}, (), tileops, None, None, None, None)
    for dtype in LIVE_DTYPES:
        exact = rng.standard_normal(shape) * (1 << min(dtype.nbits, 16))
        with np.errstate(all="ignore"):
            rounded = tileops.requantize(dtype, exact)
            vals = tileops.gather_logical(rounded, shape3, tileops.logical_slots(layout))
            want = tileops.encode(dtype, vals).reshape(rows, -1)[select]
            for register in (
                Register(dtype, layout, logical=rounded),
                Register(dtype, layout, unrounded=exact),
            ):
                assert register.logical_only
                got = walk.written(register, select)
                assert got.dtype == want.dtype and np.array_equal(got, want), dtype
                assert register.vals is None and register.bits is None  # nothing else made


def test_the_live_positions_memo_is_bounded():
    """Every distinct mask a layout meets is one memo entry; a full memo
    is cleared, so a process that shows a long-lived layout ever more
    masks holds a bounded number of position tables, and a mask composed
    again after the clear gets the same positions."""
    layout = spatial(4).compose(replicate(2, rank=1))
    lanes = layout.num_threads * layout.local_size
    first = np.ones((1, lanes), dtype=bool)
    first[0, 0] = False
    want = [table.copy() for table in tileops.live_positions(first, layout) if table is not None]
    for rows in range(2, 3 * tileops._LIVE_POSITIONS_KEPT):
        valid = np.ones((rows, lanes), dtype=bool)
        valid[-1, 0] = False
        tileops.live_positions(valid, layout)
        assert len(tileops._live_positions(layout)) <= tileops._LIVE_POSITIONS_KEPT
    got = [table for table in tileops.live_positions(first, layout) if table is not None]
    assert len(got) == len(want) and all(map(np.array_equal, got, want))


@settings(max_examples=60, deadline=None)
@given(nbytes=st.integers(1, 8), n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_gather_bytes_from_the_first_lane_is_the_zero_seeded_loop(nbytes, n, seed):
    rng = np.random.default_rng(seed)
    buf = rng.integers(0, 256, size=BUFFER_BYTES, dtype=np.uint8)
    addr = rng.integers(0, BUFFER_BYTES - 8, size=(2, n))
    want = np.zeros(addr.shape, dtype=np.uint64)
    for k in range(nbytes):
        want |= buf[addr + k].astype(np.uint64) << np.uint64(8 * k)
    got = tileops.gather_bytes(buf, addr, nbytes, "{}")
    assert got.dtype == np.uint64 and np.array_equal(got, want)
    with pytest.raises(VMError, match="out of bounds"):
        tileops.gather_bytes(buf, addr + BUFFER_BYTES, nbytes, "{}")


def test_kernel_namespace_binds_table_functions():
    """A kernel calls the table by the names in ``KERNEL_NAMESPACE``:
    each names one distinct table function, the effects are among them,
    and the scatter form ``to_logical``, which no handler emits, has no
    name (a handler that called it would bail out of lowering)."""
    functions = list(tileops.KERNEL_NAMESPACE.values())
    assert len(set(functions)) == len(functions)
    assert all(getattr(tileops, fn.__name__) is fn for fn in functions)
    assert tileops.KERNEL_EFFECTS <= set(tileops.KERNEL_NAMESPACE)
    assert tileops.to_logical not in functions


# ---------------------------------------------------------------------------
# Oracle independence
# ---------------------------------------------------------------------------

ORACLE = ("interp", "values", "memory")
SHARED_TABLE = {"tileops", "batched"}


def _vm_imports(module: str) -> set:
    """Names of the ``repro.vm`` submodules ``module`` imports, anywhere
    in its source (function-level imports included)."""
    tree = ast.parse((Path(repro.vm.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[:2] == ["repro", "vm"] and len(parts) > 2:
                found.add(parts[2])
    return {name for name in found if (Path(repro.vm.__file__).parent / f"{name}.py").exists()}


def test_the_sequential_oracle_does_not_import_the_shared_table():
    """``vm/interp.py``, ``vm/values.py`` and ``vm/memory.py`` — and
    whatever of ``repro.vm`` they import — never reach ``vm/tileops.py``
    or ``vm/batched.py``: the oracle states the semantics independently."""
    reached, frontier = set(), list(ORACLE)
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier.extend(_vm_imports(module))
    assert not reached & SHARED_TABLE, sorted(reached)
    assert {"tileops"} <= _vm_imports("batched")  # the helper does see imports
