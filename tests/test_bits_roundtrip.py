"""Property-based roundtrip tests for sub-byte packing.

Covers the VM's sub-byte storage (every width 1..8, odd element counts),
:func:`repro.utils.bits.regroup_patterns` and
:mod:`repro.quant.packing` (tile transform/untransform for every sub-byte
and byte-aligned storage width).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import int_, uint
from repro.errors import DataTypeError
from repro.layout import spatial
from repro.quant.packing import transform_weight, untransform_weight
from repro.utils.bits import expand_regroup, extract_bits, regroup_patterns

from tests.helpers import random_values_for, stored


# ---------------------------------------------------------------------------
# the VM's sub-byte storage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 3, 5, 7, 9, 11, 13])
@pytest.mark.parametrize("nbits", range(1, 9))
def test_odd_element_counts_roundtrip(nbits, count):
    """Odd counts leave a partial last byte: it holds the tail and zeros."""
    values = (np.arange(count, dtype=np.uint64) * 7 + 3) % (1 << nbits)
    packed = stored(values, nbits)
    assert packed.shape == ((count * nbits + 7) // 8,)
    assert not np.unpackbits(packed, bitorder="little")[count * nbits:].any()


def test_little_matches_extract_bits():
    values = np.array([5, 0, 7, 2, 6, 1, 3], dtype=np.uint64)
    packed = stored(values, 3)
    for k, v in enumerate(values):
        assert extract_bits(packed, k * 3, 3) == int(v)


# ---------------------------------------------------------------------------
# quant.packing transform roundtrip
# ---------------------------------------------------------------------------


def _layout_for_width(nbits: int):
    """A 32-thread register layout whose per-thread bits are byte-aligned."""
    locals_needed = 8 // np.gcd(nbits, 8)
    return spatial(4, 8).local(1, int(locals_needed))


@settings(max_examples=60, deadline=None)
@given(
    nbits=st.integers(1, 8),
    signed=st.booleans(),
    tiles_k=st.integers(1, 2),
    tiles_n=st.integers(1, 2),
    seed=st.integers(0, 2**31 - 1),
)
def test_transform_untransform_roundtrip(nbits, signed, tiles_k, tiles_n, seed):
    if signed and nbits < 2:
        signed = False  # no 1-bit signed integer type
    dtype = int_(nbits) if signed else uint(nbits)
    layout = _layout_for_width(nbits)
    bk, bn = layout.shape
    rng = np.random.default_rng(seed)
    q = random_values_for(dtype, (tiles_k * bk, tiles_n * bn), rng)
    packed = transform_weight(q, dtype, layout)
    assert packed.dtype == np.uint8
    assert packed.shape == (tiles_k, tiles_n, layout.num_threads * layout.local_size * nbits // 8)
    restored = untransform_weight(packed, dtype, layout, tiles_k * bk, tiles_n * bn)
    assert np.array_equal(restored, q)


# ---------------------------------------------------------------------------
# regroup_patterns: the register View's bit regrouping
# ---------------------------------------------------------------------------

_WIDTHS = list(range(1, 9)) + [16]


@settings(max_examples=400, deadline=None)
@given(
    old_nbits=st.sampled_from(_WIDTHS),
    new_nbits=st.sampled_from(_WIDTHS),
    rows=st.integers(1, 5),
    repeat=st.integers(1, 4),
    dirty=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_regroup_word_path_agrees_with_bit_expansion(
    old_nbits, new_nbits, rows, repeat, dirty, seed
):
    """Every (old, new) width pair, on rows narrow enough for the packed
    word path and on wider ones: the result is the bit-expansion
    reference's, also when patterns carry bits above ``old_nbits``."""
    unit = np.lcm(old_nbits, new_nbits) // old_nbits  # smallest regroupable row
    old_l = int(unit) * repeat
    rng = np.random.default_rng(seed)
    high = 64 if dirty else old_nbits
    patterns = rng.integers(0, 1 << high, size=(rows, 3, old_l), dtype=np.uint64)
    got = regroup_patterns(patterns, old_nbits, new_nbits)
    want = expand_regroup(patterns, old_nbits, new_nbits)
    assert got.dtype == np.uint64
    assert got.shape == (rows, 3, old_l * old_nbits // new_nbits)
    assert np.array_equal(got, want)
    # Regrouping back restores the (masked) patterns.
    back = regroup_patterns(got, new_nbits, old_nbits)
    assert np.array_equal(back, patterns & np.uint64((1 << old_nbits) - 1))


def test_regroup_rejects_rows_that_do_not_divide():
    with pytest.raises(DataTypeError, match="do not divide"):
        regroup_patterns(np.zeros((2, 3), dtype=np.uint64), 6, 4)
