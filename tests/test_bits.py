"""Sub-byte bit packing and extraction (paper Section 7.1, Figure 8): the
VM's compact storage and the load / store paths of Figure 8."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataTypeError
from repro.utils.bits import bit_mask, extract_bits, insert_bits

from tests.helpers import stored


class TestBitMask:
    def test_zero(self):
        assert bit_mask(0) == 0

    def test_small(self):
        assert bit_mask(1) == 1
        assert bit_mask(3) == 0b111
        assert bit_mask(8) == 0xFF

    def test_large(self):
        assert bit_mask(64) == (1 << 64) - 1

    def test_negative_rejected(self):
        with pytest.raises(DataTypeError):
            bit_mask(-1)


class TestPackUnpack:
    """Figure 8's compact layout, as the VM stores it: LSB first, back to
    back, no padding, read back unchanged."""

    def test_simple_4bit(self):
        assert stored([0x1, 0x2, 0x3, 0x4], 4).tolist() == [0x21, 0x43]

    def test_straddling_5bit(self):
        # Three 5-bit values: 15 bits across two bytes.
        assert stored([0b10101, 0b01010, 0b11111], 5).tolist() == [0b01010101, 0b01111101]

    def test_single_bit(self):
        assert stored([1, 0, 1, 1, 0, 0, 1, 0, 1], 1).tolist() == [0b01001101, 0b1]

    @given(
        nbits=st.integers(1, 8),
        data=st.lists(st.integers(0, 2**8 - 1), min_size=1, max_size=64),
    )
    @settings(max_examples=60)
    def test_roundtrip(self, nbits, data):
        values = np.array([v & bit_mask(nbits) for v in data], dtype=np.uint64)
        packed = stored(values, nbits)
        for k, v in enumerate(values):
            assert extract_bits(packed, k * nbits, nbits) == int(v)

    @given(nbits=st.integers(1, 8), count=st.integers(1, 40))
    @settings(max_examples=40)
    def test_packing_is_compact(self, nbits, count):
        """No padding bits between consecutive values."""
        packed = stored(np.full(count, bit_mask(nbits), dtype=np.uint64), nbits)
        total_bits = count * nbits
        # Every bit below total_bits is 1, everything above is 0.
        bits = np.unpackbits(packed, bitorder="little")
        assert bits[:total_bits].all()
        assert not bits[total_bits:].any()


class TestExtractInsert:
    def test_figure8_example(self):
        """b[1] spans two bytes (paper Figure 8): 5-bit elements."""
        data = np.zeros(2, dtype=np.uint8)
        insert_bits(data, 5, 5, 0b10110)  # element index 1 of int5 array
        assert extract_bits(data, 5, 5) == 0b10110
        # Neighbouring elements untouched.
        assert extract_bits(data, 0, 5) == 0
        assert extract_bits(data, 10, 5) == 0

    def test_insert_preserves_neighbours(self):
        data = np.full(3, 0xFF, dtype=np.uint8)
        insert_bits(data, 7, 6, 0)
        assert extract_bits(data, 7, 6) == 0
        assert extract_bits(data, 0, 7) == bit_mask(7)
        assert extract_bits(data, 13, 8) == 0xFF

    def test_insert_overflow_rejected(self):
        data = np.zeros(1, dtype=np.uint8)
        with pytest.raises(DataTypeError):
            insert_bits(data, 0, 3, 8)

    @given(
        nbits=st.integers(1, 16),
        index=st.integers(0, 20),
        value=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=60)
    def test_roundtrip(self, nbits, index, value):
        value &= bit_mask(nbits)
        data = np.zeros(48, dtype=np.uint8)
        insert_bits(data, index * nbits, nbits, value)
        assert extract_bits(data, index * nbits, nbits) == value
