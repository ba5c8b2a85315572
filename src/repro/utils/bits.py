"""Bit-level helpers for the compact sub-byte storage scheme.

Paper Section 7.1: values narrower than 8 bits are stored back to back
with no padding, so a single value may straddle a byte boundary (Figure
8).  The VM's own storage is ``vm/memory.py``'s bit views; here are the
register ``View``'s regrouping (:func:`regroup_patterns`) and the
Figure 8 load / store paths (:func:`extract_bits` / :func:`insert_bits`),
LSB-first within each byte: the value at element index ``k`` occupies
absolute bit positions ``[k * nbits, (k + 1) * nbits)`` of the byte
stream.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataTypeError


def bit_mask(nbits: int) -> int:
    """Return an integer with the lowest ``nbits`` bits set."""
    if nbits < 0:
        raise DataTypeError(f"bit_mask: nbits must be non-negative, got {nbits}")
    return (1 << nbits) - 1


def expand_regroup(patterns: np.ndarray, old_nbits: int, new_nbits: int) -> np.ndarray:
    """:func:`regroup_patterns` by expansion to single bits: any row
    width.  The reference the word path is tested against."""
    lead = patterns.shape[:-1]
    bit_idx = np.arange(old_nbits, dtype=np.uint64)
    bits = (patterns[..., None] >> bit_idx) & np.uint64(1)
    if new_nbits == 1:
        return bits.reshape(lead + (-1,))
    weights = np.uint64(1) << np.arange(new_nbits, dtype=np.uint64)
    grouped = bits.reshape(lead + (-1, new_nbits))
    return (grouped * weights).sum(axis=-1, dtype=np.uint64)


def regroup_patterns(patterns: np.ndarray, old_nbits: int, new_nbits: int) -> np.ndarray:
    """Re-read rows of bit patterns under a new element width (the
    register ``View``: same bits, new grouping).

    Each row of the last axis holds ``old_l`` patterns of ``old_nbits``
    bits, LSB first and back to back; the result holds the same
    ``old_l * old_nbits`` bits as ``new_l`` patterns of ``new_nbits``.
    Rows of at most 64 bits pack into one ``uint64`` word and the new
    fields are shifted and masked out of it; when the old elements are
    bytes (packed weights viewed as a sub-byte type) the word is their
    reinterpretation, no arithmetic at all.  Wider rows go through
    :func:`expand_regroup`, and so does ``new_nbits == 1`` — the single
    bits the interpreters store registers as *are* the expansion.
    """
    patterns = np.asarray(patterns, dtype=np.uint64)
    row_bits = patterns.shape[-1] * old_nbits
    if row_bits % new_nbits:
        raise DataTypeError(
            f"regroup_patterns: {row_bits}-bit rows do not divide into "
            f"{new_nbits}-bit elements"
        )
    if row_bits > 64 or new_nbits == 1:
        return expand_regroup(patterns, old_nbits, new_nbits)
    if old_nbits == 8:
        # A row of bytes *is* its word, little-endian: narrowing each
        # pattern to uint8 is the mask, viewing eight of them the shifts.
        raw = np.zeros(patterns.shape[:-1] + (8,), dtype=np.uint8)
        raw[..., : patterns.shape[-1]] = patterns
        word = raw.view("<u8")
    else:
        starts = np.arange(patterns.shape[-1], dtype=np.uint64) * np.uint64(old_nbits)
        # Masked like the expansion path, which never reads past old_nbits.
        kept = patterns & np.uint64(bit_mask(old_nbits))
        word = np.bitwise_or.reduce(kept << starts, axis=-1, keepdims=True)
    fields = np.arange(row_bits // new_nbits, dtype=np.uint64) * np.uint64(new_nbits)
    return (word >> fields) & np.uint64(bit_mask(new_nbits))


def extract_bits(data: np.ndarray, bit_offset: int, nbits: int) -> int:
    """Extract ``nbits`` starting at absolute ``bit_offset`` from a byte stream.

    Implements the load path of paper Figure 8(b): AND to select bits,
    SHIFT to align, OR to merge parts that straddle byte boundaries.
    """
    data = np.ascontiguousarray(data).reshape(-1).astype(np.uint8)
    result = 0
    taken = 0
    while taken < nbits:
        byte_idx = (bit_offset + taken) // 8
        bit_in_byte = (bit_offset + taken) % 8
        take = min(8 - bit_in_byte, nbits - taken)
        part = (int(data[byte_idx]) >> bit_in_byte) & bit_mask(take)
        result |= part << taken
        taken += take
    return result


def insert_bits(data: np.ndarray, bit_offset: int, nbits: int, value: int) -> None:
    """Insert ``value`` (``nbits`` wide) at ``bit_offset``, in place.

    Implements the store path of paper Figure 8(c): clear the target bits
    with a mask, then OR in the new value while preserving neighbours.
    """
    if value >> nbits:
        raise DataTypeError(f"insert_bits: value {value} does not fit in {nbits} bits")
    written = 0
    while written < nbits:
        byte_idx = (bit_offset + written) // 8
        bit_in_byte = (bit_offset + written) % 8
        put = min(8 - bit_in_byte, nbits - written)
        part = (value >> written) & bit_mask(put)
        clear = ~(bit_mask(put) << bit_in_byte) & 0xFF
        data[byte_idx] = np.uint8((int(data[byte_idx]) & clear) | (part << bit_in_byte))
        written += put
