"""Small shared utilities: the sub-byte bit helpers and index math."""

from repro.utils.bits import bit_mask, extract_bits, insert_bits
from repro.utils.indexmath import ceil_div, gcd, prod, ravel_index, unravel_index

__all__ = [
    "bit_mask",
    "extract_bits",
    "insert_bits",
    "ceil_div",
    "gcd",
    "prod",
    "ravel_index",
    "unravel_index",
]
