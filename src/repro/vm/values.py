"""Runtime values of the virtual machine.

The central type is :class:`RegisterValue`: a register tensor held as raw
*bits per thread*.  Each of the layout's ``num_threads`` threads owns
``local_size`` elements of ``dtype.nbits`` bits, stored compactly.  Keeping
bits (not values) is what makes ``View`` — the paper's zero-cost register
reinterpretation — faithful: a view re-reads the same bits under a new
element width and layout, exactly as the hardware registers would be
reinterpreted.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import DataType
from repro.errors import VMError
from repro.layout import Layout
from repro.utils.bits import regroup_patterns


def apply_elementwise(dtype: DataType, op: str, a: np.ndarray, b) -> np.ndarray:
    """Elementwise arithmetic in the decode domain, shared by both engines.

    ``a`` holds decoded values of ``dtype``; ``b`` is a scalar or an array
    already broadcast-compatible with ``a``.  Integer division truncates
    toward zero and modulo round-trips its quotient through the storage
    type (C semantics) — keeping this logic in ONE place is what lets the
    sequential and batched register values stay bit-exact with each other.
    """
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if dtype.is_integer:
            quotient = np.floor_divide(a, b)
            # C truncation toward zero for negative results.
            return np.where(
                (a % b != 0) & ((a < 0) != (np.asarray(b) < 0)), quotient + 1, quotient
            )
        return a / b
    if op == "%":
        if dtype.is_integer:
            # Mirror hardware: the quotient materializes in a register of
            # ``dtype`` before the multiply-subtract, so round-trip it
            # through the storage codec.
            quotient = dtype.quantize(apply_elementwise(dtype, "/", a, b))
            return a - np.asarray(quotient, dtype=a.dtype) * b
        return np.fmod(a, b)
    raise VMError(f"unknown elementwise op {op!r}")


class RegisterValue:
    """A register tensor: per-thread bit storage plus (dtype, layout).

    Attributes:
        dtype: element type.
        layout: distribution of elements over threads.
        bits: uint8 array of shape (num_threads, bits_per_thread) holding
            one bit per entry (0/1).  Element ``i`` of thread ``t`` lives in
            ``bits[t, i*nbits : (i+1)*nbits]``, LSB first.
    """

    def __init__(self, dtype: DataType, layout: Layout, bits: np.ndarray) -> None:
        expected = (layout.num_threads, layout.local_size * dtype.nbits)
        if bits.shape != expected:
            raise VMError(
                f"register bits shape {bits.shape} does not match layout "
                f"{layout.short_repr()} x {dtype} (expected {expected})"
            )
        self.dtype = dtype
        self.layout = layout
        self.bits = bits

    # -- constructors -----------------------------------------------------------
    @classmethod
    def zeros(cls, dtype: DataType, layout: Layout) -> "RegisterValue":
        bits = np.zeros((layout.num_threads, layout.local_size * dtype.nbits), dtype=np.uint8)
        return cls(dtype, layout, bits)

    @classmethod
    def from_patterns(cls, dtype: DataType, layout: Layout, patterns: np.ndarray) -> "RegisterValue":
        """Build from per-(thread, local) uint64 bit patterns."""
        patterns = np.asarray(patterns, dtype=np.uint64)
        expected = (layout.num_threads, layout.local_size)
        if patterns.shape != expected:
            raise VMError(f"pattern shape {patterns.shape} != {expected}")
        return cls(
            dtype, layout, regroup_patterns(patterns, dtype.nbits, 1).astype(np.uint8)
        )

    @classmethod
    def from_thread_values(
        cls, dtype: DataType, layout: Layout, values: np.ndarray
    ) -> "RegisterValue":
        """Build from per-(thread, local) numeric values."""
        values = np.asarray(values)
        patterns = dtype.to_bits(values.reshape(-1)).reshape(
            layout.num_threads, layout.local_size
        )
        return cls.from_patterns(dtype, layout, patterns)

    @classmethod
    def from_logical(cls, dtype: DataType, layout: Layout, tensor: np.ndarray) -> "RegisterValue":
        """Build from a logical tensor of the layout's shape."""
        tensor = np.asarray(tensor)
        if tensor.shape != layout.shape:
            raise VMError(f"logical shape {tensor.shape} != layout shape {layout.shape}")
        t = np.repeat(np.arange(layout.num_threads), layout.local_size)
        i = np.tile(np.arange(layout.local_size), layout.num_threads)
        coords = layout.map_batch(t, i)
        values = tensor[tuple(np.broadcast_to(c, t.shape) for c in coords)]
        return cls.from_thread_values(
            dtype, layout, values.reshape(layout.num_threads, layout.local_size)
        )

    @classmethod
    def filled(cls, dtype: DataType, layout: Layout, value: float) -> "RegisterValue":
        values = np.full((layout.num_threads, layout.local_size), value)
        return cls.from_thread_values(dtype, layout, values)

    # -- accessors ----------------------------------------------------------------
    @property
    def bits_per_thread(self) -> int:
        return self.bits.shape[1]

    def thread_patterns(self) -> np.ndarray:
        """Per-(thread, local) uint64 bit patterns."""
        nbits = self.dtype.nbits
        t, width = self.bits.shape
        grouped = self.bits.reshape(t, width // nbits, nbits).astype(np.uint64)
        weights = np.uint64(1) << np.arange(nbits, dtype=np.uint64)
        return (grouped * weights).sum(axis=2, dtype=np.uint64)

    def thread_values(self) -> np.ndarray:
        """Per-(thread, local) decoded numeric values."""
        patterns = self.thread_patterns()
        return self.dtype.from_bits(patterns.reshape(-1)).reshape(patterns.shape)

    def to_logical(self) -> np.ndarray:
        """Reassemble the logical tensor (threads may replicate elements;
        later threads win, matching last-writer-wins store order)."""
        values = self.thread_values()
        out = np.zeros(self.layout.shape, dtype=values.dtype)
        t = np.repeat(np.arange(self.layout.num_threads), self.layout.local_size)
        i = np.tile(np.arange(self.layout.local_size), self.layout.num_threads)
        coords = self.layout.map_batch(t, i)
        out[tuple(np.broadcast_to(c, t.shape) for c in coords)] = values.reshape(-1)
        return out

    # -- operations -----------------------------------------------------------------
    def view(self, dtype: DataType, layout: Layout) -> "RegisterValue":
        """Zero-cost reinterpretation (paper Figure 2(c)).

        Same thread count, same bits per thread; the bit rows are reused
        as-is under the new element width.
        """
        if layout.num_threads != self.layout.num_threads:
            raise VMError(
                f"view: thread count {self.layout.num_threads} -> "
                f"{layout.num_threads} mismatch"
            )
        if layout.local_size * dtype.nbits != self.bits_per_thread:
            raise VMError(
                f"view: bits-per-thread mismatch: {self.bits_per_thread} -> "
                f"{layout.local_size * dtype.nbits}"
            )
        return RegisterValue(dtype, layout, self.bits)

    def cast(self, dtype: DataType) -> "RegisterValue":
        """Value conversion preserving the layout.

        Float→integer truncates toward zero then saturates (C semantics);
        all other directions round to nearest representable.
        """
        values = self.thread_values()
        if dtype.is_integer and self.dtype.is_float:
            values = np.trunc(values)
        return RegisterValue.from_thread_values(dtype, self.layout, values)

    def binary(self, op: str, other) -> "RegisterValue":
        """Elementwise arithmetic with a register tensor or scalar."""
        a = self.thread_values()
        if isinstance(other, RegisterValue):
            if other.layout.num_threads != self.layout.num_threads or (
                other.layout.local_size != self.layout.local_size
            ):
                raise VMError("elementwise operands must have matching layouts")
            b = other.thread_values()
        else:
            b = other
        result = apply_elementwise(self.dtype, op, a, b)
        return RegisterValue.from_thread_values(self.dtype, self.layout, result)

    def neg(self) -> "RegisterValue":
        return RegisterValue.from_thread_values(self.dtype, self.layout, -self.thread_values())

    def copy(self) -> "RegisterValue":
        return RegisterValue(self.dtype, self.layout, self.bits.copy())

    def __repr__(self) -> str:
        return f"RegisterValue({self.dtype}, {self.layout.short_repr()})"
