"""Simulated device memory with bit-granular tensor views.

Global and shared memory are byte buffers.  Tensor views address elements at
*bit* granularity so that sub-byte types are stored compactly (paper
Section 7.1): element ``k`` of an ``nbits``-wide tensor occupies absolute
bits ``[base + k * nbits, base + (k + 1) * nbits)``.

Gather/scatter are vectorized through a little-endian bit view of the
buffer (``np.unpackbits``/``np.packbits``) for sub-byte types and through
direct byte views for standard widths.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.dtypes import DataType
from repro.errors import OutOfMemoryError, VMError
from repro.utils.indexmath import prod

_ALIGN = 256  # allocation alignment in bytes (cudaMalloc-like)


class GlobalMemory:
    """A device DRAM simulation: one byte buffer with a bump allocator and
    exact-size free lists.

    A freed span goes on the free list of its aligned size, and an
    allocation of that size takes the most recently freed one first
    (``cudaFree`` + ``cudaMalloc`` of one size reuse the span); otherwise
    the bump pointer moves.  The allocator is thread-safe: host threads
    may upload while another drains a stream pool, and ``AllocateGlobal``
    allocates from inside a launch.  Buffer *contents* are not locked —
    disjoint-range access is the kernels' contract (enforced by the
    stream runtime's hazard tracking) — and a freed span keeps its bytes.
    """

    def __init__(self, capacity_bytes: int = 1 << 30) -> None:
        self.capacity = int(capacity_bytes)
        self.buffer = np.zeros(self.capacity + 8, dtype=np.uint8)  # +8 guard
        self._next = 0
        #: Live allocations: address -> requested bytes.
        self._allocations: dict[int, int] = {}
        #: Freed spans by aligned size, the most recently freed last.
        self._free: dict[int, list[int]] = {}
        self._freed_bytes = 0
        self._lock = threading.Lock()

    @property
    def used_bytes(self) -> int:
        """Bytes of the live allocations (aligned spans)."""
        return self._next - self._freed_bytes

    def _take(self, aligned: int, count: int, nbytes: int) -> list[int]:
        """``count`` spans of ``aligned`` bytes, freed ones first, then
        bumped — in the order ``count`` single allocations take them.
        Called under the lock."""
        spans = self._free.get(aligned, [])
        reused = [spans.pop() for _ in range(min(count, len(spans)))]
        fresh = count - len(reused)
        if self._next + aligned * fresh > self.capacity:
            spans.extend(reversed(reused))
            what = f"{nbytes} B" if count == 1 else f"{count} x {nbytes} B"
            raise OutOfMemoryError(
                f"device OOM: requested {what} with {self.capacity - self._next} B free "
                f"of {self.capacity} B"
            )
        self._freed_bytes -= aligned * len(reused)
        addrs = reused + [self._next + aligned * i for i in range(fresh)]
        self._next += aligned * fresh
        self._allocations.update((addr, nbytes) for addr in addrs)
        return addrs

    def alloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` and return the byte address."""
        nbytes = int(nbytes)
        with self._lock:
            return self._take(_aligned(nbytes), 1, nbytes)[0]

    def alloc_n(self, nbytes: int, count: int) -> np.ndarray:
        """``count`` allocations of ``nbytes`` each, in one reservation.

        Returns the byte addresses as an int64 array.  The addresses are
        exactly what ``count`` successive :meth:`alloc` calls would have
        produced (same alignment, same order), so engines that allocate
        per block in bulk stay address-deterministic with engines that
        allocate in a per-block loop.
        """
        nbytes = int(nbytes)
        with self._lock:
            addrs = self._take(_aligned(nbytes), int(count), nbytes)
        return np.array(addrs, dtype=np.int64)

    def free(self, addr: int) -> None:
        """Return the allocation at ``addr`` to its size's free list; a
        span that is not a live allocation (never allocated, or freed
        already) raises :class:`VMError`."""
        addr = int(addr)
        with self._lock:
            nbytes = self._allocations.pop(addr, None)
            if nbytes is None:
                raise VMError(f"free of {addr}: not a live allocation")
            aligned = _aligned(nbytes)
            self._free.setdefault(aligned, []).append(addr)
            self._freed_bytes += aligned

    # -- host-side helpers (what every engine's upload / download is) -----
    def upload(self, values: np.ndarray, dtype: DataType) -> int:
        """Encode a numpy array into device memory; returns the byte address."""
        values = np.asarray(values)
        addr = self.alloc_output(values.shape, dtype)
        TensorView(self.buffer, addr * 8, dtype, values.shape).write_all(values)
        return addr

    def alloc_output(self, shape, dtype: DataType) -> int:
        """Allocate uninitialized device memory for an output tensor."""
        return self.alloc((prod(shape) * dtype.nbits + 7) // 8)

    def download(self, addr: int, shape, dtype: DataType) -> np.ndarray:
        """Decode a device tensor back into a numpy array."""
        return TensorView(self.buffer, addr * 8, dtype, tuple(shape)).read_all()

    def free_all(self) -> None:
        """Reset the allocator (buffers become invalid)."""
        with self._lock:
            self._next = 0
            self._allocations.clear()
            self._free.clear()
            self._freed_bytes = 0
            self.buffer[:] = 0


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


class TensorView:
    """A typed, shaped window into a byte buffer with bit addressing.

    Used for both global and shared tensors.  ``base_bits`` is the absolute
    bit address of element 0; elements are ordered row-major.
    """

    def __init__(
        self,
        buffer: np.ndarray,
        base_bits: int,
        dtype: DataType,
        shape: tuple[int, ...],
    ) -> None:
        self.buffer = buffer
        self.base_bits = int(base_bits)
        self.dtype = dtype
        self.shape = tuple(int(s) for s in shape)
        self.size = prod(self.shape)
        if self.base_bits < 0:
            raise VMError(
                f"tensor view [{dtype}{list(self.shape)}] starts before the "
                f"buffer: bit offset {self.base_bits} is negative"
            )
        end_bits = self.base_bits + self.size * dtype.nbits
        if end_bits > (len(buffer) - 8) * 8:
            raise VMError(
                f"tensor view [{dtype}{list(self.shape)}] at bit offset "
                f"{self.base_bits} exceeds its buffer: needs {end_bits} bits, "
                f"buffer has {(len(buffer) - 8) * 8}"
            )

    # -- addressing -----------------------------------------------------------
    def _linear(self, indices: list[np.ndarray]) -> np.ndarray:
        if len(indices) != len(self.shape):
            raise VMError(
                f"rank mismatch: {len(indices)} indices for shape {list(self.shape)}"
            )
        linear = np.zeros_like(np.asarray(indices[0], dtype=np.int64))
        for idx, extent in zip(indices, self.shape):
            idx = np.asarray(idx, dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= extent):
                raise VMError(
                    f"index out of bounds: [{idx.min()}, {idx.max()}] not within "
                    f"[0, {extent}) for tensor {self.dtype}{list(self.shape)}"
                )
            linear = linear * extent + idx
        return linear

    # -- element access ---------------------------------------------------------
    def _oob(self, exc: IndexError) -> VMError:
        """Translate a stray numpy IndexError into a typed VM error."""
        return VMError(
            f"tensor view [{self.dtype}{list(self.shape)}] at bit offset "
            f"{self.base_bits} addresses bytes outside its buffer "
            f"({len(self.buffer)} bytes): {exc}"
        )

    def gather_bits(self, indices: list[np.ndarray]) -> np.ndarray:
        """Read bit patterns at the given multi-indices (vectorized)."""
        linear = self._linear(indices)
        nbits = self.dtype.nbits
        bit_addr = self.base_bits + linear * nbits
        try:
            if nbits % 8 == 0 and self.base_bits % 8 == 0:
                return self._gather_bytes(bit_addr // 8, nbits // 8)
            # Sub-byte/unaligned path: read a 64-bit little-endian window.
            byte_addr = bit_addr // 8
            shift = (bit_addr % 8).astype(np.uint64)
            window = np.zeros(linear.shape, dtype=np.uint64)
            for k in range(8):
                window |= self.buffer[byte_addr + k].astype(np.uint64) << np.uint64(8 * k)
        except IndexError as exc:
            raise self._oob(exc) from exc
        mask = np.uint64((1 << nbits) - 1)
        return (window >> shift) & mask

    def _gather_bytes(self, byte_addr: np.ndarray, nbytes: int) -> np.ndarray:
        out = np.zeros(byte_addr.shape, dtype=np.uint64)
        for k in range(nbytes):
            out |= self.buffer[byte_addr + k].astype(np.uint64) << np.uint64(8 * k)
        return out

    def scatter_bits(self, indices: list[np.ndarray], patterns: np.ndarray) -> None:
        """Write bit patterns at the given multi-indices (vectorized); an
        empty write does nothing."""
        linear = self._linear(indices)
        if linear.size == 0:
            return
        patterns = np.broadcast_to(np.asarray(patterns, dtype=np.uint64), linear.shape)
        nbits = self.dtype.nbits
        try:
            if nbits % 8 == 0 and self.base_bits % 8 == 0:
                byte_addr = (self.base_bits + linear * nbits) // 8
                for k in range(nbits // 8):
                    self.buffer[byte_addr + k] = (
                        (patterns >> np.uint64(8 * k)) & np.uint64(0xFF)
                    ).astype(np.uint8)
                return
            # Sub-byte path: edit through a bit view of the touched region.
            bit_addr = self.base_bits + linear.reshape(-1) * nbits
            lo_byte = int(bit_addr.min() // 8)
            hi_byte = int((bit_addr.max() + nbits + 7) // 8)
            region = np.unpackbits(self.buffer[lo_byte:hi_byte], bitorder="little")
            offsets = bit_addr - lo_byte * 8
            positions = (offsets[:, None] + np.arange(nbits)).reshape(-1)
            value_bits = (
                (patterns.reshape(-1)[:, None] >> np.arange(nbits, dtype=np.uint64)) & np.uint64(1)
            ).astype(np.uint8).reshape(-1)
            region[positions] = value_bits
            self.buffer[lo_byte:hi_byte] = np.packbits(region, bitorder="little")[: hi_byte - lo_byte]
        except IndexError as exc:
            raise self._oob(exc) from exc

    # -- whole-tensor convenience ------------------------------------------------
    def read_all(self) -> np.ndarray:
        """Decode the full tensor into a numpy array of its logical shape."""
        linear = np.arange(self.size, dtype=np.int64)
        idx = []
        rem = linear
        for extent in reversed(self.shape):
            idx.append(rem % extent)
            rem = rem // extent
        idx.reverse()
        bits = self.gather_bits(idx)
        return self.dtype.from_bits(bits).reshape(self.shape)

    def write_all(self, values: np.ndarray) -> None:
        """Encode and store a full logical tensor."""
        values = np.asarray(values)
        if values.shape != self.shape:
            raise VMError(f"write_all shape mismatch: {values.shape} vs {self.shape}")
        linear = np.arange(self.size, dtype=np.int64)
        idx = []
        rem = linear
        for extent in reversed(self.shape):
            idx.append(rem % extent)
            rem = rem // extent
        idx.reverse()
        self.scatter_bits(idx, self.dtype.to_bits(values.reshape(-1)))


class SharedMemory:
    """Per-block shared memory: a bump-allocated byte buffer.

    Real kernels get one shared region sized by the memory planner (the
    CUDA artifact's); here each block gets a fresh buffer that checks its
    own capacity.
    """

    def __init__(self, capacity_bytes: int = 228 * 1024) -> None:
        self.capacity = capacity_bytes
        self.buffer = np.zeros(capacity_bytes + 8, dtype=np.uint8)
        self._next = 0
        self.high_water = 0

    def alloc(self, nbytes: int) -> int:
        addr = self._next
        aligned = (int(nbytes) + 15) // 16 * 16
        if addr + aligned > self.capacity:
            raise VMError(
                f"shared memory exhausted: requested {nbytes} B, "
                f"{self.capacity - addr} B free of {self.capacity} B"
            )
        self._next += aligned
        self.high_water = max(self.high_water, self._next)
        return addr
