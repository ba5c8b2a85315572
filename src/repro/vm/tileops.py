"""The tile-semantics table: block-axis primitives of the vectorised tiers.

The block-vectorised tiers — the batched executor and the kernels the
lowering pipeline generates — define a register tensor as ``(B, T, L)``
uint64 bit *patterns* (blocks × threads × elements per thread) and a
memory tensor as a per-block byte base into one flat byte buffer.  What a
tile operation *means* on that representation is written here, once:
codecs (and the rounding that stands in for a pack-unpack round trip
while a register stays decoded), logical assembly, width regrouping, byte
and sub-byte gather/scatter (with the block-major last-writer rule),
index linearisation and every bounds check, the shared-memory bump
allocator, and the one elementwise rule (shared with the oracle).  A
cheaper form of one of these — the cast of a narrow type as a table
lookup (:func:`cast_table`), a masked gather's live lanes laid out
straight into its logical tensor (:func:`live_logical`) — is an entry
like any other: the handler picks it from what the launch's constants
decide, so both tiers get it, and ``tests/test_tileops.py`` holds it to
the definition it replaces.

It has one caller: the handler set in :mod:`repro.vm.batched`, one handler
per instruction.  The batched engine runs those handlers with this module
as their ``ops``, on arrays.  The lowering pipeline
(:mod:`repro.compiler.lower`) runs the same handlers with a stand-in that
calls through whenever every argument is concrete and otherwise records
the call under its :data:`KERNEL_NAMESPACE` name — so a generated kernel
is a sequence of calls into this table, and :func:`hold` /
:func:`host_effect` / :func:`mark` / :func:`rewind` are the places a
handler tells that stand-in something an array would not need to be told.

A new dtype rule, addressing rule or bounds check is written here and
reached from the one handler.  The sequential oracle (``vm/interp.py``,
``vm/values.py``, ``vm/memory.TensorView``) deliberately does not import
this module: it states the same semantics independently and naively, and
the differential harness holds the two against each other.

Every function that can fail raises :class:`~repro.errors.VMError` with
the one message all tiers report; ``msg`` parameters are ``str.format``
templates so generated kernels can carry them as constants.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.dtypes.floats import float16, float32, float64
from repro.dtypes.integers import IntType, UIntType
from repro.errors import VMError
from repro.utils.bits import regroup_patterns
from repro.vm.dispatch import decompose_linear, layout_tile_coords, pad_tile_indices
from repro.vm.values import apply_elementwise  # noqa: F401 - the one elementwise rule, a table entry

# ---------------------------------------------------------------------------
# Registers: (B, T, L) uint64 patterns
# ---------------------------------------------------------------------------


def decode(dtype, patterns: np.ndarray) -> np.ndarray:
    """Patterns -> decoded values of ``dtype``, same shape."""
    return dtype.from_bits(patterns.reshape(-1)).reshape(patterns.shape)


def encode(dtype, values: np.ndarray) -> np.ndarray:
    """Values -> uint64 patterns of ``dtype``, same shape."""
    return np.asarray(dtype.to_bits(values.reshape(-1)), dtype=np.uint64).reshape(
        values.shape
    )


#: The floats numpy stores natively: their codec is a dtype conversion.
_NUMPY_FLOATS = {float16: np.float16, float32: np.float32, float64: np.float64}


def requantize(dtype, values: np.ndarray) -> np.ndarray:
    """Values -> the values a ``dtype`` register holds for them, same
    shape: by definition ``decode(dtype, encode(dtype, values))``.  This
    is what lets a compiled kernel keep a register decoded between
    instructions and pack it only when its bits are read.  Native floats
    and integers under 64 bits skip the packing (a conversion, or round
    and saturate — ``tests/test_tileops.py`` holds them bit-identical to
    the definition, NaN payloads included); every other type is the
    definition."""
    native = _NUMPY_FLOATS.get(dtype)
    if native is not None:
        return np.asarray(values, dtype=native).astype(np.float64)
    if isinstance(dtype, (IntType, UIntType)) and dtype.nbits < 64:
        values = np.asarray(values)
        if values.dtype.kind == "f":
            values = np.rint(values)
        return np.clip(values.astype(np.int64), dtype.min_value, dtype.max_value)
    return decode(dtype, encode(dtype, values))


@functools.lru_cache(maxsize=None)
def cast_table(src, dst) -> np.ndarray:
    """What ``Cast`` makes of every pattern of a ``src`` of at most 8
    bits: entry ``p`` is ``requantize(dst, decode(src, p))`` (truncated
    first when a float becomes an integer) — the arithmetic cast itself,
    run once over all ``2**nbits`` patterns and kept per ``(src, dst)``,
    so a lookup through it is bit-exact by construction."""
    values = decode(src, np.arange(1 << src.nbits, dtype=np.uint64))
    if dst.is_integer and src.is_float:
        values = np.trunc(values)
    table = requantize(dst, values)
    table.setflags(write=False)
    return table


def take_table(table: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """A function of a narrow operand as one lookup: ``table[p]`` for
    every pattern (register patterns carry no bits above their width)."""
    return table.take(patterns.view(np.int64))


def filled(dtype, shape3: tuple, init) -> np.ndarray:
    """Patterns of a fresh register: ``init`` everywhere, zero bits if None."""
    if init is None:
        return np.zeros(shape3, dtype=np.uint64)
    return encode(dtype, np.full(shape3, init))


def regroup(patterns: np.ndarray, old_nbits: int, new_nbits: int):
    """Re-read each thread's bits under a new element width (register
    ``View``)."""
    return regroup_patterns(patterns, old_nbits, new_nbits)


def check_view(old_dtype, old_layout, dtype, layout) -> None:
    """A ``View`` keeps the thread count and the bits each thread holds."""
    if layout.num_threads != old_layout.num_threads:
        raise VMError(
            f"view: thread count {old_layout.num_threads} -> "
            f"{layout.num_threads} mismatch"
        )
    old_bits = old_layout.local_size * old_dtype.nbits
    if layout.local_size * dtype.nbits != old_bits:
        raise VMError(
            f"view: bits-per-thread mismatch: {old_bits} -> "
            f"{layout.local_size * dtype.nbits}"
        )


def check_same_tiling(a_layout, b_layout) -> None:
    if b_layout.num_threads != a_layout.num_threads or (
        b_layout.local_size != a_layout.local_size
    ):
        raise VMError("elementwise operands must have matching layouts")


def logical_index(layout, nblocks: int) -> tuple:
    """Fancy index ``(block,) + coords`` taking a ``(B,) + layout.shape``
    logical tensor to/from ``(B, T*L)`` thread-major values."""
    bidx = np.arange(nblocks, dtype=np.int64)[:, None]
    return (bidx,) + tuple(c[None, :] for c in layout_tile_coords(layout))


def check_logical_shape(shape: tuple, layout) -> None:
    if tuple(shape[1:]) != tuple(layout.shape):
        raise VMError(
            f"logical shape {tuple(shape[1:])} != layout shape {layout.shape}"
        )


def to_logical(values: np.ndarray, shape: tuple, ix: tuple) -> np.ndarray:
    """Register (B, T, L) values -> logical tensor of ``shape``; threads
    replicating an element resolve last-writer-wins, like a store.  The
    scatter form: the definition :func:`gather_logical` is held to."""
    out = np.zeros(shape, dtype=values.dtype)
    out[ix] = values.reshape(shape[0], -1)
    return out


def _per_layout(attr: str):
    """Memoize a table of a layout on the layout itself (read-only, when
    it is an array)."""

    def cache(build):
        @functools.wraps(build)
        def cached(layout) -> np.ndarray:
            table = getattr(layout, attr, None)
            if table is None:
                table = build(layout)
                if isinstance(table, np.ndarray):
                    table.setflags(write=False)
                try:
                    setattr(layout, attr, table)
                except AttributeError:
                    pass  # layouts with __slots__ simply skip the cache
            return table

        return cached

    return cache


@_per_layout("_vm_logical_slots")
def logical_slots(layout) -> np.ndarray:
    """For every thread-major slot ``t * L + i``, the row-major logical
    element it holds: reading a register's values off its logical tensor
    is one gather through it (:func:`gather_logical` — replicas read the
    element they replicate).  Computed once per layout and cached on it."""
    return np.ravel_multi_index(tuple(layout_tile_coords(layout)), layout.shape)


@_per_layout("_vm_logical_inverse")
def logical_inverse(layout) -> np.ndarray:
    """For every logical element (row-major), the thread-major slot
    ``t * L + i`` whose value :func:`to_logical` keeps — the last writer.
    Computed once per layout and cached on it.  A layout's modes tile its
    whole shape, so every element has a writer; one that did not could
    not be gathered (the scatter form zero-fills it) and is refused."""
    slots = logical_slots(layout)
    inverse = np.full(layout.size, -1, dtype=np.int64)
    inverse[slots] = np.arange(slots.size, dtype=np.int64)
    if inverse.min() < 0:
        raise VMError(f"layout {layout.short_repr()} leaves logical elements unheld")
    return inverse


def gather_logical(values: np.ndarray, shape: tuple, inverse: np.ndarray) -> np.ndarray:
    """:func:`to_logical` as one gather through :func:`logical_inverse`
    — and, handed a logical tensor, a ``(B, T, L)`` shape and
    :func:`logical_slots`, its inverse: the register's values."""
    return values.reshape(shape[0], -1).take(inverse, axis=1).reshape(shape)


# ---------------------------------------------------------------------------
# Scalars on the block axis
# ---------------------------------------------------------------------------


def as_mask(value, nblocks: int) -> np.ndarray:
    """Coerce a condition value into a (B,) boolean mask."""
    return np.broadcast_to(np.asarray(value, dtype=bool), (nblocks,))


def launch_rows(values: np.ndarray, launches: int):
    """The first launch's rows of a ``(B, ...)`` array over a stack of
    ``launches`` launch-major grids, when every launch holds the same
    rows; None when they differ."""
    stacked = values.reshape((launches, -1) + values.shape[1:])
    return stacked[0] if bool((stacked[1:] == stacked[0]).all()) else None


def as_col(value, nblocks: int) -> np.ndarray:
    """Coerce a scalar-or-(B,) value into a (B, 1) int64 column."""
    arr = np.asarray(value, dtype=np.int64)
    if arr.ndim == 0:
        return np.full((nblocks, 1), int(arr), dtype=np.int64)
    return arr.reshape(nblocks, 1)


# ---------------------------------------------------------------------------
# Index preparation
# ---------------------------------------------------------------------------


def tile_indices(layout, origin: list, nblocks: int, broadcast_dims=frozenset()) -> list:
    """Per-block (B, n) memory indices touched by a register tile whose
    origin is the evaluated (scalar or per-block) ``origin``."""
    return pad_tile_indices(
        layout_tile_coords(layout), [as_col(o, nblocks) for o in origin], broadcast_dims
    )


def copy_indices(shape: tuple, src_origin: list, dst_origin: list, nblocks: int):
    """(B, n) source and destination indices of a ``CopyAsync`` region: it
    addresses the trailing dimensions of either tensor, the leading ones
    are fixed by the origins."""
    idx = decompose_linear(tuple(shape))
    zero = np.zeros(int(np.prod(shape)), dtype=np.int64)

    def place(origin):
        full = [zero] * (len(origin) - len(idx)) + idx
        return [f[None, :] + as_col(o, nblocks) for f, o in zip(full, origin)]

    return place(src_origin), place(dst_origin)


def linear_index(shape: tuple, dtype, indices: list, where=None, clip=False) -> np.ndarray:
    """Row-major linear index of multi-indices into a ``shape`` tensor,
    bounds-checked.  ``where`` neutralises unselected entries to index 0
    first (their results are discarded by the caller); ``clip`` clamps
    every index into range instead (masked-load semantics)."""
    if len(indices) != len(shape):
        raise VMError(f"rank mismatch: {len(indices)} indices for shape {list(shape)}")
    if clip:
        indices = [np.clip(i, 0, e - 1) for i, e in zip(indices, shape)]
    elif where is not None:
        indices = [np.where(where, i, 0) for i in indices]
    linear = np.zeros_like(np.asarray(indices[0], dtype=np.int64))
    for idx, extent in zip(indices, shape):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= extent):
            raise VMError(
                f"index out of bounds: [{idx.min()}, {idx.max()}] not within "
                f"[0, {extent}) for tensor {dtype}{list(shape)}"
            )
        linear = linear * extent + idx
    return linear


def select_flat(indices: list, nblocks: int, select=None):
    """Flatten a scatter's (B, n) multi-indices under its ``select`` mask,
    block-major — the order overlapping writes resolve in.  Returns
    ``(flat indices, block of each, the (B, n) mask)`` or None when
    nothing is selected."""
    shape2d = np.broadcast(np.asarray(indices[0]), np.empty((nblocks, 1))).shape
    if select is None:
        select = np.ones(shape2d, dtype=bool)
    else:
        select = np.broadcast_to(select, shape2d)
    if not select.any():
        return None
    flat = [np.broadcast_to(np.asarray(i, dtype=np.int64), shape2d)[select] for i in indices]
    rows = np.broadcast_to(np.arange(nblocks, dtype=np.int64)[:, None], shape2d)[select]
    return flat, rows, select


# ---------------------------------------------------------------------------
# Memory: bit-addressed gather / scatter on a flat byte buffer
# ---------------------------------------------------------------------------


def oob_message(dtype, shape: tuple, buflen: int) -> str:
    return (
        f"batched tensor view [{dtype}{list(shape)}] addresses "
        f"bytes outside its buffer ({buflen} bytes): {{}}"
    )


def gather_bytes(buf, byte_addr, nbytes: int, msg: str) -> np.ndarray:
    """Byte-aligned gather: assemble little-endian patterns from bytes,
    starting from the first byte lane (it needs no shift and no ``|=``)."""
    try:
        out = buf[byte_addr].astype(np.uint64)
        for k in range(1, nbytes):
            out |= buf[byte_addr + k].astype(np.uint64) << np.uint64(8 * k)
    except IndexError as exc:
        raise VMError(msg.format(exc)) from exc
    return out


def gather_subbyte(buf, byte_addr, shift, nbits: int, msg: str) -> np.ndarray:
    """Sub-byte gather: 8-byte window read, then shift and mask."""
    return (gather_bytes(buf, byte_addr, 8, msg) >> shift) & np.uint64((1 << nbits) - 1)


def gather(buf, bit_addr, nbits: int, aligned: bool, msg: str) -> np.ndarray:
    """Patterns of the ``nbits``-wide elements at ``bit_addr``; ``aligned``
    says every address is a whole byte and ``nbits`` a whole byte count."""
    if aligned:
        return gather_bytes(buf, bit_addr // 8, nbits // 8, msg)
    return gather_subbyte(buf, bit_addr // 8, (bit_addr % 8).astype(np.uint64), nbits, msg)


def place(valid: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """The zero-filled result of a masked gather: ``patterns`` — one per
    True of ``valid``, in row-major order — where ``valid`` holds, zero
    bits elsewhere."""
    out = np.zeros(valid.shape, dtype=np.uint64)
    out[valid] = patterns
    return out


#: How many ``(mask, order)`` forms :func:`live_positions` keeps per
#: layout.  A served kernel meets a handful (one per ``M``, stack size and
#: k-step count), but the mma atoms are process-wide objects and nothing
#: bounds what a long-lived process shows them, so a full memo is cleared.
_LIVE_POSITIONS_KEPT = 64


@_per_layout("_vm_live_positions")
def _live_positions(layout) -> dict:
    """The :func:`live_positions` a layout's masked gathers composed, at
    most ``_LIVE_POSITIONS_KEPT`` of them."""
    return {}


def live_positions(valid: np.ndarray, layout, order=None) -> tuple:
    """Where a masked gather's live lanes land in its logical tensor
    ``(rows,) + layout.shape``, flattened: ``(positions, keep)``.  A lane
    lands only if its slot is its element's writer (:func:`logical_inverse`,
    replicas last-writer-wins) — ``keep`` picks those among the live
    lanes, None when every slot writes — so an element whose writer is
    masked out keeps the zero pattern's value even when another replica
    of it is live.  ``order`` permutes the rows: row ``i`` of the tensor
    is ``valid``'s row ``order[i]``.  The mask is a launch constant, so
    the interpreted tier meets it on every launch: composed once per
    ``(valid, order)`` and cached on the layout (a bounded memo:
    ``_LIVE_POSITIONS_KEPT``)."""
    key = (valid.shape, valid.tobytes(), None if order is None else order.tobytes())
    cache = _live_positions(layout)
    hit = cache.get(key)
    if hit is None:
        if len(cache) >= _LIVE_POSITIONS_KEPT:
            cache.clear()
        writes = np.zeros(valid.shape[-1], dtype=bool)
        writes[logical_inverse(layout)] = True
        lanes = np.flatnonzero(valid)
        keep = None if writes.all() else writes[lanes % writes.size]
        row, slot = np.divmod(lanes if keep is None else lanes[keep], writes.size)
        if order is not None:
            row = np.argsort(order)[row]
        positions = row * layout.size + logical_slots(layout)[slot]
        for table in (positions, keep):
            if table is not None:
                table.setflags(write=False)
        hit = cache[key] = (positions, keep)
    return hit


def live_logical(fill: np.ndarray, values: np.ndarray, shape: tuple, positions) -> np.ndarray:
    """A masked gather's logical tensor of ``shape`` from its live lanes
    alone: their decoded ``values`` at flat ``positions``
    (:func:`live_positions`), ``fill`` — the one decoded zero pattern,
    what every masked-out lane holds — everywhere else.  By definition
    ``gather_logical(decode(place(valid, patterns)))``, decoding and
    moving only the live lanes."""
    out = np.full(shape, fill, dtype=fill.dtype)
    out.reshape(-1)[positions] = values
    return out


def scatter_bytes(buf, byte_addr, pat, nbytes: int, msg: str) -> None:
    """Byte-aligned scatter: one fancy assignment per byte lane, so of two
    writers of one *element* the later (block-major) wins.  Elements that
    overlap only partially — two blocks on different element grids, a
    write race the SIMB contract leaves undefined — resolve lane by lane."""
    try:
        for k in range(nbytes):
            buf[byte_addr + k] = ((pat >> np.uint64(8 * k)) & np.uint64(0xFF)).astype(
                np.uint8
            )
    except IndexError as exc:
        raise VMError(msg.format(exc)) from exc


def pattern_bits(pat, nbits: int) -> np.ndarray:
    """The single bits of flat patterns, LSB first, flattened."""
    offsets = np.arange(nbits, dtype=np.uint64)
    return ((pat[:, None] >> offsets) & np.uint64(1)).astype(np.uint8).reshape(-1)


def last_writers(bit_addr, nbits: int):
    """Deduplicate a sub-byte scatter to the *last* writer of every bit
    position (flat, block-major order).  Returns ``(keep, byte_idx,
    bit_in_byte)``: which of :func:`pattern_bits`' entries survive and
    where they land."""
    pos = (bit_addr[:, None] + np.arange(nbits, dtype=np.int64)).reshape(-1)
    _, first_in_rev = np.unique(pos[::-1], return_index=True)
    keep = pos.shape[0] - 1 - first_in_rev
    pos_u = pos[keep]
    return keep, pos_u // 8, (pos_u % 8).astype(np.uint8)


def scatter_subbyte(buf, byte_idx, bit_in_byte, val_u, msg: str) -> None:
    """Sub-byte scatter: unbuffered clear+set of pre-deduplicated bits."""
    try:
        np.bitwise_and.at(buf, byte_idx, ~(np.uint8(1) << bit_in_byte))
        np.bitwise_or.at(buf, byte_idx, val_u << bit_in_byte)
    except IndexError as exc:
        raise VMError(msg.format(exc)) from exc


def journal(buf, region, steps: tuple, cells: tuple, widths: tuple, *patterns) -> np.ndarray:
    """The states a loop's copies take a region of shared memory
    through, in the loop's serial order: ``(len(steps), region.size +
    1)`` bytes, row ``s`` the region — the bytes of ``buf`` at ``region``
    before the loop, and one trash cell — after the moves of steps ``0``
    to ``s``.  Copy ``c`` writes its ``patterns`` split into ``widths[c]``
    little-endian byte lanes into ``cells[c]``, one cell per lane; a step
    is ``(c, first, end)`` runs of those lanes, applied in order, so of
    two writes of one cell the later wins."""
    lanes = [
        ((p.reshape(-1, 1) >> (np.arange(w, dtype=np.uint64) * np.uint64(8)))
         & np.uint64(0xFF)).astype(np.uint8).reshape(-1)
        for p, w in zip(patterns, widths)
    ]
    state = np.append(buf[region], np.uint8(0))
    states = np.empty((len(steps), state.size), dtype=np.uint8)
    for s, runs in enumerate(steps):
        for c, first, end in runs:
            state[cells[c][first:end]] = lanes[c][first:end]
        states[s] = state
    return states


def scatter(buf, bit_addr, pat, nbits: int, aligned: bool, msg: str) -> None:
    """Write flat patterns at flat ``bit_addr``, later entries winning."""
    if aligned:
        scatter_bytes(buf, bit_addr // 8, pat, nbits // 8, msg)
        return
    keep, byte_idx, bit_in_byte = last_writers(bit_addr, nbits)
    scatter_subbyte(buf, byte_idx, bit_in_byte, pattern_bits(pat, nbits)[keep], msg)


# ---------------------------------------------------------------------------
# Instruction-level checks
# ---------------------------------------------------------------------------


def view_shape(extents, evaluate, active) -> tuple:
    """Concrete shape of a ``ViewGlobal``: expression extents go through
    ``evaluate`` and must agree across the active blocks."""
    shape = []
    for s in extents:
        if hasattr(s, "dtype"):
            s = evaluate(s)
            if isinstance(s, np.ndarray):
                uniq = np.unique(s[active]) if active.any() else np.unique(s)
                if uniq.size > 1:
                    raise VMError(
                        "batched engine requires uniform global view shapes; "
                        f"got extents {uniq.tolist()} across blocks"
                    )
                s = uniq[0] if uniq.size else 0
        shape.append(int(s))
    return tuple(shape)


def view_global_messages(dtype, shape: tuple, limit: int) -> tuple:
    return (
        f"tensor view [{dtype}{list(shape)}] starts before the "
        f"buffer: bit offset {{}} is negative",
        f"tensor view [{dtype}{list(shape)}] at bit offset "
        f"{{}} exceeds its buffer: needs {{}} bits, buffer has {limit}",
    )


def check_view_global(base, size_bits: int, limit: int, msg_neg: str, msg_exc: str) -> None:
    """A global view's (B,) bit bases must keep it inside the buffer."""
    end = base + size_bits
    if bool((base < 0).any()):
        raise VMError(msg_neg.format(int(base.min())))
    over = end > limit
    if bool(over.any()):
        raise VMError(msg_exc.format(int(base[over][0]), int(end.max())))


def check_view_base(ptr: int, size_bits: int, limit: int, msg_neg: str, msg_exc: str) -> None:
    """:func:`check_view_global` of a view every block bases at one byte
    address ``ptr``: two comparisons, the same messages."""
    base = int(ptr) * 8
    if base < 0:
        raise VMError(msg_neg.format(base))
    if base + size_bits > limit:
        raise VMError(msg_exc.format(base, base + size_bits))


def lookup_message(extent: int) -> str:
    return f"lookup code {{}} exceeds table of {extent}"


def check_lookup(act, extent: int, msg: str) -> None:
    """Lookup codes of the active blocks must index the table."""
    if act.size and (int(act.min()) < 0 or int(act.max()) >= extent):
        raise VMError(msg.format(int(act.max())))


# ---------------------------------------------------------------------------
# Shared memory: one row per block in a flat buffer
# ---------------------------------------------------------------------------


class BatchedSharedMemory:
    """Per-block shared memories packed as rows of one flat buffer.

    Row ``b`` spans ``[b * row_bytes, (b + 1) * row_bytes)`` with an 8-byte
    guard at the end of each row so sub-byte window reads never cross into
    the next block's row.  The allocator is all lowering needs at compile
    time; the buffer is created on first access (most kernels on the hot
    launch path never touch shared memory, and ``nblocks`` x 228KB of
    zeroed pages per launch is not free).
    """

    def __init__(self, nblocks: int, capacity_bytes: int = 228 * 1024, buffer=None) -> None:
        self.capacity = capacity_bytes
        self.row_bytes = capacity_bytes + 8
        self.nbytes = nblocks * self.row_bytes
        self.row_base_bits = np.arange(nblocks, dtype=np.int64) * self.row_bytes * 8
        self.used = False
        self._next = np.zeros(nblocks, dtype=np.int64)
        #: A lowering trace passes the kernel's name for the buffer.
        self._buffer = buffer

    @property
    def buffer(self) -> np.ndarray:
        if self._buffer is None:
            self._buffer = np.zeros(self.nbytes, dtype=np.uint8)
        return self._buffer

    def alloc(self, nbytes: int, active: np.ndarray) -> np.ndarray:
        """Bump-allocate ``nbytes`` (16-byte granules) in every active
        block; returns the (B,) absolute bit address of each block's
        allocation (stale for inactive blocks)."""
        grown = self._next + (int(nbytes) + 15) // 16 * 16
        if bool((active & (grown > self.capacity)).any()):
            free = self.capacity - int(self._next[active].max())
            raise VMError(
                f"shared memory exhausted: requested {nbytes} B, "
                f"{free} B free of {self.capacity} B"
            )
        base_bits = self.row_base_bits + self._next * 8
        self._next = np.where(active, grown, self._next)
        self.used = True
        return base_bits

    def holds(self, buf) -> bool:
        """Whether ``buf`` is this shared memory's buffer."""
        return self._buffer is not None and buf is self._buffer

    @property
    def span(self) -> int:
        """Bytes allocated so far in the fullest block."""
        return int(self._next.max()) if self._next.size else 0


def tensor_nbytes(shape, dtype, what: str) -> int:
    """Byte size of a statically shaped shared/workspace tensor."""
    if shape is None:
        raise VMError(f"{what} tensors require static shapes")
    return (int(np.prod(shape)) * dtype.nbits + 7) // 8


# ---------------------------------------------------------------------------
# Running the table on names instead of arrays
# ---------------------------------------------------------------------------


def hold(value):
    """A value with more than one reader (a register twin).  An array is
    just that; a lowering trace binds the expression to a name here, so
    its readers share one computation."""
    return value


def host_effect(inst) -> None:
    """What ``inst`` does next acts on the host (it moves the device
    allocator, it prints).  Executing is free to; a lowering trace has
    no flat form for it and declines here."""


def mark():
    """Where the handlers stand, to :func:`rewind` to if what they try
    next fails.  Executing keeps no record: nothing to mark."""


def rewind(mark) -> None:
    """Forget what was done since ``mark``.  A lowering trace drops the
    statements it recorded (and the values they named); executing
    recorded nothing."""


#: The names generated kernels call the table by (``_place``, ``_live``
#: and ``_tab`` are the cheap forms of a masked gather's bits, its
#: logical tensor and a narrow cast; ``_vgb`` checks a view whose base
#: is one number; ``_jnl`` is a distributed loop's shared-memory journal).
KERNEL_NAMESPACE = {
    "_dec": decode,
    "_enc": encode,
    "_gb": gather_bytes,
    "_gsb": gather_subbyte,
    "_gather": gather,
    "_scb": scatter_bytes,
    "_ssb": scatter_subbyte,
    "_pbits": pattern_bits,
    "_vg": check_view_global,
    "_vgb": check_view_base,
    "_lk": check_lookup,
    "_viewp": regroup,
    "_rq": requantize,
    "_tolg": gather_logical,
    "_ew": apply_elementwise,
    "_place": place,
    "_live": live_logical,
    "_tab": take_table,
    "_jnl": journal,
}

#: Of those, the ones called for what they do — write a buffer, raise —
#: not for a value: a kernel keeps them as statements, in order.
KERNEL_EFFECTS = frozenset({"_scb", "_ssb", "_vg", "_vgb", "_lk"})
