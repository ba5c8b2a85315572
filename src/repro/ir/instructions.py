"""The thread-block-level instruction set (paper Table 1).

Every instruction describes an operation applied by the whole thread block:
allocating tensors in a memory scope, moving tiles between scopes, or
computing on register tensors.  Instructions that produce a register tensor
carry their result in ``output`` (a :class:`TensorVar`); the in-place
variants of the paper are expressed by passing an existing tensor var as
``output``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dtypes import DataType
from repro.errors import IRError
from repro.ir.expr import Expr, wrap
from repro.ir.types import TensorVar


class Instruction:
    """Base class of all thread-block-level instructions."""

    #: Mnemonic used by the printer; subclasses override.
    mnemonic = "instruction"

    def inputs(self) -> list[TensorVar]:
        """Tensor operands read by this instruction."""
        return []

    def scalar_operands(self) -> list[Expr]:
        """Scalar expressions consumed (offsets, sizes, conditions)."""
        return []

    @property
    def output(self) -> Optional[TensorVar]:
        """Tensor produced (None for pure effects)."""
        return None

    def __repr__(self) -> str:
        from repro.ir.printer import format_instruction

        return format_instruction(self)


def _offsets(offset: Optional[Sequence]) -> tuple[Expr, ...]:
    if offset is None:
        return ()
    return tuple(wrap(o) for o in offset)


# ---------------------------------------------------------------------------
# Debug and control
# ---------------------------------------------------------------------------


class PrintTensor(Instruction):
    """Print a tensor to standard output (debugging aid)."""

    mnemonic = "Print"

    def __init__(self, tensor: TensorVar, message: str = "") -> None:
        self.tensor = tensor
        self.message = message

    def inputs(self) -> list[TensorVar]:
        return [self.tensor]


class Synchronize(Instruction):
    """Barrier: all preceding instructions complete before any following."""

    mnemonic = "Synchronize"


class Exit(Instruction):
    """Terminate the thread block."""

    mnemonic = "Exit"


# ---------------------------------------------------------------------------
# Register tensor computation
# ---------------------------------------------------------------------------


class ElementwiseBinary(Instruction):
    """Elementwise Add/Sub/Mul/Div/Mod on register tensors.

    The right operand may be a register tensor with the same layout or a
    scalar expression (broadcast).
    """

    OPS = ("+", "-", "*", "/", "%")
    mnemonic = "Binary"

    def __init__(self, op: str, a: TensorVar, b, out: TensorVar) -> None:
        if op not in self.OPS:
            raise IRError(f"unknown elementwise op {op!r}")
        self.op = op
        self.a = a
        self.b = b if isinstance(b, TensorVar) else wrap(b)
        self.out = out

    def inputs(self) -> list[TensorVar]:
        tensors = [self.a]
        if isinstance(self.b, TensorVar):
            tensors.append(self.b)
        return tensors

    def scalar_operands(self) -> list[Expr]:
        return [] if isinstance(self.b, TensorVar) else [self.b]

    @property
    def output(self) -> TensorVar:
        return self.out


class Neg(Instruction):
    """Elementwise negation."""

    mnemonic = "Neg"

    def __init__(self, a: TensorVar, out: TensorVar) -> None:
        self.a = a
        self.out = out

    def inputs(self) -> list[TensorVar]:
        return [self.a]

    @property
    def output(self) -> TensorVar:
        return self.out


class Cast(Instruction):
    """Convert element values to another data type, keeping the layout.

    This is a *value* conversion (with rounding/saturation); contrast with
    :class:`View`, which reinterprets bits.
    """

    mnemonic = "Cast"

    def __init__(self, a: TensorVar, dtype: DataType, out: TensorVar) -> None:
        self.a = a
        self.dtype = dtype
        self.out = out

    def inputs(self) -> list[TensorVar]:
        return [self.a]

    @property
    def output(self) -> TensorVar:
        return self.out


class View(Instruction):
    """Reinterpret a register tensor with another dtype/layout at no cost.

    Validity rule (paper Figure 2(c)): the source and destination must have
    the same number of threads and the same number of *bits per thread*.
    Each thread's local bytes are reread under the new element width.
    """

    mnemonic = "View"

    def __init__(self, a: TensorVar, out: TensorVar) -> None:
        self.a = a
        self.out = out

    def inputs(self) -> list[TensorVar]:
        return [self.a]

    @property
    def output(self) -> TensorVar:
        return self.out


class Dot(Instruction):
    """Tile matrix-multiply-accumulate: ``out = dot(a, b) + c``.

    Operand layouts must match a tensor-core configuration (validated by the
    verifier); the VM computes the product exactly.
    """

    mnemonic = "Dot"

    def __init__(self, a: TensorVar, b: TensorVar, c: TensorVar, out: TensorVar) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.out = out

    def inputs(self) -> list[TensorVar]:
        return [self.a, self.b, self.c]

    @property
    def output(self) -> TensorVar:
        return self.out


class ReduceSum(Instruction):
    """Block-level reduction: sum a register tensor over one axis.

    The output is a register tensor whose shape has extent 1 along
    ``axis``; elements reduced across threads go through (conceptually)
    warp shuffles / shared memory, which the VM models as an exact sum.
    It serves GEMV-style kernels and normalization epilogues; no kernel
    in :mod:`repro.kernels` uses it.
    """

    mnemonic = "ReduceSum"

    def __init__(self, a: TensorVar, axis: int, out: TensorVar) -> None:
        self.a = a
        self.axis = int(axis)
        self.out = out

    def inputs(self) -> list[TensorVar]:
        return [self.a]

    @property
    def output(self) -> TensorVar:
        return self.out


class Lookup(Instruction):
    """Codebook lookup: ``out[i] = table[codes[i]]``.

    The extension the paper names for codebook quantization (LCQ,
    Section 10): weights are stored as small integer codes and expanded
    through a per-tensor codebook held in shared memory or registers.
    ``codes`` is an integer register tensor; ``table`` is a 1-D tensor
    whose extent is at least ``2**codes.dtype.nbits``.
    """

    mnemonic = "Lookup"

    def __init__(self, codes: TensorVar, table: TensorVar, out: TensorVar) -> None:
        self.codes = codes
        self.table = table
        self.out = out

    def inputs(self) -> list[TensorVar]:
        return [self.codes, self.table]

    @property
    def output(self) -> TensorVar:
        return self.out


# ---------------------------------------------------------------------------
# Tensor transfer
# ---------------------------------------------------------------------------


class LoadGlobal(Instruction):
    """Load a register tile from a global tensor at ``offset``.

    ``broadcast_dims`` marks tensor dimensions along which every tile
    element reads the row selected by the offset alone (the tile coordinate
    is ignored) — used to load scale vectors shared by a whole tile.
    """

    mnemonic = "LoadGlobal"

    def __init__(
        self,
        src: TensorVar,
        offset: Sequence,
        out: TensorVar,
        broadcast_dims: frozenset[int] = frozenset(),
        masked: bool = False,
    ) -> None:
        self.src = src
        self.offset = _offsets(offset)
        self.out = out
        self.broadcast_dims = frozenset(broadcast_dims)
        #: With masking, out-of-bounds elements read as zero (predicated
        #: loads for boundary tiles).
        self.masked = masked

    def inputs(self) -> list[TensorVar]:
        return [self.src]

    def scalar_operands(self) -> list[Expr]:
        return list(self.offset)

    @property
    def output(self) -> TensorVar:
        return self.out


class LoadShared(Instruction):
    """Load a register tile from a shared tensor at ``offset``."""

    mnemonic = "LoadShared"

    def __init__(
        self,
        src: TensorVar,
        offset: Sequence,
        out: TensorVar,
        broadcast_dims: frozenset[int] = frozenset(),
    ) -> None:
        self.src = src
        self.offset = _offsets(offset)
        self.out = out
        self.broadcast_dims = frozenset(broadcast_dims)

    def inputs(self) -> list[TensorVar]:
        return [self.src]

    def scalar_operands(self) -> list[Expr]:
        return list(self.offset)

    @property
    def output(self) -> TensorVar:
        return self.out


class StoreGlobal(Instruction):
    """Store a register tile into a global tensor at ``offset``.

    With ``masked`` set, out-of-bounds elements are dropped (predicated
    stores for boundary tiles).
    """

    mnemonic = "StoreGlobal"

    def __init__(
        self, src: TensorVar, dst: TensorVar, offset: Sequence, masked: bool = False
    ) -> None:
        self.src = src
        self.dst = dst
        self.offset = _offsets(offset)
        self.masked = masked

    def inputs(self) -> list[TensorVar]:
        return [self.src, self.dst]

    def scalar_operands(self) -> list[Expr]:
        return list(self.offset)


class StoreShared(Instruction):
    """Store a register tile into a shared tensor at ``offset``."""

    mnemonic = "StoreShared"

    def __init__(self, src: TensorVar, dst: TensorVar, offset: Sequence) -> None:
        self.src = src
        self.dst = dst
        self.offset = _offsets(offset)

    def inputs(self) -> list[TensorVar]:
        return [self.src, self.dst]

    def scalar_operands(self) -> list[Expr]:
        return list(self.offset)


class CopyAsync(Instruction):
    """Issue an asynchronous global→shared copy (``cp.async``).

    Copies a ``shape``-sized region from ``src`` (global, starting at
    ``src_offset``) into ``dst`` (shared, starting at ``dst_offset``).
    When ``shape`` is None the destination's full shape is copied.
    Completion is observed through :class:`CopyAsyncWaitGroup` followed by
    :class:`Synchronize`.
    """

    mnemonic = "CopyAsync"

    def __init__(
        self,
        dst: TensorVar,
        src: TensorVar,
        src_offset: Sequence,
        dst_offset: Optional[Sequence] = None,
        shape: Optional[Sequence[int]] = None,
    ) -> None:
        self.dst = dst
        self.src = src
        self.src_offset = _offsets(src_offset)
        self.dst_offset = _offsets(
            dst_offset if dst_offset is not None else [0] * dst.ttype.rank
        )
        self.shape = tuple(int(s) for s in shape) if shape is not None else None

    def inputs(self) -> list[TensorVar]:
        return [self.src, self.dst]

    def scalar_operands(self) -> list[Expr]:
        return list(self.src_offset) + list(self.dst_offset)

    def copy_shape(self) -> tuple[int, ...]:
        """The copied region's shape (defaults to the destination shape)."""
        if self.shape is not None:
            return self.shape
        static = self.dst.ttype.static_shape()
        if static is None:
            raise IRError("CopyAsync destination must have a static shape")
        return static


class CopyAsyncCommitGroup(Instruction):
    """Commit all outstanding ``CopyAsync`` operations as one group."""

    mnemonic = "CopyAsyncCommitGroup"


class CopyAsyncWaitGroup(Instruction):
    """Wait until at most ``n`` committed copy groups remain in flight."""

    mnemonic = "CopyAsyncWaitGroup"

    def __init__(self, n: int) -> None:
        self.n = int(n)


# ---------------------------------------------------------------------------
# Tensor creation
# ---------------------------------------------------------------------------


class AllocateRegister(Instruction):
    """Allocate a register tensor, optionally initialized to a constant."""

    mnemonic = "AllocateRegister"

    def __init__(self, out: TensorVar, init: Optional[float] = None) -> None:
        self.out = out
        self.init = init

    @property
    def output(self) -> TensorVar:
        return self.out


class AllocateShared(Instruction):
    """Allocate a shared-memory tensor."""

    mnemonic = "AllocateShared"

    def __init__(self, out: TensorVar) -> None:
        self.out = out

    @property
    def output(self) -> TensorVar:
        return self.out


class AllocateGlobal(Instruction):
    """Allocate a tensor in the runtime-managed global workspace."""

    mnemonic = "AllocateGlobal"

    def __init__(self, out: TensorVar) -> None:
        self.out = out

    @property
    def output(self) -> TensorVar:
        return self.out


class FreeShared(Instruction):
    """Release a shared tensor so its bytes can be reused by the planner."""

    mnemonic = "FreeShared"

    def __init__(self, tensor: TensorVar) -> None:
        self.tensor = tensor

    def inputs(self) -> list[TensorVar]:
        return [self.tensor]


class ViewGlobal(Instruction):
    """Create a global tensor view over a raw pointer parameter."""

    mnemonic = "ViewGlobal"

    def __init__(self, ptr: Expr, out: TensorVar) -> None:
        self.ptr = ptr
        self.out = out

    def scalar_operands(self) -> list[Expr]:
        return [self.ptr]

    @property
    def output(self) -> TensorVar:
        return self.out


# ---------------------------------------------------------------------------
# Indexing
# ---------------------------------------------------------------------------


class BlockIndices(Instruction):
    """Bind the thread-block indices in the launch grid to scalar vars."""

    mnemonic = "BlockIndices"

    def __init__(self, out_vars: Sequence) -> None:
        self.out_vars = list(out_vars)
