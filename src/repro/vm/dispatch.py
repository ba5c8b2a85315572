"""Handler-table dispatch for VM execution engines.

The instruction set (paper Table 1) is stated twice, and each statement is
one :class:`DispatchTable` mapping instruction classes to handlers instead
of a per-instruction ``if``/``elif`` chain (or reflective ``getattr``
lookups) inside an engine:

- :data:`SEQUENTIAL` — the naive oracle, module-level functions in
  :mod:`repro.vm.interp`::

      @SEQUENTIAL.register(insts.LoadGlobal)
      def _exec_load_global(vm, inst, ctx):
          ...

- :data:`LOCKSTEP` — the block-vectorised tiers, methods of
  :class:`repro.vm.batched.TileWalk`.  There is one such set, not one per
  tier: :class:`~repro.vm.batched.BatchedExecutor` runs the handlers on
  arrays, the lowering pipeline (:mod:`repro.compiler.lower`) runs the
  same handlers on names, and what they then compute is the kernel.

This keeps the instruction set open for extension (a new instruction brings
its handlers) and makes "which statement covers what" a first-class,
inspectable property instead of an accident of method naming
(``tests/test_instruction_coverage.py``).

The module also holds the index-math helpers both statements share:
per-layout tile coordinates (cached per layout instance, since the mapping
is launch-invariant) and row-major linear-index decomposition.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.errors import VMError
from repro.ir import instructions as insts

#: Cache attribute stashed on Layout instances; the (thread, local) -> index
#: tables are pure functions of the layout and dominate interpreter time
#: when recomputed on every load/store.
_COORDS_ATTR = "_vm_tile_coords"


class DispatchTable:
    """Maps instruction classes to handler callables for one engine.

    Handlers take ``(vm, inst, ctx)`` for the sequential engine and
    ``(walk, inst, active)`` for the lockstep walk; the table itself is
    agnostic — it only stores and looks up callables.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._handlers: dict[type, Callable] = {}

    def register(self, *inst_classes: type) -> Callable:
        """Decorator: bind a handler to one or more instruction classes."""

        def decorate(fn: Callable) -> Callable:
            for cls in inst_classes:
                if not (isinstance(cls, type) and issubclass(cls, insts.Instruction)):
                    raise TypeError(f"{cls!r} is not an Instruction class")
                if cls in self._handlers:
                    raise ValueError(
                        f"duplicate {self.name} handler for {cls.__name__}"
                    )
                self._handlers[cls] = fn
            return fn

        return decorate

    def lookup(self, inst: insts.Instruction) -> Callable:
        """The handler for ``inst``, or raise :class:`VMError`."""
        handler = self._handlers.get(type(inst))
        if handler is None:
            raise VMError(
                f"no {self.name} handler for instruction {type(inst).__name__}"
            )
        return handler

    def instruction_classes(self) -> Iterable[type]:
        return self._handlers.keys()

    def __len__(self) -> int:
        return len(self._handlers)

    def __repr__(self) -> str:
        return f"DispatchTable({self.name!r}, {len(self)} handlers)"


#: Dispatch table of the sequential interpreter (populated by repro.vm.interp).
SEQUENTIAL = DispatchTable("sequential")

#: The one handler set of the block-vectorised tiers (populated by
#: repro.vm.batched): the batched executor runs it on arrays, the
#: lowering pipeline runs the same handlers on names to write a kernel.
LOCKSTEP = DispatchTable("batched")


# ---------------------------------------------------------------------------
# Index-math helpers shared by both engines
# ---------------------------------------------------------------------------


def layout_tile_coords(layout) -> list[np.ndarray]:
    """Logical coordinates touched by one register tile, flattened.

    Returns one int64 array of length ``num_threads * local_size`` per
    tensor dimension, ordered (thread-major, local-minor) — the order both
    engines use for gather/scatter and pattern reshapes.  Cached on the
    layout instance: the mapping depends only on the layout.
    """
    cached = getattr(layout, _COORDS_ATTR, None)
    if cached is not None:
        return cached
    t = np.repeat(np.arange(layout.num_threads), layout.local_size)
    i = np.tile(np.arange(layout.local_size), layout.num_threads)
    coords = [
        np.ascontiguousarray(np.broadcast_to(c, t.shape), dtype=np.int64)
        for c in layout.map_batch(t, i)
    ]
    try:
        setattr(layout, _COORDS_ATTR, coords)
    except AttributeError:
        pass  # layouts with __slots__ simply skip the cache
    return coords


def decompose_linear(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Row-major multi-indices of every element of a ``shape`` tensor."""
    size = int(np.prod(shape)) if shape else 1
    linear = np.arange(size, dtype=np.int64)
    idx: list[np.ndarray] = []
    rem = linear
    for extent in reversed(shape):
        idx.append(rem % extent)
        rem = rem // extent
    idx.reverse()
    return idx


def bounds_mask(indices: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Elementwise validity of multi-indices against ``shape``."""
    valid = np.ones(np.asarray(indices[0]).shape, dtype=bool)
    for idx, extent in zip(indices, shape):
        valid &= (idx >= 0) & (idx < extent)
    return valid


def pad_tile_indices(
    coords: list[np.ndarray],
    origin: list,
    broadcast_dims: frozenset[int] = frozenset(),
) -> list:
    """Combine tile coordinates with a (possibly lower-rank) tensor origin.

    When the register tile has lower rank than the memory tensor the tile
    addresses the trailing dimensions and the leading ones are fixed by the
    origin alone; dimensions in ``broadcast_dims`` ignore the tile
    coordinate entirely (scale-vector broadcast loads).  ``origin`` entries
    may be Python ints (sequential engine) or per-block arrays shaped to
    broadcast against the coordinates (batched engine).
    """
    pad = len(origin) - len(coords)
    if pad < 0:
        raise VMError(
            f"register tile rank {len(coords)} exceeds tensor rank {len(origin)}"
        )
    zero = np.zeros_like(coords[0])
    full = [zero] * pad + list(coords)
    return [
        (zero if d in broadcast_dims else c) + o
        for d, (c, o) in enumerate(zip(full, origin))
    ]
