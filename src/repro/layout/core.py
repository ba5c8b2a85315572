"""The algebraic layout system (paper Sections 4 and 5).

A *layout* describes how the elements of a register tile are distributed
across the threads of a thread block: it is a bijection

    ``f(t, i) -> logical index``

from (thread index, local element index) pairs onto the tile's logical
index space.

Layouts are built from two parameterized primitives — :func:`local` and
:func:`spatial` (plus their column-major variants) — and combined with the
Kronecker product (written ``a * b`` or, fluently, ``a.spatial(...)``).
Internally every layout uses the *unified representation* of Section 5:

    - ``shape``: the tile shape,
    - ``mode_shape``: the extents of the sub-dimensions ("modes") each
      dimension is split into,
    - ``spatial_modes``: mode indices assigned to threads, most-significant
      first,
    - ``local_modes``: mode indices assigned to per-thread storage,
      most-significant first.

This representation is closed under the Kronecker product, which is what
makes layout algebra compositional.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import LayoutError
from repro.utils.indexmath import prod, ravel_index, unravel_index


class Layout:
    """A distributed register-tile layout in unified representation."""

    def __init__(
        self,
        shape: Sequence[int],
        mode_shape: Sequence[int],
        spatial_modes: Sequence[int],
        local_modes: Sequence[int],
        replicated_modes: Sequence[int] = (),
    ) -> None:
        self.shape: tuple[int, ...] = tuple(int(s) for s in shape)
        self.mode_shape: tuple[int, ...] = tuple(int(s) for s in mode_shape)
        self.spatial_modes: tuple[int, ...] = tuple(int(m) for m in spatial_modes)
        self.local_modes: tuple[int, ...] = tuple(int(m) for m in local_modes)
        #: Modes whose index bits select a *replica* rather than a logical
        #: position: every value of a replicated mode maps to the same
        #: element.  Used for multi-warp operand sharing.
        self.replicated_modes: frozenset[int] = frozenset(int(m) for m in replicated_modes)
        self._dim_modes = self._group_modes()
        self._validate()

    # -- construction helpers ---------------------------------------------
    def _group_modes(self) -> tuple[tuple[int, ...], ...]:
        """Assign consecutive modes to dimensions so that the extents of each
        dimension's non-replicated modes multiply to the dimension extent.
        Replicated modes contribute factor 1 and attach to the dimension
        being factored when they are encountered."""
        groups: list[tuple[int, ...]] = []
        mode = 0
        n_modes = len(self.mode_shape)
        for dim, extent in enumerate(self.shape):
            group: list[int] = []
            acc = 1
            while acc < extent or (
                mode < n_modes and mode in self.replicated_modes
            ):
                if mode >= n_modes:
                    raise LayoutError(
                        f"mode_shape {list(self.mode_shape)} does not factor shape "
                        f"{list(self.shape)} at dimension {dim}"
                    )
                group.append(mode)
                if mode not in self.replicated_modes:
                    acc *= self.mode_shape[mode]
                mode += 1
            if acc != extent:
                raise LayoutError(
                    f"modes {group} of extents "
                    f"{[self.mode_shape[g] for g in group]} overshoot dimension "
                    f"{dim} of extent {extent}"
                )
            groups.append(group)
        # Trailing replicated modes attach to the last dimension.
        while mode < n_modes and mode in self.replicated_modes:
            groups[-1].append(mode)
            mode += 1
        if mode != n_modes:
            raise LayoutError(
                f"mode_shape {list(self.mode_shape)} has {n_modes - mode} "
                f"unused trailing modes for shape {list(self.shape)}"
            )
        return tuple(tuple(g) for g in groups)

    def _validate(self) -> None:
        n_modes = len(self.mode_shape)
        seen = sorted(self.spatial_modes + self.local_modes)
        if seen != list(range(n_modes)):
            raise LayoutError(
                f"spatial_modes {list(self.spatial_modes)} + local_modes "
                f"{list(self.local_modes)} must partition modes 0..{n_modes - 1}"
            )
        if any(extent <= 0 for extent in self.shape):
            raise LayoutError(f"shape must be positive, got {list(self.shape)}")
        if not self.replicated_modes.issubset(self.spatial_modes):
            raise LayoutError("replicated modes must be spatial modes")

    # -- basic properties ---------------------------------------------------
    @property
    def rank(self) -> int:
        """Number of tile dimensions."""
        return len(self.shape)

    @property
    def num_threads(self) -> int:
        """Number of threads the tile is distributed over."""
        return prod(self.mode_shape[m] for m in self.spatial_modes)

    @property
    def local_size(self) -> int:
        """Number of elements stored by each thread."""
        return prod(self.mode_shape[m] for m in self.local_modes)

    @property
    def size(self) -> int:
        """Total number of tile elements."""
        return prod(self.shape)

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return tuple(self.mode_shape[m] for m in self.spatial_modes)

    @property
    def local_shape(self) -> tuple[int, ...]:
        return tuple(self.mode_shape[m] for m in self.local_modes)

    # -- the layout function ------------------------------------------------
    def map(self, thread: int, local: int) -> tuple[int, ...]:
        """Forward layout function ``f(t, i) -> logical index``."""
        return tuple(int(v) for v in self.map_batch(np.asarray(thread), np.asarray(local)))

    def map_batch(self, threads, locals_):
        """Vectorized forward map; inputs broadcast together.

        Returns a list of ``rank`` arrays, one per logical dimension.
        """
        threads = np.asarray(threads)
        locals_ = np.asarray(locals_)
        mode_index: list = [None] * len(self.mode_shape)
        for mode, value in zip(self.spatial_modes, unravel_index(threads, self.spatial_shape)):
            mode_index[mode] = value
        for mode, value in zip(self.local_modes, unravel_index(locals_, self.local_shape)):
            mode_index[mode] = value
        out = []
        for group in self._dim_modes:
            logical = [m for m in group if m not in self.replicated_modes]
            out.append(
                ravel_index(
                    [mode_index[m] for m in logical],
                    [self.mode_shape[m] for m in logical],
                )
                if logical
                else np.zeros_like(threads)
            )
        return out

    def locate(self, index: Sequence[int]) -> tuple[int, int]:
        """Inverse layout function: logical index -> ``(thread, local)``.

        This is the split-distribute-merge procedure of paper Figure 6.
        """
        if len(index) != self.rank:
            raise LayoutError(f"index {list(index)} has wrong rank for shape {list(self.shape)}")
        t, i = self.locate_batch([np.asarray(v) for v in index])
        return int(t), int(i)

    def locate_batch(self, index: Sequence):
        """Vectorized inverse map; ``index`` is one array per dimension."""
        mode_index: list = [None] * len(self.mode_shape)
        for dim, group in enumerate(self._dim_modes):
            logical = [m for m in group if m not in self.replicated_modes]
            parts = unravel_index(np.asarray(index[dim]), [self.mode_shape[m] for m in logical])
            for mode, value in zip(logical, parts):
                mode_index[mode] = value
            for mode in group:
                if mode in self.replicated_modes:
                    mode_index[mode] = np.zeros_like(np.asarray(index[dim]))
        zero = np.zeros_like(np.asarray(index[0]) if self.rank else 0)
        thread = ravel_index(
            [mode_index[m] if mode_index[m] is not None else zero for m in self.spatial_modes],
            self.spatial_shape,
        ) if self.spatial_modes else zero
        local = ravel_index(
            [mode_index[m] if mode_index[m] is not None else zero for m in self.local_modes],
            self.local_shape,
        ) if self.local_modes else zero
        return thread, local

    # -- algebra --------------------------------------------------------------
    def compose(self, other: "Layout") -> "Layout":
        """Kronecker product ``self ⊗ other`` (paper Section 4.2).

        ``h(t, i) = f(t // Tg, i // Ng) * Sg + g(t % Tg, i % Ng)``.
        """
        if self.rank != other.rank:
            raise LayoutError(
                f"cannot compose layouts of rank {self.rank} and {other.rank}"
            )
        shape = tuple(a * b for a, b in zip(self.shape, other.shape))
        # Interleave per-dimension modes: self's modes (more significant)
        # followed by other's modes, renumbering into the merged mode list.
        new_extents: list[int] = []
        self_remap: dict[int, int] = {}
        other_remap: dict[int, int] = {}
        for dim in range(self.rank):
            for mode in self._dim_modes[dim]:
                self_remap[mode] = len(new_extents)
                new_extents.append(self.mode_shape[mode])
            for mode in other._dim_modes[dim]:
                other_remap[mode] = len(new_extents)
                new_extents.append(other.mode_shape[mode])
        spatial = [self_remap[m] for m in self.spatial_modes] + [
            other_remap[m] for m in other.spatial_modes
        ]
        local = [self_remap[m] for m in self.local_modes] + [
            other_remap[m] for m in other.local_modes
        ]
        replicated = [self_remap[m] for m in self.replicated_modes] + [
            other_remap[m] for m in other.replicated_modes
        ]
        return Layout(shape, new_extents, spatial, local, replicated)

    def __mul__(self, other: "Layout") -> "Layout":
        return self.compose(other)

    def divide(self, divisor: "Layout") -> "Layout":
        """Right division: find ``f`` with ``f ⊗ divisor == self``.

        Works structurally on canonicalized layouts; raises
        :class:`LayoutError` when the divisor is not a structural suffix.
        """
        from repro.layout.ops import divide as _divide

        return _divide(self, divisor)

    def is_divisible_by(self, divisor: "Layout") -> bool:
        """Functional divisibility test (used by instruction selection)."""
        from repro.layout.ops import is_divisible

        return is_divisible(self, divisor)

    def canonical(self) -> "Layout":
        """Drop unit modes and merge mergeable adjacent modes."""
        from repro.layout.ops import canonicalize

        return canonicalize(self)

    # -- fluent composition helpers (paper surface syntax) --------------------
    def local(self, *extents: int) -> "Layout":
        """Compose with a row-major local primitive on the right."""
        return self.compose(local(*extents))

    def spatial(self, *extents: int) -> "Layout":
        """Compose with a row-major spatial primitive on the right."""
        return self.compose(spatial(*extents))

    def column_local(self, *extents: int) -> "Layout":
        """Compose with a column-major local primitive on the right."""
        return self.compose(column_local(*extents))

    def column_spatial(self, *extents: int) -> "Layout":
        """Compose with a column-major spatial primitive on the right."""
        return self.compose(column_spatial(*extents))

    # `repeat` is the Graphene/CUTLASS-flavoured alias the paper uses in
    # Section 8 ("spatial(8, 4).repeat(1, 4)").
    repeat = local
    column_repeat = column_local

    def replicate(self, *extents: int) -> "Layout":
        """Compose with a replication primitive on the right."""
        return self.compose(replicate(*extents, rank=self.rank))

    # -- comparisons and views -------------------------------------------------
    def table(self) -> np.ndarray:
        """Dense mapping table of shape (num_threads, local_size, rank)."""
        t = np.repeat(np.arange(self.num_threads), self.local_size)
        i = np.tile(np.arange(self.local_size), self.num_threads)
        cols = self.map_batch(t, i)
        return np.stack([np.broadcast_to(c, t.shape) for c in cols], axis=-1).reshape(
            self.num_threads, self.local_size, self.rank
        )

    def equivalent(self, other: "Layout") -> bool:
        """Functional equality: same shape and identical mapping tables."""
        return (
            self.shape == other.shape
            and self.num_threads == other.num_threads
            and self.local_size == other.local_size
            and bool(np.array_equal(self.table(), other.table()))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.mode_shape == other.mode_shape
            and self.spatial_modes == other.spatial_modes
            and self.local_modes == other.local_modes
            and self.replicated_modes == other.replicated_modes
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.shape,
                self.mode_shape,
                self.spatial_modes,
                self.local_modes,
                self.replicated_modes,
            )
        )

    def is_bijective(self) -> bool:
        """True when (t, i) pairs cover every logical index exactly once."""
        if self.num_threads * self.local_size != self.size:
            return False
        table = self.table().reshape(-1, self.rank)
        linear = np.ravel_multi_index(tuple(table.T), self.shape)
        return bool(np.unique(linear).size == self.size)

    def threads_and_locals(self) -> Iterator[tuple[int, int]]:
        """Iterate all (thread, local) pairs in row-major order."""
        for t in range(self.num_threads):
            for i in range(self.local_size):
                yield t, i

    def __repr__(self) -> str:
        repl = (
            f", replicated_modes={sorted(self.replicated_modes)}"
            if self.replicated_modes
            else ""
        )
        return (
            f"Layout(shape={list(self.shape)}, mode_shape={list(self.mode_shape)}, "
            f"spatial_modes={list(self.spatial_modes)}, local_modes={list(self.local_modes)}"
            f"{repl})"
        )

    def short_repr(self) -> str:
        """A compact display, e.g. ``{16x8, threads=32, locals=4}``."""
        dims = "x".join(str(s) for s in self.shape)
        return f"{{{dims}, threads={self.num_threads}, locals={self.local_size}}}"


def _primitive(extents: Sequence[int], kind: str, column: bool) -> Layout:
    extents = tuple(int(e) for e in extents)
    if not extents:
        raise LayoutError("a primitive layout needs at least one dimension")
    if any(e <= 0 for e in extents):
        raise LayoutError(f"primitive extents must be positive, got {list(extents)}")
    modes = list(range(len(extents)))
    order = list(reversed(modes)) if column else modes
    # Drop unit dims from the assignment order — they carry no index bits —
    # while keeping them in the shape/mode structure for rank bookkeeping.
    order = [m for m in order if extents[m] > 1]
    spatial_modes = order if kind == "spatial" else []
    local_modes = order if kind == "local" else []
    # Unit modes must still be assigned somewhere to partition the mode set.
    mode_shape = [e for e in extents if e > 1]
    remap = {}
    next_id = 0
    for m in modes:
        if extents[m] > 1:
            remap[m] = next_id
            next_id += 1
    spatial_modes = [remap[m] for m in spatial_modes]
    local_modes = [remap[m] for m in local_modes]
    shape = extents
    return Layout(shape, mode_shape, spatial_modes, local_modes)


def local(*extents: int) -> Layout:
    """Row-major local layout: all elements in one thread (paper Fig. 4)."""
    return _primitive(extents, "local", column=False)


def spatial(*extents: int) -> Layout:
    """Row-major spatial layout: one element per thread (paper Fig. 4)."""
    return _primitive(extents, "spatial", column=False)


def column_local(*extents: int) -> Layout:
    """Column-major local layout (first dimension varies fastest)."""
    return _primitive(extents, "local", column=True)


def column_spatial(*extents: int) -> Layout:
    """Column-major spatial layout (first dimension varies fastest)."""
    return _primitive(extents, "spatial", column=True)


# Aliases matching the paper's occasional naming.
repeat = local
column_repeat = column_local


def replicate(*extents: int, rank: int | None = None) -> Layout:
    """A replication layout: ``prod(extents)`` threads all hold the *same*
    (single) element of a unit-shaped tile.

    Composing ``replicate(n)`` into a layout makes ``n`` thread groups share
    one operand copy — how multi-warp kernels share A/B fragments across
    warps.  ``rank`` pads the unit shape so the primitive composes with a
    layout of that rank.
    """
    extents = tuple(int(e) for e in extents)
    if any(e <= 0 for e in extents):
        raise LayoutError(f"replicate extents must be positive, got {list(extents)}")
    rank = rank if rank is not None else len(extents)
    shape = (1,) * rank
    mode_shape = [e for e in extents if e > 1]
    modes = list(range(len(mode_shape)))
    return Layout(shape, mode_shape, spatial_modes=modes, local_modes=[], replicated_modes=modes)


def flat_local(size: int) -> Layout:
    """1-D local layout of the given size."""
    return local(size)


def flat_spatial(size: int) -> Layout:
    """1-D spatial layout of the given size."""
    return spatial(size)
