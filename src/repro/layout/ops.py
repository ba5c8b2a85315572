"""Algebraic operations on layouts: canonicalization and division.

Division is the inverse of the Kronecker product: ``divide(h, g)`` returns
``f`` such that ``f ⊗ g == h``.  The paper uses division to decide when a
register layout is compatible with a hardware instruction (e.g. ``ldmatrix``
requires the layout to be divisible by ``spatial(8, 4).repeat(1, 4)``,
Section 8 step 2).

Two flavours are provided:

- :func:`divide` — structural division.  It aligns mode boundaries by
  splitting modes, then peels the divisor's modes off the least-significant
  end of the dividend.  It returns the quotient as a :class:`Layout`.
- :func:`is_divisible` — functional divisibility.  It checks whether *any*
  quotient exists by verifying the Kronecker identity pointwise.  This is
  the complete test used by instruction selection.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LayoutError
from repro.layout.core import Layout


def canonicalize(layout: Layout) -> Layout:
    """Drop unit modes and merge mergeable adjacent modes.

    Two modes merge when they are adjacent (most-significant first) both in
    their dimension's factorization and in the same spatial/local
    assignment list; the merged mode has the product extent.  The result is
    functionally identical to the input.
    """
    mode_shape = list(layout.mode_shape)
    spatial = list(layout.spatial_modes)
    local = list(layout.local_modes)
    replicated = set(layout.replicated_modes)
    dim_groups = [list(g) for g in layout._dim_modes]

    # Step 1: drop unit modes.
    keep = [m for m, e in enumerate(mode_shape) if e > 1]
    remap = {m: k for k, m in enumerate(keep)}
    mode_shape = [mode_shape[m] for m in keep]
    spatial = [remap[m] for m in spatial if m in remap]
    local = [remap[m] for m in local if m in remap]
    replicated = {remap[m] for m in replicated if m in remap}
    dim_groups = [[remap[m] for m in g if m in remap] for g in dim_groups]

    # Step 2: merge adjacent modes until fixpoint (same assignment list,
    # same replication flag).
    def try_merge() -> bool:
        for group in dim_groups:
            for a, b in zip(group, group[1:]):
                if (a in replicated) != (b in replicated):
                    continue
                for lst in (spatial, local):
                    if a in lst and b in lst:
                        pa, pb = lst.index(a), lst.index(b)
                        if pb == pa + 1:
                            _merge_modes(a, b)
                            return True
        return False

    def _merge_modes(a: int, b: int) -> None:
        mode_shape[a] *= mode_shape[b]
        del mode_shape[b]

        def fix(lst: list[int]) -> list[int]:
            out = []
            for m in lst:
                if m == b:
                    continue
                out.append(m - 1 if m > b else m)
            return out

        spatial[:] = fix(spatial)
        local[:] = fix(local)
        replicated_fixed = {m - 1 if m > b else m for m in replicated if m != b}
        replicated.clear()
        replicated.update(replicated_fixed)
        for g in dim_groups:
            g[:] = fix(g)

    while try_merge():
        pass

    flat_modes = [m for g in dim_groups for m in g]
    # Renumber modes into dimension order (required by the constructor).
    order = {m: k for k, m in enumerate(flat_modes)}
    return Layout(
        layout.shape,
        [mode_shape[m] for m in flat_modes],
        [order[m] for m in spatial],
        [order[m] for m in local],
        [order[m] for m in replicated],
    )


def _split_align(layout: Layout, divisor: Layout) -> tuple[list[int], list[int], list[int], list[list[int]], dict[int, int]]:
    """Split ``layout``'s modes so the divisor's per-dim modes align with a
    least-significant suffix.  Returns the adjusted mode structure and the
    mapping from divisor modes to layout modes."""
    mode_shape = list(layout.mode_shape)
    spatial = list(layout.spatial_modes)
    local = list(layout.local_modes)
    dim_groups = [list(g) for g in layout._dim_modes]
    match: dict[int, int] = {}  # divisor mode -> layout mode

    def split_mode(mode: int, lo_extent: int) -> int:
        """Split ``mode`` into (hi, lo=lo_extent); returns the lo mode id."""
        hi_extent = mode_shape[mode] // lo_extent
        mode_shape[mode] = hi_extent
        lo = len(mode_shape)
        mode_shape.append(lo_extent)
        for lst in (spatial, local):
            if mode in lst:
                lst.insert(lst.index(mode) + 1, lo)
        for g in dim_groups:
            if mode in g:
                g.insert(g.index(mode) + 1, lo)
        return lo

    for dim in range(layout.rank):
        gmodes = list(divisor._dim_modes[dim])
        consumed = 0  # how many layout modes at the tail are matched
        for gmode in reversed(gmodes):
            need = divisor.mode_shape[gmode]
            if need == 1:
                continue
            group = dim_groups[dim]
            pos = len(group) - 1 - consumed
            if pos < 0:
                raise LayoutError(f"dimension {dim}: divisor has more modes than dividend")
            hmode = group[pos]
            have = mode_shape[hmode]
            if have == need:
                match[gmode] = hmode
            elif have % need == 0 and have > need:
                match[gmode] = split_mode(hmode, need)
            else:
                raise LayoutError(
                    f"dimension {dim}: cannot align divisor mode extent {need} "
                    f"with dividend mode extent {have}"
                )
            consumed += 1
    return mode_shape, spatial, local, dim_groups, match


def divide(layout: Layout, divisor: Layout) -> Layout:
    """Structural right division: return ``f`` with ``f ⊗ divisor == layout``.

    Raises :class:`LayoutError` when the division does not exist
    structurally.  The result is verified functionally before returning.
    """
    if layout.rank != divisor.rank:
        raise LayoutError(
            f"rank mismatch: {layout.rank} vs {divisor.rank} in layout division"
        )
    if layout.replicated_modes or divisor.replicated_modes:
        raise LayoutError(
            "structural division of replicated layouts is not supported; "
            "use is_divisible for a functional check"
        )
    for dim in range(layout.rank):
        if layout.shape[dim] % divisor.shape[dim] != 0:
            raise LayoutError(
                f"shape {list(layout.shape)} not divisible by {list(divisor.shape)}"
            )
    layout = canonicalize(layout)
    divisor_c = canonicalize(divisor)
    mode_shape, spatial, local, dim_groups, match = _split_align(layout, divisor_c)

    matched = set(match.values())
    # The matched modes must occupy the least-significant tail of the
    # spatial and local lists, in the divisor's own order.
    want_spatial_tail = [match[m] for m in divisor_c.spatial_modes]
    want_local_tail = [match[m] for m in divisor_c.local_modes]
    if spatial[len(spatial) - len(want_spatial_tail):] != want_spatial_tail:
        raise LayoutError("divisor spatial modes are not a least-significant suffix")
    if local[len(local) - len(want_local_tail):] != want_local_tail:
        raise LayoutError("divisor local modes are not a least-significant suffix")

    quot_shape = [a // b for a, b in zip(layout.shape, divisor_c.shape)]
    quot_groups = [[m for m in g if m not in matched] for g in dim_groups]
    flat = [m for g in quot_groups for m in g]
    order = {m: k for k, m in enumerate(flat)}
    quotient = Layout(
        quot_shape,
        [mode_shape[m] for m in flat],
        [order[m] for m in spatial if m not in matched],
        [order[m] for m in local if m not in matched],
    )
    if not quotient.compose(divisor).equivalent(layout):
        raise LayoutError("structural division produced an inconsistent quotient")
    return quotient


def is_divisible(layout: Layout, divisor: Layout) -> bool:
    """Functional divisibility: does any ``f`` with ``f ⊗ divisor == layout``
    exist?  Complete (unlike structural division) and used by instruction
    selection to test e.g. ``ldmatrix`` compatibility."""
    if layout.rank != divisor.rank:
        return False
    tg, ng = divisor.num_threads, divisor.local_size
    if tg == 0 or ng == 0:
        return False
    if layout.num_threads % tg or layout.local_size % ng:
        return False
    if any(a % b for a, b in zip(layout.shape, divisor.shape)):
        return False
    t = np.repeat(np.arange(layout.num_threads), layout.local_size)
    i = np.tile(np.arange(layout.local_size), layout.num_threads)
    h_cols = layout.map_batch(t, i)
    g_cols = divisor.map_batch(t % tg, i % ng)
    # Candidate quotient values read off the aligned sub-grid.
    hi_cols = layout.map_batch((t // tg) * tg, (i // ng) * ng)
    sg = divisor.shape
    for dim in range(layout.rank):
        recomposed = (np.asarray(hi_cols[dim]) // sg[dim]) * sg[dim] + np.asarray(g_cols[dim])
        if not np.array_equal(np.broadcast_to(recomposed, t.shape), np.broadcast_to(h_cols[dim], t.shape)):
            return False
    return True


def left_divide(layout: Layout, divisor: Layout) -> Layout:
    """Left division: return ``f`` with ``divisor ⊗ f == layout``."""
    if layout.rank != divisor.rank:
        raise LayoutError("rank mismatch in left division")
    if layout.replicated_modes or divisor.replicated_modes:
        raise LayoutError(
            "structural division of replicated layouts is not supported; "
            "use is_divisible for a functional check"
        )
    quot_shape = []
    for dim in range(layout.rank):
        if layout.shape[dim] % divisor.shape[dim] != 0:
            raise LayoutError("shape not divisible in left division")
        quot_shape.append(layout.shape[dim] // divisor.shape[dim])
    # Mirror of divide(): peel divisor modes off the most-significant end.
    layout_c = canonicalize(layout)
    divisor_c = canonicalize(divisor)
    mode_shape = list(layout_c.mode_shape)
    spatial = list(layout_c.spatial_modes)
    local = list(layout_c.local_modes)
    dim_groups = [list(g) for g in layout_c._dim_modes]
    match: dict[int, int] = {}

    def split_mode(mode: int, hi_extent: int) -> int:
        lo_extent = mode_shape[mode] // hi_extent
        mode_shape[mode] = lo_extent
        hi = len(mode_shape)
        mode_shape.append(hi_extent)
        for lst in (spatial, local):
            if mode in lst:
                lst.insert(lst.index(mode), hi)
        for g in dim_groups:
            if mode in g:
                g.insert(g.index(mode), hi)
        return hi

    for dim in range(layout_c.rank):
        consumed = 0
        for gmode in divisor_c._dim_modes[dim]:
            need = divisor_c.mode_shape[gmode]
            if need == 1:
                continue
            group = dim_groups[dim]
            if consumed >= len(group):
                raise LayoutError("divisor has more modes than dividend (left division)")
            hmode = group[consumed]
            have = mode_shape[hmode]
            if have == need:
                match[gmode] = hmode
            elif have % need == 0 and have > need:
                match[gmode] = split_mode(hmode, need)
                # The freshly created hi mode sits at position `consumed`.
            else:
                raise LayoutError("cannot align modes in left division")
            consumed += 1

    matched = set(match.values())
    want_spatial_head = [match[m] for m in divisor_c.spatial_modes]
    want_local_head = [match[m] for m in divisor_c.local_modes]
    if spatial[: len(want_spatial_head)] != want_spatial_head:
        raise LayoutError("divisor spatial modes are not a most-significant prefix")
    if local[: len(want_local_head)] != want_local_head:
        raise LayoutError("divisor local modes are not a most-significant prefix")

    quot_groups = [[m for m in g if m not in matched] for g in dim_groups]
    flat = [m for g in quot_groups for m in g]
    order = {m: k for k, m in enumerate(flat)}
    quotient = Layout(
        quot_shape,
        [mode_shape[m] for m in flat],
        [order[m] for m in spatial if m not in matched],
        [order[m] for m in local if m not in matched],
    )
    if not divisor.compose(quotient).equivalent(layout):
        raise LayoutError("structural left division produced an inconsistent quotient")
    return quotient
