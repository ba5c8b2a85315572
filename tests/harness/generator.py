"""Randomized Tilus program generator for differential testing.

Every case is built from a seeded RNG, so the suite is fully
reproducible: ``generate_case(seed)`` always yields the same program and
the same input data.  Cases are drawn from several *families*, each
exercising a different slice of the instruction set:

- ``pipeline``     — load → elementwise/cast/view chains → store, with
  optional divergent if/else, accumulation loops (with ``continue`` /
  ``break``), while-loops with per-block trip counts, early ``Exit``,
  broadcast loads and masked boundary tiles;
- ``subbyte_view`` — compact sub-byte tiles (1..7 bit) loaded and
  bit-reinterpreted to ``u16`` (paper Figure 2(c)), then stored;
- ``shared``       — shared-memory staging: store/load roundtrips with a
  changed thread mapping, and ``cp.async`` staging with zero-fill;
- ``dot``          — tensor-core style tile MMA with accumulation;
- ``reduce``       — row/column reductions;
- ``lookup``       — codebook expansion from sub-byte codes;
- ``pipelined_matmul`` — the *full* quantized matmul template
  (``kernels/matmul.py``) on its software-pipelined ``cp.async`` path;
- ``splitk``       — the split-k partial + reduce kernel pair
  (``kernels/splitk.py``), a multi-launch case whose second launch reads
  what the first wrote (exercising cross-launch hazard ordering in the
  stream execution mode).

All programs write only through their output pointers and keep every
unmasked access in bounds, so every engine must produce *bit-identical*
device memory for the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dtypes import DataType, dtype_from_name, float16, float32, int32, uint8
from repro.ir.program import Program
from repro.ir.stmt import AssignStmt
from repro.ir.expr import wrap
from repro.kernels import (
    MatmulConfig,
    matmul_layouts,
    quantized_matmul_program,
    splitk_partial_program,
    splitk_reduce_program,
)
from repro.lang import ProgramBuilder, pointer
from repro.layout import column_spatial, spatial
from repro.quant import QuantScheme, quantize_weight, transform_weight

from tests.helpers import random_values_for


@dataclass
class GeneratedCase:
    """One differential test case: program(s) plus launch data.

    Buffers are numbered inputs-first then outputs; ``launches`` maps each
    program to the buffer indices forming its argument list (``None`` for
    the common single-program case: one launch taking every buffer in
    order).
    """

    seed: int
    family: str
    program: Program
    #: (array, dtype) pairs uploaded in parameter order.
    inputs: list = field(default_factory=list)
    #: (shape, dtype) pairs allocated (zero-initialized device memory) after
    #: the inputs, continuing the parameter order.
    outputs: list = field(default_factory=list)
    #: Optional multi-launch plan: (program, buffer-index tuple) pairs.
    launches: list = field(default=None)
    #: How many times the plan is issued (see :meth:`replicated`).
    copies: int = 1

    def launch_plan(self) -> list:
        """Normalized (program, buffer indices) launch sequence."""
        if self.launches is not None:
            return self.launches
        nbuffers = len(self.inputs) + len(self.outputs)
        return [(self.program, tuple(range(nbuffers)))]

    def replicated(self, copies: int, private_inputs=()) -> "GeneratedCase":
        """This case issued ``copies`` times: every copy re-runs the
        whole launch plan into its own outputs (copy-major order), so
        the copies are hazard-independent launches of one specialization
        — what the runtime stacks into one execution group.  The copies
        read the same input buffers, except the inputs whose index is in
        ``private_inputs``: each copy after the first gets its own
        upload of those (equal bytes at another address), so the stack
        does not share that pointer."""
        n_in, n_out = len(self.inputs), len(self.outputs)
        private = sorted(private_inputs)
        total_in = n_in + (copies - 1) * len(private)

        def buffer(i: int, copy: int) -> int:
            if i >= n_in:
                return total_in + (i - n_in) + copy * n_out
            if copy and i in private:
                return n_in + (copy - 1) * len(private) + private.index(i)
            return i

        return GeneratedCase(
            self.seed,
            self.family,
            self.program,
            inputs=self.inputs + [self.inputs[i] for i in private] * (copies - 1),
            outputs=self.outputs * copies,
            launches=[
                (program, tuple(buffer(i, copy) for i in spec))
                for copy in range(copies)
                for program, spec in self.launch_plan()
            ],
            copies=copies,
        )

    def describe(self) -> str:
        programs = "\n".join(repr(p) for p, _ in self.launch_plan())
        return f"seed={self.seed} family={self.family}\n{programs}"


_FAMILIES = (
    "pipeline",
    "pipeline",
    "pipeline",
    "subbyte_view",
    "shared",
    "dot",
    "reduce",
    "lookup",
    "pipelined_matmul",
    "splitk",
)

#: One seed in this many issues its plan several times over
#: (:meth:`GeneratedCase.replicated`): independent same-specialization
#: launches, the input of launch stacking.
REPLICATE_EVERY = 16

#: Which inputs a replicated plan's copies get private uploads of, by
#: input count; the replicated seeds take the forms in turn.  ``shared``
#: stacks launches that read every operand through one pointer,
#: ``private`` is the stack with nothing in common, ``mixed`` shares the
#: first input only (a ``Dot`` with a shared left operand, an
#: elementwise op of a shared and a per-launch register).
SHARING_FORMS = {
    "shared": lambda n_in: (),
    "private": lambda n_in: tuple(range(n_in)),
    "mixed": lambda n_in: tuple(range(1, n_in)),
}

_GRIDS = [(2, 1), (2, 2), (3, 1), (2, 3), (4, 2), (3, 2)]
_TILES = [(4, 8), (8, 4), (2, 16)]


def generate_case(seed: int, sharing: str | None = None) -> GeneratedCase:
    """Build the deterministic case for ``seed``.  A replicated seed
    takes the :data:`SHARING_FORMS` in turn unless ``sharing`` names
    one."""
    rng = np.random.default_rng(seed)
    family = _FAMILIES[int(rng.integers(len(_FAMILIES)))]
    builder = {
        "pipeline": _gen_pipeline,
        "subbyte_view": _gen_subbyte_view,
        "shared": _gen_shared,
        "dot": _gen_dot,
        "reduce": _gen_reduce,
        "lookup": _gen_lookup,
        "pipelined_matmul": _gen_pipelined_matmul,
        "splitk": _gen_splitk,
    }[family]
    case = builder(seed, rng, family)
    if seed % REPLICATE_EVERY != REPLICATE_EVERY - 1:
        return case
    turn = seed // REPLICATE_EVERY
    form = SHARING_FORMS[sharing or list(SHARING_FORMS)[turn % len(SHARING_FORMS)]]
    # 5..8 copies: at least five pending launches of one
    # specialization, which the pool's drain stacks.
    return case.replicated(5 + turn % 4, form(len(case.inputs)))


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


# ---------------------------------------------------------------------------
# pipeline family
# ---------------------------------------------------------------------------

_PIPELINE_DTYPES = ["f16", "f32", "i32", "i16", "i8", "u8", "u16"]
_CASTS = {
    "f16": ["f32", "i32", "i16"],
    "f32": ["f16", "i32"],
    "i32": ["f32", "i16", "f16"],
    "i16": ["i32", "f32"],
    "i8": ["i32", "f32", "i16"],
    "u8": ["i32", "u16", "f32"],
    "u16": ["i32", "f32"],
}


def _scalar_for(rng, dtype: DataType):
    if dtype.is_integer:
        return int(rng.integers(1, 5))
    return float(np.float16(rng.uniform(0.5, 2.0)))


def _gen_pipeline(seed: int, rng, family: str) -> GeneratedCase:
    gb, gw = _pick(rng, _GRIDS)
    th, tw = _pick(rng, _TILES)
    dname = _pick(rng, _PIPELINE_DTYPES)
    dtype = dtype_from_name(dname)
    layout = spatial(th, tw)
    masked = bool(rng.integers(4) == 0)
    broadcast = bool(rng.integers(3) == 0)

    rows, cols = gb * th, gw * tw
    if masked:
        rows -= int(rng.integers(1, th))  # last row-tiles overshoot

    pb = ProgramBuilder(f"pipeline_{seed}", grid=[gb, gw])
    in_ptr = pb.param("in0", pointer(dtype))
    brd_ptr = pb.param("brd", pointer(dtype)) if broadcast else None
    out_ptr = pb.param("out0", pointer(dtype))

    bi, bj = pb.block_indices()
    g_in = pb.view_global(in_ptr, dtype=dtype, shape=[rows, cols])
    g_out = pb.view_global(out_ptr, dtype=dtype, shape=[rows, cols])

    cur = pb.load_global(g_in, layout=layout, offset=[bi * th, bj * tw], masked=masked)
    if broadcast:
        g_brd = pb.view_global(brd_ptr, dtype=dtype, shape=[1, cols])
        row = pb.load_global(g_brd, layout=layout, offset=[0, bj * tw], broadcast_dims=[0])
        cur = pb.add(cur, row)

    cur_d = dname
    squared = False
    for _ in range(int(rng.integers(2, 6))):
        op = _pick(rng, ["add", "sub", "mul", "neg", "cast", "view", "div", "mod", "tile"])
        d = dtype_from_name(cur_d)
        if op in ("add", "sub", "mul"):
            cur = getattr(pb, op)(cur, _scalar_for(rng, d))
        elif op == "div" and d.is_integer:
            cur = pb.div(cur, int(rng.integers(2, 5)))
        elif op == "mod" and d.is_integer:
            cur = pb.mod(cur, int(rng.integers(2, 6)))
        elif op == "neg" and d.is_signed:
            cur = pb.neg(cur)
        elif op == "cast":
            cur_d = _pick(rng, _CASTS[cur_d])
            cur = pb.cast(cur, cur_d)
        elif op == "view" and d.nbits in (8, 16, 32):
            # Reinterpret to the unsigned integer of the same width and
            # back: a pure bit-level no-op that must stay bit-exact.
            u = f"u{d.nbits}"
            cur = pb.view(cur, u, cur.ttype.layout)
            cur = pb.view(cur, cur_d, cur.ttype.layout)
        elif op == "tile" and not squared and dname in ("f16", "i8", "u8"):
            # Square at most once, and only small-range sources, so later
            # float→int casts stay on the well-defined (in-range) path.
            squared = True
            cur = pb.mul(cur, cur)

    # Optional control flow over the accumulated tile.
    feature = _pick(rng, ["none", "ifelse", "forloop", "while", "exit", "divguard"])
    acc_d = "f32" if dtype_from_name(cur_d).is_float else "i32"
    if feature == "ifelse":
        merged = pb.allocate_register(cur_d, layout=cur.ttype.layout, init=0.0)
        with pb.if_then(((bi + bj) % 2).equals(0)):
            pb.add(cur, _scalar_for(rng, dtype_from_name(cur_d)), out=merged)
        with pb.otherwise():
            pb.sub(cur, _scalar_for(rng, dtype_from_name(cur_d)), out=merged)
        cur = merged
    elif feature == "forloop":
        acc = pb.allocate_register(acc_d, layout=cur.ttype.layout, init=0.0)
        contrib = pb.cast(cur, acc_d)
        skip = int(rng.integers(4))
        varying = bool(rng.integers(2))
        extent = 2 + bi % 2 if varying else int(rng.integers(2, 5))
        with pb.for_range(extent) as i:
            if skip == 0:
                with pb.if_then(((i + bi) % 2).equals(0)):
                    pb.continue_()
            elif skip == 1:
                with pb.if_then(i > 1 + bi % 2):
                    pb.break_()
            pb.add(acc, contrib, out=acc)
        if varying:
            # Post-loop read of the loop variable: each block must observe
            # its *own* final iteration index.
            pb.add(acc, i + 1, out=acc)
        cur, cur_d = acc, acc_d
    elif feature == "while":
        acc = pb.allocate_register(acc_d, layout=cur.ttype.layout, init=1.0)
        contrib = pb.cast(cur, acc_d)
        j = pb.assign("i32", (bi + bj) % 3 + 1)
        with pb.while_loop(j > 0):
            pb.add(acc, contrib, out=acc)
            pb._stack[-1].append(AssignStmt(j, wrap(j - 1)))
        cur, cur_d = acc, acc_d
    elif feature == "exit":
        with pb.if_then(((bi * gw + bj) % 3).equals(0)):
            pb.exit()
    elif feature == "divguard":
        # Division by the block index, guarded by divergent control flow:
        # masked-off blocks must not poison the batched evaluation.
        merged = pb.allocate_register(cur_d, layout=cur.ttype.layout, init=0.0)
        with pb.if_then(bi > 0):
            safe_row = (bi * th * bi) / bi  # == bi * th only where bi > 0
            extra = pb.load_global(
                g_in, layout=layout, offset=[safe_row, bj * tw], masked=masked
            )
            extra_c = pb.cast(extra, cur_d) if cur_d != dname else extra
            pb.add(cur, extra_c, out=merged)
        with pb.otherwise():
            pb.sub(cur, _scalar_for(rng, dtype_from_name(cur_d)), out=merged)
        cur = merged

    out_final = pb.cast(cur, dname) if cur_d != dname else cur
    pb.store_global(out_final, g_out, offset=[bi * th, bj * tw], masked=masked)
    program = pb.finish()

    inputs = [(random_values_for(dtype, (rows, cols), rng), dtype)]
    if broadcast:
        inputs.append((random_values_for(dtype, (1, cols), rng), dtype))
    return GeneratedCase(
        seed, family, program, inputs=inputs, outputs=[((rows, cols), dtype)]
    )


# ---------------------------------------------------------------------------
# sub-byte reinterpretation family
# ---------------------------------------------------------------------------

_SUBBYTE = ["u1", "u2", "u3", "u4", "u5", "u6", "u7", "i4", "i6"]


def _gen_subbyte_view(seed: int, rng, family: str) -> GeneratedCase:
    gb, gw = _pick(rng, _GRIDS)
    th, tw = _pick(rng, [(4, 8), (8, 4)])
    dtype = dtype_from_name(_pick(rng, _SUBBYTE))
    nbits = dtype.nbits
    bits = int(np.lcm(nbits, 16))
    lc = bits // nbits          # sub-byte locals per thread
    u16_lc = bits // 16         # u16 locals after reinterpretation
    u16 = dtype_from_name("u16")

    layout = spatial(th, tw).local(1, lc)
    u16_layout = spatial(th, tw).local(1, u16_lc)
    rows, cols = gb * th, gw * tw * lc
    out_cols = gw * tw * u16_lc

    pb = ProgramBuilder(f"subbyte_{seed}", grid=[gb, gw])
    in_ptr = pb.param("in0", pointer(dtype))
    out_ptr = pb.param("out0", pointer(u16))
    bi, bj = pb.block_indices()
    g_in = pb.view_global(in_ptr, dtype=dtype, shape=[rows, cols])
    g_out = pb.view_global(out_ptr, dtype=u16, shape=[rows, out_cols])

    tile = pb.load_global(g_in, layout=layout, offset=[bi * th, bj * tw * lc])
    as_u16 = pb.view(tile, u16, u16_layout)
    if rng.integers(2) == 0:
        # Round-trip the bits through the sub-byte type before storing.
        back = pb.view(as_u16, dtype, layout)
        as_u16 = pb.view(back, u16, u16_layout)
    pb.store_global(as_u16, g_out, offset=[bi * th, bj * tw * u16_lc])
    program = pb.finish()

    data = random_values_for(dtype, (rows, cols), rng)
    return GeneratedCase(
        seed, family, program, inputs=[(data, dtype)], outputs=[((rows, out_cols), u16)]
    )


# ---------------------------------------------------------------------------
# shared memory family
# ---------------------------------------------------------------------------


def _gen_shared(seed: int, rng, family: str) -> GeneratedCase:
    gb, gw = _pick(rng, _GRIDS)
    th, tw = _pick(rng, _TILES)
    dname = _pick(rng, ["f16", "u8", "i32", "u4"])
    dtype = dtype_from_name(dname)
    layout = spatial(th, tw)
    rows, cols = gb * th, gw * tw
    use_copy_async = bool(rng.integers(2))
    remap = bool(rng.integers(2))

    pb = ProgramBuilder(f"shared_{seed}", grid=[gb, gw])
    in_ptr = pb.param("in0", pointer(dtype))
    out_ptr = pb.param("out0", pointer(dtype))
    bi, bj = pb.block_indices()
    g_in = pb.view_global(in_ptr, dtype=dtype, shape=[rows, cols])
    g_out = pb.view_global(out_ptr, dtype=dtype, shape=[rows, cols])

    smem = pb.allocate_shared(dtype, [th, tw])
    if use_copy_async:
        pb.copy_async(smem, g_in, src_offset=[bi * th, bj * tw])
        pb.copy_async_commit_group()
        pb.copy_async_wait_group(0)
        pb.synchronize()
    else:
        tile = pb.load_global(g_in, layout=layout, offset=[bi * th, bj * tw])
        pb.store_shared(tile, smem)
        pb.synchronize()
    # Reload under a different thread mapping: the values cross threads
    # through shared memory, which only agrees if the bit-level staging is
    # exact in both engines.
    reload_layout = column_spatial(th, tw) if remap else layout
    staged = pb.load_shared(smem, layout=reload_layout)
    pb.free_shared(smem)
    pb.store_global(staged, g_out, offset=[bi * th, bj * tw])
    program = pb.finish()

    data = random_values_for(dtype, (rows, cols), rng)
    return GeneratedCase(
        seed, family, program, inputs=[(data, dtype)], outputs=[((rows, cols), dtype)]
    )


# ---------------------------------------------------------------------------
# dot family
# ---------------------------------------------------------------------------


def _gen_dot(seed: int, rng, family: str) -> GeneratedCase:
    gb, gw = _pick(rng, [(2, 1), (2, 2), (3, 1), (4, 1)])
    m, k, n = 8, 4, 8
    a_layout = spatial(m, k)
    b_layout = spatial(k, n)
    c_layout = spatial(m, 4).local(1, 2)  # (8, 8) over 32 threads
    steps = int(rng.integers(1, 4))

    pb = ProgramBuilder(f"dot_{seed}", grid=[gb, gw])
    a_ptr = pb.param("a", pointer(float16))
    b_ptr = pb.param("b", pointer(float16))
    out_ptr = pb.param("out0", pointer(float32))
    bi, bj = pb.block_indices()
    g_a = pb.view_global(a_ptr, dtype=float16, shape=[gb * m, steps * k])
    g_b = pb.view_global(b_ptr, dtype=float16, shape=[steps * k, gw * n])
    g_out = pb.view_global(out_ptr, dtype=float32, shape=[gb * m, gw * n])

    acc = pb.allocate_register(float32, layout=c_layout, init=0.0)
    with pb.for_range(steps) as s:
        a = pb.load_global(g_a, layout=a_layout, offset=[bi * m, s * k])
        b = pb.load_global(g_b, layout=b_layout, offset=[s * k, bj * n])
        pb.dot(a, b, acc, out=acc)
    pb.store_global(acc, g_out, offset=[bi * m, bj * n])
    program = pb.finish()

    a_data = float16.quantize(rng.standard_normal((gb * m, steps * k)))
    b_data = float16.quantize(rng.standard_normal((steps * k, gw * n)))
    return GeneratedCase(
        seed,
        family,
        program,
        inputs=[(a_data, float16), (b_data, float16)],
        outputs=[((gb * m, gw * n), float32)],
    )


# ---------------------------------------------------------------------------
# reduce family
# ---------------------------------------------------------------------------


def _gen_reduce(seed: int, rng, family: str) -> GeneratedCase:
    gb, gw = _pick(rng, _GRIDS)
    th, tw = _pick(rng, [(4, 8), (8, 4)])
    dname = _pick(rng, ["f16", "f32", "i32"])
    dtype = dtype_from_name(dname)
    layout = spatial(th, tw)
    axis = int(rng.integers(2))
    rows, cols = gb * th, gw * tw

    pb = ProgramBuilder(f"reduce_{seed}", grid=[gb, gw])
    in_ptr = pb.param("in0", pointer(dtype))
    out_ptr = pb.param("out0", pointer(dtype))
    bi, bj = pb.block_indices()
    g_in = pb.view_global(in_ptr, dtype=dtype, shape=[rows, cols])
    if axis == 0:
        out_shape = (gb, cols)
        red_layout = spatial(1, tw)
        offset = [bi, bj * tw]
    else:
        out_shape = (rows, gw)
        red_layout = spatial(th, 1)
        offset = [bi * th, bj]
    g_out = pb.view_global(out_ptr, dtype=dtype, shape=list(out_shape))

    tile = pb.load_global(g_in, layout=layout, offset=[bi * th, bj * tw])
    reduced = pb.reduce_sum(tile, axis=axis, layout=red_layout)
    pb.store_global(reduced, g_out, offset=offset)
    program = pb.finish()

    data = random_values_for(dtype, (rows, cols), rng)
    if dtype.is_integer:
        data = np.clip(data, -7, 7)  # keep sums in range
    return GeneratedCase(
        seed, family, program, inputs=[(data, dtype)], outputs=[(out_shape, dtype)]
    )


# ---------------------------------------------------------------------------
# lookup family
# ---------------------------------------------------------------------------


def _gen_lookup(seed: int, rng, family: str) -> GeneratedCase:
    gb, gw = _pick(rng, [(2, 1), (2, 2), (3, 1), (3, 2)])
    th, tw = _pick(rng, [(4, 8), (8, 4)])
    code_d = dtype_from_name(_pick(rng, ["u2", "u4"]))
    lc = 16 // code_d.nbits
    layout = spatial(th, tw).local(1, lc)
    rows, cols = gb * th, gw * tw * lc
    table_len = 1 << code_d.nbits

    pb = ProgramBuilder(f"lookup_{seed}", grid=[gb, gw])
    codes_ptr = pb.param("codes", pointer(code_d))
    table_ptr = pb.param("table", pointer(float16))
    out_ptr = pb.param("out0", pointer(float16))
    bi, bj = pb.block_indices()
    g_codes = pb.view_global(codes_ptr, dtype=code_d, shape=[rows, cols])
    g_table = pb.view_global(table_ptr, dtype=float16, shape=[table_len])
    g_out = pb.view_global(out_ptr, dtype=float16, shape=[rows, cols])

    codes = pb.load_global(g_codes, layout=layout, offset=[bi * th, bj * tw * lc])
    values = pb.lookup(codes, g_table)
    pb.store_global(values, g_out, offset=[bi * th, bj * tw * lc])
    program = pb.finish()

    code_data = rng.integers(0, table_len, size=(rows, cols))
    table_data = float16.quantize(rng.standard_normal(table_len))
    return GeneratedCase(
        seed,
        family,
        program,
        inputs=[(code_data, code_d), (table_data, float16)],
        outputs=[((rows, cols), float16)],
    )


# ---------------------------------------------------------------------------
# template families: the real kernel programs
# ---------------------------------------------------------------------------

#: Weight types whose per-thread fragment is byte-aligned for the
#: (block_m=16, block_n=8, block_k=16) tile (4 weight locals per thread,
#: so any even bit width qualifies).
_TEMPLATE_WEIGHTS = ["u2", "u4", "i4", "u6", "i6", "u8", "i8"]


def _quantized_operands(rng, m, n, k, wdtype: DataType, group: int, cfg: MatmulConfig):
    """Host-side data for one template instantiation: activations, packed
    weight, scales (the exact preprocessing `ops.prepare_linear` does)."""
    scheme = QuantScheme(wdtype, group_size=group)
    a = float16.quantize(rng.standard_normal((m, k)))
    q, scales = quantize_weight(rng.standard_normal((k, n)), scheme)
    lay = matmul_layouts(cfg, wdtype)
    packed = transform_weight(q, wdtype, lay.b_warp)
    return scheme, a, packed, float16.quantize(scales)


def _gen_pipelined_matmul(seed: int, rng, family: str) -> GeneratedCase:
    """The full quantized matmul template on its software-pipelined
    ``cp.async`` path (``num_stages >= 2``): shared-memory multi-buffering,
    commit/wait groups, masked boundary tiles and sub-byte weight
    reinterpretation, all in one program."""
    cfg = MatmulConfig(16, 8, 16, num_stages=int(rng.integers(2, 4)))
    wdtype = dtype_from_name(_pick(rng, _TEMPLATE_WEIGHTS))
    m = int(_pick(rng, [8, 16, 24, 32]))
    n = int(_pick(rng, [16, 24]))
    k = int(_pick(rng, [32, 48, 64]))
    group = int(_pick(rng, [g for g in (16, 32) if k % g == 0]))
    scheme, a, packed, scales = _quantized_operands(rng, m, n, k, wdtype, group, cfg)
    program = quantized_matmul_program(m, n, k, float16, scheme, cfg)
    return GeneratedCase(
        seed,
        family,
        program,
        inputs=[(a, float16), (packed, uint8), (scales, float16)],
        outputs=[((m, n), float16)],
    )


def _gen_splitk(seed: int, rng, family: str) -> GeneratedCase:
    """The split-k pair: a partial kernel reducing k-slices into an f32
    workspace, then a reduce kernel summing the slices.  Two launches with
    a read-after-write dependency through the workspace — the stream
    execution mode must order them via hazard tracking."""
    sk = 2
    cfg = MatmulConfig(16, 8, 16, split_k=sk)
    wdtype = dtype_from_name(_pick(rng, _TEMPLATE_WEIGHTS))
    m = int(_pick(rng, [8, 16, 24]))
    n = int(_pick(rng, [16, 24]))
    k = int(_pick(rng, [32, 64]))
    group = int(_pick(rng, [g for g in (16, 32) if k % g == 0]))
    scheme, a, packed, scales = _quantized_operands(rng, m, n, k, wdtype, group, cfg)
    partial = splitk_partial_program(m, n, k, float16, scheme, cfg)
    reduce = splitk_reduce_program(m, n, sk, float16, tile_n=8)
    return GeneratedCase(
        seed,
        family,
        partial,
        inputs=[(a, float16), (packed, uint8), (scales, float16)],
        # The f32 workspace is compared too: partial sums are fully
        # deterministic, so engines must agree on them bit-for-bit.
        outputs=[((sk, m, n), float32), ((m, n), float16)],
        launches=[(partial, (0, 1, 2, 3)), (reduce, (3, 4))],
    )
