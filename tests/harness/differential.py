"""Run one generated case through every execution mode and compare
bit-exactly.

Every mode gets an *identical* device image: a fresh
:class:`~repro.vm.memory.GlobalMemory`, the same uploads in the same
order (so identical addresses), and zero-initialized output regions.
After executing the case's launch plan the raw **bit patterns** of every
output tensor are compared — not decoded values — so NaN payloads,
negative zeros and sub-byte padding must all agree.  Execution
statistics are compared as well: every mode is required to count work
exactly as if blocks had run one at a time.

Five modes are locked together:

- ``sequential``   — the block-loop interpreter, the semantic reference;
- ``batched``      — the grid-vectorized executor, forced for every launch;
- ``stream``       — the stream pool: launches are issued with
  round-robin stream labels to a :class:`~repro.runtime.streams.
  StreamPool`, so multi-launch cases (split-k partial → reduce) rely on
  hazard tracking for their ordering, and the grouped drain (launches
  hoisted into earlier groups) must still produce serial-issue results;
- ``graph-replay`` — the execution-graph subsystem: the case's launch
  plan is *captured* (hazard edges and coalescing groups frozen once,
  nothing executed), then replayed through the pool's
  group loop with all per-launch analysis skipped — and must still match
  the sequential reference bit-for-bit with stat parity;
- ``jit``          — the compiled tier, through the launch executor:
  the ``stream`` mode's submissions, issued with ``engine="compiled"``
  on a pool with a :class:`~repro.runtime.jit.JitManager` attached, so
  every launch is lowered through the :mod:`repro.compiler.lower` pass
  pipeline (const-fold the bound scalars → unroll the block loop →
  flatten to straight-line vectorized source) and the ``compile()``-d
  kernel executes instead of the interpreter; launches the pipeline
  bails out on (data-dependent control flow, unsupported ops) take the
  executor's fallback to the batched engine.  Every launch is pending
  until the pool's drain point, so which launches coalesce is a
  function of the plan alone: the replicated cases
  (:meth:`~tests.harness.generator.GeneratedCase.replicated`) queue
  same-specialization launches, which run as *stacked* compiled
  kernels (or, on a stacked bailout, as one ``launch_many``).
  Bit patterns *and* execution statistics must match the sequential
  reference — the compiled kernel is required to count blocks,
  instructions and global traffic exactly as if it had interpreted.

Two properties ride on the same generated cases
(:func:`check_labels_decide_nothing`, :func:`check_sharing_decides_nothing`):
a stream is a label — capturing the plan under a different stream
labelling changes neither the group partition, nor one output bit, nor
the aggregate statistics — and whether the launches of a stack read an
operand through one pointer or through private copies of it decides
how often the bytes are loaded, never a result.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VMError
from repro.runtime.jit import JitManager
from repro.runtime.streams import StreamPool
from repro.vm import BatchedExecutor, GlobalMemory, Interpreter, TensorView
from repro.vm.dispatch import decompose_linear

from tests.harness.generator import SHARING_FORMS, GeneratedCase, generate_case

#: Execution modes every case must agree across.
MODES = (
    "sequential",
    "batched",
    "stream",
    "graph-replay",
    "jit",
)


class DifferentialMismatch(AssertionError):
    """Two execution modes disagreed on a generated program."""


def _resolve_args(spec, buffers):
    """Map a launch's buffer-index spec to device addresses; an entry may
    be ``idx`` or ``(idx, byte_offset)``."""
    args = []
    for entry in spec:
        if isinstance(entry, tuple):
            idx, offset = entry
            args.append(buffers[idx] + offset)
        else:
            args.append(buffers[entry])
    return args


def _device_image(case: GeneratedCase):
    """A fresh device image for ``case``: the same uploads in the same
    order (so identical addresses) and zero-initialized outputs.
    Returns ``(memory, host interpreter, buffer addresses, output
    addresses)``."""
    memory = GlobalMemory(1 << 24)
    host = Interpreter(memory)
    buffers = [host.upload(data, dtype) for data, dtype in case.inputs]
    out_addrs = [host.alloc_output(shape, dtype) for shape, dtype in case.outputs]
    buffers.extend(out_addrs)
    return memory, host, buffers, out_addrs


def _output_bits(case: GeneratedCase, memory, out_addrs) -> list:
    outputs = []
    for addr, (shape, dtype) in zip(out_addrs, case.outputs):
        view = TensorView(memory.buffer, addr * 8, dtype, tuple(shape))
        outputs.append(view.gather_bits(decompose_linear(tuple(shape))).copy())
    return outputs


def _round_robin(i: int, n: int, streams: int) -> int:
    return i % streams


def _capture_plan(pool: StreamPool, plan, buffers, label=_round_robin):
    """Capture the case's launch plan, launch ``i`` of ``n`` on stream
    ``label(i, n, num_streams)`` (round-robin unless told otherwise)."""
    with pool.capture() as graph:
        for i, (program, spec) in enumerate(plan):
            pool.submit(
                program,
                _resolve_args(spec, buffers),
                stream=pool.streams[label(i, len(plan), len(pool.streams))],
            )
    return graph


def _run_engine(case: GeneratedCase, mode: str):
    """Execute ``case`` under ``mode`` on a fresh device image: output
    bit patterns, the stats snapshot, and how many stacked compiled
    kernels (several launches in one lowered call) ran."""
    memory, host, buffers, out_addrs = _device_image(case)
    stacked_compiled = 0
    plan = case.launch_plan()
    if mode == "sequential":
        for program, spec in plan:
            host.launch(program, _resolve_args(spec, buffers))
        stats = host.stats
    elif mode == "batched":
        executor = BatchedExecutor(memory, stats=host.stats)
        for program, spec in plan:
            executor.launch(program, _resolve_args(spec, buffers))
        stats = host.stats
    elif mode in ("stream", "jit"):
        with StreamPool(memory, num_streams=4) as pool:
            if mode == "jit":
                pool.jit = JitManager(memory)
            for i, (program, spec) in enumerate(plan):
                pool.submit(
                    program,
                    _resolve_args(spec, buffers),
                    stream=pool.streams[i % len(pool.streams)],
                    engine="compiled" if mode == "jit" else "auto",
                )
            pool.synchronize()
        if mode == "jit":
            # A kernel is lowered by the execution that then runs it.
            stacked_compiled = sum(
                kernel.launches > 1
                for program in {program for program, _ in plan}
                for kernel in pool.jit.kernels(program)
            )
        stats = pool.stats
    elif mode == "graph-replay":
        with StreamPool(memory, num_streams=4) as pool:
            graph = _capture_plan(pool, plan, buffers)
            assert len(graph) == len(plan)
            graph.replay()
            pool.synchronize()
        stats = pool.stats
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _output_bits(case, memory, out_addrs), stats.snapshot(), stacked_compiled


def run_differential(case: GeneratedCase) -> None:
    """Assert all modes produce bit-identical outputs and equal stats."""
    reference_mode = MODES[0]
    ref_outs, ref_stats, _ = _run_engine(case, reference_mode)
    for mode in MODES[1:]:
        outs, stats, _ = _run_engine(case, mode)
        for idx, (ref_bits, got_bits) in enumerate(zip(ref_outs, outs)):
            if not np.array_equal(ref_bits, got_bits):
                diff = np.flatnonzero(ref_bits != got_bits)
                shape, dtype = case.outputs[idx]
                raise DifferentialMismatch(
                    f"output {idx} ({dtype}{list(shape)}) differs at "
                    f"{diff.size}/{ref_bits.size} elements between "
                    f"{reference_mode} and {mode} (first at linear index "
                    f"{diff[0]}: {reference_mode}={ref_bits[diff[0]]:#x} "
                    f"{mode}={got_bits[diff[0]]:#x})\n{case.describe()}"
                )
        if ref_stats != stats:
            delta = {
                k: (ref_stats[k], stats[k])
                for k in ref_stats
                if ref_stats[k] != stats[k]
            }
            raise DifferentialMismatch(
                f"execution stats diverge ({reference_mode}, {mode}): "
                f"{delta}\n{case.describe()}"
            )


# ---------------------------------------------------------------------------
# Properties of the graph subsystem over the generated cases
# ---------------------------------------------------------------------------

#: Stream labellings a capture must be indifferent to.
LABELLINGS = {
    "round-robin": _round_robin,
    "all-on-one": lambda i, n, streams: 0,
    "reversed": lambda i, n, streams: (n - 1 - i) % streams,
}


def check_labels_decide_nothing(case: GeneratedCase) -> None:
    """Capture and replay ``case`` under every labelling in
    :data:`LABELLINGS`: the group partition (``node_indices`` per
    group), every output bit and the aggregate statistics must be the
    same — a stream is a label, it decides nothing."""
    seen = {}
    for name, label in LABELLINGS.items():
        memory, _, buffers, out_addrs = _device_image(case)
        with StreamPool(memory, num_streams=4) as pool:
            graph = _capture_plan(pool, case.launch_plan(), buffers, label)
            partition = [group.node_indices for group in graph._groups]
            graph.replay()
            pool.synchronize()
        outs = [bits.tolist() for bits in _output_bits(case, memory, out_addrs)]
        seen[name] = (partition, outs, pool.stats.snapshot())
    reference = seen.pop("round-robin")
    for name, got in seen.items():
        for what, ref, other in zip(("groups", "output bits", "stats"), reference, got):
            if ref != other:
                raise DifferentialMismatch(
                    f"{what} differ between the round-robin and {name} "
                    f"labellings\n{case.describe()}"
                )


def check_sharing_decides_nothing(seed: int) -> None:
    """Issue replicated seed ``seed`` in every one of
    :data:`~tests.harness.generator.SHARING_FORMS` — the copies reading
    each input through one pointer, through private uploads, or the
    first through one pointer and the rest privately — under every
    mode: output bytes, statistics and error text must be those of the
    sequential oracle on the shared form.  A stack that shares a pointer
    loads through it once; nothing observable may tell."""

    def outcome(case: GeneratedCase, mode: str):
        try:
            outs, stats, _ = _run_engine(case, mode)
        except VMError as exc:
            return f"{type(exc).__name__}: {exc}"
        return [bits.tolist() for bits in outs], stats

    reference = outcome(generate_case(seed, "shared"), MODES[0])
    for form in SHARING_FORMS:
        case = generate_case(seed, form)
        for mode in MODES:
            if outcome(case, mode) != reference:
                raise DifferentialMismatch(
                    f"{mode} on the {form} form differs from {MODES[0]} on "
                    f"the shared form\n{case.describe()}"
                )
