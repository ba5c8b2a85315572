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

Nine modes are locked together:

- ``sequential``   — the block-loop interpreter, the semantic reference;
- ``batched``      — the grid-vectorized executor, forced for every launch;
- ``stream``       — the multi-stream runtime: launches are issued
  round-robin across the streams of a :class:`~repro.runtime.streams.
  StreamPool`, so multi-launch cases (split-k partial → reduce) rely on
  hazard tracking for their ordering, and the grouped drain (launches
  hoisted into earlier groups) must still produce serial-issue results;
- ``graph-replay`` — the execution-graph subsystem: the case's launch
  plan is *captured* (scheduling, hazard edges and coalescing groups
  frozen once, nothing executed), then replayed through the pool's
  group loop with all per-launch analysis skipped — and must still match
  the sequential reference bit-for-bit with stat parity;
- ``graph-optimized`` — the profile-guided pass: the plan is captured
  and replayed once on a *throwaway* device image with profiling on
  (collecting real per-node costs under the graph's signature), then a
  fresh image's capture is rebuilt by ``graph.optimize(profile)`` —
  measured-cost LPT stream placement, re-derived coalescing groups —
  and replayed; moving every node to a profile-chosen stream must
  change nothing observable.
- ``adaptive``     — the adaptive runtime: the same throwaway-image
  profile drives **profile-guided capture** (``capture(profile=...)``:
  measured-cost placement and stream-count capping decided at
  instantiate time, overriding the plan's explicit stream hints), and
  the resulting graph is replayed through an
  :class:`~repro.runtime.adaptive.AdaptivePolicy`-managed facade with
  the pool's profiler recording — letting the capture pick everything
  from measured costs must change nothing observable either.
- ``plan-roundtrip`` — the cross-process placement-transfer path used
  by sharded serving: the captured graph's :class:`~repro.runtime.
  graphs.GraphPlan` is serialized to versioned JSON, parsed back, and
  re-applied (``apply_plan``) — validated node-by-node against the
  capture's specialization keys, grids and hazard edges — and the
  re-instantiated graph is replayed; a schedule surviving the wire
  must change nothing observable.
- ``warm-store``   — the fleet-warm-boot path used by the persistent
  tuning store: the throwaway-image profile is *published to* and
  *loaded back from* an on-disk :class:`~repro.store.TuningStore`
  (versioned JSON, checksummed, atomically renamed), the loaded copy
  drives profile-guided capture exactly as ``adaptive`` does, and the
  graph is replayed under ``manage(warm=True)`` — a profile surviving
  the disk round-trip, and the zero-first-swap warm policy, must
  change nothing observable.
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

The five graph-based modes (``graph-replay``, ``graph-optimized``,
``adaptive``, ``plan-roundtrip``, ``warm-store``) are one driver,
:func:`_run_graph_mode`, plus a per-mode entry in :data:`GRAPH_MODES`.

The adaptive mode's swap dynamics (warmup windows, hysteresis,
atomicity) are exercised separately by ``tests/test_adaptive.py`` —
one differential execution replays each plan exactly once, so swaps
cannot fire here by construction.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.runtime.adaptive import AdaptivePolicy
from repro.runtime.graphs import GraphPlan
from repro.runtime.jit import JitManager
from repro.runtime.profiling import Profile
from repro.runtime.streams import StreamPool
from repro.store import TuningStore
from repro.vm import BatchedExecutor, GlobalMemory, Interpreter, TensorView
from repro.vm.dispatch import decompose_linear
from repro.vm.interp import ExecutionStats

from tests.harness.generator import GeneratedCase

#: Execution modes every case must agree across.
MODES = (
    "sequential",
    "batched",
    "stream",
    "graph-replay",
    "graph-optimized",
    "adaptive",
    "plan-roundtrip",
    "warm-store",
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


def _capture_plan(pool: StreamPool, plan, buffers, profile=None):
    """Capture the case's launch plan round-robin across the pool's
    streams.  The one shared entry point for every graph-based mode (and
    the profile-collection pass): plan order and stream assignment must
    stay byte-identical between them, because the profile lookup keys on
    the resulting graph signature.  ``profile`` switches the capture to
    profile-guided mode (the adaptive path)."""
    with pool.capture(profile=profile) as graph:
        for i, (program, spec) in enumerate(plan):
            pool.submit(
                program,
                _resolve_args(spec, buffers),
                stream=pool.streams[i % len(pool.streams)],
            )
    return graph


def _collect_profile(case: GeneratedCase) -> Profile:
    """Execute the case's captured graph once on a *throwaway* device
    image with profiling enabled: the recorded per-node costs carry the
    graph's signature, so the real image's capture (identical plan,
    identical upload order ⇒ identical specialization keys) can be
    optimized against them."""
    memory = GlobalMemory(1 << 24)
    host = Interpreter(memory)
    buffers = [host.upload(data, dtype) for data, dtype in case.inputs]
    buffers.extend(
        host.alloc_output(shape, dtype) for shape, dtype in case.outputs
    )
    with StreamPool(memory, num_streams=4) as pool:
        graph = _capture_plan(pool, case.launch_plan(), buffers)
        pool.profiler = Profile()
        graph.replay()
        pool.synchronize()
        return pool.profiler


def _stored_profile(case: GeneratedCase) -> Profile:
    """The throwaway-image profile after a round trip through an on-disk
    :class:`~repro.store.TuningStore`."""
    profile = _collect_profile(case)
    with tempfile.TemporaryDirectory() as root:
        store = TuningStore(root)
        store.publish_profile("diff", profile)
        loaded = store.load_profile("diff")
    assert loaded.stamp() == profile.stamp()
    return loaded


def _plan_roundtrip(graph, profile, pool):
    applied = graph.apply_plan(GraphPlan.from_json(graph.plan().to_json()))
    assert applied.signature == graph.signature
    return applied


def _managed(warm: bool):
    def transform(graph, profile, pool):
        pool.profiler = Profile()
        # Warmup larger than the driver's single replay: the policy
        # observes but never swaps mid-case (replaying the plan twice
        # would double-execute it and break stat parity).
        return AdaptivePolicy(warmup_replays=8, min_gain=0.5).manage(graph, warm=warm)

    return transform


#: The graph-based modes, as data for :func:`_run_graph_mode`:
#: ``(profile source or None, capture guided by it?, transform)`` where
#: ``transform(graph, profile, pool)`` turns the captured graph into the
#: one that is replayed.
GRAPH_MODES = {
    "graph-replay": (None, False, lambda graph, profile, pool: graph),
    "graph-optimized": (
        _collect_profile, False, lambda graph, profile, pool: graph.optimize(profile)
    ),
    "adaptive": (_collect_profile, True, _managed(warm=False)),
    "plan-roundtrip": (None, False, _plan_roundtrip),
    "warm-store": (_stored_profile, True, _managed(warm=True)),
}


def _run_graph_mode(case: GeneratedCase, mode: str, memory, plan, buffers):
    """The one driver of every graph-based mode: open a pool, capture
    the plan (profile-guided when the mode says so), apply the mode's
    transform, replay exactly once, synchronize, aggregate the stats."""
    source, guided, transform = GRAPH_MODES[mode]
    profile = source(case) if source is not None else None
    with StreamPool(memory, num_streams=4) as pool:
        graph = _capture_plan(
            pool, plan, buffers, profile=profile if guided else None
        )
        assert len(graph) == len(plan)
        replayed = transform(graph, profile, pool)
        # No pointer bindings are registered, so all memory is presumed
        # observable: no transform may drop a node.
        assert len(replayed) == len(plan)
        replayed.replay()
        pool.synchronize()
    return pool.aggregate_stats()


def _run_engine(case: GeneratedCase, mode: str):
    """Execute ``case`` under ``mode`` on a fresh device image: output
    bit patterns, the stats snapshot, and how many stacked compiled
    kernels (several launches in one lowered call) ran."""
    memory = GlobalMemory(1 << 24)
    stacked_compiled = 0
    host = Interpreter(memory)
    buffers = [host.upload(data, dtype) for data, dtype in case.inputs]
    out_addrs = [host.alloc_output(shape, dtype) for shape, dtype in case.outputs]
    buffers.extend(out_addrs)
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
                kernel.launches > 1 for kernel in pool.jit.cache._kernels.values()
            )
        stats = pool.aggregate_stats()
    elif mode in GRAPH_MODES:
        stats = _run_graph_mode(case, mode, memory, plan, buffers)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    outputs = []
    for addr, (shape, dtype) in zip(out_addrs, case.outputs):
        view = TensorView(memory.buffer, addr * 8, dtype, tuple(shape))
        bits = view.gather_bits(decompose_linear(tuple(shape)))
        outputs.append(bits.copy())
    return outputs, stats.snapshot(), stacked_compiled


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
