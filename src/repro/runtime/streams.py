"""Asynchronous kernel launches with hazard tracking: one pending list,
drained inline.

Once kernels are fast, orchestration overhead — not kernel math —
dominates (the SPEC CPU2026 observation in PAPERS.md), and on this
interpreter-hosted device the one orchestration cost worth removing is
the per-launch engine invocation.  This module keeps the CUDA-shaped
stream vocabulary as a **schedule** rather than as threads or queues:

- :class:`Stream` — a label: the pool it belongs to and its index.
  Passing one as ``stream=`` makes a launch asynchronous; which one is
  passed decides nothing (not the order, not the grouping, not where
  the work is tallied);
- :class:`StreamPool` — one pending list, one
  :class:`~repro.runtime.executor.Lane` (a sequential interpreter +
  grid-vectorized batched executor pair sharing one
  :class:`~repro.vm.interp.ExecutionStats`, trace lane
  :data:`~repro.obs.trace.POOL_TID`) and one sticky error; it tracks
  hazards and **runs** everything at the drain points.

Execution model
---------------
``submit`` checks the arguments, resolves the launch's byte ranges,
computes its hazard dependencies against the pending launches and
appends its handle to the pool's pending list — nothing executes.
The **drain points** — :meth:`LaunchHandle.wait`,
:meth:`StreamPool.synchronize` / ``drain`` / ``shutdown`` / ``__exit__``,
a graph replay, and the owning runtime's synchronous ``launch`` /
``download`` / ``synchronize`` — form execution groups over the *whole*
pending DAG (:func:`form_groups`, the rule execution-graph
instantiation uses too) and run them in head order on the calling
thread, on the pool's lane, under the pool's one re-entrant lock.  Host
threads may submit, wait and replay concurrently; the lock is the only
synchronization.  Program order is the only order: whatever the host
issued before a drain point has retired when the drain point returns.

Correctness model
-----------------
Every submitted launch gets a **global-memory access summary**: byte
ranges derived from the program's ``ViewGlobal`` instructions (reads from
``LoadGlobal``/``CopyAsync``/``Lookup``/``PrintTensor``, writes from
``StoreGlobal``/``CopyAsync``).  The ranges are **offset-granular**
along the leading dimension: an access whose leading offset is a
parameter-only expression charges just the row slice it touches, so
slice-disjoint writers through one shared view stay independent; only
block-varying offsets (and whole-tensor reads) fall back to charging
the whole view.  Writes serialize, reads share: a launch depends on
every earlier pending launch whose ranges overlap with at least one
side writing.  A program whose views cannot be resolved at submit time
(pointer arithmetic, block-varying shapes) is treated as writing all of
memory — always correct, never grouped.  Dependencies only ever point
at earlier submissions and a launch joins a group only when all of its
dependencies precede the group's head, so head order is a topological
order and results are bit-exact with serial issue in submission order
(independent launches commute; conflicting ones keep their order).

Throughput model
----------------
What the pool delivers is **grouping**: hazard-independent pending
launches of one program whose access ranges are pairwise disjoint
execute as one stacked grid
(:meth:`~repro.vm.batched.BatchedExecutor.launch_many`, or the stacked
compiled kernel once the launches' shared specialization is hot),
paying the per-instruction Python dispatch cost once per group instead
of once per launch.  That is exactly the paper's launch-overhead
argument transposed to the simulator: batching the orchestration, not
the math.  (Worker threads were measured to add a wake-up per group and
GIL contention to every per-node wall time, and to overlap nothing;
docs/streams.md keeps the numbers.)

Workloads that re-submit an identical launch DAG every iteration can
additionally freeze the hazard edges and groups into a replayable
:class:`~repro.runtime.graphs.ExecutionGraph` via
:meth:`StreamPool.capture` (see :mod:`repro.runtime.graphs`).
"""

from __future__ import annotations

import itertools
import threading
from typing import Sequence

import numpy as np

from repro.compiler.pipeline import specialization_key
from repro.errors import VMError
from repro.ir import instructions as insts
from repro.ir.evaluator import evaluate
from repro.ir.expr import Expr, Var
from repro.ir.program import Program
from repro.obs import trace as obs_trace
from repro.runtime.executor import (
    ContextAttr,
    ExecutionContext,
    Lane,
    Site,
    execute,
)
from repro.vm.batched import supports_batched
from repro.vm.memory import GlobalMemory

#: Upper bound on blocks in one coalesced execution.  Small grids are
#: where coalescing pays (per-instruction dispatch overhead dominates);
#: past this size the stacked arrays outgrow cache and merging turns
#: neutral-to-negative, so large grids execute one launch at a time.
MAX_MERGED_BLOCKS = 64

#: Where an eager group is accounted.
_EXEC_SITE = Site("exec", "stream")


# ---------------------------------------------------------------------------
# Global-memory access analysis
# ---------------------------------------------------------------------------

_ACCESS_ATTR = "_stream_access_summary"

#: Sentinel end for a conservative whole-memory range.
_WHOLE_MEMORY = (0, float("inf"), True)


class _AccessSlice:
    """One global-memory access through a view.

    ``offset0``/``extent0`` are the leading-dimension slice the access
    touches (expressions over launch parameters), or ``None`` when the
    access cannot be narrowed — block-varying offsets, whole-tensor reads
    (``Lookup``/``PrintTensor``) — in which case the whole view is
    charged.  ``writes`` marks stores."""

    __slots__ = ("offset0", "extent0", "writes")

    def __init__(self, offset0, extent0, writes) -> None:
        self.offset0 = offset0
        self.extent0 = extent0
        self.writes = writes


class _ViewAccess:
    """One ``ViewGlobal`` of a program: which pointer parameter it is based
    on, its shape expressions, and the per-instruction access slices."""

    __slots__ = ("param", "dtype", "shape", "slices")

    def __init__(self, param, dtype, shape) -> None:
        self.param = param
        self.dtype = dtype
        self.shape = tuple(shape)
        self.slices: list[_AccessSlice] = []


def _is_param_only(value, params: set) -> bool:
    """True when ``value`` is a constant or an expression over launch
    parameters only (no block indices, no loop variables)."""
    if isinstance(value, Expr):
        for node in value.walk():
            if isinstance(node, Var) and node not in params:
                return False
    return True


def _shape_is_param_only(shape, params: set) -> bool:
    return all(_is_param_only(extent, params) for extent in shape)


def _leading_extent(tensor):
    shape = tensor.ttype.shape
    return shape[0] if shape else None


def analyze_access(program: Program):
    """Map the program's global views to per-access slice summaries.

    Returns ``(views, conservative)`` where ``views`` is a list of
    :class:`_ViewAccess` and ``conservative`` is True when any global view
    cannot be attributed to a pointer parameter with a parameter-only
    shape (the launch is then treated as writing all of memory).

    Accesses are **offset-granular** along the leading dimension: a load
    or store whose leading offset is a parameter-only expression records
    the exact row slice it touches, so two launches writing disjoint
    slices through a *shared* view resolve to disjoint byte ranges and
    may run concurrently.  Offsets involving block indices fall back to
    charging the whole view.  Memoized on the program — the analysis is
    launch-invariant.
    """
    cached = program.__dict__.get(_ACCESS_ATTR)
    if cached is not None:
        return cached
    params = set(program.params)
    views: dict = {}
    conservative = False
    for inst in program.body.instructions():
        if isinstance(inst, insts.ViewGlobal):
            shape = inst.out.ttype.shape
            if (
                isinstance(inst.ptr, Var)
                and inst.ptr in params
                and _shape_is_param_only(shape, params)
            ):
                views[inst.out] = _ViewAccess(inst.ptr, inst.out.ttype.dtype, shape)
            else:
                conservative = True

    def record(var, offset0, extent0, writes):
        access = views.get(var)
        if access is None:
            return
        if (
            offset0 is not None
            and extent0 is not None
            and access.shape
            and _is_param_only(offset0, params)
            and _is_param_only(extent0, params)
        ):
            access.slices.append(_AccessSlice(offset0, extent0, writes))
        else:
            access.slices.append(_AccessSlice(None, None, writes))

    for inst in program.body.instructions():
        if isinstance(inst, insts.LoadGlobal):
            offset0 = inst.offset[0] if inst.offset else None
            record(inst.src, offset0, _leading_extent(inst.out), False)
        elif isinstance(inst, insts.StoreGlobal):
            offset0 = inst.offset[0] if inst.offset else None
            record(inst.dst, offset0, _leading_extent(inst.src), True)
        elif isinstance(inst, insts.CopyAsync):
            extent0 = inst.shape[0] if inst.shape else _leading_extent(inst.dst)
            offset0 = inst.src_offset[0] if inst.src_offset else None
            record(inst.src, offset0, extent0, False)
            record(inst.dst, None, None, True)
        elif isinstance(inst, insts.Lookup):
            record(inst.table, None, None, False)
        elif isinstance(inst, insts.PrintTensor):
            record(inst.tensor, None, None, False)
    result = (list(views.values()), conservative)
    program.__dict__[_ACCESS_ATTR] = result
    return result


_SHAPE_PARAMS_ATTR = "_stream_shape_param_indices"


def shape_param_indices(program: Program) -> tuple[int, ...]:
    """Indices of parameters referenced by any ``ViewGlobal`` shape.

    The batched engine requires global view shapes to be uniform across
    blocks, so launches may only coalesce when they agree on these
    arguments (other scalars may differ — they stack as per-block
    bindings).  Memoized on the program.
    """
    cached = program.__dict__.get(_SHAPE_PARAMS_ATTR)
    if cached is not None:
        return cached
    referenced: set = set()
    for inst in program.body.instructions():
        if not isinstance(inst, insts.ViewGlobal):
            continue
        for extent in inst.out.ttype.shape:
            if isinstance(extent, Expr):
                for node in extent.walk():
                    if isinstance(node, Var):
                        referenced.add(node)
    result = tuple(
        i for i, p in enumerate(program.params) if p in referenced
    )
    program.__dict__[_SHAPE_PARAMS_ATTR] = result
    return result


def _eval_extent(value, env) -> int:
    return int(evaluate(value, env)) if isinstance(value, Expr) else int(value)


def launch_ranges(program: Program, args: Sequence) -> list[tuple]:
    """Byte ranges ``(start, end, writes)`` this launch touches in global
    memory, resolved against its arguments.

    Ranges are **offset-granular**: an access whose leading-dimension
    offset is statically known (a parameter-only expression) contributes
    only the row slice it touches, so slice-disjoint writers through a
    shared view get disjoint ranges and may execute concurrently.
    Accesses with block-varying offsets charge their whole view.

    Shared-memory traffic and ``AllocateGlobal`` workspace (fresh,
    private addresses) are excluded.  Falls back to one whole-memory
    write range when the program's views defeat static analysis.
    """
    views, conservative = analyze_access(program)
    if conservative:
        return [_WHOLE_MEMORY]
    env = {p: a for p, a in zip(program.params, args)}
    ranges: set = set()
    for access in views:
        if not access.slices:
            continue
        base = int(env[access.param])
        rows = _eval_extent(access.shape[0], env) if access.shape else 1
        inner = 1
        for extent in access.shape[1:]:
            inner *= _eval_extent(extent, env)
        row_bits = inner * access.dtype.nbits
        total_bytes = (rows * row_bits + 7) // 8
        for sl in access.slices:
            if sl.offset0 is None or row_bits == 0:
                ranges.add((base, base + total_bytes, sl.writes))
                continue
            r0 = _eval_extent(sl.offset0, env)
            r1 = r0 + _eval_extent(sl.extent0, env)
            if r1 <= r0:
                continue  # zero-extent access: touches nothing
            if r0 < 0:
                # Negative leading offsets defeat the byte-range model
                # (wrap-around indexing can reach arbitrary device
                # bytes), so charge all of memory, not just the view.
                ranges.add(_WHOLE_MEMORY)
                continue
            r1 = min(r1, rows)
            if r1 <= r0:
                # Starts at/past the view's end: a masked access touches
                # nothing; an unmasked one raises before taking effect.
                continue
            ranges.add(
                (base + (r0 * row_bits) // 8, base + (r1 * row_bits + 7) // 8, sl.writes)
            )
    return sorted(ranges)


def stackable_with_group(
    program: Program,
    grid: tuple,
    first_args: Sequence,
    nxt_grid: tuple,
    nxt_args: Sequence,
    group_len: int,
) -> bool:
    """Static core of launch-coalescing eligibility: a batchable
    program, one grid shape within the stacked-block cap, and identical
    shape-contributing scalars.  :func:`form_groups` adds program/tier
    identity, dependency order and pairwise range disjointness.
    """
    if not supports_batched(program):
        return False
    per_launch = int(np.prod(grid)) if grid else 1
    if per_launch * (group_len + 1) > MAX_MERGED_BLOCKS:
        return False
    if nxt_grid != grid:
        return False
    # Global view shapes must stay uniform across the stacked blocks:
    # launches that bind shape-contributing params differently are
    # individually valid but cannot share one batched execution.
    shape_params = shape_param_indices(program)
    return all(nxt_args[i] == first_args[i] for i in shape_params)


def ranges_conflict(a: list[tuple], b: list[tuple]) -> bool:
    """True when two launches' ranges overlap with at least one writing.

    Empty ranges (``start == end``) touch no bytes and never conflict —
    the half-open overlap test alone would wrongly flag an empty range
    sitting strictly inside a non-empty one.
    """
    for a_start, a_end, a_w in a:
        if a_start >= a_end:
            continue
        for b_start, b_end, b_w in b:
            if b_start >= b_end:
                continue
            if (a_w or b_w) and a_start < b_end and b_start < a_end:
                return True
    return False


# ---------------------------------------------------------------------------
# Group formation
# ---------------------------------------------------------------------------


def form_groups(launches: Sequence, dep_indices) -> list[list]:
    """Partition ``launches`` (in submission order) into execution
    groups, one engine invocation each — the one rule behind the eager
    drain and execution-graph instantiation, so the two cannot drift.

    First fit: a launch joins the earliest group it is mergeable with.
    Launches are :class:`LaunchHandle` or
    :class:`~repro.runtime.graphs.GraphNode` objects (``program`` /
    ``requested`` tier / ``key`` / ``grid`` / ``args`` / ``ranges`` /
    ``index``); ``dep_indices(launch)`` gives the ``index`` of each of
    its dependencies.  A launch's dependencies are *all* earlier
    launches it conflicts with, so a member conflicts with nothing it is
    hoisted over, and every edge out of a group points at a group with
    an earlier head: creation order is a topological order.
    """
    groups: list[list] = []
    for nxt in launches:
        deps = tuple(dep_indices(nxt))
        for group in groups:
            if _mergeable(group, nxt, deps):
                group.append(nxt)
                break
        else:
            groups.append([nxt])
    return groups


def _mergeable(group: list, nxt, deps: tuple) -> bool:
    first = group[0]
    if nxt.program is not first.program or nxt.requested != first.requested:
        return False
    if first.requested == "sequential":
        return False  # only the batched engine interprets a stack
    if first.requested == "compiled" and nxt.key != first.key:
        # A mixed-key stack runs on the batched engine; a forced-compiled
        # launch must not be silently demoted by merging.
        return False
    if not stackable_with_group(
        first.program, first.grid, first.args, nxt.grid, nxt.args, len(group)
    ):
        return False
    # The group runs where its head stood in submission order, which is
    # safe only when every dependency strictly precedes the head.
    if any(dep >= first.index for dep in deps):
        return False
    # Coalesced launches interleave, so any write overlap (even RAW
    # within the group) forbids merging: members are pairwise disjoint.
    return all(not ranges_conflict(nxt.ranges, member.ranges) for member in group)


# ---------------------------------------------------------------------------
# Handles, streams and the pool
# ---------------------------------------------------------------------------


class LaunchHandle:
    """An asynchronously issued kernel launch.

    ``wait()`` drains the pool — the launch, and everything else
    pending, retires on the calling thread — and re-raises the launch's
    execution error, if it had one.
    """

    def __init__(self, program: Program, args: tuple, pool: "StreamPool",
                 index: int, ranges: list[tuple], requested: str,
                 key: tuple) -> None:
        self.program = program
        self.args = args
        self.pool = pool
        self.index = index  # position in the pool's submission order
        self.ranges = ranges
        self.requested = requested  # the tier asked for
        self.grid = program.grid_size(args)
        self.key = key  # specialization key
        self.deps: tuple[LaunchHandle, ...] = ()
        self.error: BaseException | None = None
        self.done = False

    def wait(self) -> None:
        if not self.done:
            self.pool.drain()
        if self.error is not None:
            raise VMError(
                f"async launch of {self.program.name!r} failed: {self.error}"
            ) from self.error

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"LaunchHandle({self.program.name}, seq={self.index}, {state})"


class Stream:
    """A label a launch is issued with: its pool and its index.  It
    decides nothing — every launch of a pool lands on the pool's one
    pending list and one lane, whichever stream named it."""

    __slots__ = ("pool", "index")

    def __init__(self, pool: "StreamPool", index: int) -> None:
        self.pool = pool
        self.index = index

    def __repr__(self) -> str:
        return f"Stream({self.index})"


class StreamPool:
    """One pending list over one device memory, with hazard tracking and
    the inline group loop that executes eager launches and graph
    replays alike (see module docstring).  ``streams`` are its labels.

    Usable as a context manager: leaving the block synchronizes.
    """

    def __init__(
        self,
        memory: GlobalMemory,
        num_streams: int = 4,
        shared_capacity: int = 228 * 1024,
        stdout=None,
    ) -> None:
        if num_streams < 1:
            raise ValueError(f"num_streams must be positive, got {num_streams}")
        self.streams = [Stream(self, i) for i in range(num_streams)]
        #: Where every group of this pool runs and is tallied.  Apart
        #: from the runtime's host lane: a synchronous launch runs
        #: outside the pool lock, so sharing it would race a drain.
        self.lane = Lane(memory, shared_capacity, obs_trace.POOL_TID, stdout)
        self.stats = self.lane.stats
        self.launches = 0          # individual launches retired
        self.executions = 0        # engine invocations (after coalescing)
        #: Guards the pending list, the counters and — held across a
        #: whole drain or replay — the lane: the one synchronization
        #: between host threads sharing this pool.
        self._lock = threading.RLock()
        self._pending: list[LaunchHandle] = []
        self._seq = itertools.count()
        self._error: BaseException | None = None  # sticky, CUDA-style
        self._capture = None  # active ExecutionGraph recording, if any
        #: What every execution on this pool consults.  A pool created by
        #: ``Runtime.stream_pool`` is handed the runtime's context.
        self.context = ExecutionContext()

    #: Active :class:`~repro.runtime.profiling.Profile`, or None.  When
    #: set, every engine invocation — eager group or graph replay —
    #: records a per-launch cost into it.
    profiler = ContextAttr()
    #: Attached :class:`~repro.runtime.jit.JitManager`, or None.  When
    #: set, every execution (eager groups and graph replays alike)
    #: promotes hot specializations to their compiled kernels.  See
    #: :mod:`repro.runtime.jit`.
    jit = ContextAttr()

    # -- graph capture ------------------------------------------------------
    @property
    def capturing(self) -> bool:
        """True while an execution-graph capture is recording submissions."""
        return self._capture is not None

    def capture(self) -> "repro.runtime.graphs.ExecutionGraph":  # noqa: F821
        """Begin capturing an execution graph: used as a context manager,
        every ``submit`` inside the block is *recorded* (hazard analysis
        and coalescing run once, at capture time) instead of executed,
        and the resulting graph replays the frozen launch DAG without any
        of that per-launch work.  See :mod:`repro.runtime.graphs`.
        """
        from repro.runtime.graphs import ExecutionGraph

        return ExecutionGraph(self)

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        program: Program,
        args: Sequence,
        stream: Stream | None = None,
        engine: str = "auto",
        key: tuple | None = None,
    ) -> LaunchHandle:
        """Queue a launch; returns its handle without executing anything
        (the next drain point runs it).  ``stream`` is a label of this
        pool, or None; either way the launch joins the one pending list.
        ``key`` is the launch's specialization key when the caller
        (``Runtime.launch``) has computed it already.

        During an active :meth:`capture`, the launch is recorded into the
        graph and an inert handle is returned.
        """
        if len(args) != len(program.params):
            raise VMError(
                f"{program.name} expects {len(program.params)} args, got {len(args)}"
            )
        if stream is not None and stream.pool is not self:
            raise VMError("stream belongs to a different pool")
        args = tuple(args)
        if key is None:
            key = specialization_key(program, args)
        if self._capture is not None:
            return self._capture._record(program, args, engine, key)
        ranges = launch_ranges(program, args)
        with self._lock:
            handle = LaunchHandle(
                program, args, self, next(self._seq), ranges, engine, key
            )
            handle.deps = tuple(
                h for h in self._pending if ranges_conflict(h.ranges, ranges)
            )
            self._pending.append(handle)
        return handle

    # -- execution ----------------------------------------------------------
    def drain(self) -> None:
        """Run every pending launch, grouped, on the calling thread.
        Never raises for a failing launch: errors land on the handles and
        (sticky) on the pool, for ``wait`` / ``synchronize``."""
        with self._lock:
            if not self._pending:
                return
            pending, self._pending = self._pending, []
            try:
                for group in form_groups(
                    pending, lambda h: (dep.index for dep in h.deps)
                ):
                    self._run_eager(group)
            finally:
                # Only an interrupt leaves launches unretired: requeue them.
                self._pending[:0] = [h for h in pending if not h.done]

    def _run_eager(self, group: list[LaunchHandle]) -> None:
        head = group[0]
        runnable = []
        for handle in group:
            failed = next((d for d in handle.deps if d.error is not None), None)
            if failed is None:
                runnable.append(handle)
            else:
                # Poisoned input: retire without executing.
                handle.error = VMError(
                    f"dependency {failed.program.name!r} (seq={failed.index}) "
                    f"failed: {failed.error}"
                )
        if runnable:
            try:
                # Eager sites are keyed by specialization-key string, so
                # launches that coalesced with different scalar bindings
                # still record under their own identity.
                self.run_group(
                    head.program, [h.args for h in runnable], head.requested,
                    [h.key for h in runnable], _EXEC_SITE,
                )
            except Exception as exc:  # noqa: BLE001 — propagated to waiters
                for handle in runnable:
                    handle.error = exc
        for handle in group:
            if handle.error is not None and self._error is None:
                self._error = handle.error
            handle.done = True

    def run_group(self, program: Program, args_list, requested: str, keys,
                  site: Site) -> None:
        """One engine invocation on the pool's lane, tallied there: the
        body of the group loop, for eager drains and graph replays.  The
        caller holds the pool lock."""
        execute(self.lane, self.context, program, args_list, requested, keys, site)
        self.launches += len(args_list)
        self.executions += 1

    # -- host-side synchronization ------------------------------------------
    def synchronize(self) -> None:
        """Drain; re-raise the pool's first execution error (sticky, like
        a CUDA device error — it stays raised on every later
        synchronize)."""
        self.drain()
        if self._error is not None:
            raise VMError(f"stream launch failed: {self._error}") from self._error

    def shutdown(self) -> None:
        """Drain what is pending.  Never raises; use :meth:`synchronize`
        to surface execution errors."""
        self.drain()

    def __enter__(self) -> "StreamPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.synchronize()
        finally:
            self.shutdown()

    def __repr__(self) -> str:
        return (
            f"StreamPool({len(self.streams)} streams, {self.launches} launches "
            f"in {self.executions} executions)"
        )
