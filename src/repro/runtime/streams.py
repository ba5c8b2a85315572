"""Multi-stream runtime: asynchronous kernel launches with hazard tracking.

Once kernels are fast, orchestration overhead — not kernel math —
dominates (the SPEC CPU2026 observation in PAPERS.md), and on this
interpreter-hosted device the one orchestration cost worth removing is
the per-launch engine invocation.  This module keeps the CUDA-shaped
stream vocabulary, as a **schedule** rather than as threads:

- :class:`Stream` — a logical launch queue: a placement label, a
  statistics lane and a profile site, with its own
  :class:`~repro.runtime.executor.Lane` (a sequential interpreter +
  grid-vectorized batched executor pair sharing one
  :class:`~repro.vm.interp.ExecutionStats`);
- :class:`Event` — a marker recorded on a stream; ``event.wait()``
  drains the pool, ``stream.wait_event(event)`` orders one stream's
  later submissions behind another's tail;
- :class:`StreamPool` — owns the streams, places launches that don't
  name one (round-robin, steered memory-aware: a launch that conflicts
  with pending work lands on the conflicting launch's stream), tracks
  hazards, and **runs** everything at the drain points.

Execution model
---------------
``submit`` checks the arguments, resolves the launch's byte ranges,
computes its hazard dependencies against the pending launches, places it
and appends its handle to the pool's pending list — nothing executes.
The **drain points** — :meth:`LaunchHandle.wait`, :meth:`Event.wait`,
:meth:`Stream.synchronize`, :meth:`StreamPool.synchronize` / ``drain`` /
``shutdown`` / ``__exit__``, a graph replay, and the owning runtime's
synchronous ``launch`` / ``download`` / ``synchronize`` — form execution
groups over the *whole* pending DAG (:func:`form_groups`, the rule
execution-graph instantiation uses too) and run them in head order on
the calling thread, each on its head launch's stream, under the pool's
one re-entrant lock.  Host threads may submit, wait and replay
concurrently; the lock is the only synchronization.  Program order is
the only order: whatever the host issued before a drain point has
retired when the drain point returns.

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
What streams deliver is **grouping**: hazard-independent pending
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
additionally freeze all of the above — hazard edges, stream placement,
groups — into a replayable :class:`~repro.runtime.graphs.
ExecutionGraph` via :meth:`StreamPool.capture` (see
:mod:`repro.runtime.graphs`).
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
from repro.runtime.executor import (
    ContextAttr,
    ExecutionContext,
    Lane,
    Site,
    execute,
    resolve_engine,
)
from repro.vm.batched import supports_batched
from repro.vm.interp import ExecutionStats
from repro.vm.memory import GlobalMemory


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
    if per_launch * (group_len + 1) > Stream.MAX_MERGED_BLOCKS:
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

    First fit: a launch joins the earliest group it is mergeable with,
    whichever stream either was placed on.  Launches are
    :class:`LaunchHandle` or :class:`~repro.runtime.graphs.GraphNode`
    objects (``program`` / ``requested`` tier / frozen ``engine`` /
    ``key`` / ``grid`` / ``args`` / ``ranges`` / ``index``);
    ``dep_indices(launch)`` gives the ``index`` of each of its
    dependencies.  A launch's dependencies are *all* earlier launches it
    conflicts with, so a member conflicts with nothing it is hoisted
    over, and every edge out of a group points at a group with an
    earlier head: creation order is a topological order.
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
    if first.engine != "batched" or nxt.engine != "batched":
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
# Handles and events
# ---------------------------------------------------------------------------


class LaunchHandle:
    """An asynchronously issued kernel launch.

    ``wait()`` drains the pool — the launch, and everything else
    pending, retires on the calling thread — and re-raises any
    execution error (the same error every later ``wait`` /
    ``synchronize`` call observes).
    """

    def __init__(self, program: Program, args: tuple, stream: "Stream",
                 index: int, ranges: list[tuple], requested: str) -> None:
        self.program = program
        self.args = args
        self.stream = stream
        self.index = index  # position in the pool's submission order
        self.ranges = ranges
        self.requested = requested  # the tier asked for
        self.engine = resolve_engine(requested, program)  # frozen interpreted engine
        self.grid = program.grid_size(args)
        #: Specialization key, computed once here at submit.
        self.key = specialization_key(program, args)
        self.deps: tuple[LaunchHandle, ...] = ()
        self.error: BaseException | None = None
        self.done = False

    def wait(self) -> None:
        if not self.done:
            self.stream.pool.drain()
        if self.error is not None:
            raise VMError(
                f"async launch of {self.program.name!r} on {self.stream} failed: "
                f"{self.error}"
            ) from self.error

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"LaunchHandle({self.program.name}, seq={self.index}, {state})"


class Event:
    """A stream-ordering marker: the tail launch of a stream at the
    moment of :meth:`Stream.record_event`.  An event recorded on a
    stream with nothing pending is already signaled."""

    def __init__(self, handle: LaunchHandle | None) -> None:
        self._handle = handle

    def query(self) -> bool:
        return self._handle is None or self._handle.done

    def wait(self) -> None:
        """Drain until the event signals; re-raises its launch's error."""
        if self._handle is not None:
            self._handle.wait()


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


class Stream:
    """A logical launch queue: where a launch is placed, tallied and
    profiled.  Nothing executes until a drain point (module docstring);
    a group runs on its head launch's stream."""

    #: Upper bound on blocks in one coalesced execution.  Small grids are
    #: where coalescing pays (per-instruction dispatch overhead dominates);
    #: past this size the stacked arrays outgrow cache and merging turns
    #: neutral-to-negative, so large grids execute one launch at a time.
    MAX_MERGED_BLOCKS = 64

    def __init__(self, pool: "StreamPool", index: int) -> None:
        self.pool = pool
        self.index = index
        #: Trace lane ``index + 1`` (lane 0 is the host's own launches).
        self.lane = Lane(pool.memory, pool.shared_capacity, index + 1, pool.stdout)
        self.stats = self.lane.stats
        self._site = Site("exec", "stream", index)
        self.launches = 0          # individual launches retired
        self.executions = 0        # engine invocations (after coalescing)
        self._tail: LaunchHandle | None = None
        #: Event tails later submissions on this stream are ordered behind.
        self._waits: list[LaunchHandle] = []
        self._error: BaseException | None = None  # sticky, CUDA-style

    def synchronize(self) -> None:
        """Drain the pool; re-raise this stream's first execution error
        (sticky, like a CUDA device error — it stays raised on every
        later synchronize)."""
        self.pool.drain()
        if self._error is not None:
            raise VMError(f"{self} launch failed: {self._error}") from self._error

    def record_event(self) -> Event:
        """Capture this stream's current tail as an :class:`Event`."""
        tail = self._tail
        return Event(tail if tail is not None and not tail.done else None)

    def wait_event(self, event: Event) -> None:
        """Order all future work on this stream after ``event``: its
        launch becomes a dependency of every later submission here."""
        handle = event._handle
        if handle is None or handle.done:
            return
        if handle.stream.pool is not self.pool:
            handle.stream.pool.drain()  # another pool's work: retire it now
            return
        with self.pool._lock:
            self._waits.append(handle)

    def __repr__(self) -> str:
        return f"Stream({self.index})"


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class StreamPool:
    """A fixed set of streams over one device memory, with scheduling,
    hazard tracking and the inline group loop that executes eager
    launches and graph replays alike (see module docstring).

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
        self.memory = memory
        self.shared_capacity = shared_capacity
        self.stdout = stdout
        self.streams = [Stream(self, i) for i in range(num_streams)]
        #: Guards the pending list, placement state and — held across a
        #: whole drain or replay — the streams' lanes: the one
        #: synchronization between host threads sharing this pool.
        self._lock = threading.RLock()
        self._pending: list[LaunchHandle] = []
        self._rr = itertools.count()
        self._seq = itertools.count()
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
        every ``submit`` inside the block is *recorded* (scheduling,
        hazard analysis and coalescing run once, at capture time) instead
        of executed, and the resulting graph replays the frozen launch
        DAG without any of that per-launch work.  See
        :mod:`repro.runtime.graphs`.
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
    ) -> LaunchHandle:
        """Queue a launch; returns its handle without executing anything
        (the next drain point runs it).

        ``stream=None`` lets the scheduler place the launch: round-robin
        across streams, except that a launch conflicting with pending
        work goes to the most recent conflicting launch's stream
        (memory-aware placement).

        During an active :meth:`capture`, the launch is recorded into the
        graph and an inert handle is returned.
        """
        if self._capture is not None:
            return self._capture._record(program, args, stream=stream, engine=engine)
        if len(args) != len(program.params):
            raise VMError(
                f"{program.name} expects {len(program.params)} args, got {len(args)}"
            )
        args = tuple(args)
        ranges = launch_ranges(program, args)
        with self._lock:
            deps = [h for h in self._pending if ranges_conflict(h.ranges, ranges)]
            if stream is None:
                stream = self._pick_stream(deps)
            handle = LaunchHandle(
                program, args, stream, next(self._seq), ranges, engine
            )
            if stream._waits:
                stream._waits = [h for h in stream._waits if not h.done]
                deps.extend(h for h in stream._waits if h not in deps)
            handle.deps = tuple(deps)
            self._pending.append(handle)
            stream._tail = handle
        return handle

    def _pick_stream(self, deps: list[LaunchHandle]) -> Stream:
        if deps:
            return deps[-1].stream
        return self.streams[next(self._rr) % len(self.streams)]

    # -- execution ----------------------------------------------------------
    def drain(self) -> None:
        """Run every pending launch, grouped, on the calling thread.
        Never raises for a failing launch: errors land on the handles and
        (sticky) on their streams, for ``wait`` / ``synchronize``."""
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
                # still record under their own tunable identity.
                self.run_group(
                    head.stream, head.program, [h.args for h in runnable],
                    head.requested, head.engine, [h.key for h in runnable],
                    head.stream._site,
                )
            except Exception as exc:  # noqa: BLE001 — propagated to waiters
                for handle in runnable:
                    handle.error = exc
        for handle in group:
            if handle.error is not None:
                for stream in (head.stream, handle.stream):
                    if stream._error is None:
                        stream._error = handle.error
            handle.done = True

    def run_group(self, stream: Stream, program: Program, args_list, requested: str,
                  engine: str, keys, site: Site) -> None:
        """One engine invocation on ``stream``'s lane, tallied there: the
        body of the group loop, for eager drains and graph replays.  The
        caller holds the pool lock."""
        execute(
            stream.lane, self.context, program, args_list, requested, engine,
            keys, site,
        )
        stream.launches += len(args_list)
        stream.executions += 1

    # -- host-side synchronization ------------------------------------------
    def synchronize(self) -> None:
        """Drain; re-raise the first stream's sticky error, if any."""
        for stream in self.streams:
            stream.synchronize()

    def aggregate_stats(self) -> ExecutionStats:
        """Sum of all per-stream execution statistics."""
        total = ExecutionStats()
        for stream in self.streams:
            total.merge(stream.stats)
        return total

    @property
    def launches(self) -> int:
        return sum(s.launches for s in self.streams)

    @property
    def executions(self) -> int:
        """Engine invocations after coalescing (<= launches)."""
        return sum(s.executions for s in self.streams)

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
