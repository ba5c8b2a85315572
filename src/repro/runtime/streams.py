"""Multi-stream runtime: asynchronous kernel launches with hazard tracking.

Real devices overlap many independent kernel launches; the synchronous
``Runtime.launch`` path executes one grid at a time, so orchestration
overhead — not kernel math — dominates once kernels are fast (the SPEC
CPU2026 observation in PAPERS.md).  This module adds the CUDA-shaped
stream vocabulary on top of the VM engines:

- :class:`Stream` — a FIFO queue of launches executed by a dedicated
  worker thread on its own :class:`~repro.runtime.executor.Lane` (a
  sequential interpreter + grid-vectorized batched executor pair with
  their own :class:`~repro.vm.interp.ExecutionStats`);
- :class:`Event` — a marker recorded on a stream; ``event.wait()`` blocks
  the host, ``stream.wait_event(event)`` orders one stream behind another;
- :class:`StreamPool` — owns the streams, schedules launches that don't
  name a stream (round-robin, steered memory-aware: a launch that
  conflicts with outstanding work lands on the conflicting stream so FIFO
  order replaces a cross-stream wait), and tracks cross-stream hazards.

Correctness model
-----------------
Every submitted launch gets a **global-memory access summary**: byte
ranges derived from the program's ``ViewGlobal`` instructions (reads from
``LoadGlobal``/``CopyAsync``/``Lookup``/``PrintTensor``, writes from
``StoreGlobal``/``CopyAsync``).  The ranges are **offset-granular**
along the leading dimension: an access whose leading offset is a
parameter-only expression charges just the row slice it touches, so
slice-disjoint writers through one shared view stay concurrent; only
block-varying offsets (and whole-tensor reads) fall back to charging
the whole view.  Writes serialize, reads share: a launch depends on
every earlier outstanding launch whose ranges overlap with at least one
side writing.  A program whose views cannot be resolved at submit time
(pointer arithmetic, block-varying shapes) is treated as writing all of
memory — always correct, never concurrent.  Because dependencies only
ever point at earlier submissions, execution is deadlock-free and
results are bit-exact with serial replay in submission order.

Throughput model
----------------
Streams execute concurrently on worker threads (numpy releases the GIL on
large array ops, so multi-block grids overlap on multi-core hosts), and
each stream **coalesces** queued launches: consecutive launches of the
same program whose dependencies are met and whose access ranges are
pairwise disjoint execute as one stacked grid
(:meth:`~repro.vm.batched.BatchedExecutor.launch_many`, or the stacked
compiled kernel once the launches' shared specialization is hot),
paying the per-instruction Python dispatch cost once per group instead
of once per launch.  That is exactly the paper's launch-overhead
argument transposed to the simulator: batching the orchestration, not
the math.

Workloads that re-submit an identical launch DAG every iteration can
additionally freeze all of the above — hazard edges, stream placement,
coalescing groups — into a replayable :class:`~repro.runtime.graphs.
ExecutionGraph` via :meth:`StreamPool.capture` (see
:mod:`repro.runtime.graphs`).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
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
from repro.runtime.profiling import EAGER
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
    """Static core of launch-coalescing eligibility, shared by the live
    stream worker and execution-graph instantiation (so the two can
    never drift): a batchable program, one grid shape within the
    stacked-block cap, and identical shape-contributing scalars.
    Callers remain responsible for the dynamic side — program/engine
    identity, dependency readiness, and pairwise range disjointness.
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
# Handles and events
# ---------------------------------------------------------------------------


class LaunchHandle:
    """An asynchronously issued kernel launch.

    ``wait()`` blocks until the launch retires and re-raises any
    execution error on the host thread (the same error every later
    ``wait``/``synchronize`` call observes).
    """

    def __init__(self, program: Program, args: tuple, stream: "Stream",
                 seq: int, ranges: list[tuple], engine: str) -> None:
        self.program = program
        self.args = args
        self.stream = stream
        self.seq = seq
        self.ranges = ranges
        self.engine = engine  # the requested tier
        #: Specialization key, computed once here at submit.
        self.key = specialization_key(program, args)
        self.deps: tuple[LaunchHandle, ...] = ()
        self.error: BaseException | None = None
        self._done = threading.Event()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self) -> None:
        self._done.wait()
        if self.error is not None:
            raise VMError(
                f"async launch of {self.program.name!r} on {self.stream} failed: "
                f"{self.error}"
            ) from self.error

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"LaunchHandle({self.program.name}, seq={self.seq}, {state})"


class Event:
    """A stream-ordering marker.

    Recorded from a stream (:meth:`Stream.record_event`), it captures the
    stream's current tail launch: completion of the tail implies
    completion of everything enqueued before the record (streams retire
    launches in order), and an event recorded on an idle stream is
    already signaled.

    :meth:`Event.manual` creates a *host-controlled* event instead: it
    stays unsignaled until :meth:`set` is called, so the host can gate a
    stream (``stream.wait_event(gate)``) while it builds up the stream's
    queue — the stream-level analogue of launching into a paused capture.
    """

    def __init__(self, handle: LaunchHandle | None, gate: threading.Event | None = None) -> None:
        self._handle = handle
        self._gate = gate

    @classmethod
    def manual(cls) -> "Event":
        """An event the host signals explicitly with :meth:`set`."""
        return cls(None, gate=threading.Event())

    def set(self) -> None:
        """Signal a manual event (no-op question for recorded events)."""
        if self._gate is None:
            raise VMError("only Event.manual() events can be set by the host")
        self._gate.set()

    def query(self) -> bool:
        if self._gate is not None:
            return self._gate.is_set()
        return self._handle is None or self._handle.done

    def wait(self, timeout: float | None = None) -> None:
        """Block the host until the event signals; with ``timeout`` (in
        seconds), raise :class:`VMError` instead of waiting forever on an
        event that is never signaled."""
        if self._gate is not None:
            if not self._gate.wait(timeout):
                raise VMError(
                    f"timed out after {timeout}s waiting for a manual event "
                    "that was never set"
                )
        elif self._handle is not None:
            if not self._handle._done.wait(timeout):
                raise VMError(
                    f"timed out after {timeout}s waiting for {self._handle}"
                )
            self._handle.wait()  # re-raise any launch error

    def _wait_signal(self, timeout: float | None = None) -> bool:
        """Worker-side wait: blocks without re-raising launch errors.
        Returns False when ``timeout`` expires before the signal."""
        if self._gate is not None:
            return self._gate.wait(timeout)
        if self._handle is not None:
            return self._handle._done.wait(timeout)
        return True


class _EventWait:
    """Queue marker: the worker blocks on the event before continuing."""

    __slots__ = ("event", "timeout")

    def __init__(self, event: Event, timeout: float | None = None) -> None:
        self.event = event
        self.timeout = timeout


class StreamTask:
    """An opaque unit of work executed on a stream's worker thread.

    Tasks participate in FIFO order and ``synchronize`` accounting like
    launches, but are *not* hazard-tracked, scheduled, or coalesced — the
    graph-replay subsystem (:mod:`repro.runtime.graphs`) uses them to
    drive the per-stream engines with all of those decisions precomputed.
    An exception escaping :meth:`run` becomes the stream's sticky error.
    """

    def run(self, stream: "Stream") -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


class Stream:
    """A FIFO launch queue with its own executors and statistics.

    Launches retire strictly in enqueue order.  The worker thread starts
    lazily on the first enqueue and coalesces eligible neighbours into
    one stacked batched execution (see module docstring).
    """

    #: Upper bound on blocks in one coalesced execution.  Small grids are
    #: where coalescing pays (per-instruction dispatch overhead dominates);
    #: past this size the stacked arrays outgrow cache and merging turns
    #: neutral-to-negative, so large grids execute one launch at a time.
    MAX_MERGED_BLOCKS = 64

    def __init__(self, pool: "StreamPool", index: int) -> None:
        self.pool = pool
        self.index = index
        #: Trace lane ``index + 1`` (lane 0 is the host thread).
        self.lane = Lane(pool.memory, pool.shared_capacity, index + 1, pool.stdout)
        self.stats = self.lane.stats
        self._site = Site("exec", "stream", EAGER, index)
        self.launches = 0          # individual launches retired
        self.executions = 0        # engine invocations (after coalescing)
        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._inflight = 0
        self._closing = False
        self._worker: threading.Thread | None = None
        self._tail: LaunchHandle | None = None
        self._error: BaseException | None = None  # sticky, CUDA-style
        #: Set when an event wait times out: the ordering the wait was
        #: enforcing is unknown, so queued launches are poisoned rather
        #: than run as if the wait had succeeded.
        self._timed_out = False

    # -- host API ----------------------------------------------------------
    def synchronize(self) -> None:
        """Block until every launch enqueued so far has retired; re-raise
        the stream's first execution error (sticky, like a CUDA device
        error — it stays raised on every later synchronize)."""
        with self._cond:
            while self._inflight > 0:
                self._cond.wait()
            error = self._error
        if error is not None:
            raise VMError(f"{self} launch failed: {error}") from error

    def record_event(self) -> Event:
        """Capture this stream's current tail as an :class:`Event`."""
        with self._cond:
            tail = self._tail if self._tail is not None and not self._tail.done else None
            return Event(tail)

    def wait_event(self, event: Event, timeout: float | None = None) -> None:
        """Order all future work on this stream after ``event``.

        With ``timeout`` (seconds), a wait on an event that never signals
        becomes the stream's sticky error — surfaced by the next
        ``synchronize`` — instead of hanging the worker forever.  A
        timed-out wait *poisons* the stream: launches queued behind it
        retire with an error instead of executing, because running them
        would silently drop the ordering the wait was enforcing.
        """
        if event.query():
            return
        with self._cond:
            self._queue.append(_EventWait(event, timeout))
            self._cond.notify()
        self._ensure_worker()

    def enqueue_task(self, task: StreamTask) -> None:
        """Enqueue a :class:`StreamTask`, FIFO-ordered against launches
        and counted by ``synchronize`` until it retires."""
        with self._cond:
            self._queue.append(task)
            self._inflight += 1
            self._cond.notify()
        self._ensure_worker()

    def __repr__(self) -> str:
        return f"Stream({self.index})"

    # -- pool-side enqueue (caller holds the pool lock) ---------------------
    def _enqueue(self, handle: LaunchHandle) -> None:
        with self._cond:
            self._queue.append(handle)
            self._inflight += 1
            self._tail = handle
            self._cond.notify()

    def _ensure_worker(self) -> None:
        # Under the lock: concurrent submitters must not double-spawn a
        # worker (two workers draining one queue would break FIFO).
        with self._cond:
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._run, name=f"repro-stream-{self.index}", daemon=True
                )
                self._worker.start()

    def _close(self) -> None:
        with self._cond:
            self._closing = True
            self._cond.notify()
        if self._worker is not None:
            self._worker.join(timeout=30.0)

    # -- worker ------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closing:
                    self._cond.wait()
                if not self._queue:
                    return  # closing and drained
                item = self._queue.popleft()
            if isinstance(item, _EventWait):
                if not item.event._wait_signal(item.timeout):
                    with self._cond:
                        self._timed_out = True
                        if self._error is None:
                            self._error = VMError(
                                f"timed out after {item.timeout}s waiting for "
                                f"an event on {self} that was never signaled"
                            )
                continue
            if isinstance(item, StreamTask):
                try:
                    item.run(self)
                except BaseException as exc:  # noqa: BLE001 — sticky, like launches
                    with self._cond:
                        if self._error is None:
                            self._error = exc
                finally:
                    with self._cond:
                        self._inflight -= 1
                        self._cond.notify_all()
                continue
            if self._timed_out:
                # A timed-out event wait upstream: the ordering it was
                # enforcing is gone, so this launch must not run.
                item.error = VMError(
                    f"{self} is poisoned by a timed-out event wait"
                )
                self._finish_group([item], executed=False)
                continue
            for dep in item.deps:
                dep._done.wait()
            failed = next((d for d in item.deps if d.error is not None), None)
            if failed is not None:
                # Poisoned input: retire without executing.
                item.error = VMError(
                    f"dependency {failed.program.name!r} (seq={failed.seq}) failed: "
                    f"{failed.error}"
                )
                self._finish_group([item], executed=False)
                continue
            group = [item]
            with self._cond:
                while self._queue and self._mergeable(item, self._queue[0], group):
                    group.append(self._queue.popleft())
            self._execute_group(group)

    def _mergeable(self, first: LaunchHandle, nxt, group: list) -> bool:
        if not isinstance(nxt, LaunchHandle):
            return False
        if nxt.program is not first.program or nxt.engine != first.engine:
            return False
        if first.engine == "sequential":
            return False
        if first.engine == "compiled" and nxt.key != first.key:
            # A mixed-key stack runs on the batched engine; an explicit
            # compiled launch must not be silently demoted by merging.
            return False
        if any(not dep.done or dep.error is not None for dep in nxt.deps):
            return False
        if not stackable_with_group(
            first.program,
            first.program.grid_size(first.args),
            first.args,
            nxt.program.grid_size(nxt.args),
            nxt.args,
            len(group),
        ):
            return False
        # Pairwise disjointness: coalesced launches interleave, so any
        # write overlap (even RAW within the group) forbids merging.
        return all(not ranges_conflict(nxt.ranges, member.ranges) for member in group)

    def _execute_group(self, group: list[LaunchHandle]) -> None:
        first = group[0]
        try:
            # Eager sites are keyed by specialization-key string, so
            # launches that coalesced with different scalar bindings
            # still record under their own tunable identity.
            execute(
                self.lane,
                self.pool.context,
                first.program,
                [handle.args for handle in group],
                first.engine,
                resolve_engine(first.engine, first.program),
                [handle.key for handle in group],
                self._site,
            )
            self.executions += 1
        except BaseException as exc:  # noqa: BLE001 — propagated to waiters
            for handle in group:
                handle.error = exc
        finally:
            self._finish_group(group, executed=True)

    def _finish_group(self, group: list[LaunchHandle], executed: bool) -> None:
        if executed:
            self.launches += len(group)
        for handle in group:
            handle._done.set()
        self.pool._retire(group)
        with self._cond:
            for handle in group:
                if handle.error is not None and self._error is None:
                    self._error = handle.error
            self._inflight -= len(group)
            self._cond.notify_all()


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class StreamPool:
    """A fixed set of streams over one device memory, with scheduling and
    cross-stream hazard tracking (see module docstring).

    Usable as a context manager; ``shutdown()`` drains and joins the
    worker threads (they are daemons, so leaking a pool cannot hang
    interpreter exit).
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
        self._lock = threading.Lock()
        self._outstanding: deque[LaunchHandle] = deque()
        self._rr = itertools.count()
        self._seq = itertools.count()
        self._capture = None  # active ExecutionGraph recording, if any
        #: What every execution on this pool consults.  A pool created by
        #: ``Runtime.stream_pool`` is handed the runtime's context.
        self.context = ExecutionContext()

    #: Active :class:`~repro.runtime.profiling.Profile`, or None.  When
    #: set, every engine invocation — eager group or graph replay —
    #: records a per-node cost into it.
    profiler = ContextAttr()
    #: Attached :class:`~repro.runtime.adaptive.AdaptivePolicy`, or None.
    #: When set, :meth:`capture` returns the graph already under
    #: management (an ``AdaptiveGraph``), so every captured DAG
    #: auto-reoptimizes after the policy's warmup window.  See
    #: :mod:`repro.runtime.adaptive`.
    adaptive = ContextAttr()
    #: Attached :class:`~repro.runtime.jit.JitManager`, or None.  When
    #: set, executions on every stream (eager groups and graph-replay
    #: tasks alike) promote hot specializations to their compiled
    #: kernels.  See :mod:`repro.runtime.jit`.
    jit = ContextAttr()

    # -- graph capture ------------------------------------------------------
    @property
    def capturing(self) -> bool:
        """True while an execution-graph capture is recording submissions."""
        return self._capture is not None

    def capture(self, profile=None) -> "repro.runtime.graphs.ExecutionGraph":  # noqa: F821
        """Begin capturing an execution graph: used as a context manager,
        every ``submit`` inside the block is *recorded* (scheduling,
        hazard analysis and coalescing run once, at capture time) instead
        of executed, and the resulting graph replays the frozen launch
        DAG without any of that per-launch work.  See
        :mod:`repro.runtime.graphs`.

        ``profile`` (a prior :class:`~repro.runtime.profiling.Profile`)
        turns on **profile-guided capture**: per-launch
        stream placement and the stream count are derived from measured
        costs instead of the heuristics, falling back to the heuristics
        for anything the profile never saw.  With an :attr:`adaptive`
        policy attached, the returned graph is already under management
        (replays through it count toward the policy's warmup window).
        See :mod:`repro.runtime.adaptive`.
        """
        from repro.runtime.graphs import ExecutionGraph

        graph = ExecutionGraph(self, profile=profile)
        if self.adaptive is not None:
            return self.adaptive.manage(graph)
        return graph

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        program: Program,
        args: Sequence,
        stream: Stream | None = None,
        engine: str = "auto",
    ) -> LaunchHandle:
        """Enqueue a launch; returns immediately with its handle.

        ``stream=None`` lets the scheduler place the launch: round-robin
        across streams, except that a launch conflicting with outstanding
        work goes to the most recent conflicting launch's stream, where
        FIFO order replaces a cross-stream wait (memory-aware placement).

        During an active :meth:`capture`, the launch is recorded into the
        graph (nothing executes) and a no-op handle is returned.
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
            while self._outstanding and self._outstanding[0].done:
                self._outstanding.popleft()
            deps = tuple(
                h
                for h in self._outstanding
                if not h.done and ranges_conflict(h.ranges, ranges)
            )
            if stream is None:
                stream = self._pick_stream(deps)
            handle = LaunchHandle(
                program, args, stream, next(self._seq), ranges, engine
            )
            handle.deps = deps
            self._outstanding.append(handle)
            # Enqueue under the pool lock: if a concurrent submitter could
            # interleave here, a dependent launch might enter its stream's
            # FIFO *ahead* of a dependency placed on the same stream, and
            # the worker would deadlock waiting on work queued behind it.
            stream._enqueue(handle)
        stream._ensure_worker()
        return handle

    def _pick_stream(self, deps: tuple[LaunchHandle, ...]) -> Stream:
        if deps:
            return deps[-1].stream
        return self.streams[next(self._rr) % len(self.streams)]

    def _retire(self, group: list[LaunchHandle]) -> None:
        with self._lock:
            while self._outstanding and self._outstanding[0].done:
                self._outstanding.popleft()

    # -- host-side synchronization ------------------------------------------
    def synchronize(self) -> None:
        """Wait for every stream to drain; re-raise the first error."""
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
        """Stop the worker threads after draining every queue.  Never
        raises; use :meth:`synchronize` to surface execution errors."""
        for stream in self.streams:
            stream._close()

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
