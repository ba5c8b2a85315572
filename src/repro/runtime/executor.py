"""The launch executor: the one seam every kernel launch goes through.

Two call sites issue launches — the synchronous ``Runtime.launch`` and
the stream pool's group loop (``StreamPool.run_group``: eager drains,
graph replays and the serial replay oracle) — and each keeps only what
is its own (argument checks and preparation; group formation, error
marking and the tally).  What they share lives here,
once:

- :func:`execute` — decide the tier, consult the JIT, run the engine,
  time it, record the profile, emit the span; returns the tier that
  ran.  A launch carries one fact, the *requested* tier (``auto |
  sequential | batched | compiled``); the interpreted engine a launch
  falls to when the compiled tier does not take it is derived here from
  that and the program's memoized ``supports_batched``.  A group asks
  the JIT for the kernel of its key, its size *and* the pointers its
  launches share (:func:`shared_pointers` — derived from the arguments
  here, nowhere set).
- :class:`Lane` — the engines and statistics of one place work is
  accounted (the host's own launches, or the stream pool), and
  :class:`ExecutionContext` — the profiler and JIT manager a runtime
  and its stream pool share.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.ir.program import Program
from repro.obs import trace as obs_trace
from repro.runtime.jit import JitManager
from repro.runtime.profiling import Profile, StatsTimer
from repro.vm.batched import BatchedExecutor, supports_batched
from repro.vm.interp import Interpreter
from repro.vm.memory import GlobalMemory


@dataclass
class ExecutionContext:
    """What every launch path of one runtime consults: the active
    profiler and the compiled tier (each None when off), plus the
    runtime's launch counter.  A ``Runtime`` creates one
    and hands the same object to its ``StreamPool``; a pool built
    standalone creates its own."""

    profiler: Profile | None = None
    jit: JitManager | None = None
    launches: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def attach_jit(self, memory: GlobalMemory, shared_capacity: int) -> JitManager:
        """The attached JIT manager, created on first use (under a lock:
        host threads racing to force ``engine="compiled"`` must end up
        sharing one manager)."""
        with self._lock:
            if self.jit is None:
                self.jit = JitManager(memory, shared_capacity)
            return self.jit


class ContextAttr:
    """A read/write view of one :class:`ExecutionContext` field on an
    object holding the context as ``.context`` (``runtime.profiler``,
    ``pool.jit``, …), so the field has one home however it is reached."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        return self if obj is None else getattr(obj.context, self.name)

    def __set__(self, obj, value) -> None:
        setattr(obj.context, self.name, value)


class Lane:
    """The engines of one place work is accounted: a sequential
    interpreter and a batched executor over one memory, sharing one
    :class:`~repro.vm.interp.ExecutionStats`, plus the trace lane
    (``tid``) their spans land on.  The runtime owns the host lane and
    its stream pool one more — a lane is not a thread: the pool's is
    driven by whichever host thread drains."""

    __slots__ = ("interpreter", "batched", "stats", "tid")

    def __init__(
        self, memory: GlobalMemory, shared_capacity: int, tid: int, stdout=None
    ) -> None:
        self.interpreter = Interpreter(
            memory, shared_capacity=shared_capacity, stdout=stdout
        )
        self.stats = self.interpreter.stats
        self.batched = BatchedExecutor(
            memory, shared_capacity=shared_capacity, stats=self.stats, stdout=stdout
        )
        self.tid = tid


class Site(NamedTuple):
    """Where one execution is accounted: the span it emits."""

    #: Span name prefix (``launch`` / ``exec`` / ``replay``) and category.
    span: str
    cat: str


def shared_pointers(program: Program, args_list: Sequence[Sequence]) -> tuple:
    """The parameter indices of the pointers every launch of a stack
    passes the same value for (the weights and scales of a decode step);
    ``()`` for a single launch.  A constant of the stack, like its size:
    the compiled kernel for it reads through those pointers once instead
    of once per launch."""
    if len(args_list) == 1:
        return ()
    first = args_list[0]
    return tuple(
        i for i, param in enumerate(program.params)
        if param.dtype.is_pointer and all(args[i] == first[i] for args in args_list)
    )


_UNTIMED = nullcontext()


def execute(
    lane: Lane,
    ctx: ExecutionContext,
    program: Program,
    args_list: Sequence[Sequence],
    requested: str,
    keys: Sequence[tuple],
    site: Site,
) -> str:
    """Run one engine invocation — a single launch, or a coalesced group
    of hazard-independent launches of one program — and account for it.
    ``keys`` are the launches' specialization keys.  Returns the tier
    that ran."""
    profiler = ctx.profiler
    tracer = obs_trace.ACTIVE
    start = tracer.now() if tracer is not None else 0.0
    kernel = None
    if requested in ("auto", "compiled") and keys.count(keys[0]) == len(keys):
        # One specialization, one invocation, on whatever tier that key
        # has reached: a group of launches sharing a key asks for the
        # kernel stacking that many.  Forcing skips the count and
        # needs no prior enable_jit(); "auto" promotes on the manager's
        # invocation count once one is attached; explicit
        # sequential/batched are honored.
        # A bailout (None) leaves the launch on the interpreted
        # engine below — batched, when forced.
        forced = requested == "compiled"
        jit = ctx.jit
        if jit is None and forced:
            jit = ctx.attach_jit(
                lane.interpreter.memory, lane.interpreter.shared_capacity
            )
        if jit is not None:
            kernel = jit.maybe_compile(
                program, args_list[0], forced=forced, key=keys[0],
                launches=len(args_list), shared=shared_pointers(program, args_list),
            )
    if kernel is not None:
        tier = "compiled"
    elif len(args_list) > 1 or requested == "batched" or (
        requested != "sequential" and supports_batched(program)
    ):
        # Only the batched engine interprets a stack; "auto" and a
        # bailed-out "compiled" run there whenever the program batches.
        tier = "batched"
    else:
        tier = "sequential"
    # Only the engine call is timed: compilation above and the
    # bookkeeping below stay out of the measurement.
    with StatsTimer(lane.stats) if profiler is not None else _UNTIMED as timer:
        if kernel is not None:
            jit.run(kernel, args_list, lane.stats)
        elif tier == "batched":
            lane.batched.launch_many(program, args_list)
        else:
            lane.interpreter.launch(program, args_list[0])
    if timer is not None:
        # One invocation, split evenly over its launches (integer
        # counters remainder-exactly).  Compiled time records under its
        # own engine, apart from the interpreted tiers' records.
        profiler.record_group(
            program.name,
            keys,
            tier,
            timer.wall,
            stats_delta=timer.delta,
        )
    if tracer is not None:
        args = {"engine": tier}
        if site.cat == "stream":
            args["launches"] = len(args_list)
        tracer.complete(
            f"{site.span}:{program.name}",
            site.cat,
            lane.tid,
            start,
            tracer.now() - start,
            args,
        )
    return tier
